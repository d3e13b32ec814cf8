//! Hierarchy depth costs heap, never call stack.
//!
//! Every hierarchy consumer takes its order from
//! `CellTable::bottom_up`, which walks with an explicit stack. A
//! one-instance chain deep enough to overflow a recursive walk on a small
//! thread stack must therefore go through the writers, the deep hashes,
//! flattening, statistics, and hierarchical compaction on that stack —
//! and through a one-worker `JobQueue`, whose worker a stack overflow
//! would abort with the whole process. The last case checks that a
//! dangling or cyclic table fails with the same `LayoutError` from every
//! consumer.

use rsg::compact::backend::BellmanFord;
use rsg::compact::hier::{compact_hierarchy, CellAbstract, HierError, HierOptions};
use rsg::geom::{Orientation, Point, Rect};
use rsg::layout::hash::deep_hashes;
use rsg::layout::stats::LayoutStats;
use rsg::layout::{
    flatten, flatten_boxes_of, write_cif, write_rsgl, CellDefinition, CellId, CellTable, Instance,
    Layer, LayoutError, Technology,
};
use rsg::serve::{chip_key, JobQueue, JobSpec, ServeConfig, ServeError};
use std::path::PathBuf;

/// Chain depth: far past what a recursive walk survives on [`STACK`]
/// bytes (or on a queue worker's default stack), small enough to stay
/// within seconds in a debug build.
const DEPTH: usize = 30_000;

/// Stack of the thread the walks run on.
const STACK: usize = 1 << 20;

/// `c0` holds one box; each `c{k}` holds one instance of `c{k-1}`.
/// Returns the table and `c{depth}`.
fn chain(depth: usize) -> (CellTable, CellId) {
    let mut table = CellTable::new();
    let mut leaf = CellDefinition::new("c0");
    leaf.add_box(Layer::Metal1, Rect::from_coords(0, 0, 4, 4));
    let mut prev = table.insert(leaf).unwrap();
    for k in 1..=depth {
        let mut cell = CellDefinition::new(format!("c{k}"));
        cell.add_instance(Instance::new(prev, Point::new(1, 0), Orientation::NORTH));
        prev = table.insert(cell).unwrap();
    }
    (table, prev)
}

fn tmp_root(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("rsg-deep-{tag}-{}-{nanos}", std::process::id()))
}

fn one_worker() -> ServeConfig {
    let mut config = ServeConfig::new(Technology::mead_conway(2).rules);
    config.workers = 1;
    config
}

#[test]
fn every_walk_survives_a_chain_deeper_than_its_stack() {
    let walks = std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(|| {
            let (table, top) = chain(DEPTH);
            let cells = DEPTH + 1;

            assert_eq!(table.bottom_up(top).unwrap().len(), cells);
            let cif = write_cif(&table, top).unwrap();
            assert_eq!(cif.matches("DS ").count(), cells);
            let rsgl = write_rsgl(&table, top).unwrap();
            assert_eq!(rsgl.matches("\ncell ").count(), cells);
            assert_eq!(deep_hashes(&table, top).unwrap().len(), cells);

            let flat = flatten(&table, top).unwrap();
            let at = DEPTH as i64;
            assert_eq!(flat.len(), 1);
            assert_eq!(
                flat[0],
                (Layer::Metal1, Rect::from_coords(at, 0, at + 4, 4))
            );
            assert_eq!(flat.max_depth(), DEPTH as u32);
            assert_eq!(flat.total_instances(), DEPTH);
            assert_eq!(flat.distinct_cells(), cells);
            let metal = flatten_boxes_of(&table, top, Layer::Metal1).unwrap();
            assert_eq!(metal, [flat[0].1]);
            let stats = LayoutStats::compute(&table, top).unwrap();
            assert_eq!(stats.max_depth, DEPTH as u32);

            let rules = Technology::mead_conway(2).rules;
            let opts = HierOptions::default();
            let chip = compact_hierarchy(&table, top, &rules, &BellmanFord::SORTED, &opts).unwrap();
            assert_eq!(chip.cells.len(), DEPTH);
        })
        .unwrap();
    walks.join().unwrap();
}

#[test]
fn a_deep_chip_job_is_served_by_a_one_worker_queue() {
    let root = tmp_root("chip");
    let (table, top) = chain(DEPTH);
    let served = {
        let queue = JobQueue::new(&root, one_worker()).unwrap();
        let spec = JobSpec::Chip {
            table,
            top,
            library: Vec::new(),
        };
        queue.fetch(queue.submit(spec).unwrap())
    };
    std::fs::remove_dir_all(&root).ok();
    let out = served.unwrap();
    assert_eq!(out.result.report.cells, DEPTH);
    assert!(!out.result.artifacts.is_empty());
}

/// `c` instances a cell id that exists only in a larger table.
fn dangling() -> (CellTable, CellId, LayoutError) {
    let mut big = CellTable::new();
    for name in ["x", "y", "z"] {
        big.insert(CellDefinition::new(name)).unwrap();
    }
    let missing = big.lookup("z").unwrap();
    let mut table = CellTable::new();
    let mut c = CellDefinition::new("c");
    c.add_instance(Instance::new(missing, Point::ORIGIN, Orientation::NORTH));
    let top = table.insert(c).unwrap();
    (table, top, LayoutError::UnknownCell("#2".into()))
}

/// `b` instances `a`, which instances `b`: the walk from `b` re-enters
/// `b`.
fn cyclic() -> (CellTable, CellId, LayoutError) {
    let mut table = CellTable::new();
    let a = table.insert(CellDefinition::new("a")).unwrap();
    let mut b = CellDefinition::new("b");
    b.add_instance(Instance::new(a, Point::ORIGIN, Orientation::NORTH));
    let b = table.insert(b).unwrap();
    table
        .get_mut(a)
        .unwrap()
        .add_instance(Instance::new(b, Point::new(0, 9), Orientation::NORTH));
    (table, b, LayoutError::RecursiveCell("b".into()))
}

type Consumer = (&'static str, fn(&CellTable, CellId) -> Option<LayoutError>);

fn layout_err<T>(r: Result<T, LayoutError>) -> Option<LayoutError> {
    r.err()
}

fn hier_err<T>(r: Result<T, HierError>) -> Option<LayoutError> {
    match r {
        Err(HierError::Layout(e)) => Some(e),
        _ => None,
    }
}

fn serve_err<T>(r: Result<T, ServeError>) -> Option<LayoutError> {
    match r {
        Err(ServeError::Layout(e)) => Some(e),
        _ => None,
    }
}

#[test]
fn broken_tables_fail_alike_in_every_consumer() {
    let consumers: [Consumer; 10] = [
        ("bottom_up", |t, c| layout_err(t.bottom_up(c))),
        ("write_cif", |t, c| layout_err(write_cif(t, c))),
        ("write_rsgl", |t, c| layout_err(write_rsgl(t, c))),
        ("deep_hashes", |t, c| layout_err(deep_hashes(t, c))),
        ("flatten", |t, c| layout_err(flatten(t, c))),
        ("flatten_boxes_of", |t, c| {
            layout_err(flatten_boxes_of(t, c, Layer::Metal1))
        }),
        ("LayoutStats::compute", |t, c| {
            layout_err(LayoutStats::compute(t, c))
        }),
        ("compact_hierarchy", |t, c| {
            let rules = Technology::mead_conway(2).rules;
            let opts = HierOptions::default();
            hier_err(compact_hierarchy(t, c, &rules, &BellmanFord::SORTED, &opts))
        }),
        ("CellAbstract::composed", |t, c| {
            let rules = Technology::mead_conway(2).rules;
            hier_err(CellAbstract::composed(t, c, &rules))
        }),
        ("chip_key", |t, c| {
            let rules = Technology::mead_conway(2).rules;
            let opts = HierOptions::default();
            serve_err(chip_key(t, c, &[], &rules, "bf", &opts))
        }),
    ];
    let root = tmp_root("broken");
    let queue = JobQueue::new(&root, one_worker()).unwrap();
    for (case, (table, top, want)) in [("dangling", dangling()), ("cyclic", cyclic())] {
        for (name, consume) in &consumers {
            assert_eq!(consume(&table, top), Some(want.clone()), "{case}: {name}");
        }
        let spec = JobSpec::Chip {
            table,
            top,
            library: Vec::new(),
        };
        let served = queue.fetch(queue.submit(spec).unwrap());
        assert_eq!(serve_err(served), Some(want), "{case}: JobQueue");
    }
    drop(queue);
    std::fs::remove_dir_all(&root).ok();
}
