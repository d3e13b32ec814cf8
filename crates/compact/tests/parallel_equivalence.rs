//! Serial ≡ parallel, pinned by property tests: on every random
//! hierarchy, [`compact_hierarchy`], a persistent [`CompactSession`],
//! and the DRC scan must produce **bit-identical** results at
//! `Parallelism::Serial` and `Parallelism::Threads(n)` for
//! n ∈ {1, 2, 4, 9} — geometry, pitches, violation lists, and error
//! classes all match.
//!
//! Every hierarchy walk is also held against [`dfs_reference`], a plain
//! DFS postorder walk over the public [`compact_cell`] that stops at the
//! first failure. The library's walk is one level-scheduled executor at
//! every parallelism, so this test-only walk is the independent serial
//! answer it must reproduce: same geometry, pitches, `cells` order, and
//! error.
//!
//! The thread counts deliberately oversubscribe the host (CI runs on
//! 1–4 cores): determinism must come from the merge discipline (DFS
//! reassembly, per-level ordering, index-slot result collection), not
//! from scheduling luck.

use proptest::prelude::*;
use rsg_compact::backend::BellmanFord;
use rsg_compact::hier::{compact_cell, compact_hierarchy, ChipLayout, HierError, HierOptions};
use rsg_compact::incremental::CompactSession;
use rsg_compact::par::Parallelism;
use rsg_geom::{Orientation, Point, Rect};
use rsg_layout::{
    drc, CellDefinition, CellId, CellTable, DesignRules, FlatBox, FlatLayout, Instance, Layer,
    LayoutError, Technology,
};
use std::collections::HashMap;

/// The worker counts every property is pinned at (1 = forced parallel
/// path with a single worker; 9 = oversubscribed on any CI host).
const THREADS: [usize; 4] = [1, 2, 4, 9];

const LANE_LAYERS: [Layer; 4] = [Layer::Diffusion, Layer::Poly, Layer::Metal1, Layer::Metal2];

/// `(layer index, x offset, width, height)` per lane — clean by
/// construction: lanes stack vertically with an 8-unit gap (≥ every
/// Mead–Conway spacing at λ = 2) and every box is ≥ 8 wide/tall.
type Lanes = Vec<(usize, i64, i64, i64)>;

fn lane_cell(name: &str, lanes: &[(usize, i64, i64, i64)]) -> CellDefinition {
    let mut c = CellDefinition::new(name);
    let mut y = 0;
    for &(layer_idx, x0, w, h) in lanes {
        let layer = LANE_LAYERS[layer_idx % LANE_LAYERS.len()];
        c.add_box(layer, Rect::from_coords(x0, y, x0 + w, y + h));
        y += h + 8;
    }
    c
}

/// A three-level chip with real per-level width: two leaf definitions,
/// one grid block over each, and a top row alternating the blocks. The
/// dependency-level scheduler sees both blocks as one two-wide wave, so
/// every `Threads(n)` run genuinely fans out.
fn chip(lanes_a: &Lanes, lanes_b: &Lanes, nx: i64, ny: i64, blocks: i64) -> (CellTable, CellId) {
    let mut t = CellTable::new();
    let a = lane_cell("leaf_a", lanes_a);
    let b = lane_cell("leaf_b", lanes_b);
    let bb_a = a.local_bbox().rect().expect("non-empty");
    let bb_b = b.local_bbox().rect().expect("non-empty");
    let a_id = t.insert(a).unwrap();
    let b_id = t.insert(b).unwrap();

    let block = |t: &mut CellTable, name: &str, leaf: CellId, bb: Rect| {
        let (px, py) = (bb.hi().x + 8, bb.hi().y + 8);
        let mut blk = CellDefinition::new(name);
        for row in 0..ny {
            for col in 0..nx {
                blk.add_instance(Instance::new(
                    leaf,
                    Point::new(col * px, row * py),
                    Orientation::NORTH,
                ));
            }
        }
        t.insert(blk).unwrap()
    };
    let blk_a = block(&mut t, "block_a", a_id, bb_a);
    let blk_b = block(&mut t, "block_b", b_id, bb_b);

    let width_a = (nx - 1) * (bb_a.hi().x + 8) + bb_a.hi().x;
    let width_b = (nx - 1) * (bb_b.hi().x + 8) + bb_b.hi().x;
    let pitch = width_a.max(width_b) + 8;
    let mut top = CellDefinition::new("chip");
    for k in 0..blocks {
        let id = if k % 2 == 0 { blk_a } else { blk_b };
        top.add_instance(Instance::new(
            id,
            Point::new(k * pitch, 0),
            Orientation::NORTH,
        ));
    }
    let top_id = t.insert(top).unwrap();
    (t, top_id)
}

fn with_threads(n: usize) -> HierOptions {
    HierOptions {
        parallelism: Parallelism::Threads(n),
        ..HierOptions::default()
    }
}

/// The serial reference walk: bottom-up DFS postorder, one
/// [`compact_cell`] per assembly, stop at the first failure.
fn dfs_reference(
    table: &CellTable,
    top: CellId,
    rules: &DesignRules,
    opts: &HierOptions,
) -> Result<ChipLayout, HierError> {
    fn visit(
        t: &CellTable,
        id: CellId,
        done: &mut HashMap<CellId, bool>,
        order: &mut Vec<CellId>,
    ) -> Result<(), HierError> {
        match done.get(&id) {
            Some(true) => return Ok(()),
            Some(false) => {
                let name = t.require(id)?.name().to_owned();
                return Err(HierError::Layout(LayoutError::RecursiveCell(name)));
            }
            None => {}
        }
        done.insert(id, false);
        for inst in t.require(id)?.instances() {
            visit(t, inst.cell, done, order)?;
        }
        done.insert(id, true);
        order.push(id);
        Ok(())
    }
    let mut order = Vec::new();
    visit(table, top, &mut HashMap::new(), &mut order)?;
    let mut out = table.clone();
    let mut cells = Vec::new();
    for id in order
        .into_iter()
        .filter(|&id| table.require(id).unwrap().instances().next().is_some())
    {
        let o = compact_cell(&out, id, rules, &BellmanFord::SORTED, opts)?;
        let name = o.cell.name().to_owned();
        if !o.converged {
            let n = opts.max_passes;
            return Err(HierError::Diverged(format!(
                "cell `{name}` did not reach an x/y fixpoint in {n} alternations"
            )));
        }
        *out.get_mut(id).unwrap() = o.cell.clone();
        cells.push((name, o));
    }
    Ok(ChipLayout {
        table: out,
        top,
        cells,
    })
}

/// Every walk the library offers, labelled: the plain walk and a cold
/// session, each at `Serial` and at every pinned `Threads(n)`.
fn every_walk(
    table: &CellTable,
    top: CellId,
    rules: &DesignRules,
    opts: &HierOptions,
) -> Vec<(String, Result<ChipLayout, HierError>)> {
    let solver = BellmanFord::SORTED;
    let settings = std::iter::once(Parallelism::Serial)
        .chain(THREADS.iter().map(|&n| Parallelism::Threads(n)));
    let mut walks = Vec::new();
    for parallelism in settings {
        let opts = HierOptions {
            parallelism,
            ..*opts
        };
        walks.push((
            format!("plain {parallelism:?}"),
            compact_hierarchy(table, top, rules, &solver, &opts),
        ));
        walks.push((
            format!("session {parallelism:?}"),
            CompactSession::new().compact_hierarchy(table, top, rules, &solver, &opts),
        ));
    }
    walks
}

/// `walk == reference`: the same layout, or the same error.
fn assert_matches(
    walk: &Result<ChipLayout, HierError>,
    reference: &Result<ChipLayout, HierError>,
    label: &str,
) {
    match (walk, reference) {
        (Ok(w), Ok(r)) => assert_same(w, r, label),
        (Err(w), Err(r)) => assert_eq!(w, r, "error of {label}"),
        (w, r) => panic!(
            "{label}: {:?} but the reference gave {:?}",
            w.as_ref().map(|_| "a layout"),
            r.as_ref().map(|_| "a layout")
        ),
    }
}

/// `parallel == serial`, bit for bit, on `cells` order, geometry and
/// pitches; `n` labels the walk under test.
fn assert_same(par: &ChipLayout, serial: &ChipLayout, n: impl std::fmt::Display) {
    assert_eq!(par.cells.len(), serial.cells.len(), "cell count ({n})");
    for ((n_par, o_par), (n_ser, o_ser)) in par.cells.iter().zip(&serial.cells) {
        assert_eq!(n_par, n_ser, "compaction order ({n})");
        assert_eq!(
            o_par.cell, o_ser.cell,
            "geometry of `{n_par}` diverged ({n})"
        );
        assert_eq!(
            o_par.pitches, o_ser.pitches,
            "pitches of `{n_par}` diverged ({n})"
        );
        assert_eq!(o_par.converged, o_ser.converged);
    }
    assert_eq!(
        par.table.require(par.top).unwrap(),
        serial.table.require(serial.top).unwrap(),
        "top definition diverged ({n})"
    );
}

fn lanes_strategy(max_lanes: usize) -> impl Strategy<Value = Lanes> {
    proptest::collection::vec((0usize..4, 0i64..6, 8i64..20, 8i64..16), 1..max_lanes + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The from-scratch walk: `Threads(n)` ≡ `Serial` on random
    /// hierarchies, for every pinned worker count.
    #[test]
    fn parallel_walk_matches_serial_bit_for_bit(
        lanes_a in lanes_strategy(2),
        lanes_b in lanes_strategy(2),
        nx in 1i64..3,
        ny in 1i64..3,
        blocks in 2i64..5,
    ) {
        let tech = Technology::mead_conway(2);
        let solver = BellmanFord::SORTED;
        let (table, top) = chip(&lanes_a, &lanes_b, nx, ny, blocks);

        let serial =
            compact_hierarchy(&table, top, &tech.rules, &solver, &HierOptions::default())
                .unwrap();
        for n in THREADS {
            let par =
                compact_hierarchy(&table, top, &tech.rules, &solver, &with_threads(n)).unwrap();
            assert_same(&par, &serial, format!("Threads({n})"));
        }
        let reference = dfs_reference(&table, top, &tech.rules, &HierOptions::default());
        for (label, walk) in every_walk(&table, top, &tech.rules, &HierOptions::default()) {
            assert_matches(&walk, &reference, &label);
        }
    }

    /// The persistent session: `Threads(n)` ≡ `Serial` both cold and
    /// warm. Each session keeps its own cache across an edit, so the
    /// parallel miss/merge path is exercised cold and the cache-replay
    /// path warm — both must reproduce the serial answer bit for bit.
    #[test]
    fn parallel_session_matches_serial_bit_for_bit(
        lanes_a in lanes_strategy(2),
        mut lanes_b in lanes_strategy(2),
        nx in 1i64..3,
        ny in 1i64..3,
        blocks in 2i64..4,
        grow in 8i64..20,
    ) {
        let tech = Technology::mead_conway(2);
        let solver = BellmanFord::SORTED;
        let mut sessions: Vec<(usize, CompactSession)> =
            THREADS.iter().map(|&n| (n, CompactSession::new())).collect();
        let mut serial_session = CompactSession::new();

        // Cold run, then an edit confined to leaf_b, then a no-op replay.
        for step in 0..3 {
            if step == 1 {
                lanes_b[0].2 = grow;
            }
            let (table, top) = chip(&lanes_a, &lanes_b, nx, ny, blocks);
            let serial = serial_session
                .compact_hierarchy(&table, top, &tech.rules, &solver, &HierOptions::default())
                .unwrap();
            let reference = dfs_reference(&table, top, &tech.rules, &HierOptions::default());
            assert_matches(&Ok(serial.clone()), &reference, &format!("Serial session, step {step}"));
            for (n, session) in &mut sessions {
                let par = session
                    .compact_hierarchy(&table, top, &tech.rules, &solver, &with_threads(*n))
                    .unwrap();
                assert_same(&par, &serial, format!("Threads({n})"));
                assert_matches(&Ok(par), &reference, &format!("Threads({n}) session, step {step}"));
            }
        }
    }

    /// The DRC scan: `Threads(n)` ≡ `Serial` on random flat
    /// geometry that is *allowed to be dirty* — the violation lists
    /// (class, layers, boxes, order) must match exactly, not just their
    /// emptiness.
    #[test]
    fn parallel_drc_sweep_matches_serial_bit_for_bit(
        boxes in proptest::collection::vec(
            (0usize..4, 0i64..60, 0i64..60, 1i64..14, 1i64..14),
            1..40,
        ),
    ) {
        let tech = Technology::mead_conway(2);
        let flat = FlatLayout::from_boxes(
            boxes
                .iter()
                .map(|&(layer_idx, x, y, w, h)| FlatBox {
                    layer: LANE_LAYERS[layer_idx % LANE_LAYERS.len()],
                    rect: Rect::from_coords(x, y, x + w, y + h),
                    depth: 0,
                })
                .collect(),
        );
        let serial = drc::check_flat_par(&flat, &tech.rules, Parallelism::Serial);
        prop_assert_eq!(&serial, &drc::check_flat(&flat, &tech.rules));
        for n in THREADS {
            let par = drc::check_flat_par(&flat, &tech.rules, Parallelism::Threads(n));
            prop_assert_eq!(&par, &serial, "DRC scan diverged at {} threads", n);
        }
    }
}

/// Error classes survive the parallel walk: a recursive hierarchy
/// surfaces as the *same* [`rsg_compact::hier::HierError`] from the
/// `Serial` walk, every `Threads(n)` walk, and the session — the
/// DFS-minimum failure rule reproduces serial error selection exactly.
/// So does a real [`HierError::Diverged`]: under `max_passes: 1` two
/// cells fail, and the level walk meets the DFS-later one first.
#[test]
fn error_classes_match_serial_at_every_parallelism() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;

    let mut t = CellTable::new();
    let mut a = CellDefinition::new("a");
    a.add_box(Layer::Poly, Rect::from_coords(0, 0, 8, 8));
    let a_id = t.insert(a).unwrap();
    let mut top = CellDefinition::new("top");
    top.add_instance(Instance::new(a_id, Point::new(0, 0), Orientation::NORTH));
    let top_id = t.insert(top).unwrap();
    // Close the cycle: `a` now instantiates `top`.
    t.get_mut(a_id).unwrap().add_instance(Instance::new(
        top_id,
        Point::new(0, 40),
        Orientation::NORTH,
    ));

    let serial =
        compact_hierarchy(&t, top_id, &tech.rules, &solver, &HierOptions::default()).unwrap_err();
    for n in THREADS {
        let par =
            compact_hierarchy(&t, top_id, &tech.rules, &solver, &with_threads(n)).unwrap_err();
        assert_eq!(par, serial, "walk error diverged at {n} threads");
        let ses = CompactSession::new()
            .compact_hierarchy(&t, top_id, &tech.rules, &solver, &with_threads(n))
            .unwrap_err();
        assert_eq!(ses, serial, "session error diverged at {n} threads");
    }
    let reference = dfs_reference(&t, top_id, &tech.rules, &HierOptions::default());
    assert_eq!(reference.as_ref().unwrap_err(), &serial);
    for (label, walk) in every_walk(&t, top_id, &tech.rules, &HierOptions::default()) {
        assert_matches(&walk, &reference, &label);
    }

    // `mid` (level 1) comes before `block_b` (level 0) in DFS postorder;
    // both are drawn loose, so neither converges in one alternation.
    // `block_a` is a single instance at its origin and converges.
    let mut t = CellTable::new();
    let mut leaf = CellDefinition::new("leaf");
    leaf.add_box(Layer::Poly, Rect::from_coords(0, 0, 8, 8));
    let leaf = t.insert(leaf).unwrap();
    let loose = |name: &str, child: CellId| {
        let mut c = CellDefinition::new(name);
        c.add_instance(Instance::new(child, Point::new(0, 0), Orientation::NORTH));
        c.add_instance(Instance::new(child, Point::new(100, 0), Orientation::NORTH));
        c
    };
    let mut block_a = CellDefinition::new("block_a");
    block_a.add_instance(Instance::new(leaf, Point::new(0, 0), Orientation::NORTH));
    let block_a = t.insert(block_a).unwrap();
    let mid = t.insert(loose("mid", block_a)).unwrap();
    let block_b = t.insert(loose("block_b", leaf)).unwrap();
    let mut top = CellDefinition::new("top");
    top.add_instance(Instance::new(mid, Point::new(0, 0), Orientation::NORTH));
    top.add_instance(Instance::new(
        block_b,
        Point::new(0, 200),
        Orientation::NORTH,
    ));
    let top = t.insert(top).unwrap();

    let one_pass = HierOptions {
        max_passes: 1,
        ..HierOptions::default()
    };
    let reference = dfs_reference(&t, top, &tech.rules, &one_pass);
    match &reference {
        Err(HierError::Diverged(m)) => assert!(m.contains("`mid`"), "{m}"),
        other => panic!("expected `mid` to diverge, got {:?}", other.as_ref().err()),
    }
    for (label, walk) in every_walk(&t, top, &tech.rules, &one_pass) {
        assert_matches(&walk, &reference, &label);
    }
}
