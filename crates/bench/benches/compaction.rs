//! Experiment E13 — §6.1: "if a cell A appears a hundred times in a
//! layout, a compactor operating on the final layout ... would be more
//! computationally expensive than one which cleverly compacts the cell A
//! only once ... These two factors can lead to orders of magnitude
//! improvements in computation costs."
//!
//! Three comparisons:
//!
//! * flat compaction of an n×n tiled array vs leaf compaction of the
//!   single cell (+ one pitch unknown) — flat cost grows with n², leaf
//!   cost is constant;
//! * solver backends on the same flat system;
//! * serial vs parallel batch compaction of a multi-cell leaf library
//!   (independent cells fan out across cores; results are byte-identical).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsg_compact::backend::{Balanced, BellmanFord, Solver};
use rsg_compact::leaf::{
    compact, compact_batch, LeafInterface, LeafOptions, LibraryJob, PitchKind,
};
use rsg_compact::par::Parallelism;
use rsg_compact::scanline::{generate, Method, Prune};
use rsg_compact::solver::{solve, EdgeOrder};
use rsg_geom::{Axis, Rect, Vector};
use rsg_layout::{CellDefinition, Layer, Technology};
use std::hint::black_box;

/// The library cell: a loose two-bar poly/metal cell with compaction slack.
fn leaf_cell() -> CellDefinition {
    let mut c = CellDefinition::new("tile");
    c.add_box(Layer::Poly, Rect::from_coords(2, 0, 8, 30));
    c.add_box(Layer::Metal1, Rect::from_coords(16, 5, 28, 25));
    c.add_box(Layer::Poly, Rect::from_coords(34, 0, 38, 30));
    c
}

/// The flat view: the cell tiled n×n at its sample pitch.
fn tiled(n: usize) -> Vec<(Layer, Rect)> {
    let cell = leaf_cell();
    let mut out = Vec::new();
    for row in 0..n as i64 {
        for col in 0..n as i64 {
            let shift = Vector::new(col * 48, row * 36);
            for (l, r) in cell.boxes() {
                out.push((l, r.translate(shift)));
            }
        }
    }
    out
}

/// A leaf library of `n` distinct cells, each with its own interfaces —
/// the multi-leaf batch workload.
fn library_jobs(n: usize) -> Vec<LibraryJob> {
    (0..n as i64)
        .map(|k| {
            let mut c = CellDefinition::new(format!("tile{k}"));
            c.add_box(Layer::Poly, Rect::from_coords(2, 0, 8, 30 + k % 7));
            c.add_box(Layer::Metal1, Rect::from_coords(16, 5, 28 + k % 5, 25));
            c.add_box(
                Layer::Diffusion,
                Rect::from_coords(34 + k % 3, 2, 42 + k % 3, 12),
            );
            c.add_box(
                Layer::Poly,
                Rect::from_coords(48 + k % 9, 0, 52 + k % 9, 30),
            );
            LibraryJob {
                cells: vec![c],
                interfaces: vec![
                    LeafInterface {
                        cell_a: 0,
                        cell_b: 0,
                        kind: PitchKind::VariableX {
                            initial: 64 + k,
                            weight: 1 + k % 4,
                        },
                        y_offset: 0,
                        name: format!("h{k}"),
                    },
                    LeafInterface {
                        cell_a: 0,
                        cell_b: 0,
                        kind: PitchKind::FixedX(0),
                        y_offset: 34,
                        name: format!("v{k}"),
                    },
                ],
            }
        })
        .collect()
}

fn bench_flat_vs_leaf(c: &mut Criterion) {
    let tech = Technology::mead_conway(2);
    let interfaces = vec![
        LeafInterface {
            cell_a: 0,
            cell_b: 0,
            kind: PitchKind::VariableX {
                initial: 48,
                weight: 16,
            },
            y_offset: 0,
            name: "pitch_x".into(),
        },
        LeafInterface {
            cell_a: 0,
            cell_b: 0,
            kind: PitchKind::FixedX(0),
            y_offset: 36,
            name: "pitch_y".into(),
        },
    ];

    // Report the constraint-count table once: the full emission vs the
    // transitively-reduced emission the solver now sees by default.
    for n in [2usize, 4, 8] {
        let boxes = tiled(n);
        let (full, _) = generate(
            &boxes,
            &tech.rules,
            Method::Visibility,
            Axis::X,
            Prune::Keep,
        );
        let (pruned, _) = generate(
            &boxes,
            &tech.rules,
            Method::Visibility,
            Axis::X,
            Prune::Apply,
        );
        println!(
            "flat {n}x{n}: {} vars, {} constraints unpruned, {} pruned",
            full.num_vars(),
            full.constraints().len(),
            pruned.constraints().len()
        );
    }
    let leaf = compact(
        &[leaf_cell()],
        &interfaces,
        &tech.rules,
        &BellmanFord::SORTED,
        &LeafOptions::default(),
    )
    .unwrap();
    println!(
        "leaf: {} unknowns, {} constraints, pitch = {:?}",
        leaf.unknowns, leaf.constraints, leaf.pitches
    );

    let mut group = c.benchmark_group("compaction/flat");
    for n in [2usize, 4, 8, 16] {
        let boxes = tiled(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &boxes, |b, boxes| {
            b.iter(|| {
                let (sys, _) = generate(
                    boxes,
                    &tech.rules,
                    Method::Visibility,
                    Axis::X,
                    Prune::Apply,
                );
                black_box(solve(&sys, EdgeOrder::Sorted).unwrap().extent())
            })
        });
    }
    group.finish();

    // The pruning before/after pair at the headline size: same layout,
    // same solver, only the transitive reduction toggled. `flat/16`
    // above is the pruned path; this row is the full-emission control.
    let mut group = c.benchmark_group("compaction/pruning");
    let boxes = tiled(16);
    group.bench_with_input(BenchmarkId::new("unpruned", 16), &boxes, |b, boxes| {
        b.iter(|| {
            let (sys, _) = generate(boxes, &tech.rules, Method::Visibility, Axis::X, Prune::Keep);
            black_box(solve(&sys, EdgeOrder::Sorted).unwrap().extent())
        })
    });
    group.finish();

    c.bench_function("compaction/leaf-once", |b| {
        b.iter(|| {
            let out = compact(
                &[leaf_cell()],
                &interfaces,
                &tech.rules,
                &BellmanFord::SORTED,
                &LeafOptions::default(),
            )
            .unwrap();
            black_box(out.pitches)
        })
    });
}

fn bench_backends(c: &mut Criterion) {
    let tech = Technology::mead_conway(2);
    let boxes = tiled(8);
    let (sys, _) = generate(
        &boxes,
        &tech.rules,
        Method::Visibility,
        Axis::X,
        Prune::Apply,
    );
    let mut group = c.benchmark_group("compaction/backend");
    for backend in [
        &BellmanFord::SORTED as &dyn Solver,
        &BellmanFord::ARBITRARY,
        &Balanced,
    ] {
        group.bench_function(backend.name(), |b| {
            b.iter(|| black_box(backend.solve_system(&sys, &[]).unwrap().positions))
        });
    }
    group.finish();
}

fn bench_leaf_library_batch(c: &mut Criterion) {
    let tech = Technology::mead_conway(2);
    let jobs = library_jobs(32);

    // Correctness gate once per run: the parallel path must be
    // byte-identical to the serial path.
    let serial = compact_batch(
        &jobs,
        &tech.rules,
        &BellmanFord::SORTED,
        Parallelism::Serial,
    );
    let parallel = compact_batch(&jobs, &tech.rules, &BellmanFord::SORTED, Parallelism::Auto);
    assert_eq!(serial, parallel, "parallel leaf batch diverged from serial");
    println!(
        "leaf-library batch: {} cells, parallel == serial (auto = {} threads)",
        jobs.len(),
        rsg_compact::par::auto_threads()
    );

    let mut group = c.benchmark_group("compaction/leaf-library");
    group.bench_function("serial", |b| {
        b.iter(|| {
            black_box(compact_batch(
                &jobs,
                &tech.rules,
                &BellmanFord::SORTED,
                Parallelism::Serial,
            ))
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(compact_batch(
                &jobs,
                &tech.rules,
                &BellmanFord::SORTED,
                Parallelism::Auto,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flat_vs_leaf,
    bench_backends,
    bench_leaf_library_batch
);
criterion_main!(benches);
