//! Experiments E17/E18 — the `rsg-solve` subsystem.
//!
//! E17: the one-pass topological longest path vs sorted Bellman-Ford on
//! acyclic chains (both costs shrink once the CSR graph is cached on the
//! system; the topological pass does strictly less work per solve).
//!
//! E18: the alternating x/y engine to its fixpoint. The harness prints
//! the alternation count and the total relaxation passes; every sweep
//! solves cold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsg_compact::engine::compact_xy;
use rsg_compact::BellmanFord;
use rsg_geom::{Rect, Vector};
use rsg_layout::{CellDefinition, Layer, Technology};
use rsg_solve::solver::{solve, solve_topo, EdgeOrder};
use rsg_solve::ConstraintSystem;
use std::hint::black_box;

/// An acyclic chain-with-shortcuts system of `n` variables — the E17
/// workload (no `require_exact`, so the topological order exists).
fn acyclic_chain(n: usize) -> ConstraintSystem {
    let mut s = ConstraintSystem::new();
    let vars: Vec<_> = (0..n).map(|k| s.add_var(k as i64 * 10)).collect();
    for w in vars.windows(2) {
        s.require(w[0], w[1], 7);
    }
    // Forward shortcuts every 5 steps keep the graph interesting.
    for k in (0..n.saturating_sub(5)).step_by(5) {
        s.require(vars[k], vars[k + 5], 30);
    }
    s
}

fn bench_topo_vs_bellman(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    for n in [100usize, 1000, 5000] {
        let s = acyclic_chain(n);
        // Correctness gate + the E17 pass-count table.
        let bf = solve(&s, EdgeOrder::Sorted).unwrap();
        let topo = solve_topo(&s).expect("chain is acyclic");
        assert_eq!(topo.positions(), bf.positions(), "E17 equivalence");
        println!(
            "solver n={n}: bellman passes={} topo passes={}",
            bf.passes, topo.passes
        );
        group.bench_with_input(BenchmarkId::new("bellman", n), &s, |b, s| {
            b.iter(|| black_box(solve(s, EdgeOrder::Sorted).unwrap().extent()))
        });
        group.bench_with_input(BenchmarkId::new("topo", n), &s, |b, s| {
            b.iter(|| black_box(solve_topo(s).unwrap().extent()))
        });
    }
    group.finish();
}

/// The E18 workload: a loose cell tiled 4×4, compacted to the x/y
/// fixpoint.
fn tiled_array() -> Vec<(Layer, Rect)> {
    let mut cell = CellDefinition::new("tile");
    cell.add_box(Layer::Poly, Rect::from_coords(2, 0, 8, 30));
    cell.add_box(Layer::Metal1, Rect::from_coords(16, 5, 28, 25));
    cell.add_box(Layer::Poly, Rect::from_coords(34, 0, 38, 30));
    let mut out = Vec::new();
    for row in 0..4i64 {
        for col in 0..4i64 {
            let shift = Vector::new(col * 48, row * 36);
            for (l, r) in cell.boxes() {
                out.push((l, r.translate(shift)));
            }
        }
    }
    out
}

fn bench_engine(c: &mut Criterion) {
    let tech = Technology::mead_conway(2);
    let boxes = tiled_array();

    // Correctness gate + the E18 pass-count table.
    let out = compact_xy(&boxes, &tech.rules, &BellmanFord::SORTED, 10).unwrap();
    assert!(out.converged, "E18 fixpoint");
    println!(
        "engine tiled 4x4: alternations={} relaxation passes={}",
        out.passes + 1,
        out.report.total_solver_passes()
    );

    let mut group = c.benchmark_group("engine");
    group.bench_function("xy", |b| {
        b.iter(|| {
            black_box(
                compact_xy(&boxes, &tech.rules, &BellmanFord::SORTED, 10)
                    .unwrap()
                    .passes,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_topo_vs_bellman, bench_engine);
criterion_main!(benches);
