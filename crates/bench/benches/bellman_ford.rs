//! Experiment E12 — §6.4.2: Bellman-Ford with a preliminary sort of the
//! edges "according to their abscissa in the initial layout ... In the
//! case where the initial ordering is preserved in the final layout
//! exactly one relaxation step is required instead of the |E| required in
//! the worst case."
//!
//! Besides wall-clock, the harness prints the measured pass counts for
//! both orders (the paper's actual claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsg_solve::solver::{solve, EdgeOrder};
use rsg_solve::ConstraintSystem;
use std::hint::black_box;

/// A chain-of-boxes system whose constraints are inserted back-to-front —
/// adversarial for insertion order, trivial after sorting.
fn reversed_chain(n: usize) -> ConstraintSystem {
    let mut s = ConstraintSystem::new();
    let vars: Vec<_> = (0..n).map(|k| s.add_var(k as i64 * 10)).collect();
    for k in (1..n).rev() {
        s.require(vars[k - 1], vars[k], 7);
    }
    s
}

/// A layout-derived system: constraints from the 16×16 multiplier array's
/// flattened metal1 boxes.
fn layout_system() -> ConstraintSystem {
    let out = rsg_mult::generator::generate(16, 16).unwrap();
    let boxes: Vec<(rsg_layout::Layer, rsg_geom::Rect)> =
        rsg_layout::flatten(out.rsg.cells(), out.top)
            .unwrap()
            .layer_rects()
            .iter()
            .filter(|(l, _)| *l == rsg_layout::Layer::Metal1)
            .copied()
            .collect();
    let tech = rsg_layout::Technology::mead_conway(2);
    let (sys, _) = rsg_compact::scanline::generate(
        &boxes,
        &tech.rules,
        rsg_compact::scanline::Method::Visibility,
        rsg_geom::Axis::X,
        rsg_compact::scanline::Prune::Apply,
    );
    sys
}

fn bench_orders(c: &mut Criterion) {
    // Print the paper's pass-count table once.
    for n in [100usize, 1000, 5000] {
        let s = reversed_chain(n);
        let sorted = solve(&s, EdgeOrder::Sorted).unwrap();
        let unsorted = solve(&s, EdgeOrder::Arbitrary).unwrap();
        println!(
            "bellman-ford passes, reversed chain |V|={n}: sorted={} unsorted={}",
            sorted.passes, unsorted.passes
        );
    }
    let ls = layout_system();
    let sorted = solve(&ls, EdgeOrder::Sorted).unwrap();
    let unsorted = solve(&ls, EdgeOrder::Arbitrary).unwrap();
    println!(
        "bellman-ford passes, 16x16 multiplier metal1 ({} vars): sorted={} unsorted={}",
        ls.num_vars(),
        sorted.passes,
        unsorted.passes
    );

    let mut group = c.benchmark_group("bellman-ford/reversed-chain");
    for n in [100usize, 1000, 5000] {
        let s = reversed_chain(n);
        group.bench_with_input(BenchmarkId::new("sorted", n), &s, |b, s| {
            b.iter(|| black_box(solve(s, EdgeOrder::Sorted).unwrap().extent()))
        });
        group.bench_with_input(BenchmarkId::new("unsorted", n), &s, |b, s| {
            b.iter(|| black_box(solve(s, EdgeOrder::Arbitrary).unwrap().extent()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("bellman-ford/multiplier-metal1");
    group.bench_function("sorted", |b| {
        b.iter(|| black_box(solve(&ls, EdgeOrder::Sorted).unwrap().extent()))
    });
    group.bench_function("unsorted", |b| {
        b.iter(|| black_box(solve(&ls, EdgeOrder::Arbitrary).unwrap().extent()))
    });
    group.finish();
}

criterion_group!(benches, bench_orders);
criterion_main!(benches);
