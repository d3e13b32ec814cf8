//! Experiment E15 — Figs 6.4–6.7: the band scan generates constraints for
//! hidden edges (quadratic blow-up on fragmented layouts, and
//! overconstraint); the visibility scan suppresses them. The y-axis sweep
//! runs on the same geometry with no transposed copy, so its cost tracks
//! the x sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsg_compact::scanline::{generate, Method, Prune};
use rsg_geom::{Axis, Rect};
use rsg_layout::{Layer, Technology};
use std::hint::black_box;

/// Fig 6.5's fragmented bus: n abutting diffusion fragments.
fn fragmented(n: usize) -> Vec<(Layer, Rect)> {
    (0..n as i64)
        .map(|k| {
            (
                Layer::Diffusion,
                Rect::from_coords(10 * k, 0, 10 * (k + 1), 4),
            )
        })
        .collect()
}

fn bench_methods(c: &mut Criterion) {
    let rules = Technology::mead_conway(2).rules.clone();

    // Constraint-count table (the measurable overconstraint). The band
    // rows run with `Prune::Keep`: E15 measures the band scan's raw
    // hidden-edge emission, which the default transitive reduction
    // (E24) would otherwise absorb.
    for n in [8usize, 16, 32, 64] {
        let boxes = fragmented(n);
        let (band, _) = generate(&boxes, &rules, Method::Band, Axis::X, Prune::Keep);
        let (vis, _) = generate(&boxes, &rules, Method::Visibility, Axis::X, Prune::Apply);
        println!(
            "fragmented bus n={n}: band={} constraints, visibility={}",
            band.constraints().len(),
            vis.constraints().len()
        );
    }

    let mut group = c.benchmark_group("scanline");
    for n in [8usize, 32, 64] {
        let boxes = fragmented(n);
        group.bench_with_input(BenchmarkId::new("band", n), &boxes, |b, boxes| {
            b.iter(|| {
                black_box(
                    generate(boxes, &rules, Method::Band, Axis::X, Prune::Keep)
                        .0
                        .constraints()
                        .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("visibility", n), &boxes, |b, boxes| {
            b.iter(|| {
                black_box(
                    generate(boxes, &rules, Method::Visibility, Axis::X, Prune::Apply)
                        .0
                        .constraints()
                        .len(),
                )
            })
        });
        // The axis-generic sweep: same boxes, perpendicular direction,
        // zero-copy (the retired transpose path rewrote every rect).
        group.bench_with_input(BenchmarkId::new("visibility-y", n), &boxes, |b, boxes| {
            b.iter(|| {
                black_box(
                    generate(boxes, &rules, Method::Visibility, Axis::Y, Prune::Apply)
                        .0
                        .constraints()
                        .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
