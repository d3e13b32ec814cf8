//! Experiment E16 — DRC scaling, bucket grid vs pairwise.
//!
//! `drc::check` (the `drc/sweep/<n>` rows, named before the grid
//! replaced the sweep) finds spacing partners through a 2-D bucket grid:
//! each box visits only the cells within its rule distance in both
//! axes, O(n + k). The retired all-pairs reference
//! (`drc::check_pairwise`) visits every pair, O(n²). On a 2-D tiled
//! layout the pairwise cost quadruples per size doubling while the grid
//! check stays near-linear; the equivalence proptests in
//! `crates/layout/tests/drc_equivalence.rs` prove both return the
//! identical violation list.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsg_geom::{Rect, Vector};
use rsg_layout::{drc, Layer, Technology};
use std::hint::black_box;

/// A DRC-clean 4-box tile (poly, metal, diffusion at legal spacings).
fn tile() -> Vec<(Layer, Rect)> {
    vec![
        (Layer::Poly, Rect::from_coords(0, 0, 4, 24)),
        (Layer::Poly, Rect::from_coords(8, 0, 12, 24)),
        (Layer::Metal1, Rect::from_coords(18, 2, 26, 22)),
        (Layer::Diffusion, Rect::from_coords(32, 4, 40, 20)),
    ]
}

/// The tile replicated on a 2-D grid until `n` boxes exist.
fn tiled(n: usize) -> Vec<(Layer, Rect)> {
    let tile = tile();
    let per_row = ((n / tile.len()) as f64).sqrt().ceil() as i64;
    let mut out = Vec::with_capacity(n);
    'fill: for row in 0.. {
        for col in 0..per_row {
            let shift = Vector::new(col * 48, row * 32);
            for &(l, r) in &tile {
                if out.len() == n {
                    break 'fill;
                }
                out.push((l, r.translate(shift)));
            }
        }
    }
    out
}

fn bench_drc(c: &mut Criterion) {
    let rules = Technology::mead_conway(2).rules.clone();

    // Correctness gate once per run: identical outputs at every size.
    for n in [64usize, 256, 1024] {
        let boxes = tiled(n);
        assert_eq!(
            drc::check(&boxes, &rules),
            drc::check_pairwise(&boxes, &rules),
            "grid check diverged from pairwise at n={n}"
        );
    }

    let mut group = c.benchmark_group("drc");
    for n in [64usize, 256, 1024] {
        let boxes = tiled(n);
        group.bench_with_input(BenchmarkId::new("pairwise", n), &boxes, |b, boxes| {
            b.iter(|| black_box(drc::check_pairwise(boxes, &rules).len()))
        });
        group.bench_with_input(BenchmarkId::new("sweep", n), &boxes, |b, boxes| {
            b.iter(|| black_box(drc::check(boxes, &rules).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_drc);
criterion_main!(benches);
