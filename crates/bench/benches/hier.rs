//! Experiment E19 — hierarchical vs flatten-then-compact.
//!
//! The paper's headline economics: an assembled chip is compacted from
//! its instances and their interface abstracts (`compact_chip` = leaf
//! pass + hier pass), never from flattened mask data. The baseline is
//! what a flat compactor must do instead: flatten the hierarchy and run
//! the alternating x/y engine over every mask box.
//!
//! Both paths are verified in-bench: the hier output flattens DRC-clean,
//! and the harness prints the size of each problem (instance clusters +
//! abstract boxes vs flat boxes) so the reduction is visible next to the
//! wall-clock numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsg_compact::backend::BellmanFord;
use rsg_compact::engine;
use rsg_compact::par::Parallelism;
use rsg_hpla::Personality;
use rsg_layout::{drc, CellId, CellTable, Technology};
use std::hint::black_box;

/// An n-input, n-product, n-output personality with a dense diagonal
/// pattern — every crosspoint kind appears.
fn personality(n: usize) -> Personality {
    let rows: Vec<String> = (0..n)
        .map(|p| {
            let ands: String = (0..n)
                .map(|i| match (p + i) % 3 {
                    0 => '1',
                    1 => '0',
                    _ => '-',
                })
                .collect();
            let ors: String = (0..n)
                .map(|o| if (p + o) % 2 == 0 { '1' } else { '0' })
                .collect();
            format!("{ands} {ors}")
        })
        .collect();
    let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
    Personality::parse(&refs, n, n).expect("valid personality")
}

/// The flatten-then-compact baseline: one hierarchy walk, then the
/// alternating flat engine over every mask box.
fn flatten_and_compact(table: &CellTable, top: CellId) -> usize {
    let tech = Technology::mead_conway(2);
    let flat = rsg_layout::flatten(table, top).expect("flattens");
    let boxes = flat.layer_rects().to_vec();
    let out = engine::compact_xy(&boxes, &tech.rules, &BellmanFord::SORTED, 10).expect("compacts");
    out.boxes.len()
}

fn bench_pla(c: &mut Criterion) {
    let tech = Technology::mead_conway(2);
    let mut group = c.benchmark_group("hier/pla");
    for n in [4usize, 8] {
        let p = personality(n);
        let pla = rsg_hpla::rsg_pla(&p, "pla").expect("generates");

        // Correctness gate + problem-size table.
        let out = rsg_hpla::compactor::compact_chip(
            pla.rsg.cells(),
            pla.top,
            &tech.rules,
            &BellmanFord::SORTED,
            Parallelism::Serial,
        )
        .expect("chip compacts");
        let after = rsg_layout::flatten(&out.chip.table, out.chip.top).expect("flattens");
        assert!(
            drc::check_flat(&after, &tech.rules).is_empty(),
            "hier output must be DRC-clean"
        );
        let top_outcome = &out.chip.cells.last().expect("top compacted").1;
        println!(
            "pla n={n}: hier moves {} clusters over {} abstract boxes (vs {} flat boxes)",
            top_outcome.report.sweeps.first().map_or(0, |s| s.clusters),
            top_outcome
                .report
                .sweeps
                .first()
                .map_or(0, |s| s.abstract_boxes),
            top_outcome.report.flat_boxes,
        );

        group.bench_with_input(BenchmarkId::new("chip", n), &n, |b, _| {
            b.iter(|| {
                let out = rsg_hpla::compactor::compact_chip(
                    pla.rsg.cells(),
                    pla.top,
                    &tech.rules,
                    &BellmanFord::SORTED,
                    Parallelism::Serial,
                )
                .expect("chip compacts");
                black_box(out.chip.cells.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("flatten", n), &n, |b, _| {
            b.iter(|| black_box(flatten_and_compact(pla.rsg.cells(), pla.top)))
        });
    }
    group.finish();
}

fn bench_mult(c: &mut Criterion) {
    let tech = Technology::mead_conway(2);
    let mut group = c.benchmark_group("hier/mult");
    for n in [4usize, 8] {
        let out = rsg_mult::generator::generate(n, n).expect("generates");

        let chip = rsg_mult::compactor::compact_chip(
            out.rsg.cells(),
            out.top,
            &tech.rules,
            &BellmanFord::SORTED,
            Parallelism::Serial,
        )
        .expect("chip compacts");
        let after = rsg_layout::flatten(&chip.chip.table, chip.chip.top).expect("flattens");
        assert!(
            drc::check_flat(&after, &tech.rules).is_empty(),
            "hier output must be DRC-clean"
        );
        let total_flat: usize = chip
            .chip
            .cells
            .iter()
            .map(|(_, o)| o.report.flat_boxes)
            .max()
            .unwrap_or(0);
        println!(
            "mult n={n}: {} assembly levels compacted hierarchically; largest level summarizes {total_flat} flat boxes",
            chip.chip.cells.len(),
        );

        group.bench_with_input(BenchmarkId::new("chip", n), &n, |b, _| {
            b.iter(|| {
                let chip = rsg_mult::compactor::compact_chip(
                    out.rsg.cells(),
                    out.top,
                    &tech.rules,
                    &BellmanFord::SORTED,
                    Parallelism::Serial,
                )
                .expect("chip compacts");
                black_box(chip.chip.cells.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("flatten", n), &n, |b, _| {
            b.iter(|| black_box(flatten_and_compact(out.rsg.cells(), out.top)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pla, bench_mult);
criterion_main!(benches);
