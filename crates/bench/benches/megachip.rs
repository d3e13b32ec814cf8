//! Experiment E23 — million-box mega-chip: flat vs hierarchical, serial
//! vs multi-core.
//!
//! The workload is the synthetic lattice of `rsg_bench` (DRC-clean by
//! construction, see the crate docs): a flat variant for full-chip DRC
//! and a four-deep hierarchical variant whose dependency
//! levels are [`rsg_bench::VARIANTS`] definitions wide, so the parallel
//! hierarchy walk has real fan-out. Rows:
//!
//! * `walk_hier/<n>` and `walk_hier/<n>/threads<k>` — the hierarchical
//!   compaction walk over the hierarchical variant (the flat-vs-hier
//!   pair: the walk touches each *definition* once, the flat sweep
//!   touches every *box*),
//! * `walk_hier/<n>/flatten` — the hierarchy→flat expansion, for scale,
//! * `drc_flat/<n>` — serial full-chip DRC at 10⁵ and ≥10⁶ boxes,
//! * `drc_flat/<n>/threads<k>` — the same check fanned across workers,
//! * `drc_hier/<n>` and `drc_hier/<n>/threads<k>` — DRC of the
//!   flattened *compacted* hierarchical variant: a tall stack of
//!   horizontal bars, the layout a one-axis candidate window handles
//!   worst (every bar's window holds its whole column).
//!
//! The walk rows run first: run after the 10⁶ DRC and flatten rows,
//! the walk's timing followed the heap those rows left behind.
//!
//! Verified in-bench, before any timing: both DRC inputs report zero
//! violations at every parallelism, parallel DRC output is identical to
//! serial, and the `Threads(k)` walks produce bit-identical geometry
//! and pitches to the serial walk.
//!
//! `MEGACHIP_BOXES` overrides the large size (default 1 000 000) — CI
//! smoke runs set it to 100 000 to bound wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use rsg_bench::{megachip_flat, megachip_hier};
use rsg_compact::backend::BellmanFord;
use rsg_compact::hier::{compact_hierarchy, ChipLayout, HierOptions};
use rsg_compact::par::Parallelism;
use rsg_layout::{drc, flatten, FlatLayout, Technology};
use std::hint::black_box;

fn assert_same_layout(par: &ChipLayout, serial: &ChipLayout) {
    assert_eq!(par.cells.len(), serial.cells.len(), "walk cell count");
    for ((n_par, o_par), (n_ser, o_ser)) in par.cells.iter().zip(&serial.cells) {
        assert_eq!(n_par, n_ser, "compaction order diverged");
        assert_eq!(o_par.cell, o_ser.cell, "geometry of `{n_par}` diverged");
        assert_eq!(
            o_par.pitches, o_ser.pitches,
            "pitches of `{n_par}` diverged"
        );
    }
}

/// Times serial and `Threads(k)` DRC of `flat` as `<n>` and
/// `<n>/threads<k>`, after gating that the layout is clean and that
/// every worker count reports the identical (empty) violation list.
fn bench_drc(group: &mut BenchmarkGroup<'_>, n: usize, flat: &FlatLayout, tech: &Technology) {
    let serial = drc::check_flat_par(flat, &tech.rules, Parallelism::Serial);
    assert!(serial.is_empty(), "megachip must be DRC-clean");
    for k in [2, 4] {
        let par = drc::check_flat_par(flat, &tech.rules, Parallelism::Threads(k));
        assert_eq!(par, serial, "parallel DRC diverged at {k} threads");
    }
    group.bench_function(format!("{n}"), |b| {
        b.iter(|| black_box(drc::check_flat_par(flat, &tech.rules, Parallelism::Serial)))
    });
    for k in [2usize, 4] {
        group.bench_function(format!("{n}/threads{k}"), |b| {
            b.iter(|| {
                black_box(drc::check_flat_par(
                    flat,
                    &tech.rules,
                    Parallelism::Threads(k),
                ))
            })
        });
    }
}

fn bench_megachip(c: &mut Criterion) {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let large: usize = std::env::var("MEGACHIP_BOXES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let sizes = if large > 100_000 {
        vec![100_000, large]
    } else {
        vec![large]
    };

    // --- hierarchy walk over the wire-bundle hierarchy ------------------
    // First, so the 10⁶ DRC rows' heap does not time the walk.
    let mut group = c.benchmark_group("megachip/walk_hier");
    for &n in &sizes {
        let chip = megachip_hier(n).expect("generates");
        println!(
            "megachip: hier variant n={n} -> {} flattened boxes, {} definitions",
            chip.boxes,
            chip.table.len()
        );
        let serial_opts = HierOptions::default();
        let serial = compact_hierarchy(&chip.table, chip.top, &tech.rules, &solver, &serial_opts)
            .expect("serial walk compacts");
        for k in [2, 4] {
            let opts = HierOptions {
                parallelism: Parallelism::Threads(k),
                ..HierOptions::default()
            };
            let par = compact_hierarchy(&chip.table, chip.top, &tech.rules, &solver, &opts)
                .expect("parallel walk compacts");
            assert_same_layout(&par, &serial);
        }
        group.bench_function(format!("{n}"), |b| {
            b.iter(|| {
                let out =
                    compact_hierarchy(&chip.table, chip.top, &tech.rules, &solver, &serial_opts)
                        .expect("compacts");
                black_box(out.cells.len())
            })
        });
        for k in [2usize, 4] {
            let opts = HierOptions {
                parallelism: Parallelism::Threads(k),
                ..HierOptions::default()
            };
            group.bench_function(format!("{n}/threads{k}"), |b| {
                b.iter(|| {
                    let out = compact_hierarchy(&chip.table, chip.top, &tech.rules, &solver, &opts)
                        .expect("compacts");
                    black_box(out.cells.len())
                })
            });
        }
        group.bench_function(format!("{n}/flatten"), |b| {
            b.iter(|| {
                let flat = flatten(&chip.table, chip.top).expect("flattens");
                black_box(flat.len())
            })
        });
    }
    group.finish();

    // --- full-chip DRC over the flat lattice ---------------------------
    let mut group = c.benchmark_group("megachip/drc_flat");
    for &n in &sizes {
        let flat = FlatLayout::from_boxes(megachip_flat(n));
        println!("megachip: flat lattice n={n} -> {} boxes", flat.len());
        bench_drc(&mut group, n, &flat, &tech);
    }
    group.finish();

    // --- full-chip DRC over the compacted wire-bundle hierarchy --------
    let mut group = c.benchmark_group("megachip/drc_hier");
    for &n in &sizes {
        let chip = megachip_hier(n).expect("generates");
        let out = compact_hierarchy(
            &chip.table,
            chip.top,
            &tech.rules,
            &solver,
            &HierOptions::default(),
        )
        .expect("walk compacts");
        let flat = flatten(&out.table, out.top).expect("flattens");
        println!("megachip: compacted hier n={n} -> {} boxes", flat.len());
        bench_drc(&mut group, n, &flat, &tech);
    }
    group.finish();
}

criterion_group!(megachip, bench_megachip);
criterion_main!(megachip);
