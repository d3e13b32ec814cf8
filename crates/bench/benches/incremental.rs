//! Experiment E21 — incremental recompaction: change one leaf, pay for
//! one leaf.
//!
//! The workload is the 8×8 multiplier. The edit swaps one `goleft`
//! direction mask to `goright` inside the right register stack — a
//! one-leaf change of the assdirection personality. Three rows:
//!
//! * `cold`    — from-scratch `compact_chip` (leaf pass + hier pass),
//! * `edit`    — a session primed on the original chip recompacts the
//!   edited chip (each iteration clones the primed session, because the
//!   caches are content-addressed: recompacting the same edit twice in
//!   one session would be a pure cache hit and measure nothing),
//! * `noop`    — the primed session recompacts the *unchanged* chip (a
//!   pure replay; the floor of the session flow).
//!
//! Verified in-bench: the incremental result is **bit-identical** to the
//! cold result on the edited chip, the edit re-runs exactly two assembly
//! cells while the n² core array replays from the cache, and the no-op
//! run derives zero abstracts and emits zero constraints.

use criterion::{criterion_group, criterion_main, Criterion};
use rsg_compact::backend::BellmanFord;
use rsg_compact::hier::ChipCompaction;
use rsg_compact::incremental::CompactSession;
use rsg_compact::par::Parallelism;
use rsg_layout::{CellDefinition, CellId, CellTable, Instance, LayoutObject, Technology};
use std::hint::black_box;

/// `table` with the first `from` instance inside `host` re-pointed at
/// `to` — the one-mask edit.
fn swap_one_instance(table: &CellTable, host: &str, from: CellId, to: CellId) -> CellTable {
    let mut t = table.clone();
    let host_id = t.lookup(host).expect("host cell");
    let def = t.get(host_id).expect("host def");
    let mut edited = CellDefinition::new(def.name());
    let mut swapped = false;
    for obj in def.objects() {
        match obj {
            LayoutObject::Instance(i) => {
                let mut cell = i.cell;
                if !swapped && cell == from {
                    cell = to;
                    swapped = true;
                }
                edited.add_instance(Instance::new(cell, i.point_of_call, i.orientation));
            }
            LayoutObject::Box { layer, rect } => {
                edited.add_box(*layer, *rect);
            }
            LayoutObject::Label { text, at } => {
                edited.add_label(text.clone(), *at);
            }
        }
    }
    assert!(swapped, "no `from` instance found in `{host}`");
    *t.get_mut(host_id).unwrap() = edited;
    t
}

fn assert_same_chip(inc: &ChipCompaction, cold: &ChipCompaction) {
    assert_eq!(inc.leaf, cold.leaf, "leaf-pass results diverged");
    assert_eq!(inc.chip.cells.len(), cold.chip.cells.len());
    for ((n_inc, o_inc), (n_cold, o_cold)) in inc.chip.cells.iter().zip(&cold.chip.cells) {
        assert_eq!(n_inc, n_cold);
        assert_eq!(o_inc.cell, o_cold.cell, "geometry of `{n_inc}` diverged");
        assert_eq!(
            o_inc.pitches, o_cold.pitches,
            "pitches of `{n_inc}` diverged"
        );
        assert_eq!(o_inc.passes, o_cold.passes, "passes of `{n_inc}` diverged");
        assert_eq!(o_inc.report, o_cold.report, "report of `{n_inc}` diverged");
    }
}

fn bench_incremental(c: &mut Criterion) {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let out = rsg_mult::generator::generate(8, 8).expect("generates");
    let table = out.rsg.cells();
    let goleft = table.lookup("goleft").expect("goleft mask");
    let goright = table.lookup("goright").expect("goright mask");
    let edited = swap_one_instance(table, "rightregs", goleft, goright);

    // Prime one session on the original chip; every `edit`/`noop`
    // iteration starts from a clone of this snapshot.
    let mut primed = CompactSession::new();
    rsg_mult::compactor::compact_chip_session(
        &mut primed,
        table,
        out.top,
        &tech.rules,
        &solver,
        Parallelism::Serial,
    )
    .expect("primes");

    // Correctness gate: incremental == cold on the edited chip, and the
    // reuse counters show the one-leaf economics.
    let cold_edit = rsg_mult::compactor::compact_chip(
        &edited,
        out.top,
        &tech.rules,
        &solver,
        Parallelism::Serial,
    )
    .expect("cold compacts");
    let mut check = primed.clone();
    let inc_edit = rsg_mult::compactor::compact_chip_session(
        &mut check,
        &edited,
        out.top,
        &tech.rules,
        &solver,
        Parallelism::Serial,
    )
    .expect("incremental compacts");
    assert_same_chip(&inc_edit, &cold_edit);
    let s = check.last_stats();
    assert_eq!(s.leaf_hits, 2, "library jobs untouched");
    assert_eq!(s.cells_compacted, 2, "only `rightregs` and the top re-run");
    assert_eq!(
        s.cell_hits, 3,
        "the 8×8 array and both register rows replay"
    );
    println!(
        "edit: {} of {} cells recompacted, {} constraints emitted",
        s.cells_compacted, s.cells_seen, s.constraints_emitted,
    );
    let mut check = primed.clone();
    rsg_mult::compactor::compact_chip_session(
        &mut check,
        table,
        out.top,
        &tech.rules,
        &solver,
        Parallelism::Serial,
    )
    .expect("noop compacts");
    let s = check.last_stats();
    assert_eq!(s.cells_compacted, 0, "no-op edit recompacts nothing");
    assert_eq!(s.abstracts_derived, 0, "no-op edit composes no abstract");
    assert_eq!(s.constraints_emitted, 0, "no-op edit re-emits nothing");
    assert_eq!(s.leaf_jobs, 0, "no-op edit re-solves no library job");

    let mut group = c.benchmark_group("incremental/mult8");
    group.bench_function("cold", |b| {
        b.iter(|| {
            let chip = rsg_mult::compactor::compact_chip(
                &edited,
                out.top,
                &tech.rules,
                &solver,
                Parallelism::Serial,
            )
            .expect("cold compacts");
            black_box(chip.chip.cells.len())
        })
    });
    group.bench_function("edit", |b| {
        b.iter(|| {
            let mut session = primed.clone();
            let chip = rsg_mult::compactor::compact_chip_session(
                &mut session,
                &edited,
                out.top,
                &tech.rules,
                &solver,
                Parallelism::Serial,
            )
            .expect("incremental compacts");
            black_box(chip.chip.cells.len())
        })
    });
    group.bench_function("noop", |b| {
        b.iter(|| {
            let mut session = primed.clone();
            let chip = rsg_mult::compactor::compact_chip_session(
                &mut session,
                table,
                out.top,
                &tech.rules,
                &solver,
                Parallelism::Serial,
            )
            .expect("noop compacts");
            black_box(chip.chip.cells.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
