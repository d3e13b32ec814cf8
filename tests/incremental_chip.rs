//! Incremental recompaction on the real generators (E21's correctness
//! side): edit one leaf of a generated chip, recompact through a
//! persistent session, and the result must be **bit-identical** to the
//! from-scratch flow — while the cache counters prove the untouched
//! subtrees (the n² core array, the unchanged library jobs) were never
//! re-done.

use rsg::compact::backend::BellmanFord;
use rsg::compact::hier::ChipCompaction;
use rsg::compact::incremental::CompactSession;
use rsg::compact::par::Parallelism;
use rsg::layout::{
    drc, flatten, CellDefinition, CellId, CellTable, Instance, LayoutObject, Technology,
};

/// Bit-identity on every field: the compacted assembly cells (geometry,
/// pitches, passes and sweep reports, in order) and the leaf library.
fn assert_same_chip(inc: &ChipCompaction, cold: &ChipCompaction) {
    assert_eq!(inc.leaf, cold.leaf, "leaf-pass results diverged");
    assert_eq!(inc.chip.cells.len(), cold.chip.cells.len());
    for ((n_inc, o_inc), (n_cold, o_cold)) in inc.chip.cells.iter().zip(&cold.chip.cells) {
        assert_eq!(n_inc, n_cold, "compaction order");
        assert_eq!(o_inc.cell, o_cold.cell, "geometry of `{n_inc}` diverged");
        assert_eq!(
            o_inc.pitches, o_cold.pitches,
            "pitches of `{n_inc}` diverged"
        );
        assert_eq!(o_inc.passes, o_cold.passes, "passes of `{n_inc}` diverged");
        assert_eq!(o_inc.report, o_cold.report, "report of `{n_inc}` diverged");
    }
}

/// Returns `table` with the first `from` instance inside cell `host`
/// re-pointed at `to` — the "swap one control mask" edit.
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

/// Multiplier: swap one `goleft` direction mask to `goright` in the
/// right register stack (a different assdirection personality). Only the
/// stack and the top cell may recompact; the core array, the other
/// register stacks, and both library jobs replay from the cache.
#[test]
fn multiplier_one_mask_edit_recompacts_one_path() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let out = rsg::mult::generator::generate(4, 4).unwrap();
    let table = out.rsg.cells();

    let mut session = CompactSession::new();
    let cold =
        rsg::mult::compactor::compact_chip(table, out.top, &tech.rules, &solver, Parallelism::Auto)
            .unwrap();
    let primed = rsg::mult::compactor::compact_chip_session(
        &mut session,
        table,
        out.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )
    .unwrap();
    assert_same_chip(&primed, &cold);
    assert_eq!(
        session.last_stats().leaf_jobs,
        2,
        "cold leaf pass runs both jobs"
    );

    // The edit: one goleft -> goright swap inside `rightregs`.
    let goleft = table.lookup("goleft").unwrap();
    let goright = table.lookup("goright").unwrap();
    let edited = swap_one_instance(table, "rightregs", goleft, goright);

    let cold_edit = rsg::mult::compactor::compact_chip(
        &edited,
        out.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )
    .unwrap();
    let inc_edit = rsg::mult::compactor::compact_chip_session(
        &mut session,
        &edited,
        out.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )
    .unwrap();
    assert_same_chip(&inc_edit, &cold_edit);

    // The economics: the edit is visible only from `rightregs` and the
    // top cell; everything else is a cache hit.
    let stats = session.last_stats();
    assert_eq!(
        stats.leaf_hits, 2,
        "library jobs untouched by the mask edit"
    );
    assert_eq!(stats.leaf_jobs, 0);
    assert_eq!(
        stats.cells_compacted, 2,
        "only `rightregs` and `thewholething` re-run"
    );
    assert_eq!(
        stats.cell_hits, 3,
        "`array`, `topregs`, `bottomregs` replay from the cache"
    );

    // And the shared answer is clean under the independent referee.
    let flat = flatten(&inc_edit.chip.table, inc_edit.chip.top).unwrap();
    assert!(drc::check_flat(&flat, &tech.rules).is_empty());

    // No-op recompaction of the edited chip: pure replay.
    let noop = rsg::mult::compactor::compact_chip_session(
        &mut session,
        &edited,
        out.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )
    .unwrap();
    assert_same_chip(&noop, &cold_edit);
    let stats = session.last_stats();
    assert_eq!(stats.cells_compacted, 0);
    assert_eq!(stats.abstracts_derived, 0);
    assert_eq!(stats.constraints_emitted, 0);
}

/// PLA: editing the personality (one crosspoint) regenerates the planes
/// but leaves the cell library untouched — the session's leaf cache must
/// absorb the whole leaf pass while the hier pass stays bit-identical.
#[test]
fn pla_personality_edit_reuses_the_leaf_pass() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let p1 = rsg::hpla::Personality::parse(&["10 10", "01 10", "11 01"], 2, 2).unwrap();
    let p2 = rsg::hpla::Personality::parse(&["10 10", "01 11", "11 01"], 2, 2).unwrap();

    let mut session = CompactSession::new();
    let pla1 = rsg::hpla::rsg_pla(&p1, "pla").unwrap();
    let cold1 = rsg::hpla::compactor::compact_chip(
        pla1.rsg.cells(),
        pla1.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )
    .unwrap();
    let inc1 = rsg::hpla::compactor::compact_chip_session(
        &mut session,
        pla1.rsg.cells(),
        pla1.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )
    .unwrap();
    assert_same_chip(&inc1, &cold1);

    let pla2 = rsg::hpla::rsg_pla(&p2, "pla").unwrap();
    let cold2 = rsg::hpla::compactor::compact_chip(
        pla2.rsg.cells(),
        pla2.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )
    .unwrap();
    let inc2 = rsg::hpla::compactor::compact_chip_session(
        &mut session,
        pla2.rsg.cells(),
        pla2.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )
    .unwrap();
    assert_same_chip(&inc2, &cold2);

    let stats = session.last_stats();
    assert_eq!(
        stats.leaf_hits, 2,
        "the library does not depend on the personality"
    );
    assert_eq!(stats.leaf_jobs, 0);

    let flat = flatten(&inc2.chip.table, inc2.chip.top).unwrap();
    assert!(drc::check_flat(&flat, &tech.rules).is_empty());
}
