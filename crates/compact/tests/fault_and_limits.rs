//! The fault-injection and resource-budget contracts (PR 7):
//!
//! * An injected fault surfaces as the **same typed error** a real
//!   failure of that kind would produce — callers cannot tell the
//!   difference, so their recovery paths are genuinely exercised.
//! * After any failed session call, a retry without the fault plan is
//!   **bit-identical to a cold run** — the error path leaves no partial
//!   cache entries behind (hygiene), and what it legitimately cached
//!   does not change results (content addressing).
//! * `forget_caches` (amnesia) forces every cache to miss while the
//!   output stays bit-identical — the caches are a pure speedup.
//! * [`Limits`] trip deterministically: the same budget on the same
//!   input produces the same [`Exhausted`] report, run after run, and
//!   a generous budget changes nothing.

use proptest::prelude::*;
use rsg_compact::backend::BellmanFord;
use rsg_compact::fault::FaultPlan;
use rsg_compact::hier::{compact_hierarchy, ChipLayout, HierError, HierOptions};
use rsg_compact::incremental::CompactSession;
use rsg_compact::limits::{Limits, Resource};
use rsg_compact::par::Parallelism;
use rsg_geom::{Orientation, Point, Rect};
use rsg_layout::{CellDefinition, CellId, CellTable, Instance, Layer, Technology};

/// A two-level chip: a leaf with a few clean lanes, one `nx × ny` block
/// of it, and a top row of `blocks` block instances.
fn chip(nx: i64, ny: i64, blocks: i64) -> (CellTable, CellId) {
    let mut t = CellTable::new();
    let mut leaf = CellDefinition::new("leaf");
    leaf.add_box(Layer::Diffusion, Rect::from_coords(0, 0, 12, 8));
    leaf.add_box(Layer::Poly, Rect::from_coords(0, 16, 10, 24));
    leaf.add_box(Layer::Metal1, Rect::from_coords(0, 32, 14, 40));
    let leaf_id = t.insert(leaf).unwrap();
    let mut blk = CellDefinition::new("block");
    for row in 0..ny {
        for col in 0..nx {
            blk.add_instance(Instance::new(
                leaf_id,
                Point::new(col * 22, row * 48),
                Orientation::NORTH,
            ));
        }
    }
    let blk_id = t.insert(blk).unwrap();
    let mut top = CellDefinition::new("chip");
    let pitch = (nx - 1) * 22 + 14 + 8;
    for k in 0..blocks {
        top.add_instance(Instance::new(
            blk_id,
            Point::new(k * pitch, 0),
            Orientation::NORTH,
        ));
    }
    let top_id = t.insert(top).unwrap();
    (t, top_id)
}

/// A chip with one wide dependency level: `defs` distinct blocks of
/// the [`chip`] leaf (2, 3, … columns), side by side under one top.
fn wide_chip(defs: i64) -> (CellTable, CellId) {
    let (mut t, _) = chip(1, 1, 1);
    let leaf = t.lookup("leaf").unwrap();
    let mut top = CellDefinition::new("wide");
    let mut x = 0;
    for k in 0..defs {
        let mut blk = CellDefinition::new(format!("block{k}"));
        for col in 0..k + 2 {
            blk.add_instance(Instance::new(
                leaf,
                Point::new(col * 22, 0),
                Orientation::NORTH,
            ));
        }
        let id = t.insert(blk).unwrap();
        top.add_instance(Instance::new(id, Point::new(x, 0), Orientation::NORTH));
        x += (k + 2) * 22 + 8;
    }
    let top_id = t.insert(top).unwrap();
    (t, top_id)
}

fn assert_same(a: &ChipLayout, b: &ChipLayout) {
    assert_eq!(a.cells.len(), b.cells.len());
    for ((na, oa), (nb, ob)) in a.cells.iter().zip(&b.cells) {
        assert_eq!(na, nb);
        assert_eq!(oa.cell, ob.cell, "geometry of `{na}` diverged");
        assert_eq!(oa.pitches, ob.pitches, "pitches of `{na}` diverged");
        assert_eq!(oa.passes, ob.passes, "passes of `{na}` diverged");
        assert_eq!(oa.report, ob.report, "report of `{na}` diverged");
    }
}

#[test]
fn injected_faults_surface_as_their_real_error_kinds() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let opts = HierOptions::default();
    let (table, top) = chip(3, 2, 2);

    let mut session = CompactSession::new();
    session.set_fault_plan(Some(FaultPlan::fail_solve(0)));
    match session.compact_hierarchy(&table, top, &tech.rules, &solver, &opts) {
        Err(HierError::Infeasible(m)) => assert!(m.contains("injected"), "{m}"),
        other => panic!("expected injected infeasibility, got {other:?}"),
    }

    session.set_fault_plan(Some(FaultPlan::diverge(0)));
    match session.compact_hierarchy(&table, top, &tech.rules, &solver, &opts) {
        Err(HierError::Diverged(m)) => assert!(m.contains("injected"), "{m}"),
        other => panic!("expected injected divergence, got {other:?}"),
    }

    session.set_fault_plan(Some(FaultPlan::exhaust(0)));
    match session.compact_hierarchy(&table, top, &tech.rules, &solver, &opts) {
        Err(HierError::Exhausted(e)) => assert_eq!(e.resource, Resource::Injected),
        other => panic!("expected injected exhaustion, got {other:?}"),
    }
}

/// An armed plan runs the walk on one worker whatever the requested
/// parallelism, so fault ordinals name the same solve: `Threads(4)`
/// fails exactly like `Serial`, and the retry without the plan matches
/// a cold run.
#[test]
fn armed_fault_plan_under_threads_matches_serial() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let (table, top) = wide_chip(4);
    let serial = HierOptions::default();
    let threaded = HierOptions {
        parallelism: Parallelism::Threads(4),
        ..HierOptions::default()
    };
    let cold = compact_hierarchy(&table, top, &tech.rules, &solver, &serial).unwrap();
    let solves: usize = cold
        .cells
        .iter()
        .flat_map(|(_, o)| &o.report.sweeps)
        .map(|s| s.pitch_rounds)
        .sum();
    for at in 0..solves as u64 + 2 {
        let run = |opts: &HierOptions| {
            let mut session = CompactSession::new();
            session.set_fault_plan(Some(FaultPlan::fail_solve(at)));
            let faulted = session.compact_hierarchy(&table, top, &tech.rules, &solver, opts);
            session.set_fault_plan(None);
            let retry = session
                .compact_hierarchy(&table, top, &tech.rules, &solver, opts)
                .unwrap();
            assert_same(&retry, &cold);
            faulted
        };
        match (run(&serial), run(&threaded)) {
            (Ok(s), Ok(t)) => assert_same(&t, &s),
            (Err(s), Err(t)) => {
                assert!(matches!(s, HierError::Infeasible(_)), "{s:?}");
                assert_eq!(t, s, "fail_solve({at})");
            }
            (s, t) => panic!("fail_solve({at}): Serial {s:?}, Threads(4) {t:?}"),
        }
    }
}

#[test]
fn amnesia_mode_is_bit_identical_to_cold() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let opts = HierOptions::default();
    let (table, top) = chip(4, 3, 3);

    let cold = compact_hierarchy(&table, top, &tech.rules, &solver, &opts).unwrap();

    // Prime a session, then force every cache lookup to miss: the replay
    // machinery is bypassed entirely, the answer must not move.
    let mut session = CompactSession::new();
    session
        .compact_hierarchy(&table, top, &tech.rules, &solver, &opts)
        .unwrap();
    session.set_fault_plan(Some(FaultPlan::amnesia()));
    let amnesiac = session
        .compact_hierarchy(&table, top, &tech.rules, &solver, &opts)
        .unwrap();
    assert_same(&amnesiac, &cold);
}

#[test]
fn flat_box_budget_trips_deterministically() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let (table, top) = chip(4, 3, 3);
    let mut opts = HierOptions::default();
    opts.limits.max_flat_boxes = Some(5);

    let run = || compact_hierarchy(&table, top, &tech.rules, &solver, &opts);
    let first = run().unwrap_err();
    let second = run().unwrap_err();
    assert_eq!(first, second, "budget reports must be deterministic");
    match first {
        HierError::Exhausted(e) => {
            assert_eq!(e.resource, Resource::FlatBoxes);
            assert_eq!(e.limit, 5);
            assert!(e.observed > 5);
        }
        other => panic!("expected exhaustion, got {other:?}"),
    }

    // A budget the input fits under changes nothing.
    let roomy = HierOptions {
        limits: Limits {
            max_flat_boxes: Some(1 << 40),
            max_constraints: Some(1 << 40),
            max_solve_passes: Some(1 << 20),
            deadline: None,
        },
        ..HierOptions::default()
    };
    let bounded = compact_hierarchy(&table, top, &tech.rules, &solver, &roomy).unwrap();
    let unbounded =
        compact_hierarchy(&table, top, &tech.rules, &solver, &HierOptions::default()).unwrap();
    assert_same(&bounded, &unbounded);
}

#[test]
fn constraint_and_pass_budgets_trip_with_their_own_resource() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let (table, top) = chip(4, 3, 2);

    let mut opts = HierOptions::default();
    opts.limits.max_constraints = Some(1);
    match compact_hierarchy(&table, top, &tech.rules, &solver, &opts) {
        Err(HierError::Exhausted(e)) => assert_eq!(e.resource, Resource::Constraints),
        other => panic!("expected constraint exhaustion, got {other:?}"),
    }

    let mut opts = HierOptions::default();
    opts.limits.max_solve_passes = Some(0);
    match compact_hierarchy(&table, top, &tech.rules, &solver, &opts) {
        Err(HierError::Exhausted(e)) => assert_eq!(e.resource, Resource::SolvePasses),
        other => panic!("expected pass exhaustion, got {other:?}"),
    }
}

#[test]
fn session_under_budget_error_recovers_bit_identically() {
    // Failing with a tight budget, then retrying with the budget lifted,
    // must match a cold run of the lifted configuration.
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let (table, top) = chip(4, 3, 3);

    let mut tight = HierOptions::default();
    tight.limits.max_flat_boxes = Some(5);
    let open = HierOptions::default();

    let mut session = CompactSession::new();
    session
        .compact_hierarchy(&table, top, &tech.rules, &solver, &tight)
        .unwrap_err();
    let retry = session
        .compact_hierarchy(&table, top, &tech.rules, &solver, &open)
        .unwrap();
    let cold = compact_hierarchy(&table, top, &tech.rules, &solver, &open).unwrap();
    assert_same(&retry, &cold);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Anywhere a fault lands — any site, any count, primed or cold
    /// session — the call either succeeds (the counter never reached the
    /// site) or fails typed; and the retry without the plan is
    /// bit-identical to a cold compaction.
    #[test]
    fn retry_after_any_injected_fault_matches_cold(
        site in 0usize..3,
        at in 0u64..12,
        primed in (0u8..2).prop_map(|b| b == 1),
        nx in 2i64..5,
        blocks in 1i64..4,
    ) {
        let tech = Technology::mead_conway(2);
        let solver = BellmanFord::SORTED;
        let opts = HierOptions::default();
        let (table, top) = chip(nx, 2, blocks);

        let cold = compact_hierarchy(&table, top, &tech.rules, &solver, &opts).unwrap();

        let mut session = CompactSession::new();
        if primed {
            session.compact_hierarchy(&table, top, &tech.rules, &solver, &opts).unwrap();
        }
        let plan = match site {
            0 => FaultPlan::fail_solve(at),
            1 => FaultPlan::diverge(at),
            _ => FaultPlan::exhaust(at),
        };
        session.set_fault_plan(Some(plan));
        match session.compact_hierarchy(&table, top, &tech.rules, &solver, &opts) {
            Ok(out) => assert_same(&out, &cold), // counter never hit the site
            Err(
                HierError::Infeasible(_)
                | HierError::Diverged(_)
                | HierError::Exhausted(_),
            ) => {}
            Err(other) => panic!("fault leaked as the wrong kind: {other:?}"),
        }

        session.set_fault_plan(None);
        let retry = session
            .compact_hierarchy(&table, top, &tech.rules, &solver, &opts)
            .unwrap();
        assert_same(&retry, &cold);
    }
}
