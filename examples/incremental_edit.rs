//! An interactive-editing session over a generated PLA — incremental
//! recompaction in action.
//!
//! A layout session rarely compacts a design once: you compact, look at
//! the result, fix one term of the personality, and compact again. This
//! walkthrough drives a persistent `CompactSession` through exactly that
//! loop:
//!
//! 1. generate a full-adder PLA and compact it (the **cold** run primes
//!    the session's content-hash caches),
//! 2. add one product term to the personality — a one-plane edit — and
//!    recompact: the leaf library replays from the cache (it does not
//!    depend on the personality) and only the definitions that can see
//!    the new crosspoints re-run,
//! 3. recompact the unchanged design — a **no-op** edit is a pure
//!    replay: no abstract is composed, nothing is re-swept or re-solved,
//! 4. every step is checked bit-identical against the from-scratch
//!    flow and DRC-clean under the independent flat referee.
//!
//! Run with `cargo run --release --example incremental_edit`.

use rsg::compact::backend::BellmanFord;
use rsg::compact::hier::ChipCompaction;
use rsg::compact::incremental::{CompactSession, EditStats};
use rsg::compact::par::Parallelism;
use rsg::layout::{drc, Technology};

fn verify(label: &str, inc: &ChipCompaction, cold: &ChipCompaction) {
    assert_eq!(inc.leaf, cold.leaf, "{label}: leaf results diverged");
    assert_eq!(inc.chip.cells.len(), cold.chip.cells.len());
    for ((n_inc, o_inc), (n_cold, o_cold)) in inc.chip.cells.iter().zip(&cold.chip.cells) {
        assert_eq!(n_inc, n_cold);
        assert_eq!(
            o_inc.cell, o_cold.cell,
            "{label}: `{n_inc}` geometry diverged"
        );
        assert_eq!(
            o_inc.pitches, o_cold.pitches,
            "{label}: `{n_inc}` pitches diverged"
        );
    }
    let tech = Technology::mead_conway(2);
    let flat = rsg::layout::flatten(&inc.chip.table, inc.chip.top).expect("flattens");
    assert!(
        drc::check_flat(&flat, &tech.rules).is_empty(),
        "{label}: incremental result must re-check clean"
    );
    println!("  [{label}] bit-identical to the from-scratch flow, DRC-clean");
}

fn show(stats: &EditStats) {
    println!(
        "  leaf pass: {} job(s) solved, {} replayed from cache",
        stats.leaf_jobs, stats.leaf_hits
    );
    println!(
        "  hier pass: {} of {} assembly cells recompacted ({} replayed)",
        stats.cells_compacted, stats.cells_seen, stats.cell_hits
    );
    println!(
        "  abstracts: {} built, {} read from replayed cells; constraints: {} emitted; sweeps: {} solved",
        stats.abstracts_derived,
        stats.abstract_hits,
        stats.constraints_emitted,
        stats.sweeps_solved,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let mut session = CompactSession::new();

    // --- step 1: the cold run --------------------------------------------
    // A full-adder PLA: sum and carry of three inputs.
    let v1 = rsg::hpla::Personality::parse(
        &[
            "100 10", "010 10", "001 10", "111 10", // sum minterms
            "11- 01", "1-1 01", // carry, one term still missing
        ],
        3,
        2,
    )?;
    let pla = rsg::hpla::rsg_pla(&v1, "fa_pla")?;
    println!("=== cold run: compact the initial PLA ===");
    let inc = rsg::hpla::compactor::compact_chip_session(
        &mut session,
        pla.rsg.cells(),
        pla.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )?;
    show(&session.last_stats());
    let cold = rsg::hpla::compactor::compact_chip(
        pla.rsg.cells(),
        pla.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )?;
    verify("cold", &inc, &cold);

    // --- step 2: fix the personality — one new product term ---------------
    let v2 = rsg::hpla::Personality::parse(
        &[
            "100 10", "010 10", "001 10", "111 10", //
            "11- 01", "1-1 01", "-11 01", // the missing carry term
        ],
        3,
        2,
    )?;
    let pla2 = rsg::hpla::rsg_pla(&v2, "fa_pla")?;
    println!("\n=== edit: add the missing carry term and recompact ===");
    let inc = rsg::hpla::compactor::compact_chip_session(
        &mut session,
        pla2.rsg.cells(),
        pla2.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )?;
    let stats = session.last_stats();
    show(&stats);
    assert_eq!(
        stats.leaf_jobs, 0,
        "the cell library does not depend on the personality"
    );
    let cold2 = rsg::hpla::compactor::compact_chip(
        pla2.rsg.cells(),
        pla2.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )?;
    verify("edit", &inc, &cold2);

    // --- step 3: the no-op edit -------------------------------------------
    println!("\n=== no-op: recompact the unchanged design ===");
    let inc = rsg::hpla::compactor::compact_chip_session(
        &mut session,
        pla2.rsg.cells(),
        pla2.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )?;
    let stats = session.last_stats();
    show(&stats);
    assert_eq!(stats.cells_compacted, 0, "a no-op edit recompacts nothing");
    assert_eq!(stats.abstracts_derived, 0, "…composes no abstract");
    assert_eq!(stats.constraints_emitted, 0, "…re-emits nothing");
    assert_eq!(stats.sweeps_solved, 0, "…re-solves nothing");
    verify("noop", &inc, &cold2);

    let totals = session.stats();
    println!(
        "\nsession totals over {} calls: {} cells recompacted, {} replayed; \
         {} constraints emitted",
        totals.calls,
        totals.totals.cells_compacted,
        totals.totals.cell_hits,
        totals.totals.constraints_emitted,
    );
    Ok(())
}
