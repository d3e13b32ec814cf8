//! Whole-chip hierarchical compaction — the paper's headline flow.
//!
//! 1. Generate an assembled chip (a PLA from a truth table, a 6×6
//!    multiplier) through the RSG.
//! 2. **Leaf pass**: compact the cell library once, pitches as unknowns
//!    (§6.1) — never the assembled mask data.
//! 3. **Hier pass**: re-place the instances against the compacted
//!    cells' interface abstracts, rows/columns pitch-matched through
//!    shared λ classes; multi-level assemblies (the multiplier's
//!    `array` → `thewholething`) compact bottom-up.
//! 4. Flatten only to *verify*: the independent DRC referee must find
//!    nothing, and the chip must be smaller.
//!
//! Run with `cargo run --release --example chip_compaction`.

use rsg::compact::backend::BellmanFord;
use rsg::compact::hier::ChipCompaction;
use rsg::compact::par::Parallelism;
use rsg::layout::{drc, CellId, CellTable, Technology};

fn report(name: &str, table: &CellTable, top: CellId, out: &ChipCompaction) {
    let tech = Technology::mead_conway(2);
    let before = rsg::layout::flatten(table, top).expect("input flattens");
    let after = rsg::layout::flatten(&out.chip.table, out.chip.top).expect("output flattens");
    let bb0 = before.bbox().rect().expect("non-empty");
    let bb1 = after.bbox().rect().expect("non-empty");
    let violations = drc::check_flat(&after, &tech.rules);
    println!("=== {name} ===");
    println!(
        "  area: {}x{} -> {}x{}  ({:.1}% of the sample)",
        bb0.width(),
        bb0.height(),
        bb1.width(),
        bb1.height(),
        100.0 * (bb1.width() * bb1.height()) as f64 / (bb0.width() * bb0.height()) as f64,
    );
    println!("  DRC after flattening: {} violations", violations.len());
    assert!(violations.is_empty(), "compacted chip must re-check clean");
    assert!(
        bb1.width() * bb1.height() < bb0.width() * bb0.height(),
        "compaction must shrink the chip"
    );
    for (cell, outcome) in &out.chip.cells {
        let moved: usize = outcome
            .report
            .sweeps
            .iter()
            .map(|s| s.clusters)
            .max()
            .unwrap_or(0);
        println!(
            "  {cell}: {} instance clusters re-placed over {} flat boxes' worth of geometry, \
             {} alternations, {} constraints",
            moved,
            outcome.report.flat_boxes,
            outcome.passes,
            outcome.report.total_constraints(),
        );
        for pitch in &outcome.pitches {
            println!(
                "    λ {} = {} shared by {} abutting pair(s)",
                pitch.name, pitch.value, pitch.pairs
            );
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;

    // --- a full-adder PLA ------------------------------------------------
    let personality = rsg::hpla::Personality::parse(
        &[
            "100 10", "010 10", "001 10", "111 10", // sum minterms
            "11- 01", "1-1 01", "-11 01", // carry
        ],
        3,
        2,
    )?;
    let pla = rsg::hpla::rsg_pla(&personality, "fa_pla")?;
    let out = rsg::hpla::compactor::compact_chip(
        pla.rsg.cells(),
        pla.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )?;
    report("full-adder PLA", pla.rsg.cells(), pla.top, &out);

    // The leaf pass ran once for the whole library, independent of the
    // personality size — §6.1's economics.
    println!(
        "  (leaf pass solved {} librar{} once, reused by every instance)",
        out.leaf.len(),
        if out.leaf.len() == 1 { "y" } else { "ies" }
    );

    // --- a 6×6 pipelined multiplier --------------------------------------
    let mult = rsg::mult::generator::generate(6, 6)?;
    let out = rsg::mult::compactor::compact_chip(
        mult.rsg.cells(),
        mult.top,
        &tech.rules,
        &solver,
        Parallelism::Auto,
    )?;
    report("6x6 multiplier", mult.rsg.cells(), mult.top, &out);
    println!("  (array, register stacks, and the top assembly compacted bottom-up,");
    println!("   never flattened — the paper's hierarchical composition)");

    // The compacted chip exports like any other layout.
    let cif = rsg::layout::write_cif(&out.chip.table, out.chip.top)?;
    println!("\ncompacted multiplier CIF: {} bytes", cif.len());
    Ok(())
}
