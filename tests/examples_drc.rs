//! The DRC-clean invariant over every example pipeline.
//!
//! Paper §2.3: "each cell can be made design rule correct", so every
//! layout the generators assemble — and everything the compactors emit —
//! must re-check clean under the independent sweep referee. Each test
//! below reproduces the *final layout* of one `examples/*` pipeline and
//! asserts `drc::check_flat` finds nothing. (The examples print their
//! violation counts; this suite is the non-optional gate.)

mod common;

use common::{full_adder_pla, quickstart_layout};
use rsg::compact::backend::BellmanFord;
use rsg::compact::leaf::{compact, LeafOptions};
use rsg::compact::par::Parallelism;
use rsg::geom::{Rect, Vector};
use rsg::layout::{drc, CellId, CellTable, Layer, Technology};

fn assert_clean(table: &CellTable, top: CellId, what: &str) {
    let tech = Technology::mead_conway(2);
    let flat = rsg::layout::flatten(table, top).unwrap();
    let violations = drc::check_flat(&flat, &tech.rules);
    assert!(
        violations.is_empty(),
        "{what}: {} violations, e.g. {:?}",
        violations.len(),
        violations.first()
    );
}

/// `examples/quickstart.rs`: the 8-tile row built from the example pair.
#[test]
fn quickstart_row_is_clean() {
    let (table, row) = quickstart_layout();
    assert_clean(&table, row, "quickstart row8");
}

/// `examples/pla_and_decoder.rs`: the full-adder PLA (both generators)
/// and the 3-to-8 decoder.
#[test]
fn pla_and_decoder_are_clean() {
    let pla = full_adder_pla();
    assert_clean(pla.rsg.cells(), pla.top, "RSG full-adder PLA");

    let personality = rsg::hpla::Personality::parse(
        &[
            "100 10", "010 10", "001 10", "111 10", "11- 01", "1-1 01", "-11 01",
        ],
        3,
        2,
    )
    .unwrap();
    let (table, top) = rsg::hpla::relocation_pla(&personality, "fa_pla_relo").unwrap();
    assert_clean(&table, top, "relocation full-adder PLA");

    let dec = rsg::hpla::rsg_decoder(3, "dec3").unwrap();
    assert_clean(dec.rsg.cells(), dec.top, "3-to-8 decoder");
}

/// `examples/design_file.rs`: the interpreter-built multiplier.
#[test]
fn design_file_multiplier_is_clean() {
    let run = rsg::lang::run_design(
        rsg::mult::cells::sample_layout().unwrap(),
        rsg::mult::design_file_source(),
        &rsg::mult::parameter_file_source(6, 6),
    )
    .unwrap();
    let top = run.rsg.cells().lookup("thewholething").unwrap();
    assert_clean(run.rsg.cells(), top, "design-file 6x6 multiplier");
}

/// `examples/pipelined_multiplier.rs` / `examples/phase_breakdown.rs`:
/// the native-API multiplier at the sizes the examples use.
#[test]
fn generated_multipliers_are_clean() {
    for n in [4usize, 6, 8] {
        let out = rsg::mult::generator::generate(n, n).unwrap();
        assert_clean(out.rsg.cells(), out.top, &format!("{n}x{n} multiplier"));
    }
}

/// `examples/leaf_compaction.rs`: the example's exact cell (Contact box
/// included) compacted under both its interfaces, then re-tiled at the
/// solved horizontal pitch *and* the fixed vertical abutment.
#[test]
fn leaf_compaction_retile_is_clean() {
    let tech = Technology::mead_conway(2);
    let out = compact(
        &[common::leaf_compaction_cell()],
        &common::leaf_compaction_interfaces(64),
        &tech.rules,
        &BellmanFord::SORTED,
        &LeafOptions::default(),
    )
    .unwrap();
    let pitch = out.pitches[0].1;
    let mut flat: Vec<(Layer, Rect)> = Vec::new();
    for row in 0..3i64 {
        for k in 0..4i64 {
            for (l, r) in out.cells[0].boxes() {
                flat.push((l, r.translate(Vector::new(k * pitch, row * 44))));
            }
        }
    }
    let violations = drc::check(&flat, &tech.rules);
    assert!(violations.is_empty(), "retiled library: {violations:?}");
}

/// `examples/chip_compaction.rs`: the hier-compacted PLA and multiplier.
#[test]
fn chip_compaction_outputs_are_clean() {
    let tech = Technology::mead_conway(2);
    let pla = full_adder_pla();
    let out = rsg::hpla::compactor::compact_chip(
        pla.rsg.cells(),
        pla.top,
        &tech.rules,
        &BellmanFord::SORTED,
        Parallelism::Auto,
    )
    .unwrap();
    assert_clean(&out.chip.table, out.chip.top, "compacted full-adder PLA");

    let mult = rsg::mult::generator::generate(6, 6).unwrap();
    let out = rsg::mult::compactor::compact_chip(
        mult.rsg.cells(),
        mult.top,
        &tech.rules,
        &BellmanFord::SORTED,
        Parallelism::Auto,
    )
    .unwrap();
    assert_clean(&out.chip.table, out.chip.top, "compacted 6x6 multiplier");
}
