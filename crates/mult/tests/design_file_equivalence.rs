//! Experiment E9: the Appendix-B design file, run through the `rsg-lang`
//! interpreter, must produce exactly the layout the native generator
//! builds — the same cell table (cell order, names, every object and
//! instance placement) and the same flat geometry.

use rsg_layout::stats::LayoutStats;
use rsg_layout::{CellTable, LayoutObject};
use rsg_mult::cells::sample_layout;
use rsg_mult::generator;
use rsg_mult::{design_file_source, parameter_file_source};
use std::collections::BTreeMap;

fn flat_signature(
    cells: &rsg_layout::CellTable,
    top: rsg_layout::CellId,
) -> BTreeMap<(rsg_layout::Layer, rsg_geom::Rect), usize> {
    let mut sig = BTreeMap::new();
    for b in rsg_layout::flatten(cells, top).unwrap() {
        *sig.entry(b).or_insert(0) += 1;
    }
    sig
}

/// Every cell of a table in insertion order: its name and its objects,
/// with each instance's callee given by name so the comparison does not
/// lean on id numbering.
fn table_listing(cells: &CellTable) -> Vec<(String, Vec<String>)> {
    let name = |id| cells.get(id).map_or("?", |c| c.name()).to_owned();
    cells
        .iter()
        .map(|(_, def)| {
            let objects = def
                .objects()
                .iter()
                .map(|o| match o {
                    LayoutObject::Instance(i) => format!(
                        "inst {} at {:?} {:?}",
                        name(i.cell),
                        i.point_of_call,
                        i.orientation
                    ),
                    other => format!("{other:?}"),
                })
                .collect();
            (def.name().to_owned(), objects)
        })
        .collect()
}

#[test]
fn interpreted_design_file_matches_native_generator() {
    // The small shapes, and every multiplier size of the benchmark's
    // paper-flow deck.
    let sizes = [
        (2, 2),
        (5, 3),
        (4, 4),
        (4, 6),
        (6, 6),
        (6, 9),
        (9, 9),
        (11, 11),
        (13, 14),
        (16, 16),
    ];
    for (xs, ys) in sizes {
        let native = generator::generate(xs, ys).unwrap();

        let run = rsg_lang::run_design(
            sample_layout().unwrap(),
            design_file_source(),
            &parameter_file_source(xs, ys),
        )
        .unwrap_or_else(|e| panic!("{xs}x{ys}: {e}"));
        let top = run
            .rsg
            .cells()
            .lookup("thewholething")
            .expect("top cell built");

        // The whole table: cell order, names, and every object of every
        // cell, instances in order with their placements.
        let native_table = table_listing(native.rsg.cells());
        let interp_table = table_listing(run.rsg.cells());
        assert_eq!(native_table.len(), interp_table.len(), "{xs}x{ys}");
        for (n, i) in native_table.iter().zip(&interp_table) {
            assert_eq!(n, i, "cell differs for {xs}x{ys}");
        }
        assert_eq!(native.top, top, "{xs}x{ys}");

        let native_sig = flat_signature(native.rsg.cells(), native.top);
        let interp_sig = flat_signature(run.rsg.cells(), top);
        assert_eq!(
            native_sig, interp_sig,
            "flat geometry differs for {xs}x{ys}"
        );

        let s_native = LayoutStats::compute(native.rsg.cells(), native.top).unwrap();
        let s_interp = LayoutStats::compute(run.rsg.cells(), top).unwrap();
        assert_eq!(s_native.total_instances, s_interp.total_instances);
        assert_eq!(s_native.bbox, s_interp.bbox);
    }
}

#[test]
fn design_file_declares_inherited_interfaces() {
    let run = rsg_lang::run_design(
        sample_layout().unwrap(),
        design_file_source(),
        &parameter_file_source(4, 4),
    )
    .unwrap();
    let cells = run.rsg.cells();
    let array = cells.lookup("array").unwrap();
    let topregs = cells.lookup("topregs").unwrap();
    // The inherited interface is loaded in both directions.
    assert!(run.rsg.interfaces().get(topregs, array, 1).is_some());
    assert!(run.rsg.interfaces().get(array, topregs, 1).is_some());
}

#[test]
fn paper_fig_5_6_shape_for_6x6() {
    // Fig 5.6 is the 6×6 bit-systolic layout: 36 core cells with 4 maskings
    // each, 6 top registers, 6 bottom registers, 6 right registers.
    let run = rsg_lang::run_design(
        sample_layout().unwrap(),
        design_file_source(),
        &parameter_file_source(6, 6),
    )
    .unwrap();
    let cells = run.rsg.cells();
    let count_in = |cell_name: &str, inner: &str| -> usize {
        let holder = cells.lookup(cell_name).unwrap();
        let target = cells.lookup(inner).unwrap();
        cells
            .require(holder)
            .unwrap()
            .instances()
            .filter(|i| i.cell == target)
            .count()
    };
    assert_eq!(count_in("array", "basic"), 36);
    assert_eq!(count_in("array", "typei") + count_in("array", "typeii"), 36);
    assert_eq!(count_in("array", "clock1"), 18);
    assert_eq!(count_in("array", "clock2"), 18);
    assert_eq!(count_in("topregs", "topreg"), 6);
    assert_eq!(count_in("bottomregs", "bottomreg"), 6);
    assert_eq!(count_in("rightregs", "rightreg"), 6);
    assert_eq!(count_in("rightregs", "goboth"), 1);
}
