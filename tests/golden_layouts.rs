//! Golden-layout regression suite (experiment E20).
//!
//! Unit tests check local invariants; this suite pins the *entire
//! geometry* of the flagship pipelines byte for byte. Each test
//! regenerates a layout, serializes it as CIF, and diffs it against the
//! committed snapshot under `tests/golden/` — any silent drift in the
//! generators, the leaf compactor, or the hierarchical compactor shows
//! up as a failing diff of mask geometry, not as a green run with
//! different numbers.
//!
//! To re-bless after an *intentional* geometry change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_layouts
//! ```
//!
//! then review the snapshot diff like any other code change.

mod common;

use common::{full_adder_pla, quickstart_layout};
use rsg::compact::backend::BellmanFord;
use rsg::compact::hier::CellAbstract;
use rsg::compact::par::Parallelism;
use rsg::geom::{Isometry, Orientation};
use rsg::layout::{flatten, CellTable, Technology};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Diffs `actual` against the committed snapshot, or re-blesses it when
/// `UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to bless",
            path.display()
        )
    });
    if expected != actual {
        let first_diff = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or_else(
                || "line counts differ".to_owned(),
                |k| {
                    format!(
                        "first diff at line {}:\n  golden: {}\n  actual: {}",
                        k + 1,
                        expected.lines().nth(k).unwrap_or(""),
                        actual.lines().nth(k).unwrap_or(""),
                    )
                },
            );
        panic!(
            "layout drifted from golden snapshot {name} \
             ({} golden vs {} actual lines) — {first_diff}\n\
             If the change is intentional, re-bless with UPDATE_GOLDEN=1.",
            expected.lines().count(),
            actual.lines().count(),
        );
    }
}

#[test]
fn golden_quickstart_row() {
    let (table, row) = quickstart_layout();
    assert_golden(
        "quickstart_row8.cif",
        &rsg::layout::write_cif(&table, row).unwrap(),
    );
    let flat = rsg::layout::flatten(&table, row).unwrap();
    assert_golden(
        "quickstart_row8_flat.cif",
        &rsg::layout::write_cif_flat(&flat, "row8_flat").unwrap(),
    );
}

#[test]
fn golden_pla() {
    let pla = full_adder_pla();
    assert_golden(
        "pla_full_adder.cif",
        &rsg::layout::write_cif(pla.rsg.cells(), pla.top).unwrap(),
    );
}

#[test]
fn golden_pla_compacted() {
    let tech = Technology::mead_conway(2);
    let pla = full_adder_pla();
    let out = rsg::hpla::compactor::compact_chip(
        pla.rsg.cells(),
        pla.top,
        &tech.rules,
        &BellmanFord::SORTED,
        Parallelism::Serial,
    )
    .unwrap();
    assert_golden(
        "pla_full_adder_compacted.cif",
        &rsg::layout::write_cif(&out.chip.table, out.chip.top).unwrap(),
    );
}

#[test]
fn golden_multiplier() {
    let out = rsg::mult::generator::generate(4, 4).unwrap();
    assert_golden(
        "multiplier_4x4.cif",
        &rsg::layout::write_cif(out.rsg.cells(), out.top).unwrap(),
    );
}

#[test]
fn golden_multiplier_compacted() {
    let tech = Technology::mead_conway(2);
    let out = rsg::mult::generator::generate(4, 4).unwrap();
    let compacted = rsg::mult::compactor::compact_chip(
        out.rsg.cells(),
        out.top,
        &tech.rules,
        &BellmanFord::SORTED,
        Parallelism::Serial,
    )
    .unwrap();
    assert_golden(
        "multiplier_4x4_compacted.cif",
        &rsg::layout::write_cif(&compacted.chip.table, compacted.chip.top).unwrap(),
    );
}

/// Every definition of every golden design, before and after
/// compaction: the interface abstract the hierarchy walk composes from
/// children's abstracts equals, field for field and in all eight
/// orientations, the one derived from the definition's flattened
/// subtree.
#[test]
fn golden_designs_compose_their_flatten_derived_abstracts() {
    let tech = Technology::mead_conway(2);
    let rules = &tech.rules;
    let solver = BellmanFord::SORTED;
    let (quickstart, _) = quickstart_layout();
    let pla = full_adder_pla();
    let pla_out = rsg::hpla::compactor::compact_chip(
        pla.rsg.cells(),
        pla.top,
        rules,
        &solver,
        Parallelism::Serial,
    )
    .unwrap();
    let mult = rsg::mult::generator::generate(4, 4).unwrap();
    let mult_out = rsg::mult::compactor::compact_chip(
        mult.rsg.cells(),
        mult.top,
        rules,
        &solver,
        Parallelism::Serial,
    )
    .unwrap();
    let designs: [(&str, &CellTable); 5] = [
        ("quickstart_row8", &quickstart),
        ("pla_full_adder", pla.rsg.cells()),
        ("pla_full_adder_compacted", &pla_out.chip.table),
        ("multiplier_4x4", mult.rsg.cells()),
        ("multiplier_4x4_compacted", &mult_out.chip.table),
    ];
    for (design, table) in designs {
        let mut assemblies = 0;
        for (id, def) in table.iter() {
            assemblies += usize::from(def.instances().next().is_some());
            let composed = CellAbstract::composed(table, id, rules).unwrap();
            let flat = flatten(table, id).unwrap();
            for o in Orientation::ALL {
                let iso = Isometry::orient(o);
                let boxes: Vec<_> = flat
                    .layer_rects()
                    .iter()
                    .map(|&(l, r)| (l, r.transform(iso)))
                    .collect();
                assert_eq!(
                    composed.oriented(o),
                    CellAbstract::from_boxes(&boxes, rules),
                    "{design}: `{}` under {o:?}",
                    def.name()
                );
            }
        }
        assert!(assemblies > 0, "{design} has no assembly to compose");
    }
}
