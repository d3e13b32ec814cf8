//! Property tests for the hierarchical compactor (`rsg_compact::hier`).
//!
//! Random DRC-clean-by-construction leaf cells are assembled into grids
//! and hier-compacted. The properties pin the tentpole's contract:
//!
//! * the compacted assembly is **DRC-clean after flattening** (the
//!   independent sweep referee, which shares no code with the abstract
//!   path, finds nothing),
//! * the bounding box **never expands** on uniform grids,
//! * compaction is **idempotent**: recompacting the compacted table is a
//!   no-op,
//! * **abutting-instance λ agreement**: every member pair of a pitch
//!   class realizes exactly the class pitch, so both sides of every
//!   shared interface see the same λ — rows and columns stay
//!   pitch-matched.
//!
//! Every grid and mixed row places its instances in one orientation
//! drawn from all eight, at a pitch taken from the oriented bounding box,
//! so the abstracts, frames and pitch classes are exercised off `NORTH`
//! too. The default lane runs small grids; the `#[ignore]`d lane (run
//! with `cargo test -- --ignored`) covers larger grids and more cases.

use proptest::prelude::*;
use rsg_compact::backend::BellmanFord;
use rsg_compact::hier::{compact_cell, compact_hierarchy, HierOptions, HierOutcome};
use rsg_geom::{Orientation, Point, Rect};
use rsg_layout::{drc, flatten, CellDefinition, CellTable, Instance, Layer, Technology};
use std::collections::BTreeMap;

const LANE_LAYERS: [Layer; 4] = [Layer::Diffusion, Layer::Poly, Layer::Metal1, Layer::Metal2];

/// A random leaf that is clean by construction: 1–3 single-box "lanes"
/// stacked vertically with an 8-unit gap (≥ every Mead–Conway spacing at
/// λ = 2), every box at least 8 wide/tall (≥ every min width).
fn lane_cell(name: &str, lanes: &[(usize, i64, i64, i64)]) -> CellDefinition {
    let mut c = CellDefinition::new(name);
    let mut y = 0;
    for &(layer_idx, x0, w, h) in lanes {
        let layer = LANE_LAYERS[layer_idx % LANE_LAYERS.len()];
        c.add_box(layer, Rect::from_coords(x0, y, x0 + w, y + h));
        y += h + 8;
    }
    c
}

/// `cell`'s bounding box under orientation `o` (about the origin).
fn oriented_bbox(cell: &CellDefinition, o: Orientation) -> Rect {
    cell.local_bbox()
        .rect()
        .expect("non-empty")
        .transform_orientation(o)
}

/// An `nx × ny` grid of `cell` in orientation `o`: the oriented bodies
/// sit 8 apart on both axes, from the origin up. Every instance shares
/// one `(cell, orientation)` and one pitch per axis, so the grid has
/// one pitch class per axis.
fn grid_table(
    cell: CellDefinition,
    nx: i64,
    ny: i64,
    o: Orientation,
) -> (CellTable, rsg_layout::CellId) {
    let bb = oriented_bbox(&cell, o);
    let (px, py) = (bb.width() + 8, bb.height() + 8);
    let mut t = CellTable::new();
    let id = t.insert(cell).unwrap();
    let mut top = CellDefinition::new("grid");
    for row in 0..ny {
        for col in 0..nx {
            top.add_instance(Instance::new(
                id,
                Point::new(col * px - bb.lo().x, row * py - bb.lo().y),
                o,
            ));
        }
    }
    let top_id = t.insert(top).unwrap();
    (t, top_id)
}

/// Realized consecutive gaps per row (and per column when `columns`).
fn gaps(def: &CellDefinition, columns: bool) -> Vec<i64> {
    let mut lines: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for i in def.instances() {
        let (key, val) = if columns {
            (i.point_of_call.x, i.point_of_call.y)
        } else {
            (i.point_of_call.y, i.point_of_call.x)
        };
        lines.entry(key).or_default().push(val);
    }
    let mut out = Vec::new();
    for line in lines.values_mut() {
        line.sort_unstable();
        out.extend(line.windows(2).map(|w| w[1] - w[0]));
    }
    out
}

fn check_grid(lanes: &[(usize, i64, i64, i64)], nx: i64, ny: i64, o: Orientation) {
    let tech = Technology::mead_conway(2);
    let cell = lane_cell("leaf", lanes);
    let (table, top) = grid_table(cell, nx, ny, o);

    // Sanity: the generated assembly is clean before compaction.
    let before = flatten(&table, top).unwrap();
    let v = drc::check_flat(&before, &tech.rules);
    prop_assert!(v.is_empty(), "generator produced a dirty input: {v:?}");
    let bb0 = before.bbox().rect().unwrap();

    let out = compact_hierarchy(
        &table,
        top,
        &tech.rules,
        &BellmanFord::SORTED,
        &HierOptions::default(),
    )
    .unwrap();

    // DRC-clean after flattening.
    let after = flatten(&out.table, out.top).unwrap();
    let v = drc::check_flat(&after, &tech.rules);
    prop_assert!(v.is_empty(), "hier-compacted grid violates rules: {v:?}");

    // The bounding box never expands on a uniform grid.
    let bb1 = after.bbox().rect().unwrap();
    prop_assert!(
        bb1.lo().x >= bb0.lo().x
            && bb1.lo().y >= bb0.lo().y
            && bb1.hi().x <= bb0.hi().x
            && bb1.hi().y <= bb0.hi().y,
        "bbox expanded: {bb0} -> {bb1}"
    );

    // Idempotence: recompacting the compacted table changes nothing.
    let again = compact_hierarchy(
        &out.table,
        out.top,
        &tech.rules,
        &BellmanFord::SORTED,
        &HierOptions::default(),
    )
    .unwrap();
    prop_assert_eq!(
        again.table.require(again.top).unwrap(),
        out.table.require(out.top).unwrap(),
        "second compaction moved instances"
    );

    // λ agreement: every realized gap equals its class pitch on both
    // sides of every shared interface (uniform grid → one class/axis).
    let def = out.table.require(out.top).unwrap();
    let outcome: &HierOutcome = out.outcome("grid").unwrap();
    if nx > 1 {
        let row_gaps = gaps(def, false);
        let lambda = outcome
            .pitches
            .iter()
            .find(|p| p.axis == rsg_geom::Axis::X)
            .expect("an x pitch class")
            .value;
        prop_assert!(
            row_gaps.iter().all(|&g| g == lambda),
            "x gaps {row_gaps:?} != λ {lambda}"
        );
    }
    if ny > 1 {
        let col_gaps = gaps(def, true);
        let lambda = outcome
            .pitches
            .iter()
            .find(|p| p.axis == rsg_geom::Axis::Y)
            .expect("a y pitch class")
            .value;
        prop_assert!(
            col_gaps.iter().all(|&g| g == lambda),
            "y gaps {col_gaps:?} != λ {lambda}"
        );
    }
}

type Lanes = Vec<(usize, i64, i64, i64)>;

fn lanes_strategy(max_lanes: usize) -> impl Strategy<Value = Lanes> {
    proptest::collection::vec((0usize..4, 0i64..6, 8i64..20, 8i64..16), 1..max_lanes + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn small_grids_compact_clean_and_pitch_matched(
        lanes in lanes_strategy(2),
        nx in 1i64..4,
        ny in 1i64..4,
        o in 0usize..8,
    ) {
        check_grid(&lanes, nx, ny, Orientation::ALL[o]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    #[ignore = "slow lane: larger grids, more cases (CI runs it separately)"]
    fn large_grids_compact_clean_and_pitch_matched(
        lanes in lanes_strategy(3),
        nx in 2i64..8,
        ny in 2i64..8,
        o in 0usize..8,
    ) {
        check_grid(&lanes, nx, ny, Orientation::ALL[o]);
    }
}

// A mixed one-row assembly (two different cells alternating): DRC-clean
// and idempotent; the bbox cannot expand because a single row has no
// cross-row coupling.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mixed_rows_stay_clean_and_idempotent(
        lanes_a in lanes_strategy(2),
        lanes_b in lanes_strategy(2),
        n in 2i64..5,
        o in 0usize..8,
    ) {
        let tech = Technology::mead_conway(2);
        let o = Orientation::ALL[o];
        let a = lane_cell("a", &lanes_a);
        let b = lane_cell("b", &lanes_b);
        let (ba, bb) = (oriented_bbox(&a, o), oriented_bbox(&b, o));
        let pitch = ba.width().max(bb.width()) + 8;
        let mut t = CellTable::new();
        let a_id = t.insert(a).unwrap();
        let b_id = t.insert(b).unwrap();
        let mut top = CellDefinition::new("row");
        for k in 0..n {
            let (id, body) = if k % 2 == 0 { (a_id, ba) } else { (b_id, bb) };
            let at = Point::new(k * pitch - body.lo().x, -body.lo().y);
            top.add_instance(Instance::new(id, at, o));
        }
        let top_id = t.insert(top).unwrap();

        let before = flatten(&t, top_id).unwrap();
        prop_assert!(drc::check_flat(&before, &tech.rules).is_empty());
        let bb0 = before.bbox().rect().unwrap();

        let out = compact_cell(&t, top_id, &tech.rules, &BellmanFord::SORTED, &HierOptions::default())
            .unwrap();
        let mut t2 = t.clone();
        *t2.get_mut(top_id).unwrap() = out.cell.clone();
        let after = flatten(&t2, top_id).unwrap();
        let v = drc::check_flat(&after, &tech.rules);
        prop_assert!(v.is_empty(), "mixed row violates rules: {v:?}");
        let bb1 = after.bbox().rect().unwrap();
        prop_assert!(bb1.hi().x <= bb0.hi().x && bb1.hi().y <= bb0.hi().y);

        let again = compact_cell(&t2, top_id, &tech.rules, &BellmanFord::SORTED, &HierOptions::default())
            .unwrap();
        prop_assert_eq!(&again.cell, &out.cell, "mixed row not idempotent");
    }
}
