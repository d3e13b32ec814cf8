//! Solution-identity proptests for the transitive-reduction prune.
//!
//! The pruned generators drop spacing edges implied by tighter two-hop
//! chains (see DESIGN.md, "Constraint pruning + sweep arenas"), so the
//! constraint *lists* differ from the full emission — the claim is that
//! the *solutions* do not. These properties pin that claim bit-for-bit
//! on random layouts:
//!
//! * flat: `Prune::Apply` and `Prune::Keep` systems solve to identical
//!   positions on both sweep axes (and fail identically when they fail),
//! * leaf: pruned and unpruned library compaction agree on every cell,
//!   pitch, *and* [`PitchBinding`] diagnostic,
//! * hier: `HierOptions { prune }` toggled on/off yields identical
//!   geometry and pitch classes for every assembly cell, with every
//!   instance in a random one of the eight orientations,
//! * plus the headline regression: the 8×8 tiled-array constraint count
//!   drops ≥ 30% below the recorded full-emission 1568.

use proptest::prelude::*;
use rsg_compact::backend::BellmanFord;
use rsg_compact::hier::{compact_hierarchy, HierOptions};
use rsg_compact::leaf::{compact, LeafInterface, LeafOptions, PitchKind};
use rsg_compact::scanline::{generate, Method, Prune};
use rsg_compact::solver::{solve, EdgeOrder};
use rsg_geom::{Axis, BoundingBox, Orientation, Point, Rect, Vector};
use rsg_layout::{CellDefinition, CellTable, Instance, Layer, Technology};

const LAYERS: [Layer; 3] = [Layer::Poly, Layer::Diffusion, Layer::Metal1];

/// Dense random soups: heavy overlap and abutment so chains, hidden
/// pairs, and duplicate-weld candidates all occur.
fn arb_boxes() -> impl Strategy<Value = Vec<(Layer, Rect)>> {
    proptest::collection::vec((0i64..40, 0i64..24, 0i64..12, 0i64..10, 0usize..3), 1..20).prop_map(
        |seeds| {
            seeds
                .into_iter()
                .map(|(x, y, w, h, l)| (LAYERS[l], Rect::from_origin_size(Point::new(x, y), w, h)))
                .collect()
        },
    )
}

/// Stacked-lane cells, clean by construction (the parallel-equivalence
/// recipe): every lane is wide enough and gapped enough to satisfy the
/// λ = 2 Mead–Conway rules, so leaf/hier compaction always succeeds and
/// the property measures equivalence, not feasibility luck.
fn lane_cell(name: &str, lanes: &[(usize, i64, i64, i64)]) -> CellDefinition {
    let mut c = CellDefinition::new(name);
    let mut y = 0;
    for &(layer_idx, x0, w, h) in lanes {
        c.add_box(
            LAYERS[layer_idx % LAYERS.len()],
            Rect::from_coords(x0, y, x0 + w, y + h),
        );
        y += h + 8;
    }
    c
}

/// The union of `bb`'s images under all eight orientations about the
/// origin: a grid cell this size, with the instance's origin at the
/// cell corner minus its low corner, holds the leaf in any orientation.
fn oriented_reach(bb: Rect) -> Rect {
    let mut reach = BoundingBox::new();
    for o in Orientation::ALL {
        reach.include_rect(bb.transform_orientation(o));
    }
    reach.rect().expect("non-empty")
}

fn arb_lanes() -> impl Strategy<Value = Vec<(usize, i64, i64, i64)>> {
    proptest::collection::vec((0usize..3, 0i64..12, 8i64..20, 8i64..14), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Flat: the pruned system never has more constraints and solves to
    /// exactly the same positions as the full emission, both axes.
    #[test]
    fn pruned_flat_generation_solves_identically(boxes in arb_boxes()) {
        let rules = Technology::mead_conway(2).rules.clone();
        for axis in Axis::BOTH {
            let (full, vars_full) = generate(
                &boxes, &rules, Method::Visibility, axis, Prune::Keep,
            );
            let (pruned, vars_pruned) = generate(
                &boxes, &rules, Method::Visibility, axis, Prune::Apply,
            );
            prop_assert_eq!(&vars_full, &vars_pruned);
            prop_assert!(pruned.constraints().len() <= full.constraints().len());
            let sol_full = solve(&full, EdgeOrder::Sorted);
            let sol_pruned = solve(&pruned, EdgeOrder::Sorted);
            match (sol_full, sol_pruned) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.positions(), b.positions(), "{}", axis);
                }
                (a, b) => prop_assert_eq!(
                    a.is_err(), b.is_err(),
                    "feasibility verdicts diverged on {}", axis
                ),
            }
        }
    }

    /// Leaf: pruned vs full intra-cell emission — identical compacted
    /// cells, pitches, unknowns, and `PitchBinding` diagnostics.
    #[test]
    fn pruned_leaf_compaction_matches_unpruned(
        lanes_a in arb_lanes(),
        lanes_b in arb_lanes(),
        initial in 40i64..80,
    ) {
        let rules = Technology::mead_conway(2).rules.clone();
        let cells = [lane_cell("a", &lanes_a), lane_cell("b", &lanes_b)];
        let interfaces = [
            LeafInterface {
                cell_a: 0,
                cell_b: 1,
                kind: PitchKind::VariableX { initial, weight: 4 },
                y_offset: 0,
                name: "ab".into(),
            },
            LeafInterface {
                cell_a: 0,
                cell_b: 0,
                kind: PitchKind::FixedX(0),
                y_offset: 10,
                name: "aa".into(),
            },
        ];
        let pruned = compact(
            &cells, &interfaces, &rules, &BellmanFord::SORTED, &LeafOptions::default(),
        );
        let full = compact(
            &cells, &interfaces, &rules, &BellmanFord::SORTED,
            &LeafOptions { prune: Prune::Keep, ..LeafOptions::default() },
        );
        match (pruned, full) {
            (Ok(p), Ok(f)) => {
                prop_assert_eq!(&p.cells, &f.cells);
                prop_assert_eq!(&p.pitches, &f.pitches);
                prop_assert_eq!(&p.bindings, &f.bindings, "PitchBindings diverged");
                prop_assert_eq!(p.unknowns, f.unknowns);
                prop_assert!(p.constraints <= f.constraints);
            }
            (p, f) => prop_assert_eq!(p.is_err(), f.is_err()),
        }
    }

    /// Hier: toggling `HierOptions::prune` changes nothing observable —
    /// geometry, pitch classes, convergence, and the final table agree
    /// for every assembly cell.
    #[test]
    fn pruned_hier_compaction_matches_unpruned(
        lanes in arb_lanes(),
        nx in 1i64..4,
        ny in 1i64..3,
        orients in proptest::collection::vec(0usize..8, 6..7),
    ) {
        let rules = Technology::mead_conway(2).rules.clone();
        let mut table = CellTable::new();
        let leaf = lane_cell("leaf", &lanes);
        let bb = leaf.local_bbox().rect().expect("non-empty leaf");
        let leaf_id = table.insert(leaf).expect("insert leaf");
        // One grid cell holds the leaf in any orientation, 8 apart.
        let reach = oriented_reach(bb);
        let (px, py) = (reach.width() + 8, reach.height() + 8);
        let mut asm = CellDefinition::new("asm");
        for row in 0..ny {
            for col in 0..nx {
                let k = (row * nx + col) as usize;
                asm.add_instance(Instance::new(
                    leaf_id,
                    Point::new(col * px - reach.lo().x, row * py - reach.lo().y),
                    Orientation::ALL[orients[k]],
                ));
            }
        }
        let top = table.insert(asm).expect("insert asm");

        let on = compact_hierarchy(
            &table, top, &rules, &BellmanFord::SORTED,
            &HierOptions { prune: Prune::Apply, ..HierOptions::default() },
        );
        let off = compact_hierarchy(
            &table, top, &rules, &BellmanFord::SORTED,
            &HierOptions { prune: Prune::Keep, ..HierOptions::default() },
        );
        match (on, off) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.cells.len(), b.cells.len());
                for ((name_a, out_a), (name_b, out_b)) in a.cells.iter().zip(&b.cells) {
                    prop_assert_eq!(name_a, name_b);
                    prop_assert_eq!(&out_a.cell, &out_b.cell, "geometry diverged");
                    prop_assert_eq!(&out_a.pitches, &out_b.pitches, "pitches diverged");
                    prop_assert_eq!(out_a.converged, out_b.converged);
                }
                prop_assert_eq!(
                    a.table.require(a.top).expect("top exists"),
                    b.table.require(b.top).expect("top exists")
                );
            }
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }
    }
}

/// Prune soundness at the edge of the coordinate budget: boxes spread
/// across nearly the full ±[`rsg_geom::MAX_COORD`] span produce spacing
/// weights of ~2³¹, the largest any in-budget layout can emit. The
/// dominance test now uses `checked_add` — a chain sum that overflows
/// compares as "cannot prove dominance" and the direct edge is kept —
/// so pruned and full emission must still solve identically out here,
/// where a saturating comparison would be closest to lying.
#[test]
fn prune_is_sound_at_the_coordinate_budget_edge() {
    let rules = Technology::mead_conway(2).rules.clone();
    let m = rsg_geom::MAX_COORD;
    // A chain i → k → j spanning the whole budget, plus abutting
    // material near each end so chains, hidden pairs, and same-layer
    // spacings all occur at extreme coordinates.
    let boxes = vec![
        (Layer::Poly, Rect::from_coords(-m, -m, -m + 40, -m + 60)),
        (
            Layer::Poly,
            Rect::from_coords(-m + 12, -m + 4, -m + 90, -m + 34),
        ),
        (
            Layer::Metal1,
            Rect::from_coords(-m + 2, -m + 2, -m + 50, -m + 26),
        ),
        (Layer::Poly, Rect::from_coords(-60, -30, -20, 30)),
        (Layer::Metal1, Rect::from_coords(-40, -10, 40, 14)),
        (
            Layer::Poly,
            Rect::from_coords(m - 80, m - 70, m - 30, m - 20),
        ),
        (
            Layer::Diffusion,
            Rect::from_coords(m - 64, m - 90, m - 10, m - 44),
        ),
        (Layer::Metal1, Rect::from_coords(m - 100, m - 40, m - 60, m)),
    ];
    for axis in Axis::BOTH {
        let (full, vars_full) = generate(&boxes, &rules, Method::Visibility, axis, Prune::Keep);
        let (pruned, vars_pruned) =
            generate(&boxes, &rules, Method::Visibility, axis, Prune::Apply);
        assert_eq!(vars_full, vars_pruned);
        assert!(pruned.constraints().len() <= full.constraints().len());
        let sol_full = solve(&full, EdgeOrder::Sorted);
        let sol_pruned = solve(&pruned, EdgeOrder::Sorted);
        match (sol_full, sol_pruned) {
            (Ok(a), Ok(b)) => assert_eq!(
                a.positions(),
                b.positions(),
                "budget-edge packing diverged on {axis}"
            ),
            (a, b) => assert_eq!(
                a.is_err(),
                b.is_err(),
                "budget-edge feasibility verdicts diverged on {axis}"
            ),
        }
    }
}

/// The E13 bench cell tiled n×n at its sample pitch — the layout behind
/// the recorded `flat_tiled_array` counts in BENCH_compaction.json.
fn tiled(n: usize) -> Vec<(Layer, Rect)> {
    let bars = [
        (Layer::Poly, Rect::from_coords(2, 0, 8, 30)),
        (Layer::Metal1, Rect::from_coords(16, 5, 28, 25)),
        (Layer::Poly, Rect::from_coords(34, 0, 38, 30)),
    ];
    let mut out = Vec::new();
    for row in 0..n as i64 {
        for col in 0..n as i64 {
            let shift = Vector::new(col * 48, row * 36);
            for (l, r) in bars {
                out.push((l, r.translate(shift)));
            }
        }
    }
    out
}

/// Headline regression: on the recorded 8×8 tiled array the full
/// emission is still exactly 1568 constraints, the pruned emission cuts
/// that by at least 30%, and both solve to the same packing.
#[test]
fn tiled_8x8_constraint_count_drops_at_least_30_percent() {
    let rules = Technology::mead_conway(2).rules.clone();
    let boxes = tiled(8);
    let (full, _) = generate(&boxes, &rules, Method::Visibility, Axis::X, Prune::Keep);
    let (pruned, _) = generate(&boxes, &rules, Method::Visibility, Axis::X, Prune::Apply);
    assert_eq!(
        full.constraints().len(),
        1568,
        "full emission drifted from the recorded BENCH baseline"
    );
    let ceiling = 1568 * 7 / 10; // ≥ 30% reduction
    assert!(
        pruned.constraints().len() <= ceiling,
        "pruned 8x8 count {} exceeds the 30%-reduction ceiling {ceiling}",
        pruned.constraints().len()
    );
    let sol_full = solve(&full, EdgeOrder::Sorted).expect("full solves");
    let sol_pruned = solve(&pruned, EdgeOrder::Sorted).expect("pruned solves");
    assert_eq!(sol_full.positions(), sol_pruned.positions());
}
