//! Property tests for the axis-generic engine: the `Axis::Y` sweep must
//! reproduce the retired transpose∘compact-x∘transpose path exactly, and
//! the alternating-axis fixpoint must converge to an idempotent layout.

use proptest::prelude::*;
use rsg_compact::backend::BellmanFord;
use rsg_compact::engine;
use rsg_compact::scanline::{generate, Method, Prune};
use rsg_geom::{Axis, Point, Rect};
use rsg_layout::{Layer, Technology};

/// Random box soups on interacting layers. Boxes are placed on a coarse
/// grid with positive sizes; overlaps and abutments are allowed (they
/// exercise the connectivity constraints).
fn arb_boxes() -> impl Strategy<Value = Vec<(Layer, Rect)>> {
    proptest::collection::vec((0i64..12, 0i64..12, 1i64..6, 1i64..6, 0usize..3), 1..14).prop_map(
        |seeds| {
            let layers = [Layer::Poly, Layer::Diffusion, Layer::Metal1];
            seeds
                .into_iter()
                .map(|(x, y, w, h, l)| {
                    (
                        layers[l],
                        Rect::from_origin_size(Point::new(x * 8, y * 8), w * 2, h * 2),
                    )
                })
                .collect()
        },
    )
}

/// The reference implementation the seed used: transpose the layout,
/// compact in x, transpose back.
fn compact_y_by_transposition(
    boxes: &[(Layer, Rect)],
    rules: &rsg_layout::DesignRules,
) -> Result<Vec<(Layer, Rect)>, rsg_compact::backend::SolveError> {
    let flipped: Vec<(Layer, Rect)> = boxes.iter().map(|&(l, r)| (l, r.transpose())).collect();
    let compacted = engine::compact_axis(&flipped, rules, Axis::X, &BellmanFord::SORTED)?;
    Ok(compacted
        .into_iter()
        .map(|(l, r)| (l, r.transpose()))
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The zero-copy `Axis::Y` sweep equals the old
    /// transpose∘compact-x∘transpose pipeline box for box.
    #[test]
    fn y_sweep_equals_transposed_x_sweep(boxes in arb_boxes()) {
        let rules = Technology::mead_conway(2).rules.clone();
        // Random soups may be infeasible (a transitively-connected pair
        // pinned closer than its spacing rule); the equivalence must hold
        // for errors too, so compare the full Results.
        let direct = engine::compact_axis(&boxes, &rules, Axis::Y, &BellmanFord::SORTED);
        let via_transpose = compact_y_by_transposition(&boxes, &rules);
        prop_assert_eq!(direct, via_transpose);
    }

    /// Constraint systems generated along `Axis::Y` are identical to the
    /// x systems of the transposed layout (same constraints, same
    /// initial values), for both generation methods.
    #[test]
    fn y_system_is_transposed_x_system(boxes in arb_boxes()) {
        let rules = Technology::mead_conway(2).rules.clone();
        let flipped: Vec<(Layer, Rect)> =
            boxes.iter().map(|&(l, r)| (l, r.transpose())).collect();
        for method in [Method::Band, Method::Visibility] {
            let (sys_y, vars_y) = generate(&boxes, &rules, method, Axis::Y, Prune::Apply);
            let (sys_x, vars_x) = generate(&flipped, &rules, method, Axis::X, Prune::Apply);
            prop_assert_eq!(sys_y.constraints(), sys_x.constraints());
            prop_assert_eq!(&vars_y, &vars_x);
            for (by, bx) in vars_y.iter().zip(&vars_x) {
                prop_assert_eq!(sys_y.initial(by.left), sys_x.initial(bx.left));
                prop_assert_eq!(sys_y.initial(by.right), sys_x.initial(bx.right));
            }
        }
    }

    /// Alternating x/y compaction converges, and the fixpoint is
    /// idempotent under both single-axis sweeps.
    #[test]
    fn compact_xy_converges_and_is_idempotent(boxes in arb_boxes()) {
        let rules = Technology::mead_conway(2).rules.clone();
        // Infeasible soups (rule-violating rigid groups) are vacuous here.
        if let Ok(out) = engine::compact_xy(&boxes, &rules, &BellmanFord::SORTED, 16) {
            prop_assert!(out.converged, "no fixpoint in 16 passes");
            for axis in Axis::BOTH {
                let again =
                    engine::compact_axis(&out.boxes, &rules, axis, &BellmanFord::SORTED)
                        .unwrap();
                prop_assert_eq!(&again, &out.boxes, "{} sweep moved a fixpoint", axis);
            }
            // Running compact_xy again terminates immediately.
            let again =
                engine::compact_xy(&out.boxes, &rules, &BellmanFord::SORTED, 16).unwrap();
            prop_assert_eq!(again.passes, 0);
            prop_assert_eq!(again.boxes, out.boxes);
        }
    }

    /// The fixpoint never grows either extent.
    #[test]
    fn compact_xy_never_expands(boxes in arb_boxes()) {
        let rules = Technology::mead_conway(2).rules.clone();
        if let Ok(out) = engine::compact_xy(&boxes, &rules, &BellmanFord::SORTED, 16) {
            let extent = |bs: &[(Layer, Rect)], axis: Axis| {
                let bb: rsg_geom::BoundingBox = bs.iter().map(|&(_, r)| r).collect();
                bb.extent_along(axis)
            };
            for axis in Axis::BOTH {
                prop_assert!(extent(&out.boxes, axis) <= extent(&boxes, axis));
            }
        }
    }
}
