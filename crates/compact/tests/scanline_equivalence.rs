//! Equivalence proptests for the index-backed visibility scan.
//!
//! The hidden-edge test of `scanline::generate` now answers coverage
//! queries from a `GeomIndex` coverage profile instead of rescanning
//! every box and re-decomposing the gap region per candidate pair. The
//! reference below is a faithful re-implementation of the retired
//! per-pair path (the seed's `hidden_between`/`region_covered`); the
//! properties prove both produce the *identical* constraint system —
//! same constraints in the same order, same variables, both axes — on
//! random box soups including zero-area and touching boxes.
//!
//! Generation runs with [`Prune::Keep`]: the reference predates the
//! transitive-reduction prune, so these tests pin the *full* emission.
//! `tests/prune_equivalence.rs` proves the pruned system solves to the
//! same geometry.

use proptest::prelude::*;
use rsg_compact::scanline::{generate, BoxVars, Method, Prune};
use rsg_compact::ConstraintSystem;
use rsg_geom::{Axis, Point, Rect};
use rsg_layout::{DesignRules, Layer, Technology};

// ---- the retired reference implementation ---------------------------

fn reference_generate(
    boxes: &[(Layer, Rect)],
    rules: &DesignRules,
    axis: Axis,
) -> (ConstraintSystem, Vec<BoxVars>) {
    let mut sys = ConstraintSystem::new_along(axis);
    let vars: Vec<BoxVars> = boxes
        .iter()
        .map(|(_, r)| BoxVars {
            left: sys.add_var(r.lo_along(axis)),
            right: sys.add_var(r.hi_along(axis)),
        })
        .collect();

    // Width preservation.
    for ((_, r), bv) in boxes.iter().zip(&vars) {
        sys.require_exact(bv.left, bv.right, r.extent_along(axis));
    }

    // Connectivity.
    for i in 0..boxes.len() {
        for j in 0..boxes.len() {
            if i == j {
                continue;
            }
            let (la, ra) = boxes[i];
            let (lb, rb) = boxes[j];
            if la != lb || ra.intersect(rb).is_none() || ra.lo_along(axis) > rb.lo_along(axis) {
                continue;
            }
            sys.require_exact(
                vars[i].left,
                vars[j].left,
                rb.lo_along(axis) - ra.lo_along(axis),
            );
        }
    }

    // Spacing with the per-pair hidden-edge rescan.
    for i in 0..boxes.len() {
        for j in 0..boxes.len() {
            if i == j {
                continue;
            }
            let (layer_a, ra) = boxes[i];
            let (layer_b, rb) = boxes[j];
            let Some(spacing) = rules.min_spacing(layer_a, layer_b) else {
                continue;
            };
            if ra.hi_along(axis) > rb.lo_along(axis) {
                continue;
            }
            if ra.lo_across(axis) >= rb.hi_across(axis) || rb.lo_across(axis) >= ra.hi_across(axis)
            {
                continue;
            }
            if layer_a == layer_b && ra.intersect(rb).is_some() {
                continue;
            }
            if reference_hidden_between(boxes, i, j, axis) {
                continue;
            }
            sys.require(vars[i].right, vars[j].left, spacing);
        }
    }
    (sys, vars)
}

fn reference_hidden_between(boxes: &[(Layer, Rect)], i: usize, j: usize, axis: Axis) -> bool {
    let (layer_i, ra) = boxes[i];
    let (layer_j, rb) = boxes[j];
    let c0 = ra.lo_across(axis).max(rb.lo_across(axis));
    let c1 = ra.hi_across(axis).min(rb.hi_across(axis));
    let a0 = ra.hi_along(axis);
    let a1 = rb.lo_along(axis);
    if a0 >= a1 || c0 >= c1 {
        return false;
    }
    let region = Rect::from_spans(axis, (a0, a1), (c0, c1));
    let covers: Vec<Rect> = boxes
        .iter()
        .enumerate()
        .filter(|&(k, &(l, _))| k != i && k != j && (l == layer_i || l == layer_j))
        .filter_map(|(_, &(_, r))| r.intersect(region))
        .filter(|r| r.area() > 0)
        .collect();
    region_covered(region, &covers, axis)
}

fn region_covered(region: Rect, rects: &[Rect], axis: Axis) -> bool {
    let mut cuts: Vec<i64> = rects
        .iter()
        .flat_map(|r| [r.lo_along(axis), r.hi_along(axis)])
        .collect();
    cuts.push(region.lo_along(axis));
    cuts.push(region.hi_along(axis));
    cuts.retain(|&a| a >= region.lo_along(axis) && a <= region.hi_along(axis));
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (s0, s1) = (w[0], w[1]);
        if s0 >= s1 {
            continue;
        }
        let mut ivs: Vec<(i64, i64)> = rects
            .iter()
            .filter(|r| r.lo_along(axis) <= s0 && r.hi_along(axis) >= s1)
            .map(|r| (r.lo_across(axis), r.hi_across(axis)))
            .collect();
        ivs.sort_unstable();
        let mut covered_to = region.lo_across(axis);
        for (lo, hi) in ivs {
            if lo > covered_to {
                return false;
            }
            covered_to = covered_to.max(hi);
        }
        if covered_to < region.hi_across(axis) {
            return false;
        }
    }
    true
}

// ---- the properties --------------------------------------------------

/// Dense soups on a fine grid: zero-extent boxes allowed, heavy overlap
/// and abutment so hidden, partially hidden, and touching pairs all
/// occur (the configurations of Figs 6.4–6.6).
fn arb_boxes() -> impl Strategy<Value = Vec<(Layer, Rect)>> {
    proptest::collection::vec((0i64..24, 0i64..24, 0i64..10, 0i64..10, 0usize..3), 1..18).prop_map(
        |seeds| {
            let layers = [Layer::Poly, Layer::Diffusion, Layer::Metal1];
            seeds
                .into_iter()
                .map(|(x, y, w, h, l)| (layers[l], Rect::from_origin_size(Point::new(x, y), w, h)))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Visibility generation is constraint-for-constraint identical to
    /// the retired per-pair rescan, on both sweep axes.
    #[test]
    fn visibility_scan_equals_reference(boxes in arb_boxes()) {
        let rules = Technology::mead_conway(2).rules.clone();
        for axis in Axis::BOTH {
            let (new_sys, new_vars) = generate(
                &boxes,
                &rules,
                Method::Visibility,
                axis,
                Prune::Keep,
            );
            let (ref_sys, ref_vars) = reference_generate(&boxes, &rules, axis);
            prop_assert_eq!(new_sys.constraints(), ref_sys.constraints(), "{}", axis);
            prop_assert_eq!(new_vars, ref_vars);
            prop_assert_eq!(new_sys.num_vars(), ref_sys.num_vars());
        }
    }
}

/// Directed cases: the exact hidden-edge figures of the paper plus the
/// degenerate shapes (abutting gap, zero-width masking sliver).
#[test]
fn directed_hidden_edge_cases() {
    let rules = Technology::mead_conway(2).rules.clone();
    let cases: Vec<Vec<(Layer, Rect)>> = vec![
        // Fig 6.4: fully masked gap — hidden.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Poly, Rect::from_coords(4, 0, 20, 10)),
            (Layer::Poly, Rect::from_coords(20, 0, 24, 10)),
        ],
        // Fig 6.6: partial mask — still visible.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(4, 0, 30, 8)),
            (Layer::Poly, Rect::from_coords(30, 0, 34, 20)),
        ],
        // Mask made of two stacked boxes covering the across range.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Poly, Rect::from_coords(4, 0, 20, 5)),
            (Layer::Poly, Rect::from_coords(4, 5, 20, 10)),
            (Layer::Poly, Rect::from_coords(20, 0, 24, 10)),
        ],
        // Mask with an interior seam gap — visible through the seam.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Poly, Rect::from_coords(4, 0, 20, 4)),
            (Layer::Poly, Rect::from_coords(4, 6, 20, 10)),
            (Layer::Poly, Rect::from_coords(20, 0, 24, 10)),
        ],
        // Zero-width sliver in the gap: no masking power.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Poly, Rect::from_coords(10, 0, 10, 10)),
            (Layer::Poly, Rect::from_coords(20, 0, 24, 10)),
        ],
        // Abutting pair (empty gap) on different layers.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Diffusion, Rect::from_coords(4, 0, 10, 10)),
        ],
        // Other-layer material never hides a pair.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Metal1, Rect::from_coords(4, 0, 20, 10)),
            (Layer::Poly, Rect::from_coords(20, 0, 24, 10)),
        ],
    ];
    for (k, boxes) in cases.iter().enumerate() {
        for axis in Axis::BOTH {
            let (new_sys, _) = generate(boxes, &rules, Method::Visibility, axis, Prune::Keep);
            let (ref_sys, _) = reference_generate(boxes, &rules, axis);
            assert_eq!(
                new_sys.constraints(),
                ref_sys.constraints(),
                "case {k}, axis {axis}"
            );
        }
    }
}
