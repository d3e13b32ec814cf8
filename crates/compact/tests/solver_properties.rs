//! Property tests for the compaction stack: solver soundness/minimality,
//! balanced-mode feasibility, and scanline/DRC agreement.

use proptest::prelude::*;
use rsg_compact::scanline::{generate, Method, Prune};
use rsg_compact::solver::{solve, solve_balanced, EdgeOrder};
use rsg_compact::ConstraintSystem;
use rsg_geom::{Axis, Point, Rect};
use rsg_layout::{drc, Layer, Technology};

/// Random feasible difference-constraint systems: chains plus random
/// forward extra edges (forward edges can never create positive cycles).
fn arb_system() -> impl Strategy<Value = ConstraintSystem> {
    (
        2usize..40,
        proptest::collection::vec((0usize..40, 0usize..40, 0i64..20), 0..60),
    )
        .prop_map(|(n, extras)| {
            let mut s = ConstraintSystem::new();
            let vars: Vec<_> = (0..n).map(|k| s.add_var(k as i64 * 7)).collect();
            for w in vars.windows(2) {
                s.require(w[0], w[1], 3);
            }
            for (a, b, w) in extras {
                let (a, b) = (a % n, b % n);
                if a < b {
                    s.require(vars[a], vars[b], w);
                }
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The solution satisfies every constraint and is minimal: each
    /// variable is either 0 or tight against some constraint.
    #[test]
    fn solve_is_sound_and_minimal(sys in arb_system()) {
        let sol = solve(&sys, EdgeOrder::Sorted).unwrap();
        let pos = sol.positions();
        prop_assert!(sys.violations(pos, &[]).is_empty());
        for (v, &x) in pos.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let tight = sys.constraints().iter().any(|c| {
                c.to.index() == v && pos[c.to.index()] - pos[c.from.index()] == c.weight
            });
            prop_assert!(tight, "var {v} at {x} is not tight and not at 0");
        }
    }

    /// Edge order never changes the answer, only the pass count.
    #[test]
    fn order_invariance(sys in arb_system()) {
        let a = solve(&sys, EdgeOrder::Sorted).unwrap();
        let b = solve(&sys, EdgeOrder::Arbitrary).unwrap();
        prop_assert_eq!(a.positions(), b.positions());
    }

    /// Balanced solutions are feasible and never exceed the left-packed
    /// total extent.
    #[test]
    fn balanced_is_feasible(sys in arb_system()) {
        let left = solve(&sys, EdgeOrder::Sorted).unwrap();
        let bal = solve_balanced(&sys).unwrap();
        prop_assert!(sys.violations(bal.positions(), &[]).is_empty());
        let left_max = left.positions().iter().copied().max().unwrap();
        let bal_max = bal.positions().iter().copied().max().unwrap();
        prop_assert!(bal_max <= left_max);
    }

    /// Scanline + solve on random disjoint boxes always yields a layout
    /// the independent DRC accepts.
    #[test]
    fn compaction_output_is_drc_clean(
        seeds in proptest::collection::vec((0i64..20, 0i64..6, 1i64..8, 1i64..10, 0usize..3), 1..12)
    ) {
        // Build well-separated boxes on interacting layers (disjoint rows
        // and columns so the input itself is clean).
        let layers = [Layer::Poly, Layer::Diffusion, Layer::Metal1];
        let boxes: Vec<(Layer, Rect)> = seeds
            .iter()
            .enumerate()
            .map(|(k, &(_x, row, w, h, l))| {
                let lo = Point::new(k as i64 * 40, row * 40);
                (layers[l], Rect::from_origin_size(lo, w + 2, h + 2))
            })
            .collect();
        let tech = Technology::mead_conway(1);
        let (sys, vars) = generate(&boxes, &tech.rules, Method::Visibility, Axis::X, Prune::Apply);
        let sol = solve(&sys, EdgeOrder::Sorted).unwrap();
        let compacted: Vec<(Layer, Rect)> = boxes
            .iter()
            .zip(&vars)
            .map(|(&(l, r), bv)| {
                (
                    l,
                    Rect::from_coords(
                        sol.position(bv.left),
                        r.lo().y,
                        sol.position(bv.right),
                        r.hi().y,
                    ),
                )
            })
            .collect();
        let violations = drc::check(&compacted, &tech.rules);
        // Width rules may pre-exist in the random input (we preserve
        // widths); only spacing must be clean after compaction.
        let spacing: Vec<_> = violations
            .iter()
            .filter(|v| matches!(v, drc::Violation::Spacing { .. }))
            .collect();
        prop_assert!(spacing.is_empty(), "{spacing:?}");
    }

    /// Compaction never grows the layout.
    #[test]
    fn compaction_never_expands(
        xs in proptest::collection::vec(0i64..500, 2..10)
    ) {
        let boxes: Vec<(Layer, Rect)> = xs
            .iter()
            .map(|&x| (Layer::Metal1, Rect::from_origin_size(Point::new(x * 3, 0), 6, 6)))
            .collect();
        let tech = Technology::mead_conway(2);
        let (sys, vars) = generate(&boxes, &tech.rules, Method::Visibility, Axis::X, Prune::Apply);
        let sol = solve(&sys, EdgeOrder::Sorted).unwrap();
        let orig_extent = boxes.iter().map(|(_, r)| r.hi().x).max().unwrap()
            - boxes.iter().map(|(_, r)| r.lo().x).min().unwrap();
        let new_extent = vars.iter().map(|v| sol.position(v.right)).max().unwrap()
            - vars.iter().map(|v| sol.position(v.left)).min().unwrap();
        prop_assert!(new_extent <= orig_extent, "{new_extent} > {orig_extent}");
    }
}
