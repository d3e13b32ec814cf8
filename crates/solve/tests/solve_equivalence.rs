//! Equivalence and consistency proptests for the solving subsystem:
//!
//! * the one-pass topological solver ≡ sorted Bellman-Ford on random
//!   acyclic systems (positions bit-for-bit),
//! * arbitrary and sorted edge order solve cyclic systems identically,
//! * reported slack is consistent with `ConstraintSystem::violations`:
//!   slack ≥ 0 for every constraint ⇔ the candidate satisfies the
//!   system, and the negative-slack set is exactly the violation list,
//! * `critical_path` chains telescope: their weights sum to the pinned
//!   variable's position.

use proptest::prelude::*;
use rsg_solve::solver::{solve, solve_topo, EdgeOrder};
use rsg_solve::ConstraintSystem;

/// Random acyclic systems: a spine chain plus random forward edges
/// (forward edges can never create a cycle).
fn arb_acyclic() -> impl Strategy<Value = ConstraintSystem> {
    (
        2usize..40,
        proptest::collection::vec((0usize..40, 0usize..40, -5i64..25), 0..80),
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

/// Random feasible systems that may contain equality cycles — the shape
/// `require_exact` and folded interfaces produce.
fn arb_with_cycles() -> impl Strategy<Value = ConstraintSystem> {
    (
        2usize..30,
        proptest::collection::vec((0usize..30, 0usize..30, 0i64..20), 0..40),
        proptest::collection::vec((0usize..30, 1i64..15), 0..6),
    )
        .prop_map(|(n, extras, exacts)| {
            let mut s = ConstraintSystem::new();
            let vars: Vec<_> = (0..n).map(|k| s.add_var(k as i64 * 7)).collect();
            for w in vars.windows(2) {
                s.require(w[0], w[1], 3);
            }
            for (a, b, w) in extras {
                let (a, b) = (a % n, b % n);
                if a < b {
                    // Clamped so spanning edges never demand more than
                    // exact-pinned segments can provide (every spine
                    // step spans ≥ 3): the system stays feasible.
                    s.require(vars[a], vars[b], w.min(3 * (b - a) as i64));
                }
            }
            let mut pinned = vec![false; n];
            for (a, d) in exacts {
                let a = a % n;
                if a + 1 < n && !pinned[a] {
                    // Pin a spine step to exactly d ≥ 3 — a genuine
                    // two-cycle, the `require_exact` shape. One pin per
                    // step; two different distances would contradict.
                    pinned[a] = true;
                    s.require_exact(vars[a], vars[a + 1], d.max(3));
                }
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The topological solver returns exactly the Bellman-Ford least
    /// solution on every acyclic system, in one pass.
    #[test]
    fn topo_equals_sorted_bellman_ford(sys in arb_acyclic()) {
        let bf = solve(&sys, EdgeOrder::Sorted).unwrap();
        let topo = solve_topo(&sys).expect("spine+forward edges are acyclic");
        prop_assert_eq!(topo.positions(), bf.positions());
        prop_assert_eq!(topo.passes, 1);
    }

    /// Edge order only changes the work: on cyclic systems (exact pins
    /// included) arbitrary-order relaxation lands on the sorted
    /// solution exactly.
    #[test]
    fn edge_order_never_changes_the_solution(sys in arb_with_cycles()) {
        let sorted = solve(&sys, EdgeOrder::Sorted).unwrap();
        let arbitrary = solve(&sys, EdgeOrder::Arbitrary).unwrap();
        prop_assert_eq!(arbitrary.positions(), sorted.positions());
    }

    /// Slack signs agree with the violation list on arbitrary candidate
    /// vectors: slacks[k] < 0 exactly for the violated constraints, and
    /// an all-non-negative slack vector means no violations.
    #[test]
    fn slack_consistent_with_violations(
        sys in arb_with_cycles(),
        candidate in proptest::collection::vec(0i64..300, 30..31),
    ) {
        let pos: Vec<i64> = (0..sys.num_vars())
            .map(|k| candidate[k % candidate.len()])
            .collect();
        let slacks = sys.slacks(&pos, &[]);
        let violations = sys.violations(&pos, &[]);
        let negative: Vec<_> = sys
            .constraints()
            .iter()
            .zip(&slacks)
            .filter(|(_, &s)| s < 0)
            .map(|(c, _)| *c)
            .collect();
        prop_assert_eq!(&negative, &violations);
        prop_assert_eq!(slacks.iter().all(|&s| s >= 0), violations.is_empty());
        // A solved system always has all-non-negative slack.
        let sol = solve(&sys, EdgeOrder::Sorted).unwrap();
        prop_assert!(sol.slacks(&sys).iter().all(|&s| s >= 0));
    }

    /// Critical-path chains telescope: weights sum to the position of
    /// the pinned variable (least solutions ground out at 0).
    #[test]
    fn critical_path_telescopes(sys in arb_with_cycles()) {
        let sol = solve(&sys, EdgeOrder::Sorted).unwrap();
        for v in sys.vars() {
            let chain = sol.critical_path(&sys, v);
            let total: i64 = chain.iter().map(|c| c.weight).sum();
            prop_assert_eq!(total, sol.position(v), "var {:?}", v);
        }
    }
}
