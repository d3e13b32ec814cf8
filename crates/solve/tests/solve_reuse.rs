//! Positions are a function of the constraints alone.
//!
//! The hierarchical compactor keeps each axis's last solve and hands it
//! back when a sweep emits the same constraints again, although the new
//! sweep starts from other initial coordinates. That is exact only if no
//! backend lets the initial values reach the positions: they may steer
//! the sorted relaxation order, and with it pass counts and which of two
//! parallel edges the CSR build elects, but nothing else.
//!
//! This proptest builds random feasible difference systems — spacing
//! edges forward and backward, welds (exact nonzero offsets), pins
//! (exact zero offsets) and re-weightable slots — twice, under two
//! different initial-value vectors, and solves both through every
//! backend: once as built, and once more after re-weighting the slots in
//! place, as the pitch fixpoint does. Every backend must return the same
//! positions for both vectors, and the four least-solution backends must
//! agree with each other.

use proptest::prelude::*;
use rsg_solve::backend::{Balanced, BellmanFord, SimplexPitch, Solver, Topological};
use rsg_solve::ConstraintSystem;

/// One random system, kept as data so it can be built under any
/// initial-value vector. A hidden witness placement satisfies every
/// constraint, so the system is feasible.
#[derive(Debug, Clone)]
struct Spec {
    /// The witness: a non-decreasing placement (zero steps allow pins).
    witness: Vec<i64>,
    /// `to − from ≥ w` edges, each `w` at most the witness gap.
    spacing: Vec<(usize, usize, i64)>,
    /// Exact offsets: the witness gap, nonzero for welds, zero for pins.
    exact: Vec<(usize, usize)>,
    /// Re-weightable slots: first and second weight, both at most the
    /// witness gap.
    slots: Vec<(usize, usize, i64, i64)>,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (
        2usize..18,
        proptest::collection::vec(0i64..9, 18..19),
        proptest::collection::vec((0usize..18, 0usize..18, 0i64..12), 0..40),
        proptest::collection::vec((0usize..18, 0usize..18), 0..5),
        proptest::collection::vec((0usize..18, 0usize..18, 0i64..12, 0i64..12), 0..6),
    )
        .prop_map(|(n, steps, spacing, exact, slots)| {
            let mut witness = Vec::with_capacity(n);
            let mut x = 0;
            for &s in &steps[..n] {
                witness.push(x);
                x += s;
            }
            let gap = |a: usize, b: usize| witness[b] - witness[a];
            let spacing = spacing
                .into_iter()
                .map(|(a, b, slack)| (a % n, b % n, gap(a % n, b % n) - slack))
                .collect();
            let exact = exact.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            let slots = slots
                .into_iter()
                .map(|(a, b, s0, s1)| {
                    let (a, b) = (a % n, b % n);
                    (a, b, gap(a, b) - s0, gap(a, b) - s1)
                })
                .collect();
            Spec {
                witness,
                spacing,
                exact,
                slots,
            }
        })
}

/// `spec` as a system whose variables start at `initial`, with the slot
/// indices for re-weighting.
fn build(spec: &Spec, initial: &[i64]) -> (ConstraintSystem, Vec<usize>) {
    let mut sys = ConstraintSystem::new();
    let vars: Vec<_> = initial.iter().map(|&x| sys.add_var(x)).collect();
    for &(a, b, w) in &spec.spacing {
        sys.require(vars[a], vars[b], w);
    }
    for &(a, b) in &spec.exact {
        sys.require_exact(vars[a], vars[b], spec.witness[b] - spec.witness[a]);
    }
    let slots = spec
        .slots
        .iter()
        .map(|&(a, b, w, _)| sys.require_slot(vars[a], vars[b], w))
        .collect();
    (sys, slots)
}

/// Positions before and after re-weighting the slots in place.
fn solve_twice(solver: &dyn Solver, spec: &Spec, initial: &[i64]) -> (Vec<i64>, Vec<i64>) {
    let (mut sys, slots) = build(spec, initial);
    let first = solver.solve_system(&sys, &[]).unwrap().positions;
    for (&slot, &(_, _, _, w)) in slots.iter().zip(&spec.slots) {
        sys.set_weight(slot, w);
    }
    let second = solver.solve_system(&sys, &[]).unwrap().positions;
    (first, second)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two initial-value vectors — the witness order and an unrelated
    /// one — give identical positions through every backend, before and
    /// after the slots are re-weighted.
    #[test]
    fn positions_ignore_the_initial_values(
        spec in arb_spec(),
        scramble in proptest::collection::vec(-50i64..50, 18..19),
    ) {
        let n = spec.witness.len();
        let backends: [&dyn Solver; 5] = [
            &BellmanFord::SORTED,
            &BellmanFord::ARBITRARY,
            &Topological,
            &Balanced,
            &SimplexPitch,
        ];
        let mut least = None;
        for solver in backends {
            let seeded = solve_twice(solver, &spec, &spec.witness);
            let scrambled = solve_twice(solver, &spec, &scramble[..n]);
            prop_assert_eq!(&seeded, &scrambled, "{}", solver.name());
            if solver.name() != Balanced.name() {
                match &least {
                    None => least = Some(seeded),
                    Some(l) => prop_assert_eq!(l, &seeded, "{}", solver.name()),
                }
            }
        }
    }
}
