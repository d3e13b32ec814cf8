//! Longest-path constraint solving (§6.4.2): sorted-edge Bellman-Ford,
//! a one-pass topological solver for acyclic systems, and the
//! jog-avoiding balanced mode (Fig 6.8).
//!
//! "The Bellman Ford assigns to each vertex the lowest possible abscissa
//! subject to the constraints. The algorithm proved to be extremely fast,
//! especially if the edges are traversed in sorted (according to their
//! abscissa) order ... In the case where the initial ordering is preserved
//! in the final layout exactly one relaxation step is required instead of
//! the |E| required in the worst case."
//!
//! All procedures compute the same *least* solution (every variable at
//! its lowest feasible coordinate, all variables ≥ 0); they differ only
//! in cost:
//!
//! * [`solve`] — relaxation from zero, in either [`EdgeOrder`]; the
//!   sorted order comes precomputed from the shared
//!   [`crate::ConstraintGraph`] instead of a per-call sort,
//! * [`solve_topo`] — one O(V+E) pass in topological order when the
//!   graph is acyclic (`require_exact` pairs and folded interfaces make
//!   it cyclic; callers fall back to [`solve`]),
//! * [`solve_balanced`] — "rubber bands instead of ... a large magnet on
//!   the left": slack distributed on both sides (Fig 6.8).
//!
//! Every procedure relaxes from zero. With sorted edges a layout whose
//! ordering survives compaction settles in about two passes, which
//! leaves a seeded start nothing measurable to save (DESIGN.md, E18).
//! The solvers report relaxation passes so experiments E12/E18 can
//! regenerate the paper's pass-count claims.

use crate::{Constraint, ConstraintSystem, VarId};

/// Result of solving a (pitch-free) constraint system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    positions: Vec<i64>,
    /// Relaxation passes needed to reach the fixpoint (including the
    /// final pass that verified stability; 1 for the topological
    /// solver's single sweep).
    pub passes: usize,
}

impl Solution {
    /// The solved abscissa of an edge variable.
    pub fn position(&self, v: VarId) -> i64 {
        self.positions[v.0]
    }

    /// All positions, indexed by variable — borrowing; the hot-path
    /// accessor.
    pub fn positions(&self) -> &[i64] {
        &self.positions
    }

    /// Consumes the solution, returning the position vector without a
    /// copy.
    pub fn into_positions(self) -> Vec<i64> {
        self.positions
    }

    /// Extent of the solution: `max(position) − min(position)`.
    pub fn extent(&self) -> i64 {
        let max = self.positions.iter().copied().max().unwrap_or(0);
        let min = self.positions.iter().copied().min().unwrap_or(0);
        max - min
    }

    /// Per-constraint slack under this solution (pitch-free systems).
    pub fn slacks(&self, sys: &ConstraintSystem) -> Vec<i64> {
        sys.slacks(&self.positions, &[])
    }

    /// The chain of tight constraints pinning `v` — see
    /// [`ConstraintSystem::critical_path`]. For a least solution the
    /// chain's weights sum to `position(v)`.
    pub fn critical_path(&self, sys: &ConstraintSystem, v: VarId) -> Vec<Constraint> {
        sys.critical_path(&self.positions, &[], v)
    }
}

/// Edge processing order for the relaxation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOrder {
    /// Constraints in insertion (arbitrary) order — the worst case the
    /// paper contrasts against its preliminary sort.
    Arbitrary,
    /// Constraints sorted by the initial abscissa of their `from`
    /// variable — the paper's preliminary sort, precomputed on the
    /// shared constraint graph.
    Sorted,
}

/// Infeasibility error: the constraint graph has a positive cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Infeasible {
    /// How many passes ran before divergence was declared.
    pub passes: usize,
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "constraint system infeasible (positive cycle) after {} passes",
            self.passes
        )
    }
}

impl std::error::Error for Infeasible {}

/// Why a longest-path solve could not produce a solution. Every failure
/// is typed — the solvers never panic, whatever system they are handed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveFault {
    /// The constraint graph has a positive cycle.
    Infeasible(Infeasible),
    /// An intermediate position sum left the `i64` range. Unreachable
    /// for layouts within the [`rsg_geom::MAX_COORD`] ingest budget (see
    /// its overflow-freedom argument); adversarial systems built
    /// directly against this API land here instead of wrapping.
    Overflow {
        /// Which procedure overflowed.
        at: &'static str,
    },
    /// The system cannot be handled by this procedure as shaped: pitch
    /// terms (those need the LP) or a constraint referencing a variable
    /// of a different system.
    Shape(String),
}

impl std::fmt::Display for SolveFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveFault::Infeasible(e) => write!(f, "{e}"),
            SolveFault::Overflow { at } => {
                write!(f, "position arithmetic overflowed i64 in {at}")
            }
            SolveFault::Shape(m) => write!(f, "malformed solve request: {m}"),
        }
    }
}

impl std::error::Error for SolveFault {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveFault::Infeasible(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Infeasible> for SolveFault {
    fn from(e: Infeasible) -> SolveFault {
        SolveFault::Infeasible(e)
    }
}

/// Validates that every constraint references variables of this system
/// and that no pitch terms are present — the shape the longest-path
/// procedures require. Checked up front so the relaxation loops can
/// index without a panic path.
fn check_shape(sys: &ConstraintSystem) -> Result<(), SolveFault> {
    if sys.has_pitch_terms() {
        return Err(SolveFault::Shape(
            "pitch terms require the LP solver".into(),
        ));
    }
    let n = sys.num_vars();
    for c in sys.constraints() {
        if c.from.index() >= n || c.to.index() >= n {
            return Err(SolveFault::Shape(format!(
                "constraint references variable #{} but the system has {n}",
                c.from.index().max(c.to.index())
            )));
        }
    }
    Ok(())
}

/// One relaxation loop over `x` to its fixpoint; returns the pass count
/// (including the verification pass), [`SolveFault::Infeasible`] on
/// divergence, or [`SolveFault::Overflow`] if a position sum leaves
/// `i64` (impossible within the ingest budget).
fn relax(sys: &ConstraintSystem, order: EdgeOrder, x: &mut [i64]) -> Result<usize, SolveFault> {
    let n = sys.num_vars();
    let constraints = sys.constraints();
    let mut passes = 0usize;
    loop {
        passes += 1;
        let mut changed = false;
        let mut overflowed = false;
        let mut step = |c: &Constraint| {
            let Some(need) = x[c.from.0].checked_add(c.weight) else {
                overflowed = true;
                return;
            };
            if x[c.to.0] < need {
                x[c.to.0] = need;
                changed = true;
            }
        };
        match order {
            EdgeOrder::Sorted => {
                for &k in sys.graph().sorted_order() {
                    step(&constraints[k as usize]);
                }
            }
            EdgeOrder::Arbitrary => {
                for c in constraints {
                    step(c);
                }
            }
        }
        if overflowed {
            return Err(SolveFault::Overflow { at: "relax" });
        }
        if !changed {
            return Ok(passes);
        }
        if passes > n + 1 {
            return Err(SolveFault::Infeasible(Infeasible { passes }));
        }
    }
}

/// Solves for the leftmost feasible positions with all variables ≥ 0.
///
/// # Errors
///
/// Returns [`SolveFault::Infeasible`] when the constraints contain a
/// positive cycle, [`SolveFault::Shape`] when the system carries pitch
/// terms (those need [`crate::simplex`]) or references foreign
/// variables, and [`SolveFault::Overflow`] if position sums leave `i64`.
pub fn solve(sys: &ConstraintSystem, order: EdgeOrder) -> Result<Solution, SolveFault> {
    check_shape(sys)?;
    let mut x = vec![0i64; sys.num_vars()];
    let passes = relax(sys, order, &mut x)?;
    Ok(Solution {
        positions: x,
        passes,
    })
}

/// One-pass longest path in topological order — O(V + E), no relaxation
/// loop. Returns `None` when the procedure declines the system: a cyclic
/// constraint graph (`require_exact` pairs, folded interfaces), pitch
/// terms, foreign variable references, or a position sum that would
/// overflow; callers then fall back to [`solve`], which reports the
/// non-cycle cases as typed faults. Acyclic difference-constraint
/// systems are always feasible, so no `Infeasible` case exists here.
pub fn solve_topo(sys: &ConstraintSystem) -> Option<Solution> {
    check_shape(sys).ok()?;
    let graph = sys.graph();
    let order = graph.topo_order()?;
    let mut x = vec![0i64; sys.num_vars()];
    for &v in order {
        let mut best = 0i64;
        for e in graph.incoming(v) {
            best = best.max(x[e.other.index()].checked_add(e.weight)?);
        }
        x[v.index()] = best;
    }
    Some(Solution {
        positions: x,
        passes: 1,
    })
}

/// The rubber-band solve: every variable sits midway between its earliest
/// (left-packed) and latest (right-packed, at the same total extent)
/// feasible position, then a repair sweep restores exact feasibility.
///
/// Left-packing Fig 6.8's layout tears a jog into a straight wire; the
/// balanced solution keeps slack distributed on both sides.
///
/// # Errors
///
/// Returns [`SolveFault::Infeasible`] on positive cycles, plus the
/// shape/overflow faults of [`solve`].
pub fn solve_balanced(sys: &ConstraintSystem) -> Result<Solution, SolveFault> {
    let earliest = solve(sys, EdgeOrder::Sorted)?;
    let n = sys.num_vars();
    let width = earliest.positions.iter().copied().max().unwrap_or(0);

    // Latest positions: longest path on the reversed graph from the right
    // boundary. latest[v] = width − dist_rev[v].
    let mut dist = vec![0i64; n];
    let mut passes = 0usize;
    loop {
        passes += 1;
        let mut changed = false;
        for c in sys.constraints() {
            // x_to − x_from ≥ w reversed: dist_from ≥ dist_to + w.
            let Some(need) = dist[c.to.0].checked_add(c.weight) else {
                return Err(SolveFault::Overflow {
                    at: "solve_balanced",
                });
            };
            if dist[c.from.0] < need {
                dist[c.from.0] = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if passes > n + 1 {
            return Err(SolveFault::Infeasible(Infeasible { passes }));
        }
    }
    // Midpoint (floor), then a monotone repair pass for rounding slips.
    // Saturating: the midpoint is only a seed — the repair relaxation
    // restores exact feasibility (or reports a typed fault).
    let mut x: Vec<i64> = (0..n)
        .map(|v| {
            let e = earliest.positions[v];
            let l = width - dist[v];
            e.saturating_add(l.saturating_sub(e).div_euclid(2))
        })
        .collect();
    let repair_passes = relax(sys, EdgeOrder::Arbitrary, &mut x)?;
    Ok(Solution {
        positions: x,
        passes: earliest.passes + passes + repair_passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintSystem;

    #[test]
    fn simple_chain() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(50);
        let c = s.add_var(90);
        s.require(a, b, 10);
        s.require(b, c, 7);
        let sol = solve(&s, EdgeOrder::Sorted).unwrap();
        assert_eq!(sol.position(a), 0);
        assert_eq!(sol.position(b), 10);
        assert_eq!(sol.position(c), 17);
        assert_eq!(sol.extent(), 17);
    }

    #[test]
    fn sorted_order_converges_in_two_passes_on_preserved_order() {
        // The paper's claim: when initial ordering survives, one
        // relaxation pass suffices (plus the verification pass).
        let mut s = ConstraintSystem::new();
        let vars: Vec<_> = (0..100).map(|k| s.add_var(k * 10)).collect();
        for w in vars.windows(2) {
            s.require(w[0], w[1], 3);
        }
        let sorted = solve(&s, EdgeOrder::Sorted).unwrap();
        assert_eq!(sorted.passes, 2, "1 relaxation + 1 verification");

        // Same system with constraints inserted back-to-front: unsorted
        // processing needs ~|V| passes.
        let mut s2 = ConstraintSystem::new();
        let vars2: Vec<_> = (0..100).map(|k| s2.add_var(k * 10)).collect();
        for k in (1..100).rev() {
            s2.require(vars2[k - 1], vars2[k], 3);
        }
        let unsorted = solve(&s2, EdgeOrder::Arbitrary).unwrap();
        let sorted2 = solve(&s2, EdgeOrder::Sorted).unwrap();
        assert_eq!(sorted2.passes, 2);
        assert!(unsorted.passes > 50, "got {}", unsorted.passes);
        // Same positions either way.
        assert_eq!(unsorted.positions(), sorted2.positions());
    }

    #[test]
    fn infeasible_positive_cycle() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(0);
        s.require(a, b, 5);
        s.require(b, a, -4); // b − a ≥ 5 and a − b ≥ −4 → a ≤ b − 5, a ≥ b − 4: contradiction
        let err = solve(&s, EdgeOrder::Sorted).unwrap_err();
        assert!(err.to_string().contains("infeasible"));
    }

    #[test]
    fn equality_cycles_are_fine() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(0);
        s.require_exact(a, b, 12);
        let sol = solve(&s, EdgeOrder::Sorted).unwrap();
        assert_eq!(sol.position(b) - sol.position(a), 12);
    }

    #[test]
    fn topo_solver_matches_bellman_ford_on_a_dag() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        let c = s.add_var(5);
        let d = s.add_var(30);
        s.require(a, b, 4);
        s.require(a, c, 9);
        s.require(c, b, 1);
        s.require(b, d, 2);
        s.require(c, d, 20);
        let topo = solve_topo(&s).expect("acyclic");
        let bf = solve(&s, EdgeOrder::Sorted).unwrap();
        assert_eq!(topo.positions(), bf.positions());
        assert_eq!(topo.passes, 1);
    }

    #[test]
    fn topo_solver_declines_cycles() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(0);
        s.require_exact(a, b, 12);
        assert!(solve_topo(&s).is_none(), "exact pair is a two-cycle");
        assert!(!s.graph().is_acyclic());
    }

    #[test]
    fn vacuous_self_loops_do_not_block_the_topo_solver() {
        // The leaf compactor's pitch-floor constraints reduce to
        // `x_v − x_v ≥ w` with w ≤ 0 once the pitch is fixed; they bind
        // nothing and must not force the Bellman-Ford fallback.
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        s.require(a, b, 4);
        s.require(a, a, -6);
        let topo = solve_topo(&s).expect("self-loop with w ≤ 0 is vacuous");
        assert_eq!(
            topo.positions(),
            solve(&s, EdgeOrder::Sorted).unwrap().positions()
        );
    }

    #[test]
    fn critical_path_weights_sum_to_the_position() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(50);
        let c = s.add_var(90);
        s.require(a, b, 10);
        s.require(b, c, 7);
        s.require(a, c, 5); // slack at the solution — not on the path
        let sol = solve(&s, EdgeOrder::Sorted).unwrap();
        let chain = sol.critical_path(&s, c);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.iter().map(|k| k.weight).sum::<i64>(), sol.position(c));
        assert_eq!(chain[0].from, a);
        assert_eq!(chain[1].to, c);
        // Slack vector: the bypass constraint has slack 17 − 5 = 12.
        let slacks = sol.slacks(&s);
        assert_eq!(slacks, vec![0, 0, 12]);
    }

    #[test]
    fn balanced_solution_is_feasible_and_centered() {
        // a fixed chain a→b, and a floater f constrained only to the left
        // wall: left-packing puts f at 0; balanced centers it.
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(100);
        let f = s.add_var(40);
        s.require(a, b, 100);
        s.require(a, f, 0);
        s.require(f, b, 10); // f can sit anywhere in [0, 90]
        let left = solve(&s, EdgeOrder::Sorted).unwrap();
        assert_eq!(left.position(f), 0);
        let bal = solve_balanced(&s).unwrap();
        assert!(s.violations(bal.positions(), &[]).is_empty());
        assert_eq!(bal.position(f), 45, "midpoint of [0, 90]");
        // Total extent unchanged.
        assert_eq!(bal.position(b) - bal.position(a), 100);
    }

    #[test]
    fn balanced_avoids_the_fig_6_8_jog() {
        // Two wire stubs that should stay aligned: stub T (top row) is
        // pinned between obstacles; stub B (bottom row) is free. Pure
        // left-packing yanks B to the wall, creating a jog |x_T − x_B|.
        let mut s = ConstraintSystem::new();
        let wall = s.add_var(0);
        let t = s.add_var(40);
        let b = s.add_var(40);
        let right = s.add_var(100);
        s.require(wall, t, 40); // obstacle holds T at 40
        s.require(t, right, 10);
        s.require(wall, b, 0); // B only needs to clear the wall
        s.require(b, right, 10);
        s.require(wall, right, 100);

        let left = solve(&s, EdgeOrder::Sorted).unwrap();
        let jog_left = (left.position(t) - left.position(b)).abs();
        let bal = solve_balanced(&s).unwrap();
        let jog_bal = (bal.position(t) - bal.position(b)).abs();
        assert_eq!(jog_left, 40);
        assert!(jog_bal < jog_left, "balanced {jog_bal} vs left {jog_left}");
        assert!(s.violations(bal.positions(), &[]).is_empty());
    }

    #[test]
    fn empty_system() {
        let s = ConstraintSystem::new();
        let sol = solve(&s, EdgeOrder::Arbitrary).unwrap();
        assert_eq!(sol.extent(), 0);
        assert_eq!(sol.passes, 1);
        assert!(solve_topo(&s).is_some());
    }
}
