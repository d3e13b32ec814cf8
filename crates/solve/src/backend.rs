//! Pluggable solver backends for the compaction engine.
//!
//! The paper uses two solution procedures: Bellman-Ford longest path when
//! every constraint weight is constant (§6.4.2), and "a linear
//! programming algorithm like Simplex" when pitch variables make the
//! weights symbolic (§6.2). The seed code hard-wired that choice inside
//! the leaf compactor; the [`Solver`] trait turns it into a backend the
//! caller picks, so the leaf compactor and the alternating engine in
//! `rsg-compact` run unchanged over any of:
//!
//! * [`BellmanFord`] — left-packing longest path, in either
//!   [`EdgeOrder`]; the paper's default,
//! * [`Topological`] — the one-pass O(V+E) longest path when the
//!   constraint graph is acyclic, with automatic Bellman-Ford fallback
//!   when `require_exact` pairs or folded interfaces create cycles,
//! * [`Balanced`] — the jog-avoiding "rubber bands, not a large magnet"
//!   mode of Fig 6.8,
//! * [`SimplexPitch`] — the dense LP, useful when the pitch trade-off
//!   itself (not just feasibility) is the object of study.
//!
//! Systems *with* pitch variables always need the LP to choose the
//! pitches; backends differ in how edge positions are refined once the
//! pitches are fixed and the system reduces to difference constraints.

use crate::simplex::{Lp, LpError, Sense};
use crate::solver::{self, EdgeOrder, Infeasible, Solution, SolveFault};
use crate::{Constraint, ConstraintSystem, VarId};

/// A complete solution: integral edge positions and pitch values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Solved coordinate per edge variable, indexed by [`VarId`].
    pub positions: Vec<i64>,
    /// Solved value per pitch variable, indexed by
    /// [`crate::PitchId`] (empty when the system has no pitches).
    pub pitches: Vec<i64>,
    /// Relaxation passes of the final longest-path phase (0 when the
    /// backend did not run one).
    pub passes: usize,
}

impl Outcome {
    /// Per-constraint slack of this outcome against `sys` — zero means
    /// the constraint is tight (binding), negative would mean violated.
    pub fn slacks(&self, sys: &ConstraintSystem) -> Vec<i64> {
        sys.slacks(&self.positions, &self.pitches)
    }

    /// The chain of tight constraints pinning `v` at its solved
    /// position — see [`ConstraintSystem::critical_path`].
    pub fn critical_path(&self, sys: &ConstraintSystem, v: VarId) -> Vec<Constraint> {
        sys.critical_path(&self.positions, &self.pitches, v)
    }
}

/// Backend failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// No assignment satisfies the constraints (positive cycle / empty
    /// LP feasible region).
    Infeasible(String),
    /// Fractional pitches could not be rounded to a feasible integral
    /// assignment.
    Rounding(String),
    /// Position arithmetic left the `i64` range — unreachable for
    /// layouts within the [`rsg_geom::MAX_COORD`] ingest budget, typed
    /// instead of wrapping for systems built outside it.
    Overflow(String),
    /// The request itself was malformed: pitch-weight count mismatch or
    /// constraints referencing variables of a different system.
    Input(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible(m) => write!(f, "constraint system infeasible: {m}"),
            SolveError::Rounding(m) => write!(f, "pitch rounding failed: {m}"),
            SolveError::Overflow(m) => write!(f, "position arithmetic overflowed: {m}"),
            SolveError::Input(m) => write!(f, "malformed solve request: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<Infeasible> for SolveError {
    fn from(e: Infeasible) -> SolveError {
        SolveError::Infeasible(e.to_string())
    }
}

impl From<SolveFault> for SolveError {
    fn from(e: SolveFault) -> SolveError {
        match e {
            SolveFault::Infeasible(i) => SolveError::Infeasible(i.to_string()),
            SolveFault::Overflow { at } => SolveError::Overflow(at.into()),
            SolveFault::Shape(m) => SolveError::Input(m),
        }
    }
}

/// A constraint-system solver the compaction pipeline can be run over.
///
/// `pitch_weights` supplies the §6.2 cost weights (one per pitch
/// variable, the expected replication factor `nᵢ` of `X ≈ Σ nᵢλᵢ`); it
/// must have length [`ConstraintSystem::num_pitches`].
///
/// # Example
///
/// ```
/// use rsg_solve::backend::{BellmanFord, Balanced, Topological, Solver};
/// use rsg_solve::ConstraintSystem;
///
/// let mut sys = ConstraintSystem::new();
/// let a = sys.add_var(0);
/// let b = sys.add_var(50);
/// sys.require(a, b, 10); // b − a ≥ 10
///
/// // Any backend can solve the same system.
/// for backend in [&BellmanFord::SORTED as &dyn Solver, &Balanced, &Topological] {
///     let out = backend.solve_system(&sys, &[]).unwrap();
///     assert!(out.positions[b.index()] - out.positions[a.index()] >= 10);
/// }
/// ```
pub trait Solver: Sync {
    /// Short backend name, for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Solves the system for integral positions (and pitches, if any).
    ///
    /// The positions are a function of the constraints alone, never of
    /// the variables' initial values: two systems with equal constraints
    /// get equal positions, so a caller may keep a solve and hand it back
    /// for an equal system. Every backend here keeps this contract:
    ///
    /// * the least solution ([`BellmanFord`], [`Topological`], the
    ///   refinement of [`SimplexPitch`]) is unique;
    /// * [`Balanced`] is built from the earliest solution, a reversed
    ///   longest path, and a repair relaxation to the least solution
    ///   above that seed;
    /// * initial values steer only the sorted relaxation order, which
    ///   changes pass counts and which parallel edge the graph elects,
    ///   never positions.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] when the system is infeasible or pitch
    /// rounding fails.
    fn solve_system(
        &self,
        sys: &ConstraintSystem,
        pitch_weights: &[i64],
    ) -> Result<Outcome, SolveError>;
}

/// The paper's longest-path solver: every variable at its lowest
/// feasible coordinate (left-packed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BellmanFord {
    /// Relaxation order of the constraint edges.
    pub order: EdgeOrder,
}

impl BellmanFord {
    /// Sorted edges — the paper's preliminary-sort optimization.
    pub const SORTED: BellmanFord = BellmanFord {
        order: EdgeOrder::Sorted,
    };
    /// Insertion-order edges (the |E|-pass worst case).
    pub const ARBITRARY: BellmanFord = BellmanFord {
        order: EdgeOrder::Arbitrary,
    };
}

impl Default for BellmanFord {
    fn default() -> BellmanFord {
        BellmanFord::SORTED
    }
}

impl Solver for BellmanFord {
    fn name(&self) -> &'static str {
        match self.order {
            EdgeOrder::Sorted => "bellman-ford/sorted",
            EdgeOrder::Arbitrary => "bellman-ford/arbitrary",
        }
    }

    fn solve_system(
        &self,
        sys: &ConstraintSystem,
        pitch_weights: &[i64],
    ) -> Result<Outcome, SolveError> {
        if sys.num_pitches() == 0 {
            let sol = solver::solve(sys, self.order)?;
            return Ok(from_solution(sol));
        }
        pitch_search(sys, pitch_weights, &|reduced| {
            solver::solve(reduced, self.order)
        })
    }
}

/// The one-pass topological longest-path backend: O(V+E) on acyclic
/// systems, automatic sorted Bellman-Ford fallback when `require_exact`
/// pairs or folded interfaces make the constraint graph cyclic. Same
/// least solution as [`BellmanFord`] in every case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Topological;

impl Topological {
    fn refine(sys: &ConstraintSystem) -> Result<Solution, SolveFault> {
        match solver::solve_topo(sys) {
            Some(sol) => Ok(sol),
            None => solver::solve(sys, EdgeOrder::Sorted),
        }
    }
}

impl Solver for Topological {
    fn name(&self) -> &'static str {
        "topological"
    }

    fn solve_system(
        &self,
        sys: &ConstraintSystem,
        pitch_weights: &[i64],
    ) -> Result<Outcome, SolveError> {
        if sys.num_pitches() == 0 {
            return Ok(from_solution(Topological::refine(sys)?));
        }
        pitch_search(sys, pitch_weights, &Topological::refine)
    }
}

/// The jog-avoiding balanced mode (Fig 6.8): slack distributed on both
/// sides instead of packed against the left wall.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Balanced;

impl Solver for Balanced {
    fn name(&self) -> &'static str {
        "balanced"
    }

    fn solve_system(
        &self,
        sys: &ConstraintSystem,
        pitch_weights: &[i64],
    ) -> Result<Outcome, SolveError> {
        if sys.num_pitches() == 0 {
            let sol = solver::solve_balanced(sys)?;
            return Ok(from_solution(sol));
        }
        pitch_search(sys, pitch_weights, &solver::solve_balanced)
    }
}

/// The dense Big-M simplex backend: positions and pitches through the LP
/// even when no pitch variables force it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplexPitch;

impl Solver for SimplexPitch {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn solve_system(
        &self,
        sys: &ConstraintSystem,
        pitch_weights: &[i64],
    ) -> Result<Outcome, SolveError> {
        // The LP decides the pitches; a longest-path pass restores exact
        // integrality of the edge positions (LP optima are rational).
        pitch_search(sys, pitch_weights, &|reduced| {
            solver::solve(reduced, EdgeOrder::Sorted)
        })
    }
}

fn from_solution(sol: Solution) -> Outcome {
    let passes = sol.passes;
    Outcome {
        positions: sol.into_positions(),
        pitches: Vec::new(),
        passes,
    }
}

/// LP solve + integral pitch rounding + longest-path refinement through
/// the backend-chosen `refine` procedure (paper §6.2 + §6.4.2).
fn pitch_search(
    sys: &ConstraintSystem,
    pitch_weights: &[i64],
    refine: &dyn Fn(&ConstraintSystem) -> Result<Solution, SolveFault>,
) -> Result<Outcome, SolveError> {
    if pitch_weights.len() != sys.num_pitches() {
        return Err(SolveError::Input(format!(
            "{} cost weights for {} pitch variables",
            pitch_weights.len(),
            sys.num_pitches()
        )));
    }
    let n = sys.num_vars();
    let p = sys.num_pitches();
    // LP variables: [edges 0..n | pitches n..n+p]. The tiny per-edge
    // objective keeps the polytope's leftmost vertex preferred without
    // competing with the pitch costs.
    let mut objective = vec![1e-4f64; n];
    objective.extend(pitch_weights.iter().map(|&w| w as f64));
    let mut lp = Lp::new(n + p, objective);
    for c in sys.constraints() {
        let mut row = vec![(c.to.index(), 1.0), (c.from.index(), -1.0)];
        if let Some((pid, k)) = c.pitch {
            row.push((n + pid.index(), k as f64));
        }
        lp.add_row(row, Sense::Ge, c.weight as f64);
    }
    let x = lp
        .solve()
        .map_err(|e: LpError| SolveError::Infeasible(e.to_string()))?;

    // Round pitches to integers: try floor/ceil combinations (p is tiny),
    // keep the feasible combination with minimum cost.
    let floats: Vec<f64> = (0..p).map(|k| x[n + k]).collect();
    let mut best: Option<(i128, Solution, Vec<i64>)> = None;
    for mask in 0..(1usize << p.min(16)) {
        let candidate: Vec<i64> = floats
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                let f = v.floor() as i64;
                if mask & (1 << k) != 0 {
                    f + 1
                } else {
                    f
                }
            })
            .collect();
        if candidate.iter().any(|&v| v < 0) {
            continue;
        }
        if let Some(sol) = refine_fixed(sys, &candidate, refine) {
            // i128: pitch·weight products of adversarial magnitudes must
            // not wrap while comparing candidates.
            let cost: i128 = candidate
                .iter()
                .zip(pitch_weights)
                .map(|(&l, &w)| l as i128 * w as i128)
                .sum();
            if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best = Some((cost, sol, candidate));
            }
        }
    }
    if best.is_none() {
        // Escalate: bump all pitches upward together a few steps.
        for bump in 1..=4 {
            let candidate: Vec<i64> = floats.iter().map(|&v| v.ceil() as i64 + bump).collect();
            if let Some(sol) = refine_fixed(sys, &candidate, refine) {
                best = Some((0, sol, candidate));
                break;
            }
        }
    }
    let (_, sol, pitches) = best.ok_or_else(|| {
        SolveError::Rounding(format!("no integral pitch assignment near {floats:?}"))
    })?;
    let passes = sol.passes;
    Ok(Outcome {
        positions: sol.into_positions(),
        pitches,
        passes,
    })
}

/// With pitches fixed, the system reduces to difference constraints the
/// backend's refinement procedure can handle. Candidates whose reduced
/// weights overflow `i64` are rejected (`None`) like any other
/// infeasible rounding.
fn refine_fixed(
    sys: &ConstraintSystem,
    pitches: &[i64],
    refine: &dyn Fn(&ConstraintSystem) -> Result<Solution, SolveFault>,
) -> Option<Solution> {
    let mut reduced = ConstraintSystem::new_along(sys.axis());
    for v in 0..sys.num_vars() {
        reduced.add_var(sys.initial(VarId(v)));
    }
    for c in sys.constraints() {
        let pitch_part = match c.pitch {
            None => 0,
            Some((pid, k)) => k.checked_mul(*pitches.get(pid.index())?)?,
        };
        let w = c.weight.checked_sub(pitch_part)?;
        reduced.require(c.from, c.to, w);
    }
    refine(&reduced).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> ConstraintSystem {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(40);
        let c = s.add_var(90);
        s.require(a, b, 10);
        s.require(b, c, 7);
        s.require(a, c, 30);
        s
    }

    #[test]
    fn backends_agree_on_feasibility() {
        let s = chain();
        for backend in [
            &BellmanFord::SORTED as &dyn Solver,
            &BellmanFord::ARBITRARY,
            &Topological,
            &Balanced,
            &SimplexPitch,
        ] {
            let out = backend.solve_system(&s, &[]).unwrap();
            assert!(
                s.violations(&out.positions, &out.pitches).is_empty(),
                "{} produced violations",
                backend.name()
            );
        }
    }

    #[test]
    fn bellman_ford_orders_agree_on_positions() {
        let s = chain();
        let a = BellmanFord::SORTED.solve_system(&s, &[]).unwrap();
        let b = BellmanFord::ARBITRARY.solve_system(&s, &[]).unwrap();
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn pitch_system_through_any_backend() {
        // b − a ≥ 4 and λ − (b − a) ≥ 2: minimal pitch λ = 6 at weight 1.
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        let p = s.add_pitch("l");
        s.require(a, b, 4);
        s.require_with_pitch(b, a, 2, p, 1);
        for backend in [
            &BellmanFord::SORTED as &dyn Solver,
            &Topological,
            &Balanced,
            &SimplexPitch,
        ] {
            let out = backend.solve_system(&s, &[1]).unwrap();
            assert_eq!(out.pitches.len(), 1, "{}", backend.name());
            assert!(
                s.violations(&out.positions, &out.pitches).is_empty(),
                "{}",
                backend.name()
            );
            assert_eq!(out.pitches[0], 6, "{} pitch", backend.name());
        }
    }

    #[test]
    fn infeasible_reported() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(0);
        s.require(a, b, 5);
        s.require(b, a, -4);
        for backend in [
            &BellmanFord::SORTED as &dyn Solver,
            &Topological,
            &Balanced,
            &SimplexPitch,
        ] {
            let err = backend.solve_system(&s, &[]).unwrap_err();
            assert!(
                matches!(err, SolveError::Infeasible(_)),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            BellmanFord::SORTED.name(),
            BellmanFord::ARBITRARY.name(),
            Topological.name(),
            Balanced.name(),
            SimplexPitch.name(),
        ];
        let mut uniq = names.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }

    #[test]
    fn topological_matches_bellman_ford_on_cyclic_systems_via_fallback() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(20);
        let c = s.add_var(40);
        s.require_exact(a, b, 12); // two-cycle: forces the fallback
        s.require(b, c, 5);
        assert!(!s.graph().is_acyclic());
        let topo = Topological.solve_system(&s, &[]).unwrap();
        let bf = BellmanFord::SORTED.solve_system(&s, &[]).unwrap();
        assert_eq!(topo.positions, bf.positions);
    }

    #[test]
    fn outcome_slack_and_critical_path() {
        let s = chain();
        let out = BellmanFord::SORTED.solve_system(&s, &[]).unwrap();
        let slacks = out.slacks(&s);
        // a→b (10) and b→c (7) are tight; a→c (30) binds instead of the
        // chain when 30 > 17 — check against the actual solution.
        assert!(slacks.iter().all(|&sl| sl >= 0));
        let c_var = VarId(2);
        let chain = out.critical_path(&s, c_var);
        let total: i64 = chain.iter().map(|k| k.weight).sum();
        assert_eq!(total, out.positions[c_var.index()]);
    }
}
