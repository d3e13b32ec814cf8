//! The constraint representation of §6.3.
//!
//! Variables are the abscissas of vertical box edges; pitch variables λᵢ
//! are the per-interface spacing unknowns of leaf-cell compaction. Every
//! constraint is linear with at most two edge variables and at most one
//! pitch term:
//!
//! ```text
//! x_to − x_from + coeff·λ ≥ weight
//! ```
//!
//! With no pitch term this is the classic difference constraint solvable
//! by longest-path (Bellman-Ford); with pitch terms the system "cannot be
//! solved by shortest path algorithms ... because the weights on the edges
//! are not all constants" and goes to the LP solver instead.
//!
//! The paper fixes the sweep direction to x; here the system is
//! parameterized by [`Axis`], so the same representation (and the same
//! solvers) serve y-compaction without transposing the layout first —
//! variables are then ordinates of horizontal edges.

use crate::graph::ConstraintGraph;
use rsg_geom::Axis;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Handle to an edge-position variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0
    }

    pub(crate) const fn from_index(i: usize) -> VarId {
        VarId(i)
    }
}

/// Handle to a pitch variable λᵢ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PitchId(pub(crate) usize);

impl PitchId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// One linear constraint `x_to − x_from + coeff·λ ≥ weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constraint {
    /// Variable on the positive side.
    pub to: VarId,
    /// Variable on the negative side.
    pub from: VarId,
    /// Required minimum separation.
    pub weight: i64,
    /// Optional pitch term `(λ, coefficient)`.
    pub pitch: Option<(PitchId, i64)>,
}

/// A system of edge variables, pitch variables, and constraints, tagged
/// with the [`Axis`] its variables move along.
///
/// The CSR adjacency view ([`ConstraintGraph`]) is built lazily on the
/// first [`ConstraintSystem::graph`] call and cached until the system is
/// mutated, so every solver backend shares one graph instead of
/// re-walking (and re-sorting) the flat constraint list per solve.
#[derive(Debug)]
pub struct ConstraintSystem {
    axis: Axis,
    var_initial: Vec<i64>,
    pitch_names: Vec<String>,
    constraints: Vec<Constraint>,
    graph: OnceLock<ConstraintGraph>,
    /// CSR builds so far, a work counter that [`ConstraintSystem::reset`]
    /// keeps counting.
    builds: AtomicUsize,
}

impl Clone for ConstraintSystem {
    fn clone(&self) -> ConstraintSystem {
        // The graph cache is cheap to rebuild; clones start cold.
        ConstraintSystem {
            axis: self.axis,
            var_initial: self.var_initial.clone(),
            pitch_names: self.pitch_names.clone(),
            constraints: self.constraints.clone(),
            graph: OnceLock::new(),
            builds: AtomicUsize::new(0),
        }
    }
}

impl Default for ConstraintSystem {
    fn default() -> ConstraintSystem {
        ConstraintSystem::new_along(Axis::X)
    }
}

impl ConstraintSystem {
    /// Creates an empty x-axis system (the paper's default direction).
    pub fn new() -> ConstraintSystem {
        ConstraintSystem::default()
    }

    /// Creates an empty system whose variables are edge coordinates
    /// along `axis`.
    pub fn new_along(axis: Axis) -> ConstraintSystem {
        ConstraintSystem {
            axis,
            var_initial: Vec::new(),
            pitch_names: Vec::new(),
            constraints: Vec::new(),
            graph: OnceLock::new(),
            builds: AtomicUsize::new(0),
        }
    }

    /// Empties the system for refilling along `axis`, keeping the
    /// variable and constraint storage for the next sweep. The cached
    /// CSR graph is dropped: recycling its buffers into the next build
    /// was measured and did not pay (DESIGN.md, "Ablated
    /// accelerators").
    pub fn reset(&mut self, axis: Axis) {
        self.discard_graph();
        self.axis = axis;
        self.var_initial.clear();
        self.constraints.clear();
        self.pitch_names.clear();
    }

    /// Drops the cached graph after a structural mutation; the next use
    /// builds a fresh one.
    fn discard_graph(&mut self) {
        self.graph.take();
    }

    /// The axis this system's variables move along.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Adds an edge variable with its position in the initial layout
    /// (used by the sorted-edge optimization and as the solver's hint).
    pub fn add_var(&mut self, initial: i64) -> VarId {
        self.discard_graph();
        self.var_initial.push(initial);
        VarId(self.var_initial.len() - 1)
    }

    /// Adds a named pitch variable.
    pub fn add_pitch(&mut self, name: impl Into<String>) -> PitchId {
        self.pitch_names.push(name.into());
        PitchId(self.pitch_names.len() - 1)
    }

    /// Adds `x_to − x_from ≥ weight`.
    ///
    /// An exact duplicate of the *immediately preceding* constraint is
    /// dropped — generators that emit per-event often repeat the edge
    /// they just produced, and the duplicate changes nothing about the
    /// feasible region. (Non-adjacent duplicates still get in; the CSR
    /// build dedupes those per `(from, to, pitch)` class.)
    pub fn require(&mut self, from: VarId, to: VarId, weight: i64) {
        self.push(Constraint {
            to,
            from,
            weight,
            pitch: None,
        });
    }

    /// Like [`ConstraintSystem::require`] but *always* appends, returning
    /// the new constraint's index. For callers that record the slot in
    /// order to re-weight it later via [`ConstraintSystem::set_weight`]
    /// (the hierarchical pitch fixpoint): dedup would alias distinct
    /// logical slots and let one patch move another caller's constraint.
    pub fn require_slot(&mut self, from: VarId, to: VarId, weight: i64) -> usize {
        self.discard_graph();
        self.constraints.push(Constraint {
            to,
            from,
            weight,
            pitch: None,
        });
        self.constraints.len() - 1
    }

    /// Adds `x_to − x_from + coeff·λ ≥ weight` (same last-insert dedup
    /// as [`ConstraintSystem::require`]).
    pub fn require_with_pitch(
        &mut self,
        from: VarId,
        to: VarId,
        weight: i64,
        pitch: PitchId,
        coeff: i64,
    ) {
        self.push(Constraint {
            to,
            from,
            weight,
            pitch: Some((pitch, coeff)),
        });
    }

    fn push(&mut self, c: Constraint) {
        if self.constraints.last() == Some(&c) {
            return;
        }
        self.discard_graph();
        self.constraints.push(c);
    }

    /// Pins the distance `x_to − x_from` to exactly `d` (two constraints).
    pub fn require_exact(&mut self, from: VarId, to: VarId, d: i64) {
        self.require(from, to, d);
        self.require(to, from, -d);
    }

    /// Replaces the weight of constraint `index` **without** discarding
    /// the cached CSR graph: the edges are patched in their slots, and
    /// the sorted relaxation order (a function of initial positions) and
    /// topological order (a function of the edge set) stay valid. This
    /// is what makes iterating on one system cheap — the hierarchical
    /// pitch fixpoint re-solves the same graph dozens of times with only
    /// the λ-class weights moving.
    ///
    /// Two exceptions fall back to a rebuild on next use: a *self-loop*
    /// crossing the vacuousness boundary (`from == to, w ≤ 0` is ignored
    /// by the topological order while `w > 0` is an unconditional
    /// positive cycle, so the effective edge set changes), and a
    /// re-weight that changes which member of a parallel-edge class
    /// dominates after CSR dedup.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_weight(&mut self, index: usize, weight: i64) {
        let c = &mut self.constraints[index];
        if c.weight == weight {
            return;
        }
        let self_loop = c.from == c.to;
        let flips_vacuous = self_loop && (c.weight <= 0) != (weight <= 0);
        c.weight = weight;
        if flips_vacuous {
            self.discard_graph();
        } else if self.graph.get().is_some() {
            let patched = self
                .graph
                .get_mut()
                .map(|g| g.try_patch(index, weight))
                .unwrap_or(false);
            if !patched {
                // The constraint was a parallel-class representative and
                // the patch would change which member dominates; rebuild
                // on next use.
                self.discard_graph();
            }
        }
    }

    /// Number of edge variables.
    pub fn num_vars(&self) -> usize {
        self.var_initial.len()
    }

    /// Every edge-variable handle, in index order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.var_initial.len()).map(VarId)
    }

    /// Number of pitch variables.
    pub fn num_pitches(&self) -> usize {
        self.pitch_names.len()
    }

    /// Initial (original-layout) position of a variable.
    pub fn initial(&self, v: VarId) -> i64 {
        self.var_initial[v.0]
    }

    /// Name of a pitch variable.
    pub fn pitch_name(&self, p: PitchId) -> &str {
        &self.pitch_names[p.0]
    }

    /// The constraints, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// `true` if any constraint carries a pitch term (needs the LP path).
    pub fn has_pitch_terms(&self) -> bool {
        self.constraints.iter().any(|c| c.pitch.is_some())
    }

    /// The CSR adjacency view, built on first use and cached until the
    /// system is mutated. Shared by every solver backend.
    pub fn graph(&self) -> &ConstraintGraph {
        self.graph.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            ConstraintGraph::build(self)
        })
    }

    /// How many times this system has built its CSR graph: once per
    /// [`ConstraintSystem::graph`] call that found no cached graph, over
    /// the system's whole life (clones start at zero). A patched
    /// [`ConstraintSystem::set_weight`] costs no build; a structural
    /// mutation, a [`ConstraintSystem::reset`] or a re-elected parallel
    /// representative costs one on the next use.
    pub fn graph_builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Slack of one constraint under a candidate solution:
    /// `x_to − x_from + Σcλ − w`. Non-negative iff the constraint is
    /// satisfied; zero iff it is *tight* (binding).
    ///
    /// This is a diagnostic over caller-supplied vectors: positions or
    /// pitches that are missing read as 0, and the arithmetic saturates
    /// instead of wrapping — exact for anything within the
    /// [`rsg_geom::MAX_COORD`] ingest budget.
    pub fn slack_of(&self, c: &Constraint, positions: &[i64], pitches: &[i64]) -> i64 {
        let at = |xs: &[i64], i: usize| xs.get(i).copied().unwrap_or(0);
        let pitch = c
            .pitch
            .map_or(0, |(p, k)| k.saturating_mul(at(pitches, p.0)));
        at(positions, c.to.0)
            .saturating_sub(at(positions, c.from.0))
            .saturating_add(pitch)
            .saturating_sub(c.weight)
    }

    /// Per-constraint slack, in constraint order. `slacks[k] < 0` exactly
    /// when constraint `k` appears in [`ConstraintSystem::violations`].
    pub fn slacks(&self, positions: &[i64], pitches: &[i64]) -> Vec<i64> {
        self.constraints
            .iter()
            .map(|c| self.slack_of(c, positions, pitches))
            .collect()
    }

    /// The chain of tight constraints that pins `v` at its solved
    /// position: followed backward from `v` until a variable at position
    /// 0, returned in source-to-`v` order. For a least (left-packed)
    /// solution the effective weights of the chain sum to
    /// `positions[v]`.
    pub fn critical_path(&self, positions: &[i64], pitches: &[i64], v: VarId) -> Vec<Constraint> {
        crate::graph::critical_path(self, positions, pitches, v)
    }

    /// Checks a candidate solution; returns the violated constraints.
    pub fn violations(&self, positions: &[i64], pitches: &[i64]) -> Vec<Constraint> {
        self.constraints
            .iter()
            .copied()
            .filter(|c| self.slack_of(c, positions, pitches) < 0)
            .collect()
    }
}

impl fmt::Display for ConstraintSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ConstraintSystem({} axis, {} vars, {} pitches, {} constraints)",
            self.axis,
            self.var_initial.len(),
            self.pitch_names.len(),
            self.constraints.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        let p = s.add_pitch("lambda_a");
        s.require(a, b, 5);
        s.require_with_pitch(b, a, -2, p, 1);
        assert_eq!(s.num_vars(), 2);
        assert_eq!(s.num_pitches(), 1);
        assert_eq!(s.initial(b), 10);
        assert_eq!(s.pitch_name(p), "lambda_a");
        assert!(s.has_pitch_terms());
        assert_eq!(s.constraints().len(), 2);
        assert!(s.to_string().contains("2 vars"));
    }

    #[test]
    fn axis_tag() {
        assert_eq!(ConstraintSystem::new().axis(), Axis::X);
        assert_eq!(ConstraintSystem::new_along(Axis::Y).axis(), Axis::Y);
        assert!(ConstraintSystem::new_along(Axis::Y)
            .to_string()
            .contains("y axis"));
    }

    #[test]
    fn violations_detected() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(0);
        s.require(a, b, 5);
        assert_eq!(s.violations(&[0, 5], &[]).len(), 0);
        assert_eq!(s.violations(&[0, 4], &[]).len(), 1);
        let p = s.add_pitch("l");
        s.require_with_pitch(a, b, 8, p, 1);
        // b - a + λ >= 8: with b=5, λ=3 it holds exactly.
        assert_eq!(s.violations(&[0, 5], &[3]).len(), 0);
        assert_eq!(s.violations(&[0, 5], &[2]).len(), 1);
    }

    #[test]
    fn set_weight_patches_the_cached_graph() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        let c = s.add_var(20);
        s.require(a, b, 5);
        s.require(b, c, 7);
        s.require(a, c, 3);
        let _ = s.graph(); // populate the cache
        s.set_weight(1, 9);
        // The patched graph must equal a cold build of the same system.
        let fresh = ConstraintGraph::build(&s);
        assert_eq!(*s.graph(), fresh);
        assert_eq!(s.constraints()[1].weight, 9);
    }

    #[test]
    fn set_weight_without_cache_just_updates() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        s.require(a, b, 5);
        s.set_weight(0, 6);
        assert_eq!(s.constraints()[0].weight, 6);
        assert_eq!(*s.graph(), ConstraintGraph::build(&s));
    }

    #[test]
    fn solving_a_patched_system_matches_a_cold_one() {
        use crate::backend::{BellmanFord, Solver, Topological};
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        let c = s.add_var(20);
        s.require(a, b, 5);
        s.require(b, c, 7);
        let _ = s.graph();
        s.set_weight(0, 11);
        s.set_weight(1, 3);
        let mut cold_sys = ConstraintSystem::new();
        let a2 = cold_sys.add_var(0);
        let b2 = cold_sys.add_var(10);
        let _c2 = cold_sys.add_var(20);
        cold_sys.require(a2, b2, 11);
        cold_sys.require(b2, _c2, 3);
        for solver in [&BellmanFord::SORTED as &dyn Solver, &Topological] {
            let patched = solver.solve_system(&s, &[]).unwrap();
            let cold = solver.solve_system(&cold_sys, &[]).unwrap();
            assert_eq!(patched.positions, cold.positions, "{}", solver.name());
        }
    }

    #[test]
    fn self_loop_vacuousness_flip_rebuilds_topo() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        s.require(a, b, 5);
        s.require(a, a, 0); // vacuous self-loop (λ-floor pattern)
        assert!(s.graph().is_acyclic());
        // w > 0 turns the self-loop into a real positive cycle.
        s.set_weight(1, 1);
        assert!(!s.graph().is_acyclic());
        // …and back.
        s.set_weight(1, -2);
        assert!(s.graph().is_acyclic());
        assert_eq!(*s.graph(), ConstraintGraph::build(&s));
    }

    #[test]
    fn duplicate_adds_do_not_inflate_num_edges() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        let c = s.add_var(20);
        s.require(a, b, 5);
        s.require(a, b, 5); // consecutive exact duplicate: dropped at insert
        assert_eq!(s.constraints().len(), 1);
        s.require(b, c, 7);
        s.require(a, b, 5); // non-adjacent duplicate: kept in the list…
        s.require(a, b, 3); // …and a weaker parallel edge too
        assert_eq!(s.constraints().len(), 4);
        // …but the CSR build dedupes per (from, to, pitch) class.
        assert_eq!(s.graph().num_edges(), 2);
        let p = s.add_pitch("l");
        s.require_with_pitch(a, b, 8, p, 1);
        s.require_with_pitch(a, b, 8, p, 1);
        assert_eq!(s.constraints().len(), 5);
        assert_eq!(s.graph().num_edges(), 3); // pitch term = distinct class
    }

    #[test]
    fn set_weight_on_deduped_parallel_edges_matches_cold_build() {
        use crate::backend::{BellmanFord, Solver};
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        s.require(a, b, 5);
        s.require(b, a, -20);
        s.require(a, b, 3); // dominated parallel edge
        let _ = s.graph();
        assert_eq!(s.graph().num_edges(), 2);
        // Dominated member moves but stays below the representative: no-op.
        s.set_weight(2, 4);
        assert_eq!(*s.graph(), ConstraintGraph::build(&s));
        // Dominated member overtakes the representative: rebuild.
        s.set_weight(2, 9);
        assert_eq!(*s.graph(), ConstraintGraph::build(&s));
        // Representative (now index 2) raised in place: patch.
        s.set_weight(2, 12);
        assert_eq!(*s.graph(), ConstraintGraph::build(&s));
        // Representative lowered below the other member: rebuild again.
        s.set_weight(2, 1);
        assert_eq!(*s.graph(), ConstraintGraph::build(&s));
        let solved = BellmanFord::SORTED.solve_system(&s, &[]).unwrap();
        assert_eq!(solved.positions, vec![0, 5]);
    }

    #[test]
    fn reset_reuses_graph_for_identical_refill() {
        let fill = |s: &mut ConstraintSystem| {
            let a = s.add_var(0);
            let b = s.add_var(10);
            let c = s.add_var(20);
            s.require(a, b, 5);
            s.require(b, c, 7);
        };
        let mut s = ConstraintSystem::new();
        fill(&mut s);
        let cold = s.graph().clone();
        s.reset(Axis::X);
        assert_eq!(s.num_vars(), 0);
        assert_eq!(s.constraints().len(), 0);
        // The refill rebuilds the same graph.
        fill(&mut s);
        assert_eq!(*s.graph(), cold);
        s.reset(Axis::Y);
        let a = s.add_var(0);
        let b = s.add_var(4);
        s.require(a, b, 9);
        assert_eq!(*s.graph(), ConstraintGraph::build(&s));
        assert_eq!(s.axis(), Axis::Y);
        assert_eq!(s.graph().num_edges(), 1);
    }

    #[test]
    fn graph_builds_count_rebuilds_not_patches() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        let i = s.require_slot(a, b, 5);
        let j = s.require_slot(a, b, 3);
        assert_eq!(s.graph_builds(), 0);
        let _ = s.graph();
        let _ = s.graph(); // cached
        assert_eq!(s.graph_builds(), 1);
        s.set_weight(i, 7); // representative raised: patched
        let _ = s.graph();
        assert_eq!(s.graph_builds(), 1);
        s.set_weight(j, 9); // twin overtakes it: rebuilt
        let _ = s.graph();
        assert_eq!(s.graph_builds(), 2);
        s.reset(Axis::X);
        let _ = s.graph();
        assert_eq!(s.graph_builds(), 3);
        assert_eq!(s.clone().graph_builds(), 0);
    }

    #[test]
    fn require_slot_bypasses_dedup_and_returns_index() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(10);
        let i = s.require_slot(a, b, 5);
        let j = s.require_slot(a, b, 5); // identical, still appended
        assert_eq!((i, j), (0, 1));
        assert_eq!(s.constraints().len(), 2);
        s.set_weight(j, 8);
        assert_eq!(s.constraints()[1].weight, 8);
        assert_eq!(*s.graph(), ConstraintGraph::build(&s));
    }

    #[test]
    fn exact_constraints() {
        let mut s = ConstraintSystem::new();
        let a = s.add_var(0);
        let b = s.add_var(7);
        s.require_exact(a, b, 7);
        assert!(s.violations(&[0, 7], &[]).is_empty());
        assert_eq!(s.violations(&[0, 8], &[]).len(), 1);
        assert_eq!(s.violations(&[0, 6], &[]).len(), 1);
    }
}
