//! The CSR adjacency view of a [`ConstraintSystem`].
//!
//! §6.4.2 treats the constraint system as a graph — "the Bellman Ford
//! assigns to each vertex the lowest possible abscissa" — but the flat
//! `Vec<Constraint>` representation forced every solver to re-derive its
//! own view per solve: the sorted-edge order was re-sorted on each call,
//! and no solver could walk a variable's neighbours without scanning the
//! whole list. [`ConstraintGraph`] is the shared view: compressed sparse
//! rows in both directions (outgoing edges grouped by `from`, incoming by
//! `to`), the sorted-edge relaxation order computed once, and a
//! topological order of the variables when the graph is acyclic — the
//! precondition for the one-pass longest-path solver.
//!
//! The graph is built lazily by [`ConstraintSystem::graph`] and cached;
//! mutating the system invalidates the cache.

use crate::constraint::{Constraint, ConstraintSystem, PitchId, VarId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Clears and refills a buffer to `len` copies of `value`, keeping its
/// allocation — the build-reuse primitive of the sweep arenas.
fn reset<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// One directed edge of the constraint graph.
///
/// For an outgoing edge `other` is the `to` variable; for an incoming
/// edge it is the `from` variable. `weight` is the *constant* part of the
/// constraint weight — pitch terms, if any, are looked up through
/// `constraint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEdge {
    /// The variable at the far end of the edge.
    pub other: VarId,
    /// Constant weight `w` of `x_to − x_from + Σcλ ≥ w`.
    pub weight: i64,
    /// Index of the originating constraint in
    /// [`ConstraintSystem::constraints`].
    pub constraint: u32,
}

/// Compressed-sparse-row adjacency of a [`ConstraintSystem`], shared by
/// every solver backend.
///
/// Parallel constraints — same `from`, same `to`, same pitch term — are
/// *deduplicated at build time*: only the strongest (maximum-weight)
/// member of each parallel class appears as a CSR edge or in the sorted
/// relaxation order, because a feasible candidate satisfying the maximum
/// satisfies every weaker parallel twin. [`ConstraintGraph::num_edges`]
/// therefore counts distinct edges, which can be fewer than
/// `sys.constraints().len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintGraph {
    num_vars: usize,
    out_offsets: Vec<u32>,
    out_edges: Vec<GraphEdge>,
    in_offsets: Vec<u32>,
    in_edges: Vec<GraphEdge>,
    /// Constraint indices in the paper's sorted-edge relaxation order
    /// (by the initial abscissa of the `from` variable); representatives
    /// only.
    sorted: Vec<u32>,
    /// Variables in topological order of the edge direction, when the
    /// graph (ignoring vacuous `w ≤ 0` self-loops) is acyclic.
    topo: Option<Vec<VarId>>,
    /// Per-constraint CSR slots (`constraint index → position in
    /// `out_edges` / `in_edges`), recorded during the fill so a weight
    /// can later be patched in place without rebuilding the rows. Only
    /// meaningful for representatives (`rep[k] == k`).
    out_slot: Vec<u32>,
    in_slot: Vec<u32>,
    /// Parallel-class representative per constraint: the index of the
    /// maximum-weight member (first such member on ties). `rep[k] == k`
    /// exactly when constraint `k` backs a CSR edge.
    rep: Vec<u32>,
    /// `true` when the constraint's parallel class has more than one
    /// member — the case where lowering a representative's weight could
    /// re-elect a twin and forces a rebuild.
    shared: Vec<bool>,
}

impl ConstraintGraph {
    /// Builds the CSR view of `sys`. O(V + E) plus the one-time
    /// sorted-order sort; called through [`ConstraintSystem::graph`],
    /// which caches the result.
    pub fn build(sys: &ConstraintSystem) -> ConstraintGraph {
        let empty = ConstraintGraph {
            num_vars: 0,
            out_offsets: Vec::new(),
            out_edges: Vec::new(),
            in_offsets: Vec::new(),
            in_edges: Vec::new(),
            sorted: Vec::new(),
            topo: None,
            out_slot: Vec::new(),
            in_slot: Vec::new(),
            rep: Vec::new(),
            shared: Vec::new(),
        };
        ConstraintGraph::build_reusing(sys, empty)
    }

    /// [`ConstraintGraph::build`] recycling the buffers of a retired
    /// graph — what the sweep arenas feed back so steady-state
    /// re-generation allocates nothing.
    pub fn build_reusing(sys: &ConstraintSystem, old: ConstraintGraph) -> ConstraintGraph {
        let n = sys.num_vars();
        let constraints = sys.constraints();
        let ConstraintGraph {
            mut out_offsets,
            mut out_edges,
            mut in_offsets,
            mut in_edges,
            mut sorted,
            mut out_slot,
            mut in_slot,
            mut rep,
            mut shared,
            ..
        } = old;

        // Parallel-edge classes: the representative is the first
        // maximum-weight member of each (from, to, pitch) class.
        type EdgeClass = (VarId, VarId, Option<(PitchId, i64)>);
        reset(&mut rep, constraints.len(), 0);
        reset(&mut shared, constraints.len(), false);
        let mut best: HashMap<EdgeClass, u32> = HashMap::with_capacity(constraints.len());
        for (k, c) in constraints.iter().enumerate() {
            match best.entry((c.from, c.to, c.pitch)) {
                Entry::Vacant(e) => {
                    e.insert(k as u32);
                }
                Entry::Occupied(mut e) => {
                    let b = *e.get() as usize;
                    shared[b] = true;
                    shared[k] = true;
                    if c.weight > constraints[b].weight {
                        e.insert(k as u32);
                    }
                }
            }
        }
        let mut edges = 0usize;
        for (k, c) in constraints.iter().enumerate() {
            rep[k] = best[&(c.from, c.to, c.pitch)];
            if rep[k] == k as u32 {
                edges += 1;
            }
        }

        reset(&mut out_offsets, n + 1, 0u32);
        reset(&mut in_offsets, n + 1, 0u32);
        for (k, c) in constraints.iter().enumerate() {
            if rep[k] == k as u32 {
                out_offsets[c.from.index() + 1] += 1;
                in_offsets[c.to.index() + 1] += 1;
            }
        }
        for v in 0..n {
            out_offsets[v + 1] += out_offsets[v];
            in_offsets[v + 1] += in_offsets[v];
        }
        let dummy = GraphEdge {
            other: VarId::from_index(0),
            weight: 0,
            constraint: 0,
        };
        reset(&mut out_edges, edges, dummy);
        reset(&mut in_edges, edges, dummy);
        let mut out_fill = out_offsets.clone();
        let mut in_fill = in_offsets.clone();
        reset(&mut out_slot, constraints.len(), 0u32);
        reset(&mut in_slot, constraints.len(), 0u32);
        for (k, c) in constraints.iter().enumerate() {
            if rep[k] != k as u32 {
                continue;
            }
            let o = &mut out_fill[c.from.index()];
            out_slot[k] = *o;
            out_edges[*o as usize] = GraphEdge {
                other: c.to,
                weight: c.weight,
                constraint: k as u32,
            };
            *o += 1;
            let i = &mut in_fill[c.to.index()];
            in_slot[k] = *i;
            in_edges[*i as usize] = GraphEdge {
                other: c.from,
                weight: c.weight,
                constraint: k as u32,
            };
            *i += 1;
        }
        // Dominated members share their representative's slots, so slot
        // lookups through `rep` need no second indirection.
        for k in 0..constraints.len() {
            if rep[k] != k as u32 {
                out_slot[k] = out_slot[rep[k] as usize];
                in_slot[k] = in_slot[rep[k] as usize];
            }
        }

        sorted.clear();
        sorted.extend((0..constraints.len() as u32).filter(|&k| rep[k as usize] == k));
        sorted.sort_by_key(|&k| sys.initial(constraints[k as usize].from));

        let topo = topo_order(n, &out_offsets, &out_edges, &in_offsets);

        ConstraintGraph {
            num_vars: n,
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
            sorted,
            topo,
            out_slot,
            in_slot,
            rep,
            shared,
        }
    }

    /// Tries to absorb a weight change of one constraint in place.
    /// Returns `false` when the change can re-elect a different parallel
    /// representative, in which case [`ConstraintSystem::set_weight`]
    /// discards the graph and the next use rebuilds. The CSR rows, the
    /// sorted relaxation order (keyed by initial positions), and the
    /// topological order (keyed by the edge *set*) all survive a patched
    /// weight — self-loops crossing the vacuousness boundary are handled
    /// by the caller and never routed here.
    pub(crate) fn try_patch(&mut self, constraint: usize, weight: i64) -> bool {
        let r = self.rep[constraint] as usize;
        let slot = self.out_slot[r] as usize;
        let rep_weight = self.out_edges[slot].weight;
        if r == constraint {
            if weight >= rep_weight || !self.shared[constraint] {
                self.out_edges[slot].weight = weight;
                self.in_edges[self.in_slot[r] as usize].weight = weight;
                return true;
            }
            // A lowered representative may hand the class to a twin.
            return false;
        }
        // A dominated member only matters once it overtakes (or, for an
        // earlier index, ties) the representative.
        weight < rep_weight || (weight == rep_weight && constraint > r)
    }

    /// Number of variables (graph vertices).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of distinct edges — parallel constraints (same endpoints
    /// and pitch term) collapse to their maximum-weight representative,
    /// so this can be smaller than `sys.constraints().len()`.
    pub fn num_edges(&self) -> usize {
        self.out_edges.len()
    }

    /// Outgoing edges of `v` (constraints with `from == v`).
    pub fn outgoing(&self, v: VarId) -> &[GraphEdge] {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_edges[lo..hi]
    }

    /// Incoming edges of `v` (constraints with `to == v`).
    pub fn incoming(&self, v: VarId) -> &[GraphEdge] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_edges[lo..hi]
    }

    /// Constraint indices in sorted-edge relaxation order (§6.4.2's
    /// preliminary sort, computed once and shared by every solve).
    pub fn sorted_order(&self) -> &[u32] {
        &self.sorted
    }

    /// Variables in topological order when the graph is acyclic, else
    /// `None`. Vacuous self-loops (`from == to`, `w ≤ 0`) are ignored —
    /// they can never bind a longest path. `require_exact` pairs and
    /// interface-folded two-cycles make the graph cyclic.
    pub fn topo_order(&self) -> Option<&[VarId]> {
        self.topo.as_deref()
    }

    /// `true` when a topological order exists (the one-pass solver
    /// applies).
    pub fn is_acyclic(&self) -> bool {
        self.topo.is_some()
    }
}

/// Kahn's algorithm over the CSR rows; `None` on any non-vacuous cycle.
fn topo_order(
    n: usize,
    out_offsets: &[u32],
    out_edges: &[GraphEdge],
    in_offsets: &[u32],
) -> Option<Vec<VarId>> {
    let vacuous = |from: usize, e: &GraphEdge| e.other.index() == from && e.weight <= 0;
    let mut indegree = vec![0u32; n];
    for v in 0..n {
        indegree[v] = in_offsets[v + 1] - in_offsets[v];
    }
    // Self-loops with w ≤ 0 are stripped from the degree count; a
    // positive-weight self-loop is an unconditional positive cycle and
    // correctly leaves the graph cyclic.
    for v in 0..n {
        for e in &out_edges[out_offsets[v] as usize..out_offsets[v + 1] as usize] {
            if vacuous(v, e) {
                indegree[v] -= 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(VarId::from_index(v));
        for e in &out_edges[out_offsets[v] as usize..out_offsets[v + 1] as usize] {
            if vacuous(v, e) {
                continue;
            }
            let t = e.other.index();
            indegree[t] -= 1;
            if indegree[t] == 0 {
                queue.push(t);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// The chain of tight constraints that pins `v`: a path of zero-slack
/// constraints from a variable at position 0 up to `v`, in
/// source-to-`v` order. The sum of the chain's effective weights equals
/// `positions[v]` exactly.
///
/// Found by a BFS over tight edges forward from the zero set (the
/// support sweep that proves a solution least), so every link's own
/// chain is grounded and zero-weight tight cycles (equality pairs)
/// cannot trap the walk. For a variable a non-least candidate holds
/// above its supported position no grounded chain exists and the result
/// is empty.
pub(crate) fn critical_path(
    sys: &ConstraintSystem,
    positions: &[i64],
    pitches: &[i64],
    v: VarId,
) -> Vec<Constraint> {
    const NO_PRED: u32 = u32::MAX;
    let graph = sys.graph();
    let constraints = sys.constraints();
    let n = sys.num_vars();
    // Discovering constraint per variable; zero-set members have none.
    let mut pred = vec![NO_PRED; n];
    let mut supported = vec![false; n];
    let mut queue: Vec<usize> = (0..n).filter(|&u| positions[u] == 0).collect();
    for &u in &queue {
        supported[u] = true;
    }
    let mut head = 0;
    'bfs: while head < queue.len() {
        let u = queue[head];
        head += 1;
        for e in graph.outgoing(VarId::from_index(u)) {
            let t = e.other.index();
            if supported[t] {
                continue;
            }
            let c = &constraints[e.constraint as usize];
            if sys.slack_of(c, positions, pitches) == 0 {
                supported[t] = true;
                pred[t] = e.constraint;
                if t == v.index() {
                    break 'bfs;
                }
                queue.push(t);
            }
        }
    }
    let mut chain = Vec::new();
    let mut cur = v;
    while pred[cur.index()] != NO_PRED {
        let c = constraints[pred[cur.index()] as usize];
        chain.push(c);
        cur = c.from;
    }
    chain.reverse();
    chain
}
