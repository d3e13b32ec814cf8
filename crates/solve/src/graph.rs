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

use crate::constraint::{Constraint, ConstraintSystem, VarId};

/// Marks "no constraint / no variable" in the build's `u32` buffers.
const NONE: u32 = u32::MAX;

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
    ///
    /// No hashing: a stable counting sort on `from` puts each parallel
    /// class in one bucket, in index order, and inside a bucket a slot
    /// per `to`, stamped with the bucket, finds the class of an edge.
    /// Classes that differ only in their pitch term chain off that slot.
    pub fn build(sys: &ConstraintSystem) -> ConstraintGraph {
        let n = sys.num_vars();
        let constraints = sys.constraints();
        let m = constraints.len();

        // Stable counting sort of the constraint indices by `from`.
        let mut from_start = vec![0u32; n + 1];
        for c in constraints {
            from_start[c.from.index() + 1] += 1;
        }
        for v in 0..n {
            from_start[v + 1] += from_start[v];
        }
        // `head` is first the fill cursor of each bucket, then, in the
        // election, the first class of each `to` in the current bucket,
        // then the fill cursor of each incoming row.
        let mut head = from_start[..n].to_vec();
        let mut by_from = vec![0u32; m];
        for (k, c) in constraints.iter().enumerate() {
            let at = &mut head[c.from.index()];
            by_from[*at as usize] = k as u32;
            *at += 1;
        }

        // Parallel-edge classes: the representative is the first
        // maximum-weight member of each (from, to, pitch) class. A
        // bucket meets a class's members in index order, so the class's
        // first member `f` holds the running best in `rep[f]`, and every
        // later member `k` records `rep[k] = f < k` until the pass after.
        let mut rep = vec![0u32; m];
        let mut shared = vec![false; m];
        // Per class head: the head of the next class with the same
        // endpoints and another pitch term. Per `to`: the bucket that
        // last met an edge into it.
        let mut next_class = vec![NONE; m];
        let mut stamp = vec![NONE; n];
        for v in 0..n {
            for &k in &by_from[from_start[v] as usize..from_start[v + 1] as usize] {
                let c = &constraints[k as usize];
                let t = c.to.index();
                if stamp[t] != v as u32 {
                    stamp[t] = v as u32;
                    head[t] = k;
                    rep[k as usize] = k;
                    continue;
                }
                let mut f = head[t] as usize;
                while constraints[f].pitch != c.pitch && next_class[f] != NONE {
                    f = next_class[f] as usize;
                }
                if constraints[f].pitch != c.pitch {
                    next_class[f] = k;
                    rep[k as usize] = k;
                    continue;
                }
                let b = rep[f] as usize;
                shared[b] = true;
                shared[k as usize] = true;
                if c.weight > constraints[b].weight {
                    rep[f] = k;
                }
                rep[k as usize] = f as u32;
            }
        }
        for k in 0..m {
            if (rep[k] as usize) < k {
                rep[k] = rep[rep[k] as usize];
            }
        }

        let mut edges = 0usize;
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for (k, c) in constraints.iter().enumerate() {
            if rep[k] == k as u32 {
                out_offsets[c.from.index() + 1] += 1;
                in_offsets[c.to.index() + 1] += 1;
                edges += 1;
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
        let mut out_edges = vec![dummy; edges];
        let mut in_edges = vec![dummy; edges];
        let mut out_slot = vec![0u32; m];
        let mut in_slot = vec![0u32; m];
        // Outgoing rows: the `from` buckets already list each row's
        // representatives in index order, back to back.
        let mut at = 0u32;
        for &k in &by_from {
            if rep[k as usize] != k {
                continue;
            }
            let c = &constraints[k as usize];
            out_slot[k as usize] = at;
            out_edges[at as usize] = GraphEdge {
                other: c.to,
                weight: c.weight,
                constraint: k,
            };
            at += 1;
        }
        head.copy_from_slice(&in_offsets[..n]);
        for (k, c) in constraints.iter().enumerate() {
            if rep[k] != k as u32 {
                continue;
            }
            let i = &mut head[c.to.index()];
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
        for k in 0..m {
            if rep[k] != k as u32 {
                out_slot[k] = out_slot[rep[k] as usize];
                in_slot[k] = in_slot[rep[k] as usize];
            }
        }

        // The keys are unique, so an unstable sort gives the order a
        // stable sort by initial position alone would.
        let mut keys: Vec<(i64, u32)> = (0..m as u32)
            .filter(|&k| rep[k as usize] == k)
            .map(|k| (sys.initial(constraints[k as usize].from), k))
            .collect();
        keys.sort_unstable();
        let sorted = keys.iter().map(|&(_, k)| k).collect();

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

/// Kahn's algorithm over the CSR rows; `None` on any non-vacuous
/// cycle. The order doubles as the queue.
fn topo_order(
    n: usize,
    out_offsets: &[u32],
    out_edges: &[GraphEdge],
    in_offsets: &[u32],
) -> Option<Vec<VarId>> {
    let vacuous = |from: usize, e: &GraphEdge| e.other.index() == from && e.weight <= 0;
    let mut indegree: Vec<u32> = (0..n).map(|v| in_offsets[v + 1] - in_offsets[v]).collect();
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
    let mut order: Vec<VarId> = (0..n)
        .filter(|&v| indegree[v] == 0)
        .map(VarId::from_index)
        .collect();
    let mut head = 0;
    while head < order.len() {
        let v = order[head].index();
        head += 1;
        for e in &out_edges[out_offsets[v] as usize..out_offsets[v + 1] as usize] {
            if vacuous(v, e) {
                continue;
            }
            let t = e.other.index();
            indegree[t] -= 1;
            if indegree[t] == 0 {
                order.push(e.other);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::PitchId;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The hashing election the counting-sort build replaced, kept as
    /// the reference: one `HashMap` entry per `(from, to, pitch)` class,
    /// visited in constraint order.
    fn reference_build(sys: &ConstraintSystem) -> ConstraintGraph {
        let n = sys.num_vars();
        let constraints = sys.constraints();
        let mut rep = vec![0u32; constraints.len()];
        let mut shared = vec![false; constraints.len()];
        type EdgeClass = (VarId, VarId, Option<(PitchId, i64)>);
        let mut best: HashMap<EdgeClass, u32> = HashMap::new();
        for (k, c) in constraints.iter().enumerate() {
            match best.entry((c.from, c.to, c.pitch)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(k as u32);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let b = *e.get() as usize;
                    shared[b] = true;
                    shared[k] = true;
                    if c.weight > constraints[b].weight {
                        e.insert(k as u32);
                    }
                }
            }
        }
        for (k, c) in constraints.iter().enumerate() {
            rep[k] = best[&(c.from, c.to, c.pitch)];
        }
        let is_rep = |k: usize| rep[k] == k as u32;
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for (_, c) in constraints.iter().enumerate().filter(|&(k, _)| is_rep(k)) {
            out_offsets[c.from.index() + 1] += 1;
            in_offsets[c.to.index() + 1] += 1;
        }
        for v in 0..n {
            out_offsets[v + 1] += out_offsets[v];
            in_offsets[v + 1] += in_offsets[v];
        }
        let edges = out_offsets[n] as usize;
        let dummy = GraphEdge {
            other: VarId::from_index(0),
            weight: 0,
            constraint: 0,
        };
        let (mut out_edges, mut in_edges) = (vec![dummy; edges], vec![dummy; edges]);
        let (mut out_fill, mut in_fill) = (out_offsets.clone(), in_offsets.clone());
        let mut out_slot = vec![0u32; constraints.len()];
        let mut in_slot = vec![0u32; constraints.len()];
        for (k, c) in constraints.iter().enumerate().filter(|&(k, _)| is_rep(k)) {
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
        for k in 0..constraints.len() {
            out_slot[k] = out_slot[rep[k] as usize];
            in_slot[k] = in_slot[rep[k] as usize];
        }
        let mut sorted: Vec<u32> = (0..constraints.len() as u32)
            .filter(|&k| is_rep(k as usize))
            .collect();
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

    /// A random system: few variables and small weights so parallel
    /// classes, weight ties, equal initial positions and self-loops
    /// (vacuous and positive) are all common; a pitch selector of 0–2
    /// means no term, 3–4 and 5 two distinct terms.
    type Spec = (Vec<i64>, Vec<(usize, usize, i64, u8)>);

    fn system(spec: &Spec) -> ConstraintSystem {
        let (initial, edges) = spec;
        let mut sys = ConstraintSystem::new();
        let vars: Vec<VarId> = initial.iter().map(|&x| sys.add_var(x)).collect();
        let pitches = [sys.add_pitch("p"), sys.add_pitch("q")];
        for &(a, b, w, sel) in edges {
            let (from, to) = (vars[a % vars.len()], vars[b % vars.len()]);
            match sel {
                0..=2 => {
                    sys.require_slot(from, to, w);
                }
                3 | 4 => sys.require_with_pitch(from, to, w, pitches[0], 1),
                _ => sys.require_with_pitch(from, to, w, pitches[1], -1),
            }
        }
        sys
    }

    fn spec() -> impl Strategy<Value = Spec> {
        (
            proptest::collection::vec(0i64..4, 1..9),
            proptest::collection::vec((0usize..8, 0usize..8, -3i64..4, 0u8..6), 0..40),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn counting_sort_build_matches_the_hash_election(s in spec()) {
            let sys = system(&s);
            let built = ConstraintGraph::build(&sys);
            let reference = reference_build(&sys);
            prop_assert_eq!(&built.rep, &reference.rep);
            prop_assert_eq!(&built.shared, &reference.shared);
            prop_assert_eq!(&built, &reference);
        }

        #[test]
        fn patches_agree_with_the_hash_election(
            s in spec(),
            edits in proptest::collection::vec((0usize..40, -3i64..5), 1..24),
        ) {
            let mut sys = system(&s);
            let m = sys.constraints().len();
            if m == 0 {
                continue;
            }
            let mut built = ConstraintGraph::build(&sys);
            let mut reference = reference_build(&sys);
            for (k, w) in edits {
                let k = k % m;
                let c = sys.constraints()[k];
                if c.weight == w {
                    continue;
                }
                // Mirrors `set_weight`: a self-loop crossing the
                // vacuousness boundary always rebuilds.
                let flips = c.from == c.to && (c.weight <= 0) != (w <= 0);
                let patched = !flips && built.try_patch(k, w);
                prop_assert_eq!(patched, !flips && reference.try_patch(k, w));
                sys.set_weight(k, w);
                if !patched {
                    built = ConstraintGraph::build(&sys);
                    reference = reference_build(&sys);
                }
                prop_assert_eq!(&built, &reference);
                prop_assert_eq!(&built, &ConstraintGraph::build(&sys));
            }
        }
    }

    #[test]
    fn pitch_classes_share_endpoints_but_not_representatives() {
        let mut sys = ConstraintSystem::new();
        let a = sys.add_var(0);
        let b = sys.add_var(5);
        let p = sys.add_pitch("p");
        sys.require_slot(a, b, 3);
        sys.require_with_pitch(a, b, 9, p, 1);
        sys.require_slot(a, b, 4);
        sys.require_with_pitch(a, b, 9, p, 2);
        sys.require_with_pitch(a, b, 10, p, 1);
        let g = ConstraintGraph::build(&sys);
        assert_eq!(g.rep, vec![2, 4, 2, 3, 4]);
        assert_eq!(g.shared, vec![true, true, true, false, true]);
        assert_eq!(g, reference_build(&sys));
    }
}
