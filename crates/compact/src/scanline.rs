//! Constraint generation by scanning (§6.4.1), generic over the sweep
//! [`Axis`].
//!
//! Two methods are provided, reproducing the paper's comparison:
//!
//! * [`Method::Band`] — the naive band scan the paper's first compactor
//!   used: every pair of facing edges on interacting layers whose boxes
//!   share a range across the sweep axis gets a spacing constraint,
//!   **including hidden edges**. On a fragmented bus (Fig 6.5) this
//!   "would force the x size of the final layout to be at least nλ".
//! * [`Method::Visibility`] — the correct scan line (Fig 6.7): "the scan
//!   line contains information of what a viewer on the scan line looking
//!   toward the left would see"; hidden edges never appear, so merging
//!   of abutting boxes is implicitly taken care of.
//!
//! Both methods also emit, for every box, an exact width constraint (the
//! compactor preserves widths — device and bus sizing is the business of
//! the masking cells, §6.4.1), and connectivity constraints keeping
//! same-layer boxes that touched in the input touching in the output.
//!
//! Candidate pairs are enumerated through the [`GeomIndex`] bucket
//! columns rather than an all-pairs scan, and the emitted spacing set is
//! put through a transitive-reduction prune ([`Prune::Apply`]): a
//! spacing edge `a → b` already implied by a tighter chain through an
//! interposed box `k` (`a → k`, `k`'s exact width, `k → b`) is dropped
//! before the solver ever sees it. Pruning is *solution-identical* —
//! the feasible region is unchanged, so solved positions, extents, and
//! feasibility verdicts match the unpruned system exactly (DESIGN.md,
//! "Constraint pruning + sweep arenas").
//!
//! The paper describes the x sweep only and obtains y by transposing the
//! whole layout; here the sweep axis is a parameter, so the y pass runs
//! on the same geometry with no copy. Throughout, *along* means the
//! sweep axis (edge coordinates that become variables) and *across* the
//! perpendicular axis (frozen during the sweep).

use crate::scratch::ScanScratch;
use crate::{ConstraintSystem, VarId};
use rsg_geom::{Axis, CoverageProfile, GeomIndex, Rect};
use rsg_layout::{DesignRules, Layer};

/// The two moving-edge variables of one input box along the sweep axis.
///
/// For an x sweep `left`/`right` are the west/east vertical edges; for a
/// y sweep they are the south/north horizontal edges (low/high ordinate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxVars {
    /// Variable of the low edge along the sweep axis.
    pub left: VarId,
    /// Variable of the high edge along the sweep axis.
    pub right: VarId,
}

/// Which constraint generation strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Naive band scan: hidden edges constrained too (overconstrains).
    Band,
    /// Correct visibility scan: only visible edge pairs constrained.
    Visibility,
}

/// Whether to drop spacing constraints that a tighter two-hop chain
/// already implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Prune {
    /// Transitive-reduction-during-generation (the default): smaller
    /// graph, identical solutions.
    #[default]
    Apply,
    /// Keep every generated spacing constraint — the reference behavior
    /// the equivalence proptests compare against.
    Keep,
}

/// Generates the constraint system along `axis` for a flat box list.
///
/// Returns the system plus the per-box edge variables (in input order).
/// Edges perpendicular to the sweep "play no role in the constraint
/// representation and are assumed to shrink or expand in response" —
/// coordinates across the axis are untouched throughout.
///
/// With [`Prune::Keep`] the full spacing emission is kept (the
/// reference the pruning-equivalence tests compare against).
pub fn generate(
    boxes: &[(Layer, Rect)],
    rules: &DesignRules,
    method: Method,
    axis: Axis,
    prune: Prune,
) -> (ConstraintSystem, Vec<BoxVars>) {
    let mut sys = ConstraintSystem::new_along(axis);
    let vars = append_boxes(
        &mut sys,
        boxes,
        rules,
        method,
        prune,
        &mut ScanScratch::new(),
    );
    (sys, vars)
}

/// Allocates the two edge variables of each box (low then high, in box
/// order) along [`ConstraintSystem::axis`] and appends the width,
/// connectivity and (pruned) spacing constraints between them, drawing
/// every buffer from `scratch` — the building block [`generate`], the
/// flat engine and the leaf compactor (once per cell) share.
pub(crate) fn append_boxes(
    sys: &mut ConstraintSystem,
    boxes: &[(Layer, Rect)],
    rules: &DesignRules,
    method: Method,
    prune: Prune,
    scratch: &mut ScanScratch,
) -> Vec<BoxVars> {
    let axis = sys.axis();
    let vars: Vec<BoxVars> = boxes
        .iter()
        .map(|(_, r)| BoxVars {
            left: sys.add_var(r.lo_along(axis)),
            right: sys.add_var(r.hi_along(axis)),
        })
        .collect();

    // One spatial index serves candidate enumeration (spacing and
    // connectivity) and the hidden-edge oracle. Its storage — bucket
    // columns and the item list — is recycled from the previous scan.
    let ScanScratch {
        index, items, cand, ..
    } = scratch;
    items.clear();
    items.extend_from_slice(boxes);
    let stale = index.rebuild_from_vec(std::mem::take(items), axis);
    *items = stale;

    // Width preservation.
    for ((_, r), bv) in boxes.iter().zip(&vars) {
        sys.require_exact(bv.left, bv.right, r.extent_along(axis));
    }

    // Connectivity: same-layer boxes that touch or overlap stay rigidly
    // attached (their overlap along the axis is preserved exactly).
    // Connected nets are rigid bodies in this compactor; only the space
    // between disconnected groups compresses — device and bus resizing
    // belongs to the masking cells, not the compactor (§6.4.1).
    //
    // Candidates come from the box's own layer bucket
    // ([`GeomIndex::touching_after`]: "touches, not strictly below"),
    // sorted back to input order to match the historical j-ascending
    // emission.
    for (i, &(_, ra)) in boxes.iter().enumerate() {
        cand.clear();
        cand.extend(index.touching_after(i).map(|k| (k, 0)));
        cand.sort_unstable_by_key(|&(j, _)| j);
        let lo = ra.lo_along(axis);
        for &(j, _) in cand.iter() {
            let rb = boxes[j].1;
            sys.require_exact(vars[i].left, vars[j].left, rb.lo_along(axis) - lo);
        }
    }

    // Spacing constraints over every candidate pair.
    scan_spacings(scratch, rules, method, |_, _| true);

    // A chain through box `k` also crosses `k`'s exact width.
    let ScanScratch {
        spacings,
        keep,
        starts,
        ..
    } = scratch;
    let width = |k: usize| boxes[k].1.extent_along(axis);
    reduce_transitively(boxes.len(), spacings, |&e| e, width, prune, starts, keep);
    for (&(i, j, spacing), _) in spacings.iter().zip(keep.iter()).filter(|(_, &k)| k) {
        sys.require(vars[i].right, vars[j].left, spacing);
    }
    vars
}

/// Fills `scratch.spacings` with the `(i, j, spacing)` triples over the
/// boxes of `scratch.index`, in the historical (i ascending, j
/// ascending) emission order: each [`spacing_candidates`] pair that
/// `pair` accepts and, under [`Method::Visibility`], the hidden-edge
/// oracle does not hide. The oracle answers coverage queries from the
/// same index instead of rescanning every box per candidate pair. The
/// flat sweep accepts every pair; the leaf compactor's cross scan keeps
/// only pairs that straddle an interface.
pub(crate) fn scan_spacings(
    scratch: &mut ScanScratch,
    rules: &DesignRules,
    method: Method,
    pair: impl Fn(usize, usize) -> bool,
) {
    let ScanScratch {
        index,
        spacings,
        cand,
        profiles,
        ..
    } = scratch;
    spacings.clear();
    let mut cursor = (method == Method::Visibility)
        .then(|| VisibilityCursor::with_cache(index, std::mem::take(profiles)));
    for i in 0..index.len() {
        spacing_candidates(index, rules, i, cand);
        for &(j, spacing) in cand.iter() {
            if !pair(i, j)
                || cursor
                    .as_mut()
                    .is_some_and(|c| c.hidden_between(i, j, None))
            {
                continue;
            }
            spacings.push((i, j, spacing));
        }
    }
    if let Some(c) = cursor {
        *profiles = c.into_cache();
    }
}

/// Fills `cand` with the spacing candidates of box `i` of `index`,
/// sorted by partner: every `(j, spacing)` where a rule `spacing` holds
/// between the two layers, `j`'s low edge along the axis is at or past
/// `i`'s high edge, and `j`'s across span strictly overlaps `i`'s.
/// Same-layer partners that touch `i` are connected material, never
/// spaced, and are left out. The flat sweep and the leaf compactor's
/// cross scan share it; the hierarchical cell pass walks partner
/// clusters instead (`hier::enumerate_pairs`).
///
/// Each partner sits in exactly one layer bucket, so it appears once;
/// the sort restores the (i ascending, j ascending) visiting order the
/// emitters' tie-breaking depends on.
fn spacing_candidates(
    index: &GeomIndex<Layer>,
    rules: &DesignRules,
    i: usize,
    cand: &mut Vec<(usize, i64)>,
) {
    let axis = index.axis();
    let (layer_a, ra) = index.items()[i];
    let from = ra.hi_along(axis);
    let across = (ra.lo_across(axis), ra.hi_across(axis));
    cand.clear();
    for layer_b in index.labels() {
        let Some(spacing) = rules.min_spacing(layer_a, layer_b) else {
            continue;
        };
        for k in index.ordered_after(layer_b, from, across, 0) {
            let touching = layer_b == layer_a && ra.intersect(index.items()[k].1).is_some();
            if k != i && !touching {
                cand.push((k, spacing));
            }
        }
    }
    cand.sort_unstable_by_key(|&(j, _)| j);
}

/// The transitive-reduction prune both constraint generators share: the
/// flat scanline over spacing triples and the hierarchical cell pass
/// over cluster origin edges. Marks `keep[e]` for every edge of `edges`
/// that survives; with [`Prune::Keep`] every edge does.
///
/// `edges` is sorted by `(from, to)` over `n` nodes and `ends` reads one
/// as `(from, to, weight)`. An edge `(a, b, w_ab)` is dropped when some
/// kept interposed node `c` carries edges `(a, c, w_ac)` and
/// `(c, b, w_cb)` with `w_ac + via(c) + w_cb ≥ w_ab`: every feasible
/// solution already satisfies the chain, so the dropped edge never
/// binds. `via(c)` is what the chain gains crossing `c` itself — box
/// `c`'s exact width in the flat sweep, 0 in the hierarchical one, whose
/// cluster extents are pre-folded into the origin weights. Edges are
/// considered in order and chains only use edges not yet dropped;
/// soundness of that greedy rule follows by reverse induction on drop
/// order (DESIGN.md). Deterministic: same list in, same marks out, on
/// every thread count. `starts` is a recycled offsets buffer.
pub(crate) fn reduce_transitively<E>(
    n: usize,
    edges: &[E],
    ends: impl Fn(&E) -> (usize, usize, i64),
    via: impl Fn(usize) -> i64,
    prune: Prune,
    starts: &mut Vec<usize>,
    keep: &mut Vec<bool>,
) {
    keep.clear();
    keep.resize(edges.len(), true);
    // A drop needs three edges: the direct one and a two-hop chain.
    if prune == Prune::Keep || edges.len() < 3 {
        return;
    }
    // Bucket offsets by source node.
    starts.clear();
    starts.resize(n + 1, 0);
    for e in edges {
        starts[ends(e).0 + 1] += 1;
    }
    for a in 0..n {
        starts[a + 1] += starts[a];
    }
    for idx in 0..edges.len() {
        let (a, b, w_ab) = ends(&edges[idx]);
        for m in starts[a]..starts[a + 1] {
            if !keep[m] {
                continue;
            }
            let (_, c, w_ac) = ends(&edges[m]);
            if c == b {
                continue;
            }
            let row = &edges[starts[c]..starts[c + 1]];
            let Ok(p) = row.binary_search_by(|e| ends(e).1.cmp(&b)) else {
                continue;
            };
            let m2 = starts[c] + p;
            if !keep[m2] {
                continue;
            }
            // Checked, not saturating: a saturated chain sum would
            // compare as "dominates" and drop an edge the chain does
            // not actually imply. Overflow means "cannot prove
            // dominance", so the direct edge is kept.
            let dominated = w_ac
                .checked_add(via(c))
                .and_then(|v| v.checked_add(ends(&edges[m2]).2))
                .is_some_and(|chain| chain >= w_ab);
            if dominated {
                keep[idx] = false;
                break;
            }
        }
    }
}

/// The hidden-edge oracle of Fig 6.4: a read-only [`GeomIndex`] plus a
/// per-low-box profile cache.
///
/// A pair `(i, j)` is *hidden* when the gap between box `i`'s high edge
/// and box `j`'s low edge (along the sweep axis) is fully covered, over
/// their shared across-axis range, by material on either box's layer.
///
/// The old implementation rescanned every box and re-decomposed the gap
/// region per candidate pair — the O(n²)-per-pair cost that made the
/// visibility scan 33× slower than the band scan. The cursor instead
/// builds, once per `(low box, partner layer)` combination, a
/// [`CoverageProfile`]: how far contiguous material extends rightward
/// from `i`'s high edge at every across position. Every `j` on that
/// layer then answers in one range-minimum lookup, because the pair is
/// hidden exactly when the minimum coverage reach over the shared
/// across range reaches `j`'s low edge.
pub(crate) struct VisibilityCursor<'a> {
    index: &'a GeomIndex<Layer>,
    /// Profiles for the current low box, keyed by partner layer.
    profiles: Vec<(Layer, CoverageProfile)>,
    /// The low box the cached profiles belong to.
    owner: usize,
}

impl<'a> VisibilityCursor<'a> {
    /// A cursor reusing `cache`'s allocation (contents are discarded).
    pub(crate) fn with_cache(
        index: &'a GeomIndex<Layer>,
        mut cache: Vec<(Layer, CoverageProfile)>,
    ) -> VisibilityCursor<'a> {
        cache.clear();
        VisibilityCursor {
            index,
            profiles: cache,
            owner: usize::MAX,
        }
    }

    /// Hands the cache allocation back for the next scan.
    pub(crate) fn into_cache(self) -> Vec<(Layer, CoverageProfile)> {
        self.profiles
    }

    /// The hidden-edge test for the pair `(i, j)` of `index.items()`,
    /// equivalent to the retired per-pair region scan. Queries for one
    /// `i` should be batched (as the generation loops naturally do):
    /// switching `i` drops the cached profiles.
    ///
    /// Each profile is built once, up to a cap: a profile's reach is
    /// exact up to it, so material past the cap cannot decide a query
    /// whose `j` starts at or before it. `None` caps at the furthest low
    /// edge on `j`'s layer in the whole index, which bounds every query.
    /// A caller that knows a tighter bound on the low edge of every `j`
    /// it queries for this `i` with an overlapping across span passes it:
    /// the hierarchical cell pass caps at the furthest high edge of a
    /// partner frame facing the source cluster.
    pub(crate) fn hidden_between(&mut self, i: usize, j: usize, cap: Option<i64>) -> bool {
        let axis = self.index.axis();
        let (layer_i, ra) = self.index.items()[i];
        let (layer_j, rb) = self.index.items()[j];
        let c0 = ra.lo_across(axis).max(rb.lo_across(axis));
        let c1 = ra.hi_across(axis).min(rb.hi_across(axis));
        let a0 = ra.hi_along(axis);
        let a1 = rb.lo_along(axis);
        if a0 >= a1 || c0 >= c1 {
            return false;
        }
        if self.owner != i {
            self.owner = i;
            self.profiles.clear();
        }
        if let Some((_, profile)) = self.profiles.iter().find(|(l, _)| *l == layer_j) {
            return profile.min_reach((c0, c1)) >= a1;
        }
        let until = cap
            .or_else(|| self.index.max_lo(layer_j))
            .unwrap_or(a0)
            .max(a0);
        let window = (ra.lo_across(axis), ra.hi_across(axis));
        let profile = self
            .index
            .coverage_profile(&[layer_i, layer_j], a0, until, window);
        let hidden = profile.min_reach((c0, c1)) >= a1;
        self.profiles.push((layer_j, profile));
        hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, EdgeOrder};
    use rsg_layout::Technology;

    fn rules() -> DesignRules {
        Technology::mead_conway(2).rules.clone()
    }

    /// Fig 6.5: a horizontal diffusion bus fragmented into n abutting
    /// boxes (each at minimum width). The band method generates spacing
    /// constraints between the hidden second-neighbour edges — which
    /// contradict the bus's own connectivity and overconstrain the system
    /// exactly as the paper warns; the visibility method compacts fine.
    fn fragmented_bus(n: usize) -> Vec<(Layer, Rect)> {
        (0..n as i64)
            .map(|k| {
                (
                    Layer::Diffusion,
                    Rect::from_coords(4 * k, 0, 4 * (k + 1), 4),
                )
            })
            .collect()
    }

    #[test]
    fn band_overconstrains_fragmented_bus() {
        let n = 6;
        let boxes = fragmented_bus(n);
        let r = rules();

        let (band, _) = generate(&boxes, &r, Method::Band, Axis::X, Prune::Apply);
        let (vis, vv) = generate(&boxes, &r, Method::Visibility, Axis::X, Prune::Apply);
        assert!(band.constraints().len() > vis.constraints().len());

        // Visibility: the bus survives at its natural length.
        let sol_v = solve(&vis, EdgeOrder::Sorted).unwrap();
        let w_vis = vv.iter().map(|v| sol_v.position(v.right)).max().unwrap()
            - vv.iter().map(|v| sol_v.position(v.left)).min().unwrap();
        assert_eq!(w_vis, 4 * n as i64);

        // Band: hidden-edge spacing demands ≥ 6 between fragments that
        // must stay abutting — infeasible (the overconstraint). The
        // prune preserves feasibility verdicts, so this still fails.
        assert!(solve(&band, EdgeOrder::Sorted).is_err());
    }

    #[test]
    fn hidden_edge_of_fig_6_4_generates_no_constraint() {
        // Two boxes with a middle box masking them (solid-line situation
        // of Fig 6.4): visibility emits no spacing between the outer pair.
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Poly, Rect::from_coords(4, 0, 20, 10)), // covers the gap
            (Layer::Poly, Rect::from_coords(20, 0, 24, 10)),
        ];
        let r = rules();
        let (vis, _) = generate(&boxes, &r, Method::Visibility, Axis::X, Prune::Apply);
        let (band, _) = generate(&boxes, &r, Method::Band, Axis::X, Prune::Keep);
        let spacing_constraints = |s: &ConstraintSystem| {
            s.constraints()
                .iter()
                .filter(|c| c.weight > 0 && c.pitch.is_none())
                .count()
        };
        // Band has the 0↔2 spacing; visibility does not.
        assert!(spacing_constraints(&band) > spacing_constraints(&vis));
    }

    #[test]
    fn partially_hidden_edge_still_constrained() {
        // Fig 6.6: the middle box only covers part of the shared range,
        // so at scan position y₂ the edges see each other — a constraint
        // is required even under visibility.
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(4, 0, 30, 8)), // partial cover
            (Layer::Poly, Rect::from_coords(30, 0, 34, 20)),
        ];
        let r = rules();
        let (vis, vars) = generate(&boxes, &r, Method::Visibility, Axis::X, Prune::Keep);
        let has = vis
            .constraints()
            .iter()
            .any(|c| c.from == vars[0].right && c.to == vars[2].left && c.weight > 0);
        assert!(has, "partially hidden pair must still be constrained");
    }

    #[test]
    fn interacting_layers_only() {
        // Metal1 and poly do not interact in the rule set: no spacing.
        let boxes = vec![
            (Layer::Metal1, Rect::from_coords(0, 0, 6, 10)),
            (Layer::Poly, Rect::from_coords(10, 0, 14, 10)),
        ];
        let (sys, _) = generate(&boxes, &rules(), Method::Visibility, Axis::X, Prune::Apply);
        // Only the 4 width constraints (2 per box).
        assert_eq!(sys.constraints().len(), 4);
    }

    #[test]
    fn no_across_overlap_no_constraint() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Poly, Rect::from_coords(10, 20, 14, 30)),
        ];
        let (sys, _) = generate(&boxes, &rules(), Method::Band, Axis::X, Prune::Apply);
        assert_eq!(sys.constraints().len(), 4);
    }

    #[test]
    fn connectivity_preserved_after_solve() {
        // An L of two overlapping metal boxes plus a far-right box: after
        // compaction the overlap must survive.
        let boxes = vec![
            (Layer::Metal1, Rect::from_coords(0, 0, 20, 6)),
            (Layer::Metal1, Rect::from_coords(16, 0, 22, 30)),
            (Layer::Metal1, Rect::from_coords(60, 0, 70, 6)),
        ];
        let r = rules();
        let (sys, vars) = generate(&boxes, &r, Method::Visibility, Axis::X, Prune::Apply);
        let sol = solve(&sys, EdgeOrder::Sorted).unwrap();
        // Boxes 0 and 1 stay rigidly attached (overlap preserved).
        assert_eq!(
            sol.position(vars[1].left) - sol.position(vars[0].left),
            16,
            "rigid connection"
        );
        // Box 2 pulled in to min spacing from the nearer of the two
        // connected boxes.
        let spacing = r.min_spacing(Layer::Metal1, Layer::Metal1).unwrap();
        let expect = sol.position(vars[0].right).max(sol.position(vars[1].right)) + spacing;
        assert_eq!(sol.position(vars[2].left), expect);
        // No violations under re-check.
        assert!(sys.violations(sol.positions(), &[]).is_empty());
    }

    #[test]
    fn widths_always_preserved() {
        let boxes = vec![
            (Layer::Diffusion, Rect::from_coords(5, 0, 17, 8)),
            (Layer::Diffusion, Rect::from_coords(40, 2, 49, 6)),
        ];
        let (sys, vars) = generate(&boxes, &rules(), Method::Visibility, Axis::X, Prune::Apply);
        let sol = solve(&sys, EdgeOrder::Sorted).unwrap();
        assert_eq!(sol.position(vars[0].right) - sol.position(vars[0].left), 12);
        assert_eq!(sol.position(vars[1].right) - sol.position(vars[1].left), 9);
    }

    #[test]
    fn y_sweep_equals_x_sweep_on_transposed_geometry() {
        // The defining property of the axis-generic generator: sweeping Y
        // over boxes is the same system as sweeping X over the transposed
        // boxes (up to the axis tag). Holds with and without pruning.
        let boxes = vec![
            (Layer::Metal1, Rect::from_coords(0, 0, 20, 6)),
            (Layer::Metal1, Rect::from_coords(0, 40, 20, 46)),
            (Layer::Poly, Rect::from_coords(30, 2, 34, 50)),
        ];
        let transposed: Vec<(Layer, Rect)> =
            boxes.iter().map(|&(l, r)| (l, r.transpose())).collect();
        let r = rules();
        for method in [Method::Band, Method::Visibility] {
            for prune in [Prune::Apply, Prune::Keep] {
                let (sys_y, _) = generate(&boxes, &r, method, Axis::Y, prune);
                let (sys_xt, _) = generate(&transposed, &r, method, Axis::X, prune);
                assert_eq!(sys_y.axis(), Axis::Y);
                assert_eq!(sys_y.constraints(), sys_xt.constraints());
                assert_eq!(sys_y.num_vars(), sys_xt.num_vars());
            }
        }
    }

    #[test]
    fn y_sweep_pulls_rows_together() {
        let boxes = vec![
            (Layer::Metal1, Rect::from_coords(0, 0, 20, 6)),
            (Layer::Metal1, Rect::from_coords(0, 40, 20, 46)), // far above: slack
        ];
        let r = rules();
        let (sys, vars) = generate(&boxes, &r, Method::Visibility, Axis::Y, Prune::Apply);
        let sol = solve(&sys, EdgeOrder::Sorted).unwrap();
        let spacing = r.min_spacing(Layer::Metal1, Layer::Metal1).unwrap();
        assert_eq!(
            sol.position(vars[1].left) - sol.position(vars[0].right),
            spacing
        );
    }

    #[test]
    fn pruning_drops_chain_implied_edges_only() {
        // Three poly boxes in a row with gaps: the 0→2 spacing is implied
        // by 0→1, width(1), 1→2 (spacings 2+2 plus width 10 ≥ 2), so
        // pruning drops exactly that edge and the solutions agree.
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Poly, Rect::from_coords(14, 0, 24, 10)),
            (Layer::Poly, Rect::from_coords(34, 0, 38, 10)),
        ];
        let r = rules();
        let (pruned, pv) = generate(&boxes, &r, Method::Visibility, Axis::X, Prune::Apply);
        let (full, fv) = generate(&boxes, &r, Method::Visibility, Axis::X, Prune::Keep);
        assert_eq!(full.constraints().len(), pruned.constraints().len() + 1);
        let sp = solve(&pruned, EdgeOrder::Sorted).unwrap();
        let sf = solve(&full, EdgeOrder::Sorted).unwrap();
        assert_eq!(sp.positions(), sf.positions());
        assert_eq!(pv, fv);

        // A staggered two-layer row (poly posts of rising height under
        // a metal rail): many implied edges, the same solution.
        let mut row = Vec::new();
        for k in 0..12i64 {
            let x = 11 * k;
            row.push((Layer::Poly, Rect::from_coords(x, 0, x + 4, 10 + k)));
            row.push((Layer::Metal1, Rect::from_coords(x, 12, x + 6, 30)));
        }
        let (pruned, _) = generate(&row, &r, Method::Visibility, Axis::X, Prune::Apply);
        let (full, _) = generate(&row, &r, Method::Visibility, Axis::X, Prune::Keep);
        assert!(pruned.constraints().len() < full.constraints().len());
        let sp = solve(&pruned, EdgeOrder::Sorted).unwrap();
        let sf = solve(&full, EdgeOrder::Sorted).unwrap();
        assert_eq!(sp.positions(), sf.positions());
    }
}
