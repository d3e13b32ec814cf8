//! A layer-bucketed, sweep-ordered spatial index over flat geometry.
//!
//! The constraint generators in this workspace — the visibility
//! scanline of paper §6.4.1, the hierarchical cell pass, and the leaf
//! compactor's cross-interface constraints — ask the same two questions
//! of the same box soup: *which boxes lie after this edge along the
//! sweep axis, overlapping it across?* and *is this gap completely
//! covered by material?* [`GeomIndex`] answers both from one structure
//! built once in O(n log n): per-label buckets sorted along a chosen
//! [`Axis`], each with a running maximum of high edges so coverage scans
//! terminate as soon as no earlier box can still reach the query window.
//!
//! The index is generic over the label type so this crate stays free of
//! layer definitions; `rsg-layout` instantiates it as `GeomIndex<Layer>`.

use crate::{Axis, Rect};

/// One per-label bucket: item ids sorted by their low edge along the
/// sweep axis, with a prefix maximum of high edges for early exit.
///
/// All four box coordinates are mirrored into dense per-bucket columns
/// (struct-of-arrays) so window scans touch only sequential `i64` data
/// instead of chasing `(label, Rect)` pairs through the item table —
/// at 10⁶ boxes the pointer chase is the scan's dominant cost.
#[derive(Debug, Clone)]
struct Bucket<L> {
    label: L,
    /// Item indices (into [`GeomIndex::items`]) sorted by `lo_along`.
    order: Vec<u32>,
    /// `lo_along` of each entry in sorted order (binary-search key).
    lo: Vec<i64>,
    /// `hi_along` of each entry in sorted order.
    hi: Vec<i64>,
    /// `lo_across` of each entry in sorted order.
    across_lo: Vec<i64>,
    /// `hi_across` of each entry in sorted order.
    across_hi: Vec<i64>,
    /// `prefix_max_hi[k] = max(hi_along of entries 0..=k)`.
    prefix_max_hi: Vec<i64>,
}

impl<L> Bucket<L> {
    fn empty(label: L) -> Bucket<L> {
        Bucket {
            label,
            order: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            across_lo: Vec::new(),
            across_hi: Vec::new(),
            prefix_max_hi: Vec::new(),
        }
    }
}

/// A sweep-ordered spatial index over labelled rectangles.
///
/// Built once from a flat `(label, rect)` list; all queries are phrased
/// relative to the build [`Axis`] (*along* = the sweep direction,
/// *across* = the frozen perpendicular direction).
///
/// # Example
///
/// ```
/// use rsg_geom::{Axis, GeomIndex, Rect};
///
/// let items = vec![
///     ('a', Rect::from_coords(0, 0, 4, 10)),
///     ('a', Rect::from_coords(20, 0, 24, 10)),
///     ('b', Rect::from_coords(50, 0, 54, 10)),
/// ];
/// let index = GeomIndex::build(&items, Axis::X);
/// // Boxes of label 'a' starting at or after x = 4, overlapping y ∈ (0, 10):
/// let after: Vec<usize> = index.ordered_after('a', 4, (0, 10), 0).collect();
/// assert_eq!(after, vec![1]);
/// assert!(index.ordered_after('b', 60, (0, 10), 0).next().is_none());
/// // The gap between the two 'a' boxes is not covered by material:
/// assert!(!index.interval_coverage(&['a'], (4, 20), (0, 10)));
/// ```
#[derive(Debug, Clone)]
pub struct GeomIndex<L> {
    axis: Axis,
    items: Vec<(L, Rect)>,
    /// Buckets sorted by label for binary search.
    buckets: Vec<Bucket<L>>,
}

impl<L: Copy + Ord> GeomIndex<L> {
    /// Builds the index from a flat item list along `axis`.
    ///
    /// Items keep their input positions: every query yields indices into
    /// the original slice (also available as [`GeomIndex::items`]).
    pub fn build(items: &[(L, Rect)], axis: Axis) -> GeomIndex<L> {
        GeomIndex::build_from_vec(items.to_vec(), axis)
    }

    /// [`GeomIndex::build`] taking ownership — spares the copy when the
    /// caller's vector would be dropped anyway (as in flattening).
    pub fn build_from_vec(items: Vec<(L, Rect)>, axis: Axis) -> GeomIndex<L> {
        let mut index = GeomIndex {
            axis,
            items: Vec::new(),
            buckets: Vec::new(),
        };
        let _ = index.rebuild_from_vec(items, axis);
        index
    }

    /// Rebuilds this index in place from a fresh item list along `axis`,
    /// recycling the bucket columns (capacity is kept, contents are
    /// replaced). Returns the previous item vector — still holding its
    /// stale contents — so a sweep arena can clear and refill it for the
    /// next rebuild instead of reallocating.
    pub fn rebuild_from_vec(&mut self, items: Vec<(L, Rect)>, axis: Axis) -> Vec<(L, Rect)> {
        self.axis = axis;
        let old = std::mem::replace(&mut self.items, items);
        let items = &self.items;
        let mut shells = std::mem::take(&mut self.buckets);
        for b in &mut shells {
            b.order.clear();
            b.lo.clear();
            b.hi.clear();
            b.across_lo.clear();
            b.across_hi.clear();
            b.prefix_max_hi.clear();
        }
        let mut labels: Vec<L> = items.iter().map(|&(l, _)| l).collect();
        labels.sort_unstable();
        labels.dedup();
        let mut buckets: Vec<Bucket<L>> = labels
            .into_iter()
            .map(|label| match shells.pop() {
                Some(mut shell) => {
                    shell.label = label;
                    shell
                }
                None => Bucket::empty(label),
            })
            .collect();
        for (k, &(label, _)) in items.iter().enumerate() {
            // The bucket list was deduped from these same items, so the
            // search succeeds; the Err arm keeps the loop total (and the
            // bucket list sorted) without a panic path.
            let b = match buckets.binary_search_by(|b| b.label.cmp(&label)) {
                Ok(b) => b,
                Err(i) => {
                    buckets.insert(i, Bucket::empty(label));
                    i
                }
            };
            buckets[b].order.push(k as u32);
        }
        for bucket in &mut buckets {
            bucket
                .order
                .sort_by_key(|&k| (items[k as usize].1.lo_along(axis), k));
            let mut max_hi = i64::MIN;
            for &k in &bucket.order {
                let r = items[k as usize].1;
                bucket.lo.push(r.lo_along(axis));
                bucket.hi.push(r.hi_along(axis));
                bucket.across_lo.push(r.lo_across(axis));
                bucket.across_hi.push(r.hi_across(axis));
                max_hi = max_hi.max(r.hi_along(axis));
                bucket.prefix_max_hi.push(max_hi);
            }
        }
        self.buckets = buckets;
        old
    }

    /// The sweep axis the index was built along.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// The indexed items, in their original input order.
    pub fn items(&self) -> &[(L, Rect)] {
        &self.items
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The distinct labels present, in ascending order.
    pub fn labels(&self) -> impl Iterator<Item = L> + '_ {
        self.buckets.iter().map(|b| b.label)
    }

    /// The largest low edge along the axis among boxes on `label`
    /// (`None` for absent labels) — the natural cap for coverage
    /// profiles queried against that label's boxes.
    pub fn max_lo(&self, label: L) -> Option<i64> {
        self.bucket(label).and_then(|b| b.lo.last().copied())
    }

    fn bucket(&self, label: L) -> Option<&Bucket<L>> {
        self.buckets
            .binary_search_by(|b| b.label.cmp(&label))
            .ok()
            .map(|k| &self.buckets[k])
    }

    /// Item indices on `label` whose low edge along the axis is at or
    /// past `from` and whose across span strictly overlaps `across`
    /// widened by `slack` on both sides, in ascending low-edge order
    /// (ties by input index).
    ///
    /// This is the constraint generator's candidate walk: for a low box
    /// ending at `from`, every spacing partner on `label` lies in this
    /// sequence, so the generator touches only the bucket's dense
    /// coordinate columns instead of filtering the whole box soup per
    /// pair.
    pub fn ordered_after(
        &self,
        label: L,
        from: i64,
        across: (i64, i64),
        slack: i64,
    ) -> impl Iterator<Item = usize> + '_ {
        let (bucket, start) = match self.bucket(label) {
            Some(b) => (Some(b), b.lo.partition_point(|&lo| lo < from)),
            None => (None, 0),
        };
        let (c0, c1) = (across.0 - slack, across.1 + slack);
        let mut pos = start;
        std::iter::from_fn(move || {
            let b = bucket?;
            while pos < b.order.len() {
                let k = pos;
                pos += 1;
                if b.across_lo[k] < c1 && b.across_hi[k] > c0 {
                    return Some(b.order[k] as usize);
                }
            }
            None
        })
    }

    /// Item indices on item `k`'s label whose boxes touch box `k`
    /// (closed intersection: overlapping or abutting, corners included)
    /// and whose low edge along the axis lies within `k`'s along span,
    /// in ascending low-edge order; `k` itself is skipped.
    ///
    /// Every touching pair is reported from the box with the lower low
    /// edge (from both boxes when the low edges tie), so walking every
    /// `k` visits every touching pair at least once while each walk
    /// stops at `k`'s high edge.
    pub fn touching_after(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        let (label, r) = self.items[k];
        let axis = self.axis;
        let hi = r.hi_along(axis);
        // On integer coordinates, strict overlap of the across span
        // widened by 1 is closed overlap of the span itself.
        self.ordered_after(
            label,
            r.lo_along(axis),
            (r.lo_across(axis), r.hi_across(axis)),
            1,
        )
        .take_while(move |&j| self.items[j].1.lo_along(axis) <= hi)
        .filter(move |&j| j != k)
    }

    /// `true` when the region `along × across` is completely covered by
    /// the union of boxes on the given labels, counting only
    /// positive-area contributions. Empty regions are trivially covered.
    ///
    /// This is the hidden-edge condition of paper Fig 6.4 phrased as a
    /// query: the constraint generator asks it for the gap between two
    /// facing edges.
    pub fn interval_coverage(&self, labels: &[L], along: (i64, i64), across: (i64, i64)) -> bool {
        if along.0 >= along.1 || across.0 >= across.1 {
            return true;
        }
        self.coverage_profile(labels, along.0, along.1, across)
            .min_reach(across)
            >= along.1
    }

    /// Builds the coverage reach profile for material on `labels`
    /// starting at along-coordinate `start`, capped at `until`, over the
    /// across-axis window `across`.
    ///
    /// The profile answers, for every across position `y` in the window,
    /// how far contiguous material coverage extends from `start` — the
    /// building block that lets a visibility scan answer *many* gap
    /// queries sharing one left edge from a single O(window) pass
    /// instead of rescanning all boxes per candidate pair.
    pub fn coverage_profile(
        &self,
        labels: &[L],
        start: i64,
        until: i64,
        across: (i64, i64),
    ) -> CoverageProfile {
        // Candidates: boxes on the labels intersecting the along window
        // [start, until] with positive across overlap of the window.
        // The scan reads only the bucket's dense coordinate columns.
        let mut cand: Vec<BoxSpan> = Vec::new();
        let mut seen_labels: Vec<L> = Vec::new();
        for &label in labels {
            if seen_labels.contains(&label) {
                continue; // identical labels would double-count a bucket
            }
            seen_labels.push(label);
            let Some(b) = self.bucket(label) else {
                continue;
            };
            let mut pos = b.lo.partition_point(|&lo| lo <= until);
            while pos > 0 {
                pos -= 1;
                if b.prefix_max_hi[pos] < start {
                    break; // nothing earlier can reach the window
                }
                if b.hi[pos] > start && b.across_lo[pos] < across.1 && b.across_hi[pos] > across.0 {
                    cand.push(BoxSpan {
                        lo: b.lo[pos],
                        hi: b.hi[pos],
                        across_lo: b.across_lo[pos],
                        across_hi: b.across_hi[pos],
                    });
                }
            }
        }
        CoverageProfile::build(start, until, across, &cand)
    }
}

/// A box reduced to its four axis-relative edges — what coverage
/// profiling needs, already resolved against the index's sweep axis.
#[derive(Debug, Clone, Copy)]
struct BoxSpan {
    lo: i64,
    hi: i64,
    across_lo: i64,
    across_hi: i64,
}

/// Piecewise-constant coverage reach over an across-axis window: for
/// each elementary across strip, the furthest along-coordinate `f` such
/// that `[start, f]` is contiguously covered by candidate material at
/// every across position of the strip.
///
/// Produced by [`GeomIndex::coverage_profile`]; queried with
/// [`CoverageProfile::min_reach`].
#[derive(Debug, Clone)]
pub struct CoverageProfile {
    start: i64,
    /// Across-axis strip boundaries spanning the build window
    /// (`cuts.len() == reach.len() + 1`).
    cuts: Vec<i64>,
    /// Coverage reach on the open strip `(cuts[k], cuts[k+1])`.
    reach: Vec<i64>,
}

impl CoverageProfile {
    fn build(start: i64, until: i64, window: (i64, i64), cand: &[BoxSpan]) -> Self {
        let mut cuts: Vec<i64> = cand
            .iter()
            .flat_map(|r| [r.across_lo, r.across_hi])
            .filter(|&c| c > window.0 && c < window.1)
            .collect();
        cuts.push(window.0);
        cuts.push(window.1);
        cuts.sort_unstable();
        cuts.dedup();
        let mut reach = Vec::with_capacity(cuts.len() - 1);
        let mut ivs: Vec<(i64, i64)> = Vec::new();
        for w in cuts.windows(2) {
            let (s0, s1) = (w[0], w[1]);
            // Along intervals of boxes spanning this whole strip, merged
            // contiguously from `start` (capped at `until`: material past
            // the cap cannot change any answer at or below it).
            ivs.clear();
            ivs.extend(
                cand.iter()
                    .filter(|r| r.across_lo <= s0 && r.across_hi >= s1)
                    .map(|r| (r.lo, r.hi)),
            );
            ivs.sort_unstable();
            let mut f = start;
            for &(lo, hi) in ivs.iter() {
                if lo > f {
                    break; // gap: coverage cannot continue
                }
                f = f.max(hi);
                if f >= until {
                    f = until;
                    break;
                }
            }
            reach.push(f);
        }
        CoverageProfile { start, cuts, reach }
    }

    /// The along-coordinate coverage starts from.
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Minimum coverage reach over all strips with positive overlap of
    /// the open across interval `(across.0, across.1)`.
    ///
    /// Returns `i64::MAX` for empty query intervals (no strip to fail).
    pub fn min_reach(&self, across: (i64, i64)) -> i64 {
        if across.0 >= across.1 {
            return i64::MAX;
        }
        let mut min = i64::MAX;
        for (k, w) in self.cuts.windows(2).enumerate() {
            if w[0] >= across.1 {
                break;
            }
            if w[1] > across.0 {
                min = min.min(self.reach[k]);
            }
        }
        // Across positions outside the build window have no material.
        if across.0 < self.cuts[0] || across.1 > self.cuts[self.cuts.len() - 1] {
            min = min.min(self.start);
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items() -> Vec<(char, Rect)> {
        vec![
            ('p', Rect::from_coords(0, 0, 4, 10)),
            ('p', Rect::from_coords(4, 0, 20, 10)),
            ('p', Rect::from_coords(20, 0, 24, 10)),
            ('m', Rect::from_coords(6, 20, 10, 40)),
        ]
    }

    #[test]
    fn build_and_basic_queries() {
        let idx = GeomIndex::build(&items(), Axis::X);
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        assert_eq!(idx.axis(), Axis::X);
        assert_eq!(idx.labels().collect::<Vec<_>>(), vec!['m', 'p']);
        assert_eq!(idx.items()[3].0, 'm');
    }

    #[test]
    fn coverage_full_and_gapped() {
        let idx = GeomIndex::build(&items(), Axis::X);
        // The three 'p' boxes tile [0, 24] over y ∈ [0, 10].
        assert!(idx.interval_coverage(&['p'], (4, 20), (0, 10)));
        assert!(idx.interval_coverage(&['p'], (0, 24), (2, 8)));
        // Beyond the tiling: uncovered.
        assert!(!idx.interval_coverage(&['p'], (4, 25), (0, 10)));
        // Across range outside the material: uncovered.
        assert!(!idx.interval_coverage(&['p'], (4, 20), (0, 11)));
        // 'm' material is elsewhere entirely.
        assert!(!idx.interval_coverage(&['m'], (4, 20), (0, 10)));
        // Degenerate regions are trivially covered.
        assert!(idx.interval_coverage(&['p'], (4, 4), (0, 10)));
        assert!(idx.interval_coverage(&['p'], (4, 20), (10, 10)));
    }

    #[test]
    fn coverage_requires_contiguity_from_start() {
        // Material exists further right but a gap at the start breaks
        // contiguous coverage.
        let items = vec![
            ('p', Rect::from_coords(10, 0, 20, 10)), // starts past 4
        ];
        let idx = GeomIndex::build(&items, Axis::X);
        assert!(!idx.interval_coverage(&['p'], (4, 20), (0, 10)));
    }

    #[test]
    fn coverage_combines_labels_and_partial_strips() {
        // Two layers each cover half the across range of the gap.
        let items = vec![
            ('a', Rect::from_coords(10, 0, 20, 5)),
            ('b', Rect::from_coords(10, 5, 20, 10)),
        ];
        let idx = GeomIndex::build(&items, Axis::X);
        assert!(idx.interval_coverage(&['a', 'b'], (10, 20), (0, 10)));
        assert!(!idx.interval_coverage(&['a'], (10, 20), (0, 10)));
        // Duplicate labels do not double-count.
        assert!(idx.interval_coverage(&['a', 'a', 'b'], (10, 20), (0, 10)));
    }

    #[test]
    fn profile_reach_and_min() {
        let idx = GeomIndex::build(&items(), Axis::X);
        let p = idx.coverage_profile(&['p'], 4, 24, (0, 10));
        assert_eq!(p.start(), 4);
        assert_eq!(p.min_reach((0, 10)), 24);
        // Querying outside the build window sees no material.
        assert_eq!(p.min_reach((0, 12)), 4);
        // Empty query interval: vacuous.
        assert_eq!(p.min_reach((5, 5)), i64::MAX);
    }

    #[test]
    fn ordered_after_walks_candidates_in_lo_order() {
        let idx = GeomIndex::build(&items(), Axis::X);
        // Partners of a box ending at x = 4 over y ∈ (0, 10).
        let after: Vec<usize> = idx.ordered_after('p', 4, (0, 10), 0).collect();
        assert_eq!(after, vec![1, 2]);
        // Strict across overlap: the 'm' box sits at y ∈ [20, 40].
        assert!(idx.ordered_after('m', 0, (0, 10), 0).next().is_none());
        // …but a slack window can reach it.
        let near: Vec<usize> = idx.ordered_after('m', 0, (0, 10), 12).collect();
        assert_eq!(near, vec![3]);
        // Unknown label: empty.
        assert!(idx.ordered_after('z', 0, (0, 10), 0).next().is_none());
    }

    #[test]
    fn touching_after_reports_each_touching_pair_from_its_lower_box() {
        let items = vec![
            ('p', Rect::from_coords(0, 0, 4, 10)),
            ('p', Rect::from_coords(4, 10, 8, 20)), // corner-touches 0
            ('p', Rect::from_coords(2, 0, 6, 4)),   // overlaps 0 only
            ('p', Rect::from_coords(9, 0, 12, 10)), // 1 past box 1
            ('m', Rect::from_coords(4, 0, 8, 10)),  // other label
        ];
        let idx = GeomIndex::build(&items, Axis::X);
        let from = |k: usize| idx.touching_after(k).collect::<Vec<_>>();
        // Ascending low edge; the corner contact counts.
        assert_eq!(from(0), vec![2, 1]);
        // Box 0 touches 2 but starts below it: reported from 0 only.
        assert!(from(2).is_empty());
        assert!(from(1).is_empty());
        assert!(from(3).is_empty());
        assert!(from(4).is_empty());
        // Tied low edges: the pair is reported from both sides.
        let tied = vec![
            ('p', Rect::from_coords(0, 0, 4, 4)),
            ('p', Rect::from_coords(4, 0, 8, 4)),
        ];
        let idx = GeomIndex::build(&tied, Axis::Y);
        assert_eq!(idx.touching_after(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(idx.touching_after(1).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn rebuild_reuses_storage_and_matches_cold_build() {
        let mut idx = GeomIndex::build(&items(), Axis::X);
        let next = vec![
            ('q', Rect::from_coords(0, 0, 5, 5)),
            ('p', Rect::from_coords(10, 0, 15, 5)),
        ];
        let mut old = idx.rebuild_from_vec(next.clone(), Axis::Y);
        assert_eq!(old.len(), 4, "previous items returned for recycling");
        old.clear();
        let cold = GeomIndex::build(&next, Axis::Y);
        assert_eq!(idx.axis(), Axis::Y);
        assert_eq!(idx.items(), cold.items());
        assert_eq!(
            idx.labels().collect::<Vec<_>>(),
            cold.labels().collect::<Vec<_>>()
        );
        for label in ['p', 'q'] {
            let a: Vec<usize> = idx.ordered_after(label, 0, (0, 5), 0).collect();
            let b: Vec<usize> = cold.ordered_after(label, 0, (0, 5), 0).collect();
            assert_eq!(a, b, "{label}");
        }
    }

    #[test]
    fn y_axis_index() {
        let items = vec![
            ('p', Rect::from_coords(0, 0, 10, 4)),
            ('p', Rect::from_coords(0, 4, 10, 20)),
        ];
        let idx = GeomIndex::build(&items, Axis::Y);
        let after: Vec<usize> = idx.ordered_after('p', 4, (0, 10), 0).collect();
        assert_eq!(after, vec![1]);
        assert!(idx.interval_coverage(&['p'], (0, 20), (2, 8)));
        assert!(!idx.interval_coverage(&['p'], (0, 21), (2, 8)));
    }
}
