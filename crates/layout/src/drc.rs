//! A flat design-rule checker.
//!
//! The RSG itself never checks rules — "each cell can be made design rule
//! correct" by construction (paper §2.3) — but the compaction chapter
//! needs an independent referee: compacted layouts must re-check clean.
//! This checker verifies minimum widths and pairwise spacings on a flat
//! box list, with the same connected-material exemption the constraint
//! generator uses (touching same-layer boxes are one electrical net).
//!
//! [`check`] finds spacing partners through a uniform 2-D bucket grid
//! built once per check, in O(n), from the box slice itself. Cells are
//! at least as wide as the largest spacing rule among the layers
//! present, and every box is registered in each cell its half-open
//! rectangle `[lo, hi)` overlaps. A box on a layer of reach `d` (its
//! largest rule to any present layer) visits the half-open window
//! `[lo − d, hi + d)`, one grid row at a time, each row one contiguous
//! run of the grid's id array. A pair at gap `d` or more is never
//! needed: every rule it could break is at most `d`. A pair closer than
//! `d` is met in at least one visited cell, and is taken only in one
//! *reference cell*, so no per-worker visited set is needed. On layouts
//! of bounded local density that costs O(n + k), with k the number of
//! near pairs, in both axes at once. The all-pairs double loop survives
//! as [`check_pairwise`], the reference the equivalence proptests and
//! the `drc` bench compare against. Both produce the identical violation
//! list, in the identical order.

use crate::{DesignRules, FlatLayout, Layer};
use rsg_geom::par::{par_map, Parallelism};
use rsg_geom::Rect;
use std::fmt;
use std::ops::Range;

/// One design-rule violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A box is narrower than the layer's minimum width (either axis).
    Width {
        /// Index of the box in the checked list.
        index: usize,
        /// The offending layer.
        layer: Layer,
        /// Measured width (the smaller dimension).
        actual: i64,
        /// Required minimum.
        required: i64,
    },
    /// Two boxes of interacting layers are closer than the minimum
    /// spacing (and are not connected material).
    Spacing {
        /// Index of the first box.
        a: usize,
        /// Index of the second box.
        b: usize,
        /// Measured separation (0 for overlapping different layers).
        actual: i64,
        /// Required minimum.
        required: i64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Width {
                index,
                layer,
                actual,
                required,
            } => {
                write!(f, "box #{index} on {layer}: width {actual} < {required}")
            }
            Violation::Spacing {
                a,
                b,
                actual,
                required,
            } => {
                write!(f, "boxes #{a}/#{b}: spacing {actual} < {required}")
            }
        }
    }
}

/// Checks a flat box list against the rules; returns all violations.
///
/// Spacing is measured as the L∞ gap between rectangles; boxes of the
/// same layer that touch or overlap are connected and exempt from their
/// layer's self-spacing rule. Zero-area boxes are ignored. Violations
/// come out widths first (by box index), then spacings by `a`, then `b`.
pub fn check(boxes: &[(Layer, Rect)], rules: &DesignRules) -> Vec<Violation> {
    check_par(boxes, rules, Parallelism::Serial)
}

/// [`check`] against a [`FlatLayout`]'s boxes.
pub fn check_flat(flat: &FlatLayout, rules: &DesignRules) -> Vec<Violation> {
    check(flat.layer_rects(), rules)
}

/// [`check_flat`] with the scan fanned across worker threads.
///
/// The grid is built once and shared read-only; the scan — the dominant
/// cost — splits the box list into contiguous index ranges, each
/// producing its width and spacing blocks independently. Blocks are
/// concatenated in range order, so the violation list is
/// **bit-identical** to [`check_flat`] (and to the pairwise referee) at
/// any thread count.
pub fn check_flat_par(flat: &FlatLayout, rules: &DesignRules, par: Parallelism) -> Vec<Violation> {
    check_par(flat.layer_rects(), rules, par)
}

fn check_par(boxes: &[(Layer, Rect)], rules: &DesignRules, par: Parallelism) -> Vec<Violation> {
    let table = RuleTable::new(boxes, rules);
    let grid = Grid::build(boxes, &table);
    let threads = par.threads().min(boxes.len().max(1));
    // More ranges than workers so one dense region cannot serialize the
    // batch; each range yields its blocks, concatenated in range order.
    let pieces = if threads <= 1 { 1 } else { threads * 8 };
    let chunk = boxes.len().div_ceil(pieces).max(1);
    let ranges: Vec<(usize, usize)> = (0..boxes.len())
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(boxes.len())))
        .collect();
    let run = |&(s, e): &(usize, usize)| {
        let mut scan = Scan::default();
        scan.run(&grid, boxes, &table, s..e);
        scan
    };
    let scans: Vec<Scan> = par_map(&ranges, threads, run)
        .into_iter()
        .zip(&ranges)
        // The scan closure is panic-free; if a worker still died,
        // recompute the range inline so the serial semantics (and any
        // genuine panic) surface on the caller's thread.
        .map(|(scan, range)| scan.unwrap_or_else(|_| run(range)))
        .collect();
    let mut out = Vec::new();
    for scan in &scans {
        out.extend_from_slice(&scan.widths);
    }
    for scan in &scans {
        out.extend_from_slice(&scan.spacings);
    }
    out
}

/// The bounding box and count of one layer's positive-area boxes.
#[derive(Debug, Clone, Copy)]
struct Extent {
    lo: (i64, i64),
    hi: (i64, i64),
    count: usize,
}

/// The rules resolved once per check into dense tables indexed by
/// [`Layer::index`], so the per-box and per-pair lookups are array
/// reads, together with where each layer's boxes lie. Spacing rules of
/// 0 or less can never be violated (the gap is never negative), so they
/// are stored as "no interaction".
struct RuleTable {
    /// `width[a]`: the minimum width of layer `a` (0 when unconstrained).
    width: [i64; Layer::ALL.len()],
    /// `spacing[a][b]`: the positive rule between two layers, else 0.
    spacing: [[i64; Layer::ALL.len()]; Layer::ALL.len()],
    /// `reach[a]`: the largest rule from `a` to any layer present in the
    /// checked boxes — the distance a box on `a` must search.
    reach: [i64; Layer::ALL.len()],
    /// `extent[a]`: where the positive-area boxes of layer `a` lie.
    extent: [Extent; Layer::ALL.len()],
}

impl RuleTable {
    /// Resolves `rules` against `boxes` in one pass over the boxes.
    fn new(boxes: &[(Layer, Rect)], rules: &DesignRules) -> RuleTable {
        let empty = Extent {
            lo: (i64::MAX, i64::MAX),
            hi: (i64::MIN, i64::MIN),
            count: 0,
        };
        let mut extent = [empty; Layer::ALL.len()];
        for &(layer, rect) in boxes {
            if rect.area() != 0 {
                let e = &mut extent[layer.index()];
                e.lo = (e.lo.0.min(rect.lo().x), e.lo.1.min(rect.lo().y));
                e.hi = (e.hi.0.max(rect.hi().x), e.hi.1.max(rect.hi().y));
                e.count += 1;
            }
        }
        let mut table = RuleTable {
            width: [0; Layer::ALL.len()],
            spacing: [[0; Layer::ALL.len()]; Layer::ALL.len()],
            reach: [0; Layer::ALL.len()],
            extent,
        };
        for a in Layer::ALL {
            table.width[a.index()] = rules.min_width(a);
            for b in Layer::ALL {
                let s = rules.min_spacing(a, b).unwrap_or(0).max(0);
                table.spacing[a.index()][b.index()] = s;
                if extent[b.index()].count > 0 {
                    table.reach[a.index()] = table.reach[a.index()].max(s);
                }
            }
        }
        table
    }

    /// The search distance of a box, 0 when it can take part in no
    /// spacing check (zero area, or no rule to any present layer).
    fn reach_of(&self, (layer, rect): (Layer, Rect)) -> i64 {
        if rect.area() == 0 {
            0
        } else {
            self.reach[layer.index()]
        }
    }
}

/// The grid is coarsened until it has at most this many cells per
/// registered box, so a sparse layout — or one spread over the whole
/// coordinate budget — cannot allocate more than O(n) cells.
const CELLS_PER_BOX: usize = 4;

/// The grid is coarsened until its entries (box × cell incidences)
/// number at most this many per registered box, so large overlapping
/// boxes cannot make the grid quadratic in memory.
const ENTRIES_PER_BOX: usize = 8;

/// A uniform bucket grid over the boxes that take part in spacing
/// checks, in CSR form: the ids registered in cell `c` (row-major,
/// `c = row * cols + col`) are `ids[offsets[c]..offsets[c + 1]]`, in
/// ascending box order, so the cells `c0..=c1` of one row are the one
/// run `ids[offsets[row * cols + c0]..offsets[row * cols + c1 + 1]]`.
/// A box is registered in every cell its half-open rectangle
/// `[lo, hi)` overlaps. Cells are squares of side `1 << shift`, so
/// locating a coordinate is a shift, not a division.
struct Grid {
    x0: i64,
    y0: i64,
    shift: u32,
    cols: usize,
    rows: usize,
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl Grid {
    /// Builds the grid over the boxes with a positive [`RuleTable::reach_of`].
    ///
    /// The cell side starts at the smallest power of two covering the
    /// largest rule among the present layers, and doubles until the cell
    /// and entry budgets both hold. Each step costs O(1) for the cell
    /// count and, once that holds, one O(n) counting pass; a layout
    /// within both budgets at the first side costs two O(n + entries)
    /// passes in all.
    fn build(boxes: &[(Layer, Rect)], table: &RuleTable) -> Grid {
        let mut reach = 1;
        let mut lo = (i64::MAX, i64::MAX);
        let mut hi = (i64::MIN, i64::MIN);
        let mut members = 0usize;
        for (e, &d) in table.extent.iter().zip(&table.reach) {
            if e.count > 0 && d > 0 {
                reach = reach.max(d);
                lo = (lo.0.min(e.lo.0), lo.1.min(e.lo.1));
                hi = (hi.0.max(e.hi.0), hi.1.max(e.hi.1));
                members += e.count;
            }
        }
        let mut shift = (reach as u64).next_power_of_two().trailing_zeros();
        if members == 0 {
            return Grid::sized(lo, hi, shift);
        }
        let mut grid = loop {
            let mut grid = Grid::sized(lo, hi, shift);
            let last = shift >= 62;
            let cells = grid.cols.checked_mul(grid.rows);
            if last || cells.is_some_and(|c| c <= CELLS_PER_BOX * members) {
                // Count each cell's entries into `offsets[c]`.
                grid.offsets = vec![0; grid.cols * grid.rows + 1];
                let mut entries = 0usize;
                for &b in boxes {
                    if table.reach_of(b) > 0 {
                        for c in grid.cells(b.1) {
                            grid.offsets[c] += 1;
                            entries += 1;
                        }
                    }
                }
                if last || entries <= ENTRIES_PER_BOX * members {
                    break grid;
                }
            }
            shift += 1;
        };
        // Prefix sums turn the counts into cell ends; filling in reverse
        // box order then walks each end back to its cell's start and
        // leaves every cell's ids ascending.
        let mut total = 0;
        for o in &mut grid.offsets {
            total += *o;
            *o = total;
        }
        let mut ids = vec![0u32; total];
        for (k, &b) in boxes.iter().enumerate().rev() {
            if table.reach_of(b) > 0 {
                for c in grid.cells(b.1) {
                    grid.offsets[c] -= 1;
                    ids[grid.offsets[c]] = k as u32;
                }
            }
        }
        grid.ids = ids;
        grid
    }

    /// An unfilled grid of cell side `1 << shift` covering `lo..=hi`
    /// (no cells when `lo > hi`, the bounds of an empty box set). The
    /// half-open boxes never reach a last column or row that starts at
    /// `hi`. Sizing over the half-open extent instead was measured: it
    /// kept the wire-bundle megachip exactly within the cell budget on
    /// cells half as wide, and its check ran slower.
    fn sized(lo: (i64, i64), hi: (i64, i64), shift: u32) -> Grid {
        let cells = |lo: i64, hi: i64| {
            let n = ((i128::from(hi) - i128::from(lo)) >> shift) + 1;
            usize::try_from(n).unwrap_or(0)
        };
        Grid {
            x0: lo.0,
            y0: lo.1,
            shift,
            cols: cells(lo.0, hi.0),
            rows: cells(lo.1, hi.1),
            offsets: vec![0],
            ids: Vec::new(),
        }
    }

    /// The column holding `x`, clamped to the grid.
    fn col(&self, x: i64) -> usize {
        let k = x.saturating_sub(self.x0).max(0) >> self.shift;
        (k as usize).min(self.cols - 1)
    }

    /// The row holding `y`, clamped to the grid.
    fn row(&self, y: i64) -> usize {
        let k = y.saturating_sub(self.y0).max(0) >> self.shift;
        (k as usize).min(self.rows - 1)
    }

    /// The cells the half-open positive-area rectangle `[r.lo, r.hi)`
    /// overlaps, in row-major order.
    fn cells(&self, r: Rect) -> impl Iterator<Item = usize> {
        let (c0, c1) = (self.col(r.lo().x), self.col(r.hi().x - 1));
        let cols = self.cols;
        (self.row(r.lo().y)..=self.row(r.hi().y - 1))
            .flat_map(move |row| row * cols + c0..=row * cols + c1)
    }

    /// The low edge of column or row `k` along an axis starting at
    /// `origin`.
    fn start(&self, origin: i64, k: usize) -> i64 {
        origin.saturating_add((k as i64) << self.shift)
    }
}

/// The violations of one range of boxes, in the serial order, and the
/// spacing work that found them.
#[derive(Debug, Default)]
struct Scan {
    /// Width violations, by box index.
    widths: Vec<Violation>,
    /// Spacing violations, by `a`, then `b`.
    spacings: Vec<Violation>,
    /// Candidates: pairs `(i, j > i)` whose rule was looked up.
    candidates: usize,
}

impl Scan {
    /// Checks the boxes `i` in `range` for width, and against every
    /// partner `j > i` for spacing.
    ///
    /// Box `i`, of reach `d`, visits the cells of the half-open window
    /// `[ra.lo − d, ra.hi + d)`, walking each row's cells as one run of
    /// ids and skipping the ids `j ≤ i` inline. A partner `j` met in
    /// several cells is taken only in the cell holding its reference
    /// point `p = (max(rb.lo.x, ra.lo.x − d), max(rb.lo.y, ra.lo.y − d))`.
    /// A pair at gap `g < d` has `rb.lo ≤ p < rb.hi` and `p < ra.hi + d`
    /// on both axes, so `p`'s cell holds `j` and lies in the window: the
    /// pair is taken exactly once. A pair at gap `d` or more is taken at
    /// most once, and can never violate, since every rule it could break
    /// is at most `d`.
    ///
    /// Every registered entry met in row `r` and column `c` of the window
    /// has `p` below the cell's high edges, so the reference test is two
    /// comparisons: `rb.lo.y` at or past row `r`'s low edge unless `r` is
    /// the window's first row, and the same for `rb.lo.x` and column `c`.
    fn run(
        &mut self,
        grid: &Grid,
        boxes: &[(Layer, Rect)],
        table: &RuleTable,
        range: Range<usize>,
    ) {
        let mut near: Vec<Violation> = Vec::new();
        for i in range {
            let (la, ra) = boxes[i];
            let min_w = table.width[la.index()];
            let actual = ra.width().min(ra.height());
            if ra.area() != 0 && min_w > 0 && actual < min_w {
                self.widths.push(Violation::Width {
                    index: i,
                    layer: la,
                    actual,
                    required: min_w,
                });
            }
            let d = table.reach_of((la, ra));
            if d <= 0 {
                continue;
            }
            let spacing = &table.spacing[la.index()];
            let (c0, c1) = (
                grid.col(ra.lo().x.saturating_sub(d)),
                grid.col(ra.hi().x.saturating_add(d - 1)),
            );
            let (r0, r1) = (
                grid.row(ra.lo().y.saturating_sub(d)),
                grid.row(ra.hi().y.saturating_add(d - 1)),
            );
            for row in r0..=r1 {
                let ymin = if row == r0 {
                    i64::MIN
                } else {
                    grid.start(grid.y0, row)
                };
                let base = row * grid.cols;
                let (mut col, mut xmin) = (c0, i64::MIN);
                let mut cell_end = grid.offsets[base + c0 + 1];
                for k in grid.offsets[base + c0]..grid.offsets[base + c1 + 1] {
                    while k >= cell_end {
                        col += 1;
                        cell_end = grid.offsets[base + col + 1];
                        xmin = grid.start(grid.x0, col);
                    }
                    let j = grid.ids[k] as usize;
                    if j <= i {
                        continue;
                    }
                    let (lb, rb) = boxes[j];
                    if rb.lo().x < xmin || rb.lo().y < ymin {
                        continue; // taken in its reference cell
                    }
                    self.candidates += 1;
                    let required = spacing[lb.index()];
                    if required == 0 {
                        continue;
                    }
                    if la == lb && ra.intersect(rb).is_some() {
                        continue; // connected material
                    }
                    let gap = rect_gap(ra, rb);
                    if gap < required {
                        near.push(Violation::Spacing {
                            a: i,
                            b: j,
                            actual: gap,
                            required,
                        });
                    }
                }
            }
            // Cells are visited row by row; re-sort so the output order
            // matches the pairwise reference exactly. Only spacing
            // violations reach `near`, each partner at most once.
            near.sort_unstable_by_key(|v| match v {
                Violation::Spacing { b, .. } => *b,
                Violation::Width { .. } => usize::MAX,
            });
            self.spacings.append(&mut near);
        }
    }
}

/// The all-pairs reference checker the grid scan replaced. Same output as
/// [`check`], quadratic cost — kept as the independent referee for the
/// equivalence proptests and the `drc/{pairwise,sweep}` benchmark pair
/// (`drc/sweep` times [`check`]).
pub fn check_pairwise(boxes: &[(Layer, Rect)], rules: &DesignRules) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, &(layer, rect)) in boxes.iter().enumerate() {
        if rect.area() == 0 {
            continue;
        }
        let min_w = rules.min_width(layer);
        let actual = rect.width().min(rect.height());
        if min_w > 0 && actual < min_w {
            out.push(Violation::Width {
                index: i,
                layer,
                actual,
                required: min_w,
            });
        }
    }
    for (i, &(la, ra)) in boxes.iter().enumerate() {
        if ra.area() == 0 {
            continue;
        }
        for (j, &(lb, rb)) in boxes.iter().enumerate().skip(i + 1) {
            if rb.area() == 0 {
                continue;
            }
            let Some(required) = rules.min_spacing(la, lb) else {
                continue;
            };
            if la == lb && ra.intersect(rb).is_some() {
                continue; // connected material
            }
            let gap = rect_gap(ra, rb);
            if gap < required {
                out.push(Violation::Spacing {
                    a: i,
                    b: j,
                    actual: gap,
                    required,
                });
            }
        }
    }
    out
}

/// L∞ separation between two rectangles (0 if they touch or overlap).
fn rect_gap(a: Rect, b: Rect) -> i64 {
    let dx = (b.lo().x - a.hi().x).max(a.lo().x - b.hi().x).max(0);
    let dy = (b.lo().y - a.hi().y).max(a.lo().y - b.hi().y).max(0);
    dx.max(dy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Technology;

    fn rules() -> DesignRules {
        Technology::mead_conway(2).rules.clone()
    }

    #[test]
    fn clean_layout_passes() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(8, 0, 12, 20)), // 2λ = 4 away
            (Layer::Metal1, Rect::from_coords(0, 30, 20, 36)),
        ];
        assert!(check(&boxes, &rules()).is_empty());
    }

    #[test]
    fn width_violation() {
        let boxes = vec![(Layer::Metal1, Rect::from_coords(0, 0, 4, 40))]; // needs 6
        let v = check(&boxes, &rules());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Width {
                actual: 4,
                required: 6,
                ..
            }
        ));
        assert!(v[0].to_string().contains("width 4 < 6"));
    }

    #[test]
    fn spacing_violation_diagonal_and_lateral() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(6, 0, 10, 20)), // gap 2 < 4
        ];
        let v = check(&boxes, &rules());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Spacing {
                actual: 2,
                required: 4,
                ..
            }
        ));
        // Diagonal: L∞ gap 3 < 4.
        let diag = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 4)),
            (Layer::Poly, Rect::from_coords(7, 7, 11, 11)),
        ];
        assert_eq!(check(&diag, &rules()).len(), 1);
    }

    #[test]
    fn connected_material_exempt() {
        let boxes = vec![
            (Layer::Diffusion, Rect::from_coords(0, 0, 10, 4)),
            (Layer::Diffusion, Rect::from_coords(10, 0, 20, 4)), // abuts
        ];
        assert!(check(&boxes, &rules()).is_empty());
    }

    #[test]
    fn cross_layer_overlap_violates() {
        // Poly over diffusion closer than 1λ — a gate is poly *crossing*
        // diffusion; mere proximity of unrelated shapes violates.
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Diffusion, Rect::from_coords(5, 0, 20, 8)), // gap 1 < 2
        ];
        let v = check(&boxes, &rules());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn zero_area_ignored() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 0, 20)),
            (Layer::Poly, Rect::from_coords(1, 0, 5, 20)),
        ];
        assert!(check(&boxes, &rules()).is_empty());
    }

    /// A tall 2-D lattice of horizontal bars, `cols` wide and `rows`
    /// high, cycling four layers; every gap is 8, the largest
    /// `mead_conway(2)` rule, so it is clean by construction. A
    /// column-wide window along X would offer each bar its whole column.
    fn bar_lattice(cols: usize, rows: usize) -> Vec<(Layer, Rect)> {
        let layers = [Layer::Metal1, Layer::Poly, Layer::Diffusion, Layer::Metal2];
        let mut boxes = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                let (x, y) = (c as i64 * 40, r as i64 * 16);
                boxes.push((layers[(r + c) % 4], Rect::from_coords(x, y, x + 32, y + 8)));
            }
        }
        boxes
    }

    fn scan(boxes: &[(Layer, Rect)]) -> (Grid, Scan) {
        let table = RuleTable::new(boxes, &rules());
        let grid = Grid::build(boxes, &table);
        let mut scan = Scan::default();
        scan.run(&grid, boxes, &table, 0..boxes.len());
        (grid, scan)
    }

    #[test]
    fn spacing_candidates_stay_linear_on_a_tall_bar_lattice() {
        // (cols, rows, candidates, grid entries).
        for (cols, rows, pinned, entries) in
            [(10, 1_000, 5_000, 25_000), (20, 2_000, 20_000, 100_000)]
        {
            let boxes = bar_lattice(cols, rows);
            let (grid, scan) = scan(&boxes);
            assert!(
                scan.widths.is_empty() && scan.spacings.is_empty(),
                "the lattice is clean"
            );
            let candidates = scan.candidates;
            assert_eq!(candidates, pinned, "{cols}x{rows} candidates");
            assert_eq!(grid.ids.len(), entries, "{cols}x{rows} grid entries");
            assert!(
                candidates <= 4 * boxes.len(),
                "{candidates} candidates for {} boxes",
                boxes.len()
            );
        }
    }

    #[test]
    fn grid_memory_stays_linear_when_sparse_or_overlapping() {
        let budget = 1 << 30;
        // Two clusters at opposite corners of the coordinate budget.
        let spread: Vec<(Layer, Rect)> = (0..64)
            .map(|k| {
                let base = if k % 2 == 0 { -budget } else { budget - 64 };
                let x = base + (k / 2) * 2;
                (Layer::Poly, Rect::from_coords(x, base, x + 4, base + 4))
            })
            .collect();
        // Full-budget boxes stacked on each other.
        let stacked: Vec<(Layer, Rect)> = (0..64)
            .map(|k| {
                let layer = if k % 2 == 0 {
                    Layer::Poly
                } else {
                    Layer::Diffusion
                };
                (layer, Rect::from_coords(-budget, -budget, budget, budget))
            })
            .collect();
        for boxes in [spread, stacked] {
            let (grid, _) = scan(&boxes);
            assert_eq!(check(&boxes, &rules()), check_pairwise(&boxes, &rules()));
            assert!(grid.cols * grid.rows <= CELLS_PER_BOX * boxes.len());
            assert!(grid.ids.len() <= ENTRIES_PER_BOX * boxes.len());
        }
    }
}
