//! The axis-generic flat compaction engine.
//!
//! One driver serves both sweep directions: [`compact_axis`] generates
//! visibility constraints along a chosen [`Axis`] (no transposed copy of
//! the layout, unlike the retired `transpose` module) and solves them
//! through any [`Solver`] backend. [`compact_xy`] alternates the two
//! sweeps to a fixpoint — the classic two-pass 1-D compaction the paper
//! sketches in §6.4.
//!
//! Every run returns a [`CompactReport`]: per-sweep constraint counts,
//! relaxation passes, and the extent trajectory.

use crate::backend::{SolveError, Solver};
use crate::scanline::{self, BoxVars, Method, Prune};
use crate::scratch::SweepScratch;
use rsg_geom::{Axis, Rect};
use rsg_layout::{DesignRules, Layer};

/// Rewrites `boxes` with solved edge positions along `axis`; coordinates
/// across the axis are untouched.
pub fn apply_positions(
    boxes: &[(Layer, Rect)],
    vars: &[BoxVars],
    positions: &[i64],
    axis: Axis,
) -> Vec<(Layer, Rect)> {
    boxes
        .iter()
        .zip(vars)
        .map(|(&(l, r), bv)| {
            (
                l,
                r.with_span_along(
                    axis,
                    positions[bv.left.index()],
                    positions[bv.right.index()],
                ),
            )
        })
        .collect()
}

/// Compacts a flat box list along `axis` with the given backend.
///
/// # Errors
///
/// Propagates [`SolveError`] from the backend.
pub fn compact_axis(
    boxes: &[(Layer, Rect)],
    rules: &DesignRules,
    axis: Axis,
    solver: &dyn Solver,
) -> Result<Vec<(Layer, Rect)>, SolveError> {
    Ok(sweep(boxes, rules, axis, solver, &mut SweepScratch::new())?.0)
}

/// Statistics of one axis sweep inside [`compact_xy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// The sweep direction.
    pub axis: Axis,
    /// Edge variables of the generated system.
    pub vars: usize,
    /// Generated constraints.
    pub constraints: usize,
    /// Relaxation passes the solver needed.
    pub solver_passes: usize,
    /// Extent of the solved positions along the axis.
    pub extent: i64,
}

/// Per-sweep trace of an alternating compaction: constraint counts,
/// relaxation passes, and the extent trajectory — the raw material of
/// experiment E18 (fixpoint cost).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// One entry per axis sweep, in execution order (x, y, x, y, …).
    pub sweeps: Vec<SweepStats>,
}

impl CompactReport {
    /// Total relaxation passes across every sweep.
    pub fn total_solver_passes(&self) -> usize {
        self.sweeps.iter().map(|s| s.solver_passes).sum()
    }

    /// Total constraints generated across every sweep.
    pub fn total_constraints(&self) -> usize {
        self.sweeps.iter().map(|s| s.constraints).sum()
    }

    /// The extent trajectory along one axis, one entry per sweep of
    /// that axis.
    pub fn extents(&self, axis: Axis) -> Vec<i64> {
        self.sweeps
            .iter()
            .filter(|s| s.axis == axis)
            .map(|s| s.extent)
            .collect()
    }
}

/// Result of an alternating-axis compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XyOutcome {
    /// The compacted boxes.
    pub boxes: Vec<(Layer, Rect)>,
    /// Full x+y alternations performed before the fixpoint (or the cap).
    pub passes: usize,
    /// `true` when a fixpoint was reached within `max_passes`.
    pub converged: bool,
    /// Per-sweep diagnostics of the whole run.
    pub report: CompactReport,
}

/// One traced sweep: generate (into the reusable arena), solve, apply.
fn sweep(
    boxes: &[(Layer, Rect)],
    rules: &DesignRules,
    axis: Axis,
    solver: &dyn Solver,
    scratch: &mut SweepScratch,
) -> Result<(Vec<(Layer, Rect)>, SweepStats), SolveError> {
    let SweepScratch { sys, scan, .. } = scratch;
    sys.reset(axis);
    let vars = scanline::append_boxes(sys, boxes, rules, Method::Visibility, Prune::Apply, scan);
    let out = solver.solve_system(sys, &[])?;
    let extent = {
        let max = out.positions.iter().copied().max().unwrap_or(0);
        let min = out.positions.iter().copied().min().unwrap_or(0);
        max - min
    };
    let stats = SweepStats {
        axis,
        vars: sys.num_vars(),
        constraints: sys.constraints().len(),
        solver_passes: out.passes,
        extent,
    };
    Ok((apply_positions(boxes, &vars, &out.positions, axis), stats))
}

/// Alternating x/y compaction until a fixpoint (or `max_passes`), §6.4.
///
/// Each pass sweeps [`Axis::X`] then [`Axis::Y`]; the result is a
/// fixpoint of both sweeps when `converged` is set, i.e. re-running
/// either sweep leaves the layout unchanged (idempotence).
///
/// # Errors
///
/// Propagates [`SolveError`] from the backend.
pub fn compact_xy(
    boxes: &[(Layer, Rect)],
    rules: &DesignRules,
    solver: &dyn Solver,
    max_passes: usize,
) -> Result<XyOutcome, SolveError> {
    let mut cur = boxes.to_vec();
    let mut report = CompactReport::default();
    // One sweep arena, reused across sweeps: buffers are cleared, not
    // reallocated.
    let mut scratch = SweepScratch::new();
    for pass in 0..max_passes {
        let (after_x, stats_x) = sweep(&cur, rules, Axis::X, solver, &mut scratch)?;
        report.sweeps.push(stats_x);
        let (next, stats_y) = sweep(&after_x, rules, Axis::Y, solver, &mut scratch)?;
        report.sweeps.push(stats_y);
        if next == cur {
            return Ok(XyOutcome {
                boxes: cur,
                passes: pass,
                converged: true,
                report,
            });
        }
        cur = next;
    }
    Ok(XyOutcome {
        boxes: cur,
        passes: max_passes,
        converged: false,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Balanced, BellmanFord};
    use rsg_layout::{drc, Technology};

    fn rules() -> DesignRules {
        Technology::mead_conway(2).rules.clone()
    }

    #[test]
    fn y_compaction_pulls_rows_together_without_transposing() {
        let boxes = vec![
            (Layer::Metal1, Rect::from_coords(0, 0, 20, 6)),
            (Layer::Metal1, Rect::from_coords(0, 40, 20, 46)), // 34 above: slack
        ];
        let out = compact_axis(&boxes, &rules(), Axis::Y, &BellmanFord::SORTED).unwrap();
        // Pulled down to 3λ = 6 metal spacing.
        assert_eq!(out[1].1.lo().y - out[0].1.hi().y, 6);
        // x untouched.
        assert_eq!(out[0].1.lo().x, 0);
        assert_eq!(out[1].1.width(), 20);
    }

    #[test]
    fn alternating_reaches_a_fixpoint() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(30, 0, 34, 20)),
            (Layer::Poly, Rect::from_coords(0, 50, 4, 70)),
        ];
        let r = rules();
        let out = compact_xy(&boxes, &r, &BellmanFord::SORTED, 10).unwrap();
        assert!(out.converged, "did not converge");
        // Result is stable under both sweeps and clean.
        for axis in Axis::BOTH {
            let again = compact_axis(&out.boxes, &r, axis, &BellmanFord::SORTED).unwrap();
            assert_eq!(again, out.boxes, "{axis} sweep not idempotent");
        }
        assert!(drc::check(&out.boxes, &r).is_empty());
    }

    #[test]
    fn xy_area_never_grows() {
        let boxes = vec![
            (Layer::Diffusion, Rect::from_coords(0, 0, 8, 8)),
            (Layer::Diffusion, Rect::from_coords(40, 0, 48, 8)),
            (Layer::Diffusion, Rect::from_coords(0, 40, 8, 48)),
            (Layer::Diffusion, Rect::from_coords(40, 40, 48, 48)),
        ];
        let out = compact_xy(&boxes, &rules(), &BellmanFord::SORTED, 5).unwrap();
        let extent = |bs: &[(Layer, Rect)]| {
            let bb: rsg_geom::BoundingBox = bs.iter().map(|&(_, r)| r).collect();
            let r = bb.rect().unwrap();
            (r.width(), r.height())
        };
        let (w0, h0) = extent(&boxes);
        let (w1, h1) = extent(&out.boxes);
        assert!(w1 <= w0 && h1 <= h0, "({w1},{h1}) vs ({w0},{h0})");
        assert!(w1 * h1 < w0 * h0, "area should shrink on this input");
    }

    #[test]
    fn report_traces_every_sweep() {
        let boxes = vec![
            (Layer::Diffusion, Rect::from_coords(0, 0, 8, 8)),
            (Layer::Diffusion, Rect::from_coords(40, 0, 48, 8)),
        ];
        let r = rules();
        let out = compact_xy(&boxes, &r, &BellmanFord::SORTED, 10).unwrap();
        // x, y alternating, starting with x; 2 sweeps per alternation
        // including the converging one.
        assert_eq!(out.report.sweeps.len(), 2 * (out.passes + 1));
        assert_eq!(out.report.sweeps[0].axis, Axis::X);
        assert_eq!(out.report.sweeps[1].axis, Axis::Y);
        assert!(out.report.sweeps.iter().all(|s| s.vars == 4));
        assert!(out.report.total_constraints() > 0);
        // The x extent trajectory is monotone non-increasing.
        let xs = out.report.extents(Axis::X);
        assert!(xs.windows(2).all(|w| w[1] <= w[0]), "{xs:?}");
    }

    #[test]
    fn balanced_backend_also_converges() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(40, 0, 44, 20)),
        ];
        let r = rules();
        let out = compact_xy(&boxes, &r, &Balanced, 10).unwrap();
        assert!(out.converged);
        assert!(drc::check(&out.boxes, &r).is_empty());
    }
}
