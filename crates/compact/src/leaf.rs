//! The leaf-cell compactor (§6.1, §6.3).
//!
//! "A leaf cell compactor is a compactor capable of compacting cells from
//! a library while taking into account how the cells in the library may
//! potentially interface together." Per Fig 6.3, inter-cell constraints
//! are *folded* through the pitch: a constraint from an edge of one
//! instance to an edge of the neighbouring instance becomes a constraint
//! between the cell's own edges with the pitch λ as an extra unknown —
//! every instance of a cell then shares one geometry, and "only one new
//! unknown (a λᵢ pitch parameter) is added for each new interface".
//!
//! The solved system yields new cell geometry *and* new pitches, from
//! which "it is possible to build a new sample layout for the new
//! technology" — [`CompactionResult::cells`] is exactly that library.
//!
//! Solving is delegated to any [`Solver`] backend; [`compact_batch`]
//! additionally fans a set of *independent* libraries out across worker
//! threads (each cell library is a closed constraint system, so batch
//! results are byte-identical to the serial path).

use crate::backend::{SolveError, Solver};
use crate::limits::{Exhausted, Limits};
use crate::scanline::{self, BoxVars, Method, Prune};
use crate::scratch::ScanScratch;
use crate::{Constraint, ConstraintSystem, PitchId, VarId};
use rsg_geom::{Axis, Rect, Vector};
use rsg_layout::{CellDefinition, DesignRules, Layer};

/// How an interface displaces the second cell along the compaction axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PitchKind {
    /// The displacement is the unknown pitch λ, starting from the
    /// sample's value, with a cost weight (the replication factor `n` of
    /// §6.2's cost function `X ≈ Σ nᵢλᵢ`).
    VariableX {
        /// The pitch in the input sample layout.
        initial: i64,
        /// Cost weight (expected replication factor).
        weight: i64,
    },
    /// The displacement is fixed (e.g. a vertical-abutment interface
    /// contributes offset 0 during x compaction).
    FixedX(i64),
}

/// One legal interface between two library cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafInterface {
    /// Index of the reference cell in the library slice.
    pub cell_a: usize,
    /// Index of the second cell (may equal `cell_a`).
    pub cell_b: usize,
    /// Displacement of B's origin along the compaction axis.
    pub kind: PitchKind,
    /// Fixed displacement of B's origin across the compaction axis.
    pub y_offset: i64,
    /// Pitch variable name for reporting.
    pub name: String,
}

/// The diagnostics of one solved pitch: the tight (zero-slack)
/// constraints that pin λ at its value — the §6.2 "which constraints set
/// the width" answer for one interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PitchBinding {
    /// The pitch variable's name.
    pub name: String,
    /// Its solved value.
    pub value: i64,
    /// The pitch-carrying constraints with zero slack at the solution.
    /// A single tight floor constraint (`λ ≥ spacing_floor`, encoded as
    /// a self-edge on the origin variable) means nothing geometric pins
    /// the pitch — the old pitch-collapse quirk, now clamped.
    pub tight: Vec<Constraint>,
}

/// Output of leaf-cell compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionResult {
    /// The compacted library, same order and names as the input.
    pub cells: Vec<CellDefinition>,
    /// Solved pitches `(name, value)` for each `VariableX` interface, in
    /// interface order.
    pub pitches: Vec<(String, i64)>,
    /// Per-pitch critical diagnostics, parallel to `pitches`.
    pub bindings: Vec<PitchBinding>,
    /// Total unknowns (edge variables + pitch variables) — the Fig 6.3
    /// reduction metric.
    pub unknowns: usize,
    /// Number of generated constraints.
    pub constraints: usize,
}

/// Leaf compaction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeafError {
    /// The LP or longest-path system was infeasible.
    Infeasible(String),
    /// Rounded pitches could not be repaired to an integral solution.
    Rounding(String),
    /// Position arithmetic overflowed `i64` (input exceeded the
    /// coordinate budget the interior math is proven safe for).
    Overflow(String),
    /// The input library was malformed (coordinates past the ingest
    /// budget, out-of-range interface indices, pitch-shape errors).
    Input(String),
    /// A configured resource budget ran out.
    Exhausted(Exhausted),
    /// A batch worker panicked on this job; the rest of the batch is
    /// unaffected.
    Panicked(String),
}

impl std::fmt::Display for LeafError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeafError::Infeasible(m) => write!(f, "leaf compaction infeasible: {m}"),
            LeafError::Rounding(m) => write!(f, "pitch rounding failed: {m}"),
            LeafError::Overflow(m) => write!(f, "leaf compaction overflowed: {m}"),
            LeafError::Input(m) => write!(f, "malformed leaf library: {m}"),
            LeafError::Exhausted(e) => e.fmt(f),
            LeafError::Panicked(m) => write!(f, "leaf compaction worker panicked: {m}"),
        }
    }
}

impl std::error::Error for LeafError {}

impl From<SolveError> for LeafError {
    fn from(e: SolveError) -> LeafError {
        match e {
            SolveError::Infeasible(m) => LeafError::Infeasible(m),
            SolveError::Rounding(m) => LeafError::Rounding(m),
            SolveError::Overflow(m) => LeafError::Overflow(m),
            SolveError::Input(m) => LeafError::Input(m),
        }
    }
}

impl From<Exhausted> for LeafError {
    fn from(e: Exhausted) -> LeafError {
        LeafError::Exhausted(e)
    }
}

/// A box with its edge variables and optional pitch tag (B-side boxes in
/// an interface pair carry the pitch).
#[derive(Debug, Clone, Copy)]
struct VBox {
    layer: Layer,
    rect: Rect,
    left: VarId,
    right: VarId,
    pitch: Option<PitchId>,
}

/// How [`compact`] runs. The default is no budgets and the prune
/// applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafOptions {
    /// Resource budgets: checkpoints fire after the flat box count is
    /// known, after constraint generation, and (for the deadline) at
    /// entry — deterministic points, so an exhausted run always fails
    /// identically.
    pub limits: Limits,
    /// The intra-cell transitive-reduction prune. [`Prune::Keep`] hands
    /// the full spacing emission to the solver; the result (cells,
    /// pitches, and [`PitchBinding`]s) is identical either way, which
    /// the equivalence proptests pin.
    pub prune: Prune,
}

impl Default for LeafOptions {
    fn default() -> LeafOptions {
        LeafOptions {
            limits: Limits::NONE,
            prune: Prune::Apply,
        }
    }
}

/// Compacts a cell library in x under every declared interface, solving
/// through the given backend.
///
/// # Errors
///
/// Returns [`LeafError`] on infeasible systems, malformed input, or an
/// exhausted budget.
pub fn compact(
    cells: &[CellDefinition],
    interfaces: &[LeafInterface],
    rules: &DesignRules,
    solver: &dyn Solver,
    opts: &LeafOptions,
) -> Result<CompactionResult, LeafError> {
    let LeafOptions { limits, prune } = *opts;
    let axis = Axis::X;
    limits.check_deadline()?;
    // Ingest validation: coordinate budget (so interior arithmetic is
    // provably overflow-free) and interface index range.
    let mut total_boxes = 0usize;
    for cell in cells {
        cell.validate_budget()
            .map_err(|e| LeafError::Input(e.to_string()))?;
        total_boxes += cell.boxes().count();
    }
    limits.check_boxes(total_boxes)?;
    for iface in interfaces {
        if iface.cell_a >= cells.len() || iface.cell_b >= cells.len() {
            return Err(LeafError::Input(format!(
                "interface '{}' references cell {} of a {}-cell library",
                iface.name,
                iface.cell_a.max(iface.cell_b),
                cells.len()
            )));
        }
    }
    let mut sys = ConstraintSystem::new_along(axis);
    // A global origin variable pins each cell's frame: without it, a
    // cell's contents could translate within its own coordinate system
    // and absorb the pitch (the λ / translation degeneracy).
    let origin = sys.add_var(0);

    // Edge variables per cell box. One scan scratch serves every cell's
    // intra-cell append *and* the cross scans below — the per-cell index
    // and candidate buffers are cleared, not reallocated, between cells.
    let mut scan = ScanScratch::new();
    let mut cell_vars: Vec<Vec<BoxVars>> = Vec::with_capacity(cells.len());
    let mut cell_boxes: Vec<Vec<(Layer, Rect)>> = Vec::with_capacity(cells.len());
    for cell in cells {
        let boxes: Vec<(Layer, Rect)> = cell.boxes().collect();
        // Edge variables plus the intra-cell constraints: widths,
        // connectivity, visibility spacing.
        let vars = scanline::append_boxes(
            &mut sys,
            &boxes,
            rules,
            Method::Visibility,
            prune,
            &mut scan,
        );
        // Anchor the cell's lowest edge at its original coordinate.
        if let Some(k) = (0..boxes.len()).min_by_key(|&k| boxes[k].1.lo_along(axis)) {
            sys.require_exact(origin, vars[k].left, boxes[k].1.lo_along(axis));
        }
        cell_vars.push(vars);
        cell_boxes.push(boxes);
    }

    // Pitch variables + folded inter-cell constraints (Fig 6.3). Every
    // free pitch gets a floor at the technology's smallest spacing rule
    // (encoded as `λ ≥ floor` through a vacuous origin self-edge): an
    // interface whose cross material does not interact would otherwise
    // have no lower bound at all and the cost function would drive its
    // pitch to the meaningless "stack the cells" value 0.
    let pitch_floor = rules.spacing_floor();
    let mut pitch_ids: Vec<Option<PitchId>> = Vec::with_capacity(interfaces.len());
    let mut pitch_weights: Vec<i64> = Vec::new();
    for iface in interfaces {
        let (pitch, x0) = match iface.kind {
            PitchKind::VariableX { initial, weight } => {
                let p = sys.add_pitch(iface.name.clone());
                pitch_weights.push(weight);
                if pitch_floor > 0 {
                    sys.require_with_pitch(origin, origin, pitch_floor, p, 1);
                }
                (Some(p), initial)
            }
            PitchKind::FixedX(dx) => (None, dx),
        };
        pitch_ids.push(pitch);

        let shift = match axis {
            Axis::X => Vector::new(x0, iface.y_offset),
            Axis::Y => Vector::new(iface.y_offset, x0),
        };
        let (a, b) = (iface.cell_a, iface.cell_b);
        let a_view = view(&cell_boxes[a], &cell_vars[a], Vector::ZERO, None);
        let b_view = view(&cell_boxes[b], &cell_vars[b], shift, pitch);
        append_cross_constraints(&mut sys, &a_view, &b_view, rules, &mut scan)?;
    }

    // Metric excludes the origin convenience variable (Fig 6.3 counts
    // edge abscissas + pitches only).
    let unknowns = (sys.num_vars() - 1) + sys.num_pitches();
    let n_constraints = sys.constraints().len();
    limits.check_constraints(n_constraints)?;

    // Solve through the chosen backend.
    let out = solver.solve_system(&sys, &pitch_weights)?;
    let (positions, pitches) = (out.positions, out.pitches);

    debug_assert!(sys.violations(&positions, &pitches).is_empty());

    // Rebuild the library with the new coordinates along the axis.
    let mut out_cells = Vec::with_capacity(cells.len());
    for (cell, vars) in cells.iter().zip(&cell_vars) {
        let rects: Vec<Rect> = cell
            .boxes()
            .zip(vars)
            .map(|((_, rect), bv)| {
                rect.with_span_along(
                    axis,
                    positions[bv.left.index()],
                    positions[bv.right.index()],
                )
            })
            .collect();
        // `rects` is built from this cell's own boxes, so the count
        // matches; route the impossible mismatch as a typed error anyway.
        out_cells.push(
            cell.with_box_rects(rects)
                .map_err(|e| LeafError::Input(e.to_string()))?,
        );
    }

    // Which constraints pin each pitch: zero-slack pitch-carrying
    // constraints, the §6.2 explanation of the solved λᵢ.
    let slacks = sys.slacks(&positions, &pitches);
    let mut named_pitches = Vec::new();
    let mut bindings = Vec::new();
    let mut k = 0usize;
    for (iface, pid) in interfaces.iter().zip(&pitch_ids) {
        let Some(p) = pid else { continue };
        named_pitches.push((iface.name.clone(), pitches[k]));
        let tight: Vec<Constraint> = sys
            .constraints()
            .iter()
            .zip(&slacks)
            .filter(|(c, &s)| s == 0 && c.pitch.is_some_and(|(q, _)| q == *p))
            .map(|(c, _)| *c)
            .collect();
        bindings.push(PitchBinding {
            name: iface.name.clone(),
            value: pitches[k],
            tight,
        });
        k += 1;
    }

    Ok(CompactionResult {
        cells: out_cells,
        pitches: named_pitches,
        bindings,
        unknowns,
        constraints: n_constraints,
    })
}

/// One independent leaf-library compaction job for [`compact_batch`].
#[derive(Debug, Clone)]
pub struct LibraryJob {
    /// The library cells.
    pub cells: Vec<CellDefinition>,
    /// The declared interfaces between them.
    pub interfaces: Vec<LeafInterface>,
}

impl LibraryJob {
    /// Deterministic content digest of the job — the leaf-result cache
    /// key of `incremental::CompactSession`. Two jobs hash equal iff
    /// their cells (geometry, names, order) and interfaces are
    /// identical, so equal hashes under equal rules and solver yield a
    /// byte-identical [`CompactionResult`].
    ///
    /// Library cells are self-contained (the leaf compactor flattens
    /// nothing), so instance references inside a library cell — not a
    /// supported input — are digested by raw id only.
    pub fn content_hash(&self) -> u64 {
        let mut h = rsg_layout::hash::ContentHasher::new();
        h.write_u64(self.cells.len() as u64);
        for cell in &self.cells {
            h.write_u64(rsg_layout::hash::hash_cell(cell, |id| id.raw() as u64));
        }
        h.write_u64(self.interfaces.len() as u64);
        for i in &self.interfaces {
            h.write_u64(i.cell_a as u64).write_u64(i.cell_b as u64);
            match i.kind {
                PitchKind::VariableX { initial, weight } => {
                    h.write_u64(1).write_i64(initial).write_i64(weight);
                }
                PitchKind::FixedX(dx) => {
                    h.write_u64(2).write_i64(dx);
                }
            }
            h.write_i64(i.y_offset).write_str(&i.name);
        }
        h.finish()
    }
}

/// Compacts many *independent* cell libraries, optionally in parallel.
///
/// Each job is a closed constraint system, so the jobs are
/// embarrassingly parallel and the output (including every error) is
/// byte-identical to mapping [`compact`] serially with default options
/// — [`Parallelism`](crate::par::Parallelism) only changes wall-clock
/// time. Each job runs on one worker. This is the batch entry point
/// for compacting a whole generator library (the paper's "compact the
/// cell A only once" economics, multiplied across a cell catalogue).
///
/// Results are keyed **by job index** — `result[k]` always belongs to
/// `jobs[k]` — never by cell or pitch name. Jobs whose cells or
/// interfaces carry duplicate names therefore cannot cross wires under
/// any scheduling (pinned by the duplicate-name regression test below).
pub fn compact_batch(
    jobs: &[LibraryJob],
    rules: &DesignRules,
    solver: &dyn Solver,
    parallelism: crate::par::Parallelism,
) -> Vec<Result<CompactionResult, LeafError>> {
    let opts = LeafOptions::default();
    crate::par::par_map(jobs, parallelism.threads(), |job| {
        compact(&job.cells, &job.interfaces, rules, solver, &opts)
    })
    .into_iter()
    .map(|slot| match slot {
        Ok(result) => result,
        // A panicking job poisons only its own slot, as a typed error.
        Err(panic) => Err(LeafError::Panicked(panic.message)),
    })
    .collect()
}

/// One cell's boxes as one side of an interface: translated by `shift`
/// and tagged with `pitch`, on the cell's own edge variables.
fn view(
    boxes: &[(Layer, Rect)],
    vars: &[BoxVars],
    shift: Vector,
    pitch: Option<PitchId>,
) -> Vec<VBox> {
    boxes
        .iter()
        .zip(vars)
        .map(|(&(layer, rect), bv)| VBox {
            layer,
            rect: rect.translate(shift),
            left: bv.left,
            right: bv.right,
            pitch,
        })
        .collect()
}

/// Emits the cross constraints of one interface pair: spacing between
/// A-side and B-side boxes, folded through the pitch term (paper Fig
/// 6.3's edge replacement).
///
/// The pairs are the flat scan's visible spacing pairs over both views
/// that straddle the interface: a strictly below b along the axis,
/// shared across-range, not hidden. Abutting same-layer cross boxes are
/// connected material and get no spacing requirement (their relative
/// position is governed by the pitch).
fn append_cross_constraints(
    sys: &mut ConstraintSystem,
    a_view: &[VBox],
    b_view: &[VBox],
    rules: &DesignRules,
    scan: &mut ScanScratch,
) -> Result<(), LeafError> {
    let all: Vec<VBox> = a_view.iter().chain(b_view).copied().collect();
    let ScanScratch { index, items, .. } = scan;
    items.clear();
    items.extend(all.iter().map(|v| (v.layer, v.rect)));
    let stale = index.rebuild_from_vec(std::mem::take(items), sys.axis());
    *items = stale;
    let a_side = |k: usize| k < a_view.len();
    scanline::scan_spacings(scan, rules, Method::Visibility, |i, j| {
        a_side(i) != a_side(j)
    });
    for &(i, j, spacing) in &scan.spacings {
        require_cross(sys, &all[i], &all[j], spacing)?;
    }
    Ok(())
}

/// Requires `to`'s low edge at least `spacing` past `from`'s high edge,
/// where a box's pitch tag contributes +λ to its edge positions:
/// `x_to − x_from + (coeff_to − coeff_from)·λ ≥ spacing`.
fn require_cross(
    sys: &mut ConstraintSystem,
    from: &VBox,
    to: &VBox,
    spacing: i64,
) -> Result<(), LeafError> {
    match (from.pitch, to.pitch) {
        (None, None) => sys.require(from.right, to.left, spacing),
        (Some(p), Some(q)) if p == q => sys.require(from.right, to.left, spacing),
        (None, Some(p)) => sys.require_with_pitch(from.right, to.left, spacing, p, 1),
        (Some(p), None) => sys.require_with_pitch(from.right, to.left, spacing, p, -1),
        // One view carries at most one pitch (a_view is always
        // untagged), so two distinct pitches on one constraint can
        // only mean the views were built wrong.
        (Some(_), Some(_)) => {
            return Err(LeafError::Input(
                "cross constraint spans two distinct pitch variables".into(),
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Balanced, BellmanFord, SimplexPitch};
    use crate::par::Parallelism;
    use rsg_layout::Technology;

    fn rules() -> DesignRules {
        Technology::mead_conway(2).rules.clone()
    }

    fn bf() -> BellmanFord {
        BellmanFord::SORTED
    }

    /// Fig 6.3: one cell with boxes, one self-interface: the unknowns are
    /// the cell's own edges plus one λ — 5 instead of the flat 8.
    #[test]
    fn fig_6_3_unknown_reduction() {
        let mut cell = CellDefinition::new("a");
        cell.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 20));
        cell.add_box(Layer::Poly, Rect::from_coords(12, 0, 16, 20));
        let ifaces = vec![LeafInterface {
            cell_a: 0,
            cell_b: 0,
            kind: PitchKind::VariableX {
                initial: 24,
                weight: 1,
            },
            y_offset: 0,
            name: "lambda_a".into(),
        }];
        let out = compact(&[cell], &ifaces, &rules(), &bf(), &LeafOptions::default()).unwrap();
        assert_eq!(out.unknowns, 4 + 1, "4 edges + 1 pitch");
        // Pitch compacts to the minimum: second box at min poly spacing
        // from first, then wrap: λ = 16-12... solved geometry: boxes 4
        // wide, gap 4 (2λ poly spacing at λ=2), λ = 4+4+4+4 = 16.
        let lambda = out.pitches[0].1;
        assert_eq!(lambda, 16, "pitches: {:?}", out.pitches);
        // The compacted cell is design-rule clean when tiled at λ.
        let boxes: Vec<(Layer, Rect)> = out.cells[0].boxes().collect();
        assert_eq!(boxes[0].1.width(), 4);
        assert_eq!(boxes[1].1.width(), 4);
    }

    /// §6.2 / Figs 6.1–6.2: pitches trade off; the cost weights decide
    /// which one wins.
    #[test]
    fn pitch_tradeoff_follows_cost_function() {
        // Cell: P in row A, Q in row B; interface 2 couples P against the
        // neighbour's Q (helping small x_q), interface 3 couples Q against
        // the neighbour's P (hurting large x_q). λ₂ + λ₃ is conserved.
        let mut cell = CellDefinition::new("a");
        cell.add_box(Layer::Metal1, Rect::from_coords(0, 0, 4, 10)); // P
        cell.add_box(Layer::Metal1, Rect::from_coords(20, 20, 24, 30)); // Q
        let mk = |w2: i64, w3: i64| {
            vec![
                LeafInterface {
                    cell_a: 0,
                    cell_b: 0,
                    kind: PitchKind::VariableX {
                        initial: 40,
                        weight: w2,
                    },
                    y_offset: -20,
                    name: "l2".into(),
                },
                LeafInterface {
                    cell_a: 0,
                    cell_b: 0,
                    kind: PitchKind::VariableX {
                        initial: 40,
                        weight: w3,
                    },
                    y_offset: 20,
                    name: "l3".into(),
                },
            ]
        };
        let r = rules();
        // Heavy weight on l3 → shrink l3 at l2's expense, and vice versa.
        let favor_l3 = compact(
            &[cell.clone()],
            &mk(1, 10),
            &r,
            &bf(),
            &LeafOptions::default(),
        )
        .unwrap();
        let favor_l2 = compact(
            &[cell.clone()],
            &mk(10, 1),
            &r,
            &bf(),
            &LeafOptions::default(),
        )
        .unwrap();
        let (l2a, l3a) = (favor_l3.pitches[0].1, favor_l3.pitches[1].1);
        let (l2b, l3b) = (favor_l2.pitches[0].1, favor_l2.pitches[1].1);
        assert!(l3a < l3b, "favoring l3 shrinks it: {l3a} vs {l3b}");
        assert!(l2b < l2a, "favoring l2 shrinks it: {l2b} vs {l2a}");
        // The trade-off is real: their sum is (nearly) conserved.
        assert!((l2a + l3a) <= (l2b + l3b) + 1);
        assert!((l2b + l3b) <= (l2a + l3a) + 1);
    }

    /// A two-cell library with an A–B interface and a fixed vertical
    /// interface: both cells compact, the A–B pitch lands at the minimum.
    #[test]
    fn two_cell_library() {
        let mut a = CellDefinition::new("a");
        a.add_box(Layer::Diffusion, Rect::from_coords(0, 0, 6, 10));
        a.add_box(Layer::Diffusion, Rect::from_coords(30, 0, 36, 10));
        let mut b = CellDefinition::new("b");
        b.add_box(Layer::Diffusion, Rect::from_coords(0, 0, 8, 10));
        let ifaces = vec![
            LeafInterface {
                cell_a: 0,
                cell_b: 1,
                kind: PitchKind::VariableX {
                    initial: 60,
                    weight: 5,
                },
                y_offset: 0,
                name: "lab".into(),
            },
            LeafInterface {
                cell_a: 0,
                cell_b: 0,
                kind: PitchKind::FixedX(0),
                y_offset: -12,
                name: "vert".into(),
            },
        ];
        let out = compact(&[a, b], &ifaces, &rules(), &bf(), &LeafOptions::default()).unwrap();
        // Intra: A's two diff boxes pull to 6λ spacing (6 at λ=2): second
        // box at 12..18. A–B pitch: B clears A's right box by 6.
        let a_boxes: Vec<(Layer, Rect)> = out.cells[0].boxes().collect();
        assert_eq!(a_boxes[1].1.lo().x - a_boxes[0].1.hi().x, 6);
        let lab = out.pitches.iter().find(|(n, _)| n == "lab").unwrap().1;
        assert_eq!(lab, a_boxes[1].1.hi().x + 6);
    }

    /// Compacted cells re-tile without violations: rebuild the interface
    /// pair at the solved pitch and re-scan.
    #[test]
    fn compacted_library_revalidates() {
        let mut cell = CellDefinition::new("a");
        cell.add_box(Layer::Poly, Rect::from_coords(2, 0, 8, 30));
        cell.add_box(Layer::Metal1, Rect::from_coords(14, 5, 26, 25));
        cell.add_box(Layer::Poly, Rect::from_coords(30, 0, 34, 30));
        let ifaces = vec![LeafInterface {
            cell_a: 0,
            cell_b: 0,
            kind: PitchKind::VariableX {
                initial: 44,
                weight: 1,
            },
            y_offset: 0,
            name: "l".into(),
        }];
        let r = rules();
        let out = compact(&[cell], &ifaces, &r, &bf(), &LeafOptions::default()).unwrap();
        let lambda = out.pitches[0].1;
        // Tile 3 instances and scan the flat result: no violations.
        let mut flat: Vec<(Layer, Rect)> = Vec::new();
        for k in 0..3 {
            for (l, rect) in out.cells[0].boxes() {
                flat.push((l, rect.translate(rsg_geom::Vector::new(k * lambda, 0))));
            }
        }
        let (sys, vars) = scanline::generate(&flat, &r, Method::Visibility, Axis::X, Prune::Apply);
        let positions: Vec<i64> = flat
            .iter()
            .flat_map(|(_, rect)| [rect.lo().x, rect.hi().x])
            .collect();
        let _ = vars;
        assert!(
            sys.violations(&positions, &[]).is_empty(),
            "tiled compacted cell violates rules"
        );
    }

    /// Every free pitch is floored at the technology's smallest spacing
    /// rule, and the bindings expose what pins it: geometry when the
    /// material interacts, the floor alone when it does not.
    #[test]
    fn pitch_floor_and_bindings() {
        let mut a = CellDefinition::new("a");
        a.add_box(Layer::Metal1, Rect::from_coords(0, 0, 6, 10));
        let mut b = CellDefinition::new("b");
        b.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 10));
        let ifaces = vec![LeafInterface {
            cell_a: 0,
            cell_b: 1,
            kind: PitchKind::VariableX {
                initial: 40,
                weight: 1,
            },
            y_offset: 0,
            name: "cross".into(),
        }];
        let r = rules();
        // Metal1 and poly never interact in the Mead–Conway set: without
        // the floor this pitch collapsed to 0 (the pinned quirk).
        let out = compact(&[a, b], &ifaces, &r, &bf(), &LeafOptions::default()).unwrap();
        assert_eq!(out.pitches, vec![("cross".to_string(), r.spacing_floor())]);
        assert_eq!(out.bindings.len(), 1);
        let binding = &out.bindings[0];
        assert_eq!(binding.value, r.spacing_floor());
        // The only tight pitch constraint is the floor itself — the
        // origin self-edge.
        assert_eq!(binding.tight.len(), 1);
        assert_eq!(binding.tight[0].from, binding.tight[0].to);
        assert_eq!(binding.tight[0].weight, r.spacing_floor());
    }

    #[test]
    fn geometric_binding_reported_when_material_interacts() {
        let mut cell = CellDefinition::new("a");
        cell.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 20));
        cell.add_box(Layer::Poly, Rect::from_coords(12, 0, 16, 20));
        let ifaces = vec![LeafInterface {
            cell_a: 0,
            cell_b: 0,
            kind: PitchKind::VariableX {
                initial: 24,
                weight: 1,
            },
            y_offset: 0,
            name: "lambda_a".into(),
        }];
        let out = compact(&[cell], &ifaces, &rules(), &bf(), &LeafOptions::default()).unwrap();
        let binding = &out.bindings[0];
        assert_eq!(binding.name, "lambda_a");
        assert_eq!(binding.value, 16);
        // Real cross-spacing constraints pin this pitch, not the floor.
        assert!(
            binding.tight.iter().any(|c| c.from != c.to),
            "expected a geometric binding, got {:?}",
            binding.tight
        );
    }

    #[test]
    fn infeasible_library_reports() {
        // A cell whose self-interface at fixed x = 0 demands impossible
        // same-position spacing.
        let mut cell = CellDefinition::new("bad");
        cell.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 10));
        cell.add_box(Layer::Poly, Rect::from_coords(8, 0, 12, 10));
        let ifaces = vec![LeafInterface {
            cell_a: 0,
            cell_b: 0,
            // Fixed pitch narrower than the two boxes + spacing can get.
            kind: PitchKind::FixedX(6),
            y_offset: 0,
            name: "tight".into(),
        }];
        let err = compact(&[cell], &ifaces, &rules(), &bf(), &LeafOptions::default()).unwrap_err();
        assert!(matches!(err, LeafError::Infeasible(_)), "{err}");
    }

    fn sample_jobs(n: usize) -> Vec<LibraryJob> {
        (0..n)
            .map(|k| {
                let k = k as i64;
                let mut cell = CellDefinition::new(format!("cell{k}"));
                cell.add_box(Layer::Poly, Rect::from_coords(2, 0, 8, 30));
                cell.add_box(Layer::Metal1, Rect::from_coords(14, 5, 26, 25));
                cell.add_box(
                    Layer::Poly,
                    Rect::from_coords(30 + 2 * k, 0, 34 + 2 * k, 30),
                );
                LibraryJob {
                    cells: vec![cell],
                    interfaces: vec![LeafInterface {
                        cell_a: 0,
                        cell_b: 0,
                        kind: PitchKind::VariableX {
                            initial: 44 + 2 * k,
                            weight: 1 + k,
                        },
                        y_offset: 0,
                        name: format!("l{k}"),
                    }],
                }
            })
            .collect()
    }

    #[test]
    fn batch_parallel_is_byte_identical_to_serial() {
        let jobs = sample_jobs(12);
        let r = rules();
        let serial = compact_batch(&jobs, &r, &bf(), Parallelism::Serial);
        for par in [Parallelism::Auto, Parallelism::Threads(3)] {
            let parallel = compact_batch(&jobs, &r, &bf(), par);
            assert_eq!(serial, parallel, "{par:?} diverged from serial");
        }
    }

    /// Regression: jobs carrying *duplicate* cell and pitch names must
    /// come back keyed by job index, never collated by name. The jobs
    /// below all name their cell `cell` and their pitch `l`, but each
    /// has distinguishable geometry; the batch result must line up with
    /// the per-index serial compaction under every parallelism mode.
    #[test]
    fn batch_with_duplicate_names_keeps_job_order() {
        // The compactor preserves box widths, so giving job k a bar of
        // width 4+k guarantees every job's *result* is distinct — any
        // cross-wiring or name-keyed collation would be caught.
        let jobs: Vec<LibraryJob> = (0..8)
            .map(|k| {
                let k = k as i64;
                let mut cell = CellDefinition::new("cell"); // same name on purpose
                cell.add_box(Layer::Poly, Rect::from_coords(0, 0, 4 + k, 20));
                cell.add_box(Layer::Poly, Rect::from_coords(30, 0, 34, 20));
                LibraryJob {
                    cells: vec![cell],
                    interfaces: vec![LeafInterface {
                        cell_a: 0,
                        cell_b: 0,
                        kind: PitchKind::VariableX {
                            initial: 44,
                            weight: 1,
                        },
                        y_offset: 0,
                        name: "l".into(), // same pitch name on purpose
                    }],
                }
            })
            .collect();
        let r = rules();
        let expected: Vec<CompactionResult> = jobs
            .iter()
            .map(|job| {
                compact(
                    &job.cells,
                    &job.interfaces,
                    &r,
                    &bf(),
                    &LeafOptions::default(),
                )
                .unwrap()
            })
            .collect();
        // Self-check: the jobs really are pairwise distinguishable, so a
        // permuted or collated batch cannot pass by accident.
        for (a, ra) in expected.iter().enumerate() {
            for (b, rb) in expected.iter().enumerate().skip(a + 1) {
                assert_ne!(ra, rb, "jobs {a} and {b} are indistinguishable");
            }
        }
        for par in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::Threads(4),
        ] {
            let batch = compact_batch(&jobs, &r, &bf(), par);
            assert_eq!(batch.len(), jobs.len());
            for (k, (want, got)) in expected.iter().zip(&batch).enumerate() {
                assert_eq!(
                    got.as_ref().unwrap(),
                    want,
                    "{par:?}: result {k} does not belong to job {k}"
                );
            }
        }
    }

    #[test]
    fn batch_through_every_backend() {
        let jobs = sample_jobs(4);
        let r = rules();
        for backend in [&bf() as &dyn Solver, &Balanced, &SimplexPitch] {
            let out = compact_batch(&jobs, &r, backend, Parallelism::Auto);
            assert!(
                out.iter().all(Result::is_ok),
                "{} failed a batch job",
                backend.name()
            );
        }
    }

    /// The all-pairs cross filter the leaf compactor ran before it took
    /// its pairs from the scanline's indexed walk: every A/B pair,
    /// filtered directly, in (i, j) order.
    fn all_pairs_cross(all: &[VBox], a_len: usize, r: &DesignRules) -> Vec<(usize, usize, i64)> {
        let axis = Axis::X;
        let items: Vec<(Layer, Rect)> = all.iter().map(|v| (v.layer, v.rect)).collect();
        let index = rsg_geom::GeomIndex::build(&items, axis);
        let mut cursor = scanline::VisibilityCursor::with_cache(&index, Vec::new());
        let mut out = Vec::new();
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                if i == j || (i < a_len) == (j < a_len) {
                    continue;
                }
                let Some(spacing) = r.min_spacing(a.layer, b.layer) else {
                    continue;
                };
                if a.rect.hi_along(axis) > b.rect.lo_along(axis)
                    || a.rect.lo_across(axis) >= b.rect.hi_across(axis)
                    || b.rect.lo_across(axis) >= a.rect.hi_across(axis)
                    || (a.layer == b.layer && a.rect.intersect(b.rect).is_some())
                    || cursor.hidden_between(i, j)
                {
                    continue;
                }
                out.push((i, j, spacing));
            }
        }
        out
    }

    /// One interface's system before its cross constraints, and its A
    /// and B views, built as [`compact`] builds them: B is A itself on
    /// a self-interface, and carries the pitch when the interface is
    /// `VariableX`.
    fn interface_views(
        a: &[(Layer, Rect)],
        b: &[(Layer, Rect)],
        same_cell: bool,
        variable: bool,
        shift: Vector,
    ) -> (ConstraintSystem, Vec<VBox>, Vec<VBox>) {
        let mut sys = ConstraintSystem::new_along(Axis::X);
        let mut vars = |boxes: &[(Layer, Rect)]| -> Vec<BoxVars> {
            boxes
                .iter()
                .map(|(_, r)| BoxVars {
                    left: sys.add_var(r.lo().x),
                    right: sys.add_var(r.hi().x),
                })
                .collect()
        };
        let vars_a = vars(a);
        let (b, vars_b) = if same_cell {
            (a, vars_a.clone())
        } else {
            (b, vars(b))
        };
        let pitch = variable.then(|| sys.add_pitch("l"));
        let a_view = view(a, &vars_a, Vector::ZERO, None);
        let b_view = view(b, &vars_b, shift, pitch);
        (sys, a_view, b_view)
    }

    const LAYERS: [Layer; 3] = [Layer::Poly, Layer::Diffusion, Layer::Metal1];

    /// Dense small cells: abutting, overlapping and zero-extent boxes.
    fn arb_cell() -> impl Strategy<Value = Vec<(Layer, Rect)>> {
        proptest::collection::vec((0i64..30, 0i64..20, 0i64..10, 0i64..10, 0usize..3), 1..12)
            .prop_map(|seeds| {
                seeds
                    .into_iter()
                    .map(|(x, y, w, h, l)| {
                        (
                            LAYERS[l],
                            Rect::from_origin_size(rsg_geom::Point::new(x, y), w, h),
                        )
                    })
                    .collect()
            })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// The cross scan emits exactly the all-pairs reference's
        /// `(i, j, spacing)` list, and so the same constraint system, on
        /// random self and two-cell interfaces: pitch-tagged
        /// (`VariableX`) and fixed B sides, offsets across, abutting
        /// same-layer cross boxes, zero-extent boxes, partly hidden
        /// pairs.
        #[test]
        fn cross_scan_matches_the_all_pairs_reference(
            a in arb_cell(),
            b in arb_cell(),
            (same_cell, variable, dx, y_offset) in (0usize..2, 0usize..2, 0i64..40, -12i64..13),
        ) {
            let r = rules();
            let shift = Vector::new(dx, y_offset);
            let (same_cell, variable) = (same_cell == 1, variable == 1);

            let (mut want_sys, a_view, b_view) = interface_views(&a, &b, same_cell, variable, shift);
            let all: Vec<VBox> = a_view.iter().chain(&b_view).copied().collect();
            let want = all_pairs_cross(&all, a_view.len(), &r);
            for &(i, j, spacing) in &want {
                require_cross(&mut want_sys, &all[i], &all[j], spacing).unwrap();
            }

            let (mut sys, a_view, b_view) = interface_views(&a, &b, same_cell, variable, shift);
            let mut scan = ScanScratch::new();
            append_cross_constraints(&mut sys, &a_view, &b_view, &r, &mut scan).unwrap();
            prop_assert_eq!(&scan.spacings, &want);
            prop_assert_eq!(sys.constraints(), want_sys.constraints());
            prop_assert_eq!(sys.num_vars(), want_sys.num_vars());
            prop_assert_eq!(sys.num_pitches(), want_sys.num_pitches());
        }
    }
}
