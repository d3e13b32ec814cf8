//! Hierarchical compaction over instances — the paper's top-level flow.
//!
//! The leaf compactor (§6.1) compacts the *cells* of a library once; this
//! module compacts the *assembly*: a [`CellDefinition`] whose objects are
//! `Instance`s of already-compacted leaves is re-placed without ever
//! flattening the mask data. Three ideas carry the chapter-2 + chapter-6
//! composition:
//!
//! * **Interface abstracts** ([`CellAbstract`]) — per-layer edge
//!   profiles: for each sweep [`Axis`] the abstract records, per
//!   elementary across-strip, how far the cell's material on each
//!   interacting layer extends — the only facts instance-to-instance
//!   spacing ever needs. Each definition gets one `NORTH` abstract per
//!   walk: a leaf derives it from its own boxes, an assembly composes it
//!   from its compacted placement — direct boxes plus its children's
//!   abstracts. A caller orients it per distinct `(child, orientation)`
//!   in O(profile). Nothing is flattened, so an
//!   abstract costs its definition's own boxes plus its children's
//!   silhouettes, never its subtree.
//! * **Instance-level constraints** — the same sweep/visibility kernel
//!   that serves flat compaction runs on abstract boxes instead of flat
//!   boxes: ordered, across-overlapping, non-hidden abstract box pairs
//!   become difference constraints between *instance origin* variables
//!   (one unknown per rigid instance cluster, not two per box). Material
//!   frames keep abutting instances from stacking; coincident-origin
//!   touching instances are pinned so rows and columns cannot shear.
//! * **Shared λ pitch classes** — consecutive instances of the same cell
//!   pair along a row (or column) fold into one pitch variable per class,
//!   solved to its least value by a monotone fixpoint over rsg-solve
//!   (each round solves a pure difference system through any
//!   [`Solver`] backend; the class pitch rises to the worst member gap
//!   until stable). Every member pair of a class therefore lands at
//!   *exactly* the same pitch — the PLA and multiplier arrays stay
//!   pitch-matched by construction.
//!
//! [`compact_cell`] compacts one assembly cell; [`compact_hierarchy`]
//! walks a whole chip bottom-up (children before callers, as the paper
//! composes assemblies from interfaces) so multi-level layouts like the
//! multiplier's `array`/`topregs`/`thewholething` stack compact level by
//! level. `rsg_hpla::compactor::compact_chip` and
//! `rsg_mult::compactor::compact_chip` wire the leaf pass and this pass
//! together.

use crate::backend::{SolveError, Solver};
use crate::fault::{injected_exhaustion, FaultSite, InjectedFault};
use crate::limits::{Exhausted, Limits};
use crate::par::{par_map, Parallelism};
use crate::scanline::{reduce_transitively, Prune, VisibilityCursor};
use crate::scratch::{LastSolve, ScanScratch, SweepScratch};
use crate::ConstraintSystem;
use rsg_geom::{Axis, BoundingBox, GeomIndex, Isometry, Orientation, Point, Rect, Vector};
use rsg_layout::hash::ContentHasher;
use rsg_layout::{
    CellDefinition, CellId, CellTable, DesignRules, Layer, LayoutError, LayoutObject,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Tuning knobs for the hierarchical compactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierOptions {
    /// Maximum x+y alternations before giving up on the fixpoint.
    pub max_passes: usize,
    /// Maximum pitch-fixpoint rounds per axis sweep.
    pub max_pitch_rounds: usize,
    /// Resource budgets, checked at deterministic checkpoints (flat box
    /// count, constraint count, cumulative solver passes, deadline).
    /// [`Limits::NONE`] by default.
    pub limits: Limits,
    /// How many workers the hierarchy walk uses: cells whose referenced
    /// definitions are all done form a level of independent compactions
    /// (see [`compact_hierarchy`]), run this many at a time.
    /// [`Parallelism::Serial`] is one worker of the same schedule.
    /// Results are **bit-identical** at every setting; only wall-clock
    /// changes. Serial is the default — small assemblies don't repay
    /// thread dispatch, so concurrency is opt-in per call.
    pub parallelism: Parallelism,
    /// Transitively reduce the instance spacing edges before solving:
    /// an origin edge `a → b` implied by a tighter kept chain
    /// `a → c → b` is dropped. Solution-identical (same origins, same
    /// pitches — see DESIGN.md, "Constraint pruning + sweep arenas");
    /// [`Prune::Keep`] keeps the full emission for equivalence testing.
    pub prune: Prune,
}

impl Default for HierOptions {
    fn default() -> HierOptions {
        HierOptions {
            max_passes: 8,
            max_pitch_rounds: 32,
            limits: Limits::NONE,
            parallelism: Parallelism::Serial,
            prune: Prune::Apply,
        }
    }
}

impl HierOptions {
    /// Digest of the option fields that shape solve *content*: the pass
    /// and pitch-round ceilings plus the budget caps (they change where
    /// a run fails, so two runs under different caps are not
    /// interchangeable). The wall-clock deadline is deliberately
    /// excluded — it is not content-addressable — and so are
    /// [`HierOptions::parallelism`] and [`HierOptions::prune`], which
    /// are solution-identical by contract. This tag is the options leg
    /// of every compaction cache key, in-memory
    /// (`rsg_compact::incremental`) and on-disk (`rsg-serve`).
    pub fn content_tag(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.write_u64(self.max_passes as u64)
            .write_u64(self.max_pitch_rounds as u64);
        for cap in [
            self.limits.max_flat_boxes,
            self.limits.max_constraints,
            self.limits.max_solve_passes,
        ] {
            match cap {
                Some(c) => h.write_u64(1).write_u64(c),
                None => h.write_u64(0),
            };
        }
        h.finish()
    }
}

/// Hierarchical compaction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierError {
    /// A referenced definition is missing, or the hierarchy is
    /// recursive.
    Layout(LayoutError),
    /// The instance constraint system is infeasible (conflicting pins).
    Infeasible(String),
    /// The pitch fixpoint or the x/y alternation failed to stabilize.
    Diverged(String),
    /// The backend's rounded pitches could not be repaired to an integral
    /// solution. Distinct from [`HierError::Diverged`]: the fixpoint was
    /// fine, the LP relaxation's rounding was not.
    Rounding(String),
    /// Position arithmetic overflowed `i64` (input exceeded the
    /// coordinate budget the interior math is proven safe for).
    Overflow(String),
    /// A configured resource budget ([`HierOptions::limits`]) ran out.
    Exhausted(Exhausted),
    /// An internal invariant failed; reported as an error, never a panic.
    Internal(String),
}

impl std::fmt::Display for HierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierError::Layout(e) => write!(f, "hierarchical compaction: {e}"),
            HierError::Infeasible(m) => write!(f, "hierarchical compaction infeasible: {m}"),
            HierError::Diverged(m) => write!(f, "hierarchical compaction diverged: {m}"),
            HierError::Rounding(m) => write!(f, "hierarchical pitch rounding failed: {m}"),
            HierError::Overflow(m) => write!(f, "hierarchical compaction overflowed: {m}"),
            HierError::Exhausted(e) => e.fmt(f),
            HierError::Internal(m) => write!(f, "hierarchical compaction internal error: {m}"),
        }
    }
}

impl std::error::Error for HierError {}

impl From<LayoutError> for HierError {
    fn from(e: LayoutError) -> HierError {
        HierError::Layout(e)
    }
}

impl From<Exhausted> for HierError {
    fn from(e: Exhausted) -> HierError {
        HierError::Exhausted(e)
    }
}

impl From<SolveError> for HierError {
    fn from(e: SolveError) -> HierError {
        match e {
            SolveError::Infeasible(m) => HierError::Infeasible(m),
            SolveError::Rounding(m) => HierError::Rounding(m),
            SolveError::Overflow(m) => HierError::Overflow(m),
            SolveError::Input(m) => HierError::Internal(m),
        }
    }
}

/// Maps an injected fault to the typed error the real fault would raise.
fn injected_error(fault: InjectedFault, axis: Axis) -> HierError {
    match fault {
        InjectedFault::SolverFail => {
            HierError::Infeasible(format!("injected solver failure on {axis}"))
        }
        InjectedFault::Diverge => {
            HierError::Diverged(format!("injected pitch-fixpoint divergence on {axis}"))
        }
        InjectedFault::Exhaust => HierError::Exhausted(injected_exhaustion()),
    }
}

/// The interface abstract of one cell definition under one orientation:
/// per-axis, per-layer edge profiles plus the bounding frames, in the
/// instance-local (oriented) coordinate system.
///
/// For each sweep axis the profile holds, per elementary across-strip,
/// one rectangle spanning from the leftmost to the rightmost material on
/// that layer within the strip (adjacent strips with identical spans are
/// merged). Spacing between two instances only ever consults the facing
/// extremes of such strips, so the abstract is exact for the ordered,
/// non-interleaved placements assemblies are built from, and it stays
/// small: its size tracks the cell's *silhouette*, not its box count.
///
/// The profile is canonical — a function of the strip extremes alone, not
/// of the boxes that produced them — so the profile of a union of
/// profiles is the profile of the union. That is what lets an assembly
/// compose its abstract from its children's ([`CellAbstract::composed`])
/// and lets [`CellAbstract::oriented`] map an abstract to any
/// orientation without going back to the boxes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellAbstract {
    /// Profile boxes per sweep axis (`[x, y]`), local coordinates.
    profiles: [Vec<(Layer, Rect)>; 2],
    /// Bounding box of every flat box (background layers included).
    bbox: Option<Rect>,
    /// Bounding box of rule-interacting material only.
    material: Option<Rect>,
    /// Flat boxes the abstract summarizes.
    source_boxes: usize,
}

impl CellAbstract {
    /// Derives the abstract from a flat box list (local coordinates).
    pub fn from_boxes(boxes: &[(Layer, Rect)], rules: &DesignRules) -> CellAbstract {
        let mut builder = AbstractBuilder::new(rules);
        for &(l, r) in boxes {
            builder.add_box(l, r);
        }
        builder.finish().0
    }

    /// The `NORTH` abstract of `cell`, composed bottom-up through the
    /// definitions below it exactly as the hierarchy walk builds it: each
    /// leaf from its own boxes, each assembly from its direct boxes and
    /// its children's abstracts. Equal, field for field, to
    /// [`CellAbstract::from_boxes`] over the flattened cell.
    ///
    /// # Errors
    ///
    /// [`HierError::Layout`] for a missing or recursive definition.
    pub fn composed(
        table: &CellTable,
        cell: CellId,
        rules: &DesignRules,
    ) -> Result<CellAbstract, HierError> {
        let mut abstracts = Abstracts::new(rules, &Limits::NONE);
        for c in table.bottom_up(cell)? {
            abstracts.build(c, table.require(c)?)?;
        }
        match abstracts.north(cell) {
            Some(north) => Ok(north.as_ref().clone()),
            None => Err(HierError::Internal(format!(
                "no abstract composed for {cell:?}"
            ))),
        }
    }

    /// This abstract under orientation `o`, in O(profile): every profile
    /// box is mapped by `o` — a quarter turn swaps the x and y profiles,
    /// a mirror reflects them — and re-sorted into canonical order. An
    /// isometry maps the strip extremes of the material to the strip
    /// extremes of its image, so the result equals the abstract derived
    /// from the oriented boxes.
    pub fn oriented(&self, o: Orientation) -> CellAbstract {
        let iso = Isometry::orient(o);
        let profiles = Axis::BOTH.map(|axis| {
            let mut profile: Vec<(Layer, Rect)> = self.placed_profile(axis, iso).collect();
            profile.sort_unstable_by_key(|&(l, r)| (l, r.lo_across(axis)));
            profile
        });
        CellAbstract {
            profiles,
            bbox: self.bbox.map(|r| r.transform(iso)),
            material: self.material.map(|r| r.transform(iso)),
            source_boxes: self.source_boxes,
        }
    }

    /// The profile boxes a sweep along `axis` sees of this cell placed by
    /// `iso` (unsorted). A quarter turn swaps the roles of the profiles.
    fn placed_profile(
        &self,
        axis: Axis,
        iso: Isometry,
    ) -> impl Iterator<Item = (Layer, Rect)> + '_ {
        let source = match iso.orientation.rotation.quarter_turns() % 2 {
            0 => axis,
            _ => axis.other(),
        };
        self.profile(source)
            .iter()
            .map(move |&(l, r)| (l, r.transform(iso)))
    }

    /// The per-layer edge profile for a sweep axis.
    pub fn profile(&self, axis: Axis) -> &[(Layer, Rect)] {
        &self.profiles[axis_index(axis)]
    }

    /// Bounding box of all flat boxes (local), `None` for empty cells.
    pub fn bbox(&self) -> Option<Rect> {
        self.bbox
    }

    /// Bounding box of rule-interacting material (local).
    pub fn material(&self) -> Option<Rect> {
        self.material
    }

    /// Number of flat boxes the abstract replaced — the reduction metric
    /// ([`CellAbstract::profile`] sizes vs this).
    pub fn source_boxes(&self) -> usize {
        self.source_boxes
    }
}

const fn axis_index(axis: Axis) -> usize {
    match axis {
        Axis::X => 0,
        Axis::Y => 1,
    }
}

/// The inputs of one abstract: direct boxes, read as they are, and
/// placed child abstracts, read as their profiles. Bounding boxes and
/// material compose as unions and `source_boxes` as a sum; the profiles
/// are re-derived over the collected boxes at [`AbstractBuilder::finish`].
struct AbstractBuilder {
    /// Layers with at least one spacing rule; the rest is background.
    interacting: Vec<Layer>,
    /// Profile-derivation input per sweep axis (`[x, y]`).
    inputs: [Vec<(Layer, Rect)>; 2],
    bbox: BoundingBox,
    material: BoundingBox,
    source_boxes: usize,
}

impl AbstractBuilder {
    fn new(rules: &DesignRules) -> AbstractBuilder {
        let interacting = Layer::ALL
            .iter()
            .copied()
            .filter(|&l| {
                Layer::ALL
                    .iter()
                    .any(|&m| rules.min_spacing(l, m).is_some())
            })
            .collect();
        AbstractBuilder {
            interacting,
            inputs: [Vec::new(), Vec::new()],
            bbox: BoundingBox::new(),
            material: BoundingBox::new(),
            source_boxes: 0,
        }
    }

    /// One flat box. Zero-area boxes count as source boxes but carry no
    /// material; background layers widen only the bounding box.
    fn add_box(&mut self, layer: Layer, rect: Rect) {
        self.source_boxes += 1;
        if rect.area() <= 0 {
            return;
        }
        self.bbox.include_rect(rect);
        if self.interacting.contains(&layer) {
            self.material.include_rect(rect);
            for input in &mut self.inputs {
                input.push((layer, rect));
            }
        }
    }

    /// A child's abstract placed by its call isometry.
    fn add_placed(&mut self, child: &CellAbstract, iso: Isometry) {
        self.source_boxes += child.source_boxes;
        if let Some(r) = child.bbox {
            self.bbox.include_rect(r.transform(iso));
        }
        if let Some(r) = child.material {
            self.material.include_rect(r.transform(iso));
        }
        for axis in Axis::BOTH {
            self.inputs[axis_index(axis)].extend(child.placed_profile(axis, iso));
        }
    }

    /// The abstract, plus the number of boxes fed to profile derivation.
    fn finish(self) -> (CellAbstract, usize) {
        let [x, y] = &self.inputs;
        let fed = x.len() + y.len();
        let abs = CellAbstract {
            profiles: [profile_along(x, Axis::X), profile_along(y, Axis::Y)],
            bbox: self.bbox.rect(),
            material: self.material.rect(),
            source_boxes: self.source_boxes,
        };
        (abs, fed)
    }
}

/// Per-layer strip profile: for each elementary across-strip that holds
/// material, one rect spanning the material's along-extremes; adjacent
/// strips with the same span merge into one rect. Output is sorted by
/// layer, then across position.
///
/// Each rect updates only the strips it covers, found by binary search
/// over the sorted cuts: O(n log n + Σ strips covered) per layer, never
/// more than the strips × rects of testing every rect against every
/// strip.
fn profile_along(boxes: &[(Layer, Rect)], axis: Axis) -> Vec<(Layer, Rect)> {
    let mut layers: Vec<Layer> = boxes.iter().map(|&(l, _)| l).collect();
    layers.sort_unstable();
    layers.dedup();
    let mut out = Vec::new();
    let mut rects: Vec<Rect> = Vec::new();
    let mut cuts: Vec<i64> = Vec::new();
    let mut span: Vec<(i64, i64)> = Vec::new();
    for layer in layers {
        rects.clear();
        rects.extend(boxes.iter().filter(|&&(l, _)| l == layer).map(|&(_, r)| r));
        cuts.clear();
        cuts.extend(
            rects
                .iter()
                .flat_map(|r| [r.lo_across(axis), r.hi_across(axis)]),
        );
        cuts.sort_unstable();
        cuts.dedup();
        // span[k]: along-extremes of strip (cuts[k], cuts[k + 1]).
        span.clear();
        span.resize(cuts.len().saturating_sub(1), (i64::MAX, i64::MIN));
        for r in &rects {
            // Both edges are cuts, so the searches hit exactly.
            let first = cuts.partition_point(|&c| c < r.lo_across(axis));
            let end = cuts.partition_point(|&c| c < r.hi_across(axis));
            for s in &mut span[first..end] {
                s.0 = s.0.min(r.lo_along(axis));
                s.1 = s.1.max(r.hi_along(axis));
            }
        }
        // Merged run of strips sharing one along-span.
        let mut run: Option<(i64, i64, i64, i64)> = None; // (lo, hi, c0, c1)
        let flush = |run: &mut Option<(i64, i64, i64, i64)>, out: &mut Vec<(Layer, Rect)>| {
            if let Some((lo, hi, c0, c1)) = run.take() {
                out.push((layer, Rect::from_spans(axis, (lo, hi), (c0, c1))));
            }
        };
        for (k, &(lo, hi)) in span.iter().enumerate() {
            let (c0, c1) = (cuts[k], cuts[k + 1]);
            if lo > hi {
                flush(&mut run, &mut out);
                continue;
            }
            match run {
                Some((rlo, rhi, _, ref mut rc1)) if rlo == lo && rhi == hi && *rc1 == c0 => {
                    *rc1 = c1;
                }
                _ => {
                    flush(&mut run, &mut out);
                    run = Some((lo, hi, c0, c1));
                }
            }
        }
        flush(&mut run, &mut out);
    }
    out
}

/// The `NORTH` interface abstract of every definition one compaction has
/// reached — what [`compact_cell_with`] reads its instances' abstracts
/// from. Each definition is built once per store: a leaf derives its
/// abstract from its own boxes, an assembly composes its direct boxes
/// with its children's stored abstracts placed by their call isometries.
/// No abstract ever reads a child's flattened subtree, so building one
/// costs the definition's own boxes plus its children's profiles.
pub(crate) struct Abstracts<'a> {
    rules: &'a DesignRules,
    limits: &'a Limits,
    north: HashMap<CellId, Arc<CellAbstract>>,
    /// Definitions whose abstract came from a cache, not a build.
    replayed: HashSet<CellId>,
    /// Abstracts built by this store (leaves derived, assemblies
    /// composed).
    pub built: usize,
    /// Boxes those builds fed to profile derivation, summed over both
    /// sweep axes.
    pub inputs: usize,
    /// Reads of a replayed abstract by [`Abstracts::prepare`], one per
    /// distinct child of each prepared definition.
    pub replay_reads: usize,
}

impl<'a> Abstracts<'a> {
    pub(crate) fn new(rules: &'a DesignRules, limits: &'a Limits) -> Abstracts<'a> {
        Abstracts {
            rules,
            limits,
            north: HashMap::new(),
            replayed: HashSet::new(),
            built: 0,
            inputs: 0,
            replay_reads: 0,
        }
    }

    /// The stored `NORTH` abstract of `cell`, if any.
    pub(crate) fn north(&self, cell: CellId) -> Option<&Arc<CellAbstract>> {
        self.north.get(&cell)
    }

    /// Stores an abstract that was cached with `cell`'s outcome.
    pub(crate) fn replay(&mut self, cell: CellId, north: Arc<CellAbstract>) {
        self.north.insert(cell, north);
        self.replayed.insert(cell);
    }

    /// Builds the abstract of every definition `def` instances that is
    /// not stored yet, bottom-up through their subtrees. Inside the
    /// hierarchy walk a child's own children are always stored by then,
    /// so each missing child is built directly from its definition in
    /// `table`.
    pub(crate) fn prepare(
        &mut self,
        table: &CellTable,
        def: &CellDefinition,
    ) -> Result<(), HierError> {
        let mut children: Vec<CellId> = def.instances().map(|i| i.cell).collect();
        children.sort_unstable();
        children.dedup();
        for child in children {
            if self.north.contains_key(&child) {
                self.replay_reads += usize::from(self.replayed.contains(&child));
                continue;
            }
            let child_def = table.require(child)?;
            let ready = child_def
                .instances()
                .all(|i| self.north.contains_key(&i.cell));
            let order = if ready {
                vec![child]
            } else {
                table.bottom_up(child)?
            };
            for cell in order {
                if !self.north.contains_key(&cell) {
                    self.build(cell, table.require(cell)?)?;
                }
            }
        }
        Ok(())
    }

    /// Builds and stores `cell`'s abstract from its definition `def`,
    /// whose children must all be stored.
    fn build(&mut self, cell: CellId, def: &CellDefinition) -> Result<(), HierError> {
        self.limits.check_deadline()?;
        let mut builder = AbstractBuilder::new(self.rules);
        for (l, r) in def.boxes() {
            builder.add_box(l, r);
        }
        for inst in def.instances() {
            let child = self.north.get(&inst.cell).ok_or_else(|| {
                HierError::Internal(format!(
                    "abstract of `{}` composed before its child {:?}",
                    def.name(),
                    inst.cell
                ))
            })?;
            builder.add_placed(child, inst.isometry());
        }
        let (abs, fed) = builder.finish();
        self.built += 1;
        self.inputs += fed;
        self.north.insert(cell, Arc::new(abs));
        Ok(())
    }
}

/// Work counters filled by one hooked [`compact_cell_with`] run.
///
/// `constraints_emitted` counts the sweep kernel's spacing, frame, and
/// weld output (welds as 2, like [`HierSweepStats::constraints`]); the
/// cheap structural pins and pitch constraints are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkCounters {
    /// Kernel constraints computed this run.
    pub constraints_emitted: usize,
    /// Sweeps that ran the pitch fixpoint + solver.
    pub sweeps_solved: usize,
    /// Relaxation passes actually performed.
    pub solver_passes: usize,
}

/// The sweep kernel's output for one axis, keyed by *cluster index*:
/// collapsed max spacing/frame weights and exact welds. Both lists are
/// sorted by pair with one entry per pair, so constraints reach the
/// solver in sorted pair order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Emission {
    /// Ordered cluster pair and its strongest required separation.
    pub weights: Vec<((usize, usize), i64)>,
    /// Ordered cluster pair and its exact weld offset (connected
    /// material).
    pub welds: Vec<((usize, usize), i64)>,
}

/// Seams of the hierarchical engine for the incremental session. The
/// default implementations are inert, so [`NoHooks`] reproduces the
/// plain [`compact_cell`] behavior bit for bit with no bookkeeping;
/// `incremental::CompactSession` implements the trait to count work and
/// to inject faults.
pub(crate) trait CompactHooks {
    /// Work counters to fill, when the caller wants them.
    fn counters(&mut self) -> Option<&mut WorkCounters> {
        None
    }

    /// Fault-injection seam: consulted at every solver call, sweep entry,
    /// and budget checkpoint (deterministic, so an armed
    /// [`crate::fault::FaultPlan`] names the same site on every run).
    /// Inert by default.
    fn fault(&mut self, _site: FaultSite) -> Option<InjectedFault> {
        None
    }
}

/// The inert hook set: counts nothing, injects nothing.
pub(crate) struct NoHooks;

impl CompactHooks for NoHooks {}

/// Identity of an item's shape, the pitch-class grouping key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum ShapeKey {
    /// An instance: called definition + orientation (as ℤ₄ × 𝔹 ints).
    Cell(CellId, (u8, bool)),
    /// A direct box in the assembly cell: layer index + dimensions, so
    /// differently-sized bars on one layer don't share a pitch class.
    Box(usize, (i64, i64)),
}

/// One movable object of the assembly: an instance or a direct box.
pub(crate) struct Item {
    /// Index into the root definition's object list.
    object: usize,
    /// Current origin (instance point of call; box low corner).
    pos: Point,
    /// Shape identity for pitch-class keys.
    key: ShapeKey,
    /// Index into the abstract pool.
    shape: usize,
}

/// One solved pitch class: a shared λ and the member pairs it locks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierPitch {
    /// Sweep axis the pitch applies along.
    pub axis: Axis,
    /// Human-readable class name (`cellA->cellB` plus the sample offset).
    pub name: String,
    /// Solved pitch value.
    pub value: i64,
    /// Number of abutting instance pairs sharing the pitch.
    pub pairs: usize,
}

/// Statistics of one axis sweep of the hierarchical engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierSweepStats {
    /// Sweep direction.
    pub axis: Axis,
    /// Instance clusters (= solver variables).
    pub clusters: usize,
    /// Abstract boxes fed to the visibility kernel.
    pub abstract_boxes: usize,
    /// Frames the partner walks visited — a deterministic measure of
    /// the walk's work that grows with every frame it reads, not only
    /// with the partners it keeps.
    pub frames_visited: usize,
    /// Box pairs the box loops examined (weld and spacing tests), each
    /// source box against each box of a kept partner it can reach.
    pub box_pairs: usize,
    /// Hidden-edge oracle queries the box loops made: only spacing
    /// candidates of unshadowed cluster pairs whose weight would raise
    /// their pair's maximum ask.
    pub hidden_tests: usize,
    /// Difference constraints generated: one per spacing/frame cluster
    /// pair the frame shadow keeps, two per weld and per pin (exact
    /// offsets), one per pitch-class member pair. Pairs implied through
    /// a wide frame between them are not generated, so this counts the
    /// smaller emission [`Limits::max_constraints`] is checked against.
    pub constraints: usize,
    /// Pitch-fixpoint rounds until the class pitches stabilized; 0 when
    /// the sweep repeated the last solved emission on its axis and
    /// reused that solve.
    pub pitch_rounds: usize,
    /// Total relaxation passes across the rounds' solves (0 on reuse).
    pub solver_passes: usize,
    /// CSR graphs built for the rounds' solves: one for the first solve
    /// of a backend that reads the graph (arbitrary-order Bellman-Ford
    /// does not), plus one per round whose class re-weighting re-elected
    /// a parallel representative (the others patch the graph in place);
    /// 0 on reuse.
    pub graph_builds: usize,
    /// Origin extent along the axis after the sweep.
    pub extent: i64,
}

/// Trace of a whole hierarchical compaction run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierReport {
    /// One entry per executed axis sweep, in order (x, y, x, y, …).
    pub sweeps: Vec<HierSweepStats>,
    /// Flat boxes the instance abstracts summarize (what a flattening
    /// compactor would have had to move).
    pub flat_boxes: usize,
}

impl HierReport {
    /// Total constraints across every sweep.
    pub fn total_constraints(&self) -> usize {
        self.sweeps.iter().map(|s| s.constraints).sum()
    }

    /// Total relaxation passes across every sweep.
    pub fn total_solver_passes(&self) -> usize {
        self.sweeps.iter().map(|s| s.solver_passes).sum()
    }
}

/// Result of hierarchically compacting one assembly cell.
#[derive(Debug, Clone)]
pub struct HierOutcome {
    /// The re-placed assembly: same objects, new instance origins.
    pub cell: CellDefinition,
    /// Solved pitch classes of the final x and y sweeps.
    pub pitches: Vec<HierPitch>,
    /// Full x+y alternations performed before the fixpoint.
    pub passes: usize,
    /// Whether the alternation reached a fixpoint within the cap.
    pub converged: bool,
    /// Per-sweep diagnostics.
    pub report: HierReport,
}

/// A fully compacted hierarchy: the updated cell table plus the per-cell
/// outcomes, in bottom-up compaction order.
#[derive(Debug, Clone)]
pub struct ChipLayout {
    /// The table with every assembly cell re-placed.
    pub table: CellTable,
    /// The root cell (unchanged id).
    pub top: CellId,
    /// `(cell name, outcome)` for every compacted assembly cell.
    pub cells: Vec<(String, HierOutcome)>,
    /// Boxes the walk fed to interface-abstract derivation, summed over
    /// both sweep axes: each leaf's own material once, and per composed
    /// assembly its direct material plus its children's placed profile
    /// boxes. A deterministic work counter — it grows with definitions
    /// and silhouettes, not with flattened subtrees. Only abstracts a
    /// caller reads are composed (never the top's); abstracts replayed
    /// from a session cache add nothing.
    pub abstract_inputs: usize,
}

impl ChipLayout {
    /// The outcome for one assembly cell, by name.
    pub fn outcome(&self, name: &str) -> Option<&HierOutcome> {
        self.cells.iter().find(|(n, _)| n == name).map(|(_, o)| o)
    }
}

/// Whole-chip compaction failure: the leaf pass or the hierarchy pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChipError {
    /// The leaf library pass failed.
    Leaf(crate::leaf::LeafError),
    /// The hierarchical placement pass failed.
    Hier(HierError),
}

impl std::fmt::Display for ChipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChipError::Leaf(e) => write!(f, "chip compaction (leaf pass): {e}"),
            ChipError::Hier(e) => write!(f, "chip compaction (hier pass): {e}"),
        }
    }
}

impl std::error::Error for ChipError {}

impl From<crate::leaf::LeafError> for ChipError {
    fn from(e: crate::leaf::LeafError) -> ChipError {
        ChipError::Leaf(e)
    }
}

impl From<HierError> for ChipError {
    fn from(e: HierError) -> ChipError {
        ChipError::Hier(e)
    }
}

/// A fully compacted chip: the leaf-pass results plus the hierarchical
/// placement of the assembly, never flattened.
#[derive(Debug, Clone)]
pub struct ChipCompaction {
    /// The re-placed hierarchy (updated cell table + per-cell outcomes).
    pub chip: ChipLayout,
    /// The leaf-library pass results that produced the new cells.
    pub leaf: Vec<crate::leaf::CompactionResult>,
}

/// The generic two-pass chip flow: substitute a leaf-compacted library
/// into the table (cells matched by name), then hierarchically re-place
/// every assembly cell reachable from `top`. The workload crates'
/// `compact_chip` entry points (`rsg_hpla::compactor`,
/// `rsg_mult::compactor`) wrap this with their own library jobs.
///
/// # Errors
///
/// Returns [`ChipError::Hier`] when a leaf-pass cell name does not exist
/// in `table` (a silent skip would leave uncompacted sample geometry in
/// the chip) or when the placement pass fails.
pub fn compact_chip_with_library(
    table: &CellTable,
    top: CellId,
    leaf: Vec<crate::leaf::CompactionResult>,
    rules: &DesignRules,
    solver: &dyn Solver,
    opts: &HierOptions,
) -> Result<ChipCompaction, ChipError> {
    let compacted = substitute_library(table, &leaf)?;
    let chip = compact_hierarchy(&compacted, top, rules, solver, opts)?;
    Ok(ChipCompaction { chip, leaf })
}

/// `table` with every leaf-pass cell swapped in for the definition of
/// the same name — the first half of both chip flows (plain and
/// session).
pub(crate) fn substitute_library(
    table: &CellTable,
    leaf: &[crate::leaf::CompactionResult],
) -> Result<CellTable, HierError> {
    let mut compacted = table.clone();
    for cell in leaf.iter().flat_map(|result| &result.cells) {
        let id = compacted
            .lookup(cell.name())
            .ok_or_else(|| LayoutError::UnknownCell(cell.name().to_owned()))?;
        let Some(slot) = compacted.get_mut(id) else {
            return Err(HierError::Internal(format!(
                "cell `{}` vanished between lookup and substitution",
                cell.name()
            )));
        };
        *slot = cell.clone();
    }
    Ok(compacted)
}

/// Pins and pitch classes of one sweep axis, derived once from the input
/// placement (the design's structure, stable across alternations).
pub(crate) struct AxisStructure {
    /// Clusters pinned at along-offset 0: any two clusters *drawn at the
    /// same along-coordinate* stay at the same along-coordinate —
    /// coincidence alone pins, no touch test (a buffer drawn on its
    /// column keeps the column even after the leaf pass shrinks the
    /// bodies apart). These keep rows/columns from shearing; a pin that
    /// contradicts ordered spacing makes the cell report `Infeasible`.
    pins: PinGroups,
    /// Pitch classes over row-consecutive cluster pairs.
    classes: Vec<PitchClassDef>,
}

/// The pin groups of one axis: clusters drawn at the same
/// along-coordinate. Each group chains into consecutive exact pins, and
/// the partner walk reads a source's group to find the bounds its pins
/// already imply ([`enumerate_pairs`]).
#[derive(Default)]
pub(crate) struct PinGroups {
    /// Groups of two or more clusters, each in ascending cluster order.
    groups: Vec<Vec<usize>>,
    /// Each cluster's index in `groups`; `None` for a cluster alone at
    /// its along-coordinate.
    group_of: Vec<Option<usize>>,
}

impl PinGroups {
    /// Groups the clusters by along-origin, `along[c]` being cluster
    /// `c`'s.
    fn new(along: &[i64]) -> PinGroups {
        let mut by_origin: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        for (c, &x) in along.iter().enumerate() {
            by_origin.entry(x).or_default().push(c);
        }
        let groups: Vec<Vec<usize>> = by_origin.into_values().filter(|g| g.len() > 1).collect();
        let mut group_of = vec![None; along.len()];
        for (g, members) in groups.iter().enumerate() {
            for &c in members {
                group_of[c] = Some(g);
            }
        }
        PinGroups { groups, group_of }
    }

    /// The exact pins: consecutive members of each group.
    fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.groups
            .iter()
            .flat_map(|g| g.windows(2).map(|w| (w[0], w[1])))
    }

    /// The number of exact pins.
    fn len(&self) -> usize {
        self.groups.iter().map(|g| g.len() - 1).sum()
    }

    /// Appends group `g`'s frames to `pinned` and returns their range,
    /// sorted by low edge across and with the running maximum of the
    /// high edge across (`reach`): the pinned frames facing a given span
    /// are then a run that one binary search ends and a backward scan
    /// leaves once `reach` falls short.
    fn load_frames(
        &self,
        g: usize,
        frames: &[Option<Rect>],
        bases: &[i64],
        axis: Axis,
        pinned: &mut Vec<PinnedFrame>,
    ) -> (usize, usize) {
        let from = pinned.len();
        pinned.extend(self.groups[g].iter().filter_map(|&d| {
            let fd = frames[d]?;
            let (lo, hi, end) = (fd.lo_across(axis), fd.hi_across(axis), fd.hi_along(axis));
            Some(PinnedFrame {
                lo,
                hi,
                reach: hi,
                end,
                end_rel: end - bases[d],
            })
        }));
        pinned[from..].sort_unstable_by_key(|p| p.lo);
        let mut reach = i64::MIN;
        for p in &mut pinned[from..] {
            reach = reach.max(p.hi);
            p.reach = reach;
        }
        (from, pinned.len())
    }
}

/// A pinned cluster's frame as the partner walk reads it: across span,
/// high edge along, and that edge relative to the cluster's base.
/// `reach` is the largest `hi` across of this entry and every one before
/// it in its group's low-edge order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PinnedFrame {
    lo: i64,
    hi: i64,
    reach: i64,
    end: i64,
    end_rel: i64,
}

struct PitchClassDef {
    name: String,
    pairs: Vec<(usize, usize)>,
}

/// A rigid cluster: items whose bodies overlap with positive area in the
/// input (crosspoint masks over their squares, personality masks over the
/// basic cell) move as one unit.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Cluster {
    members: Vec<usize>,
    /// Member with the largest body — the cluster's identity and origin.
    rep: usize,
}

/// Hierarchically compacts one assembly cell: instances (and direct
/// boxes) are re-placed along both axes against each other's interface
/// abstracts, with abutting rows/columns folded through shared λ pitch
/// classes. Leaf definitions are untouched — nothing is flattened into
/// the result.
///
/// The instances' abstracts are composed bottom-up from the definitions
/// below `root`; [`compact_hierarchy`] shares one such build across the
/// whole walk instead.
///
/// # Errors
///
/// Returns [`HierError`] when a referenced definition is missing or
/// recursive, when pins conflict (infeasible), or when the pitch
/// fixpoint / axis alternation fails to stabilize.
pub fn compact_cell(
    table: &CellTable,
    root: CellId,
    rules: &DesignRules,
    solver: &dyn Solver,
    opts: &HierOptions,
) -> Result<HierOutcome, HierError> {
    let mut abstracts = Abstracts::new(rules, &opts.limits);
    abstracts.prepare(table, table.require(root)?)?;
    compact_cell_with(table, root, &abstracts, rules, solver, opts, &mut NoHooks)
}

/// [`compact_cell`] against an already-prepared abstract store, with
/// hooks — the hierarchy walk's entry. Every child definition `root`
/// instances must be in `abstracts`; each distinct `(child, orientation)`
/// is oriented from the child's `NORTH` abstract once per call. The hooks
/// only observe and inject faults, so every hook set computes exactly
/// what [`NoHooks`] does.
pub(crate) fn compact_cell_with(
    table: &CellTable,
    root: CellId,
    abstracts: &Abstracts,
    rules: &DesignRules,
    solver: &dyn Solver,
    opts: &HierOptions,
    hooks: &mut dyn CompactHooks,
) -> Result<HierOutcome, HierError> {
    opts.limits.check_deadline()?;
    let def = table.require(root)?;
    let mut shapes: Vec<Arc<CellAbstract>> = Vec::new();
    let mut shape_of: HashMap<ShapeKey, usize> = HashMap::new();
    let mut items: Vec<Item> = Vec::new();

    for (k, obj) in def.objects().iter().enumerate() {
        match obj {
            LayoutObject::Instance(inst) => {
                let key = ShapeKey::Cell(inst.cell, {
                    let o = inst.orientation;
                    (o.rotation as u8, o.mirror_y)
                });
                let shape = match shape_of.get(&key) {
                    Some(&s) => s,
                    None => {
                        let north = abstracts.north(inst.cell).ok_or_else(|| {
                            HierError::Internal(format!(
                                "no abstract for child {:?} of `{}`",
                                inst.cell,
                                def.name()
                            ))
                        })?;
                        shapes.push(match inst.orientation {
                            Orientation::NORTH => north.clone(),
                            o => Arc::new(north.oriented(o)),
                        });
                        shape_of.insert(key, shapes.len() - 1);
                        shapes.len() - 1
                    }
                };
                items.push(Item {
                    object: k,
                    pos: inst.point_of_call,
                    key,
                    shape,
                });
            }
            LayoutObject::Box { layer, rect } => {
                let local = rect.translate(Vector::new(-rect.lo().x, -rect.lo().y));
                shapes.push(Arc::new(CellAbstract::from_boxes(
                    &[(*layer, local)],
                    rules,
                )));
                items.push(Item {
                    object: k,
                    pos: rect.lo(),
                    key: ShapeKey::Box(layer.index(), (rect.width(), rect.height())),
                    shape: shapes.len() - 1,
                });
            }
            LayoutObject::Label { .. } => {}
        }
    }

    let flat_boxes = items.iter().map(|i| shapes[i.shape].source_boxes()).sum();
    // Checkpoint: the flat box count this cell's abstracts summarize.
    if let Some(f) = hooks.fault(FaultSite::Checkpoint) {
        return Err(injected_error(f, Axis::X));
    }
    opts.limits.check_boxes(flat_boxes)?;
    if items.is_empty() {
        return Ok(HierOutcome {
            cell: def.clone(),
            pitches: Vec::new(),
            passes: 0,
            converged: true,
            report: HierReport {
                sweeps: Vec::new(),
                flat_boxes,
            },
        });
    }

    let clusters = rigid_clusters(&items, &shapes);
    let structure = [
        axis_structure(table, Axis::X, &items, &clusters),
        axis_structure(table, Axis::Y, &items, &clusters),
    ];

    let cx = CellContext {
        items: &items,
        shapes: &shapes,
        clusters: &clusters,
        structure: &structure,
        rules,
        solver,
        opts,
    };
    let mut positions: Vec<Point> = items.iter().map(|i| i.pos).collect();
    let mut report = HierReport {
        sweeps: Vec::new(),
        flat_boxes,
    };
    let mut final_pitch: [Vec<HierPitch>; 2] = [Vec::new(), Vec::new()];
    // One sweep arena per axis: the constraint system, its CSR graph's
    // buffers and the oracle index are cleared and refilled across
    // alternation passes instead of reallocated. Per axis, not shared:
    // one shared arena raised peak RSS (DESIGN.md, "Solver-side
    // slimming").
    let mut scratch: [SweepScratch; 2] = [SweepScratch::new(), SweepScratch::new()];
    let mut passes = 0;
    let mut converged = false;
    for _ in 0..opts.max_passes {
        let before = positions.clone();
        for axis in Axis::BOTH {
            let (stats, pitches) = sweep_axis(
                &cx,
                axis,
                &mut positions,
                hooks,
                &mut scratch[axis_index(axis)],
            )?;
            report.sweeps.push(stats);
            final_pitch[axis_index(axis)] = pitches;
        }
        passes += 1;
        if positions == before {
            converged = true;
            break;
        }
    }

    // Rebuild the assembly with the solved origins; labels pass through.
    let mut cell = CellDefinition::new(def.name());
    let delta: HashMap<usize, Vector> = items
        .iter()
        .zip(&positions)
        .map(|(item, &p)| (item.object, p - item.pos))
        .collect();
    for (k, obj) in def.objects().iter().enumerate() {
        match obj {
            LayoutObject::Instance(inst) => {
                let d = delta[&k];
                let mut moved = *inst;
                moved.point_of_call = inst.point_of_call + d;
                cell.add_instance(moved);
            }
            LayoutObject::Box { layer, rect } => {
                cell.add_box(*layer, rect.translate(delta[&k]));
            }
            LayoutObject::Label { text, at } => {
                cell.add_label(text.clone(), *at);
            }
        }
    }

    let [px, py] = final_pitch;
    Ok(HierOutcome {
        cell,
        pitches: px.into_iter().chain(py).collect(),
        passes,
        converged,
        report,
    })
}

/// Union-find over rigid attachment: two items move as one unit when one
/// body fully contains the other (a personality mask riding inside its
/// host cell) or their rule-interacting material overlaps with positive
/// area. Background-layer overlap alone does **not** fuse — compacted
/// neighbours legitimately interpenetrate their wells, and fusing them
/// would freeze the assembly solid on a recompaction pass.
///
/// Both tests imply that the two bodies touch (material lies inside the
/// body), so the candidates are the touching body pairs from a one-label
/// [`GeomIndex`] walk. They are merged in ascending `(i, j)` order —
/// the order of an all-pairs loop — so the union sequence, and with it
/// every root and cluster index, depends only on the placement.
fn rigid_clusters(items: &[Item], shapes: &[Arc<CellAbstract>]) -> Vec<Cluster> {
    let bodies = Bodies::new(items, shapes);
    let (index, ids) = present_index(&bodies.bbox, Axis::X);
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for k in 0..index.len() {
        for k2 in index.touching_after(k) {
            let (i, j) = (ids[k], ids[k2]);
            pairs.push((i.min(j), i.max(j)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut parent: Vec<usize> = (0..items.len()).collect();
    for (i, j) in pairs {
        if bodies.fuse(i, j) {
            union(&mut parent, i, j);
        }
    }
    bodies.group(&mut parent)
}

/// Absolute body and material boxes of every item, for clustering.
struct Bodies {
    bbox: Vec<Option<Rect>>,
    material: Vec<Option<Rect>>,
}

impl Bodies {
    fn new(items: &[Item], shapes: &[Arc<CellAbstract>]) -> Bodies {
        let place = |r: Option<Rect>, i: &Item| r.map(|r| at(r, i.pos));
        Bodies {
            bbox: items
                .iter()
                .map(|i| place(shapes[i.shape].bbox(), i))
                .collect(),
            material: items
                .iter()
                .map(|i| place(shapes[i.shape].material(), i))
                .collect(),
        }
    }

    /// Whether items `i` and `j` attach rigidly: one body contains the
    /// other, or their materials overlap with positive area.
    fn fuse(&self, i: usize, j: usize) -> bool {
        let (Some(bi), Some(bj)) = (self.bbox[i], self.bbox[j]) else {
            return false;
        };
        let contained = bi.contains_rect(bj) || bj.contains_rect(bi);
        let material_overlap = match (self.material[i], self.material[j]) {
            (Some(ma), Some(mb)) => ma.intersect(mb).is_some_and(|o| o.area() > 0),
            _ => false,
        };
        contained || material_overlap
    }

    /// The clusters of a finished union-find, in ascending root order.
    fn group(&self, parent: &mut [usize]) -> Vec<Cluster> {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..parent.len() {
            let r = find(parent, i);
            groups.entry(r).or_default().push(i);
        }
        groups
            .into_values()
            .filter_map(|members| {
                // Every group holds at least its root, so the filter never
                // actually drops anything — it just keeps this panic-free.
                let rep = members.iter().copied().max_by_key(|&i| {
                    (self.bbox[i].map_or(0, |r| r.area()), std::cmp::Reverse(i))
                })?;
                Some(Cluster { members, rep })
            })
            .collect()
    }
}

/// A one-label index over the `Some` entries of `rects`, plus each
/// indexed box's position in `rects`.
fn present_index(rects: &[Option<Rect>], axis: Axis) -> (GeomIndex<()>, Vec<usize>) {
    let (boxes, ids) = rects
        .iter()
        .enumerate()
        .filter_map(|(k, r)| r.map(|r| (((), r), k)))
        .unzip();
    (GeomIndex::build_from_vec(boxes, axis), ids)
}

/// Union-find root of `i`, with path halving. Iterative: a chain can be
/// as long as the item list, far deeper than a worker thread's stack.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// Merges `j`'s set under `i`'s root.
fn union(parent: &mut [usize], i: usize, j: usize) {
    let (ri, rj) = (find(parent, i), find(parent, j));
    if ri != rj {
        parent[rj] = ri;
    }
}

fn at(r: Rect, p: Point) -> Rect {
    r.translate(Vector::new(p.x, p.y))
}

fn along(p: Point, axis: Axis) -> i64 {
    match axis {
        Axis::X => p.x,
        Axis::Y => p.y,
    }
}

/// Pins and pitch classes for one axis, from the input placement.
fn axis_structure(
    table: &CellTable,
    axis: Axis,
    items: &[Item],
    clusters: &[Cluster],
) -> AxisStructure {
    let origin = |c: &Cluster| items[c.rep].pos;

    // Pins: clusters drawn at the same along-coordinate stay at the same
    // along-coordinate — the design-by-example reading of alignment. A
    // buffer drawn on its column keeps its column; a register stack drawn
    // level with its array stays level, even after the leaf pass shrinks
    // the bodies so they no longer touch.
    let origins: Vec<i64> = clusters.iter().map(|c| along(origin(c), axis)).collect();
    let pins = PinGroups::new(&origins);

    // Rows: clusters sharing an across-origin, ordered along the axis.
    let mut rows: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (ci, c) in clusters.iter().enumerate() {
        rows.entry(along(origin(c), axis.other()))
            .or_default()
            .push(ci);
    }
    let mut classes: BTreeMap<(ShapeKey, ShapeKey, i64), Vec<(usize, usize)>> = BTreeMap::new();
    for row in rows.values_mut() {
        row.sort_by_key(|&ci| (along(origin(&clusters[ci]), axis), ci));
        for w in row.windows(2) {
            let (a, b) = (w[0], w[1]);
            let d = along(origin(&clusters[b]), axis) - along(origin(&clusters[a]), axis);
            if d == 0 {
                continue; // coincident clusters are the pins' business
            }
            let key = (items[clusters[a].rep].key, items[clusters[b].rep].key, d);
            classes.entry(key).or_default().push((a, b));
        }
    }
    let name_of = |key: &ShapeKey| -> String {
        match key {
            ShapeKey::Cell(id, _) => table
                .get(*id)
                .map_or_else(|| format!("#{}", id.raw()), |c| c.name().to_owned()),
            ShapeKey::Box(layer, _) => format!("box:{}", Layer::ALL[*layer]),
        }
    };
    let classes = classes
        .into_iter()
        .map(|((ka, kb, d), pairs)| PitchClassDef {
            name: format!("{axis}:{}->{}@{d}", name_of(&ka), name_of(&kb)),
            pairs,
        })
        .collect();
    AxisStructure { pins, classes }
}

/// Absolute abstract boxes of one sweep, loaded into the scan arena's
/// recycled spatial index (the box loop reads its items, the
/// hidden-edge oracle its buckets), plus each box's owning cluster and
/// each cluster's absolute material frame.
fn sweep_geometry(
    axis: Axis,
    items: &[Item],
    shapes: &[Arc<CellAbstract>],
    clusters: &[Cluster],
    positions: &[Point],
    scan: &mut ScanScratch,
) -> (Vec<usize>, Vec<Option<Rect>>) {
    let pbuf = &mut scan.items;
    pbuf.clear();
    let mut owner: Vec<usize> = Vec::new();
    for (ci, c) in clusters.iter().enumerate() {
        for &m in &c.members {
            for &(l, r) in shapes[items[m].shape].profile(axis) {
                pbuf.push((l, at(r, positions[m])));
                owner.push(ci);
            }
        }
    }
    let stale = scan.index.rebuild_from_vec(std::mem::take(pbuf), axis);
    *pbuf = stale;
    let frames = clusters
        .iter()
        .map(|c| {
            let mut bb = BoundingBox::new();
            for &m in &c.members {
                if let Some(r) = shapes[items[m].shape].material() {
                    bb.include_rect(at(r, positions[m]));
                }
            }
            bb.rect()
        })
        .collect();
    (owner, frames)
}

/// Raises the row's weight for partner cluster `b` to `w`, listing `b`
/// as touched on its first weight (`i64::MIN` marks an empty slot).
fn raise(row: &mut [i64], touched: &mut Vec<usize>, b: usize, w: i64) {
    if row[b] == i64::MIN {
        touched.push(b);
    }
    row[b] = row[b].max(w);
}

/// Work counters of one [`enumerate_pairs`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PairWork {
    /// Frames the partner walks visited.
    frames_visited: usize,
    /// Box pairs the box loops examined (weld and spacing tests).
    box_pairs: usize,
    /// Hidden-edge oracle queries made.
    hidden_tests: usize,
}

/// Frames and box pairs examined between two deadline checks inside
/// enumeration.
const DEADLINE_STRIDE: usize = 4096;

/// Adds a wide frame — `(high edge along, across span)` — to the shadow
/// wall unless a wall frame already shadows everything it would: one
/// that ends no later and spans at least its across span. Frames the new
/// one dominates that way leave the wall, so a row of equal cells keeps
/// one wall frame, not one per cell.
fn push_wall(wall: &mut Vec<(i64, i64, i64)>, (hi, c0, c1): (i64, i64, i64)) {
    if wall
        .iter()
        .any(|&(h, d0, d1)| h <= hi && d0 <= c0 && d1 >= c1)
    {
        return;
    }
    wall.retain(|&(h, d0, d1)| !(hi <= h && c0 <= d0 && c1 >= d1));
    wall.push((hi, c0, c1));
}

/// The sweep kernel: frame, weld, and spacing emission between the
/// clusters of the abstract boxes in `scan.index` (`owner[k]` owns box
/// `k`; `frames` are the clusters' material frames and `bases` their
/// along-origins). Returns the emission and the walk's work counters.
///
/// Each source cluster `a` walks its partner clusters once, and the same
/// walk yields frames, welds and spacing:
///
/// * **Partners** — a one-label index over the material frames yields
///   every frame within the largest spacing rule `S` of `a`'s frame
///   across that reaches `a`'s low edge along (the walk starts one
///   widest frame before it). A frame `b` wholly past `a`'s high edge
///   whose across span strictly overlaps `a`'s is a *frame pair*: its
///   weight `(fa.hi − base_a) − (fb.lo − base_b)` raises the dense row
///   (`scan.row`).
/// * **Pin links** — the clusters pinned to `a` (`pins`, exact at
///   offset 0, so they share `a`'s base) already bound each past frame
///   `b`: a pinned frame `d` that ends before it (`fd.hi ≤ fb.lo`) and
///   strictly overlaps it across carries the frame pair `(d, b)`, so the
///   system holds `b − a ≥ L = (fd.hi − base_d) − (fb.lo − base_b)`,
///   the largest over such `d`. Every abstract box lies inside its
///   cluster's frame, so every weight of `(a, b)` is at most
///   `U = S + (fa.hi − base_a) − (fb.lo − base_b)`; when `L ≥ U` the
///   pair is skipped outright, frame and spacing.
/// * **Wall** — a past frame `b` joins the shadow *wall* when the bound
///   the walk knows on `b − a` (its frame weight if it faces `a`, or
///   `L`) is at least `T = U − width(b)`: `b`'s high edge then lies `S`
///   or more past `a`'s. For a frame that faces `a` this is "at least
///   `S` wide"; through a link, a frame diagonal to `a` in the next row
///   can join, and then shadows the rest of that row.
/// * **Frame shadow** — the pair `(a, b)` is skipped outright when a
///   wall frame `c` ends before it (`fc.hi ≤ fb.lo`) and strictly
///   overlaps `fb` across: the bound on `c − a` (at least `T(a, c)`)
///   plus the frame pair `(c, b)` is at least `U(a, b)`. Every link of
///   such a chain — `(a, c)`, `(d, c)` and `(c, b)` — has a smaller
///   along gap than `(a, b)` (a linked wall frame needs
///   `width(c) ≥ S + fa.hi − fd.hi`, so `(d, c)` is at least `S`
///   closer), so by induction on the gap the chain holds even where its
///   own links were skipped. A frame that is itself skipped does not
///   join the wall. The kept pairs carry the same weights as an
///   all-pairs pass and the dropped ones are implied by the kept ones
///   and the pins, so solutions are unchanged (DESIGN.md, "Indexed cell
///   pass").
/// * **Box pairs** — every box of `a` against every box of each partner
///   near it: same-layer boxes that touch (closed intersection) are one
///   net, a *weld* that keeps the two clusters' offset; any other pair
///   with a spacing rule `s` whose partner box starts at or past the
///   source box's high edge, within `s` across (the DRC gap is L∞, so a
///   diagonal pair still needs the full along spacing), is a spacing
///   candidate. Touching clusters leave no room for a wall frame between
///   them, so no weld is ever skipped.
///
/// A spacing candidate whose weight does not exceed the row's value for
/// its partner — the frame weight, or an earlier candidate — cannot
/// change the maximum, hidden or not, so only the others ask the
/// hidden-edge oracle. A box pair whose across spans overlap lies in
/// frames that overlap across too, so the oracle's profiles for `a`'s
/// boxes stop at the furthest high edge of a partner facing `a`, not at
/// the cell's furthest box. Boxes are grouped by owner (`scan.owned`),
/// so each source is walked once however the owners are numbered, and
/// the emission comes out sorted by pair.
///
/// # Errors
///
/// [`Exhausted`] when `limits`' deadline has passed, checked before the
/// first source box's pairs and then, at a source box, once per
/// [`DEADLINE_STRIDE`] frames and box pairs examined.
fn enumerate_pairs(
    scan: &mut ScanScratch,
    rules: &DesignRules,
    owner: &[usize],
    frames: &[Option<Rect>],
    bases: &[i64],
    pins: &PinGroups,
    limits: &Limits,
) -> Result<(Emission, PairWork), Exhausted> {
    let ScanScratch {
        index,
        profiles,
        row,
        touched,
        owned_start,
        owned,
        wall,
        partners,
        pinned,
        pinned_at,
        ..
    } = scan;
    let index: &GeomIndex<Layer> = index;
    let axis = index.axis();
    let n = bases.len();
    let boxes = index.items();
    let wide = rules.max_spacing();
    // Partners lie within `wide` across; at least 1, so frames that only
    // touch across (and may weld) are reached too.
    let reach = wide.max(1);
    let mut work = PairWork::default();
    let (mut weights, mut welds) = (Vec::new(), Vec::new());
    row.clear();
    row.resize(n, i64::MIN);
    touched.clear();

    // Boxes grouped by owner: a counting sort into `owned`, with
    // `owned_start[c]..owned_start[c + 1]` the boxes of cluster `c`.
    owned_start.clear();
    owned_start.resize(n + 1, 0);
    for &c in owner {
        owned_start[c + 1] += 1;
    }
    for c in 0..n {
        owned_start[c + 1] += owned_start[c];
    }
    owned.clear();
    owned.resize(owner.len(), 0);
    for (k, &c) in owner.iter().enumerate() {
        owned[owned_start[c]] = k;
        owned_start[c] += 1;
    }
    owned_start.rotate_right(1);
    owned_start[0] = 0;

    let (findex, fowner) = present_index(frames, axis);
    let widest = findex
        .items()
        .iter()
        .map(|&(_, f)| f.extent_along(axis))
        .max()
        .unwrap_or(0);
    // Each pin group's frames, loaded at the first past frame one of its
    // clusters reaches as a source.
    pinned.clear();
    pinned_at.clear();
    pinned_at.resize(pins.groups.len(), None);
    let mut cursor = VisibilityCursor::with_cache(index, std::mem::take(profiles));
    let mut next_check = 0;
    for (a, fa) in frames.iter().enumerate() {
        let Some(fa) = *fa else { continue };
        let (a0, a1) = (fa.lo_across(axis), fa.hi_across(axis));
        let a_hi = fa.hi_along(axis) - bases[a];
        // `a`'s pin group. `a`'s own frame in it adds nothing: through it
        // the bound is the frame weight, `S` short of skipping and no more
        // than the frame test for the wall. Links need a positive rule: at
        // `S = 0` two pinned frames that end level could each skip their
        // pair through the other.
        let group = pins.group_of.get(a).copied().flatten().filter(|_| wide > 0);
        wall.clear();
        partners.clear();
        // The furthest high edge of a partner facing `a` across: only
        // those pose hidden-edge queries with positive overlap.
        let mut until = i64::MIN;
        let from = fa.lo_along(axis).saturating_sub(widest);
        for kb in findex.ordered_after((), from, (a0, a1), reach) {
            work.frames_visited += 1;
            let b = fowner[kb];
            let fb = findex.items()[kb].1;
            if b == a || fb.hi_along(axis) < fa.lo_along(axis) {
                continue;
            }
            let (b0, b1) = (fb.lo_across(axis), fb.hi_across(axis));
            let facing = b0 < a1 && a0 < b1;
            if fb.lo_along(axis) >= fa.hi_along(axis) {
                if wall
                    .iter()
                    .any(|&(hi, c0, c1)| hi <= fb.lo_along(axis) && c0 < b1 && b0 < c1)
                {
                    continue;
                }
                let links = match group {
                    Some(g) => {
                        let load = || pins.load_frames(g, frames, bases, axis, pinned);
                        let (start, end) = *pinned_at[g].get_or_insert_with(load);
                        &pinned[start..end]
                    }
                    None => &[],
                };
                let (b_lo, b_hi) = (fb.lo_along(axis) - bases[b], fb.hi_along(axis) - bases[b]);
                // The bound on `b − a` the pins already imply: a frame `d`
                // pinned to `a` that ends before `fb` and faces it holds
                // the frame pair `(d, b)`, and `d − a = 0`.
                let linked = links[..links.partition_point(|p| p.lo < b1)]
                    .iter()
                    .rev()
                    .take_while(|p| p.reach > b0)
                    .filter(|p| p.hi > b0 && p.end <= fb.lo_along(axis))
                    .map(|p| p.end_rel - b_lo)
                    .max()
                    .unwrap_or(i64::MIN);
                // A bound of `t` puts `b`'s high edge `S` past `a`'s; every
                // weight of `(a, b)` is at most `t + width(b)`.
                let t = wide + a_hi - b_hi;
                if linked >= t + (b_hi - b_lo) {
                    continue;
                }
                let implied = if facing {
                    raise(row, touched, b, a_hi - b_lo);
                    linked.max(a_hi - b_lo)
                } else {
                    linked
                };
                if implied >= t {
                    push_wall(wall, (fb.hi_along(axis), b0, b1));
                }
            }
            if facing {
                until = until.max(fb.hi_along(axis));
            }
            partners.push(b);
        }

        for &i in &owned[owned_start[a]..owned_start[a + 1]] {
            let examined = work.frames_visited + work.box_pairs;
            if examined >= next_check {
                limits.check_deadline()?;
                next_check = examined + DEADLINE_STRIDE;
            }
            let (la, ra) = boxes[i];
            let (r0, r1) = (ra.lo_across(axis), ra.hi_across(axis));
            for &b in partners.iter() {
                // Partners come from the frame index, so they have frames.
                let Some(fb) = frames[b] else { continue };
                if fb.hi_along(axis) < ra.lo_along(axis)
                    || fb.lo_across(axis) >= r1 + reach
                    || fb.hi_across(axis) <= r0 - reach
                {
                    continue;
                }
                for &j in &owned[owned_start[b]..owned_start[b + 1]] {
                    work.box_pairs += 1;
                    let (lb, rb) = boxes[j];
                    // Welds: same-layer material touching across a
                    // cluster boundary is one electrical net. Like the
                    // flat engine's connectivity constraints, the two
                    // clusters keep their current offset — exempting the
                    // pair from spacing alone would let the compactor pry
                    // a connected bus apart. Found from both sides; kept
                    // from the lower cluster index.
                    if la == lb && ra.intersect(rb).is_some() {
                        if a < b {
                            welds.push(((a, b), bases[b] - bases[a]));
                        }
                        continue;
                    }
                    let Some(s) = rules.min_spacing(la, lb) else {
                        continue;
                    };
                    if rb.lo_along(axis) < ra.hi_along(axis)
                        || rb.lo_across(axis) >= r1 + s
                        || rb.hi_across(axis) <= r0 - s
                    {
                        continue;
                    }
                    let w = s + (ra.hi_along(axis) - bases[a]) - (rb.lo_along(axis) - bases[b]);
                    if w <= row[b] {
                        continue;
                    }
                    work.hidden_tests += 1;
                    if !cursor.hidden_between(i, j, Some(until)) {
                        raise(row, touched, b, w);
                    }
                }
            }
        }
        touched.sort_unstable();
        for b in touched.drain(..) {
            weights.push(((a, b), std::mem::replace(&mut row[b], i64::MIN)));
        }
    }
    *profiles = cursor.into_cache();
    welds.sort_unstable();
    welds.dedup();
    Ok((Emission { weights, welds }, work))
}

/// What every axis sweep of one assembly cell reads: its movable items
/// and their shapes, the rigid clusters, each axis's pins and pitch
/// classes, and the run's rules, backend and options. Built once per
/// cell in [`compact_cell_with`].
struct CellContext<'a> {
    items: &'a [Item],
    shapes: &'a [Arc<CellAbstract>],
    clusters: &'a [Cluster],
    structure: &'a [AxisStructure; 2],
    rules: &'a DesignRules,
    solver: &'a dyn Solver,
    opts: &'a HierOptions,
}

/// One axis sweep: constraint generation on abstracts, pitch fixpoint,
/// position update. Returns the stats and the solved pitch classes.
///
/// A sweep whose emission equals the last solved one on the same axis of
/// the same cell (`scratch.last`) has the same constraint system — pins
/// and classes are fixed per cell and axis — so it skips the prune, the
/// system build and the fixpoint and writes back the kept solution. It
/// reports 0 pitch rounds, solver passes and graph builds. Every backend
/// solves equal systems to equal positions (see
/// [`Solver::solve_system`]), so the placement is the one a re-solve
/// would give (DESIGN.md, "Confirming sweeps reuse the last solve").
fn sweep_axis(
    cx: &CellContext,
    axis: Axis,
    positions: &mut [Point],
    hooks: &mut dyn CompactHooks,
    scratch: &mut SweepScratch,
) -> Result<(HierSweepStats, Vec<HierPitch>), HierError> {
    if let Some(f) = hooks.fault(FaultSite::Sweep) {
        return Err(injected_error(f, axis));
    }
    let CellContext {
        items,
        shapes,
        clusters,
        rules,
        opts,
        ..
    } = *cx;
    let structure = &cx.structure[axis_index(axis)];
    let n = clusters.len();

    let (owner, frames) =
        sweep_geometry(axis, items, shapes, clusters, positions, &mut scratch.scan);

    // Cluster origins along the axis, fixed for the whole sweep.
    let bases: Vec<i64> = clusters
        .iter()
        .map(|c| along(positions[c.rep], axis))
        .collect();
    let (emission, work) = enumerate_pairs(
        &mut scratch.scan,
        rules,
        &owner,
        &frames,
        &bases,
        &structure.pins,
        &opts.limits,
    )?;

    // Normalized initial coordinates (clusters are never empty here, but
    // an empty sweep normalizes to 0 rather than panicking).
    let min_base = bases.iter().copied().min().unwrap_or(0);
    let emitted = emission.weights.len() + emission.welds.len() * 2;
    let constraints = emitted
        + structure.pins.len() * 2
        + structure
            .classes
            .iter()
            .map(|c| c.pairs.len())
            .sum::<usize>();
    // Checkpoint: the generated constraint count of this sweep.
    opts.limits.check_constraints(constraints)?;

    let mut solve_work = SolveWork::default();
    let kept = match &mut scratch.last {
        Some(last) if last.emission == emission => last,
        last => {
            let (solved, w) = solve_fixpoint(
                cx,
                axis,
                emission,
                &bases,
                hooks,
                &mut scratch.sys,
                &mut scratch.scan,
            )?;
            solve_work = w;
            last.insert(solved)
        }
    };

    // Write the solved origins back: every member of a cluster moves by
    // the cluster's delta.
    for (ci, c) in clusters.iter().enumerate() {
        let d = kept.positions[ci] + min_base - bases[ci];
        for &m in &c.members {
            match axis {
                Axis::X => positions[m].x += d,
                Axis::Y => positions[m].y += d,
            }
        }
    }
    let extent = match (kept.positions.iter().min(), kept.positions.iter().max()) {
        (Some(&lo), Some(&hi)) => hi - lo,
        _ => 0,
    };

    if let Some(c) = hooks.counters() {
        c.constraints_emitted += emitted;
        // A reused sweep built no system and ran no fixpoint.
        c.sweeps_solved += usize::from(solve_work.rounds > 0);
        c.solver_passes += solve_work.passes;
    }
    let pitches = structure
        .classes
        .iter()
        .zip(&kept.lambdas)
        .map(|(class, &value)| HierPitch {
            axis,
            name: class.name.clone(),
            value,
            pairs: class.pairs.len(),
        })
        .collect();
    Ok((
        HierSweepStats {
            axis,
            clusters: n,
            abstract_boxes: owner.len(),
            frames_visited: work.frames_visited,
            box_pairs: work.box_pairs,
            hidden_tests: work.hidden_tests,
            constraints,
            pitch_rounds: solve_work.rounds,
            solver_passes: solve_work.passes,
            graph_builds: solve_work.builds,
            extent,
        },
        pitches,
    ))
}

/// The solver work of one sweep's pitch fixpoint.
#[derive(Debug, Default)]
struct SolveWork {
    rounds: usize,
    passes: usize,
    builds: usize,
}

/// Builds one sweep's difference system from its emission and the
/// cell's pins and classes, and solves it to the pitch fixpoint.
///
/// The system is built once (refilled into the sweep arena); each round
/// solves it from zero, then every class pitch rises to its worst member
/// gap until stable, patching only the changed class weights in place
/// (`set_weight` keeps the CSR graph instead of rebuilding it).
///
/// The emission is transitively reduced here at system-build time: an
/// origin edge already implied by a tighter kept two-hop chain never
/// reaches the solver. It is the flat scanline's prune routine, with
/// nothing added for crossing a cluster (its extent is folded into the
/// origin weights), so the kept set is deterministic and
/// solution-identical.
fn solve_fixpoint(
    cx: &CellContext,
    axis: Axis,
    emission: Emission,
    bases: &[i64],
    hooks: &mut dyn CompactHooks,
    sys: &mut ConstraintSystem,
    scan: &mut ScanScratch,
) -> Result<(LastSolve, SolveWork), HierError> {
    let CellContext {
        clusters,
        rules,
        solver,
        opts,
        ..
    } = *cx;
    let structure = &cx.structure[axis_index(axis)];
    let n = clusters.len();
    let min_base = bases.iter().copied().min().unwrap_or(0);
    let mut lambdas: Vec<i64> = structure
        .classes
        .iter()
        .map(|_| rules.spacing_floor())
        .collect();
    sys.reset(axis);
    let builds = sys.graph_builds();
    let vars: Vec<_> = (0..n).map(|ci| sys.add_var(bases[ci] - min_base)).collect();
    let ScanScratch { starts, keep, .. } = scan;
    let edges = &emission.weights;
    reduce_transitively(
        n,
        edges,
        |&((a, b), w)| (a, b, w),
        |_| 0,
        opts.prune,
        starts,
        keep,
    );
    for (&((a, b), w), _) in edges.iter().zip(keep.iter()).filter(|(_, &k)| k) {
        sys.require(vars[a], vars[b], w);
    }
    for &((a, b), d) in &emission.welds {
        sys.require_exact(vars[a], vars[b], d);
    }
    for (a, b) in structure.pins.pairs() {
        sys.require_exact(vars[a], vars[b], 0);
    }
    let mut class_slots: Vec<Vec<usize>> = Vec::with_capacity(structure.classes.len());
    for (k, class) in structure.classes.iter().enumerate() {
        let mut slots = Vec::with_capacity(class.pairs.len());
        for &(a, b) in &class.pairs {
            // require_slot: these are re-weighted by index during the
            // fixpoint, so they must never dedup against a neighbour.
            slots.push(sys.require_slot(vars[a], vars[b], lambdas[k]));
        }
        class_slots.push(slots);
    }
    let mut work = SolveWork::default();
    let solution = loop {
        work.rounds += 1;
        if work.rounds > opts.max_pitch_rounds {
            return Err(HierError::Diverged(format!(
                "pitch fixpoint still moving after {} rounds on {axis}",
                opts.max_pitch_rounds
            )));
        }
        if let Some(f) = hooks.fault(FaultSite::Solve) {
            return Err(injected_error(f, axis));
        }
        let out = solver.solve_system(sys, &[])?;
        work.passes += out.passes;
        // Checkpoints: cumulative relaxation passes and the deadline.
        opts.limits.check_passes(work.passes)?;
        opts.limits.check_deadline()?;
        let next: Vec<i64> = structure
            .classes
            .iter()
            .zip(&lambdas)
            .map(|(class, &cur)| {
                class
                    .pairs
                    .iter()
                    .map(|&(a, b)| out.positions[b] - out.positions[a])
                    .max()
                    .unwrap_or(cur)
            })
            .collect();
        let stable = next == lambdas;
        if !stable {
            for (k, slots) in class_slots.iter().enumerate() {
                if next[k] != lambdas[k] {
                    for &s in slots {
                        sys.set_weight(s, next[k]);
                    }
                }
            }
        }
        lambdas = next;
        if stable {
            break out;
        }
    };
    work.builds = sys.graph_builds() - builds;
    Ok((
        LastSolve {
            emission,
            positions: solution.positions,
            lambdas,
        },
        work,
    ))
}

/// Hierarchically compacts every assembly cell reachable from `top`,
/// children before callers, and returns the updated table: the paper's
/// whole-chip flow (leaves were compacted by the leaf pass; assemblies
/// compose from interfaces, never from flattened masks).
///
/// The interface abstracts follow the same economics: each leaf derives
/// its `NORTH` abstract from its own boxes once, each called assembly
/// composes its abstract once from its compacted placement and its
/// children's abstracts, and a caller orients them per distinct
/// `(child, orientation)`. No step flattens a subtree;
/// [`ChipLayout::abstract_inputs`] counts the boxes the walk fed to
/// profile derivation.
///
/// # Errors
///
/// Propagates [`HierError`] from any level; a cyclic hierarchy surfaces
/// as [`HierError::Layout`], and an assembly whose x/y alternation does
/// not reach a fixpoint within [`HierOptions::max_passes`] is reported
/// as [`HierError::Diverged`] — a non-converged placement can carry
/// stale cross-axis constraints, so the chip flow refuses to build on
/// it. ([`compact_cell`] still returns such partial results with
/// `converged == false` for callers that want them.) When several cells
/// fail, the error is that of the first failing cell in bottom-up DFS
/// order, at every [`HierOptions::parallelism`].
pub fn compact_hierarchy(
    table: &CellTable,
    top: CellId,
    rules: &DesignRules,
    solver: &dyn Solver,
    opts: &HierOptions,
) -> Result<ChipLayout, HierError> {
    let mut flow = PlainFlow {
        rules,
        solver,
        opts,
    };
    let mut abstracts = Abstracts::new(rules, &opts.limits);
    walk_levels(
        table,
        top,
        opts.parallelism.threads(),
        &mut abstracts,
        &mut flow,
    )
}

/// What [`walk_levels`] does with one ready cell before any worker runs.
pub(crate) enum Resolved<M> {
    /// The outcome is already known (a cache replay), and so is the
    /// cell's `NORTH` abstract if it was cached with it.
    Replayed(HierOutcome, Option<Arc<CellAbstract>>),
    /// The cell must be compacted; `M` is everything a worker needs.
    Miss(M),
}

/// The three per-level steps of one hierarchy flow. [`walk_levels`] owns
/// the schedule, the table, failure poisoning, and result order.
pub(crate) trait LevelFlow: Sync {
    /// A queued miss, read by exactly one worker.
    type Miss: Sync;
    /// What a worker produced for one miss.
    type Done: Send;

    /// Step 1, serial, in level order: replay `cell` or queue it.
    /// `table` holds the final placement of every lower level.
    fn resolve(
        &mut self,
        table: &CellTable,
        cell: CellId,
    ) -> Result<Resolved<Self::Miss>, HierError>;

    /// Step 2, on a worker: compact one miss against `table`, reading
    /// its children's abstracts from `abstracts`.
    fn compute(
        &self,
        table: &CellTable,
        abstracts: &Abstracts,
        cell: CellId,
        miss: &Self::Miss,
    ) -> Self::Done;

    /// Step 3, serial, in level order: fold one computed miss back into
    /// the flow. `Err` fails the cell and poisons its callers.
    fn commit(
        &mut self,
        cell: CellId,
        miss: &Self::Miss,
        done: Self::Done,
    ) -> Result<HierOutcome, HierError>;
}

/// The hook-free reference flow: nothing to replay, nothing to merge.
struct PlainFlow<'a> {
    rules: &'a DesignRules,
    solver: &'a dyn Solver,
    opts: &'a HierOptions,
}

impl LevelFlow for PlainFlow<'_> {
    type Miss = ();
    type Done = Result<HierOutcome, HierError>;

    fn resolve(&mut self, _: &CellTable, _: CellId) -> Result<Resolved<()>, HierError> {
        Ok(Resolved::Miss(()))
    }

    fn compute(
        &self,
        table: &CellTable,
        abstracts: &Abstracts,
        cell: CellId,
        _: &(),
    ) -> Self::Done {
        compact_cell_with(
            table,
            cell,
            abstracts,
            self.rules,
            self.solver,
            self.opts,
            &mut NoHooks,
        )
    }

    fn commit(&mut self, _: CellId, _: &(), done: Self::Done) -> Result<HierOutcome, HierError> {
        converged(done?, self.opts)
    }
}

/// The chip flow's refusal to build on a non-converged placement.
pub(crate) fn converged(
    outcome: HierOutcome,
    opts: &HierOptions,
) -> Result<HierOutcome, HierError> {
    if outcome.converged {
        return Ok(outcome);
    }
    Err(HierError::Diverged(format!(
        "cell `{}` did not reach an x/y fixpoint in {} alternations",
        outcome.cell.name(),
        opts.max_passes
    )))
}

/// The one hierarchy walk. Assembly cells are grouped by
/// [`dependency_levels`]; every cell reads only definitions below it,
/// all re-placed in earlier levels, so each computation sees exactly the
/// table state a serial DFS walk would give it. Each level's misses run
/// through one [`par_map`] (inline and in order at one worker) and are
/// committed in level order after it: no compute reads what a commit
/// writes, so the outcomes, counters and fault trips are the same at
/// every worker count.
///
/// Before a level's misses run, [`Abstracts::prepare`] builds every
/// abstract they read that is not stored yet — leaves from their boxes,
/// lower assemblies from their committed placement — and a replay
/// stores the cached one. Each definition's abstract is built at most
/// once per walk, always on this serial step and only when a caller
/// reads it, so the top's never is.
///
/// A failed cell poisons its callers; every other cell is still
/// computed, and the error reported is the one of the first failing
/// cell in DFS postorder — the cell a serial walk would have stopped at.
/// `cells` comes back in DFS postorder.
pub(crate) fn walk_levels<F: LevelFlow>(
    table: &CellTable,
    top: CellId,
    threads: usize,
    abstracts: &mut Abstracts,
    flow: &mut F,
) -> Result<ChipLayout, HierError> {
    let order = table.bottom_up(top)?;
    let mut out_table = table.clone();
    let mut outcomes: HashMap<CellId, HierOutcome> = HashMap::new();
    // Failed cells with their error; poisoned callers with `None`.
    let mut failed: HashMap<CellId, Option<HierError>> = HashMap::new();
    for level in dependency_levels(table, &order)? {
        let mut misses = Vec::new();
        let mut finished = Vec::new();
        for cell in level {
            let def = out_table.require(cell)?;
            if def.instances().any(|i| failed.contains_key(&i.cell)) {
                failed.insert(cell, None);
                continue;
            }
            match flow.resolve(&out_table, cell)? {
                Resolved::Replayed(outcome, north) => {
                    if let Some(north) = north {
                        abstracts.replay(cell, north);
                    }
                    finished.push((cell, outcome));
                }
                Resolved::Miss(miss) => match abstracts.prepare(&out_table, def) {
                    Ok(()) => misses.push((cell, miss)),
                    Err(e) => {
                        failed.insert(cell, Some(e));
                    }
                },
            }
        }
        let ready: &Abstracts = abstracts;
        let done = par_map(&misses, threads, |(cell, miss)| {
            flow.compute(&out_table, ready, *cell, miss)
        });
        for ((cell, miss), done) in misses.iter().zip(done) {
            let done = done.map_err(|panic| HierError::Internal(panic.to_string()));
            match done.and_then(|done| flow.commit(*cell, miss, done)) {
                Ok(outcome) => finished.push((*cell, outcome)),
                Err(e) => {
                    failed.insert(*cell, Some(e));
                }
            }
        }
        // Nothing in a level reads another cell of the same level, so
        // its placements can land after the whole level ran.
        for (cell, outcome) in finished {
            let Some(slot) = out_table.get_mut(cell) else {
                return Err(HierError::Internal(format!(
                    "cell `{}` vanished from the table mid-walk",
                    outcome.cell.name()
                )));
            };
            *slot = outcome.cell.clone();
            outcomes.insert(cell, outcome);
        }
    }
    if let Some(e) = order.iter().find_map(|c| failed.remove(c).flatten()) {
        return Err(e);
    }
    let mut cells = Vec::with_capacity(outcomes.len());
    for cell in order {
        if let Some(outcome) = outcomes.remove(&cell) {
            cells.push((table.require(cell)?.name().to_owned(), outcome));
        }
    }
    Ok(ChipLayout {
        table: out_table,
        top,
        cells,
        abstract_inputs: abstracts.inputs,
    })
}

/// Groups a [`CellTable::bottom_up`] order into dependency levels over
/// the assembly cells: a cell lands one level above the deepest assembly
/// it references, so by the time a level runs, every definition it can
/// see is final. Leaves are never scheduled (the leaf compactor's
/// business) and don't separate levels. Within a level, cells keep their
/// DFS order.
fn dependency_levels(table: &CellTable, order: &[CellId]) -> Result<Vec<Vec<CellId>>, HierError> {
    // Level of each assembly cell, indexed by raw id; `None` for leaves
    // and cells not in `order`.
    let mut level_of: Vec<Option<usize>> = vec![None; table.len()];
    let mut levels: Vec<Vec<CellId>> = Vec::new();
    for &cell in order {
        let def = table.require(cell)?;
        if def.instances().next().is_none() {
            continue;
        }
        let mut lvl = 0usize;
        for inst in def.instances() {
            if let Some(Some(l)) = level_of.get(inst.cell.raw() as usize) {
                lvl = lvl.max(l + 1);
            }
        }
        level_of[cell.raw() as usize] = Some(lvl);
        if levels.len() <= lvl {
            levels.resize_with(lvl + 1, Vec::new);
        }
        levels[lvl].push(cell);
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Balanced, BellmanFord, SimplexPitch, Topological};
    use proptest::prelude::*;
    use proptest::test_runner::Rng;
    use rsg_layout::{drc, flatten, Instance, Technology};

    fn rules() -> DesignRules {
        Technology::mead_conway(2).rules.clone()
    }

    fn bf() -> BellmanFord {
        BellmanFord::SORTED
    }

    fn leaf(name: &str) -> CellDefinition {
        // 20-wide leaf: a well background and a centred poly bar.
        let mut c = CellDefinition::new(name);
        c.add_box(Layer::Well, Rect::from_coords(0, 0, 20, 20));
        c.add_box(Layer::Poly, Rect::from_coords(8, 0, 12, 20));
        c
    }

    #[test]
    fn abstract_profiles_summarize_edges() {
        let boxes = vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
            (Layer::Poly, Rect::from_coords(10, 0, 14, 10)),
            (Layer::Well, Rect::from_coords(0, 0, 20, 20)), // no rules
        ];
        let a = CellAbstract::from_boxes(&boxes, &rules());
        // One merged strip spanning both poly bars along x.
        assert_eq!(
            a.profile(Axis::X),
            &[(Layer::Poly, Rect::from_coords(0, 0, 14, 10))]
        );
        // Along y the two bars sit in disjoint across-strips.
        assert_eq!(
            a.profile(Axis::Y),
            &[
                (Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
                (Layer::Poly, Rect::from_coords(10, 0, 14, 10)),
            ]
        );
        assert_eq!(a.bbox(), Some(Rect::from_coords(0, 0, 20, 20)));
        assert_eq!(a.material(), Some(Rect::from_coords(0, 0, 14, 10)));
        assert_eq!(a.source_boxes(), 3);
    }

    #[test]
    fn zero_area_boxes_count_but_carry_no_material() {
        let bar = (Layer::Poly, Rect::from_coords(0, 0, 4, 10));
        let boxes = vec![
            bar,
            (Layer::Poly, Rect::from_coords(30, 0, 30, 10)),
            (Layer::Metal1, Rect::from_coords(0, 40, 14, 40)),
        ];
        let a = CellAbstract::from_boxes(&boxes, &rules());
        assert_eq!(a.profile(Axis::X), &[bar]);
        assert_eq!(a.profile(Axis::Y), &[bar]);
        assert_eq!(a.bbox(), Some(bar.1));
        assert_eq!(a.material(), Some(bar.1));
        assert_eq!(a.source_boxes(), 3);
    }

    /// Four leaves in a row, 30 apart along x.
    fn row_of_four() -> (CellTable, CellId) {
        let mut t = CellTable::new();
        let id = t.insert(leaf("leaf")).unwrap();
        let mut row = CellDefinition::new("row");
        for k in 0..4 {
            row.add_instance(Instance::new(id, Point::new(k * 30, 0), Orientation::NORTH));
        }
        let root = t.insert(row).unwrap();
        (t, root)
    }

    #[test]
    fn row_of_instances_compacts_to_min_pitch_uniformly() {
        let (t, root) = row_of_four();
        let out = compact_cell(&t, root, &rules(), &bf(), &HierOptions::default()).unwrap();
        assert!(out.converged);
        // Poly bar 8..12, poly-poly spacing 4: pitch = 12 + 4 − 8 = 8.
        let xs: Vec<i64> = out.cell.instances().map(|i| i.point_of_call.x).collect();
        assert_eq!(xs, vec![0, 8, 16, 24]);
        assert_eq!(out.pitches.len(), 1);
        assert_eq!(out.pitches[0].value, 8);
        assert_eq!(out.pitches[0].pairs, 3);
        assert_eq!(out.pitches[0].axis, Axis::X);
    }

    #[test]
    fn a_confirming_sweep_reuses_the_last_solve() {
        // The first pass moves the row to its pitch, the second finds the
        // same emission on both axes and solves nothing.
        let (t, root) = row_of_four();
        let backends: [&dyn Solver; 5] = [
            &BellmanFord::SORTED,
            &BellmanFord::ARBITRARY,
            &Topological,
            &Balanced,
            &SimplexPitch,
        ];
        for solver in backends {
            let out = compact_cell(&t, root, &rules(), solver, &HierOptions::default()).unwrap();
            let name = solver.name();
            assert!(out.converged, "{name}");
            assert_eq!(out.passes, 2, "{name}");
            let sweeps = &out.report.sweeps;
            assert_eq!(sweeps.len(), 4, "{name}");
            for (first, confirm) in sweeps[..2].iter().zip(&sweeps[2..]) {
                assert!(first.pitch_rounds > 0 && first.solver_passes > 0, "{name}");
                assert_eq!(
                    (
                        confirm.pitch_rounds,
                        confirm.solver_passes,
                        confirm.graph_builds
                    ),
                    (0, 0, 0),
                    "{name}: the confirming {} sweep solved",
                    confirm.axis
                );
                assert_eq!(confirm.constraints, first.constraints, "{name}");
                assert_eq!(confirm.extent, first.extent, "{name}");
            }
            assert_eq!(
                out.report.total_solver_passes(),
                sweeps[0].solver_passes + sweeps[1].solver_passes
            );
            // The pinned outcome of
            // `row_of_instances_compacts_to_min_pitch_uniformly`.
            let xs: Vec<i64> = out.cell.instances().map(|i| i.point_of_call.x).collect();
            assert_eq!(xs, vec![0, 8, 16, 24], "{name}");
            assert_eq!(out.pitches.len(), 1, "{name}");
            assert_eq!(
                (out.pitches[0].value, out.pitches[0].pairs),
                (8, 3),
                "{name}"
            );
        }
    }

    #[test]
    fn reused_solves_equal_fresh_solves_on_random_assemblies() {
        // Each sweep of an alternation runs twice: with the cell's kept
        // arenas (which reuse the last solve when the emission repeats)
        // and with fresh ones (which always solve). Positions, pitches
        // and every count but the solver work must agree.
        let r = rules();
        let table = CellTable::new();
        let opts = HierOptions::default();
        let mut rng = Rng::from_name("reused_solves_equal_fresh_solves");
        let backends: [&dyn Solver; 5] = [
            &BellmanFord::SORTED,
            &BellmanFord::ARBITRARY,
            &Topological,
            &Balanced,
            &SimplexPitch,
        ];
        let mut reused = 0;
        for case in 0..60 {
            let (items, shapes) = random_assembly(&mut rng, &r);
            let clusters = rigid_clusters(&items, &shapes);
            let structure = [
                axis_structure(&table, Axis::X, &items, &clusters),
                axis_structure(&table, Axis::Y, &items, &clusters),
            ];
            for solver in backends {
                let cx = CellContext {
                    items: &items,
                    shapes: &shapes,
                    clusters: &clusters,
                    structure: &structure,
                    rules: &r,
                    solver,
                    opts: &opts,
                };
                let mut positions: Vec<Point> = items.iter().map(|i| i.pos).collect();
                let mut kept = [SweepScratch::new(), SweepScratch::new()];
                'passes: for _ in 0..4 {
                    for axis in Axis::BOTH {
                        let mut fresh_positions = positions.clone();
                        let fresh = sweep_axis(
                            &cx,
                            axis,
                            &mut fresh_positions,
                            &mut NoHooks,
                            &mut SweepScratch::new(),
                        );
                        let got = sweep_axis(
                            &cx,
                            axis,
                            &mut positions,
                            &mut NoHooks,
                            &mut kept[axis_index(axis)],
                        );
                        let what = format!("case {case}, {}, {axis}", solver.name());
                        let (got, fresh) = match (got, fresh) {
                            (Ok(g), Ok(f)) => (g, f),
                            (Err(g), Err(f)) => {
                                assert_eq!(g, f, "{what}");
                                break 'passes;
                            }
                            (g, f) => panic!("{what}: kept {g:?}, fresh {f:?}"),
                        };
                        assert_eq!(positions, fresh_positions, "{what}");
                        assert_eq!(got.1, fresh.1, "{what}: pitches");
                        let (g, f) = (&got.0, &fresh.0);
                        assert_eq!(
                            (
                                g.constraints,
                                g.extent,
                                g.frames_visited,
                                g.box_pairs,
                                g.hidden_tests
                            ),
                            (
                                f.constraints,
                                f.extent,
                                f.frames_visited,
                                f.box_pairs,
                                f.hidden_tests
                            ),
                            "{what}"
                        );
                        if g.pitch_rounds == 0 {
                            assert_eq!((g.solver_passes, g.graph_builds), (0, 0), "{what}");
                            reused += 1;
                        } else {
                            assert_eq!(
                                (g.pitch_rounds, g.solver_passes),
                                (f.pitch_rounds, f.solver_passes),
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
        assert!(reused > 0, "no sweep repeated its emission");
    }

    #[test]
    fn contained_mask_rides_with_its_host() {
        let mut t = CellTable::new();
        let host = t.insert(leaf("host")).unwrap();
        let mut mask = CellDefinition::new("mask");
        mask.add_box(Layer::Cut, Rect::from_coords(2, 2, 8, 8));
        let mask_id = t.insert(mask).unwrap();
        let mut asm = CellDefinition::new("asm");
        asm.add_instance(Instance::new(host, Point::new(0, 0), Orientation::NORTH));
        asm.add_instance(Instance::new(mask_id, Point::new(0, 0), Orientation::NORTH));
        asm.add_instance(Instance::new(host, Point::new(40, 0), Orientation::NORTH));
        let root = t.insert(asm).unwrap();
        let out = compact_cell(&t, root, &rules(), &bf(), &HierOptions::default()).unwrap();
        let pts: Vec<Point> = out.cell.instances().map(|i| i.point_of_call).collect();
        // The mask keeps its exact offset inside the host.
        assert_eq!(pts[1], pts[0], "mask moved relative to its host");
        // The second host pulled in to the poly pitch.
        assert_eq!(pts[2].x - pts[0].x, 8);
    }

    #[test]
    fn coincident_origins_stay_pinned_across_the_other_axis() {
        // A column-attached cap: same x origin as its column cell, above
        // it. Compacting x must keep them x-aligned even though nothing
        // geometric ties them (no interacting material between them).
        let mut t = CellTable::new();
        let base_id = t.insert(leaf("base")).unwrap();
        let mut cap = CellDefinition::new("cap");
        cap.add_box(Layer::Well, Rect::from_coords(0, 0, 20, 10));
        cap.add_box(Layer::Metal1, Rect::from_coords(4, 2, 12, 8));
        let cap_id = t.insert(cap).unwrap();
        let mut asm = CellDefinition::new("asm");
        for k in 0..3 {
            asm.add_instance(Instance::new(
                base_id,
                Point::new(k * 30, 0),
                Orientation::NORTH,
            ));
            asm.add_instance(Instance::new(
                cap_id,
                Point::new(k * 30, 20),
                Orientation::NORTH,
            ));
        }
        let root = t.insert(asm).unwrap();
        let out = compact_cell(&t, root, &rules(), &bf(), &HierOptions::default()).unwrap();
        let pts: Vec<Point> = out.cell.instances().map(|i| i.point_of_call).collect();
        for k in 0..3 {
            assert_eq!(
                pts[2 * k].x,
                pts[2 * k + 1].x,
                "cap {k} sheared off its column"
            );
        }
    }

    #[test]
    fn abutting_connected_material_is_never_pried_apart() {
        // Cells a and b abut so their metal forms one net; a loose poly
        // bar sits to b's right. Compaction pulls the bar in but must
        // keep the welded a–b junction at its exact offset — exempting
        // the pair from spacing alone would sever the bus.
        let mut t = CellTable::new();
        let mut a = CellDefinition::new("a");
        a.add_box(Layer::Metal1, Rect::from_coords(0, 0, 10, 8));
        let a_id = t.insert(a).unwrap();
        let mut b = CellDefinition::new("b");
        b.add_box(Layer::Metal1, Rect::from_coords(0, 0, 10, 8));
        b.add_box(Layer::Poly, Rect::from_coords(2, 20, 6, 40));
        let b_id = t.insert(b).unwrap();
        let mut asm = CellDefinition::new("asm");
        asm.add_instance(Instance::new(a_id, Point::new(0, 0), Orientation::NORTH));
        asm.add_instance(Instance::new(b_id, Point::new(10, 0), Orientation::NORTH));
        asm.add_box(Layer::Poly, Rect::from_coords(40, 20, 44, 40));
        let root = t.insert(asm).unwrap();
        let r = rules();
        let out = compact_cell(&t, root, &r, &bf(), &HierOptions::default()).unwrap();
        let pts: Vec<Point> = out.cell.instances().map(|i| i.point_of_call).collect();
        assert_eq!(
            pts[1] - pts[0],
            rsg_geom::Vector::new(10, 0),
            "welded abutment moved: the net was severed"
        );
        // The loose bar still compacts against b's poly.
        let bar = out.cell.boxes().next().unwrap().1;
        assert_eq!(bar.lo().x, pts[1].x + 6 + 4, "bar at poly spacing from b");
    }

    #[test]
    fn conflicting_pins_report_infeasible() {
        // Two cells drawn at the same origin whose material is ordered
        // with a positive spacing demand: the alignment pin contradicts
        // the spacing constraint.
        let mut t = CellTable::new();
        let mut a = CellDefinition::new("a");
        a.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 10));
        let a_id = t.insert(a).unwrap();
        let mut b = CellDefinition::new("b");
        b.add_box(Layer::Poly, Rect::from_coords(6, 0, 10, 10));
        let b_id = t.insert(b).unwrap();
        let mut asm = CellDefinition::new("asm");
        asm.add_instance(Instance::new(a_id, Point::new(0, 0), Orientation::NORTH));
        asm.add_instance(Instance::new(b_id, Point::new(0, 0), Orientation::NORTH));
        let root = t.insert(asm).unwrap();
        let err = compact_cell(&t, root, &rules(), &bf(), &HierOptions::default()).unwrap_err();
        assert!(matches!(err, HierError::Infeasible(_)), "{err}");
    }

    #[test]
    fn empty_cell_is_untouched() {
        let mut t = CellTable::new();
        let id = t.insert(CellDefinition::new("empty")).unwrap();
        let out = compact_cell(&t, id, &rules(), &bf(), &HierOptions::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.passes, 0);
        assert_eq!(&out.cell, t.get(id).unwrap());
    }

    #[test]
    fn hierarchy_compacts_bottom_up_and_flattens_clean() {
        // row (4 leaves) instantiated twice in a chip: the row compacts
        // first, the chip then places the compacted rows — and the
        // flattened result re-checks clean.
        let mut t = CellTable::new();
        let id = t.insert(leaf("leaf")).unwrap();
        let mut row = CellDefinition::new("row");
        for k in 0..4 {
            row.add_instance(Instance::new(id, Point::new(k * 30, 0), Orientation::NORTH));
        }
        let row_id = t.insert(row).unwrap();
        let mut chip = CellDefinition::new("chip");
        chip.add_instance(Instance::new(row_id, Point::new(0, 0), Orientation::NORTH));
        chip.add_instance(Instance::new(
            row_id,
            Point::new(0, -40),
            Orientation::NORTH,
        ));
        let top = t.insert(chip).unwrap();

        let r = rules();
        let out = compact_hierarchy(&t, top, &r, &bf(), &HierOptions::default()).unwrap();
        assert_eq!(
            out.cells
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            ["row", "chip"],
            "children compact before callers"
        );
        let flat = flatten(&out.table, out.top).unwrap();
        assert!(drc::check_flat(&flat, &r).is_empty());
        // The rows shrank: pitch 8 instead of 30.
        let row_def = out.table.get(row_id).unwrap();
        let xs: Vec<i64> = row_def.instances().map(|i| i.point_of_call.x).collect();
        assert_eq!(xs, vec![0, 8, 16, 24]);
        // The two row instances pulled together vertically. The bars were
        // *separate* nets in the sample (pitch 40 — not touching), so the
        // compactor must keep them a poly-poly spacing apart, not fuse
        // them: pitch = bar height 20 + spacing 4.
        let chip_def = out.table.get(top).unwrap();
        let ys: Vec<i64> = chip_def.instances().map(|i| i.point_of_call.y).collect();
        assert_eq!(ys[0] - ys[1], 24, "row pitch = bar height + spacing");
    }

    #[test]
    fn backends_agree_on_the_hier_result() {
        let mut t = CellTable::new();
        let id = t.insert(leaf("leaf")).unwrap();
        let mut row = CellDefinition::new("row");
        for k in 0..5 {
            row.add_instance(Instance::new(id, Point::new(k * 26, 0), Orientation::NORTH));
        }
        let root = t.insert(row).unwrap();
        let r = rules();
        let a = compact_cell(&t, root, &r, &bf(), &HierOptions::default()).unwrap();
        let b = compact_cell(&t, root, &r, &Topological, &HierOptions::default()).unwrap();
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.pitches, b.pitches);
    }

    #[test]
    fn recursive_hierarchy_is_an_error() {
        let mut t = CellTable::new();
        let a = t.insert(CellDefinition::new("a")).unwrap();
        t.get_mut(a)
            .unwrap()
            .add_instance(Instance::new(a, Point::new(1, 1), Orientation::NORTH));
        let err = compact_hierarchy(&t, a, &rules(), &bf(), &HierOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            HierError::Layout(LayoutError::RecursiveCell(_))
        ));
    }

    #[test]
    fn direct_boxes_participate_as_items() {
        // A root with a loose box next to an instance: both compact.
        let mut t = CellTable::new();
        let id = t.insert(leaf("leaf")).unwrap();
        let mut asm = CellDefinition::new("asm");
        asm.add_instance(Instance::new(id, Point::new(0, 0), Orientation::NORTH));
        asm.add_box(Layer::Poly, Rect::from_coords(40, 0, 44, 20));
        asm.add_label("note", Point::new(1, 1));
        let root = t.insert(asm).unwrap();
        let r = rules();
        let out = compact_cell(&t, root, &r, &bf(), &HierOptions::default()).unwrap();
        let boxes: Vec<(Layer, Rect)> = out.cell.boxes().collect();
        // Loose bar pulled in to poly spacing from the leaf's bar (8..12).
        assert_eq!(boxes[0].1, Rect::from_coords(16, 0, 20, 20));
        assert_eq!(out.cell.labels().count(), 1, "labels pass through");
        let flat = flatten_root(&t, &out.cell, root);
        assert!(drc::check(&flat, &r).is_empty());
    }

    /// Flattens a rebuilt root definition against its original table.
    fn flatten_root(t: &CellTable, cell: &CellDefinition, original: CellId) -> Vec<(Layer, Rect)> {
        let mut t2 = t.clone();
        *t2.get_mut(original).unwrap() = cell.clone();
        flatten(&t2, original).unwrap().layer_rects().to_vec()
    }

    #[test]
    fn strap_across_a_long_row_clusters_on_a_worker_stack() {
        // A strap drawn last across a row of n cells fuses with each of
        // them in turn. Every union re-parents the previous root under
        // the next cell, building the chain 0→1→…→n−1 — a recursive
        // `find` would recurse n deep and overflow a 2 MiB worker stack.
        let n = 100_000;
        let r = rules();
        let cell =
            CellAbstract::from_boxes(&[(Layer::Metal1, Rect::from_coords(0, 0, 10, 10))], &r);
        let strap =
            CellAbstract::from_boxes(&[(Layer::Metal1, Rect::from_coords(0, 0, 20 * n, 4))], &r);
        let shapes = vec![Arc::new(cell), Arc::new(strap)];
        let item = |object: usize, pos: Point, shape: usize| Item {
            object,
            pos,
            key: ShapeKey::Box(shape, (0, 0)),
            shape,
        };
        let mut items: Vec<Item> = (0..n)
            .map(|k| item(k as usize, Point::new(20 * k, 0), 0))
            .collect();
        items.push(item(n as usize, Point::new(0, 3), 1));
        let clusters = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || rigid_clusters(&items, &shapes))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].members.len(), n as usize + 1);
        assert_eq!(
            clusters[0].rep, n as usize,
            "the strap has the largest body"
        );
    }

    /// The all-pairs cell pass [`enumerate_pairs`] replaced, kept as its
    /// differential reference: every frame pair and every abstract box
    /// pair, tested directly.
    fn all_pairs_emission(
        index: &GeomIndex<Layer>,
        rules: &DesignRules,
        owner: &[usize],
        frames: &[Option<Rect>],
        bases: &[i64],
    ) -> Emission {
        let axis = index.axis();
        let mut weights: BTreeMap<(usize, usize), i64> = BTreeMap::new();
        let mut welds: BTreeMap<(usize, usize), i64> = BTreeMap::new();
        let mut bump = |a: usize, b: usize, w: i64| {
            let cur = weights.entry((a, b)).or_insert(i64::MIN);
            *cur = (*cur).max(w);
        };
        for (a, fa) in frames.iter().enumerate() {
            let Some(fa) = *fa else { continue };
            for (b, fb) in frames.iter().enumerate() {
                if a == b {
                    continue;
                }
                let Some(fb) = *fb else { continue };
                if fa.hi_along(axis) > fb.lo_along(axis) {
                    continue;
                }
                if fa.lo_across(axis) >= fb.hi_across(axis)
                    || fb.lo_across(axis) >= fa.hi_across(axis)
                {
                    continue;
                }
                let w = (fa.hi_along(axis) - bases[a]) - (fb.lo_along(axis) - bases[b]);
                bump(a, b, w);
            }
        }
        let pboxes = index.items();
        let mut cursor = VisibilityCursor::with_cache(index, Vec::new());
        for (i, &(la, ra)) in pboxes.iter().enumerate() {
            for (j, &(lb, rb)) in pboxes.iter().enumerate() {
                let (a, b) = (owner[i], owner[j]);
                if a == b {
                    continue;
                }
                if la == lb && ra.intersect(rb).is_some() {
                    if a < b {
                        welds.insert((a, b), bases[b] - bases[a]);
                    }
                    continue;
                }
                let Some(s) = rules.min_spacing(la, lb) else {
                    continue;
                };
                if ra.hi_along(axis) > rb.lo_along(axis) {
                    continue;
                }
                if ra.lo_across(axis) >= rb.hi_across(axis) + s
                    || rb.lo_across(axis) >= ra.hi_across(axis) + s
                {
                    continue;
                }
                if cursor.hidden_between(i, j, None) {
                    continue;
                }
                let w = s + (ra.hi_along(axis) - bases[a]) - (rb.lo_along(axis) - bases[b]);
                bump(a, b, w);
            }
        }
        Emission {
            weights: weights.into_iter().collect(),
            welds: welds.into_iter().collect(),
        }
    }

    /// The all-pairs clustering [`rigid_clusters`] replaced: every item
    /// pair tested, merged in ascending `(i, j)` order.
    fn all_pairs_clusters(items: &[Item], shapes: &[Arc<CellAbstract>]) -> Vec<Cluster> {
        let bodies = Bodies::new(items, shapes);
        let mut parent: Vec<usize> = (0..items.len()).collect();
        for i in 0..items.len() {
            for j in i + 1..items.len() {
                if bodies.fuse(i, j) {
                    union(&mut parent, i, j);
                }
            }
        }
        bodies.group(&mut parent)
    }

    fn pick(rng: &mut Rng, n: u64) -> i64 {
        (rng.next_u64() % n) as i64
    }

    /// Movable items and their shapes, as `compact_cell_with` builds them.
    type Assembly = (Vec<Item>, Vec<Arc<CellAbstract>>);

    /// Random leaves and the cell ids their instances are keyed by.
    struct Library {
        leaves: Vec<Vec<(Layer, Rect)>>,
        ids: Vec<CellId>,
    }

    /// A random box on one of five layers, its corner on an even grid.
    fn random_box(rng: &mut Rng) -> (Layer, Rect) {
        const LAYERS: [Layer; 5] = [
            Layer::Poly,
            Layer::Metal1,
            Layer::Diffusion,
            Layer::Metal2,
            Layer::Well,
        ];
        let (x, y) = (2 * pick(rng, 6), 2 * pick(rng, 6));
        let (w, h) = (1 + pick(rng, 8), 1 + pick(rng, 8));
        (
            LAYERS[pick(rng, 5) as usize],
            Rect::from_coords(x, y, x + w, y + h),
        )
    }

    /// Three random leaves of one to four boxes each.
    fn random_leaves(rng: &mut Rng) -> Library {
        let leaves: Vec<Vec<(Layer, Rect)>> = (0..3)
            .map(|_| (0..1 + pick(rng, 4)).map(|_| random_box(rng)).collect())
            .collect();
        let mut table = CellTable::new();
        let ids = (0..leaves.len())
            .map(|i| {
                table
                    .insert(CellDefinition::new(format!("leaf{i}")))
                    .unwrap()
            })
            .collect();
        Library { leaves, ids }
    }

    /// Appends an instance of leaf `def` in orientation `o` at `pos`.
    fn place_leaf(
        lib: &Library,
        def: usize,
        o: Orientation,
        pos: Point,
        r: &DesignRules,
        out: &mut Assembly,
    ) {
        let iso = Isometry::orient(o);
        let boxes: Vec<_> = lib.leaves[def]
            .iter()
            .map(|&(l, b)| (l, b.transform(iso)))
            .collect();
        let key = ShapeKey::Cell(lib.ids[def], (o.rotation as u8, o.mirror_y));
        place(boxes, key, pos, r, out);
    }

    /// Appends one item of the given abstract boxes at `pos`.
    fn place(
        boxes: Vec<(Layer, Rect)>,
        key: ShapeKey,
        pos: Point,
        r: &DesignRules,
        (items, shapes): &mut Assembly,
    ) {
        shapes.push(Arc::new(CellAbstract::from_boxes(&boxes, r)));
        items.push(Item {
            object: items.len(),
            pos,
            key,
            shape: shapes.len() - 1,
        });
    }

    /// A random assembly: instances of three random leaves in all eight
    /// orientations, plus loose boxes, packed tightly enough that bodies
    /// nest and spacing windows catch diagonal pairs. Corners sit on an
    /// even grid so same-layer material of separate clusters often abuts
    /// (a weld).
    fn random_assembly(rng: &mut Rng, r: &DesignRules) -> Assembly {
        let lib = random_leaves(rng);
        let mut out = (Vec::new(), Vec::new());
        for _ in 0..4 + pick(rng, 10) as usize {
            let pos = Point::new(2 * pick(rng, 24), 2 * pick(rng, 24));
            if pick(rng, 4) == 0 {
                let (l, b) = random_box(rng);
                let key = ShapeKey::Box(l.index(), (b.width(), b.height()));
                place(vec![(l, b)], key, pos, r, &mut out);
            } else {
                let def = pick(rng, 3) as usize;
                let o = Orientation::ALL[pick(rng, 8) as usize];
                place_leaf(&lib, def, o, pos, r, &mut out);
            }
        }
        out
    }

    /// A random array: rows × columns of three random leaves, all in
    /// one of the eight orientations, on shared row and column origins.
    /// The pitch is the leaves' joint extent plus a gap of 0 to 4, so the
    /// next row's diagonal frames are partners and whole columns are
    /// pinned. About one coordinate in six is jittered off its row or
    /// column by 2, breaking that pin.
    fn random_array(rng: &mut Rng, r: &DesignRules) -> Assembly {
        let lib = random_leaves(rng);
        let o = Orientation::ALL[pick(rng, 8) as usize];
        let mut extent = BoundingBox::new();
        for &(_, b) in lib.leaves.iter().flatten() {
            extent.include_rect(b.transform(Isometry::orient(o)));
        }
        let extent = extent.rect().unwrap();
        let (rows, cols) = (2 + pick(rng, 4), 2 + pick(rng, 4));
        let px = extent.width() + 2 * pick(rng, 3);
        let py = extent.height() + 2 * pick(rng, 3);
        let jitter = |rng: &mut Rng| match pick(rng, 12) {
            0 => -2,
            1 => 2,
            _ => 0,
        };
        let mut out = (Vec::new(), Vec::new());
        for row in 0..rows {
            for col in 0..cols {
                let pos = Point::new(col * px + jitter(rng), row * py + jitter(rng));
                let def = pick(rng, 3) as usize;
                place_leaf(&lib, def, o, pos, r, &mut out);
            }
        }
        out
    }

    /// Longest path from cluster `from` to `to` over `em`'s weights plus
    /// its welds and `pins` (offset 0) in both directions; `None` when
    /// `to` is unreachable and `i64::MAX` when a positive cycle is
    /// reachable (an infeasible system implies every constraint).
    fn longest_path(
        n: usize,
        em: &Emission,
        pins: &PinGroups,
        from: usize,
        to: usize,
    ) -> Option<i64> {
        let mut edges: Vec<(usize, usize, i64)> =
            em.weights.iter().map(|&((a, b), w)| (a, b, w)).collect();
        let exact = em.welds.iter().copied().chain(pins.pairs().map(|p| (p, 0)));
        for ((a, b), d) in exact {
            edges.push((a, b, d));
            edges.push((b, a, -d));
        }
        let mut dist: Vec<Option<i64>> = vec![None; n];
        dist[from] = Some(0);
        for _ in 0..=n {
            let mut changed = false;
            for &(a, b, w) in &edges {
                if let Some(da) = dist[a] {
                    if dist[b].is_none_or(|db| da + w > db) {
                        dist[b] = Some(da + w);
                        changed = true;
                    }
                }
            }
            if !changed {
                return dist[to];
            }
        }
        Some(i64::MAX)
    }

    /// The positions the sweep system of `em` and `pins` solves to
    /// (`None` when it is infeasible).
    fn solve_emission(
        em: &Emission,
        pins: &PinGroups,
        bases: &[i64],
        axis: Axis,
    ) -> Option<Vec<i64>> {
        let min_base = bases.iter().copied().min().unwrap_or(0);
        let mut sys = ConstraintSystem::new_along(axis);
        let vars: Vec<_> = bases.iter().map(|&b| sys.add_var(b - min_base)).collect();
        for &((a, b), w) in &em.weights {
            sys.require(vars[a], vars[b], w);
        }
        for &((a, b), d) in &em.welds {
            sys.require_exact(vars[a], vars[b], d);
        }
        for (a, b) in pins.pairs() {
            sys.require_exact(vars[a], vars[b], 0);
        }
        bf().solve_system(&sys, &[]).ok().map(|out| out.positions)
    }

    /// Checks one sweep's emission `got` against the all-pairs reference
    /// `want`: (a) every emitted pair is a reference pair with the same
    /// weight, and the welds are equal; (b) every reference pair left out
    /// is implied by a longest path over the emitted weights, the welds
    /// and the pins; (c) the sweep systems built from either emission
    /// with the pins solve to the same positions. Returns the number of
    /// pairs left out, and how many of them only the pins imply.
    fn check_against_reference(
        got: &Emission,
        want: &Emission,
        pins: &PinGroups,
        bases: &[i64],
        axis: Axis,
        what: &str,
    ) -> (usize, usize) {
        assert_eq!(got.welds, want.welds, "{what}: welds diverged");
        assert!(
            got.weights.windows(2).all(|w| w[0].0 < w[1].0),
            "{what}: emission not sorted by pair"
        );
        let reference: BTreeMap<(usize, usize), i64> = want.weights.iter().copied().collect();
        for &(pair, w) in &got.weights {
            assert_eq!(
                reference.get(&pair),
                Some(&w),
                "{what}: emitted {pair:?} at {w}"
            );
        }
        let emitted: HashSet<(usize, usize)> = got.weights.iter().map(|&(p, _)| p).collect();
        let (mut dropped, mut through_pins) = (0, 0);
        for &((a, b), w) in &want.weights {
            if emitted.contains(&(a, b)) {
                continue;
            }
            dropped += 1;
            let path = longest_path(bases.len(), got, pins, a, b);
            assert!(
                path.is_some_and(|p| p >= w),
                "{what}: dropped ({a}, {b}) at {w} is not implied (longest path {path:?})"
            );
            let unpinned = longest_path(bases.len(), got, &PinGroups::default(), a, b);
            if unpinned.is_none_or(|p| p < w) {
                through_pins += 1;
            }
        }
        assert_eq!(
            solve_emission(got, pins, bases, axis),
            solve_emission(want, pins, bases, axis),
            "{what}: solutions diverged"
        );
        (dropped, through_pins)
    }

    #[test]
    fn indexed_cell_pass_matches_the_all_pairs_reference() {
        let r = rules();
        let table = CellTable::new();
        let mut rng = Rng::from_name("indexed_cell_pass_matches_the_all_pairs_reference");
        let mut arrays = Rng::from_name("indexed_cell_pass_random_arrays");
        // A separate stream draws the relabelings, so the assemblies are
        // the same as without them.
        let mut relabel = Rng::from_name("indexed_cell_pass_relabeled_clusters");
        // Cases exercised: welds, diagonal pairs inside the L∞ window,
        // abutting frames, owners that are not contiguous, pairs the
        // frame shadow drops, pairs only the pins imply.
        let mut seen = [0usize; 6];
        for draw in 0..800 {
            let (items, shapes) = if draw % 2 == 0 {
                random_assembly(&mut rng, &r)
            } else {
                random_array(&mut arrays, &r)
            };
            let clusters = rigid_clusters(&items, &shapes);
            assert_eq!(clusters, all_pairs_clusters(&items, &shapes));
            let positions: Vec<Point> = items.iter().map(|i| i.pos).collect();
            for axis in Axis::BOTH {
                let mut scan = ScanScratch::new();
                let (owner, frames) =
                    sweep_geometry(axis, &items, &shapes, &clusters, &positions, &mut scan);
                // The frame shadow's precondition: every abstract box lies
                // inside its cluster's material frame.
                for (k, &(_, rect)) in scan.index.items().iter().enumerate() {
                    assert!(
                        frames[owner[k]].is_some_and(|f| f.contains_rect(rect)),
                        "{axis}: box {k} escapes its frame"
                    );
                }
                for fa in frames.iter().flatten() {
                    for fb in frames.iter().flatten() {
                        if fa.hi_along(axis) == fb.lo_along(axis)
                            && fa.lo_across(axis) < fb.hi_across(axis)
                            && fb.lo_across(axis) < fa.hi_across(axis)
                        {
                            seen[2] += 1;
                        }
                    }
                }
                let bases: Vec<i64> = clusters
                    .iter()
                    .map(|c| along(positions[c.rep], axis))
                    .collect();
                let pins = axis_structure(&table, axis, &items, &clusters).pins;
                let want = all_pairs_emission(&scan.index, &r, &owner, &frames, &bases);
                let (got, work) =
                    enumerate_pairs(&mut scan, &r, &owner, &frames, &bases, &pins, &Limits::NONE)
                        .unwrap();
                let what = format!("draw {draw}, {axis}");
                let (dropped, through_pins) =
                    check_against_reference(&got, &want, &pins, &bases, axis, &what);
                seen[4] += dropped;
                seen[5] += through_pins;
                assert!(work.hidden_tests <= work.box_pairs, "{work:?}");

                // The same sweep with the clusters relabeled by a random
                // permutation: the boxes keep their order, so their owners
                // are no longer non-decreasing and each source's boxes
                // have to be gathered from several runs.
                let n = bases.len();
                let mut perm: Vec<usize> = (0..n).collect();
                for k in (1..n).rev() {
                    perm.swap(k, pick(&mut relabel, k as u64 + 1) as usize);
                }
                let owner_p: Vec<usize> = owner.iter().map(|&c| perm[c]).collect();
                let (mut frames_p, mut bases_p) = (vec![None; n], vec![0; n]);
                for c in 0..n {
                    frames_p[perm[c]] = frames[c];
                    bases_p[perm[c]] = bases[c];
                }
                if owner_p.windows(2).any(|w| w[0] > w[1]) {
                    seen[3] += 1;
                }
                let pins_p = PinGroups::new(&bases_p);
                let want = all_pairs_emission(&scan.index, &r, &owner_p, &frames_p, &bases_p);
                let (got, work) = enumerate_pairs(
                    &mut scan,
                    &r,
                    &owner_p,
                    &frames_p,
                    &bases_p,
                    &pins_p,
                    &Limits::NONE,
                )
                .unwrap();
                let what = format!("{what} relabeled");
                check_against_reference(&got, &want, &pins_p, &bases_p, axis, &what);
                assert!(work.hidden_tests <= work.box_pairs, "{work:?}");

                seen[0] += want.welds.len();
                let boxes = scan.index.items();
                for (i, &(la, ra)) in boxes.iter().enumerate() {
                    for (j, &(lb, rb)) in boxes.iter().enumerate() {
                        let Some(s) = r.min_spacing(la, lb) else {
                            continue;
                        };
                        let gap = (rb.lo_across(axis) - ra.hi_across(axis))
                            .max(ra.lo_across(axis) - rb.hi_across(axis));
                        if owner[i] != owner[j]
                            && ra.hi_along(axis) <= rb.lo_along(axis)
                            && (0..s).contains(&gap)
                        {
                            seen[1] += 1;
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&k| k > 0), "coverage {seen:?}");
    }

    /// One sweep of [`enumerate_pairs`] over hand-placed clusters:
    /// `boxes[k]` is `(cluster, layer, rect)`, each cluster's frame is
    /// its boxes' bounding box and its base the frame's low edge. No
    /// cluster is pinned.
    fn emit(axis: Axis, boxes: &[(usize, Layer, Rect)]) -> Emission {
        emit_with(axis, boxes, false)
    }

    /// [`emit`], with clusters of equal base pinned when `pinned`.
    fn emit_with(axis: Axis, boxes: &[(usize, Layer, Rect)], pinned: bool) -> Emission {
        let n = boxes.iter().map(|b| b.0 + 1).max().unwrap_or(0);
        let mut scan = ScanScratch::new();
        let items = boxes.iter().map(|&(_, l, rect)| (l, rect)).collect();
        let _ = scan.index.rebuild_from_vec(items, axis);
        let owner: Vec<usize> = boxes.iter().map(|b| b.0).collect();
        let mut frames = vec![BoundingBox::new(); n];
        for &(c, _, rect) in boxes {
            frames[c].include_rect(rect);
        }
        let frames: Vec<Option<Rect>> = frames.iter().map(|f| f.rect()).collect();
        let bases: Vec<i64> = frames
            .iter()
            .map(|f| f.map_or(0, |f| f.lo_along(axis)))
            .collect();
        let pins = if pinned {
            PinGroups::new(&bases)
        } else {
            PinGroups::default()
        };
        enumerate_pairs(
            &mut scan,
            &rules(),
            &owner,
            &frames,
            &bases,
            &pins,
            &Limits::NONE,
        )
        .unwrap()
        .0
    }

    fn pairs_of(em: &Emission) -> Vec<(usize, usize)> {
        em.weights.iter().map(|&(p, _)| p).collect()
    }

    #[test]
    fn a_wide_middle_cluster_shadows_the_outer_pair_of_a_row() {
        // Metal1 spacing is 6; the largest rule (metal2) is 8, and the
        // middle bar is 10 wide.
        let bar = |c: usize, x: i64| (c, Layer::Metal1, Rect::from_coords(x, 0, x + 10, 10));
        let em = emit(Axis::X, &[bar(0, 0), bar(1, 20), bar(2, 40)]);
        assert_eq!(pairs_of(&em), vec![(0, 1), (1, 2)]);
        assert!(em.welds.is_empty());
    }

    #[test]
    fn a_middle_cluster_narrower_than_the_largest_rule_keeps_the_outer_pair() {
        let em = emit(
            Axis::X,
            &[
                (0, Layer::Metal1, Rect::from_coords(0, 0, 10, 10)),
                (1, Layer::Metal1, Rect::from_coords(20, 0, 26, 10)),
                (2, Layer::Metal1, Rect::from_coords(40, 0, 50, 10)),
            ],
        );
        assert_eq!(pairs_of(&em), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn a_middle_cluster_overlapping_only_one_side_keeps_the_outer_pair() {
        // The middle bar overlaps cluster 0 across but not cluster 2.
        let em = emit(
            Axis::X,
            &[
                (0, Layer::Metal1, Rect::from_coords(0, 0, 10, 10)),
                (1, Layer::Metal1, Rect::from_coords(20, 0, 30, 6)),
                (2, Layer::Metal1, Rect::from_coords(40, 8, 50, 18)),
            ],
        );
        assert!(pairs_of(&em).contains(&(0, 2)), "{em:?}");
    }

    /// A column of two 10-wide metal1 cells at x = 0 (clusters 0 and 1,
    /// pinned when `pinned`) and, in the second cell's row, a cell
    /// `width` wide at x = 20 and a far cell at x = 40: the far diagonal
    /// pair is `(0, 3)`.
    fn column_and_next_row(width: i64, pinned: bool) -> Emission {
        let cell = |c: usize, x: i64, w: i64, y: i64| {
            (c, Layer::Metal1, Rect::from_coords(x, y, x + w, y + 10))
        };
        let boxes = [
            cell(0, 0, 10, 0),
            cell(1, 0, 10, 12),
            cell(2, 20, width, 12),
            cell(3, 40, 10, 12),
        ];
        emit_with(Axis::X, &boxes, pinned)
    }

    #[test]
    fn a_pinned_column_shadows_the_far_diagonal_of_the_next_row() {
        // Cluster 1, pinned to 0, ends before cluster 2 and faces it, so
        // the system holds 2 − 0 ≥ 10: cluster 2's high edge lies the
        // largest rule (8) past cluster 0's, and it shadows cluster 3.
        let em = column_and_next_row(10, true);
        assert_eq!(pairs_of(&em), vec![(0, 2), (1, 2), (2, 3)]);
        // At exactly the rule the link still walls.
        let em = column_and_next_row(8, true);
        assert_eq!(pairs_of(&em), vec![(0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn an_unpinned_column_keeps_the_far_diagonal_of_the_next_row() {
        let em = column_and_next_row(10, false);
        assert_eq!(pairs_of(&em), vec![(0, 2), (0, 3), (1, 2), (2, 3)]);
        // Pinned, but one short of the rule: no wall, from either cell
        // of the column.
        let em = column_and_next_row(7, true);
        assert_eq!(pairs_of(&em), vec![(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn the_link_scan_looks_past_a_pinned_frame_that_misses_the_partner() {
        // Clusters 0, 1 and 2 are pinned at x = 0. In low-edge order
        // across, the tall frame 1 comes before 2, which lies wholly below
        // cluster 3 across but ends far along: only 1 links to 3, and its
        // bound 10 reaches `T` = 8 but not `U` = 18, so 3 stays a partner
        // of 0 and walls off 4.
        let m2 = |c: usize, x0: i64, y0: i64, x1: i64, y1: i64| {
            (c, Layer::Metal2, Rect::from_coords(x0, y0, x1, y1))
        };
        let em = emit_with(
            Axis::X,
            &[
                m2(0, 0, 0, 10, 10),
                m2(1, 0, 12, 10, 40),
                m2(2, 0, 14, 30, 16),
                m2(3, 40, 17, 50, 27),
                m2(4, 60, 17, 70, 27),
            ],
            true,
        );
        let pairs = pairs_of(&em);
        assert!(pairs.contains(&(0, 3)), "{em:?}");
        assert!(!pairs.contains(&(0, 4)), "{em:?}");
    }

    #[test]
    fn the_oracle_cap_reaches_the_furthest_facing_partner() {
        // Cluster 1's poly bar covers the gap between cluster 0's poly
        // and the box of cluster 2 at x = 40, which starts 2 past its
        // frame: the spacing candidate (6) would beat the frame weight
        // (4) if it were not hidden.
        let em = emit(
            Axis::X,
            &[
                (0, Layer::Poly, Rect::from_coords(0, 0, 4, 10)),
                (1, Layer::Poly, Rect::from_coords(4, 0, 40, 10)),
                (2, Layer::Poly, Rect::from_coords(40, 0, 44, 10)),
                (2, Layer::Poly, Rect::from_coords(38, 20, 42, 24)),
            ],
        );
        assert_eq!(em.weights, vec![((0, 1), 4), ((0, 2), 4)]);
        assert_eq!(em.welds, vec![((0, 1), 4), ((1, 2), 34)]);
    }

    #[test]
    fn abutting_clusters_that_overlap_along_still_weld() {
        // Two metal1 bars share the edge y = 10 over x ∈ [5, 10].
        let boxes = [
            (0, Layer::Metal1, Rect::from_coords(0, 0, 10, 10)),
            (1, Layer::Metal1, Rect::from_coords(5, 10, 15, 20)),
        ];
        // Swept along x the frames overlap along: no frame pair, only
        // the weld at the current offset.
        let em = emit(Axis::X, &boxes);
        assert_eq!(em.welds, vec![((0, 1), 5)]);
        assert!(em.weights.is_empty(), "{em:?}");
        // Swept along y they abut: a frame pair and the weld.
        let em = emit(Axis::Y, &boxes);
        assert_eq!(em.welds, vec![((0, 1), 10)]);
        assert_eq!(pairs_of(&em), vec![(0, 1)]);
    }

    #[test]
    fn enumeration_stops_at_an_expired_deadline() {
        let r = rules();
        let mut rng = Rng::from_name("enumeration_stops_at_an_expired_deadline");
        let (items, shapes) = random_assembly(&mut rng, &r);
        let clusters = rigid_clusters(&items, &shapes);
        let positions: Vec<Point> = items.iter().map(|i| i.pos).collect();
        let mut scan = ScanScratch::new();
        let (owner, frames) =
            sweep_geometry(Axis::X, &items, &shapes, &clusters, &positions, &mut scan);
        let bases: Vec<i64> = clusters
            .iter()
            .map(|c| along(positions[c.rep], Axis::X))
            .collect();
        let expired = Limits {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
            ..Limits::NONE
        };
        let err = enumerate_pairs(
            &mut scan,
            &r,
            &owner,
            &frames,
            &bases,
            &PinGroups::default(),
            &expired,
        )
        .unwrap_err();
        assert_eq!(err.resource, crate::limits::Resource::Deadline);
        assert!(enumerate_pairs(
            &mut scan,
            &r,
            &owner,
            &frames,
            &bases,
            &PinGroups::default(),
            &Limits::NONE
        )
        .is_ok());
    }

    /// The flatten-based reference the composed abstracts replaced: one
    /// `(definition, orientation)` abstract from the definition's whole
    /// flattened subtree.
    fn derive_abstract(
        table: &CellTable,
        cell: CellId,
        orientation: Orientation,
        rules: &DesignRules,
    ) -> CellAbstract {
        let flat = flatten(table, cell).unwrap();
        let iso = Isometry::orient(orientation);
        let boxes: Vec<(Layer, Rect)> = flat
            .layer_rects()
            .iter()
            .map(|&(l, r)| (l, r.transform(iso)))
            .collect();
        CellAbstract::from_boxes(&boxes, rules)
    }

    /// The strip fill [`profile_along`] replaced: every rect of a layer
    /// tested against every elementary strip.
    fn quadratic_profile_along(boxes: &[(Layer, Rect)], axis: Axis) -> Vec<(Layer, Rect)> {
        let mut layers: Vec<Layer> = boxes.iter().map(|&(l, _)| l).collect();
        layers.sort_unstable();
        layers.dedup();
        let mut out = Vec::new();
        for layer in layers {
            let rects: Vec<Rect> = boxes
                .iter()
                .filter(|&&(l, _)| l == layer)
                .map(|&(_, r)| r)
                .collect();
            let mut cuts: Vec<i64> = rects
                .iter()
                .flat_map(|r| [r.lo_across(axis), r.hi_across(axis)])
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut run: Option<(i64, i64, i64, i64)> = None;
            for w in cuts.windows(2) {
                let (c0, c1) = (w[0], w[1]);
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                for r in &rects {
                    if r.lo_across(axis) < c1 && r.hi_across(axis) > c0 {
                        lo = lo.min(r.lo_along(axis));
                        hi = hi.max(r.hi_along(axis));
                    }
                }
                match run {
                    _ if lo > hi => {
                        if let Some((lo, hi, c0, c1)) = run.take() {
                            out.push((layer, Rect::from_spans(axis, (lo, hi), (c0, c1))));
                        }
                    }
                    Some((rlo, rhi, _, ref mut rc1)) if rlo == lo && rhi == hi && *rc1 == c0 => {
                        *rc1 = c1;
                    }
                    _ => {
                        if let Some((lo, hi, c0, c1)) = run.take() {
                            out.push((layer, Rect::from_spans(axis, (lo, hi), (c0, c1))));
                        }
                        run = Some((lo, hi, c0, c1));
                    }
                }
            }
            if let Some((lo, hi, c0, c1)) = run {
                out.push((layer, Rect::from_spans(axis, (lo, hi), (c0, c1))));
            }
        }
        out
    }

    /// Ruled layers plus two rule-free ones (Well, Implant).
    const MIXED_LAYERS: [Layer; 6] = [
        Layer::Poly,
        Layer::Metal1,
        Layer::Diffusion,
        Layer::Metal2,
        Layer::Well,
        Layer::Implant,
    ];

    /// Small, heavily overlapping boxes on mixed layers; widths and
    /// heights start at 0, so zero-area boxes and zero-width slivers
    /// are common.
    fn mixed_boxes(max: usize) -> impl Strategy<Value = Vec<(Layer, Rect)>> {
        proptest::collection::vec(
            (0usize..6, -12i64..24, -12i64..24, 0i64..14, 0i64..14),
            0..max,
        )
        .prop_map(|boxes| {
            boxes
                .into_iter()
                .map(|(l, x, y, w, h)| (MIXED_LAYERS[l], Rect::from_coords(x, y, x + w, y + h)))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        #[test]
        fn profile_along_matches_the_quadratic_reference(boxes in mixed_boxes(40)) {
            for axis in Axis::BOTH {
                prop_assert_eq!(
                    profile_along(&boxes, axis),
                    quadratic_profile_along(&boxes, axis),
                    "{} profile of {:?}", axis, boxes
                );
            }
        }

        #[test]
        fn orienting_a_north_abstract_equals_deriving_it_oriented(boxes in mixed_boxes(24)) {
            let r = rules();
            let north = CellAbstract::from_boxes(&boxes, &r);
            for o in Orientation::ALL {
                let iso = Isometry::orient(o);
                let turned: Vec<(Layer, Rect)> =
                    boxes.iter().map(|&(l, b)| (l, b.transform(iso))).collect();
                prop_assert_eq!(
                    north.oriented(o),
                    CellAbstract::from_boxes(&turned, &r),
                    "orientation {:?} of {:?}", o, boxes
                );
            }
        }
    }

    /// A random three-level hierarchy: a few leaves; mid-level cells
    /// that instance leaves (and sometimes another mid cell) in all
    /// eight orientations and carry direct boxes; a top that instances
    /// both, with direct boxes of its own. Children are shared across
    /// callers and across orientations.
    fn random_hierarchy(rng: &mut Rng) -> (CellTable, CellId) {
        let mut table = CellTable::new();
        let random_box = |rng: &mut Rng| {
            let (x, y) = (pick(rng, 30) - 8, pick(rng, 30) - 8);
            (
                MIXED_LAYERS[pick(rng, 6) as usize],
                Rect::from_coords(x, y, x + pick(rng, 12), y + pick(rng, 12)),
            )
        };
        let random_call = |rng: &mut Rng, cell: CellId| {
            Instance::new(
                cell,
                Point::new(pick(rng, 80) - 40, pick(rng, 80) - 40),
                Orientation::ALL[pick(rng, 8) as usize],
            )
        };
        let mut below: Vec<CellId> = Vec::new();
        for k in 0..2 + pick(rng, 3) {
            let mut leaf = CellDefinition::new(format!("leaf{k}"));
            for _ in 0..1 + pick(rng, 6) {
                let (l, b) = random_box(rng);
                leaf.add_box(l, b);
            }
            below.push(table.insert(leaf).unwrap());
        }
        for level in 0..3 {
            let mut next = Vec::new();
            for k in 0..1 + pick(rng, 3) {
                let mut cell = CellDefinition::new(format!("cell{level}_{k}"));
                for _ in 0..pick(rng, 4) {
                    let (l, b) = random_box(rng);
                    cell.add_box(l, b);
                }
                for _ in 0..1 + pick(rng, 5) {
                    let child = below[pick(rng, below.len() as u64) as usize];
                    cell.add_instance(random_call(rng, child));
                }
                next.push(table.insert(cell).unwrap());
            }
            below.extend(next);
        }
        let top = *below.last().unwrap();
        (table, top)
    }

    #[test]
    fn composed_abstracts_match_flatten_derived_on_random_hierarchies() {
        let r = rules();
        let mut rng = Rng::from_name("composed_abstracts_match_flatten_derived");
        let mut oriented_children = 0;
        for _ in 0..150 {
            let (table, top) = random_hierarchy(&mut rng);
            let mut abstracts = Abstracts::new(&r, &Limits::NONE);
            abstracts
                .prepare(&table, table.require(top).unwrap())
                .unwrap();
            abstracts.build(top, table.require(top).unwrap()).unwrap();
            assert_eq!(
                abstracts.built,
                table.bottom_up(top).unwrap().len(),
                "each definition is built once"
            );
            for cell in table.bottom_up(top).unwrap() {
                let north = abstracts.north(cell).unwrap();
                for o in Orientation::ALL {
                    let want = derive_abstract(&table, cell, o, &r);
                    assert_eq!(north.oriented(o), want, "cell {cell:?} under {o:?}");
                }
                oriented_children += table
                    .require(cell)
                    .unwrap()
                    .instances()
                    .filter(|i| i.orientation != Orientation::NORTH)
                    .count();
            }
            assert_eq!(
                CellAbstract::composed(&table, top, &r).unwrap(),
                derive_abstract(&table, top, Orientation::NORTH, &r)
            );
        }
        assert!(oriented_children > 0);
    }

    #[test]
    fn flat_boxes_report_the_flattened_box_count() {
        let r = rules();
        let mut rng = Rng::from_name("flat_boxes_report_the_flattened_box_count");
        for _ in 0..40 {
            let (table, top) = random_hierarchy(&mut rng);
            let opts = HierOptions {
                max_passes: 1,
                ..HierOptions::default()
            };
            for cell in table.bottom_up(top).unwrap() {
                if table.require(cell).unwrap().instances().next().is_none() {
                    continue;
                }
                // The budget checkpoint runs before any solve, so even a
                // cell whose placement cannot be solved reports it.
                let tight = HierOptions {
                    limits: Limits {
                        max_flat_boxes: Some(0),
                        ..Limits::NONE
                    },
                    ..opts
                };
                let flat = flatten(&table, cell).unwrap().len();
                match compact_cell(&table, cell, &r, &bf(), &tight) {
                    Err(HierError::Exhausted(e)) => assert_eq!(e.observed, flat as u64),
                    other => assert!(flat == 0, "{other:?}"),
                }
                if let Ok(out) = compact_cell(&table, cell, &r, &bf(), &opts) {
                    assert_eq!(out.report.flat_boxes, flat);
                }
            }
        }
    }
}
