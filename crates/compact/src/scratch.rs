//! Reusable sweep arenas.
//!
//! One compaction run is many sweeps over the same boxes: `compact_xy`
//! alternates axes until a fixpoint, the hierarchical walker re-sweeps
//! every cluster per pass, and the pitch fixpoint re-solves dozens of
//! times. Rebuilding the constraint system, CSR graph, spatial index and
//! candidate buffers from nothing per sweep put the allocator on the hot
//! path at megachip scale.
//!
//! [`SweepScratch`] keeps those allocations alive between sweeps:
//! clear-and-refill instead of drop-and-rebuild. [`ConstraintSystem::reset`]
//! keeps the variable and constraint storage for the next sweep.
//! The hierarchical walker also keeps each axis's last solve there, so a
//! confirming sweep whose constraints repeat is not solved again.

use crate::hier::{Emission, PinnedFrame};
use crate::ConstraintSystem;
use rsg_geom::{Axis, CoverageProfile, GeomIndex, Rect};
use rsg_layout::Layer;

/// Buffers for one constraint-generation scan ([`crate::scanline`]).
///
/// Everything here is cleared (not shrunk) per use; the spatial index
/// recycles its bucket columns through
/// [`GeomIndex::rebuild_from_vec`].
#[derive(Debug)]
pub struct ScanScratch {
    /// Spatial index over the scanned boxes — backs both candidate
    /// enumeration and the hidden-edge oracle.
    pub(crate) index: GeomIndex<Layer>,
    /// Recycled storage for the index's item list.
    pub(crate) items: Vec<(Layer, Rect)>,
    /// Collected `(low box, high box, spacing)` triples, in emission
    /// order: the flat scan's, or a leaf interface's cross pairs.
    pub(crate) spacings: Vec<(usize, usize, i64)>,
    /// Per-low-box candidate merge buffer `(high box, spacing)`.
    pub(crate) cand: Vec<(usize, i64)>,
    /// Per-edge keep marks for the transitive-reduction prune.
    pub(crate) keep: Vec<bool>,
    /// Per-source offsets into `spacings` for chain lookups.
    pub(crate) starts: Vec<usize>,
    /// The visibility cursor's profile cache.
    pub(crate) profiles: Vec<(Layer, CoverageProfile)>,
    /// The hierarchical sweep's dense weight row: per partner cluster,
    /// the strongest weight the current source cluster has emitted so
    /// far (`i64::MIN` for none).
    pub(crate) row: Vec<i64>,
    /// The partner clusters holding a weight in `row`.
    pub(crate) touched: Vec<usize>,
    /// The hierarchical sweep's boxes grouped by owning cluster: the
    /// boxes of cluster `c` are `owned[owned_start[c]..owned_start[c + 1]]`.
    pub(crate) owned_start: Vec<usize>,
    /// Box ids in owner order (see `owned_start`).
    pub(crate) owned: Vec<usize>,
    /// The current source cluster's shadow wall: the wide frames past
    /// its high edge, as `(high edge along, across lo, across hi)`.
    pub(crate) wall: Vec<(i64, i64, i64)>,
    /// The current source cluster's partner clusters (not shadowed).
    pub(crate) partners: Vec<usize>,
    /// The hierarchical sweep's pinned frames, one run per pin group
    /// loaded so far.
    pub(crate) pinned: Vec<PinnedFrame>,
    /// Each pin group's run in `pinned`, once loaded.
    pub(crate) pinned_at: Vec<Option<(usize, usize)>>,
}

impl ScanScratch {
    /// An empty scratch; buffers grow on first use and stick around.
    pub fn new() -> ScanScratch {
        ScanScratch {
            index: GeomIndex::build(&[], Axis::X),
            items: Vec::new(),
            spacings: Vec::new(),
            cand: Vec::new(),
            keep: Vec::new(),
            starts: Vec::new(),
            profiles: Vec::new(),
            row: Vec::new(),
            touched: Vec::new(),
            owned_start: Vec::new(),
            owned: Vec::new(),
            wall: Vec::new(),
            partners: Vec::new(),
            pinned: Vec::new(),
            pinned_at: Vec::new(),
        }
    }
}

impl Default for ScanScratch {
    fn default() -> ScanScratch {
        ScanScratch::new()
    }
}

/// Arena for a full sweep: the constraint system (with its cached CSR
/// graph) plus the scan buffers. [`crate::engine::compact_xy`] threads
/// one through every sweep; the hierarchical walker holds one per axis
/// of one cell, together with that axis's last solve.
#[derive(Debug, Default)]
pub struct SweepScratch {
    pub(crate) sys: ConstraintSystem,
    pub(crate) scan: ScanScratch,
    pub(crate) last: Option<LastSolve>,
}

/// One hierarchical sweep's solved system: the emission it was built
/// from, the solved cluster positions (relative to the sweep's lowest
/// origin) and the final class pitches. Pins and classes are fixed per
/// cell and axis, so a later sweep of the same cell and axis with an
/// equal emission has an equal constraint system, and every backend
/// solves equal systems to equal positions
/// ([`crate::backend::Solver::solve_system`]).
#[derive(Debug)]
pub(crate) struct LastSolve {
    pub(crate) emission: Emission,
    pub(crate) positions: Vec<i64>,
    pub(crate) lambdas: Vec<i64>,
}

impl SweepScratch {
    /// An empty arena.
    pub fn new() -> SweepScratch {
        SweepScratch::default()
    }
}
