//! Chapter 6: the leaf-cell compactor.
//!
//! The paper motivates a *leaf cell compactor*: instead of compacting each
//! assembled regular structure (duplicating effort over every replication
//! factor), compact the library cells **once**, taking into account every
//! way the cells may legally interface, with the pitches λᵢ as first-class
//! unknowns. This crate implements the whole pipeline, generalized to an
//! axis-generic, backend-pluggable engine:
//!
//! * [`scanline`] — two constraint generators, generic over the sweep
//!   axis: the naive *band* method that overconstrains fragmented
//!   layouts (Figs 6.4–6.6) and the correct *visibility* method
//!   (Fig 6.7) in which hidden edges generate no constraints; hidden-edge
//!   coverage is answered from an [`rsg_geom::GeomIndex`] instead of
//!   rescanning every box per candidate pair,
//! * [`engine`] — flat compaction along either axis plus the
//!   alternating-axis fixpoint [`engine::compact_xy`] (§6.4), reporting
//!   a per-sweep [`engine::CompactReport`],
//! * [`leaf`] — the leaf-cell compactor proper: intra-cell plus
//!   interface-folded inter-cell constraints, solved for edge positions
//!   *and* pitches simultaneously, with [`leaf::compact_batch`] fanning
//!   independent libraries out across threads,
//! * [`layers`] — pseudo-layer handling: contact expansion (Fig 6.9) and
//!   transistor-gate detection (§6.4.3),
//! * [`incremental`] — a persistent [`incremental::CompactSession`] that
//!   caches leaf results and per-cell outcomes (with the interface
//!   abstracts riding on them) by content hash, so recompacting after a
//!   one-leaf edit re-does work only where the edit is visible —
//!   bit-identical to the from-scratch flow.
//!
//! The solving layer itself — [`ConstraintSystem`] with its CSR
//! [`rsg_solve::ConstraintGraph`], the longest-path [`solver`]s
//! (sorted Bellman-Ford, one-pass topological, balanced), the
//! [`simplex`] pitch LP, and the pluggable [`backend`] trait — lives in
//! the [`rsg_solve`] crate and is re-exported here, so
//! `rsg_compact::{ConstraintSystem, VarId, Solver, ...}` paths keep
//! working.
//!
//! # Example
//!
//! ```
//! use rsg_compact::scanline::{self, Method, Prune};
//! use rsg_compact::solver;
//! use rsg_geom::{Axis, Rect};
//! use rsg_layout::{Layer, Technology};
//!
//! let tech = Technology::mead_conway(2);
//! let boxes = vec![
//!     (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
//!     (Layer::Poly, Rect::from_coords(30, 0, 34, 20)), // far right: slack
//! ];
//! let (sys, vars) = scanline::generate(
//!     &boxes,
//!     &tech.rules,
//!     Method::Visibility,
//!     Axis::X,
//!     Prune::Apply,
//! );
//! let sol = solver::solve(&sys, solver::EdgeOrder::Sorted).unwrap();
//! // Left-packed: the right box pulls in to the 2λ poly spacing.
//! let left_edge_of_right_box = sol.position(vars[1].left);
//! assert_eq!(left_edge_of_right_box - sol.position(vars[0].right), 4);
//! ```
//!
//! Library code is panic-free by policy: `unwrap`/`expect` are denied
//! outside `#[cfg(test)]` (see DESIGN.md's robustness section).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod engine;
pub mod fault;
pub mod hier;
pub mod incremental;
pub mod layers;
pub mod leaf;
pub mod limits;
pub use rsg_geom::par;
pub mod scanline;
pub mod scratch;

pub use rsg_solve::{backend, simplex, solver};

pub use rsg_solve::{
    Balanced, BellmanFord, Constraint, ConstraintGraph, ConstraintSystem, PitchId, SimplexPitch,
    Solver, Topological, VarId,
};
