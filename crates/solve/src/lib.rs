//! The constraint-solving subsystem of the leaf-cell compactor (§6.2–6.4.2),
//! extracted from `rsg-compact` so it can be tested, benchmarked, and
//! reused independently of any layout machinery.
//!
//! The pipeline above this crate (scanline constraint generation, the
//! leaf compactor, the alternating x/y engine) produces systems of
//! difference constraints `x_to − x_from + Σcλ ≥ w`; this crate owns
//! everything that happens after generation:
//!
//! * [`ConstraintSystem`] — the system itself, with a lazily built CSR
//!   adjacency ([`ConstraintGraph`]) shared by every solver instead of
//!   each backend re-deriving its own view of the flat constraint list,
//! * [`solver`] — the longest-path procedures: sorted-edge Bellman-Ford
//!   (§6.4.2), a one-pass **topological** solver for acyclic systems,
//!   and the jog-avoiding balanced mode (Fig 6.8),
//! * [`simplex`] — the dense Big-M LP for pitch trade-offs (§6.2),
//! * [`backend`] — the [`Solver`] trait the compaction pipeline is
//!   generic over, plus per-constraint **slack** and `critical_path`
//!   diagnostics that explain *which* constraints set a solved extent.
//!
//! # Example
//!
//! ```
//! use rsg_solve::solver::{self, EdgeOrder};
//! use rsg_solve::ConstraintSystem;
//!
//! let mut sys = ConstraintSystem::new();
//! let a = sys.add_var(0);
//! let b = sys.add_var(50);
//! sys.require(a, b, 10); // b − a ≥ 10
//!
//! let sol = solver::solve(&sys, EdgeOrder::Sorted).unwrap();
//! assert_eq!(sol.position(b), 10);
//! // The chain of tight constraints explains why b sits at 10.
//! let chain = sol.critical_path(&sys, b);
//! assert_eq!(chain.iter().map(|c| c.weight).sum::<i64>(), 10);
//! ```
//!
//! Library code is panic-free by policy: `unwrap`/`expect` are denied
//! outside `#[cfg(test)]` (see DESIGN.md's robustness section).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod backend;
mod constraint;
mod graph;
pub mod simplex;
pub mod solver;

pub use backend::{Balanced, BellmanFord, Outcome, SimplexPitch, SolveError, Solver, Topological};
pub use constraint::{Constraint, ConstraintSystem, PitchId, VarId};
pub use graph::ConstraintGraph;
pub use solver::{Infeasible, SolveFault};
