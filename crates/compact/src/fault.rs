//! Deterministic fault injection for the compaction pipeline.
//!
//! A [`FaultPlan`] is attached to a
//! [`crate::incremental::CompactSession`] and rides the session's
//! `CompactHooks` seam: the hierarchical compactor asks the hooks at
//! each solver call, each sweep start, and each budget checkpoint
//! whether a fault should fire, and the plan answers from simple
//! invocation counters. An armed plan runs the hierarchy walk on one
//! worker, whatever [`crate::hier::HierOptions::parallelism`] asks for,
//! so cells and sweeps are visited in a deterministic order — level by
//! level, each level in DFS order — and "fail the 3rd solve" names the
//! same solve on every run. That is what makes the error paths
//! testable:
//!
//! * the injected failure must surface as the *typed* error the real
//!   fault would produce (never a panic, never corrupt output), and
//! * clearing the plan and re-running must be bit-identical to a cold
//!   run — the session may not keep partial state from the errored run.
//!
//! `forget_caches` is the odd one out: it injects cache *misses* rather
//! than failures, forcing every cached lookup to recompute. A session
//! with amnesia must still produce bit-identical results; that pins the
//! cache-equivalence contract from the other side.

use crate::limits::{Exhausted, Resource};

/// Where in the pipeline a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Immediately before a constraint-system solve.
    Solve,
    /// At the start of an axis sweep (pitch-fixpoint entry).
    Sweep,
    /// At a resource-budget checkpoint.
    Checkpoint,
}

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InjectedFault {
    /// The solver reports infeasibility.
    SolverFail,
    /// The pitch fixpoint reports divergence.
    Diverge,
    /// The budget checkpoint reports exhaustion.
    Exhaust,
}

/// A deterministic schedule of injected faults, counted per run.
///
/// Counters restart at every `CompactSession` entry point call, so a
/// plan's `n` always means "the nth occurrence within one run".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the `n`th (0-based) solver invocation with a typed
    /// infeasibility.
    pub fail_solve_at: Option<u64>,
    /// Report pitch-fixpoint divergence at the `n`th (0-based) sweep.
    pub diverge_at: Option<u64>,
    /// Report budget exhaustion at the `n`th (0-based) checkpoint.
    pub exhaust_at: Option<u64>,
    /// Force every cache lookup (leaf results, cell outcomes, abstracts)
    /// to miss.
    pub forget_caches: bool,
    solves: u64,
    sweeps: u64,
    checkpoints: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (counters still run).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Plan failing the `n`th solver invocation.
    pub fn fail_solve(n: u64) -> FaultPlan {
        FaultPlan {
            fail_solve_at: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Plan reporting divergence at the `n`th sweep.
    pub fn diverge(n: u64) -> FaultPlan {
        FaultPlan {
            diverge_at: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Plan reporting budget exhaustion at the `n`th checkpoint.
    pub fn exhaust(n: u64) -> FaultPlan {
        FaultPlan {
            exhaust_at: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Plan forcing every cache lookup to miss.
    pub fn amnesia() -> FaultPlan {
        FaultPlan {
            forget_caches: true,
            ..FaultPlan::default()
        }
    }

    /// Restarts the invocation counters (called at each session entry).
    pub fn reset(&mut self) {
        self.solves = 0;
        self.sweeps = 0;
        self.checkpoints = 0;
    }

    /// Advances the counter for `site`; reports the fault to fire, if
    /// any.
    pub(crate) fn trip(&mut self, site: FaultSite) -> Option<InjectedFault> {
        let (counter, armed, fault) = match site {
            FaultSite::Solve => (
                &mut self.solves,
                self.fail_solve_at,
                InjectedFault::SolverFail,
            ),
            FaultSite::Sweep => (&mut self.sweeps, self.diverge_at, InjectedFault::Diverge),
            FaultSite::Checkpoint => (
                &mut self.checkpoints,
                self.exhaust_at,
                InjectedFault::Exhaust,
            ),
        };
        let now = *counter;
        *counter += 1;
        (armed == Some(now)).then_some(fault)
    }
}

/// The [`Exhausted`] value injected checkpoints report.
pub(crate) fn injected_exhaustion() -> Exhausted {
    Exhausted {
        resource: Resource::Injected,
        limit: 0,
        observed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_per_site_and_zero_based() {
        let mut p = FaultPlan::fail_solve(1);
        assert_eq!(p.trip(FaultSite::Sweep), None);
        assert_eq!(p.trip(FaultSite::Solve), None); // solve #0
        assert_eq!(p.trip(FaultSite::Solve), Some(InjectedFault::SolverFail)); // #1
        assert_eq!(p.trip(FaultSite::Solve), None); // #2: one-shot
    }

    #[test]
    fn reset_rewinds_the_schedule() {
        let mut p = FaultPlan::diverge(0);
        assert_eq!(p.trip(FaultSite::Sweep), Some(InjectedFault::Diverge));
        assert_eq!(p.trip(FaultSite::Sweep), None);
        p.reset();
        assert_eq!(p.trip(FaultSite::Sweep), Some(InjectedFault::Diverge));
    }
}
