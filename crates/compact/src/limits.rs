//! Resource budgets for the compaction pipeline.
//!
//! A [`Limits`] rides in [`crate::hier::HierOptions`] and is consulted at
//! *deterministic checkpoints* — after flattening counts are known, after
//! constraint generation, after each solver invocation — so a run that
//! exhausts a budget always fails at the same point with the same typed
//! [`Exhausted`] error, independent of timing or thread interleaving.
//! The one exception is [`Limits::deadline`], which is wall-clock by
//! nature: the *checkpoint locations* are deterministic, but whether the
//! deadline has passed at one of them is not. For that reason the
//! deadline is also the one field excluded from the incremental session's
//! context hash (see `rsg_compact::incremental`).
//!
//! The default is no limits at all; every budget is opt-in.

use std::fmt;
use std::time::Instant;

/// Which budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Flattened box count (per cell being compacted, abstracts
    /// included).
    FlatBoxes,
    /// Generated constraint count (per constraint system built).
    Constraints,
    /// Cumulative solver relaxation passes (per cell sweep).
    SolvePasses,
    /// The wall-clock deadline passed.
    Deadline,
    /// Not a real budget: a fault-injection harness tripped this
    /// checkpoint (see `rsg_compact::fault`).
    Injected,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Resource::FlatBoxes => "flat boxes",
            Resource::Constraints => "constraints",
            Resource::SolvePasses => "solve passes",
            Resource::Deadline => "deadline",
            Resource::Injected => "injected fault",
        };
        f.write_str(name)
    }
}

/// Typed budget-exhaustion error: which resource, the configured limit,
/// and the observed demand at the checkpoint that tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhausted {
    /// The exhausted budget.
    pub resource: Resource,
    /// The configured cap (0 for [`Resource::Deadline`] /
    /// [`Resource::Injected`]).
    pub limit: u64,
    /// What the run needed at the checkpoint (0 when not meaningful).
    pub observed: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Deadline => write!(f, "compaction deadline exceeded"),
            Resource::Injected => write!(f, "injected budget exhaustion"),
            r => write!(
                f,
                "resource budget exhausted: {} {r} needed, limit {}",
                self.observed, self.limit
            ),
        }
    }
}

impl std::error::Error for Exhausted {}

/// Resource budgets, all optional. `Limits::default()` imposes none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Limits {
    /// Cap on the flattened box count of any one cell being compacted.
    pub max_flat_boxes: Option<u64>,
    /// Cap on the constraint count of any one generated system.
    pub max_constraints: Option<u64>,
    /// Cap on cumulative solver relaxation passes within one cell sweep.
    /// Every pitch-fixpoint round solves from zero, so a sweep spends
    /// its rounds times the passes one cold solve needs (about two with
    /// sorted edges).
    pub max_solve_passes: Option<u64>,
    /// Wall-clock deadline; checked at the same checkpoints as the
    /// counts. Excluded from incremental context hashes (wall-clock
    /// results are not content-addressable).
    pub deadline: Option<Instant>,
}

impl Limits {
    /// No budgets (the default).
    pub const NONE: Limits = Limits {
        max_flat_boxes: None,
        max_constraints: None,
        max_solve_passes: None,
        deadline: None,
    };

    fn check(cap: Option<u64>, resource: Resource, observed: u64) -> Result<(), Exhausted> {
        match cap {
            Some(limit) if observed > limit => Err(Exhausted {
                resource,
                limit,
                observed,
            }),
            _ => Ok(()),
        }
    }

    /// Checkpoint: a cell flattened to `observed` boxes.
    pub fn check_boxes(&self, observed: usize) -> Result<(), Exhausted> {
        Limits::check(self.max_flat_boxes, Resource::FlatBoxes, observed as u64)
    }

    /// Checkpoint: a constraint system holds `observed` constraints.
    pub fn check_constraints(&self, observed: usize) -> Result<(), Exhausted> {
        Limits::check(self.max_constraints, Resource::Constraints, observed as u64)
    }

    /// Checkpoint: a cell sweep has spent `observed` cumulative solver
    /// passes.
    pub fn check_passes(&self, observed: usize) -> Result<(), Exhausted> {
        Limits::check(
            self.max_solve_passes,
            Resource::SolvePasses,
            observed as u64,
        )
    }

    /// Checkpoint: the wall clock against the optional deadline.
    pub fn check_deadline(&self) -> Result<(), Exhausted> {
        match self.deadline {
            Some(d) if Instant::now() > d => Err(Exhausted {
                resource: Resource::Deadline,
                limit: 0,
                observed: 0,
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let l = Limits::default();
        assert_eq!(l, Limits::NONE);
        assert!(l.check_boxes(usize::MAX).is_ok());
        assert!(l.check_constraints(usize::MAX).is_ok());
        assert!(l.check_passes(usize::MAX).is_ok());
        assert!(l.check_deadline().is_ok());
    }

    #[test]
    fn caps_trip_exactly_past_the_limit() {
        let l = Limits {
            max_flat_boxes: Some(10),
            ..Limits::NONE
        };
        assert!(l.check_boxes(10).is_ok());
        let err = l.check_boxes(11).unwrap_err();
        assert_eq!(err.resource, Resource::FlatBoxes);
        assert_eq!((err.limit, err.observed), (10, 11));
        assert!(err.to_string().contains("flat boxes"));
    }

    #[test]
    fn deadline_in_the_past_trips() {
        let l = Limits {
            deadline: Some(Instant::now() - std::time::Duration::from_secs(1)),
            ..Limits::NONE
        };
        assert!(matches!(
            l.check_deadline(),
            Err(Exhausted {
                resource: Resource::Deadline,
                ..
            })
        ));
    }
}
