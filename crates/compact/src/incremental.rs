//! Incremental recompaction — change one leaf, pay for one leaf.
//!
//! A layout session edits a design many times between full compactions:
//! tweak one personality mask, swap a crosspoint, nudge a leaf body. The
//! from-scratch flow ([`crate::hier::compact_chip_with_library`]) pays
//! the full hierarchy price on every call even though an edit is usually
//! visible only inside one definition and along the paths above it.
//!
//! [`CompactSession`] makes the flow persistent. Everything expensive is
//! cached under a *content hash* — a digest of exactly the inputs the
//! cached value depends on — so cache identity is semantic, not
//! positional:
//!
//! * **leaf results** by `(job content, design rules, solver)` — an
//!   untouched library job is never re-solved;
//! * **cell outcomes** by `(deep input geometry, rules, solver,
//!   options)` — a definition whose own geometry and whose children's
//!   compacted geometry are unchanged is replayed from the cache, which
//!   is what turns "one leaf changed" into "one root-path recompacted":
//!   dirtiness propagates upward through the hashes alone, no explicit
//!   dirty bits;
//! * **interface abstracts** ride with the cell outcomes: an entry keeps
//!   the compacted cell's `NORTH` abstract once a caller has needed it,
//!   so a replayed child still feeds its recompacted callers. Only
//!   definitions the edit reached compose a new abstract, and leaves
//!   derive theirs from their own boxes when a recompacted caller needs
//!   them.
//!
//! The session keeps no positional state: a cell that misses every cache
//! runs exactly the plain flow's computation.
//!
//! The session walks the hierarchy through the same level-scheduled
//! executor as the plain flow (at every [`HierOptions::parallelism`]);
//! it only adds the hashing and replay before a level's misses run and
//! the cache merge after them.
//!
//! The contract, pinned by the `incremental_equivalence` proptests: every
//! call returns **bit-identical outcomes** to the from-scratch flow on
//! the same input — geometry, pitches, [`HierOutcome::passes`] and the
//! per-sweep [`HierOutcome::report`].
//!
//! ```
//! use rsg_compact::incremental::CompactSession;
//! use rsg_compact::{hier::HierOptions, BellmanFord};
//! use rsg_layout::{CellDefinition, CellTable, Instance, Layer, Technology};
//! use rsg_geom::{Orientation, Point, Rect};
//!
//! let rules = Technology::mead_conway(2).rules;
//! let mut table = CellTable::new();
//! let mut leaf = CellDefinition::new("leaf");
//! leaf.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 8));
//! let leaf_id = table.insert(leaf).unwrap();
//! let mut top = CellDefinition::new("top");
//! top.add_instance(Instance::new(leaf_id, Point::new(0, 0), Orientation::NORTH));
//! top.add_instance(Instance::new(leaf_id, Point::new(30, 0), Orientation::NORTH));
//! let top_id = table.insert(top).unwrap();
//!
//! let mut session = CompactSession::new();
//! let opts = HierOptions::default();
//! let first = session
//!     .compact_hierarchy(&table, top_id, &rules, &BellmanFord::SORTED, &opts)
//!     .unwrap();
//! // Same input again: a pure cache replay.
//! let again = session
//!     .compact_hierarchy(&table, top_id, &rules, &BellmanFord::SORTED, &opts)
//!     .unwrap();
//! assert_eq!(session.last_stats().cells_compacted, 0);
//! assert_eq!(
//!     first.outcome("top").unwrap().cell,
//!     again.outcome("top").unwrap().cell
//! );
//! ```

use crate::backend::Solver;
use crate::fault::{FaultPlan, FaultSite, InjectedFault};
use crate::hier::{
    compact_cell_with, converged, substitute_library, walk_levels, Abstracts, CellAbstract,
    ChipCompaction, ChipError, ChipLayout, CompactHooks, HierError, HierOptions, HierOutcome,
    LevelFlow, Resolved, WorkCounters,
};
use crate::leaf::{self, CompactionResult, LeafOptions, LibraryJob};
use rsg_layout::hash::{hash_cell, mix, ContentHasher};
use rsg_layout::{CellDefinition, CellId, CellTable, DesignRules};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Work done (and avoided) by one session call.
///
/// `cells_seen = cell_hits + cells_compacted` over the assembly cells of
/// the hierarchy; leaves are the leaf pass's business and counted by
/// `leaf_jobs`/`leaf_hits` instead. A no-op edit shows up as
/// `cells_compacted == 0`, `abstracts_derived == 0`,
/// `constraints_emitted == 0` — no abstract was composed and nothing was
/// re-swept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditStats {
    /// Assembly cells visited by the hierarchy walk.
    pub cells_seen: usize,
    /// Assembly cells replayed from the outcome cache.
    pub cell_hits: usize,
    /// Assembly cells actually recompacted.
    pub cells_compacted: usize,
    /// Leaf-library jobs solved this call.
    pub leaf_jobs: usize,
    /// Leaf-library jobs replayed from the cache.
    pub leaf_hits: usize,
    /// `NORTH` interface abstracts built this call for recompacted
    /// callers: leaves derived from their own boxes, assemblies composed
    /// from their children's abstracts.
    pub abstracts_derived: usize,
    /// Child abstracts that recompacted cells read from a replayed
    /// outcome instead of building them (one per distinct child per
    /// recompacted cell).
    pub abstract_hits: usize,
    /// Kernel constraints computed by the sweeps.
    pub constraints_emitted: usize,
    /// Sweeps that built a system and ran the pitch fixpoint.
    pub sweeps_solved: usize,
    /// Solver relaxation passes actually performed.
    pub solver_passes: usize,
}

impl EditStats {
    fn absorb(&mut self, c: &WorkCounters) {
        self.constraints_emitted += c.constraints_emitted;
        self.sweeps_solved += c.sweeps_solved;
        self.solver_passes += c.solver_passes;
    }
}

/// Cumulative [`EditStats`] over every successful session call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Number of successful `compact_*` calls accumulated.
    pub calls: usize,
    /// Sums of the per-call counters.
    pub totals: EditStats,
}

#[derive(Debug, Clone)]
struct CellEntry {
    outcome: HierOutcome,
    /// Deep content hash of the compacted output cell.
    out_hash: u64,
    /// `NORTH` interface abstract of the compacted output cell, once a
    /// caller has needed it (a top cell's never is).
    north: Option<Arc<CellAbstract>>,
}

/// A persistent incremental-compaction session.
///
/// Clone-cheap (the caches hold [`Arc`]s), so a primed session can be
/// snapshotted — the benchmark clones one per iteration to measure a
/// single edit against a stable cache. All caches are keyed by content
/// hash (the solve context included) and never invalidated by edits.
#[derive(Debug, Clone, Default)]
pub struct CompactSession {
    /// `(deep input hash, context)` → compacted outcome and abstract.
    cells: HashMap<u64, Arc<CellEntry>>,
    /// `(job content, rules, solver)` → leaf-library result.
    leaves: HashMap<u64, Arc<CompactionResult>>,
    /// Deterministic fault-injection schedule for subsequent calls.
    faults: Option<FaultPlan>,
    stats: SessionStats,
    last: EditStats,
}

/// Digest of everything outside the geometry that shapes a solve. The
/// budget *caps* are folded in — they change where a run fails, so they
/// are part of the solve context — but the wall-clock deadline is
/// deliberately excluded: it is not content-addressable.
fn context_of(rules: &DesignRules, solver: &dyn Solver, opts: &HierOptions) -> u64 {
    let mut h = ContentHasher::new();
    h.write_u64(rules.content_hash())
        .write_str(solver.name())
        .write_u64(opts.content_tag());
    h.finish()
}

fn hash_str(s: &str) -> u64 {
    let mut h = ContentHasher::new();
    h.write_str(s);
    h.finish()
}

/// Deep-hashes `def`, requiring every referenced child to already carry
/// a computed output hash. A missing child used to fold in as `0`,
/// which silently aliased distinct inputs onto one cache key — two
/// different unhashed children produced the same digest, and a stale
/// cached outcome could be replayed for the wrong geometry. The walk
/// visits children before parents, so a miss can only mean the
/// hierarchy is inconsistent (e.g. a dangling instance reference); that
/// is now a typed [`HierError::Internal`], never a poisoned cache.
fn checked_hash(def: &CellDefinition, hash_of: &HashMap<CellId, u64>) -> Result<u64, HierError> {
    let mut missing: Option<CellId> = None;
    let h = hash_cell(def, |id| match hash_of.get(&id) {
        Some(&h) => h,
        None => {
            missing.get_or_insert(id);
            0
        }
    });
    match missing {
        None => Ok(h),
        Some(id) => Err(HierError::Internal(format!(
            "cell `{}` references child {id:?} with no computed output hash \
             (dangling or unvisited instance reference)",
            def.name()
        ))),
    }
}

impl CompactSession {
    /// Creates an empty session (every first call is a cold run).
    pub fn new() -> CompactSession {
        CompactSession::default()
    }

    /// Work counters of the most recent call.
    pub fn last_stats(&self) -> EditStats {
        self.last
    }

    /// Cumulative counters over every successful call.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Arms (or with `None`, disarms) a deterministic fault-injection
    /// schedule for subsequent calls. Counters restart at every entry
    /// point, so `FaultPlan::fail_solve(2)` fails the third solve of
    /// *each* call until the plan is cleared. An injected failure obeys
    /// the same contract as a real one: typed error out, caches left
    /// consistent, and a retry without the plan is bit-identical to a
    /// cold run.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    fn begin(&mut self) {
        if let Some(p) = self.faults.as_mut() {
            p.reset();
        }
        self.last = EditStats::default();
    }

    fn forgetting(&self) -> bool {
        self.faults.as_ref().is_some_and(|p| p.forget_caches)
    }

    /// Incremental [`crate::hier::compact_hierarchy`]: identical results,
    /// but definitions whose deep content hash (own geometry + children's
    /// compacted geometry) matches a cached run are replayed instead of
    /// recompacted, together with their interface abstracts.
    ///
    /// # Errors
    ///
    /// Exactly the plain flow's errors ([`HierError`]); a failed call
    /// leaves the caches valid (they are content-addressed) but does not
    /// count into [`CompactSession::stats`].
    pub fn compact_hierarchy(
        &mut self,
        table: &CellTable,
        top: CellId,
        rules: &DesignRules,
        solver: &dyn Solver,
        opts: &HierOptions,
    ) -> Result<ChipLayout, HierError> {
        self.begin();
        let chip = self.walk(table, top, rules, solver, opts);
        self.end(chip)
    }

    /// Incremental [`crate::hier::compact_chip_with_library`]: the leaf
    /// pass runs per [`LibraryJob`] through the leaf-result cache, then
    /// the hierarchy pass runs through [`CompactSession::compact_hierarchy`]'s
    /// machinery. Same name-matched substitution, same errors.
    ///
    /// # Errors
    ///
    /// [`ChipError::Leaf`] from a failed (uncached) leaf job,
    /// [`ChipError::Hier`] for an unknown substituted cell name or a
    /// failed placement pass — identical to the plain flow.
    pub fn compact_chip_with_library(
        &mut self,
        table: &CellTable,
        top: CellId,
        jobs: &[LibraryJob],
        rules: &DesignRules,
        solver: &dyn Solver,
        opts: &HierOptions,
    ) -> Result<ChipCompaction, ChipError> {
        self.begin();
        let chip = self.leaf_pass(jobs, rules, solver, opts).and_then(|leaf| {
            let compacted = substitute_library(table, &leaf)?;
            let chip = self.walk(&compacted, top, rules, solver, opts)?;
            Ok(ChipCompaction { chip, leaf })
        });
        self.end(chip)
    }

    /// Closes a call. A success counts into [`CompactSession::stats`].
    /// A failure keeps every cache entry: each was completed and is keyed
    /// by its full input, so nothing partial can hide there, and a retry
    /// behaves exactly like a cold run for the failed cells (pinned by the
    /// fault-injection proptests).
    fn end<T, E>(&mut self, result: Result<T, E>) -> Result<T, E> {
        if result.is_err() {
            self.last = EditStats::default();
            return result;
        }
        let t = &mut self.stats.totals;
        let l = &self.last;
        t.cells_seen += l.cells_seen;
        t.cell_hits += l.cell_hits;
        t.cells_compacted += l.cells_compacted;
        t.leaf_jobs += l.leaf_jobs;
        t.leaf_hits += l.leaf_hits;
        t.abstracts_derived += l.abstracts_derived;
        t.abstract_hits += l.abstract_hits;
        t.constraints_emitted += l.constraints_emitted;
        t.sweeps_solved += l.sweeps_solved;
        t.solver_passes += l.solver_passes;
        self.stats.calls += 1;
        result
    }

    fn leaf_pass(
        &mut self,
        jobs: &[LibraryJob],
        rules: &DesignRules,
        solver: &dyn Solver,
        opts: &HierOptions,
    ) -> Result<Vec<CompactionResult>, ChipError> {
        let rules_hash = rules.content_hash();
        let solver_hash = hash_str(solver.name());
        let forgetting = self.forgetting();
        jobs.iter()
            .map(|job| {
                let key = mix(&[job.content_hash(), rules_hash, solver_hash]);
                if let Some(cached) = self.leaves.get(&key).filter(|_| !forgetting) {
                    self.last.leaf_hits += 1;
                    return Ok(cached.as_ref().clone());
                }
                self.last.leaf_jobs += 1;
                let leaf_opts = LeafOptions {
                    limits: opts.limits,
                    ..LeafOptions::default()
                };
                let result = leaf::compact(&job.cells, &job.interfaces, rules, solver, &leaf_opts)?;
                self.leaves.insert(key, Arc::new(result.clone()));
                Ok(result)
            })
            .collect()
    }

    /// The hierarchy pass: [`walk_levels`] over a [`SessionFlow`]. The
    /// fault schedule counts trips across the whole walk, so it is
    /// deterministic only with one worker — an armed plan runs one.
    fn walk(
        &mut self,
        table: &CellTable,
        top: CellId,
        rules: &DesignRules,
        solver: &dyn Solver,
        opts: &HierOptions,
    ) -> Result<ChipLayout, HierError> {
        let forgetting = self.forgetting();
        let faults = self.faults.take().map(Mutex::new);
        let threads = match faults {
            Some(_) => 1,
            None => opts.parallelism.threads(),
        };
        let mut flow = SessionFlow {
            session: self,
            rules,
            solver,
            opts,
            context: context_of(rules, solver, opts),
            faults: faults.as_ref(),
            forgetting,
            hash_of: HashMap::new(),
            committed: Vec::new(),
        };
        let mut abstracts = Abstracts::new(rules, &opts.limits);
        let chip = walk_levels(table, top, threads, &mut abstracts, &mut flow);
        // A callee's abstract is composed when its first caller is
        // prepared, after its own commit: attach it to the entry now.
        for (cell, key) in std::mem::take(&mut flow.committed) {
            if let (Some(north), Some(entry)) = (abstracts.north(cell), self.cells.get_mut(&key)) {
                Arc::make_mut(entry).north = Some(north.clone());
            }
        }
        self.faults = faults.map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner));
        self.last.abstracts_derived += abstracts.built;
        self.last.abstract_hits += abstracts.replay_reads;
        chip
    }
}

/// The session's [`LevelFlow`]. It maintains the deep output hash of
/// every visited definition: a parent's input hash folds in its
/// children's *output* hashes, so an edit anywhere below forces a parent
/// miss exactly when something it can see changed — the dirty
/// propagation is the hashing.
struct SessionFlow<'a> {
    session: &'a mut CompactSession,
    rules: &'a DesignRules,
    solver: &'a dyn Solver,
    opts: &'a HierOptions,
    context: u64,
    /// Armed fault schedule of the session, if any (one worker only).
    faults: Option<&'a Mutex<FaultPlan>>,
    /// Injected amnesia: answer every cache lookup with a miss.
    forgetting: bool,
    /// Deep output hash per visited cell (leaves: input == output).
    hash_of: HashMap<CellId, u64>,
    /// `(cell, outcome-cache key)` of every cell committed this walk.
    committed: Vec<(CellId, u64)>,
}

impl LevelFlow for SessionFlow<'_> {
    /// The outcome-cache key.
    type Miss = u64;
    type Done = (Result<HierOutcome, HierError>, WorkCounters);

    fn resolve(
        &mut self,
        table: &CellTable,
        cell: CellId,
    ) -> Result<Resolved<Self::Miss>, HierError> {
        let def = table.require(cell)?;
        // Leaves are pure inputs — input == output, and their hash reads
        // no other definition — so they hash on first sight.
        for inst in def.instances() {
            if !self.hash_of.contains_key(&inst.cell) {
                let child = table.require(inst.cell)?;
                if child.instances().next().is_none() {
                    let h = checked_hash(child, &self.hash_of)?;
                    self.hash_of.insert(inst.cell, h);
                }
            }
        }
        let key = mix(&[checked_hash(def, &self.hash_of)?, self.context]);
        let session = &mut *self.session;
        session.last.cells_seen += 1;
        if let Some(entry) = session.cells.get(&key).filter(|_| !self.forgetting) {
            session.last.cell_hits += 1;
            self.hash_of.insert(cell, entry.out_hash);
            return Ok(Resolved::Replayed(
                entry.outcome.clone(),
                entry.north.clone(),
            ));
        }
        session.last.cells_compacted += 1;
        Ok(Resolved::Miss(key))
    }

    fn compute(
        &self,
        table: &CellTable,
        abstracts: &Abstracts,
        cell: CellId,
        _: &Self::Miss,
    ) -> Self::Done {
        let mut hooks = MissHooks {
            flow: self,
            counters: WorkCounters::default(),
        };
        let outcome = compact_cell_with(
            table,
            cell,
            abstracts,
            self.rules,
            self.solver,
            self.opts,
            &mut hooks,
        );
        (outcome, hooks.counters)
    }

    fn commit(
        &mut self,
        cell: CellId,
        key: &Self::Miss,
        (outcome, counters): Self::Done,
    ) -> Result<HierOutcome, HierError> {
        let session = &mut *self.session;
        session.last.absorb(&counters);
        let outcome = converged(outcome?, self.opts)?;
        let out_hash = checked_hash(&outcome.cell, &self.hash_of)?;
        session.cells.insert(
            *key,
            Arc::new(CellEntry {
                outcome: outcome.clone(),
                out_hash,
                north: None,
            }),
        );
        self.committed.push((cell, *key));
        self.hash_of.insert(cell, out_hash);
        Ok(outcome)
    }
}

/// The session's [`CompactHooks`] for one [`compact_cell_with`] run:
/// its counters stay private to the worker until the commit, and faults
/// come from the session's armed plan.
struct MissHooks<'a> {
    flow: &'a SessionFlow<'a>,
    counters: WorkCounters,
}

impl CompactHooks for MissHooks<'_> {
    fn counters(&mut self) -> Option<&mut WorkCounters> {
        Some(&mut self.counters)
    }

    fn fault(&mut self, site: FaultSite) -> Option<InjectedFault> {
        let plan = self.flow.faults?;
        plan.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .trip(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_geom::{Orientation, Point, Rect};
    use rsg_layout::{Instance, Layer};

    /// Regression for the hash-aliasing bug: a definition whose instance
    /// dangles relative to the output-hash map must be a typed internal
    /// error, never a digest that folded the missing child as `0`. Two
    /// parents over *different* missing children used to alias onto one
    /// cache key and could replay each other's cached outcome.
    #[test]
    fn missing_child_hash_is_an_error_not_an_alias() {
        let mut table = CellTable::new();
        let mut leaf_a = CellDefinition::new("leaf_a");
        leaf_a.add_box(Layer::Metal1, Rect::from_coords(0, 0, 4, 4));
        let a = table.insert(leaf_a).unwrap();
        let mut leaf_b = CellDefinition::new("leaf_b");
        leaf_b.add_box(Layer::Poly, Rect::from_coords(0, 0, 8, 2));
        let b = table.insert(leaf_b).unwrap();

        // Same parent geometry over two different (unhashed) children:
        // the old `unwrap_or(0)` fold gave both the same digest.
        let mut over_a = CellDefinition::new("parent");
        over_a.add_instance(Instance::new(a, Point::new(0, 0), Orientation::NORTH));
        let mut over_b = CellDefinition::new("parent");
        over_b.add_instance(Instance::new(b, Point::new(0, 0), Orientation::NORTH));

        let empty: HashMap<CellId, u64> = HashMap::new();
        for def in [&over_a, &over_b] {
            match checked_hash(def, &empty) {
                Err(HierError::Internal(msg)) => {
                    assert!(msg.contains("parent"), "message names the cell: {msg}");
                }
                other => panic!("expected HierError::Internal, got {other:?}"),
            }
        }

        // With the children actually hashed, the two parents resolve to
        // *different* digests — the alias is gone.
        let mut hash_of = HashMap::new();
        hash_of.insert(a, checked_hash(table.require(a).unwrap(), &empty).unwrap());
        hash_of.insert(b, checked_hash(table.require(b).unwrap(), &empty).unwrap());
        let ha = checked_hash(&over_a, &hash_of).unwrap();
        let hb = checked_hash(&over_b, &hash_of).unwrap();
        assert_ne!(
            ha, hb,
            "distinct children must yield distinct parent digests"
        );
    }
}
