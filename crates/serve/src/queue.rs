//! The job queue: submit/poll/fetch over a persistent worker pool.
//!
//! Each worker owns a private [`CompactSession`], so a long-lived queue
//! accumulates warm in-memory caches on top of the on-disk [`Store`]:
//! a repeated job is served from disk with **zero** solver invocations,
//! an edited job pays only for what the edit reaches. Jobs are isolated
//! the way [`rsg_geom::par::par_map`] isolates batch items — a panic is
//! caught per job, reported as a typed [`ServeError::WorkerPanic`], and
//! the worker replaces its (possibly poisoned) session and keeps
//! serving; errors come out as the same deterministic error classes the
//! synchronous flows produce.

use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use crate::payload::{
    Artifact, JobKind, ServeReport, ServedBinding, ServedConstraint, ServedPitch, ServedResult,
};
use crate::store::{chip_key, library_key, Store, StoreKey};
use rsg_compact::backend::{Balanced, BellmanFord, SimplexPitch, Solver, Topological};
use rsg_compact::hier::{ChipCompaction, HierOptions};
use rsg_compact::incremental::CompactSession;
use rsg_compact::leaf::{self, CompactionResult, LeafOptions, LibraryJob, PitchBinding};
use rsg_layout::{write_cif, write_rsgl, CellId, CellTable, DesignRules};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Lock that shrugs off poisoning: the shared state is only ever
/// written in small committed steps, and per-job panics are already
/// caught inside the worker, so a poisoned mutex carries no torn data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The solver backends the service can run. A plain enum instead of a
/// trait object so the choice is `Copy`, hashable into nothing (the
/// *name* is what the store key folds), and constructible in config
/// files later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// [`BellmanFord::SORTED`] — the deterministic default.
    #[default]
    BellmanFordSorted,
    /// [`BellmanFord::ARBITRARY`] — insertion-order relaxation.
    BellmanFordArbitrary,
    /// [`Topological`] — acyclic-first longest path.
    Topological,
    /// [`Balanced`] — slack-splitting placement.
    Balanced,
    /// [`SimplexPitch`] — LP relaxation for the pitch variables.
    SimplexPitch,
}

impl SolverChoice {
    /// The backend instance (all backends are stateless unit values).
    pub fn solver(self) -> &'static dyn Solver {
        match self {
            SolverChoice::BellmanFordSorted => &BellmanFord::SORTED,
            SolverChoice::BellmanFordArbitrary => &BellmanFord::ARBITRARY,
            SolverChoice::Topological => &Topological,
            SolverChoice::Balanced => &Balanced,
            SolverChoice::SimplexPitch => &SimplexPitch,
        }
    }
}

/// Queue configuration. The rules/solver/options triple is fixed per
/// queue — it is part of every store key, so one queue serves one solve
/// context and distinct contexts never alias.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Design rules every job is solved under.
    pub rules: DesignRules,
    /// Solver backend.
    pub solver: SolverChoice,
    /// Hierarchical-compaction options (the deadline inside
    /// [`HierOptions::limits`] applies per job but never enters keys).
    pub opts: HierOptions,
    /// Re-solve store hits and diff against the stored bytes. A
    /// mismatch evicts the entry, counts
    /// [`ServeMetrics::verify_mismatches`], and serves the fresh
    /// result. For audits — roughly doubles the cost of hits.
    pub verify: bool,
}

impl ServeConfig {
    /// Defaults: auto worker count, [`SolverChoice::BellmanFordSorted`],
    /// default [`HierOptions`], verify off.
    pub fn new(rules: DesignRules) -> ServeConfig {
        ServeConfig {
            workers: 0,
            rules,
            solver: SolverChoice::default(),
            opts: HierOptions::default(),
            verify: false,
        }
    }
}

/// One unit of work.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// A batch library job (independent leaf cells + interfaces).
    Library(LibraryJob),
    /// A whole-chip job: substitute the compacted `library` into
    /// `table`, then re-place every assembly cell under `top`.
    Chip {
        /// The chip hierarchy.
        table: CellTable,
        /// Root cell.
        top: CellId,
        /// Leaf-library jobs compacted (or cache-served) first.
        library: Vec<LibraryJob>,
    },
}

/// Handle returned by [`JobQueue::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobId(usize);

/// Non-blocking job state, from [`JobQueue::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, not yet picked up by a worker.
    Queued,
    /// A worker is on it.
    Running,
    /// Finished — [`JobQueue::fetch`] returns immediately.
    Done,
}

/// A finished job: the served result, whether it came from the store,
/// and a metrics snapshot taken at fetch time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// The compacted, rendered result.
    pub result: ServedResult,
    /// `true` when the result came off disk without solving.
    pub from_store: bool,
    /// The content key the job resolved to.
    pub key: StoreKey,
    /// Queue-wide metrics snapshot.
    pub metrics: ServeMetrics,
}

enum Slot {
    Queued(JobSpec),
    Running,
    Done(Box<Result<Finished, ServeError>>),
}

#[derive(Clone)]
struct Finished {
    result: ServedResult,
    from_store: bool,
    key: StoreKey,
}

struct Shared {
    slots: Mutex<Vec<Slot>>,
    done: Condvar,
    receiver: Mutex<mpsc::Receiver<usize>>,
    store: Mutex<Store>,
    metrics: Mutex<ServeMetrics>,
    rules: DesignRules,
    solver: SolverChoice,
    opts: HierOptions,
    verify: bool,
}

/// Compaction-as-a-service over a [`Store`] and a worker pool.
pub struct JobQueue {
    shared: Arc<Shared>,
    sender: Option<mpsc::Sender<usize>>,
    workers: Vec<JoinHandle<()>>,
}

impl JobQueue {
    /// Opens (and sweeps) the store at `store_root` and starts the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the store cannot be opened or a worker
    /// thread cannot be spawned.
    pub fn new(
        store_root: impl Into<PathBuf>,
        config: ServeConfig,
    ) -> Result<JobQueue, ServeError> {
        let store = Store::open(store_root)?;
        let workers = if config.workers == 0 {
            rsg_compact::par::auto_threads()
        } else {
            config.workers
        };
        let (sender, receiver) = mpsc::channel();
        let shared = Arc::new(Shared {
            slots: Mutex::new(Vec::new()),
            done: Condvar::new(),
            receiver: Mutex::new(receiver),
            store: Mutex::new(store),
            metrics: Mutex::new(ServeMetrics::default()),
            rules: config.rules,
            solver: config.solver,
            opts: config.opts,
            verify: config.verify,
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("rsg-serve-{i}"))
                .spawn(move || worker_loop(&shared))?;
            handles.push(handle);
        }
        Ok(JobQueue {
            shared,
            sender: Some(sender),
            workers: handles,
        })
    }

    /// Enqueues a job; returns immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueClosed`] when the pool has shut down.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        let sender = self.sender.as_ref().ok_or(ServeError::QueueClosed)?;
        let idx = {
            let mut slots = lock(&self.shared.slots);
            slots.push(Slot::Queued(spec));
            slots.len() - 1
        };
        lock(&self.shared.metrics).submitted += 1;
        sender.send(idx).map_err(|_| ServeError::QueueClosed)?;
        Ok(JobId(idx))
    }

    /// Non-blocking status check.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an id this queue never issued.
    pub fn poll(&self, id: JobId) -> Result<JobStatus, ServeError> {
        let slots = lock(&self.shared.slots);
        match slots.get(id.0) {
            Some(Slot::Queued(_)) => Ok(JobStatus::Queued),
            Some(Slot::Running) => Ok(JobStatus::Running),
            Some(Slot::Done(_)) => Ok(JobStatus::Done),
            None => Err(ServeError::UnknownJob(id.0)),
        }
    }

    /// Blocks until the job finishes, then returns its output (or the
    /// job's own error). Fetching the same id again returns the same
    /// result with a fresh metrics snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for a foreign id; otherwise whatever
    /// the job itself produced.
    pub fn fetch(&self, id: JobId) -> Result<JobOutput, ServeError> {
        let mut slots = lock(&self.shared.slots);
        loop {
            match slots.get(id.0) {
                None => return Err(ServeError::UnknownJob(id.0)),
                Some(Slot::Done(outcome)) => {
                    let finished = outcome.as_ref().clone()?;
                    drop(slots);
                    return Ok(JobOutput {
                        result: finished.result,
                        from_store: finished.from_store,
                        key: finished.key,
                        metrics: self.metrics(),
                    });
                }
                Some(_) => {
                    slots = self
                        .shared
                        .done
                        .wait(slots)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }

    /// A consistent snapshot of the queue's counters and histograms.
    pub fn metrics(&self) -> ServeMetrics {
        let mut m = lock(&self.shared.metrics).clone();
        m.store = lock(&self.shared.store).counters();
        m
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop; queued
        // jobs not yet picked up are abandoned (their fetch would
        // block forever, but fetch requires `&self`, so no fetch can
        // outlive the queue).
        self.sender = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn worker_loop(shared: &Shared) {
    let mut session = CompactSession::new();
    loop {
        let idx = {
            let receiver = lock(&shared.receiver);
            match receiver.recv() {
                Ok(idx) => idx,
                Err(_) => return, // queue dropped
            }
        };
        let spec = {
            let mut slots = lock(&shared.slots);
            let Some(slot) = slots.get_mut(idx) else {
                continue;
            };
            match std::mem::replace(slot, Slot::Running) {
                Slot::Queued(spec) => spec,
                other => {
                    *slot = other;
                    continue;
                }
            }
        };
        let outcome = match catch_unwind(AssertUnwindSafe(|| run_job(shared, &mut session, &spec)))
        {
            Ok(result) => result,
            Err(payload) => {
                // The session may hold state from a half-run job; a
                // fresh one restores the cold-run contract.
                session = CompactSession::new();
                lock(&shared.metrics).worker_panics += 1;
                Err(ServeError::WorkerPanic(panic_message(payload)))
            }
        };
        {
            let mut slots = lock(&shared.slots);
            if let Some(slot) = slots.get_mut(idx) {
                *slot = Slot::Done(Box::new(outcome));
            }
        }
        lock(&shared.metrics).completed += 1;
        shared.done.notify_all();
    }
}

fn run_job(
    shared: &Shared,
    session: &mut CompactSession,
    spec: &JobSpec,
) -> Result<Finished, ServeError> {
    let solver_name = shared.solver.solver().name();
    let lookup_started = Instant::now();
    let key = match spec {
        JobSpec::Library(job) => library_key(job, &shared.rules, solver_name, &shared.opts),
        JobSpec::Chip {
            table,
            top,
            library,
        } => chip_key(
            table,
            *top,
            library,
            &shared.rules,
            solver_name,
            &shared.opts,
        )?,
    };
    let stored = lock(&shared.store).get(key);
    lock(&shared.metrics)
        .lookup
        .record(lookup_started.elapsed());

    if let Some(stored) = stored {
        if shared.verify {
            let solve_started = Instant::now();
            let fresh = solve_spec(shared, session, spec)?;
            {
                let mut m = lock(&shared.metrics);
                m.solve.record(solve_started.elapsed());
                m.verified += 1;
            }
            if fresh != stored {
                lock(&shared.metrics).verify_mismatches += 1;
                let persist_started = Instant::now();
                lock(&shared.store).put(key, &fresh)?;
                lock(&shared.metrics)
                    .persist
                    .record(persist_started.elapsed());
                return Ok(Finished {
                    result: fresh,
                    from_store: false,
                    key,
                });
            }
        }
        lock(&shared.metrics).served_from_store += 1;
        return Ok(Finished {
            result: stored,
            from_store: true,
            key,
        });
    }

    let solve_started = Instant::now();
    let fresh = solve_spec(shared, session, spec)?;
    {
        let mut m = lock(&shared.metrics);
        m.solve.record(solve_started.elapsed());
        m.solves += 1;
    }
    let persist_started = Instant::now();
    lock(&shared.store).put(key, &fresh)?;
    lock(&shared.metrics)
        .persist
        .record(persist_started.elapsed());
    Ok(Finished {
        result: fresh,
        from_store: false,
        key,
    })
}

fn solve_spec(
    shared: &Shared,
    session: &mut CompactSession,
    spec: &JobSpec,
) -> Result<ServedResult, ServeError> {
    match spec {
        JobSpec::Library(job) => {
            let opts = LeafOptions {
                limits: shared.opts.limits,
                ..LeafOptions::default()
            };
            let result = leaf::compact(
                &job.cells,
                &job.interfaces,
                &shared.rules,
                shared.solver.solver(),
                &opts,
            )?;
            render_library(&result)
        }
        JobSpec::Chip {
            table,
            top,
            library,
        } => {
            let out = session.compact_chip_with_library(
                table,
                *top,
                library,
                &shared.rules,
                shared.solver.solver(),
                &shared.opts,
            )?;
            render_chip(&out)
        }
    }
}

fn mirror_binding(b: &PitchBinding) -> ServedBinding {
    ServedBinding {
        name: b.name.clone(),
        value: b.value,
        tight: b
            .tight
            .iter()
            .map(|c| ServedConstraint {
                to: c.to.index(),
                from: c.from.index(),
                weight: c.weight,
                pitch: c.pitch.map(|(p, coeff)| (p.index(), coeff)),
            })
            .collect(),
    }
}

fn render_library(result: &CompactionResult) -> Result<ServedResult, ServeError> {
    let mut artifacts = Vec::with_capacity(result.cells.len());
    for cell in &result.cells {
        let mut table = CellTable::new();
        let id = table.insert(cell.clone())?;
        artifacts.push(Artifact {
            name: cell.name().to_owned(),
            rsgl: write_rsgl(&table, id)?,
            cif: write_cif(&table, id)?,
        });
    }
    let pitches = result
        .pitches
        .iter()
        .map(|(name, value)| ServedPitch {
            name: name.clone(),
            value: *value,
            pairs: 0,
        })
        .collect();
    let bindings = result.bindings.iter().map(mirror_binding).collect();
    Ok(ServedResult {
        kind: JobKind::Library,
        artifacts,
        pitches,
        bindings,
        report: ServeReport {
            cells: result.cells.len(),
            passes: 0,
            converged: true,
            constraints: result.constraints,
            solver_passes: 0,
            flat_boxes: 0,
            unknowns: result.unknowns,
        },
    })
}

fn render_chip(out: &ChipCompaction) -> Result<ServedResult, ServeError> {
    let chip = &out.chip;
    let name = chip.table.require(chip.top)?.name().to_owned();
    let artifacts = vec![Artifact {
        name,
        rsgl: write_rsgl(&chip.table, chip.top)?,
        cif: write_cif(&chip.table, chip.top)?,
    }];
    let mut pitches = Vec::new();
    let mut bindings = Vec::new();
    let mut report = ServeReport {
        cells: chip.cells.len(),
        converged: true,
        ..ServeReport::default()
    };
    for (j, leaf) in out.leaf.iter().enumerate() {
        for (pname, value) in &leaf.pitches {
            pitches.push(ServedPitch {
                name: format!("leaf{j}:{pname}"),
                value: *value,
                pairs: 0,
            });
        }
        bindings.extend(leaf.bindings.iter().map(mirror_binding));
        report.constraints += leaf.constraints;
        report.unknowns += leaf.unknowns;
    }
    for (cname, outcome) in &chip.cells {
        report.passes = report.passes.max(outcome.passes);
        report.converged &= outcome.converged;
        report.flat_boxes += outcome.report.flat_boxes;
        report.constraints += outcome.report.total_constraints();
        report.solver_passes += outcome.report.total_solver_passes();
        for p in &outcome.pitches {
            pitches.push(ServedPitch {
                name: format!("{cname}:{}:{}", p.axis, p.name),
                value: p.value,
                pairs: p.pairs,
            });
        }
    }
    Ok(ServedResult {
        kind: JobKind::Chip,
        artifacts,
        pitches,
        bindings,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_geom::{Orientation, Point, Rect};
    use rsg_layout::{CellDefinition, Instance, Layer, Technology};

    fn tmp_root(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!("rsg-queue-{tag}-{}-{nanos}", std::process::id()))
    }

    fn tiny_chip() -> (CellTable, CellId) {
        let mut table = CellTable::new();
        let mut leaf = CellDefinition::new("leaf");
        leaf.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 8));
        leaf.add_box(Layer::Metal1, Rect::from_coords(8, 0, 12, 8));
        let leaf_id = table.insert(leaf).unwrap();
        let mut top = CellDefinition::new("top");
        top.add_instance(Instance::new(leaf_id, Point::new(0, 0), Orientation::NORTH));
        top.add_instance(Instance::new(
            leaf_id,
            Point::new(30, 0),
            Orientation::NORTH,
        ));
        let top_id = table.insert(top).unwrap();
        (table, top_id)
    }

    fn config() -> ServeConfig {
        let mut c = ServeConfig::new(Technology::mead_conway(2).rules);
        c.workers = 2;
        c
    }

    #[test]
    fn cold_then_warm_serves_from_store_with_zero_solves() {
        let root = tmp_root("warm");
        let (table, top) = tiny_chip();
        let spec = JobSpec::Chip {
            table,
            top,
            library: Vec::new(),
        };
        let cold = {
            let queue = JobQueue::new(&root, config()).unwrap();
            let id = queue.submit(spec.clone()).unwrap();
            let out = queue.fetch(id).unwrap();
            assert!(!out.from_store, "first run cannot be a store hit");
            assert_eq!(out.metrics.solves, 1);
            out
        };
        // A fresh queue (fresh sessions, fresh process state in
        // spirit): the same job is served from disk, zero solves.
        let queue = JobQueue::new(&root, config()).unwrap();
        let id = queue.submit(spec).unwrap();
        let warm = queue.fetch(id).unwrap();
        assert!(warm.from_store, "second run must come from the store");
        assert_eq!(warm.metrics.solves, 0, "warm run must not solve");
        assert_eq!(warm.key, cold.key);
        assert_eq!(warm.result, cold.result, "served bytes must be identical");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn library_jobs_are_served_and_cached() {
        let root = tmp_root("library");
        let mut cell = CellDefinition::new("lib");
        cell.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 8));
        cell.add_box(Layer::Poly, Rect::from_coords(12, 0, 16, 8));
        let job = LibraryJob {
            cells: vec![cell],
            interfaces: vec![],
        };
        let queue = JobQueue::new(&root, config()).unwrap();
        let a = queue
            .fetch(queue.submit(JobSpec::Library(job.clone())).unwrap())
            .unwrap();
        let b = queue
            .fetch(queue.submit(JobSpec::Library(job)).unwrap())
            .unwrap();
        assert!(!a.from_store);
        assert!(b.from_store);
        assert_eq!(a.result, b.result);
        assert_eq!(a.result.kind, JobKind::Library);
        assert_eq!(a.result.artifacts.len(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn verify_mode_replaces_a_forged_entry() {
        let root = tmp_root("verify");
        let (table, top) = tiny_chip();
        let spec = JobSpec::Chip {
            table,
            top,
            library: Vec::new(),
        };
        let (key, genuine) = {
            let queue = JobQueue::new(&root, config()).unwrap();
            let out = queue.fetch(queue.submit(spec.clone()).unwrap()).unwrap();
            (out.key, out.result)
        };
        // Forge a *well-formed but wrong* entry under the right key:
        // checksums pass, only a re-solve can tell.
        {
            let mut store = Store::open(&root).unwrap();
            let mut forged = genuine.clone();
            forged.report.constraints += 1;
            store.put(key, &forged).unwrap();
        }
        let mut cfg = config();
        cfg.verify = true;
        let queue = JobQueue::new(&root, cfg).unwrap();
        let out = queue.fetch(queue.submit(spec).unwrap()).unwrap();
        assert!(!out.from_store, "forged entry must not be served");
        assert_eq!(out.result, genuine);
        assert_eq!(out.metrics.verify_mismatches, 1);
        // The forged entry was replaced: a non-verify hit now matches.
        let queue2 = JobQueue::new(&root, config()).unwrap();
        let again = queue2.fetch(
            queue2
                .submit(JobSpec::Chip {
                    table: tiny_chip().0,
                    top: tiny_chip().1,
                    library: Vec::new(),
                })
                .unwrap(),
        );
        // (tiny_chip() rebuilds the identical table, so ids align.)
        let again = again.unwrap();
        assert!(again.from_store);
        assert_eq!(again.result, genuine);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn poll_reports_progress_and_unknown_ids_error() {
        let root = tmp_root("poll");
        let queue = JobQueue::new(&root, config()).unwrap();
        assert_eq!(
            queue.poll(JobId(99)),
            Err(ServeError::UnknownJob(99)),
            "foreign id must be rejected"
        );
        let (table, top) = tiny_chip();
        let id = queue
            .submit(JobSpec::Chip {
                table,
                top,
                library: Vec::new(),
            })
            .unwrap();
        queue.fetch(id).unwrap();
        assert_eq!(queue.poll(id), Ok(JobStatus::Done));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn infeasible_jobs_return_typed_errors_and_do_not_poison() {
        let root = tmp_root("error");
        let queue = JobQueue::new(&root, config()).unwrap();
        // A chip whose top references a cell table inconsistency is the
        // queue's business to report, not to panic over: unknown
        // library cell name.
        let (table, top) = tiny_chip();
        let bogus = LibraryJob {
            cells: vec![CellDefinition::new("no_such_cell")],
            interfaces: vec![],
        };
        let id = queue
            .submit(JobSpec::Chip {
                table: table.clone(),
                top,
                library: vec![bogus],
            })
            .unwrap();
        let err = queue.fetch(id).unwrap_err();
        assert!(matches!(err, ServeError::Chip(_)), "got {err:?}");
        // The pool survives and serves the next job normally.
        let ok = queue
            .fetch(
                queue
                    .submit(JobSpec::Chip {
                        table,
                        top,
                        library: Vec::new(),
                    })
                    .unwrap(),
            )
            .unwrap();
        assert!(!ok.from_store);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
