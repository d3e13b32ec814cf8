//! Leaf compaction of the multiplier cell library (§6.1 applied to the
//! Chapter 5 cells).
//!
//! An n×n multiplier instantiates the basic cell n² times; the paper's
//! point is that compacting `basic` once — with the array pitch λ as an
//! unknown — replaces n² compactions. The core array and the register
//! stacks are independent constraint systems, so they form separate
//! [`LibraryJob`]s for the parallel batch compactor.

use crate::cells::{PITCH, REG_HEIGHT};
use rsg_compact::backend::Solver;
use rsg_compact::hier::{self, ChipCompaction, HierOptions};
use rsg_compact::incremental::CompactSession;
use rsg_compact::leaf::{compact_batch, CompactionResult, LeafInterface, LibraryJob, PitchKind};
use rsg_compact::par::Parallelism;
use rsg_core::RsgError;
use rsg_layout::{CellDefinition, CellId, CellTable, DesignRules, LayoutError};
use rsg_serve::{JobOutput, JobQueue, JobSpec, ServeError};

/// The independent compaction jobs of the multiplier library: the core
/// array cell under its horizontal pitch + vertical abutment, and the
/// top/bottom register stacks under the same horizontal pitch.
///
/// # Errors
///
/// Propagates sample-layout construction errors.
pub fn library_jobs() -> Result<Vec<LibraryJob>, RsgError> {
    let sample = crate::cells::sample_layout()?;
    let cell = |name: &str| -> Result<CellDefinition, RsgError> {
        let id = sample
            .lookup(name)
            .ok_or_else(|| RsgError::Layout(LayoutError::UnknownCell(name.into())))?;
        Ok(sample.require(id)?.clone())
    };
    let core = LibraryJob {
        cells: vec![cell("basic")?],
        interfaces: vec![
            LeafInterface {
                cell_a: 0,
                cell_b: 0,
                // Weight = expected replication (a 32×32 array has 32
                // columns per row).
                kind: PitchKind::VariableX {
                    initial: PITCH,
                    weight: 32,
                },
                y_offset: 0,
                name: "array_pitch".into(),
            },
            LeafInterface {
                cell_a: 0,
                cell_b: 0,
                kind: PitchKind::FixedX(0),
                y_offset: -PITCH,
                name: "array_row".into(),
            },
        ],
    };
    let registers = LibraryJob {
        cells: vec![cell("topreg")?, cell("bottomreg")?],
        interfaces: vec![
            LeafInterface {
                cell_a: 0,
                cell_b: 0,
                kind: PitchKind::VariableX {
                    initial: PITCH,
                    weight: 4,
                },
                y_offset: 0,
                name: "topreg_pitch".into(),
            },
            LeafInterface {
                cell_a: 1,
                cell_b: 1,
                kind: PitchKind::VariableX {
                    initial: PITCH,
                    weight: 4,
                },
                y_offset: 0,
                name: "bottomreg_pitch".into(),
            },
            LeafInterface {
                cell_a: 0,
                cell_b: 1,
                kind: PitchKind::FixedX(0),
                y_offset: -REG_HEIGHT,
                name: "reg_stack".into(),
            },
        ],
    };
    Ok(vec![core, registers])
}

/// Compacts the multiplier library for a target technology through any
/// backend, fanning the independent jobs out per [`Parallelism`].
///
/// # Errors
///
/// Returns the first error any job produced.
pub fn compact_library(
    rules: &DesignRules,
    solver: &dyn Solver,
    parallelism: Parallelism,
) -> Result<Vec<CompactionResult>, RsgError> {
    compact_batch(&library_jobs()?, rules, solver, parallelism)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(RsgError::from)
}

/// Compacts an assembled multiplier end to end: the leaf pass compacts
/// the library cells once, then the hier pass re-places every assembly
/// level — `array`, the register stacks, and `thewholething` — against
/// the compacted cells' interface abstracts, bottom-up and without
/// flattening. The array rows/columns stay pitch-matched through the
/// shared λ classes.
///
/// `table`/`top` come from [`crate::generator::generate`] (pass
/// `out.rsg.cells()` and `out.top`).
///
/// # Errors
///
/// Returns [`RsgError`] when either pass fails.
pub fn compact_chip(
    table: &CellTable,
    top: CellId,
    rules: &DesignRules,
    solver: &dyn Solver,
    parallelism: Parallelism,
) -> Result<ChipCompaction, RsgError> {
    let leaf = compact_library(rules, solver, parallelism)?;
    let opts = HierOptions {
        parallelism,
        ..HierOptions::default()
    };
    hier::compact_chip_with_library(table, top, leaf, rules, solver, &opts).map_err(RsgError::from)
}

/// [`compact_chip`] through a persistent [`CompactSession`]: after an
/// edit (say, swapping one control mask in a register cell) only the
/// definitions that can see the edit — the edited leaf's job, its parent
/// register stack, and the top cell — are recompacted; the n² core array
/// replays from the cache. Results are bit-identical to [`compact_chip`]
/// on the same input at every `parallelism` setting.
///
/// # Errors
///
/// Returns [`RsgError`] when either pass fails.
pub fn compact_chip_session(
    session: &mut CompactSession,
    table: &CellTable,
    top: CellId,
    rules: &DesignRules,
    solver: &dyn Solver,
    parallelism: Parallelism,
) -> Result<ChipCompaction, RsgError> {
    let opts = HierOptions {
        parallelism,
        ..HierOptions::default()
    };
    session
        .compact_chip_with_library(table, top, &library_jobs()?, rules, solver, &opts)
        .map_err(RsgError::from)
}

/// [`compact_chip`] through a [`JobQueue`]: the whole-chip job (library
/// included) is content-addressed, so resubmitting an unchanged
/// multiplier is served from the queue's on-disk store with **zero**
/// solver invocations and byte-identical CIF, while an edited
/// personality misses and runs through a worker's persistent session.
/// Rules, solver, and options come from the queue's
/// [`rsg_serve::ServeConfig`] — they are part of the store key.
///
/// # Errors
///
/// [`ServeError::Client`] when the library jobs cannot be built;
/// otherwise whatever the served job produced.
pub fn compact_chip_served(
    queue: &JobQueue,
    table: &CellTable,
    top: CellId,
) -> Result<JobOutput, ServeError> {
    let library =
        library_jobs().map_err(|e| ServeError::Client(format!("mult library jobs: {e}")))?;
    let id = queue.submit(JobSpec::Chip {
        table: table.clone(),
        top,
        library,
    })?;
    queue.fetch(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_compact::backend::{Balanced, BellmanFord};
    use rsg_layout::Technology;

    #[test]
    fn core_pitch_never_exceeds_sample() {
        let tech = Technology::mead_conway(2);
        let out = compact_library(&tech.rules, &BellmanFord::SORTED, Parallelism::Auto).unwrap();
        let core = &out[0];
        let (name, pitch) = &core.pitches[0];
        assert_eq!(name, "array_pitch");
        assert!(*pitch > 0 && *pitch <= PITCH, "array pitch {pitch}");
    }

    #[test]
    fn backends_and_parallelism_agree() {
        let tech = Technology::mead_conway(2);
        let serial =
            compact_library(&tech.rules, &BellmanFord::SORTED, Parallelism::Serial).unwrap();
        let parallel =
            compact_library(&tech.rules, &BellmanFord::SORTED, Parallelism::Threads(2)).unwrap();
        assert_eq!(serial, parallel);
        // The balanced backend solves the same pitches (positions may
        // differ inside the solved pitch).
        let balanced = compact_library(&tech.rules, &Balanced, Parallelism::Auto).unwrap();
        for (a, b) in serial.iter().zip(&balanced) {
            assert_eq!(a.pitches, b.pitches);
        }
    }

    #[test]
    fn compact_chip_compacts_every_level_without_flattening() {
        let tech = Technology::mead_conway(2);
        let out = crate::generator::generate(4, 4).unwrap();
        let chip = compact_chip(
            out.rsg.cells(),
            out.top,
            &tech.rules,
            &BellmanFord::SORTED,
            Parallelism::Auto,
        )
        .unwrap();

        // Every assembly level compacted, bottom-up: the array and the
        // register stacks before the top cell.
        let names: Vec<&str> = chip.chip.cells.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"array"));
        assert_eq!(names.last(), Some(&"thewholething"));
        assert!(chip.chip.cells.iter().all(|(_, o)| o.converged));

        // The hierarchy survives — the top cell still holds 4 instances,
        // nothing was flattened into boxes.
        let top_def = chip.chip.table.require(chip.chip.top).unwrap();
        assert_eq!(top_def.instances().count(), 4);
        assert_eq!(top_def.boxes().count(), 0);

        // Flatten only to verify: clean and smaller.
        let before = rsg_layout::flatten(out.rsg.cells(), out.top).unwrap();
        let after = rsg_layout::flatten(&chip.chip.table, chip.chip.top).unwrap();
        assert!(rsg_layout::drc::check_flat(&after, &tech.rules).is_empty());
        let (b, a) = (before.bbox().rect().unwrap(), after.bbox().rect().unwrap());
        assert!(a.width() * a.height() < b.width() * b.height());

        // The array stays pitch-matched: one uniform column pitch.
        let array_id = chip.chip.table.lookup("array").unwrap();
        let basic_id = chip.chip.table.lookup("basic").unwrap();
        let array_def = chip.chip.table.require(array_id).unwrap();
        let mut rows: std::collections::BTreeMap<i64, Vec<i64>> = Default::default();
        for inst in array_def.instances().filter(|i| i.cell == basic_id) {
            rows.entry(inst.point_of_call.y)
                .or_default()
                .push(inst.point_of_call.x);
        }
        let mut gaps = Vec::new();
        for xs in rows.values_mut() {
            xs.sort_unstable();
            gaps.extend(xs.windows(2).map(|w| w[1] - w[0]));
        }
        assert!(gaps.windows(2).all(|w| w[0] == w[1]), "{gaps:?}");
        let outcome = chip.chip.outcome("array").unwrap();
        let lambda = outcome
            .pitches
            .iter()
            .find(|p| p.axis == rsg_geom::Axis::X)
            .unwrap()
            .value;
        assert_eq!(gaps[0], lambda);
        assert!(lambda < crate::cells::PITCH, "array pitch must shrink");
    }
}
