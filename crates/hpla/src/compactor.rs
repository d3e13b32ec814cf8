//! Leaf compaction of the PLA cell library (§6.1 applied to the HPLA
//! sample cells).
//!
//! The PLA planes replicate `and_sq`/`or_sq` hundreds of times for large
//! personalities, so compacting the flat result would redo the same work
//! per crosspoint; compacting the library once with the plane pitch as
//! an unknown is the paper's leaf-compactor economics. The plane squares
//! and the buffer row are *independent* constraint systems, so they form
//! two [`LibraryJob`]s for the parallel batch compactor.

use crate::cells::GRID;
use rsg_compact::backend::Solver;
use rsg_compact::hier::{self, ChipCompaction, HierOptions};
use rsg_compact::incremental::CompactSession;
use rsg_compact::leaf::{compact_batch, CompactionResult, LeafInterface, LibraryJob, PitchKind};
use rsg_compact::par::Parallelism;
use rsg_core::RsgError;
use rsg_layout::{CellDefinition, CellId, CellTable, DesignRules, LayoutError};
use rsg_serve::{JobOutput, JobQueue, JobSpec, ServeError};

/// The independent compaction jobs of the PLA library: the plane squares
/// (AND/OR with the shared horizontal grid pitch and the vertical
/// abutment) and the buffer row (its own horizontal pitch).
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
    let squares = {
        LibraryJob {
            cells: vec![cell("and_sq")?, cell("or_sq")?],
            interfaces: vec![
                LeafInterface {
                    cell_a: 0,
                    cell_b: 0,
                    kind: PitchKind::VariableX {
                        initial: GRID,
                        weight: 8,
                    },
                    y_offset: 0,
                    name: "and_pitch".into(),
                },
                LeafInterface {
                    cell_a: 1,
                    cell_b: 1,
                    kind: PitchKind::VariableX {
                        initial: GRID,
                        weight: 4,
                    },
                    y_offset: 0,
                    name: "or_pitch".into(),
                },
                // The AND→OR bridge at the plane boundary. Historically
                // a FixedX(GRID) abutment because the plane squares do
                // not interact across it and the free pitch collapsed to
                // 0; the leaf compactor now floors free pitches at the
                // technology's smallest spacing rule, so the bridge can
                // compact like every other interface.
                LeafInterface {
                    cell_a: 0,
                    cell_b: 1,
                    kind: PitchKind::VariableX {
                        initial: GRID,
                        weight: 1,
                    },
                    y_offset: 0,
                    name: "bridge".into(),
                },
                // Vertical abutment of plane rows: fixed 0 x-offset.
                LeafInterface {
                    cell_a: 0,
                    cell_b: 0,
                    kind: PitchKind::FixedX(0),
                    y_offset: -GRID,
                    name: "row".into(),
                },
            ],
        }
    };
    let buffers = {
        LibraryJob {
            cells: vec![cell("in_buf")?, cell("out_buf")?],
            interfaces: vec![LeafInterface {
                cell_a: 0,
                cell_b: 0,
                kind: PitchKind::VariableX {
                    initial: GRID,
                    weight: 2,
                },
                y_offset: 0,
                name: "buf_pitch".into(),
            }],
        }
    };
    Ok(vec![squares, buffers])
}

/// Compacts the PLA library for a target technology through any backend,
/// fanning the independent jobs out per [`Parallelism`].
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

/// Compacts an assembled PLA end to end, the paper's top-level flow:
/// **leaf pass** (compact the library cells once, λ pitches as unknowns)
/// then **hier pass** (re-place the instances against the compacted
/// cells' interface abstracts, rows/columns pitch-matched through shared
/// λ classes) — the mask data is never flattened.
///
/// `table`/`top` come from either generator ([`crate::rsg_pla`] /
/// [`crate::relocation_pla`]); the returned
/// [`rsg_compact::hier::ChipLayout`] holds the updated table with the
/// same ids.
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

/// [`compact_chip`] through a persistent [`CompactSession`]: the first
/// call is a cold run, subsequent calls after an edit recompact only the
/// definitions the edit is visible from. Results are bit-identical to
/// [`compact_chip`] on the same input at every `parallelism` setting.
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
/// included) is content-addressed, so resubmitting an unchanged PLA is
/// served from the queue's on-disk store with **zero** solver
/// invocations and byte-identical CIF. Rules, solver, and options come
/// from the queue's [`rsg_serve::ServeConfig`] — they are part of the
/// store key.
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
        library_jobs().map_err(|e| ServeError::Client(format!("hpla library jobs: {e}")))?;
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
    use rsg_compact::backend::BellmanFord;
    use rsg_layout::Technology;

    #[test]
    fn library_compacts_and_pitches_shrink() {
        let tech = Technology::mead_conway(2);
        let out = compact_library(&tech.rules, &BellmanFord::SORTED, Parallelism::Auto).unwrap();
        assert_eq!(out.len(), 2);
        for result in &out {
            for (name, pitch) in &result.pitches {
                assert!(
                    *pitch >= tech.rules.spacing_floor(),
                    "{name} = {pitch} under the spacing floor"
                );
                assert!(*pitch <= GRID, "{name} = {pitch} exceeds the sample grid");
            }
        }
        // The bridge is a free pitch again (the collapse quirk is fixed
        // by the spacing floor) and reports what pins it.
        let squares = &out[0];
        let bridge = squares.bindings.iter().find(|b| b.name == "bridge");
        let bridge = bridge.expect("bridge pitch is variable now");
        assert!(bridge.value >= tech.rules.spacing_floor());
        assert!(!bridge.tight.is_empty(), "something must pin the bridge");
    }

    #[test]
    fn parallel_matches_serial() {
        let tech = Technology::mead_conway(2);
        let serial =
            compact_library(&tech.rules, &BellmanFord::SORTED, Parallelism::Serial).unwrap();
        let parallel =
            compact_library(&tech.rules, &BellmanFord::SORTED, Parallelism::Auto).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn compact_chip_shrinks_pitch_matches_and_stays_clean() {
        let tech = Technology::mead_conway(2);
        let p = crate::Personality::parse(&["10 10", "01 10", "11 01"], 2, 2).unwrap();
        let pla = crate::rsg_pla(&p, "pla").unwrap();
        let out = compact_chip(
            pla.rsg.cells(),
            pla.top,
            &tech.rules,
            &BellmanFord::SORTED,
            Parallelism::Auto,
        )
        .unwrap();

        // Flatten only to *verify*: clean under the independent referee,
        // and strictly smaller than the sample-pitch assembly.
        let before = rsg_layout::flatten(pla.rsg.cells(), pla.top).unwrap();
        let after = rsg_layout::flatten(&out.chip.table, out.chip.top).unwrap();
        assert!(rsg_layout::drc::check_flat(&after, &tech.rules).is_empty());
        let (b, a) = (before.bbox().rect().unwrap(), after.bbox().rect().unwrap());
        assert!(
            a.width() * a.height() < b.width() * b.height(),
            "chip must shrink: {b} -> {a}"
        );

        // Pitch matching: every AND-plane row realizes one uniform pitch.
        let top_def = out.chip.table.require(out.chip.top).unwrap();
        let and_id = out.chip.table.lookup("and_sq").unwrap();
        let mut rows: std::collections::BTreeMap<i64, Vec<i64>> = Default::default();
        for inst in top_def.instances().filter(|i| i.cell == and_id) {
            rows.entry(inst.point_of_call.y)
                .or_default()
                .push(inst.point_of_call.x);
        }
        let mut gaps = Vec::new();
        for xs in rows.values_mut() {
            xs.sort_unstable();
            gaps.extend(xs.windows(2).map(|w| w[1] - w[0]));
        }
        assert!(!gaps.is_empty());
        assert!(
            gaps.windows(2).all(|w| w[0] == w[1]),
            "AND columns not pitch-matched: {gaps:?}"
        );
        let outcome = out.chip.outcome("pla").expect("top outcome");
        let lambda = outcome
            .pitches
            .iter()
            .find(|p| p.name.contains("and_sq->and_sq") && p.axis == rsg_geom::Axis::X)
            .expect("AND pitch class")
            .value;
        assert_eq!(gaps[0], lambda, "realized gap must equal the class λ");
    }
}
