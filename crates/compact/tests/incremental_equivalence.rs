//! The incremental session's contract, pinned by property tests: on
//! every input of a random **edit sequence** — grow/shrink a box, move a
//! box, swap a whole leaf definition — a persistent
//! [`CompactSession`] returns **bit-identical outcomes** (geometry,
//! pitches, passes and sweep reports) to the from-scratch
//! [`compact_hierarchy`] on the same table, and the result stays
//! DRC-clean under the independent flat referee.
//!
//! A regression lane checks the *point* of the session: an edit confined
//! to one leaf leaves the sibling block's cached outcome and abstracts
//! untouched (cache-hit counters say so), and a no-op edit is a pure
//! replay — zero recompactions, zero abstracts derived, zero constraints
//! emitted.

use proptest::prelude::*;
use rsg_compact::backend::BellmanFord;
use rsg_compact::hier::{compact_hierarchy, ChipLayout, HierOptions};
use rsg_compact::incremental::CompactSession;
use rsg_compact::par::Parallelism;
use rsg_geom::{BoundingBox, Orientation, Point, Rect};
use rsg_layout::{drc, flatten, CellDefinition, CellId, CellTable, Instance, Layer, Technology};

const LANE_LAYERS: [Layer; 4] = [Layer::Diffusion, Layer::Poly, Layer::Metal1, Layer::Metal2];

/// `(layer index, x offset, width, height)` per lane — clean by
/// construction: lanes stack vertically with an 8-unit gap (≥ every
/// Mead–Conway spacing at λ = 2) and every box is ≥ 8 wide/tall.
type Lanes = Vec<(usize, i64, i64, i64)>;

fn lane_cell(name: &str, lanes: &[(usize, i64, i64, i64)]) -> CellDefinition {
    let mut c = CellDefinition::new(name);
    let mut y = 0;
    for &(layer_idx, x0, w, h) in lanes {
        let layer = LANE_LAYERS[layer_idx % LANE_LAYERS.len()];
        c.add_box(layer, Rect::from_coords(x0, y, x0 + w, y + h));
        y += h + 8;
    }
    c
}

/// The union of the images of `bbs` under all eight orientations about
/// the origin: a grid cell this size, with the instance's origin at the
/// cell corner minus its low corner, holds any of them in any
/// orientation.
fn oriented_reach(bbs: &[Rect]) -> Rect {
    let mut reach = BoundingBox::new();
    for &bb in bbs {
        for o in Orientation::ALL {
            reach.include_rect(bb.transform_orientation(o));
        }
    }
    reach.rect().expect("non-empty")
}

/// A three-level chip: two leaf definitions, one grid block over each,
/// and a top row alternating the blocks — enough hierarchy for an edit
/// in `leaf_a` to be invisible from `block_b`. Instance `k` of each cell
/// takes orientation `Orientation::ALL[orients[k % orients.len()]]`, on
/// a grid pitched 8 past the children's oriented reach so the input
/// stays clean.
fn chip(
    lanes_a: &Lanes,
    lanes_b: &Lanes,
    (nx, ny): (i64, i64),
    blocks: i64,
    orients: &[usize],
) -> (CellTable, CellId) {
    let orient = |k: i64| Orientation::ALL[orients[k as usize % orients.len()]];
    let mut t = CellTable::new();
    let a = lane_cell("leaf_a", lanes_a);
    let b = lane_cell("leaf_b", lanes_b);
    let bb_a = a.local_bbox().rect().expect("non-empty");
    let bb_b = b.local_bbox().rect().expect("non-empty");
    let a_id = t.insert(a).unwrap();
    let b_id = t.insert(b).unwrap();

    let block = |t: &mut CellTable, name: &str, leaf: CellId, bb: Rect| {
        let reach = oriented_reach(&[bb]);
        let (px, py) = (reach.width() + 8, reach.height() + 8);
        let mut blk = CellDefinition::new(name);
        for row in 0..ny {
            for col in 0..nx {
                blk.add_instance(Instance::new(
                    leaf,
                    Point::new(col * px - reach.lo().x, row * py - reach.lo().y),
                    orient(row * nx + col),
                ));
            }
        }
        t.insert(blk).unwrap()
    };
    let blk_a = block(&mut t, "block_a", a_id, bb_a);
    let blk_b = block(&mut t, "block_b", b_id, bb_b);
    let blk_bbs = [blk_a, blk_b].map(|id| {
        let flat = flatten(&t, id).unwrap();
        flat.bbox().rect().expect("non-empty block")
    });

    let reach = oriented_reach(&blk_bbs);
    let pitch = reach.width() + 8;
    let mut top = CellDefinition::new("chip");
    for k in 0..blocks {
        let id = if k % 2 == 0 { blk_a } else { blk_b };
        top.add_instance(Instance::new(
            id,
            Point::new(k * pitch - reach.lo().x, -reach.lo().y),
            orient(k),
        ));
    }
    let top_id = t.insert(top).unwrap();
    (t, top_id)
}

/// One edit step: `target` picks the leaf, `kind` the mutation.
/// All mutations stay within the clean-by-construction envelope.
fn apply_edit(lanes: &mut Lanes, kind: u64, lane: usize, x: i64, w: i64, fresh: &Lanes) {
    let k = lane % lanes.len();
    match kind % 3 {
        0 => lanes[k].2 = w,         // grow/shrink the box
        1 => lanes[k].1 = x,         // move the box sideways
        _ => *lanes = fresh.clone(), // swap the whole definition
    }
}

/// `incremental == cold`, bit for bit, on every field of every outcome.
fn assert_same(inc: &ChipLayout, cold: &ChipLayout) {
    assert_eq!(inc.cells.len(), cold.cells.len(), "assembly cell count");
    for ((n_inc, o_inc), (n_cold, o_cold)) in inc.cells.iter().zip(&cold.cells) {
        assert_eq!(n_inc, n_cold, "compaction order");
        assert_eq!(o_inc.cell, o_cold.cell, "geometry of `{n_inc}` diverged");
        assert_eq!(
            o_inc.pitches, o_cold.pitches,
            "pitches of `{n_inc}` diverged"
        );
        assert_eq!(o_inc.passes, o_cold.passes, "passes of `{n_inc}` diverged");
        assert_eq!(o_inc.report, o_cold.report, "report of `{n_inc}` diverged");
        assert!(o_inc.converged && o_cold.converged);
    }
}

fn check_sequence(
    mut lanes_a: Lanes,
    mut lanes_b: Lanes,
    grid: (i64, i64),
    blocks: i64,
    orients: &[usize],
    edits: &[(u64, u64, usize, i64, i64, Lanes)],
) {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let opts = HierOptions::default();
    let mut session = CompactSession::new();

    // The initial state plus one state per edit.
    for step in 0..=edits.len() {
        if step > 0 {
            let (target, kind, lane, x, w, ref fresh) = edits[step - 1];
            let lanes = if target % 2 == 0 {
                &mut lanes_a
            } else {
                &mut lanes_b
            };
            apply_edit(lanes, kind, lane, x, w, fresh);
        }
        let (table, top) = chip(&lanes_a, &lanes_b, grid, blocks, orients);
        prop_assert!(
            drc::check_flat(&flatten(&table, top).unwrap(), &tech.rules).is_empty(),
            "generator produced a dirty input"
        );

        let cold = compact_hierarchy(&table, top, &tech.rules, &solver, &opts).unwrap();
        let inc = session
            .compact_hierarchy(&table, top, &tech.rules, &solver, &opts)
            .unwrap();
        assert_same(&inc, &cold);

        // And the shared result is clean under the flat referee.
        let flat = flatten(&inc.table, inc.top).unwrap();
        let v = drc::check_flat(&flat, &tech.rules);
        prop_assert!(v.is_empty(), "incremental result violates rules: {v:?}");
    }
}

fn lanes_strategy(max_lanes: usize) -> impl Strategy<Value = Lanes> {
    proptest::collection::vec((0usize..4, 0i64..6, 8i64..20, 8i64..16), 1..max_lanes + 1)
}

fn edit_strategy() -> impl Strategy<Value = (u64, u64, usize, i64, i64, Lanes)> {
    (
        0u64..2,
        0u64..3,
        0usize..4,
        0i64..6,
        8i64..20,
        lanes_strategy(2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every instance takes a random one of the eight orientations
    /// (`nx, ny` share one parameter: the proptest stand-in takes at
    /// most six).
    #[test]
    fn edit_sequences_match_cold_bit_for_bit(
        lanes_a in lanes_strategy(2),
        lanes_b in lanes_strategy(2),
        grid in (1i64..3, 1i64..3),
        blocks in 2i64..4,
        orients in proptest::collection::vec(0usize..8, 5..6),
        edits in proptest::collection::vec(edit_strategy(), 1..4),
    ) {
        check_sequence(lanes_a, lanes_b, grid, blocks, &orients, &edits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    #[ignore = "slow lane: longer edit sequences on bigger grids (CI runs it separately)"]
    fn long_edit_sequences_match_cold(
        lanes_a in lanes_strategy(3),
        lanes_b in lanes_strategy(3),
        grid in (1i64..4, 1i64..4),
        blocks in 2i64..5,
        orients in proptest::collection::vec(0usize..8, 5..6),
        edits in proptest::collection::vec(edit_strategy(), 3..7),
    ) {
        check_sequence(lanes_a, lanes_b, grid, blocks, &orients, &edits);
    }
}

/// A one-leaf edit must leave the *other* block's cached outcome and
/// abstracts untouched: only the edited block and the top re-run.
#[test]
fn one_leaf_edit_leaves_sibling_cache_untouched() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let opts = HierOptions::default();
    let lanes_a: Lanes = vec![(1, 0, 10, 8), (2, 2, 12, 10)];
    let mut lanes_b: Lanes = vec![(0, 1, 14, 8)];

    let mut session = CompactSession::new();
    let (table, top) = chip(&lanes_a, &lanes_b, (2, 2), 3, &[0]);
    session
        .compact_hierarchy(&table, top, &tech.rules, &solver, &opts)
        .unwrap();
    let cold_stats = session.last_stats();
    assert_eq!(cold_stats.cells_seen, 3, "block_a, block_b, chip");
    assert_eq!(
        cold_stats.cells_compacted, 3,
        "cold run compacts everything"
    );

    // Edit leaf_b only: block_b and chip re-run, block_a replays.
    lanes_b[0].2 = 11;
    let (table, top) = chip(&lanes_a, &lanes_b, (2, 2), 3, &[0]);
    let inc = session
        .compact_hierarchy(&table, top, &tech.rules, &solver, &opts)
        .unwrap();
    let stats = session.last_stats();
    assert_eq!(stats.cells_compacted, 2, "only block_b and chip re-run");
    assert_eq!(stats.cell_hits, 1, "block_a replays from the cache");
    // block_a's abstract replays with its outcome, and the top reads it
    // from there; only leaf_b and block_b build theirs (nothing reads
    // the top's).
    assert_eq!(
        stats.abstract_hits, 1,
        "unchanged abstracts must come from the cache"
    );
    assert_eq!(stats.abstracts_derived, 2, "leaf_b and block_b");

    // And the replay is still the from-scratch answer.
    let cold = compact_hierarchy(&table, top, &tech.rules, &solver, &opts).unwrap();
    assert_same(&inc, &cold);

    // No-op edit: recompacting the same input is a pure cache replay.
    let before = session.stats();
    let noop = session
        .compact_hierarchy(&table, top, &tech.rules, &solver, &opts)
        .unwrap();
    let stats = session.last_stats();
    assert_eq!(stats.cells_compacted, 0, "no-op edit recompacts nothing");
    assert_eq!(stats.cell_hits, 3);
    assert_eq!(stats.abstracts_derived, 0, "no-op edit composes nothing");
    assert_eq!(stats.abstract_hits, 0, "no-op edit reads no abstract");
    assert_eq!(stats.constraints_emitted, 0, "no-op edit re-emits nothing");
    assert_eq!(stats.sweeps_solved, 0);
    assert_eq!(session.stats().calls, before.calls + 1);
    assert_same(&noop, &cold);
}

/// Failure classes match the cold path: a recursive hierarchy surfaces
/// as the same [`rsg_compact::hier::HierError`] from both flows.
#[test]
fn error_classes_match_cold() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let opts = HierOptions::default();

    let mut t = CellTable::new();
    let mut a = CellDefinition::new("a");
    a.add_box(Layer::Poly, Rect::from_coords(0, 0, 8, 8));
    let a_id = t.insert(a).unwrap();
    let mut top = CellDefinition::new("top");
    top.add_instance(Instance::new(a_id, Point::new(0, 0), Orientation::NORTH));
    let top_id = t.insert(top).unwrap();
    // Close the cycle: `a` now instantiates `top`.
    t.get_mut(a_id).unwrap().add_instance(Instance::new(
        top_id,
        Point::new(0, 40),
        Orientation::NORTH,
    ));

    let cold = compact_hierarchy(&t, top_id, &tech.rules, &solver, &opts);
    let inc = CompactSession::new().compact_hierarchy(&t, top_id, &tech.rules, &solver, &opts);
    assert!(cold.is_err());
    assert_eq!(inc.unwrap_err(), cold.unwrap_err());
}

/// A walk builds each called definition's abstract once, at one worker
/// and at several: two same-level blocks that instance the same leaf
/// share its abstract, and each block's own is composed once for the
/// top. The counters do not depend on the parallelism.
#[test]
fn one_worker_derives_each_abstract_once() {
    let tech = Technology::mead_conway(2);
    let solver = BellmanFord::SORTED;
    let mut t = CellTable::new();
    let leaf = t.insert(lane_cell("leaf", &[(1, 0, 10, 8)])).unwrap();
    let block = |name: &str, xs: &[i64]| {
        let mut c = CellDefinition::new(name);
        for &x in xs {
            c.add_instance(Instance::new(leaf, Point::new(x, 0), Orientation::NORTH));
        }
        c
    };
    let block_a = t.insert(block("block_a", &[0, 30])).unwrap();
    let block_b = t.insert(block("block_b", &[0, 30, 60])).unwrap();
    let mut top = CellDefinition::new("chip");
    top.add_instance(Instance::new(block_a, Point::new(0, 0), Orientation::NORTH));
    top.add_instance(Instance::new(
        block_b,
        Point::new(0, 40),
        Orientation::NORTH,
    ));
    let top = t.insert(top).unwrap();

    let mut serial = None;
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let opts = HierOptions {
            parallelism,
            ..HierOptions::default()
        };
        let mut session = CompactSession::new();
        session
            .compact_hierarchy(&t, top, &tech.rules, &solver, &opts)
            .unwrap();
        let stats = session.last_stats();
        // One build per called definition: the leaf from its boxes,
        // block_a and block_b by composition (nothing calls chip). A cold
        // call replays nothing.
        assert_eq!(
            stats.abstracts_derived, 3,
            "block_b reuses block_a's leaf abstract ({parallelism:?})"
        );
        assert_eq!(stats.abstract_hits, 0, "{parallelism:?}");
        // Abstracts are built on the walk's serial steps, so every
        // counter is the same at every parallelism.
        assert_eq!(*serial.get_or_insert(stats), stats, "{parallelism:?}");
    }
}
