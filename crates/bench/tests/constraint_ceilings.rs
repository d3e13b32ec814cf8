//! E24 regression guard: generated-constraint counts must not creep
//! back above the recorded ceilings.
//!
//! The ceilings live in `BENCH_constraint_ceilings.json` beside
//! `BENCH_compaction.json`: the pruned constraint count of the E13 8×8
//! tiled array and of the E23 megachip flat lattice at 10⁵ boxes; the
//! frames the hierarchical cell pass's partner walks visit
//! (`HierSweepStats::frames_visited`) and the box pairs its box loops
//! examine (`HierSweepStats::box_pairs`), the hidden-edge oracle queries it makes (`HierSweepStats::hidden_tests`),
//! the difference constraints it generates (`HierSweepStats::constraints`),
//! the relaxation passes its solves take (`HierSweepStats::solver_passes`),
//! the CSR graphs those solves build (`HierSweepStats::graph_builds`),
//! and the boxes the walk feeds to interface-abstract derivation
//! (`ChipLayout::abstract_inputs`), on the E23 megachip walk at 10⁵
//! boxes and on the 16×16 multiplier chip. All workloads are
//! deterministic, so the recorded values are exact — any increase means
//! a generator, prune, enumeration, oracle-gate, solver, or
//! abstract-composition regression and fails CI (wired into ci.yml next to the megachip
//! smoke). Run with
//! `cargo test --release -p rsg-bench --test constraint_ceilings`.

use rsg_bench::{megachip_flat, megachip_hier};
use rsg_compact::backend::BellmanFord;
use rsg_compact::hier::{compact_hierarchy, ChipLayout, HierOptions, HierSweepStats};
use rsg_compact::par::Parallelism;
use rsg_compact::scanline::{generate, Method, Prune};
use rsg_geom::{Axis, Rect, Vector};
use rsg_layout::{Layer, Technology};

/// Reads one `"key": <integer>` value out of the ceilings JSON. The
/// container has no JSON dependency, and the file is flat enough that
/// a keyed scan is exact.
fn ceiling(key: &str) -> usize {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_constraint_ceilings.json"
    );
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("key {key:?} missing from {path}"));
    let rest = &text[at + needle.len()..];
    let digits: String = rest
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits
        .parse()
        .unwrap_or_else(|e| panic!("key {key:?} is not an integer: {e}"))
}

/// The E13 bench cell tiled n×n at its sample pitch (the layout behind
/// the recorded `flat_tiled_array` rows).
fn tiled(n: usize) -> Vec<(Layer, Rect)> {
    let bars = [
        (Layer::Poly, Rect::from_coords(2, 0, 8, 30)),
        (Layer::Metal1, Rect::from_coords(16, 5, 28, 25)),
        (Layer::Poly, Rect::from_coords(34, 0, 38, 30)),
    ];
    let mut out = Vec::new();
    for row in 0..n as i64 {
        for col in 0..n as i64 {
            let shift = Vector::new(col * 48, row * 36);
            for (l, r) in bars {
                out.push((l, r.translate(shift)));
            }
        }
    }
    out
}

fn pruned_count(boxes: &[(Layer, Rect)]) -> usize {
    let rules = &Technology::mead_conway(2).rules;
    let (sys, _) = generate(boxes, rules, Method::Visibility, Axis::X, Prune::Apply);
    sys.constraints().len()
}

#[test]
fn tiled_8x8_stays_under_recorded_ceiling() {
    let count = pruned_count(&tiled(8));
    let ceiling = ceiling("tiled_8x8_pruned");
    assert!(
        count <= ceiling,
        "8x8 tiled-array pruned constraint count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn megachip_flat_100k_stays_under_recorded_ceiling() {
    let boxes = megachip_flat(100_000);
    let count = pruned_count(&boxes);
    let ceiling = ceiling("megachip_flat_100k_pruned");
    assert!(
        count <= ceiling,
        "megachip flat (n = {}) pruned constraint count regressed: {count} > recorded ceiling {ceiling}",
        boxes.len()
    );
}

/// A per-sweep counter of the hierarchical cell pass, summed over every
/// compacted cell and axis sweep of a walk.
fn walk_sum(chip: &ChipLayout, counter: impl Fn(&HierSweepStats) -> usize) -> usize {
    chip.cells
        .iter()
        .flat_map(|(_, o)| &o.report.sweeps)
        .map(counter)
        .sum()
}

/// Frames the hierarchical cell pass's partner walks visited over a
/// walk.
fn walk_frames_visited(chip: &ChipLayout) -> usize {
    walk_sum(chip, |s| s.frames_visited)
}

/// Box pairs the hierarchical cell pass's box loops examined over a
/// walk.
fn walk_box_pairs(chip: &ChipLayout) -> usize {
    walk_sum(chip, |s| s.box_pairs)
}

/// Hidden-edge oracle queries the hierarchical cell pass made over a
/// walk.
fn walk_hidden_tests(chip: &ChipLayout) -> usize {
    walk_sum(chip, |s| s.hidden_tests)
}

/// Difference constraints the hierarchical cell pass generated over a
/// walk (`HierSweepStats::constraints`: spacing and frame pairs, welds,
/// pins and pitch-class members).
fn walk_constraints(chip: &ChipLayout) -> usize {
    walk_sum(chip, |s| s.constraints)
}

/// Relaxation passes the hierarchical cell pass's solves took over a
/// walk.
fn walk_solver_passes(chip: &ChipLayout) -> usize {
    walk_sum(chip, |s| s.solver_passes)
}

/// CSR graph builds of the hierarchical cell pass's solves over a walk.
fn walk_graph_builds(chip: &ChipLayout) -> usize {
    walk_sum(chip, |s| s.graph_builds)
}

/// The serial E23 megachip walk at 10⁵ boxes, and its flat box count.
fn megachip_walk() -> (ChipLayout, usize) {
    let rules = &Technology::mead_conway(2).rules;
    let chip = megachip_hier(100_000).expect("generates");
    let out = compact_hierarchy(
        &chip.table,
        chip.top,
        rules,
        &BellmanFord::SORTED,
        &HierOptions::default(),
    )
    .expect("compacts");
    (out, chip.boxes)
}

/// The hierarchy walk of the 16×16 multiplier's `compact_chip`.
fn multiplier_walk() -> ChipLayout {
    let rules = &Technology::mead_conway(2).rules;
    let mult = rsg_mult::generator::generate(16, 16).expect("generates");
    rsg_mult::compactor::compact_chip(
        mult.rsg.cells(),
        mult.top,
        rules,
        &BellmanFord::SORTED,
        Parallelism::Serial,
    )
    .expect("compacts")
    .chip
}

#[test]
fn megachip_hier_100k_frames_visited_stay_under_recorded_ceiling() {
    let (out, boxes) = megachip_walk();
    let count = walk_frames_visited(&out);
    let ceiling = ceiling("megachip_hier_100k_frames_visited");
    assert!(
        count <= ceiling,
        "megachip hier walk (n = {boxes}) frames-visited count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn megachip_hier_100k_box_pairs_stay_under_recorded_ceiling() {
    let (out, boxes) = megachip_walk();
    let count = walk_box_pairs(&out);
    let ceiling = ceiling("megachip_hier_100k_box_pairs");
    assert!(
        count <= ceiling,
        "megachip hier walk (n = {boxes}) box-pair count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn multiplier_16x16_frames_visited_stay_under_recorded_ceiling() {
    let count = walk_frames_visited(&multiplier_walk());
    let ceiling = ceiling("multiplier_16x16_frames_visited");
    assert!(
        count <= ceiling,
        "16x16 multiplier chip frames-visited count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn multiplier_16x16_box_pairs_stay_under_recorded_ceiling() {
    let count = walk_box_pairs(&multiplier_walk());
    let ceiling = ceiling("multiplier_16x16_box_pairs");
    assert!(
        count <= ceiling,
        "16x16 multiplier chip box-pair count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn megachip_hier_100k_hidden_tests_stay_under_recorded_ceiling() {
    let (out, boxes) = megachip_walk();
    let count = walk_hidden_tests(&out);
    let ceiling = ceiling("megachip_hier_100k_hidden_tests");
    assert!(
        count <= ceiling,
        "megachip hier walk (n = {boxes}) hidden-test count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn multiplier_16x16_hidden_tests_stay_under_recorded_ceiling() {
    let count = walk_hidden_tests(&multiplier_walk());
    let ceiling = ceiling("multiplier_16x16_hidden_tests");
    assert!(
        count <= ceiling,
        "16x16 multiplier chip hidden-test count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn megachip_hier_100k_abstract_inputs_stay_under_recorded_ceiling() {
    let (out, boxes) = megachip_walk();
    let count = out.abstract_inputs;
    let ceiling = ceiling("megachip_hier_100k_abstract_inputs");
    assert!(
        count <= ceiling,
        "megachip hier walk (n = {boxes}) abstract input count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn multiplier_16x16_abstract_inputs_stay_under_recorded_ceiling() {
    let count = multiplier_walk().abstract_inputs;
    let ceiling = ceiling("multiplier_16x16_abstract_inputs");
    assert!(
        count <= ceiling,
        "16x16 multiplier chip abstract input count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn megachip_hier_100k_solver_passes_stay_under_recorded_ceiling() {
    let (out, boxes) = megachip_walk();
    let count = walk_solver_passes(&out);
    let ceiling = ceiling("megachip_hier_100k_solver_passes");
    assert!(
        count <= ceiling,
        "megachip hier walk (n = {boxes}) solver pass count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn multiplier_16x16_solver_passes_stay_under_recorded_ceiling() {
    let count = walk_solver_passes(&multiplier_walk());
    let ceiling = ceiling("multiplier_16x16_solver_passes");
    assert!(
        count <= ceiling,
        "16x16 multiplier chip solver pass count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn megachip_hier_100k_constraints_stay_under_recorded_ceiling() {
    let (out, boxes) = megachip_walk();
    let count = walk_constraints(&out);
    let ceiling = ceiling("megachip_hier_100k_constraints");
    assert!(
        count <= ceiling,
        "megachip hier walk (n = {boxes}) constraint count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn multiplier_16x16_constraints_stay_under_recorded_ceiling() {
    let count = walk_constraints(&multiplier_walk());
    let ceiling = ceiling("multiplier_16x16_constraints");
    assert!(
        count <= ceiling,
        "16x16 multiplier chip constraint count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn megachip_hier_100k_graph_builds_stay_under_recorded_ceiling() {
    let (out, boxes) = megachip_walk();
    let count = walk_graph_builds(&out);
    let ceiling = ceiling("megachip_hier_100k_graph_builds");
    assert!(
        count <= ceiling,
        "megachip hier walk (n = {boxes}) graph build count regressed: {count} > recorded ceiling {ceiling}"
    );
}

#[test]
fn multiplier_16x16_graph_builds_stay_under_recorded_ceiling() {
    let count = walk_graph_builds(&multiplier_walk());
    let ceiling = ceiling("multiplier_16x16_graph_builds");
    assert!(
        count <= ceiling,
        "16x16 multiplier chip graph build count regressed: {count} > recorded ceiling {ceiling}"
    );
}
