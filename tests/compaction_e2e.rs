//! Experiments E11/E13/E14 end to end: leaf-compact a library, re-tile it
//! at the solved pitches, and let the independent DRC referee confirm the
//! result; compare unknown counts against flat compaction.

use rsg::compact::backend::BellmanFord;
use rsg::compact::leaf::{compact, LeafInterface, PitchKind};
use rsg::compact::scanline::{generate as gen_constraints, Method};
use rsg::compact::solver::{solve, solve_balanced, EdgeOrder};
use rsg::geom::{Axis, Rect, Vector};
use rsg::layout::{drc, CellDefinition, Layer, Technology};

fn library_cell() -> CellDefinition {
    let mut c = CellDefinition::new("cell");
    c.add_box(Layer::Poly, Rect::from_coords(4, 0, 10, 40));
    c.add_box(Layer::Metal1, Rect::from_coords(20, 4, 32, 36));
    c.add_box(Layer::Poly, Rect::from_coords(44, 0, 50, 40));
    c
}

fn h_interface(initial: i64) -> LeafInterface {
    LeafInterface {
        cell_a: 0,
        cell_b: 0,
        kind: PitchKind::VariableX { initial, weight: 8 },
        y_offset: 0,
        name: "h".into(),
    }
}

#[test]
fn compacted_library_tiles_drc_clean() {
    let tech = Technology::mead_conway(2);
    let out = compact(
        &[library_cell()],
        &[h_interface(60)],
        &tech.rules,
        &BellmanFord::SORTED,
    )
    .unwrap();
    let pitch = out.pitches[0].1;
    assert!(
        pitch < 60,
        "compaction should shrink the sample pitch, got {pitch}"
    );

    // Re-tile 4 instances at the solved pitch; the independent DRC
    // referee (which shares no code with the constraint generator's
    // solver) must find nothing.
    let mut flat = Vec::new();
    for k in 0..4i64 {
        for (l, r) in out.cells[0].boxes() {
            flat.push((l, r.translate(Vector::new(k * pitch, 0))));
        }
    }
    let violations = drc::check(&flat, &tech.rules);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn one_step_tighter_pitch_fails_drc() {
    // The solved pitch is *minimal*: tiling one unit tighter violates.
    let tech = Technology::mead_conway(2);
    let out = compact(
        &[library_cell()],
        &[h_interface(60)],
        &tech.rules,
        &BellmanFord::SORTED,
    )
    .unwrap();
    let pitch = out.pitches[0].1 - 1;
    let mut flat = Vec::new();
    for k in 0..2i64 {
        for (l, r) in out.cells[0].boxes() {
            flat.push((l, r.translate(Vector::new(k * pitch, 0))));
        }
    }
    assert!(!drc::check(&flat, &tech.rules).is_empty());
}

#[test]
fn unknown_count_constant_vs_quadratic() {
    // E11/E13: leaf unknowns are independent of the replication factor;
    // flat unknowns grow with n².
    let tech = Technology::mead_conway(2);
    let leaf = compact(
        &[library_cell()],
        &[h_interface(60)],
        &tech.rules,
        &BellmanFord::SORTED,
    )
    .unwrap();
    let boxes_per_cell = library_cell().boxes().count();
    assert_eq!(leaf.unknowns, 2 * boxes_per_cell + 1);

    let mut flat_unknowns = Vec::new();
    for n in [2usize, 4] {
        let mut flat = Vec::new();
        for k in 0..n as i64 {
            for (l, r) in library_cell().boxes() {
                flat.push((l, r.translate(Vector::new(k * 60, 0))));
            }
        }
        let (sys, _) = gen_constraints(&flat, &tech.rules, Method::Visibility, Axis::X);
        flat_unknowns.push(sys.num_vars());
    }
    assert_eq!(
        flat_unknowns,
        vec![2 * boxes_per_cell * 2, 2 * boxes_per_cell * 4]
    );
    assert!(leaf.unknowns < flat_unknowns[0]);
}

#[test]
fn technology_retarget_scales_the_pitch() {
    // The same library compacted under λ = 1 and λ = 3 rules: the pitch
    // tracks the rule scale — "technology transportable".
    let fine = compact(
        &[library_cell()],
        &[h_interface(60)],
        &Technology::mead_conway(1).rules,
        &BellmanFord::SORTED,
    )
    .unwrap();
    let coarse = compact(
        &[library_cell()],
        &[h_interface(60)],
        &Technology::mead_conway(3).rules,
        &BellmanFord::SORTED,
    )
    .unwrap();
    assert!(fine.pitches[0].1 < coarse.pitches[0].1);
}

#[test]
fn flat_compaction_of_generated_multiplier_metal() {
    // Cross-stack smoke: flatten the generated 8×8 multiplier, compact
    // its metal1 in x, verify feasibility and the no-violation property.
    let out = rsg::mult::generator::generate(8, 8).unwrap();
    let flat = rsg::layout::flatten(out.rsg.cells(), out.top).unwrap();
    let boxes: Vec<(Layer, Rect)> = flat
        .layer_rects()
        .iter()
        .filter(|(l, _)| *l == Layer::Metal1)
        .copied()
        .collect();
    assert!(!boxes.is_empty());
    let tech = Technology::mead_conway(2);
    let (sys, _) = gen_constraints(&boxes, &tech.rules, Method::Visibility, Axis::X);
    let left = solve(&sys, EdgeOrder::Sorted).unwrap();
    let balanced = solve_balanced(&sys).unwrap();
    assert!(sys.violations(left.positions(), &[]).is_empty());
    assert!(sys.violations(balanced.positions(), &[]).is_empty());
    // Balanced never widens the layout.
    assert!(balanced.extent() >= left.extent());
}

#[test]
fn critical_path_explains_the_solved_extent() {
    // A known layout: three poly bars in a row plus an unrelated bar far
    // above. The compacted width is set by the chain
    // bar0.width → spacing → bar1.width → spacing → bar2.width; the
    // reported critical path must be exactly that chain, and its weights
    // must sum to the solved extent.
    let tech = Technology::mead_conway(2);
    let boxes: Vec<(Layer, Rect)> = vec![
        (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
        (Layer::Poly, Rect::from_coords(20, 0, 24, 20)),
        (Layer::Poly, Rect::from_coords(50, 0, 54, 20)),
        (Layer::Poly, Rect::from_coords(0, 60, 4, 80)), // off the path
    ];
    let (sys, vars) = gen_constraints(&boxes, &tech.rules, Method::Visibility, Axis::X);
    let sol = solve(&sys, EdgeOrder::Sorted).unwrap();
    // Width 4 + spacing 4 + width 4 + spacing 4 + width 4 = 20.
    assert_eq!(sol.extent(), 20);

    // The variable that attains the extent is bar2's right edge; its
    // critical path telescopes to the full extent (the leftmost var of a
    // least solution sits at 0).
    let rightmost = vars[2].right;
    assert_eq!(sol.position(rightmost), sol.extent());
    let chain = sol.critical_path(&sys, rightmost);
    let total: i64 = chain.iter().map(|c| c.weight).sum();
    assert_eq!(total, sol.extent(), "chain weights must sum to the extent");
    // The chain alternates width and spacing constraints: 3 widths (4)
    // and 2 spacings (4) in this layout.
    assert_eq!(chain.len(), 5);
    assert!(chain.iter().all(|c| c.weight == 4), "{chain:?}");
    // Every link is tight: zero slack under the solution.
    let slacks = sys.slacks(sol.positions(), &[]);
    for link in &chain {
        let idx = sys
            .constraints()
            .iter()
            .position(|c| c == link)
            .expect("chain constraints come from the system");
        assert_eq!(slacks[idx], 0, "chain link {link:?} must be tight");
    }
    // The unrelated bar is not on the path.
    let off_path = [vars[3].left, vars[3].right];
    assert!(chain
        .iter()
        .all(|c| !off_path.contains(&c.from) && !off_path.contains(&c.to)));
}

#[test]
fn engine_warm_start_matches_cold_on_the_tiled_array() {
    // E18's correctness half: the warm-started alternating engine
    // produces bit-for-bit the same layout as the cold one and never
    // spends more relaxation passes.
    use rsg::compact::engine::{compact_xy_with, WarmStart};
    let tech = Technology::mead_conway(2);
    let mut boxes = Vec::new();
    for row in 0..4i64 {
        for col in 0..4i64 {
            for (l, r) in library_cell().boxes() {
                boxes.push((l, r.translate(Vector::new(col * 60, row * 44))));
            }
        }
    }
    let cold = compact_xy_with(
        &boxes,
        &tech.rules,
        &BellmanFord::SORTED,
        10,
        WarmStart::Cold,
    )
    .unwrap();
    let warm = compact_xy_with(
        &boxes,
        &tech.rules,
        &BellmanFord::SORTED,
        10,
        WarmStart::Warm,
    )
    .unwrap();
    assert_eq!(cold.boxes, warm.boxes);
    assert_eq!(cold.passes, warm.passes);
    assert!(cold.converged && warm.converged);
    assert!(
        warm.report.total_solver_passes() < cold.report.total_solver_passes(),
        "warm {} vs cold {} total relaxation passes",
        warm.report.total_solver_passes(),
        cold.report.total_solver_passes()
    );
}

#[test]
fn flat_layout_feeds_the_leaf_compactor() {
    // The FlatLayout → leaf::compact bridge: flatten a two-instance
    // assembly, package the flat boxes as one leaf cell, compact it
    // under a self-interface, and referee the re-tiled result with the
    // bucket-grid DRC.
    let tech = Technology::mead_conway(2);
    let mut table = rsg::layout::CellTable::new();
    let tile = table.insert(library_cell()).unwrap();
    let mut top = CellDefinition::new("top");
    for k in 0..2 {
        top.add_instance(rsg::layout::Instance::new(
            tile,
            rsg::geom::Point::new(k * 60, 0),
            rsg::geom::Orientation::NORTH,
        ));
    }
    let top_id = table.insert(top).unwrap();
    let flat = rsg::layout::flatten(&table, top_id).unwrap();
    assert!(drc::check_flat(&flat, &tech.rules).is_empty());

    let out = compact(
        &[flat.to_cell("flat")],
        &[h_interface(120)],
        &tech.rules,
        &BellmanFord::SORTED,
    )
    .unwrap();
    let pitch = out.pitches[0].1;
    assert!(pitch < 120, "flattened pair should compact, got {pitch}");
    let mut retiled = Vec::new();
    for k in 0..3i64 {
        for (l, r) in out.cells[0].boxes() {
            retiled.push((l, r.translate(Vector::new(k * pitch, 0))));
        }
    }
    assert!(drc::check(&retiled, &tech.rules).is_empty());
}
