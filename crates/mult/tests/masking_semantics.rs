//! Cell-masking semantics (paper §2.3 / Fig 5.3): encoding cells lie
//! inside the bounding box of the cell they encode, superimpose cleanly,
//! and "the number of different encoding configurations is roughly
//! exponential in the number of independent encoding decisions" — checked
//! by enumerating the personalities the generator actually emits.

use rsg_geom::Rect;
use rsg_layout::{flatten, Layer};
use rsg_mult::cells::{BASIC_MASKS, PITCH};
use rsg_mult::generator::generate;
use std::collections::HashSet;

#[test]
fn every_cell_gets_one_mask_per_decision() {
    // 4 independent decisions (type, clock, carry, top) → each core cell
    // carries exactly 4 masks.
    let out = generate(5, 4).unwrap();
    let cells = out.rsg.cells();
    let def = cells.require(out.array).unwrap();
    let basic = cells.lookup("basic").unwrap();
    let mask_ids: Vec<_> = BASIC_MASKS
        .iter()
        .map(|n| cells.lookup(n).unwrap())
        .collect();
    for core in def.instances().filter(|i| i.cell == basic) {
        let masks_here = def
            .instances()
            .filter(|i| i.point_of_call == core.point_of_call && mask_ids.contains(&i.cell))
            .count();
        assert_eq!(masks_here, 4, "core at {}", core.point_of_call);
    }
}

#[test]
fn personalities_cover_the_expected_combinations() {
    // Across a 6×6 array the generator uses 2 type × 2 clock × 2 carry ×
    // 2 top = up to 16 personalities; the actual rules hit a specific
    // subset — enumerate and sanity-check it.
    let out = generate(6, 6).unwrap();
    let cells = out.rsg.cells();
    let def = cells.require(out.array).unwrap();
    let basic = cells.lookup("basic").unwrap();
    let mask_ids: Vec<_> = BASIC_MASKS
        .iter()
        .map(|n| cells.lookup(n).unwrap())
        .collect();

    let mut personalities = HashSet::new();
    for core in def.instances().filter(|i| i.cell == basic) {
        let mut combo: Vec<&str> = def
            .instances()
            .filter(|i| i.point_of_call == core.point_of_call && mask_ids.contains(&i.cell))
            .map(|i| BASIC_MASKS[mask_ids.iter().position(|&m| m == i.cell).expect("mask")])
            .collect();
        combo.sort_unstable();
        personalities.insert(combo);
    }
    // Column parity × (left column or not) × (bottom row or not) ×
    // (right column or not) interact: at least 6 distinct personalities
    // appear in a 6×6, at most 16.
    assert!(personalities.len() >= 6, "{personalities:?}");
    assert!(personalities.len() <= 16);
}

#[test]
fn masks_superimpose_without_layer_conflicts() {
    // Flatten one personalized cell region and check the masking boxes
    // do not overlap each other (Fig 5.3's maskings occupy disjoint
    // spots) though they all overlap the basic cell.
    let out = generate(2, 2).unwrap();
    let flat = flatten(out.rsg.cells(), out.array).unwrap();
    // Metal2 carries type + carry masks; ensure no two metal2 boxes
    // overlap (each cell has one type and one carry mask at disjoint
    // in-cell positions).
    let m2: Vec<Rect> = flat
        .iter()
        .filter(|(layer, _)| *layer == Layer::Metal2)
        .map(|&(_, rect)| rect)
        .collect();
    for (i, a) in m2.iter().enumerate() {
        for b in &m2[i + 1..] {
            assert!(!a.overlaps(*b), "{a} vs {b}");
        }
    }
}

#[test]
fn encoding_is_purely_additive() {
    // Paper §2.3: encoding superimposes material; removing all mask
    // instances leaves exactly the unpersonalized array. The flat box
    // count difference equals the mask instance count (1 box per mask).
    let out = generate(3, 3).unwrap();
    let cells = out.rsg.cells();
    let def = cells.require(out.array).unwrap();
    let basic = cells.lookup("basic").unwrap();
    let basic_boxes = cells.require(basic).unwrap().boxes().count();
    let n_core = def.instances().filter(|i| i.cell == basic).count();
    let n_masks = def.instances().count() - n_core;
    let flat = flatten(cells, out.array).unwrap();
    assert_eq!(flat.len(), n_core * basic_boxes + n_masks);
}

#[test]
fn interface_table_is_closed_over_generation() {
    // Everything the generator needed came from the sample: re-running on
    // the same sample with different sizes never adds primitive
    // interfaces, only the three inherited ones per run.
    let small = generate(2, 2).unwrap();
    let large = generate(9, 7).unwrap();
    assert_eq!(small.rsg.interfaces().len(), large.rsg.interfaces().len());
    let _ = PITCH;
}
