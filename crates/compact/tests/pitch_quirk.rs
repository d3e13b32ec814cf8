//! Regression pin for the (fixed) λ-collapse quirk.
//!
//! When two cells share a cross interface but none of their material
//! interacts across it (no spacing rule connects any A-layer to any
//! B-layer in the gap), the pitch variable used to have *no* lower bound
//! from cross constraints: the cost function drove it straight to 0 — a
//! physically meaningless "stack the cells on top of each other" answer,
//! and the reason the hpla AND→OR bridge was once declared
//! `FixedX(GRID)`.
//!
//! The leaf compactor now clamps every free pitch to the technology's
//! smallest spacing rule (`DesignRules::spacing_floor`), the bridge is a
//! free pitch again, and these tests pin the *fixed* behaviour: a
//! non-interacting cross pitch lands exactly on the floor, and the
//! binding diagnostics show the floor (an origin self-edge) as the only
//! tight pitch constraint.

use rsg_compact::backend::BellmanFord;
use rsg_compact::leaf::{compact, LeafInterface, LeafOptions, PitchKind};
use rsg_geom::Rect;
use rsg_layout::{CellDefinition, DesignRules, Layer, Technology};

fn rules() -> DesignRules {
    Technology::mead_conway(2).rules.clone()
}

fn cross_interface(initial: i64) -> LeafInterface {
    LeafInterface {
        cell_a: 0,
        cell_b: 1,
        kind: PitchKind::VariableX { initial, weight: 1 },
        y_offset: 0,
        name: "cross".into(),
    }
}

/// Metal1 and Poly have no spacing rule between them in the Mead–Conway
/// set: the cross interface generates no geometric constraints, so the
/// pitch lands on the technology floor instead of the old collapse to 0.
#[test]
fn non_interacting_cross_material_pitch_clamps_to_the_floor() {
    let mut a = CellDefinition::new("a");
    a.add_box(Layer::Metal1, Rect::from_coords(0, 0, 6, 10));
    let mut b = CellDefinition::new("b");
    b.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 10));

    let r = rules();
    let floor = r.spacing_floor();
    assert!(floor > 0, "Mead–Conway has a positive smallest spacing");
    let out = compact(
        &[a, b],
        &[cross_interface(40)],
        &r,
        &BellmanFord::SORTED,
        &LeafOptions::default(),
    )
    .unwrap();
    assert_eq!(
        out.pitches,
        vec![("cross".to_string(), floor)],
        "non-interacting cross material clamps to the spacing floor \
         (was the pitch-collapse-to-0 quirk)"
    );
    // The diagnostics confirm nothing geometric pins this pitch: the
    // floor constraint (an origin self-edge) is the only tight one.
    let binding = &out.bindings[0];
    assert_eq!(binding.tight.len(), 1);
    assert_eq!(binding.tight[0].from, binding.tight[0].to);
}

/// The floor scales with the technology, like every other rule.
#[test]
fn floor_tracks_the_technology_scale() {
    for lambda in [1i64, 2, 3] {
        let r = Technology::mead_conway(lambda).rules;
        let mut a = CellDefinition::new("a");
        a.add_box(Layer::Metal1, Rect::from_coords(0, 0, 6, 10));
        let mut b = CellDefinition::new("b");
        b.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 10));
        let out = compact(
            &[a, b],
            &[cross_interface(40)],
            &r,
            &BellmanFord::SORTED,
            &LeafOptions::default(),
        )
        .unwrap();
        assert_eq!(out.pitches[0].1, r.spacing_floor(), "lambda = {lambda}");
    }
}

/// Control: the same shape of library *with* interacting material keeps
/// its geometry-driven pitch — the floor only matters when no spacing
/// rule reaches across the interface.
#[test]
fn interacting_cross_material_keeps_its_geometric_pitch() {
    let mut a = CellDefinition::new("a");
    a.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 10));
    let mut b = CellDefinition::new("b");
    b.add_box(Layer::Poly, Rect::from_coords(0, 0, 4, 10));

    let out = compact(
        &[a, b],
        &[cross_interface(40)],
        &rules(),
        &BellmanFord::SORTED,
        &LeafOptions::default(),
    )
    .unwrap();
    let pitch = out.pitches[0].1;
    // B's poly must clear A's poly by the 2λ rule: pitch ≥ width + spacing.
    assert_eq!(pitch, 8, "poly–poly interface compacts to width+spacing");
}
