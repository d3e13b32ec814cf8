//! Property tests for the layout database and the `.rsgl` format.

use proptest::prelude::*;
use rsg_geom::{Orientation, Point, Rect};
use rsg_layout::{
    cif_safe_name, flatten, read_cif, read_rsgl, stats::LayoutStats, write_cif, write_rsgl,
    CellDefinition, CellTable, Instance, Layer, LayoutError,
};

fn arb_layer() -> impl Strategy<Value = Layer> {
    (0usize..Layer::ALL.len()).prop_map(|i| Layer::ALL[i])
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-200i64..200, -200i64..200, 1i64..50, 1i64..50)
        .prop_map(|(x, y, w, h)| Rect::from_origin_size(Point::new(x, y), w, h))
}

fn arb_orientation() -> impl Strategy<Value = Orientation> {
    (0usize..8).prop_map(|i| Orientation::ALL[i])
}

/// A random two-level hierarchy: a few leaf cells, one top cell calling
/// them at random placements.
fn arb_table() -> impl Strategy<Value = (CellTable, rsg_layout::CellId)> {
    (
        proptest::collection::vec(
            proptest::collection::vec((arb_layer(), arb_rect()), 1..6),
            1..4,
        ),
        proptest::collection::vec(
            (0usize..4, -300i64..300, -300i64..300, arb_orientation()),
            1..10,
        ),
    )
        .prop_map(|(leaves, calls)| {
            let mut t = CellTable::new();
            let mut ids = Vec::new();
            for (k, boxes) in leaves.iter().enumerate() {
                let mut c = CellDefinition::new(format!("leaf{k}"));
                for (l, r) in boxes {
                    c.add_box(*l, *r);
                }
                c.add_label(format!("{k}"), Point::new(0, 0));
                ids.push(t.insert(c).unwrap());
            }
            let mut top = CellDefinition::new("top");
            for (which, x, y, o) in calls {
                let cell = ids[which % ids.len()];
                top.add_instance(Instance::new(cell, Point::new(x, y), o));
            }
            let top_id = t.insert(top).unwrap();
            (t, top_id)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rsgl round-trips preserve all flat geometry and statistics.
    #[test]
    fn rsgl_round_trip((table, top) in arb_table()) {
        let text = write_rsgl(&table, top).unwrap();
        let (table2, top2) = read_rsgl(&text).unwrap();
        let s1 = LayoutStats::compute(&table, top).unwrap();
        let s2 = LayoutStats::compute(&table2, top2).unwrap();
        prop_assert_eq!(s1, s2);
        // Idempotent: writing the reread table is byte-identical.
        prop_assert_eq!(write_rsgl(&table2, top2).unwrap(), text);
    }

    /// Flattening through the writer/reader agrees with direct flattening.
    #[test]
    fn flatten_invariant_under_serialization((table, top) in arb_table()) {
        let direct: Vec<_> = flatten(&table, top).unwrap().into_iter().collect();
        let text = write_rsgl(&table, top).unwrap();
        let (table2, top2) = read_rsgl(&text).unwrap();
        let reread: Vec<_> = flatten(&table2, top2).unwrap().into_iter().collect();
        prop_assert_eq!(direct, reread);
    }

    /// CIF output is structurally sound for arbitrary hierarchies.
    #[test]
    fn cif_always_well_formed((table, top) in arb_table()) {
        let cif = write_cif(&table, top).unwrap();
        prop_assert!(cif.ends_with("E\n"));
        let ds = cif.matches("DS ").count();
        let df = cif.matches("DF;").count();
        prop_assert_eq!(ds, df, "every DS closed by DF");
        // The root is called exactly once at top level (after the last DF).
        let tail = cif.rsplit("DF;\n").next().unwrap();
        prop_assert!(tail.starts_with("C "), "{}", tail);
    }

    /// Hostile cell names (whitespace, `;`, leading `(`, empty) are a
    /// typed write-time rejection — never a silent truncation — and
    /// every accepted name round-trips through the CIF reader exactly.
    /// Pins the ISSUE 10 `9 {name};` corruption fix.
    #[test]
    fn cif_cell_names_round_trip_or_reject(
        chars in proptest::collection::vec(0usize..16, 0..12),
    ) {
        const ALPHABET: [char; 16] = [
            'a', 'b', 'z', '0', '9', '_', '-', '.', '!', '#',
            ';', '(', ')', ' ', '\t', '\n',
        ];
        let name: String = chars.into_iter().map(|i| ALPHABET[i]).collect();
        let mut t = CellTable::new();
        let mut c = CellDefinition::new(name.clone());
        c.add_box(Layer::Metal1, Rect::from_coords(0, 0, 4, 4));
        let id = t.insert(c).unwrap();
        match write_cif(&t, id) {
            Err(LayoutError::CifName { cell }) => {
                prop_assert_eq!(&cell, &name);
                prop_assert!(cif_safe_name(&name).is_err());
            }
            Err(e) => panic!("unexpected error {e} for name {name:?}"),
            Ok(cif) => {
                prop_assert!(cif_safe_name(&name).is_ok(), "accepted {name:?}");
                let (t2, id2) = read_cif(&cif).unwrap();
                prop_assert_eq!(t2.require(id2).unwrap().name(), name.as_str());
                // Idempotent: the reread table writes byte-identically.
                prop_assert_eq!(write_cif(&t2, id2).unwrap(), cif);
            }
        }
    }

    /// Flat box count equals the sum over instances of leaf box counts.
    #[test]
    fn flatten_counts_are_exact((table, top) in arb_table()) {
        let flat = flatten(&table, top).unwrap();
        let expected: usize = table.require(top).unwrap().instances()
            .map(|i| table.require(i.cell).unwrap().boxes().count())
            .sum();
        prop_assert_eq!(flat.len(), expected);
    }

    /// Flattened geometry of an instance equals the leaf geometry
    /// transformed by the calling isometry.
    #[test]
    fn flatten_applies_the_calling_isometry(
        boxes in proptest::collection::vec((arb_layer(), arb_rect()), 1..5),
        x in -100i64..100,
        y in -100i64..100,
        o in arb_orientation(),
    ) {
        let mut t = CellTable::new();
        let mut leaf = CellDefinition::new("leaf");
        for (l, r) in &boxes {
            leaf.add_box(*l, *r);
        }
        let leaf_id = t.insert(leaf).unwrap();
        let mut top = CellDefinition::new("top");
        let inst = Instance::new(leaf_id, Point::new(x, y), o);
        top.add_instance(inst);
        let top_id = t.insert(top).unwrap();
        let flat = flatten(&t, top_id).unwrap();
        let iso = inst.isometry();
        for (k, &(l, r)) in boxes.iter().enumerate() {
            prop_assert_eq!(flat[k], (l, r.transform(iso)));
        }
    }
}
