//! Adversarial-input lane for the two layout parsers (PR 7's fuzz
//! contract): **every** input either parses to a DRC-checkable layout or
//! returns a typed [`LayoutError`] — the readers never panic, and parse
//! errors carry a line number inside the input.
//!
//! The generator starts from a valid `.rsgl` / CIF serialization and
//! applies random corruptions: byte flips, line deletions, truncations,
//! garbage insertions, and token swaps. A separate deterministic lane
//! covers the paper-relevant extremes — zero-area boxes, touching
//! geometry, `i64::MAX` coordinates (the ingest budget), deep
//! hierarchies, and unknown instance references.

use proptest::prelude::*;
use rsg_geom::{Orientation, Point, Rect};
use rsg_layout::{
    flatten, read_cif, read_rsgl, write_cif, write_rsgl, CellDefinition, CellTable, Instance,
    Layer, LayoutError,
};

/// A small valid two-level layout to corrupt.
fn seed_table() -> (CellTable, rsg_layout::CellId) {
    let mut t = CellTable::new();
    let mut leaf = CellDefinition::new("leaf");
    leaf.add_box(Layer::Poly, Rect::from_coords(0, 0, 8, 8));
    leaf.add_box(Layer::Metal1, Rect::from_coords(12, 0, 20, 8));
    leaf.add_label("1", Point::new(4, 4));
    let leaf_id = t.insert(leaf).unwrap();
    let mut top = CellDefinition::new("top");
    top.add_instance(Instance::new(leaf_id, Point::new(0, 0), Orientation::NORTH));
    top.add_instance(Instance::new(leaf_id, Point::new(30, 0), Orientation::R90));
    top.add_box(Layer::Well, Rect::from_coords(-4, -4, 60, 20));
    let top_id = t.insert(top).unwrap();
    (t, top_id)
}

/// One corruption step applied at a pseudo-random position.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    FlipByte(usize, u8),
    DeleteLine(usize),
    Truncate(usize),
    InsertGarbage(usize),
    DuplicateLine(usize),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0usize..5, 0usize..10_000, 0u8..255).prop_map(|(kind, pos, byte)| match kind {
        0 => Mutation::FlipByte(pos, byte),
        1 => Mutation::DeleteLine(pos),
        2 => Mutation::Truncate(pos),
        3 => Mutation::InsertGarbage(pos),
        _ => Mutation::DuplicateLine(pos),
    })
}

fn apply(text: &str, m: Mutation) -> String {
    match m {
        Mutation::FlipByte(pos, byte) => {
            let mut bytes: Vec<u8> = text.bytes().collect();
            if bytes.is_empty() {
                return text.to_owned();
            }
            let i = pos % bytes.len();
            // Stay in ASCII so the result is always a valid &str.
            bytes[i] = 32 + (byte % 95);
            String::from_utf8(bytes).unwrap()
        }
        Mutation::DeleteLine(pos) => {
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return text.to_owned();
            }
            let i = pos % lines.len();
            let mut out: Vec<&str> = lines.clone();
            out.remove(i);
            out.join("\n")
        }
        Mutation::Truncate(pos) => {
            if text.is_empty() {
                return String::new();
            }
            let mut i = pos % text.len();
            while !text.is_char_boundary(i) {
                i -= 1;
            }
            text[..i].to_owned()
        }
        Mutation::InsertGarbage(pos) => {
            let lines: Vec<&str> = text.lines().collect();
            let i = pos % (lines.len() + 1);
            let mut out: Vec<String> = lines.iter().map(|s| (*s).to_owned()).collect();
            out.insert(i, "box zap 1 2 three".into());
            out.join("\n")
        }
        Mutation::DuplicateLine(pos) => {
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return text.to_owned();
            }
            let i = pos % lines.len();
            let mut out: Vec<&str> = lines.clone();
            out.insert(i, lines[i]);
            out.join("\n")
        }
    }
}

/// Shared check: a reader's output is either a flattenable layout or a
/// typed error whose line number (when it is a parse error) points into
/// the input.
fn check_outcome(result: Result<(CellTable, rsg_layout::CellId), LayoutError>, input: &str) {
    match result {
        Ok((table, top)) => {
            // Parsed layouts must be checkable end to end.
            let _ = flatten(&table, top).unwrap();
        }
        Err(LayoutError::Parse { line, message }) => {
            assert!(line >= 1, "parse errors are 1-based");
            assert!(
                line <= input.lines().count() + 1,
                "line {line} outside input ({} lines)",
                input.lines().count()
            );
            assert!(!message.is_empty());
        }
        Err(other) => {
            // Any other typed error is fine; it must render.
            assert!(!other.to_string().is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Corrupted `.rsgl` never panics: typed error or valid layout.
    #[test]
    fn rsgl_reader_survives_corruption(muts in proptest::collection::vec(arb_mutation(), 1..6)) {
        let (table, top) = seed_table();
        let mut text = write_rsgl(&table, top).unwrap();
        for m in muts {
            text = apply(&text, m);
        }
        check_outcome(read_rsgl(&text), &text);
    }

    /// Corrupted CIF never panics: typed error or valid layout.
    #[test]
    fn cif_reader_survives_corruption(muts in proptest::collection::vec(arb_mutation(), 1..6)) {
        let (table, top) = seed_table();
        let mut text = write_cif(&table, top).unwrap();
        for m in muts {
            text = apply(&text, m);
        }
        check_outcome(read_cif(&text), &text);
    }
}

#[test]
fn rsgl_unknown_instance_is_a_parse_error_with_line() {
    let text = "# rsgl 1\ncell top\n  inst ghost N 0 0\nend\ntop top\n";
    match read_rsgl(text) {
        Err(LayoutError::Parse { line, message }) => {
            assert_eq!(line, 3);
            assert!(message.contains("ghost"), "{message}");
        }
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn rsgl_coordinates_beyond_the_budget_are_rejected() {
    // i64::MAX literally, and the first value past the 2^30 budget: the
    // ingest boundary guarantees interior arithmetic cannot overflow, so
    // both must be typed errors, not accepted geometry.
    for big in [i64::MAX, rsg_geom::MAX_COORD + 1] {
        let text = format!("# rsgl 1\ncell top\n  box poly 0 0 {big} 4\nend\ntop top\n");
        let err = read_rsgl(&text).unwrap_err();
        assert!(
            matches!(
                err,
                LayoutError::CoordinateBudget { .. } | LayoutError::Parse { .. }
            ),
            "{err:?}"
        );
    }
    // The budget edge itself is admitted.
    let text = format!(
        "# rsgl 1\ncell top\n  box poly 0 0 {} 4\nend\ntop top\n",
        rsg_geom::MAX_COORD
    );
    read_rsgl(&text).unwrap();
}

#[test]
fn zero_area_and_touching_geometry_parse_and_flatten() {
    // Degenerate (zero-area) and exactly-touching boxes are legal inputs;
    // they must survive the full parse→flatten path.
    let text = "# rsgl 1\ncell top\n  box poly 0 0 0 0\n  box poly 0 0 4 4\n  box m1 4 0 8 4\nend\ntop top\n";
    let (table, top) = read_rsgl(text).unwrap();
    let flat = flatten(&table, top).unwrap();
    assert_eq!(flat.len(), 3);
}

#[test]
fn deep_hierarchies_parse_without_recursion_blowup() {
    // 500 nesting levels, callee-first; the reader and flattener walk it
    // iteratively enough to survive (the writer emits this shape too).
    let mut text = String::from("# rsgl 1\ncell c0\n  box poly 0 0 4 4\nend\n");
    let depth = 500;
    for i in 1..=depth {
        text.push_str(&format!("cell c{i}\n  inst c{} N 1 1\nend\n", i - 1));
    }
    text.push_str(&format!("top c{depth}\n"));
    let (table, top) = read_rsgl(&text).unwrap();
    let flat = flatten(&table, top).unwrap();
    assert_eq!(flat.len(), 1);
    assert_eq!(flat[0].1.lo(), Point::new(depth, depth));
}

#[test]
fn cif_unknown_instance_reference_is_typed() {
    // A CIF call of an undefined symbol number.
    let text = "DS 1 1 1;\nL NP;\nB 4 4 2 2;\nDF;\nC 99;\nE\n";
    let err = read_cif(text).unwrap_err();
    assert!(!err.to_string().is_empty());
}
