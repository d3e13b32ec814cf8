//! CIF 2.0 writer and reader (paper §4.5: "Two layout file formats (CIF
//! and DEF) are supported").
//!
//! CIF represents boxes as `B width height centerx centery` with centers in
//! doubled coordinates; to stay integral we scale all output by 2. The
//! reader accepts the writer's dialect (and therefore round-trips it) and
//! rejects everything else with a positioned [`LayoutError::Parse`] — it
//! never panics, whatever the input bytes.

use crate::{
    CellDefinition, CellId, CellTable, FlatLayout, Instance, Layer, LayoutError, LayoutObject,
};
use rsg_geom::{Orientation, Point, Rect, Rotation};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serializes the hierarchy under `root` as CIF 2.0 text.
///
/// Cells are emitted as numbered `DS` definition blocks in dependency order
/// (callees before callers) and the root is called once at the end. CIF has
/// no label statement in the base dialect; labels are emitted as the common
/// `94` user extension. Orientations are emitted with CIF `R`/`M` transforms.
///
/// # Errors
///
/// Returns an error if the hierarchy is cyclic, an instance id dangles,
/// or a cell name cannot survive the `9 {name};` statement
/// ([`LayoutError::CifName`]; see [`cif_safe_name`]).
pub fn write_cif(table: &CellTable, root: CellId) -> Result<String, LayoutError> {
    let mut out = String::new();
    out.push_str("( CIF generated by rsg-layout );\n");
    for cell in table.bottom_up(root)? {
        let def = table.require(cell)?;
        cif_safe_name(def.name())?;
        let _ = writeln!(out, "DS {} 1 1;", cell.raw() + 1);
        let _ = writeln!(out, "9 {};", def.name());
        let mut last_layer = None;
        for obj in def.objects() {
            match obj {
                LayoutObject::Box { layer, rect } => {
                    if last_layer != Some(*layer) {
                        let _ = writeln!(out, "L {};", layer.cif_name());
                        last_layer = Some(*layer);
                    }
                    let w = 2 * rect.width();
                    let h = 2 * rect.height();
                    let cx = rect.lo().x + rect.hi().x;
                    let cy = rect.lo().y + rect.hi().y;
                    let _ = writeln!(out, "B {w} {h} {cx} {cy};");
                }
                LayoutObject::Label { text, at } => {
                    let _ = writeln!(out, "94 {} {} {};", text, 2 * at.x, 2 * at.y);
                }
                LayoutObject::Instance(inst) => {
                    let mut call = format!("C {}", inst.cell.raw() + 1);
                    if inst.orientation.mirror_y {
                        call.push_str(" MX");
                    }
                    match inst.orientation.rotation {
                        Rotation::R0 => {}
                        Rotation::R90 => call.push_str(" R 0 1"),
                        Rotation::R180 => call.push_str(" R -1 0"),
                        Rotation::R270 => call.push_str(" R 0 -1"),
                    }
                    let _ = write!(
                        call,
                        " T {} {}",
                        2 * inst.point_of_call.x,
                        2 * inst.point_of_call.y
                    );
                    let _ = writeln!(out, "{call};");
                }
            }
        }
        out.push_str("DF;\n");
    }
    let _ = writeln!(out, "C {};", root.raw() + 1);
    out.push_str("E\n");
    Ok(out)
}

/// Serializes a [`FlatLayout`] as CIF 2.0 text: one `DS` block holding
/// every flat box, grouped by layer (one `L` switch per layer), called
/// once at top level.
///
/// Flattening already resolved the hierarchy, so the only failure left
/// is a `name` the `9 {name};` statement cannot carry
/// ([`LayoutError::CifName`]).
///
/// # Errors
///
/// Returns [`LayoutError::CifName`] when `name` is empty, contains
/// whitespace or `;`, or begins with `(`.
pub fn write_cif_flat(flat: &FlatLayout, name: &str) -> Result<String, LayoutError> {
    cif_safe_name(name)?;
    let mut out = String::new();
    out.push_str("( CIF generated by rsg-layout );\n");
    out.push_str("DS 1 1 1;\n");
    let _ = writeln!(out, "9 {name};");
    // One pass: stable-sort by layer so each present layer gets exactly
    // one `L` switch, boxes keeping discovery order within it.
    let mut by_layer: Vec<(crate::Layer, Rect)> = flat.layer_rects().to_vec();
    by_layer.sort_by_key(|(l, _)| l.index());
    let mut last_layer = None;
    for (layer, rect) in by_layer {
        if last_layer != Some(layer) {
            let _ = writeln!(out, "L {};", layer.cif_name());
            last_layer = Some(layer);
        }
        let w = 2 * rect.width();
        let h = 2 * rect.height();
        let cx = rect.lo().x + rect.hi().x;
        let cy = rect.lo().y + rect.hi().y;
        let _ = writeln!(out, "B {w} {h} {cx} {cy};");
    }
    out.push_str("DF;\nC 1;\nE\n");
    Ok(out)
}

/// Validates that a cell name survives the writer's `9 {name};`
/// statement and the reader's tokenization byte-for-byte.
///
/// The reader splits statements on `;`, skips `(`-prefixed comment
/// statements, and takes the name as a single whitespace-delimited
/// token, so a name that is empty, contains whitespace (including
/// newlines) or `;`, or starts with `(` would silently truncate — or
/// disappear entirely — on round-trip. Rejecting at write time turns
/// that silent corruption into a typed [`LayoutError::CifName`].
pub fn cif_safe_name(name: &str) -> Result<(), LayoutError> {
    let hostile = name.is_empty()
        || name.starts_with('(')
        || name.contains(';')
        || name.chars().any(char::is_whitespace);
    if hostile {
        return Err(LayoutError::CifName { cell: name.into() });
    }
    Ok(())
}

/// Parses CIF text in the dialect [`write_cif`] emits into a fresh
/// [`CellTable`], returning the table and the id of the cell the final
/// top-level `C` statement calls (or of the last `DS` block if the call
/// is absent).
///
/// Coordinates are halved back from CIF's doubled grid and validated
/// against the ingest budget ([`rsg_geom::MAX_COORD`]); widths, heights,
/// and centers whose parity cannot come from the writer are rejected.
///
/// # Errors
///
/// Returns [`LayoutError::Parse`] with a 1-based line number on any
/// malformed statement, and never panics — arbitrary bytes either parse
/// to a layout or produce a typed error.
pub fn read_cif(text: &str) -> Result<(CellTable, CellId), LayoutError> {
    let err = |line: usize, message: String| LayoutError::Parse { line, message };

    let mut table = CellTable::new();
    // CIF symbol number → id of the inserted cell.
    let mut ids: HashMap<i64, CellId> = HashMap::new();
    // (symbol number, definition, declared-at line) of the open DS block.
    let mut current: Option<(i64, CellDefinition, usize)> = None;
    let mut current_layer: Option<Layer> = None;
    let mut anon = 0usize;
    let mut root: Option<CellId> = None;
    let mut ended = false;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        for stmt in raw.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() || stmt.starts_with('(') {
                continue;
            }
            if ended {
                return Err(err(lineno, format!("statement `{stmt}` after E")));
            }
            let mut toks = stmt.split_whitespace();
            let Some(kw) = toks.next() else { continue };
            match kw {
                "DS" => {
                    if current.is_some() {
                        return Err(err(lineno, "nested DS (missing DF?)".into()));
                    }
                    let num = parse_cif_int(toks.next(), lineno)?;
                    // The scale factors: the writer always emits `1 1`;
                    // accept and require exactly that.
                    let a = parse_cif_int(toks.next(), lineno)?;
                    let b = parse_cif_int(toks.next(), lineno)?;
                    if (a, b) != (1, 1) {
                        return Err(err(lineno, format!("unsupported DS scale {a}/{b}")));
                    }
                    anon += 1;
                    let def = CellDefinition::new(format!("cif_{anon}"));
                    current = Some((num, def, lineno));
                    current_layer = None;
                }
                "DF" => {
                    let (num, def, _) = current
                        .take()
                        .ok_or_else(|| err(lineno, "DF outside a DS block".into()))?;
                    let id = table.insert(def).map_err(|e| err(lineno, e.to_string()))?;
                    if ids.insert(num, id).is_some() {
                        return Err(err(lineno, format!("symbol {num} defined twice")));
                    }
                }
                "9" => {
                    let (_, def, at) = current
                        .as_mut()
                        .ok_or_else(|| err(lineno, "9 (name) outside a DS block".into()))?;
                    let name = toks
                        .next()
                        .ok_or_else(|| err(lineno, "9 needs a cell name".into()))?;
                    let mut renamed = CellDefinition::new(name);
                    for obj in def.objects() {
                        match obj {
                            LayoutObject::Box { layer, rect } => {
                                renamed.add_box(*layer, *rect);
                            }
                            LayoutObject::Label { text, at } => {
                                renamed.add_label(text.clone(), *at);
                            }
                            LayoutObject::Instance(inst) => {
                                renamed.add_instance(*inst);
                            }
                        }
                    }
                    let at = *at;
                    if let Some((num, _, _)) = current.take() {
                        current = Some((num, renamed, at));
                    }
                }
                "L" => {
                    if current.is_none() {
                        return Err(err(lineno, "L outside a DS block".into()));
                    }
                    let name = toks
                        .next()
                        .ok_or_else(|| err(lineno, "L needs a layer name".into()))?;
                    let layer: Layer = name
                        .parse()
                        .map_err(|_| err(lineno, format!("unknown layer `{name}`")))?;
                    current_layer = Some(layer);
                }
                "B" => {
                    let (_, def, _) = current
                        .as_mut()
                        .ok_or_else(|| err(lineno, "B outside a DS block".into()))?;
                    let layer = current_layer
                        .ok_or_else(|| err(lineno, "B before any L layer switch".into()))?;
                    let w = parse_cif_int(toks.next(), lineno)?;
                    let h = parse_cif_int(toks.next(), lineno)?;
                    let cx = parse_cif_int(toks.next(), lineno)?;
                    let cy = parse_cif_int(toks.next(), lineno)?;
                    if w < 0 || h < 0 {
                        return Err(err(lineno, format!("negative box size {w}x{h}")));
                    }
                    let x = halved_span(cx, w, lineno)?;
                    let y = halved_span(cy, h, lineno)?;
                    def.add_box(layer, Rect::from_coords(x.0, y.0, x.1, y.1));
                }
                "94" => {
                    let (_, def, _) = current
                        .as_mut()
                        .ok_or_else(|| err(lineno, "94 outside a DS block".into()))?;
                    let text = toks
                        .next()
                        .ok_or_else(|| err(lineno, "94 needs label text".into()))?
                        .to_owned();
                    let x = halved(parse_cif_int(toks.next(), lineno)?, lineno)?;
                    let y = halved(parse_cif_int(toks.next(), lineno)?, lineno)?;
                    def.add_label(text, Point::new(x, y));
                }
                "C" => {
                    let num = parse_cif_int(toks.next(), lineno)?;
                    let target = *ids
                        .get(&num)
                        .ok_or_else(|| err(lineno, format!("call of undefined symbol {num}")))?;
                    match current.as_mut() {
                        None => {
                            // Top-level call: names the root; transforms
                            // are not meaningful here and the writer
                            // never emits them.
                            if toks.next().is_some() {
                                return Err(err(
                                    lineno,
                                    "top-level C with transforms is unsupported".into(),
                                ));
                            }
                            root = Some(target);
                        }
                        Some((_, def, _)) => {
                            let mut mirror_y = false;
                            let mut rotation = Rotation::R0;
                            let mut at = Point::ORIGIN;
                            while let Some(t) = toks.next() {
                                match t {
                                    "MX" => mirror_y = true,
                                    "R" => {
                                        let a = parse_cif_int(toks.next(), lineno)?;
                                        let b = parse_cif_int(toks.next(), lineno)?;
                                        rotation = match (a, b) {
                                            (1, 0) => Rotation::R0,
                                            (0, 1) => Rotation::R90,
                                            (-1, 0) => Rotation::R180,
                                            (0, -1) => Rotation::R270,
                                            _ => {
                                                return Err(err(
                                                    lineno,
                                                    format!("off-axis rotation R {a} {b}"),
                                                ))
                                            }
                                        };
                                    }
                                    "T" => {
                                        let x =
                                            halved(parse_cif_int(toks.next(), lineno)?, lineno)?;
                                        let y =
                                            halved(parse_cif_int(toks.next(), lineno)?, lineno)?;
                                        at = Point::new(x, y);
                                    }
                                    other => {
                                        return Err(err(
                                            lineno,
                                            format!("unknown call transform `{other}`"),
                                        ))
                                    }
                                }
                            }
                            def.add_instance(Instance::new(
                                target,
                                at,
                                Orientation::new(rotation, mirror_y),
                            ));
                        }
                    }
                }
                "E" => {
                    if current.is_some() {
                        return Err(err(lineno, "E inside an unterminated DS block".into()));
                    }
                    ended = true;
                }
                other => return Err(err(lineno, format!("unknown CIF statement `{other}`"))),
            }
        }
    }
    if let Some((num, _, at)) = current {
        return Err(err(at, format!("DS {num} never closed by DF")));
    }
    let root = root
        .or_else(|| {
            table
                .len()
                .checked_sub(1)
                .map(|i| CellId::from_raw(i as u32))
        })
        .ok_or_else(|| err(1, "empty CIF (no DS blocks)".into()))?;
    Ok((table, root))
}

/// Parses one integer token of a CIF statement, bounding it to the
/// doubled ingest budget so later halving cannot overflow.
fn parse_cif_int(tok: Option<&str>, line: usize) -> Result<i64, LayoutError> {
    let err = |message: String| LayoutError::Parse { line, message };
    let t = tok.ok_or_else(|| err("missing numeric field".into()))?;
    let v = t
        .parse::<i64>()
        .map_err(|_| err(format!("bad integer `{t}`")))?;
    let bound = 2 * rsg_geom::MAX_COORD;
    if !(-bound..=bound).contains(&v) {
        return Err(err(format!(
            "coordinate {v} exceeds the ingest budget (|2c| <= {bound})"
        )));
    }
    Ok(v)
}

/// Halves a doubled CIF coordinate, rejecting odd values (the writer
/// only produces even ones).
fn halved(v: i64, line: usize) -> Result<i64, LayoutError> {
    if v % 2 != 0 {
        return Err(LayoutError::Parse {
            line,
            message: format!("odd doubled coordinate {v}"),
        });
    }
    Ok(v / 2)
}

/// Recovers a `(lo, hi)` span from a doubled CIF `(center, size)` pair.
fn halved_span(center: i64, size: i64, line: usize) -> Result<(i64, i64), LayoutError> {
    // center = lo + hi, size = 2·(hi − lo), both within 2·MAX_COORD, so
    // the sums below stay within 4·MAX_COORD ≪ i64::MAX.
    let lo2 = center - size / 2;
    let hi2 = center + size / 2;
    if size % 2 != 0 || lo2 % 2 != 0 {
        return Err(LayoutError::Parse {
            line,
            message: format!("box size/center parity mismatch ({size}, {center})"),
        });
    }
    Ok((lo2 / 2, hi2 / 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellDefinition, Instance, Layer};
    use rsg_geom::{Orientation, Point, Rect};

    fn two_level() -> (CellTable, CellId) {
        let mut t = CellTable::new();
        let mut leaf = CellDefinition::new("leaf");
        leaf.add_box(Layer::Poly, Rect::from_coords(0, 0, 2, 8));
        leaf.add_label("1", Point::new(1, 1));
        let leaf_id = t.insert(leaf).unwrap();
        let mut top = CellDefinition::new("top");
        top.add_instance(Instance::new(
            leaf_id,
            Point::new(10, 0),
            Orientation::SOUTH,
        ));
        top.add_instance(Instance::new(
            leaf_id,
            Point::new(20, 0),
            Orientation::MIRROR_Y,
        ));
        let top_id = t.insert(top).unwrap();
        (t, top_id)
    }

    #[test]
    fn cif_structure() {
        let (t, top) = two_level();
        let cif = write_cif(&t, top).unwrap();
        assert!(cif.starts_with("( CIF"));
        assert!(cif.ends_with("E\n"));
        // leaf (id 1) defined before top (id 2).
        let leaf_pos = cif.find("DS 1 ").unwrap();
        let top_pos = cif.find("DS 2 ").unwrap();
        assert!(leaf_pos < top_pos);
        assert!(cif.contains("L CPG;"));
        // 2x4 box scaled by 2, center (2, 8).
        assert!(cif.contains("B 4 16 2 8;"), "{cif}");
        assert!(cif.contains("94 1 2 2;"));
        // South call: R -1 0, translation doubled.
        assert!(cif.contains("C 1 R -1 0 T 20 0;"), "{cif}");
        // Mirrored call.
        assert!(cif.contains("C 1 MX T 40 0;"), "{cif}");
        // Top-level call of the root.
        assert!(cif.contains("\nC 2;"));
    }

    #[test]
    fn shared_subcells_emitted_once() {
        let (t, top) = two_level();
        let cif = write_cif(&t, top).unwrap();
        assert_eq!(cif.matches("9 leaf;").count(), 1);
    }

    #[test]
    fn flat_cif_emits_every_box_grouped_by_layer() {
        let (t, top) = two_level();
        let flat = crate::flatten(&t, top).unwrap();
        let cif = write_cif_flat(&flat, "top_flat").unwrap();
        assert!(cif.starts_with("( CIF"));
        assert!(cif.ends_with("E\n"));
        assert_eq!(cif.matches("DS ").count(), 1);
        assert_eq!(cif.matches("DF;").count(), 1);
        assert!(cif.contains("9 top_flat;"));
        // Both instances' poly boxes appear flat; one L switch.
        assert_eq!(cif.matches("L CPG;").count(), 1);
        assert_eq!(cif.matches("\nB ").count(), flat.len());
        // South-rotated leaf box at (10,0): (8,-8)..(10,0), doubled center.
        assert!(cif.contains("B 4 16 18 -8;"), "{cif}");
    }

    #[test]
    fn hostile_cell_names_are_rejected_not_truncated() {
        for bad in [
            "",
            "two words",
            "semi;colon",
            "(comment",
            "tab\tname",
            "nl\nname",
        ] {
            let mut t = CellTable::new();
            let mut c = CellDefinition::new(bad);
            c.add_box(Layer::Poly, Rect::from_coords(0, 0, 2, 2));
            let id = t.insert(c).unwrap();
            assert_eq!(
                write_cif(&t, id),
                Err(LayoutError::CifName { cell: bad.into() }),
                "name {bad:?} must be rejected"
            );
            let flat = crate::flatten(&t, id).unwrap();
            assert_eq!(
                write_cif_flat(&flat, bad),
                Err(LayoutError::CifName { cell: bad.into() })
            );
        }
        // Unusual but token-safe names keep working.
        assert_eq!(cif_safe_name("a-b_c.9!"), Ok(()));
    }

    #[test]
    fn cyclic_hierarchy_is_an_error() {
        let mut t = CellTable::new();
        let a = t.insert(CellDefinition::new("a")).unwrap();
        t.get_mut(a)
            .unwrap()
            .add_instance(Instance::new(a, Point::ORIGIN, Orientation::NORTH));
        assert_eq!(
            write_cif(&t, a),
            Err(LayoutError::RecursiveCell("a".into()))
        );
    }
}
