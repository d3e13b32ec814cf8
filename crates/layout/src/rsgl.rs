//! The `.rsgl` textual layout format: a simple, line-oriented hierarchical
//! format with both a writer and a reader.
//!
//! This stands in for the paper's second format ("DEF", ref. [2] — an
//! internal MIT format, not the later IC DEF). Having a *readable* format
//! matters because RSG sample layouts are inputs: "The RSG can be made to
//! accept any file format by providing an appropriate parser" (§4.5).
//!
//! Grammar (one statement per line, `#` comments):
//!
//! ```text
//! cell <name>
//!   box <layer> <x_lo> <y_lo> <x_hi> <y_hi>
//!   label <text> <x> <y>
//!   inst <cellname> <orientation> <x> <y>
//! end
//! ```
//!
//! Cells must be defined before they are instantiated (callee-first order —
//! the writer emits them that way).

use crate::{CellDefinition, CellId, CellTable, Instance, Layer, LayoutError, LayoutObject};
use rsg_geom::{Orientation, Point, Rect};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serializes the hierarchy under `root` in `.rsgl` form.
///
/// # Errors
///
/// Fails on cyclic hierarchies or dangling instance ids.
pub fn write_rsgl(table: &CellTable, root: CellId) -> Result<String, LayoutError> {
    let mut out = String::new();
    out.push_str("# rsgl 1\n");
    for id in table.bottom_up(root)? {
        let def = table.require(id)?;
        let _ = writeln!(out, "cell {}", def.name());
        for obj in def.objects() {
            match obj {
                LayoutObject::Box { layer, rect } => {
                    let _ = writeln!(
                        out,
                        "  box {} {} {} {} {}",
                        layer.short_name(),
                        rect.lo().x,
                        rect.lo().y,
                        rect.hi().x,
                        rect.hi().y
                    );
                }
                LayoutObject::Label { text, at } => {
                    let _ = writeln!(out, "  label {} {} {}", text, at.x, at.y);
                }
                LayoutObject::Instance(inst) => {
                    let name = table.require(inst.cell)?.name();
                    let _ = writeln!(
                        out,
                        "  inst {} {} {} {}",
                        name,
                        inst.orientation.name(),
                        inst.point_of_call.x,
                        inst.point_of_call.y
                    );
                }
            }
        }
        out.push_str("end\n");
    }
    let _ = writeln!(out, "top {}", table.require(root)?.name());
    Ok(out)
}

/// Parses `.rsgl` text into a fresh [`CellTable`], returning the table and
/// the id of the `top` cell (or of the last cell if no `top` line).
///
/// # Errors
///
/// Returns [`LayoutError::Parse`] with a 1-based line number on malformed
/// input, unknown layers/orientations, or forward instance references.
pub fn read_rsgl(text: &str) -> Result<(CellTable, CellId), LayoutError> {
    let mut table = CellTable::new();
    let mut ids: HashMap<String, CellId> = HashMap::new();
    let mut current: Option<CellDefinition> = None;
    let mut top: Option<CellId> = None;

    let err = |line: usize, message: &str| LayoutError::Parse {
        line,
        message: message.into(),
    };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let Some(kw) = toks.next() else {
            continue; // unreachable: `line` is non-empty — but no panic path
        };
        match kw {
            "cell" => {
                if current.is_some() {
                    return Err(err(lineno, "nested `cell` (missing `end`?)"));
                }
                let name = toks
                    .next()
                    .ok_or_else(|| err(lineno, "cell needs a name"))?;
                current = Some(CellDefinition::new(name));
            }
            "end" => {
                let def = current
                    .take()
                    .ok_or_else(|| err(lineno, "`end` outside a cell"))?;
                let name = def.name().to_owned();
                let id = table.insert(def).map_err(|e| err(lineno, &e.to_string()))?;
                ids.insert(name, id);
            }
            "box" => {
                let cell = current
                    .as_mut()
                    .ok_or_else(|| err(lineno, "`box` outside a cell"))?;
                let layer: Layer = toks
                    .next()
                    .ok_or_else(|| err(lineno, "box needs a layer"))?
                    .parse()
                    .map_err(|e| err(lineno, &format!("{e}")))?;
                let nums = parse_ints::<4>(&mut toks).map_err(|m| err(lineno, &m))?;
                if nums[0] > nums[2] || nums[1] > nums[3] {
                    return Err(err(lineno, "box corners out of order"));
                }
                cell.add_box(layer, Rect::from_coords(nums[0], nums[1], nums[2], nums[3]));
            }
            "label" => {
                let cell = current
                    .as_mut()
                    .ok_or_else(|| err(lineno, "`label` outside a cell"))?;
                let text = toks
                    .next()
                    .ok_or_else(|| err(lineno, "label needs text"))?
                    .to_owned();
                let nums = parse_ints::<2>(&mut toks).map_err(|m| err(lineno, &m))?;
                cell.add_label(text, Point::new(nums[0], nums[1]));
            }
            "inst" => {
                let name = toks
                    .next()
                    .ok_or_else(|| err(lineno, "inst needs a cell name"))?
                    .to_owned();
                let target = *ids
                    .get(&name)
                    .ok_or_else(|| err(lineno, &format!("instance of undefined cell `{name}`")))?;
                let o = toks
                    .next()
                    .ok_or_else(|| err(lineno, "inst needs an orientation"))?;
                let orientation = Orientation::from_name(o)
                    .ok_or_else(|| err(lineno, &format!("unknown orientation `{o}`")))?;
                let nums = parse_ints::<2>(&mut toks).map_err(|m| err(lineno, &m))?;
                let cell = current
                    .as_mut()
                    .ok_or_else(|| err(lineno, "`inst` outside a cell"))?;
                cell.add_instance(Instance::new(
                    target,
                    Point::new(nums[0], nums[1]),
                    orientation,
                ));
            }
            "top" => {
                let name = toks
                    .next()
                    .ok_or_else(|| err(lineno, "top needs a cell name"))?;
                top = Some(
                    *ids.get(name)
                        .ok_or_else(|| err(lineno, &format!("top cell `{name}` undefined")))?,
                );
            }
            other => return Err(err(lineno, &format!("unknown keyword `{other}`"))),
        }
    }
    if current.is_some() {
        return Err(err(
            text.lines().count(),
            "unterminated cell at end of file",
        ));
    }
    let top = top
        .or_else(|| {
            table
                .len()
                .checked_sub(1)
                .map(|i| CellId::from_raw(i as u32))
        })
        .ok_or_else(|| err(1, "empty layout"))?;
    Ok((table, top))
}

fn parse_ints<'a, const N: usize>(
    toks: &mut impl Iterator<Item = &'a str>,
) -> Result<[i64; N], String> {
    let mut out = [0i64; N];
    for slot in out.iter_mut() {
        let t = toks
            .next()
            .ok_or_else(|| "missing numeric field".to_owned())?;
        let v = t.parse::<i64>().map_err(|_| format!("bad integer `{t}`"))?;
        if !(-rsg_geom::MAX_COORD..=rsg_geom::MAX_COORD).contains(&v) {
            return Err(format!(
                "coordinate {v} exceeds the ingest budget (|c| <= {})",
                rsg_geom::MAX_COORD
            ));
        }
        *slot = v;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (CellTable, CellId) {
        let mut t = CellTable::new();
        let mut leaf = CellDefinition::new("leaf");
        leaf.add_box(Layer::Diffusion, Rect::from_coords(0, 0, 4, 4));
        leaf.add_label("7", Point::new(2, 2));
        let leaf_id = t.insert(leaf).unwrap();
        let mut top = CellDefinition::new("top");
        top.add_instance(Instance::new(leaf_id, Point::new(8, 0), Orientation::EAST));
        top.add_box(Layer::Metal1, Rect::from_coords(-2, -2, 0, 10));
        let top_id = t.insert(top).unwrap();
        (t, top_id)
    }

    #[test]
    fn round_trip() {
        let (t, top) = sample();
        let text = write_rsgl(&t, top).unwrap();
        let (t2, top2) = read_rsgl(&text).unwrap();
        assert_eq!(t2.require(top2).unwrap().name(), "top");
        let leaf2 = t2.lookup("leaf").unwrap();
        let leaf = t2.require(leaf2).unwrap();
        assert_eq!(leaf.object_counts(), (1, 1, 0));
        assert_eq!(
            leaf.boxes().next().unwrap(),
            (Layer::Diffusion, Rect::from_coords(0, 0, 4, 4))
        );
        let top_def = t2.require(top2).unwrap();
        let inst = top_def.instances().next().unwrap();
        assert_eq!(inst.orientation, Orientation::EAST);
        assert_eq!(inst.point_of_call, Point::new(8, 0));
        // Write again: stable.
        assert_eq!(write_rsgl(&t2, top2).unwrap(), text);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\ncell a\n  box poly 0 0 2 2 # trailing\nend\ntop a\n";
        let (t, top) = read_rsgl(text).unwrap();
        assert_eq!(t.require(top).unwrap().name(), "a");
    }

    #[test]
    fn error_line_numbers() {
        let text = "cell a\n  box plutonium 0 0 1 1\nend\n";
        match read_rsgl(text) {
            Err(LayoutError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn forward_reference_rejected() {
        let text = "cell a\n  inst b N 0 0\nend\ncell b\nend\n";
        assert!(matches!(
            read_rsgl(text),
            Err(LayoutError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn unterminated_cell_rejected() {
        assert!(read_rsgl("cell a\n  box poly 0 0 1 1\n").is_err());
    }

    #[test]
    fn inverted_box_rejected() {
        assert!(read_rsgl("cell a\n  box poly 5 0 1 1\nend\n").is_err());
    }

    #[test]
    fn default_top_is_last_cell() {
        let (t, top) = read_rsgl("cell a\nend\ncell b\nend\n").unwrap();
        assert_eq!(t.require(top).unwrap().name(), "b");
    }
}
