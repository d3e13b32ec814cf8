//! The two PLA generators (RSG vs relocation) and the decoder.

use crate::cells::{sample_layout, BUF_HEIGHT, GRID};
use crate::{AndBit, Personality};
use rsg_core::{Rsg, RsgError};
use rsg_geom::{Orientation, Point};
use rsg_layout::{CellDefinition, CellId, CellTable, Instance};

/// A generated PLA (or decoder) layout.
#[derive(Debug)]
pub struct GeneratedPla {
    /// Generator state (cell + interface tables).
    pub rsg: Rsg,
    /// The top cell.
    pub top: CellId,
}

/// Looks up a sample cell by name; the sample defines every name used
/// here, so a miss is an internal bug, reported as a typed error.
fn require(table: &CellTable, name: &str) -> Result<CellId, RsgError> {
    table
        .lookup(name)
        .ok_or_else(|| RsgError::Layout(rsg_layout::LayoutError::UnknownCell(name.into())))
}

/// Generates a PLA through the RSG: connectivity graph over the sampled
/// interfaces, personalized by crosspoint masks.
///
/// # Errors
///
/// Propagates generator errors (these indicate an internal bug — the
/// sample provides every interface used here).
pub fn rsg_pla(p: &Personality, name: &str) -> Result<GeneratedPla, RsgError> {
    let mut rsg = Rsg::from_sample(sample_layout()?)?;
    let and_sq = require(rsg.cells(), "and_sq")?;
    let or_sq = require(rsg.cells(), "or_sq")?;
    let in_buf = require(rsg.cells(), "in_buf")?;
    let out_buf = require(rsg.cells(), "out_buf")?;
    let xand = require(rsg.cells(), "xand")?;
    let xcomp = require(rsg.cells(), "xcomp")?;
    let xorm = require(rsg.cells(), "xorm")?;

    let (ni, np, no) = (p.inputs(), p.products(), p.outputs());
    let mut first_col_of_row = Vec::with_capacity(np);
    for prod in 0..np {
        // AND row.
        let mut prev = None;
        let mut row_first = None;
        for i in 0..ni {
            let sq = rsg.mk_instance(and_sq);
            if let Some(pv) = prev {
                rsg.connect(pv, sq, 1)?;
            }
            match p.and_bit(prod, i) {
                AndBit::True => {
                    let m = rsg.mk_instance(xand);
                    rsg.connect(sq, m, 1)?;
                }
                AndBit::Comp => {
                    let m = rsg.mk_instance(xcomp);
                    rsg.connect(sq, m, 1)?;
                }
                AndBit::DontCare => {}
            }
            if row_first.is_none() {
                row_first = Some(sq);
            }
            // Input buffers across the top row only.
            if prod == 0 {
                let b = rsg.mk_instance(in_buf);
                rsg.connect(sq, b, 1)?;
            }
            prev = Some(sq);
        }
        // OR row continues to the right.
        for o in 0..no {
            let sq = rsg.mk_instance(or_sq);
            let Some(pv) = prev else {
                return Err(RsgError::Invalid("personality has no input columns".into()));
            };
            rsg.connect(pv, sq, 1)?;
            if p.or_bit(prod, o) {
                let m = rsg.mk_instance(xorm);
                rsg.connect(sq, m, 1)?;
            }
            // Output buffers along the bottom row.
            if prod == np - 1 {
                let b = rsg.mk_instance(out_buf);
                rsg.connect(sq, b, 1)?;
            }
            prev = Some(sq);
        }
        let Some(rf) = row_first else {
            return Err(RsgError::Invalid("personality row is empty".into()));
        };
        if let Some(&prev_first) = first_col_of_row.last() {
            rsg.connect(prev_first, rf, 2)?;
        }
        first_col_of_row.push(rf);
    }
    let top = rsg.mk_cell(name, first_col_of_row[0])?;
    Ok(GeneratedPla { rsg, top })
}

/// The HPLA-style baseline: the same architecture placed by direct pitch
/// arithmetic (the "relocation scheme") with no connectivity graph, no
/// interface table, and the PLA architecture hard-coded.
///
/// Returns a cell table containing the sample cells plus the assembled
/// PLA.
///
/// # Errors
///
/// Propagates sample-layout construction errors; any other failure
/// indicates an internal bug, reported rather than panicked.
pub fn relocation_pla(p: &Personality, name: &str) -> Result<(CellTable, CellId), RsgError> {
    let mut table = sample_layout()?;
    let and_sq = require(&table, "and_sq")?;
    let or_sq = require(&table, "or_sq")?;
    let in_buf = require(&table, "in_buf")?;
    let out_buf = require(&table, "out_buf")?;
    let xand = require(&table, "xand")?;
    let xcomp = require(&table, "xcomp")?;
    let xorm = require(&table, "xorm")?;

    let (ni, np, no) = (p.inputs(), p.products(), p.outputs());
    let mut cell = CellDefinition::new(name);
    let place = |cell: &mut CellDefinition, id: CellId, x: i64, y: i64| {
        cell.add_instance(Instance::new(id, Point::new(x, y), Orientation::NORTH));
    };
    for prod in 0..np {
        let y = -(prod as i64) * GRID;
        for i in 0..ni {
            let x = i as i64 * GRID;
            place(&mut cell, and_sq, x, y);
            match p.and_bit(prod, i) {
                AndBit::True => place(&mut cell, xand, x, y),
                AndBit::Comp => place(&mut cell, xcomp, x, y),
                AndBit::DontCare => {}
            }
            if prod == 0 {
                place(&mut cell, in_buf, x, GRID);
            }
        }
        for o in 0..no {
            let x = (ni + o) as i64 * GRID;
            place(&mut cell, or_sq, x, y);
            if p.or_bit(prod, o) {
                place(&mut cell, xorm, x, y);
            }
            if prod == np - 1 {
                place(&mut cell, out_buf, x, y - BUF_HEIGHT);
            }
        }
    }
    let id = table.insert(cell)?;
    Ok((table, id))
}

/// A decoder from the *same* sample cells: an AND plane with output
/// buffers (§1.2.2). Product terms run as columns; input lines as rows.
///
/// # Errors
///
/// Propagates generator errors.
pub fn rsg_decoder(n: usize, name: &str) -> Result<GeneratedPla, RsgError> {
    let d = Personality::decoder(n);
    let mut rsg = Rsg::from_sample(sample_layout()?)?;
    let and_sq = require(rsg.cells(), "and_sq")?;
    let out_buf = require(rsg.cells(), "out_buf")?;
    let xand = require(rsg.cells(), "xand")?;
    let xcomp = require(rsg.cells(), "xcomp")?;

    let terms = d.products();
    let mut prev_row_first = None;
    let mut root = None;
    for row in 0..n {
        let mut prev = None;
        for t in 0..terms {
            let sq = rsg.mk_instance(and_sq);
            if let Some(pv) = prev {
                rsg.connect(pv, sq, 1)?;
            } else if let Some(prf) = prev_row_first {
                rsg.connect(prf, sq, 2)?;
            }
            let m = rsg.mk_instance(if t >> row & 1 == 1 { xand } else { xcomp });
            rsg.connect(sq, m, 1)?;
            // Output buffers under the bottom row.
            if row == n - 1 {
                let b = rsg.mk_instance(out_buf);
                rsg.connect(sq, b, 1)?;
            }
            if prev.is_none() {
                prev_row_first = Some(sq);
                if root.is_none() {
                    root = Some(sq);
                }
            }
            prev = Some(sq);
        }
    }
    let Some(root) = root else {
        return Err(RsgError::Invalid("decoder needs n >= 1 inputs".into()));
    };
    let top = rsg.mk_cell(name, root)?;
    Ok(GeneratedPla { rsg, top })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_layout::stats::LayoutStats;
    use std::collections::BTreeMap;

    fn xor_personality() -> Personality {
        Personality::parse(&["10 10", "01 10", "11 01"], 2, 2).unwrap()
    }

    fn flat_signature(
        cells: &CellTable,
        top: CellId,
    ) -> BTreeMap<(rsg_layout::Layer, rsg_geom::Rect), usize> {
        let mut sig = BTreeMap::new();
        for b in rsg_layout::flatten(cells, top).unwrap() {
            *sig.entry(b).or_insert(0) += 1;
        }
        sig
    }

    #[test]
    fn rsg_pla_counts() {
        let p = xor_personality();
        let out = rsg_pla(&p, "pla").unwrap();
        let def = out.rsg.cells().require(out.top).unwrap();
        let count = |name: &str| {
            let id = out.rsg.cells().lookup(name).unwrap();
            def.instances().filter(|i| i.cell == id).count()
        };
        assert_eq!(count("and_sq"), 2 * 3);
        assert_eq!(count("or_sq"), 2 * 3);
        assert_eq!(count("in_buf"), 2);
        assert_eq!(count("out_buf"), 2);
        let (and_x, or_x) = p.crosspoint_counts();
        assert_eq!(count("xand") + count("xcomp"), and_x);
        assert_eq!(count("xorm"), or_x);
    }

    #[test]
    fn rsg_equals_relocation_baseline() {
        // §1.2.2: "The RSG can generate any PLA that HPLA can" — the flat
        // geometry must be identical.
        for rows in [
            vec!["10 1", "01 1"],
            vec!["10 10", "01 10", "11 01"],
            vec!["1-0 100", "011 010", "--1 001", "101 111"],
        ] {
            let ni = rows[0].split_whitespace().next().unwrap().len();
            let no = rows[0].split_whitespace().nth(1).unwrap().len();
            let p = Personality::parse(&rows, ni, no).unwrap();
            let a = rsg_pla(&p, "pla").unwrap();
            let (bt, bid) = relocation_pla(&p, "pla_relo").unwrap();
            assert_eq!(
                flat_signature(a.rsg.cells(), a.top),
                flat_signature(&bt, bid),
                "{rows:?}"
            );
        }
    }

    #[test]
    fn decoder_from_same_sample() {
        let out = rsg_decoder(3, "dec3").unwrap();
        let def = out.rsg.cells().require(out.top).unwrap();
        let count = |name: &str| {
            let id = out.rsg.cells().lookup(name).unwrap();
            def.instances().filter(|i| i.cell == id).count()
        };
        assert_eq!(count("and_sq"), 3 * 8);
        assert_eq!(count("out_buf"), 8);
        assert_eq!(count("xand") + count("xcomp"), 24);
        // No OR plane at all — different architecture, same cells.
        assert_eq!(count("or_sq"), 0);
        let stats = LayoutStats::compute(out.rsg.cells(), out.top).unwrap();
        assert!(stats.total_boxes > 0);
    }

    #[test]
    fn generated_pla_is_gridded() {
        let p = xor_personality();
        let out = rsg_pla(&p, "pla").unwrap();
        let def = out.rsg.cells().require(out.top).unwrap();
        let and_id = out.rsg.cells().lookup("and_sq").unwrap();
        for inst in def.instances().filter(|i| i.cell == and_id) {
            assert_eq!(inst.point_of_call.x.rem_euclid(GRID), 0);
            assert_eq!(inst.point_of_call.y.rem_euclid(GRID), 0);
        }
    }
}
