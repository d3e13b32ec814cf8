//! Design-by-example interface extraction from a sample layout.
//!
//! "One merely provides an example of the interface, and places a numerical
//! label in the overlapping region" (paper Chapter 5, Fig 5.5). The rule
//! implemented here:
//!
//! * every [`rsg_layout::LayoutObject::Label`] whose text parses as a `u32`
//!   is an interface declaration;
//! * the two instances it declares are those whose *deep bounding box*
//!   (the bounding box of the instance's cell flattened, taken through the
//!   calling isometry) contains the label anchor point;
//! * the **reference** instance — the one deskewed to north, from whose
//!   point of call the interface vector starts — is the instance that
//!   appears *earlier* in the cell's object list. This is the graphical
//!   discrimination of §3.4 (Fig 3.7): the sample's author controls which
//!   of the two same-celltype instances is `A₁` simply by drawing it first.

use crate::{Interface, RsgError};
use rsg_geom::BoundingBox;
use rsg_layout::{CellId, CellTable, Instance};

/// One interface mined from the sample layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractedInterface {
    /// Reference cell (deskewed to north in the interface definition).
    pub cell_a: CellId,
    /// The other cell.
    pub cell_b: CellId,
    /// Interface index number (the label text).
    pub index: u32,
    /// The interface itself.
    pub interface: Interface,
    /// The sample cell the example appeared in.
    pub found_in: CellId,
}

/// Scans every cell of a sample layout and extracts all labelled
/// interfaces.
///
/// # Errors
///
/// Returns [`RsgError::AmbiguousLabel`] when a numeric label's anchor is
/// contained in fewer or more than two instance bounding boxes, and
/// propagates layout errors (dangling ids, recursion) from the hierarchy
/// walk under each instance.
pub fn extract_interfaces(sample: &CellTable) -> Result<Vec<ExtractedInterface>, RsgError> {
    let mut out = Vec::new();
    let mut deep = DeepBoxes::new(sample);
    for (cell_id, def) in sample.iter() {
        let instances: Vec<Instance> = def.instances().copied().collect();
        if instances.is_empty() {
            continue;
        }
        // Deep bbox of each instance, in the sample cell's coordinates.
        let mut bboxes = Vec::with_capacity(instances.len());
        for inst in &instances {
            bboxes.push(deep.of_instance(inst)?);
        }
        for (text, at) in def.labels() {
            let Ok(index) = text.parse::<u32>() else {
                continue;
            };
            let hits: Vec<usize> = bboxes
                .iter()
                .enumerate()
                .filter(|(_, bb)| bb.rect().is_some_and(|r| r.contains(at)))
                .map(|(i, _)| i)
                .collect();
            if hits.len() != 2 {
                return Err(RsgError::AmbiguousLabel {
                    cell: def.name().to_owned(),
                    label: text.to_owned(),
                    hits: hits.len(),
                });
            }
            // Earlier-drawn instance is the reference (A₁ of Fig 3.7).
            let (ia, ib) = (instances[hits[0]], instances[hits[1]]);
            out.push(ExtractedInterface {
                cell_a: ia.cell,
                cell_b: ib.cell,
                index,
                interface: Interface::between(ia.isometry(), ib.isometry()),
                found_in: cell_id,
            });
        }
    }
    Ok(out)
}

/// The deep bounding boxes of a sample's definitions — the bounding box
/// of each definition flattened — folded once per definition over a
/// [`CellTable::bottom_up`] order: a definition's own boxes united with
/// each child's deep box taken through the calling isometry. Every
/// orientation maps rectangles to rectangles, so the fold is exact.
struct DeepBoxes<'a> {
    sample: &'a CellTable,
    /// `bbox[id]`: the deep bounding box of cell `id`, once folded.
    bbox: Vec<Option<BoundingBox>>,
}

impl<'a> DeepBoxes<'a> {
    fn new(sample: &'a CellTable) -> DeepBoxes<'a> {
        DeepBoxes {
            sample,
            bbox: vec![None; sample.len()],
        }
    }

    /// The deep bounding box of one instance, in the calling cell's
    /// coordinates.
    fn of_instance(&mut self, inst: &Instance) -> Result<BoundingBox, RsgError> {
        let deep = self.of(inst.cell)?;
        let iso = inst.isometry();
        Ok(deep.rect().map(|r| r.transform(iso)).into_iter().collect())
    }

    /// The deep bounding box of `cell`, folding every definition below it
    /// not folded yet.
    ///
    /// # Errors
    ///
    /// The layout error [`CellTable::bottom_up`] meets under `cell`.
    fn of(&mut self, cell: CellId) -> Result<BoundingBox, RsgError> {
        let slot = |id: CellId| id.raw() as usize;
        if let Some(&Some(bb)) = self.bbox.get(slot(cell)) {
            return Ok(bb);
        }
        for id in self.sample.bottom_up(cell)? {
            if self.bbox[slot(id)].is_some() {
                continue;
            }
            let def = self.sample.require(id)?;
            let mut bb = def.local_bbox();
            for inst in def.instances() {
                if let Some(r) = self.bbox[slot(inst.cell)].and_then(BoundingBox::rect) {
                    bb.include_rect(r.transform(inst.isometry()));
                }
            }
            self.bbox[slot(id)] = Some(bb);
        }
        Ok(self.bbox[slot(cell)].unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_geom::{Orientation, Point, Rect, Vector};
    use rsg_layout::{CellDefinition, Layer};

    fn tile_cell() -> CellDefinition {
        let mut c = CellDefinition::new("tile");
        c.add_box(Layer::Metal1, Rect::from_coords(0, 0, 10, 10));
        c
    }

    #[test]
    fn extracts_overlap_labelled_interface() {
        let mut t = CellTable::new();
        let tile = t.insert(tile_cell()).unwrap();
        let mut pair = CellDefinition::new("pair");
        pair.add_instance(Instance::new(tile, Point::new(0, 0), Orientation::NORTH));
        pair.add_instance(Instance::new(tile, Point::new(8, 0), Orientation::NORTH));
        pair.add_label("1", Point::new(9, 5));
        t.insert(pair).unwrap();

        let found = extract_interfaces(&t).unwrap();
        assert_eq!(found.len(), 1);
        let e = found[0];
        assert_eq!(e.index, 1);
        assert_eq!((e.cell_a, e.cell_b), (tile, tile));
        assert_eq!(
            e.interface,
            Interface::new(Vector::new(8, 0), Orientation::NORTH)
        );
    }

    #[test]
    fn reference_instance_is_first_drawn() {
        // Same geometry, reversed drawing order: the extracted interface
        // must flip to keep the first-drawn instance as reference.
        let mut t = CellTable::new();
        let tile = t.insert(tile_cell()).unwrap();
        let mut pair = CellDefinition::new("pair");
        pair.add_instance(Instance::new(tile, Point::new(8, 0), Orientation::NORTH));
        pair.add_instance(Instance::new(tile, Point::new(0, 0), Orientation::NORTH));
        pair.add_label("1", Point::new(9, 5));
        t.insert(pair).unwrap();

        let found = extract_interfaces(&t).unwrap();
        assert_eq!(
            found[0].interface,
            Interface::new(Vector::new(-8, 0), Orientation::NORTH)
        );
    }

    #[test]
    fn non_numeric_labels_ignored() {
        let mut t = CellTable::new();
        let tile = t.insert(tile_cell()).unwrap();
        let mut pair = CellDefinition::new("pair");
        pair.add_instance(Instance::new(tile, Point::new(0, 0), Orientation::NORTH));
        pair.add_instance(Instance::new(tile, Point::new(8, 0), Orientation::NORTH));
        pair.add_label("vdd", Point::new(9, 5));
        t.insert(pair).unwrap();
        assert!(extract_interfaces(&t).unwrap().is_empty());
    }

    #[test]
    fn ambiguous_label_is_an_error() {
        let mut t = CellTable::new();
        let tile = t.insert(tile_cell()).unwrap();
        let mut trio = CellDefinition::new("trio");
        for x in [0, 4, 8] {
            trio.add_instance(Instance::new(tile, Point::new(x, 0), Orientation::NORTH));
        }
        trio.add_label("1", Point::new(9, 5)); // inside all three bboxes
        t.insert(trio).unwrap();
        let err = extract_interfaces(&t).unwrap_err();
        assert!(matches!(err, RsgError::AmbiguousLabel { hits: 3, .. }));
    }

    #[test]
    fn label_outside_everything_is_an_error() {
        let mut t = CellTable::new();
        let tile = t.insert(tile_cell()).unwrap();
        let mut pair = CellDefinition::new("pair");
        pair.add_instance(Instance::new(tile, Point::new(0, 0), Orientation::NORTH));
        pair.add_instance(Instance::new(tile, Point::new(8, 0), Orientation::NORTH));
        pair.add_label("1", Point::new(100, 100));
        t.insert(pair).unwrap();
        let err = extract_interfaces(&t).unwrap_err();
        assert!(matches!(err, RsgError::AmbiguousLabel { hits: 0, .. }));
    }

    #[test]
    fn oriented_instances_extract_correctly() {
        // The second tile is south-rotated and overlapping; reconstruct its
        // call from the interface and check it round-trips.
        let mut t = CellTable::new();
        let tile = t.insert(tile_cell()).unwrap();
        let call_a = Instance::new(tile, Point::new(0, 0), Orientation::NORTH);
        let call_b = Instance::new(tile, Point::new(19, 10), Orientation::SOUTH);
        let mut pair = CellDefinition::new("pair");
        pair.add_instance(call_a);
        pair.add_instance(call_b);
        pair.add_label("4", Point::new(9, 5)); // in both (b covers 9..19 x 0..10)
        t.insert(pair).unwrap();

        let e = extract_interfaces(&t).unwrap()[0];
        assert_eq!(e.index, 4);
        assert_eq!(
            e.interface.place_second(call_a.isometry()),
            call_b.isometry()
        );
    }

    #[test]
    fn labels_in_multiple_cells() {
        let mut t = CellTable::new();
        let tile = t.insert(tile_cell()).unwrap();
        for (name, dx) in [("p1", 8), ("p2", 6)] {
            let mut pair = CellDefinition::new(name);
            pair.add_instance(Instance::new(tile, Point::new(0, 0), Orientation::NORTH));
            pair.add_instance(Instance::new(tile, Point::new(dx, 0), Orientation::NORTH));
            pair.add_label(if dx == 8 { "1" } else { "2" }, Point::new(dx + 1, 5));
            t.insert(pair).unwrap();
        }
        let found = extract_interfaces(&t).unwrap();
        assert_eq!(found.len(), 2);
        let idx: Vec<u32> = found.iter().map(|e| e.index).collect();
        assert!(idx.contains(&1) && idx.contains(&2));
    }

    /// The folded deep bounding box of every instance equals the bounding
    /// box of its cell flattened and then transformed, on a nested sample
    /// whose calls take all eight orientations (rotations and mirrors),
    /// with an empty cell and a zero-area box among the definitions.
    #[test]
    fn folded_deep_boxes_match_flattening_on_every_instance() {
        let mut t = CellTable::new();
        let mut leaf = CellDefinition::new("leaf");
        leaf.add_box(Layer::Metal1, Rect::from_coords(0, 0, 10, 3));
        leaf.add_box(Layer::Poly, Rect::from_coords(2, -5, 4, 7));
        leaf.add_box(Layer::Poly, Rect::from_coords(13, 1, 13, 9));
        let leaf = t.insert(leaf).unwrap();
        let empty = t.insert(CellDefinition::new("empty")).unwrap();
        let mut mid = CellDefinition::new("mid");
        mid.add_box(Layer::Diffusion, Rect::from_coords(-6, 20, -2, 26));
        for (k, o) in Orientation::ALL.into_iter().enumerate() {
            let k = k as i64;
            mid.add_instance(Instance::new(leaf, Point::new(17 * k, -3 * k), o));
        }
        mid.add_instance(Instance::new(
            empty,
            Point::new(500, 500),
            Orientation::EAST,
        ));
        let mid = t.insert(mid).unwrap();
        let mut top = CellDefinition::new("top");
        for (k, o) in Orientation::ALL.into_iter().enumerate() {
            let k = k as i64;
            top.add_instance(Instance::new(mid, Point::new(-40 * k, 90 + 11 * k), o));
        }
        top.add_instance(Instance::new(leaf, Point::new(3, 4), Orientation::MIRROR_X));
        let top = t.insert(top).unwrap();

        // One fold from the top covers every definition below it ...
        let whole = rsg_layout::flatten(&t, top).unwrap().bbox();
        assert_eq!(DeepBoxes::new(&t).of(top).unwrap(), whole);
        // ... and definition-by-definition folds reuse the finished ones.
        let mut deep = DeepBoxes::new(&t);
        let mut instances = 0;
        for (id, def) in t.iter() {
            let flat = rsg_layout::flatten(&t, id).unwrap();
            assert_eq!(deep.of(id).unwrap(), flat.bbox(), "{}", def.name());
            for inst in def.instances() {
                let iso = inst.isometry();
                let flat = rsg_layout::flatten(&t, inst.cell).unwrap();
                let want: BoundingBox = flat.into_iter().map(|(_, r)| r.transform(iso)).collect();
                assert_eq!(deep.of_instance(inst).unwrap(), want, "{inst:?}");
                instances += 1;
            }
        }
        assert_eq!(instances, 18);
    }
}
