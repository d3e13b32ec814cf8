//! Hierarchical flattening of a cell to absolute-coordinate boxes.
//!
//! [`flatten`] expands the hierarchy once for the whole flat pipeline
//! and returns a [`FlatLayout`]: the box list, also held as the
//! `(Layer, Rect)` slice that DRC and the compactor take, so no consumer
//! converts it again. Like every hierarchy consumer it checks the
//! hierarchy through [`CellTable::bottom_up`] first; the expansion
//! itself is iterative.

use crate::{CellDefinition, CellId, CellTable, Layer, LayoutError};
use rsg_geom::{BoundingBox, Isometry, Rect};

/// A box in the flattened, absolute coordinate system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlatBox {
    /// Mask layer of the box.
    pub layer: Layer,
    /// Absolute geometry.
    pub rect: Rect,
    /// Hierarchy depth at which the box was found (0 = in the root cell).
    pub depth: u32,
}

/// A flattened layout: absolute-coordinate boxes, the same boxes as
/// `(Layer, Rect)` pairs, and the expansion's tallies.
///
/// Returned by [`flatten`]; consumed by [`crate::drc::check_flat`],
/// [`crate::stats::LayoutStats`], [`crate::write_cif_flat`], and the
/// compaction entry points (via [`FlatLayout::layer_rects`] /
/// [`FlatLayout::to_cell`]). Indexing, iteration, and `len` behave like
/// the underlying `Vec<FlatBox>`.
#[derive(Debug, Clone)]
pub struct FlatLayout {
    boxes: Vec<FlatBox>,
    rects: Vec<(Layer, Rect)>,
    total_instances: usize,
    distinct_cells: usize,
    max_depth: u32,
}

impl FlatLayout {
    /// Builds a flat layout directly from a box list — the entry point
    /// for geometry that never lived in a hierarchy.
    /// With no hierarchy behind it, instance and cell tallies are
    /// the single-cell defaults; depth comes from the boxes themselves.
    pub fn from_boxes(boxes: Vec<FlatBox>) -> FlatLayout {
        let rects = boxes.iter().map(|b| (b.layer, b.rect)).collect();
        let max_depth = boxes.iter().map(|b| b.depth).max().unwrap_or(0);
        FlatLayout {
            boxes,
            rects,
            total_instances: 0,
            distinct_cells: 1,
            max_depth,
        }
    }

    /// The flat boxes, in discovery (pre-order) order.
    pub fn boxes(&self) -> &[FlatBox] {
        &self.boxes
    }

    /// Iterates over the flat boxes.
    pub fn iter(&self) -> std::slice::Iter<'_, FlatBox> {
        self.boxes.iter()
    }

    /// Number of flat boxes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// `true` when the layout holds no boxes.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The boxes as `(layer, rect)` pairs — the slice shape the
    /// constraint generator and DRC take, with no per-caller conversion.
    pub fn layer_rects(&self) -> &[(Layer, Rect)] {
        &self.rects
    }

    /// Bounding box of all flat boxes.
    pub fn bbox(&self) -> BoundingBox {
        self.boxes.iter().map(|b| b.rect).collect()
    }

    /// Every expanded instance call counted during the expansion.
    pub fn total_instances(&self) -> usize {
        self.total_instances
    }

    /// Distinct cell definitions reachable from the root.
    pub fn distinct_cells(&self) -> usize {
        self.distinct_cells
    }

    /// Maximum hierarchy depth visited.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Packages the flat boxes as a single leaf [`CellDefinition`] — the
    /// bridge from a flattened layout into the leaf compactor, which
    /// works on cells.
    pub fn to_cell(&self, name: impl Into<String>) -> CellDefinition {
        let mut cell = CellDefinition::new(name);
        for b in &self.boxes {
            cell.add_box(b.layer, b.rect);
        }
        cell
    }
}

impl std::ops::Index<usize> for FlatLayout {
    type Output = FlatBox;

    fn index(&self, k: usize) -> &FlatBox {
        &self.boxes[k]
    }
}

impl IntoIterator for FlatLayout {
    type Item = FlatBox;
    type IntoIter = std::vec::IntoIter<FlatBox>;

    fn into_iter(self) -> Self::IntoIter {
        self.boxes.into_iter()
    }
}

impl<'a> IntoIterator for &'a FlatLayout {
    type Item = &'a FlatBox;
    type IntoIter = std::slice::Iter<'a, FlatBox>;

    fn into_iter(self) -> Self::IntoIter {
        self.boxes.iter()
    }
}

/// Flattens `root` into a [`FlatLayout`] covering all layers.
///
/// Labels are dropped (they are annotations); instances are expanded by
/// composing calling isometries, the `I₂(I₁(Ob))` chain of paper §2.6.
/// The expansion also tallies instances and depth, and the hierarchy
/// order behind it counts the reachable cells, so
/// [`crate::stats::LayoutStats`] needs no second traversal.
///
/// # Errors
///
/// Returns [`LayoutError::UnknownCell`] for dangling ids and
/// [`LayoutError::RecursiveCell`] if the hierarchy is cyclic.
pub fn flatten(table: &CellTable, root: CellId) -> Result<FlatLayout, LayoutError> {
    let mut boxes = Vec::new();
    let tally = expand(table, root, |layer, rect, depth| {
        boxes.push(FlatBox { layer, rect, depth });
    })?;
    let rects = boxes.iter().map(|b| (b.layer, b.rect)).collect();
    Ok(FlatLayout {
        boxes,
        rects,
        total_instances: tally.instances,
        distinct_cells: tally.cells,
        max_depth: tally.max_depth,
    })
}

/// Flattens `root` keeping only boxes of one layer — cheaper when a single
/// mask is wanted (e.g. DRC on poly only).
///
/// # Errors
///
/// As [`flatten`].
pub fn flatten_boxes_of(
    table: &CellTable,
    root: CellId,
    wanted: Layer,
) -> Result<Vec<Rect>, LayoutError> {
    let mut out = Vec::new();
    expand(table, root, |layer, rect, _| {
        if layer == wanted {
            out.push(rect);
        }
    })?;
    Ok(out)
}

/// What one expansion counted.
struct Tally {
    /// Distinct cells reachable from the root.
    cells: usize,
    /// Every expanded instance call.
    instances: usize,
    /// Deepest level expanded.
    max_depth: u32,
}

/// Expands every instance under `root` in pre-order, handing each box to
/// `sink` in absolute coordinates with its depth: a cell's own boxes
/// first, then its instances in object order. The cycle and
/// dangling-id checks run up front in [`CellTable::bottom_up`]; the
/// expansion itself keeps an explicit `(isometry, depth, remaining
/// instances)` stack, so depth costs heap, never call stack.
fn expand(
    table: &CellTable,
    root: CellId,
    mut sink: impl FnMut(Layer, Rect, u32),
) -> Result<Tally, LayoutError> {
    let cells = table.bottom_up(root)?.len();
    let mut tally = Tally {
        cells,
        instances: 0,
        max_depth: 0,
    };
    let def = table.require(root)?;
    for (layer, rect) in def.boxes() {
        sink(layer, rect, 0);
    }
    let mut stack = vec![(Isometry::IDENTITY, 0u32, def.instances())];
    while let Some((iso, depth, kids)) = stack.last_mut() {
        let Some(inst) = kids.next() else {
            stack.pop();
            continue;
        };
        let (iso, depth) = (iso.compose(inst.isometry()), *depth + 1);
        let def = table.require(inst.cell)?;
        tally.instances += 1;
        tally.max_depth = tally.max_depth.max(depth);
        for (layer, rect) in def.boxes() {
            sink(layer, rect.transform(iso), depth);
        }
        stack.push((iso, depth, def.instances()));
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellDefinition, Instance};
    use rsg_geom::{Orientation, Point};

    fn leaf_table() -> (CellTable, CellId) {
        let mut t = CellTable::new();
        let mut leaf = CellDefinition::new("leaf");
        leaf.add_box(Layer::Metal1, Rect::from_coords(0, 0, 4, 2));
        let id = t.insert(leaf).unwrap();
        (t, id)
    }

    #[test]
    fn flat_leaf() {
        let (t, id) = leaf_table();
        let flat = flatten(&t, id).unwrap();
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].rect, Rect::from_coords(0, 0, 4, 2));
        assert_eq!(flat[0].depth, 0);
        assert_eq!(flat.total_instances(), 0);
        assert_eq!(flat.distinct_cells(), 1);
        assert_eq!(flat.max_depth(), 0);
    }

    #[test]
    fn nested_instances_compose() {
        let (mut t, leaf) = leaf_table();
        let mut mid = CellDefinition::new("mid");
        mid.add_instance(Instance::new(leaf, Point::new(10, 0), Orientation::SOUTH));
        let mid_id = t.insert(mid).unwrap();
        let mut top = CellDefinition::new("top");
        top.add_instance(Instance::new(
            mid_id,
            Point::new(0, 100),
            Orientation::NORTH,
        ));
        let top_id = t.insert(top).unwrap();

        let flat = flatten(&t, top_id).unwrap();
        assert_eq!(flat.len(), 1);
        // leaf box (0,0)-(4,2) south-rotated => (-4,-2)-(0,0), +(10,0), +(0,100).
        assert_eq!(flat[0].rect, Rect::from_coords(6, 98, 10, 100));
        assert_eq!(flat[0].depth, 2);
        assert_eq!(flat.total_instances(), 2);
        assert_eq!(flat.distinct_cells(), 3);
        assert_eq!(flat.max_depth(), 2);
    }

    #[test]
    fn recursion_detected() {
        let mut t = CellTable::new();
        let a = t.insert(CellDefinition::new("a")).unwrap();
        t.get_mut(a)
            .unwrap()
            .add_instance(Instance::new(a, Point::new(1, 1), Orientation::NORTH));
        assert_eq!(
            flatten(&t, a).unwrap_err(),
            LayoutError::RecursiveCell("a".into())
        );
    }

    #[test]
    fn single_layer_filter() {
        let (mut t, leaf) = leaf_table();
        t.get_mut(leaf)
            .unwrap()
            .add_box(Layer::Poly, Rect::from_coords(0, 0, 1, 1));
        let m1 = flatten_boxes_of(&t, leaf, Layer::Metal1).unwrap();
        assert_eq!(m1, vec![Rect::from_coords(0, 0, 4, 2)]);
        let m2 = flatten_boxes_of(&t, leaf, Layer::Metal2).unwrap();
        assert!(m2.is_empty());
    }

    #[test]
    fn diamond_hierarchy_is_not_recursion() {
        // top calls mid twice; mid calls leaf. Sharing is fine, cycles are not.
        let (mut t, leaf) = leaf_table();
        let mut mid = CellDefinition::new("mid");
        mid.add_instance(Instance::new(leaf, Point::ORIGIN, Orientation::NORTH));
        let mid_id = t.insert(mid).unwrap();
        let mut top = CellDefinition::new("top");
        top.add_instance(Instance::new(mid_id, Point::new(0, 0), Orientation::NORTH));
        top.add_instance(Instance::new(mid_id, Point::new(20, 0), Orientation::NORTH));
        let top_id = t.insert(top).unwrap();
        let flat = flatten(&t, top_id).unwrap();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.total_instances(), 4);
        assert_eq!(flat.distinct_cells(), 3);
    }

    #[test]
    fn layer_rects_match_boxes() {
        let (mut t, leaf) = leaf_table();
        t.get_mut(leaf)
            .unwrap()
            .add_box(Layer::Poly, Rect::from_coords(8, 0, 12, 2));
        let flat = flatten(&t, leaf).unwrap();
        assert_eq!(flat.layer_rects().len(), flat.len());
        for (b, &(l, r)) in flat.iter().zip(flat.layer_rects()) {
            assert_eq!((b.layer, b.rect), (l, r));
        }
        let cell = flat.to_cell("flat");
        assert_eq!(cell.boxes().count(), flat.len());
    }
}
