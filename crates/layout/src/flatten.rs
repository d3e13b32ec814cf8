//! Hierarchical flattening of a cell to absolute-coordinate boxes.
//!
//! [`flatten`] expands the hierarchy once for the whole flat pipeline
//! and returns a [`FlatLayout`]: one `(Layer, Rect)` vector, the slice
//! shape DRC and the compactor take, so no consumer converts it again.
//! Like every hierarchy consumer it checks the hierarchy through
//! [`CellTable::bottom_up`] first, and a box-count fold over that same
//! order sizes the vector exactly before the expansion fills it; the
//! expansion itself is iterative.

use crate::{CellDefinition, CellId, CellTable, Layer, LayoutError, LayoutObject};
use rsg_geom::{BoundingBox, Isometry, Rect};

/// A flattened layout: absolute-coordinate `(Layer, Rect)` boxes and the
/// expansion's tallies.
///
/// Returned by [`flatten`]; consumed by [`crate::drc::check_flat`],
/// [`crate::stats::LayoutStats`], [`crate::write_cif_flat`], and the
/// compaction entry points (via [`FlatLayout::layer_rects`] /
/// [`FlatLayout::to_cell`]). Indexing, iteration, and `len` behave like
/// the underlying `Vec<(Layer, Rect)>`.
#[derive(Debug, Clone)]
pub struct FlatLayout {
    rects: Vec<(Layer, Rect)>,
    total_instances: usize,
    distinct_cells: usize,
    max_depth: u32,
}

impl FlatLayout {
    /// Builds a flat layout directly from a box list — the entry point
    /// for geometry that never lived in a hierarchy.
    /// With no hierarchy behind it, the tallies are the single-cell
    /// defaults: no instances, one cell, depth 0.
    pub fn from_boxes(boxes: Vec<(Layer, Rect)>) -> FlatLayout {
        FlatLayout {
            rects: boxes,
            total_instances: 0,
            distinct_cells: 1,
            max_depth: 0,
        }
    }

    /// Iterates over the flat boxes, in discovery (pre-order) order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Layer, Rect)> {
        self.rects.iter()
    }

    /// Number of flat boxes.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// `true` when the layout holds no boxes.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The boxes as `(layer, rect)` pairs — the slice shape the
    /// constraint generator and DRC take, with no per-caller conversion.
    pub fn layer_rects(&self) -> &[(Layer, Rect)] {
        &self.rects
    }

    /// Bounding box of all flat boxes.
    pub fn bbox(&self) -> BoundingBox {
        self.rects.iter().map(|&(_, r)| r).collect()
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
        for &(layer, rect) in &self.rects {
            cell.add_box(layer, rect);
        }
        cell
    }
}

impl std::ops::Index<usize> for FlatLayout {
    type Output = (Layer, Rect);

    fn index(&self, k: usize) -> &(Layer, Rect) {
        &self.rects[k]
    }
}

impl IntoIterator for FlatLayout {
    type Item = (Layer, Rect);
    type IntoIter = std::vec::IntoIter<(Layer, Rect)>;

    fn into_iter(self) -> Self::IntoIter {
        self.rects.into_iter()
    }
}

impl<'a> IntoIterator for &'a FlatLayout {
    type Item = &'a (Layer, Rect);
    type IntoIter = std::slice::Iter<'a, (Layer, Rect)>;

    fn into_iter(self) -> Self::IntoIter {
        self.rects.iter()
    }
}

/// Flattens `root` into a [`FlatLayout`] covering all layers.
///
/// Labels are dropped (they are annotations); instances are expanded by
/// composing calling isometries, the `I₂(I₁(Ob))` chain of paper §2.6.
/// The expansion also tallies instances and depth, and the hierarchy
/// order behind it counts the reachable cells and sizes the box vector,
/// so [`crate::stats::LayoutStats`] needs no second traversal and the
/// vector is allocated once.
///
/// # Errors
///
/// Returns [`LayoutError::UnknownCell`] for dangling ids and
/// [`LayoutError::RecursiveCell`] if the hierarchy is cyclic.
pub fn flatten(table: &CellTable, root: CellId) -> Result<FlatLayout, LayoutError> {
    let order = table.bottom_up(root)?;
    let mut rects = Vec::new();
    // An overflowing count or a failed reservation only costs the exact
    // size: the expansion then grows the vector as it goes.
    if let Some(n) = flat_box_count(table, &order) {
        let _ = rects.try_reserve_exact(n);
    }
    let tally = expand(table, root, |layer, rect| rects.push((layer, rect)))?;
    Ok(FlatLayout {
        rects,
        total_instances: tally.instances,
        distinct_cells: order.len(),
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
    table.bottom_up(root)?;
    let mut out = Vec::new();
    expand(table, root, |layer, rect| {
        if layer == wanted {
            out.push(rect);
        }
    })?;
    Ok(out)
}

/// The flat box count of the last cell of `order`, a
/// [`CellTable::bottom_up`] order: each cell's own boxes plus its
/// children's counts, one per instance. `None` when the count overflows
/// `usize`.
fn flat_box_count(table: &CellTable, order: &[CellId]) -> Option<usize> {
    let mut count = vec![0usize; table.len()];
    let mut last = 0;
    for &id in order {
        let mut n = 0usize;
        for obj in table.get(id)?.objects() {
            let k = match obj {
                LayoutObject::Box { .. } => 1,
                LayoutObject::Instance(inst) => *count.get(inst.cell.raw() as usize)?,
                LayoutObject::Label { .. } => 0,
            };
            n = n.checked_add(k)?;
        }
        count[id.raw() as usize] = n;
        last = n;
    }
    Some(last)
}

/// What one expansion counted.
struct Tally {
    /// Every expanded instance call.
    instances: usize,
    /// Deepest level expanded.
    max_depth: u32,
}

/// Expands every instance under `root` in pre-order, handing each box to
/// `sink` in absolute coordinates: a cell's own boxes first, then its
/// instances in object order. Callers run the cycle and dangling-id
/// checks up front in [`CellTable::bottom_up`]; the expansion itself
/// keeps an explicit `(isometry, depth, remaining instances)` stack, so
/// depth costs heap, never call stack.
fn expand(
    table: &CellTable,
    root: CellId,
    mut sink: impl FnMut(Layer, Rect),
) -> Result<Tally, LayoutError> {
    let mut tally = Tally {
        instances: 0,
        max_depth: 0,
    };
    let def = table.require(root)?;
    for (layer, rect) in def.boxes() {
        sink(layer, rect);
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
            sink(layer, rect.transform(iso));
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
        assert_eq!(flat[0], (Layer::Metal1, Rect::from_coords(0, 0, 4, 2)));
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
        assert_eq!(flat[0].1, Rect::from_coords(6, 98, 10, 100));
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
        assert!(flat.iter().eq(flat.layer_rects()));
        let cell = flat.to_cell("flat");
        assert_eq!(cell.boxes().count(), flat.len());
    }
}
