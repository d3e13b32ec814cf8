//! Layout statistics: the numbers experiment E8 reports for Fig 5.6.
//!
//! Statistics are derived from a [`FlatLayout`] — the same expansion
//! that produces the flat boxes also tallies instances, reachable cells,
//! and depth, so no second traversal exists.

use crate::{CellId, CellTable, FlatLayout, Layer, LayoutError};
use rsg_geom::BoundingBox;
use std::collections::HashMap;
use std::fmt;

/// Aggregate statistics of a flattened hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutStats {
    /// Flat box count per layer.
    pub boxes_per_layer: HashMap<Layer, usize>,
    /// Total flat box count.
    pub total_boxes: usize,
    /// Total expanded instance count (every call, at every level).
    pub total_instances: usize,
    /// Number of distinct cell definitions reachable from the root.
    pub distinct_cells: usize,
    /// Maximum hierarchy depth.
    pub max_depth: u32,
    /// Bounding box of all flat boxes.
    pub bbox: BoundingBox,
}

impl LayoutStats {
    /// Computes statistics for the hierarchy under `root` by flattening
    /// it (one expansion) and summarizing the result.
    ///
    /// # Errors
    ///
    /// Fails on cyclic hierarchies or dangling instance ids.
    pub fn compute(table: &CellTable, root: CellId) -> Result<LayoutStats, LayoutError> {
        Ok(LayoutStats::of_flat(&crate::flatten(table, root)?))
    }

    /// Summarizes an already-flattened layout (no hierarchy walk).
    pub fn of_flat(flat: &FlatLayout) -> LayoutStats {
        let mut boxes_per_layer: HashMap<Layer, usize> = HashMap::new();
        for &(layer, _) in flat {
            *boxes_per_layer.entry(layer).or_insert(0) += 1;
        }
        LayoutStats {
            boxes_per_layer,
            total_boxes: flat.len(),
            total_instances: flat.total_instances(),
            distinct_cells: flat.distinct_cells(),
            max_depth: flat.max_depth(),
            bbox: flat.bbox(),
        }
    }

    /// Flat boxes on one layer (0 when absent).
    pub fn boxes_on(&self, layer: Layer) -> usize {
        self.boxes_per_layer.get(&layer).copied().unwrap_or(0)
    }
}

impl fmt::Display for LayoutStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} flat boxes, {} instances, {} cells, depth {}",
            self.total_boxes, self.total_instances, self.distinct_cells, self.max_depth
        )?;
        let mut layers: Vec<_> = self.boxes_per_layer.iter().collect();
        layers.sort_by_key(|(l, _)| l.index());
        for (layer, n) in layers {
            writeln!(f, "  {layer:>6}: {n}")?;
        }
        if let Some(r) = self.bbox.rect() {
            writeln!(f, "  bbox: {r} ({} x {})", r.width(), r.height())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellDefinition, Instance};
    use rsg_geom::{Orientation, Point, Rect};

    #[test]
    fn counts_and_depth() {
        let mut t = CellTable::new();
        let mut leaf = CellDefinition::new("leaf");
        leaf.add_box(Layer::Poly, Rect::from_coords(0, 0, 2, 2));
        leaf.add_box(Layer::Metal1, Rect::from_coords(0, 0, 4, 1));
        let leaf_id = t.insert(leaf).unwrap();
        let mut row = CellDefinition::new("row");
        for i in 0..3 {
            row.add_instance(Instance::new(
                leaf_id,
                Point::new(i * 10, 0),
                Orientation::NORTH,
            ));
        }
        let row_id = t.insert(row).unwrap();
        let mut top = CellDefinition::new("top");
        top.add_instance(Instance::new(row_id, Point::new(0, 0), Orientation::NORTH));
        top.add_instance(Instance::new(row_id, Point::new(0, 20), Orientation::NORTH));
        let top_id = t.insert(top).unwrap();

        let s = LayoutStats::compute(&t, top_id).unwrap();
        assert_eq!(s.total_boxes, 12);
        assert_eq!(s.boxes_on(Layer::Poly), 6);
        assert_eq!(s.boxes_on(Layer::Metal1), 6);
        assert_eq!(s.boxes_on(Layer::Cut), 0);
        assert_eq!(s.total_instances, 8); // 2 rows + 2*3 leaves
        assert_eq!(s.distinct_cells, 3);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.bbox.rect(), Some(Rect::from_coords(0, 0, 24, 22)));
        let text = s.to_string();
        assert!(text.contains("12 flat boxes"));

        // Of-flat on the same hierarchy agrees with compute.
        let flat = crate::flatten(&t, top_id).unwrap();
        assert_eq!(LayoutStats::of_flat(&flat), s);
    }
}
