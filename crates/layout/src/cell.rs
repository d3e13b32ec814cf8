//! Cell definitions and the cell definition table (paper §4.3, Fig 4.2).

use crate::{Instance, Layer, LayoutError};
use rsg_geom::{BoundingBox, Point, Rect};
use std::collections::HashMap;
use std::fmt;

/// Opaque handle to a cell definition in a [`CellTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(u32);

impl CellId {
    /// The raw index (for display/debug only).
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Crate-internal constructor; ids are dense insertion indices.
    pub(crate) const fn from_raw(raw: u32) -> CellId {
        CellId(raw)
    }
}

/// One object inside a cell: a box on a layer, a named label point, or an
/// instance of another cell (paper §2.1: "boxes of various layers, points,
/// and instances of other cells").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutObject {
    /// A rectangle of material on a layer.
    Box {
        /// The mask (or pseudo) layer.
        layer: Layer,
        /// The geometry in cell-local coordinates.
        rect: Rect,
    },
    /// A named annotation point. Interface labels (paper Fig 5.5) are
    /// `Label`s whose `text` is the interface index number.
    Label {
        /// Label text.
        text: String,
        /// Anchor position in cell-local coordinates.
        at: Point,
    },
    /// A call of another cell.
    Instance(Instance),
}

/// A cell definition: a name plus its list of objects (paper Fig 4.2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CellDefinition {
    name: String,
    objects: Vec<LayoutObject>,
}

impl CellDefinition {
    /// Creates an empty cell with the given name.
    pub fn new(name: impl Into<String>) -> CellDefinition {
        CellDefinition {
            name: name.into(),
            objects: Vec::new(),
        }
    }

    /// The cell's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All objects, in insertion order.
    pub fn objects(&self) -> &[LayoutObject] {
        &self.objects
    }

    /// Adds a box of `layer` material.
    pub fn add_box(&mut self, layer: Layer, rect: Rect) -> &mut Self {
        self.objects.push(LayoutObject::Box { layer, rect });
        self
    }

    /// Adds a label point.
    pub fn add_label(&mut self, text: impl Into<String>, at: Point) -> &mut Self {
        self.objects.push(LayoutObject::Label {
            text: text.into(),
            at,
        });
        self
    }

    /// Adds an instance of another cell.
    pub fn add_instance(&mut self, instance: Instance) -> &mut Self {
        self.objects.push(LayoutObject::Instance(instance));
        self
    }

    /// Iterates over the boxes (layer, rect) directly in this cell.
    pub fn boxes(&self) -> impl Iterator<Item = (Layer, Rect)> + '_ {
        self.objects.iter().filter_map(|o| match o {
            LayoutObject::Box { layer, rect } => Some((*layer, *rect)),
            _ => None,
        })
    }

    /// Iterates over the instances directly in this cell.
    pub fn instances(&self) -> impl Iterator<Item = &Instance> + '_ {
        self.objects.iter().filter_map(|o| match o {
            LayoutObject::Instance(i) => Some(i),
            _ => None,
        })
    }

    /// Iterates over the labels directly in this cell.
    pub fn labels(&self) -> impl Iterator<Item = (&str, Point)> + '_ {
        self.objects.iter().filter_map(|o| match o {
            LayoutObject::Label { text, at } => Some((text.as_str(), *at)),
            _ => None,
        })
    }

    /// Rebuilds the cell with each box's rectangle replaced, in object
    /// order, by the next rectangle from `rects`; layers, labels, and
    /// instances are copied through unchanged. This is the primitive the
    /// compactor uses to write solved edge positions back into a cell.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BoxCount`] if `rects` yields fewer or more
    /// rectangles than the cell has boxes.
    pub fn with_box_rects<I: IntoIterator<Item = Rect>>(
        &self,
        rects: I,
    ) -> Result<CellDefinition, LayoutError> {
        let mut rects = rects.into_iter();
        let mut out = CellDefinition::new(self.name());
        let mut replaced = 0usize;
        for obj in &self.objects {
            match obj {
                LayoutObject::Box { layer, .. } => match rects.next() {
                    Some(rect) => {
                        replaced += 1;
                        out.add_box(*layer, rect);
                    }
                    None => {
                        return Err(LayoutError::BoxCount {
                            cell: self.name.clone(),
                            boxes: self.boxes().count(),
                            rects: replaced,
                        })
                    }
                },
                LayoutObject::Label { text, at } => {
                    out.add_label(text.clone(), *at);
                }
                LayoutObject::Instance(i) => {
                    out.add_instance(*i);
                }
            }
        }
        let extra = rects.count();
        if extra > 0 {
            return Err(LayoutError::BoxCount {
                cell: self.name.clone(),
                boxes: replaced,
                rects: replaced + extra,
            });
        }
        Ok(out)
    }

    /// Checks every coordinate in the cell against the ingest budget
    /// [`rsg_geom::MAX_COORD`] — the contract that keeps interior sweep,
    /// constraint-weight, and λ-pitch arithmetic overflow-free (see the
    /// constant's documentation for the argument).
    ///
    /// [`CellTable::insert`] applies this check, so every table-resident
    /// cell is within budget; call it directly when constructing cells
    /// that bypass a table.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::CoordinateBudget`] naming the first
    /// out-of-budget value.
    pub fn validate_budget(&self) -> Result<(), LayoutError> {
        // A range test rather than `abs()`: `i64::MIN.abs()` itself
        // overflows.
        let check = |v: i64| {
            if !(-rsg_geom::MAX_COORD..=rsg_geom::MAX_COORD).contains(&v) {
                Err(LayoutError::CoordinateBudget {
                    cell: self.name.clone(),
                    value: v,
                })
            } else {
                Ok(())
            }
        };
        for obj in &self.objects {
            match obj {
                LayoutObject::Box { rect, .. } => {
                    check(rect.lo().x)?;
                    check(rect.lo().y)?;
                    check(rect.hi().x)?;
                    check(rect.hi().y)?;
                }
                LayoutObject::Label { at, .. } => {
                    check(at.x)?;
                    check(at.y)?;
                }
                LayoutObject::Instance(i) => {
                    check(i.point_of_call.x)?;
                    check(i.point_of_call.y)?;
                }
            }
        }
        Ok(())
    }

    /// Bounding box of the boxes *directly* in this cell (instances are not
    /// expanded; use [`crate::flatten`] + fold for the deep bound).
    pub fn local_bbox(&self) -> BoundingBox {
        self.boxes().map(|(_, r)| r).collect()
    }

    /// Number of objects of each kind `(boxes, labels, instances)`.
    pub fn object_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for o in &self.objects {
            match o {
                LayoutObject::Box { .. } => counts.0 += 1,
                LayoutObject::Label { .. } => counts.1 += 1,
                LayoutObject::Instance(_) => counts.2 += 1,
            }
        }
        counts
    }
}

/// The cell definition table: name → definition, implemented with a hash
/// table "which makes lookup extremely fast" (paper §4.5).
#[derive(Debug, Clone, Default)]
pub struct CellTable {
    cells: Vec<CellDefinition>,
    by_name: HashMap<String, CellId>,
}

impl CellTable {
    /// Creates an empty table.
    pub fn new() -> CellTable {
        CellTable::default()
    }

    /// Inserts a definition.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::DuplicateCell`] if the name is taken, or
    /// [`LayoutError::CoordinateBudget`] if any coordinate exceeds the
    /// ingest budget (see [`CellDefinition::validate_budget`]).
    pub fn insert(&mut self, cell: CellDefinition) -> Result<CellId, LayoutError> {
        if self.by_name.contains_key(cell.name()) {
            return Err(LayoutError::DuplicateCell(cell.name().to_owned()));
        }
        cell.validate_budget()?;
        let id = CellId(self.cells.len() as u32);
        self.by_name.insert(cell.name().to_owned(), id);
        self.cells.push(cell);
        Ok(id)
    }

    /// Looks a cell up by id.
    pub fn get(&self, id: CellId) -> Option<&CellDefinition> {
        self.cells.get(id.0 as usize)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: CellId) -> Option<&mut CellDefinition> {
        self.cells.get_mut(id.0 as usize)
    }

    /// Looks a cell up by name (the paper's variable-resolution fallback:
    /// "it is assumed that the variable is a cell name and a search is
    /// performed on the table of available cells", §4.1).
    pub fn lookup(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).copied()
    }

    /// Like [`CellTable::get`], but returns a descriptive error.
    pub fn require(&self, id: CellId) -> Result<&CellDefinition, LayoutError> {
        self.get(id)
            .ok_or_else(|| LayoutError::UnknownCell(format!("#{}", id.0)))
    }

    /// Number of cells in the table.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the table holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates `(id, definition)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &CellDefinition)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// The cells reachable from `top`, children before callers, each
    /// once: the DFS postorder over instances in object order, ending at
    /// `top`. This is the one hierarchy order — the CIF and `.rsgl`
    /// writers, deep hashes, flattening, and the compactor's level walk
    /// all take theirs from here.
    ///
    /// The walk keeps an explicit stack and dense marks indexed by
    /// [`CellId`], so a hierarchy of any depth costs heap, never call
    /// stack.
    ///
    /// # Errors
    ///
    /// [`LayoutError::UnknownCell`] for a dangling id (`top` or any
    /// instance), and [`LayoutError::RecursiveCell`] naming the
    /// re-entered cell on a cyclic hierarchy — whichever the walk meets
    /// first.
    pub fn bottom_up(&self, top: CellId) -> Result<Vec<CellId>, LayoutError> {
        const OPEN: u8 = 1;
        const DONE: u8 = 2;
        let mut mark = vec![0u8; self.cells.len()];
        let mut order = Vec::new();
        let mut stack = vec![(top, self.require(top)?.instances())];
        mark[top.0 as usize] = OPEN;
        while let Some((cell, kids)) = stack.last_mut() {
            let Some(inst) = kids.next() else {
                let cell = *cell;
                stack.pop();
                mark[cell.0 as usize] = DONE;
                order.push(cell);
                continue;
            };
            let child = inst.cell;
            match mark.get(child.0 as usize) {
                None => return Err(LayoutError::UnknownCell(format!("#{}", child.0))),
                Some(&DONE) => {}
                Some(&OPEN) => {
                    let name = self.cells[child.0 as usize].name();
                    return Err(LayoutError::RecursiveCell(name.to_owned()));
                }
                Some(_) => {
                    mark[child.0 as usize] = OPEN;
                    stack.push((child, self.cells[child.0 as usize].instances()));
                }
            }
        }
        Ok(order)
    }
}

impl fmt::Display for CellTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CellTable({} cells)", self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_geom::Orientation;

    #[test]
    fn insert_and_lookup() {
        let mut t = CellTable::new();
        let a = t.insert(CellDefinition::new("a")).unwrap();
        let b = t.insert(CellDefinition::new("b")).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.lookup("a"), Some(a));
        assert_eq!(t.lookup("c"), None);
        assert_eq!(t.get(a).unwrap().name(), "a");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = CellTable::new();
        t.insert(CellDefinition::new("a")).unwrap();
        assert_eq!(
            t.insert(CellDefinition::new("a")),
            Err(LayoutError::DuplicateCell("a".into()))
        );
    }

    #[test]
    fn object_accessors() {
        let mut t = CellTable::new();
        let leaf = t.insert(CellDefinition::new("leaf")).unwrap();
        let mut c = CellDefinition::new("c");
        c.add_box(Layer::Poly, Rect::from_coords(0, 0, 2, 8));
        c.add_label("1", Point::new(1, 1));
        c.add_instance(Instance::new(leaf, Point::new(4, 0), Orientation::NORTH));
        assert_eq!(c.object_counts(), (1, 1, 1));
        assert_eq!(c.boxes().count(), 1);
        assert_eq!(c.labels().next().unwrap().0, "1");
        assert_eq!(c.instances().next().unwrap().cell, leaf);
        assert_eq!(c.local_bbox().rect(), Some(Rect::from_coords(0, 0, 2, 8)));
    }

    #[test]
    fn require_unknown_cell() {
        let t = CellTable::new();
        assert!(t.require(CellId(7)).is_err());
    }

    #[test]
    fn iteration_order_is_insertion() {
        let mut t = CellTable::new();
        t.insert(CellDefinition::new("x")).unwrap();
        t.insert(CellDefinition::new("y")).unwrap();
        let names: Vec<_> = t.iter().map(|(_, c)| c.name().to_owned()).collect();
        assert_eq!(names, ["x", "y"]);
    }

    #[test]
    fn bottom_up_is_the_dfs_postorder_each_cell_once() {
        let mut t = CellTable::new();
        let a = t.insert(CellDefinition::new("a")).unwrap();
        let b = t.insert(CellDefinition::new("b")).unwrap();
        let unrelated = t.insert(CellDefinition::new("u")).unwrap();
        let mut mid = CellDefinition::new("mid");
        mid.add_instance(Instance::new(b, Point::ORIGIN, Orientation::NORTH));
        mid.add_instance(Instance::new(a, Point::ORIGIN, Orientation::NORTH));
        let mid = t.insert(mid).unwrap();
        let mut top = CellDefinition::new("top");
        top.add_instance(Instance::new(a, Point::ORIGIN, Orientation::NORTH));
        top.add_instance(Instance::new(mid, Point::ORIGIN, Orientation::NORTH));
        top.add_instance(Instance::new(mid, Point::ORIGIN, Orientation::EAST));
        let top = t.insert(top).unwrap();
        assert_eq!(t.bottom_up(top).unwrap(), [a, b, mid, top]);
        assert_eq!(t.bottom_up(unrelated).unwrap(), [unrelated]);
    }

    #[test]
    fn bottom_up_names_the_dangling_id_and_the_reentered_cell() {
        let mut t = CellTable::new();
        let mut c = CellDefinition::new("c");
        c.add_instance(Instance::new(CellId(9), Point::ORIGIN, Orientation::NORTH));
        let c = t.insert(c).unwrap();
        assert_eq!(t.bottom_up(c), Err(LayoutError::UnknownCell("#9".into())));
        assert_eq!(
            t.bottom_up(CellId(5)),
            Err(LayoutError::UnknownCell("#5".into()))
        );

        let mut t = CellTable::new();
        let a = t.insert(CellDefinition::new("a")).unwrap();
        let mut b = CellDefinition::new("b");
        b.add_instance(Instance::new(a, Point::ORIGIN, Orientation::NORTH));
        let b = t.insert(b).unwrap();
        t.get_mut(a)
            .unwrap()
            .add_instance(Instance::new(b, Point::ORIGIN, Orientation::NORTH));
        assert_eq!(t.bottom_up(b), Err(LayoutError::RecursiveCell("b".into())));
    }
}
