//! Stable content hashing over cells and technologies.
//!
//! The incremental recompactor (`rsg_compact::incremental`) keys its
//! caches by *what a definition is*, not where it lives: two tables that
//! draw the same geometry must produce the same key, and any edit — a
//! box moved, a mask swapped, a child redefined three levels down — must
//! change the key of every ancestor that can see it. [`deep_hashes`]
//! computes exactly that: a bottom-up FNV-1a digest per cell where an
//! instance contributes its *child's digest* (not its `CellId`, which is
//! table-local) plus its point of call and orientation.
//!
//! The hash is deterministic across runs and platforms — no
//! `std::collections::hash_map::RandomState`, no pointer identity — so
//! it can serve as a persistent cache key. It is *not* cryptographic;
//! collisions are a correctness hazard only at the 2⁻⁶⁴ birthday scale
//! the caches accept.

use crate::{CellDefinition, CellId, CellTable, LayoutError, LayoutObject};
use std::collections::HashMap;

/// FNV-1a 64-bit streaming hasher with deterministic output.
///
/// Deliberately not `std::hash::Hasher`: the std trait invites hashing
/// through `#[derive(Hash)]` impls whose layout can drift; this one
/// forces every caller to state the exact byte stream.
#[derive(Debug, Clone)]
pub struct ContentHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl ContentHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> ContentHasher {
        ContentHasher(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write_bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for ContentHasher {
    fn default() -> ContentHasher {
        ContentHasher::new()
    }
}

/// Mixes a list of `u64` words into one digest — the cheap combinator
/// for composite cache keys (definition hash ⊕ rules hash ⊕ solver tag).
pub fn mix(words: &[u64]) -> u64 {
    let mut h = ContentHasher::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// Content hash of one definition given a digest for each child it
/// instantiates. Covers the name and every object in order; instances
/// contribute `child(cell)` plus point of call and orientation, so the
/// result is a deep digest whenever `child` returns deep digests.
pub fn hash_cell(def: &CellDefinition, mut child: impl FnMut(CellId) -> u64) -> u64 {
    let mut h = ContentHasher::new();
    h.write_str(def.name());
    for obj in def.objects() {
        match obj {
            LayoutObject::Box { layer, rect } => {
                h.write_u64(1)
                    .write_u64(layer.index() as u64)
                    .write_i64(rect.lo().x)
                    .write_i64(rect.lo().y)
                    .write_i64(rect.hi().x)
                    .write_i64(rect.hi().y);
            }
            LayoutObject::Label { text, at } => {
                h.write_u64(2)
                    .write_str(text)
                    .write_i64(at.x)
                    .write_i64(at.y);
            }
            LayoutObject::Instance(inst) => {
                h.write_u64(3)
                    .write_u64(child(inst.cell))
                    .write_i64(inst.point_of_call.x)
                    .write_i64(inst.point_of_call.y)
                    .write_u64(inst.orientation.rotation as u64)
                    .write_u64(inst.orientation.mirror_y as u64);
            }
        }
    }
    h.finish()
}

/// Deep content digests for every cell reachable from `top`: a fold over
/// [`CellTable::bottom_up`], so each child is hashed before its callers.
/// Two cells hash equal iff their entire subtrees draw the same geometry
/// (names included); `CellId`s never enter the digest, so hashes compare
/// across tables.
///
/// # Errors
///
/// Returns [`LayoutError::UnknownCell`] for a dangling instance and
/// [`LayoutError::RecursiveCell`] on a cyclic hierarchy.
pub fn deep_hashes(table: &CellTable, top: CellId) -> Result<HashMap<CellId, u64>, LayoutError> {
    let mut out: HashMap<CellId, u64> = HashMap::new();
    for cell in table.bottom_up(top)? {
        let h = hash_cell(table.require(cell)?, |id| out[&id]);
        out.insert(cell, h);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instance, Layer};
    use rsg_geom::{Orientation, Point, Rect};

    fn leaf(name: &str, x: i64) -> CellDefinition {
        let mut c = CellDefinition::new(name);
        c.add_box(Layer::Poly, Rect::from_coords(x, 0, x + 4, 10));
        c
    }

    #[test]
    fn identical_tables_hash_identically() {
        let build = || {
            let mut t = CellTable::new();
            let l = t.insert(leaf("leaf", 0)).unwrap();
            let mut a = CellDefinition::new("asm");
            a.add_instance(Instance::new(l, Point::new(8, 0), Orientation::NORTH));
            a.add_label("pin", Point::new(1, 1));
            let top = t.insert(a).unwrap();
            (t, top)
        };
        let (t1, top1) = build();
        let (t2, top2) = build();
        assert_eq!(
            deep_hashes(&t1, top1).unwrap()[&top1],
            deep_hashes(&t2, top2).unwrap()[&top2]
        );
    }

    #[test]
    fn hashes_survive_different_table_ids() {
        // Same geometry, but the second table holds an extra unrelated
        // cell first, shifting every CellId.
        let mut t1 = CellTable::new();
        let l1 = t1.insert(leaf("leaf", 0)).unwrap();
        let mut a = CellDefinition::new("asm");
        a.add_instance(Instance::new(l1, Point::new(8, 0), Orientation::NORTH));
        let top1 = t1.insert(a).unwrap();

        let mut t2 = CellTable::new();
        t2.insert(leaf("unrelated", 2)).unwrap();
        let l2 = t2.insert(leaf("leaf", 0)).unwrap();
        let mut a = CellDefinition::new("asm");
        a.add_instance(Instance::new(l2, Point::new(8, 0), Orientation::NORTH));
        let top2 = t2.insert(a).unwrap();

        assert_eq!(
            deep_hashes(&t1, top1).unwrap()[&top1],
            deep_hashes(&t2, top2).unwrap()[&top2]
        );
    }

    #[test]
    fn leaf_edit_changes_every_ancestor() {
        let mut t = CellTable::new();
        let l = t.insert(leaf("leaf", 0)).unwrap();
        let mut mid = CellDefinition::new("mid");
        mid.add_instance(Instance::new(l, Point::new(0, 0), Orientation::NORTH));
        let mid_id = t.insert(mid).unwrap();
        let mut topc = CellDefinition::new("top");
        topc.add_instance(Instance::new(mid_id, Point::new(0, 0), Orientation::NORTH));
        let mut other = CellDefinition::new("other");
        other.add_box(Layer::Metal1, Rect::from_coords(0, 0, 6, 6));
        let other_id = t.insert(other).unwrap();
        topc.add_instance(Instance::new(
            other_id,
            Point::new(40, 0),
            Orientation::NORTH,
        ));
        let top = t.insert(topc).unwrap();

        let before = deep_hashes(&t, top).unwrap();
        *t.get_mut(l).unwrap() = leaf("leaf", 2);
        let after = deep_hashes(&t, top).unwrap();
        assert_ne!(before[&l], after[&l]);
        assert_ne!(before[&mid_id], after[&mid_id]);
        assert_ne!(before[&top], after[&top]);
        assert_eq!(before[&other_id], after[&other_id], "sibling untouched");
    }

    #[test]
    fn orientation_and_position_enter_the_digest() {
        let mut t = CellTable::new();
        let l = t.insert(leaf("leaf", 0)).unwrap();
        let at = |p: Point, o: Orientation| {
            let mut a = CellDefinition::new("asm");
            a.add_instance(Instance::new(l, p, o));
            hash_cell(&a, |_| 7)
        };
        let base = at(Point::new(0, 0), Orientation::NORTH);
        assert_ne!(base, at(Point::new(1, 0), Orientation::NORTH));
        assert_ne!(base, at(Point::new(0, 0), Orientation::SOUTH));
    }

    #[test]
    fn recursion_is_an_error() {
        let mut t = CellTable::new();
        let a = t.insert(CellDefinition::new("a")).unwrap();
        t.get_mut(a)
            .unwrap()
            .add_instance(Instance::new(a, Point::new(0, 0), Orientation::NORTH));
        assert!(matches!(
            deep_hashes(&t, a),
            Err(LayoutError::RecursiveCell(_))
        ));
    }
}
