//! Synthetic mega-chip stress workloads (experiment E23).
//!
//! The real generators in this workspace (the PLA, the multiplier) top
//! out around 10⁴ flat boxes; the multi-core benchmarks need workloads
//! two orders larger with *known-good* geometry, so that an empty DRC
//! report and serial≡parallel identity are meaningful assertions rather
//! than artifacts. Both variants are DRC-clean by construction:
//!
//! * [`megachip_flat`] — a lattice of isolated [`TILE_BOX`]-sized
//!   squares on a [`TILE_PITCH`] grid (gap ≥ every
//!   `Technology::mead_conway(2)` spacing rule). Every box is separate
//!   material, which is exactly what stresses full-chip DRC.
//! * [`megachip_hier`] — the same mask layers organized as a four-deep
//!   *wire-bundle* hierarchy (tile → row → block → chip): each tile
//!   carries four horizontal bars (one per layer) built from **abutting**
//!   segments, and tiles/rows butt against each other so the bars run
//!   continuously. Touching same-layer boxes are connected material —
//!   exempt from spacing rules and welded by the compactor — so the
//!   interface abstracts collapse to a handful of profile rects per
//!   definition and the hierarchy walk's cost stays proportional to the
//!   *definition* count while the flattened box count reaches 10⁶. The
//!   definitions per level differ in how the bars are segmented (not in
//!   the mask image), giving the dependency-level scheduler
//!   [`VARIANTS`]-wide waves of distinct compactions.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

use rsg_geom::{Orientation, Point, Rect};
use rsg_layout::{CellDefinition, CellId, CellTable, Instance, Layer, LayoutError};

/// Side of every flat-lattice box — at least the largest
/// `mead_conway(2)` minimum width (Metal2's 4λ = 8).
pub const TILE_BOX: i64 = 8;

/// Flat-lattice pitch: [`TILE_BOX`] plus a gap (16) at least as large
/// as every `mead_conway(2)` spacing rule, so any two lattice boxes are
/// clean regardless of their layers.
pub const TILE_PITCH: i64 = 24;

/// Mask layers cycled across the lattice and assigned one per bar row
/// in the hierarchical variant.
const LAYERS: [Layer; 4] = [Layer::Metal1, Layer::Poly, Layer::Diffusion, Layer::Metal2];

/// A flat box lattice of at least `target` boxes, on a square-ish grid.
/// DRC-clean by construction (every gap is `TILE_PITCH - TILE_BOX`).
pub fn megachip_flat(target: usize) -> Vec<(Layer, Rect)> {
    let mut side = 1usize;
    while side * side < target {
        side += 1;
    }
    let mut boxes = Vec::with_capacity(side * side);
    for iy in 0..side {
        for ix in 0..side {
            let x = ix as i64 * TILE_PITCH;
            let y = iy as i64 * TILE_PITCH;
            boxes.push((
                LAYERS[(ix + iy) % LAYERS.len()],
                Rect::from_coords(x, y, x + TILE_BOX, y + TILE_BOX),
            ));
        }
    }
    boxes
}

/// A generated hierarchical mega-chip (see [`megachip_hier`]).
pub struct MegaChip {
    /// The cell table holding every definition.
    pub table: CellTable,
    /// The chip-level cell.
    pub top: CellId,
    /// Flattened box count (≥ the requested target).
    pub boxes: usize,
}

/// Distinct definitions per hierarchy level — the fan-out width the
/// dependency-level scheduler sees at the row and block levels.
pub const VARIANTS: usize = 8;

/// Bar thickness (= the largest minimum width, Metal2's 8).
const BAR: i64 = 8;
/// Vertical pitch between bar rows: thickness + a 16 gap ≥ every
/// spacing rule.
const BAR_PITCH: i64 = 24;
/// Bars per tile — one per entry of [`LAYERS`].
const BARS: usize = 4;
/// Tile width; also the horizontal abutment pitch, so bars run
/// continuously across a row of tiles.
const TILE_W: i64 = 32;
/// Tile height; also the vertical abutment pitch of rows inside a
/// block (the 16 gap between the last bar and the next row's first bar
/// is preserved: 96 − 80 = 16).
const TILE_H: i64 = BAR_PITCH * BARS as i64;

/// How each variant splits a [`TILE_W`]-wide bar into abutting
/// segments. Every segment is ≥ 8 (the largest minimum width), and the
/// segments of one bar always cover exactly `0..TILE_W`, so every
/// variant produces the *same mask image* — only the box structure
/// (and therefore the content hash) differs.
const SPLITS: [&[i64]; VARIANTS] = [
    &[8, 8, 8, 8],
    &[16, 8, 8],
    &[8, 16, 8],
    &[8, 8, 16],
    &[16, 16],
    &[24, 8],
    &[8, 24],
    &[32],
];

const LEAVES_PER_ROW: usize = 32;
const ROWS_PER_BLOCK: usize = 32;

/// Builds the wire-bundle mega-chip hierarchy with at least `target`
/// flattened boxes: [`VARIANTS`] distinct tiles (four bars of abutting
/// segments), [`VARIANTS`] distinct rows of 32 abutted tiles,
/// [`VARIANTS`] distinct blocks of 32 abutted rows, and a chip stacking
/// however many blocks reach `target`. Every level offsets which child
/// variants it references, so no two same-level definitions hash alike
/// and the hierarchy walk has real per-level width.
///
/// # Errors
///
/// Propagates table-construction failures ([`LayoutError`]); the
/// generated names are unique and coordinates stay far below the
/// ingest budget, so this is theoretical for any reachable `target`.
pub fn megachip_hier(target: usize) -> Result<MegaChip, LayoutError> {
    let mut table = CellTable::new();
    let mut leaf_ids = Vec::with_capacity(VARIANTS);
    let mut leaf_boxes = Vec::with_capacity(VARIANTS);
    for v in 0..VARIANTS {
        let mut def = CellDefinition::new(format!("tile{v}"));
        let mut count = 0usize;
        for (k, &layer) in LAYERS.iter().enumerate() {
            let y = k as i64 * BAR_PITCH;
            let mut x = 0i64;
            for &w in SPLITS[(v + k) % VARIANTS] {
                def.add_box(layer, Rect::from_coords(x, y, x + w, y + BAR));
                x += w;
                count += 1;
            }
        }
        leaf_ids.push(table.insert(def)?);
        leaf_boxes.push(count);
    }
    let mut row_ids = Vec::with_capacity(VARIANTS);
    let mut row_boxes = Vec::with_capacity(VARIANTS);
    for r in 0..VARIANTS {
        let mut def = CellDefinition::new(format!("row{r}"));
        let mut count = 0usize;
        for i in 0..LEAVES_PER_ROW {
            let v = (r + i) % VARIANTS;
            def.add_instance(Instance::new(
                leaf_ids[v],
                Point::new(i as i64 * TILE_W, 0),
                Orientation::NORTH,
            ));
            count += leaf_boxes[v];
        }
        row_ids.push(table.insert(def)?);
        row_boxes.push(count);
    }
    let mut block_ids = Vec::with_capacity(VARIANTS);
    let mut block_boxes = Vec::with_capacity(VARIANTS);
    for b in 0..VARIANTS {
        let mut def = CellDefinition::new(format!("block{b}"));
        let mut count = 0usize;
        for j in 0..ROWS_PER_BLOCK {
            let r = (b + j) % VARIANTS;
            def.add_instance(Instance::new(
                row_ids[r],
                Point::new(0, j as i64 * TILE_H),
                Orientation::NORTH,
            ));
            count += row_boxes[r];
        }
        block_ids.push(table.insert(def)?);
        block_boxes.push(count);
    }
    let block_h = ROWS_PER_BLOCK as i64 * TILE_H;
    let mut top = CellDefinition::new("megachip");
    let mut boxes = 0usize;
    let mut g = 0usize;
    while boxes < target || g == 0 {
        let b = g % VARIANTS;
        top.add_instance(Instance::new(
            block_ids[b],
            Point::new(0, g as i64 * block_h),
            Orientation::NORTH,
        ));
        boxes += block_boxes[b];
        g += 1;
    }
    let top = table.insert(top)?;
    Ok(MegaChip { table, top, boxes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_layout::{drc, flatten, Technology};

    #[test]
    fn flat_lattice_hits_target_and_is_clean() {
        let tech = Technology::mead_conway(2);
        let boxes = megachip_flat(10_000);
        assert!(boxes.len() >= 10_000);
        let flat = rsg_layout::FlatLayout::from_boxes(boxes);
        assert!(drc::check_flat(&flat, &tech.rules).is_empty());
    }

    #[test]
    fn hier_lattice_hits_target_and_is_clean() {
        let tech = Technology::mead_conway(2);
        let chip = megachip_hier(50_000).unwrap();
        assert!(chip.boxes >= 50_000);
        let flat = flatten(&chip.table, chip.top).unwrap();
        assert_eq!(flat.len(), chip.boxes);
        assert!(drc::check_flat(&flat, &tech.rules).is_empty());
    }

    #[test]
    fn hier_variants_share_one_mask_image() {
        // Every tile variant must paint the same four bars — distinct
        // content hashes, identical material — or the
        // DRC-clean-by-construction argument (and the profile collapse)
        // would not hold. Segments never overlap, so summing areas per
        // layer checks coverage exactly.
        let chip = megachip_hier(1).unwrap();
        for v in 0..VARIANTS {
            let id = chip.table.lookup(&format!("tile{v}")).unwrap();
            let flat = flatten(&chip.table, id).unwrap();
            for &layer in &LAYERS {
                let area: i64 = flat
                    .layer_rects()
                    .iter()
                    .filter(|&&(l, _)| l == layer)
                    .map(|&(_, r)| r.area())
                    .sum();
                assert_eq!(area, TILE_W * BAR, "tile{v} {layer:?} bar coverage");
            }
        }
    }
}
