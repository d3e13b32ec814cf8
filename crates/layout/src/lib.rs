//! Layout database substrate for the Regular Structure Generator.
//!
//! The RSG "maintains its own database and as such is layout file format
//! independent" (paper §4.5). This crate provides that database:
//!
//! * [`Layer`]s and a λ-based Mead–Conway [`Technology`] with design rules,
//! * [`CellDefinition`]s holding boxes, labels, and [`Instance`]s of other
//!   cells (paper §2.1 and Fig 4.2/4.3),
//! * a [`CellTable`] (the paper's "cell definition table", a hash table),
//! * hierarchical [`flatten`]ing into a [`FlatLayout`] — boxes plus a
//!   prebuilt [`rsg_geom::GeomIndex`] shared by DRC, statistics, CIF
//!   emission, and the compactor,
//! * a CIF 2.0 writer and a simple textual `.rsgl` format with both writer
//!   and reader (standing in for the paper's CIF and DEF back ends),
//! * layout [`stats::LayoutStats`],
//! * stable content [`hash`]ing of cells and rules — the cache identity
//!   used by `rsg_compact::incremental`.
//!
//! # Example
//!
//! ```
//! use rsg_layout::{CellDefinition, CellTable, Instance, Layer};
//! use rsg_geom::{Orientation, Point, Rect};
//!
//! let mut table = CellTable::new();
//! let mut leaf = CellDefinition::new("leaf");
//! leaf.add_box(Layer::Metal1, Rect::from_coords(0, 0, 4, 4));
//! let leaf_id = table.insert(leaf).unwrap();
//!
//! let mut top = CellDefinition::new("top");
//! top.add_instance(Instance::new(leaf_id, Point::new(10, 0), Orientation::NORTH));
//! let top_id = table.insert(top).unwrap();
//!
//! let flat = rsg_layout::flatten(&table, top_id).unwrap();
//! assert_eq!(flat.len(), 1);
//! ```
//!
//! Library code is panic-free by policy: `unwrap`/`expect` are denied
//! outside `#[cfg(test)]` (see DESIGN.md's robustness section).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

mod cell;
mod cif;
pub mod drc;
mod error;
mod flatten;
pub mod hash;
mod instance;
mod layer;
mod rsgl;
pub mod stats;
mod technology;

pub use cell::{CellDefinition, CellId, CellTable, LayoutObject};
pub use cif::{cif_safe_name, read_cif, write_cif, write_cif_flat};
pub use error::LayoutError;
pub use flatten::{flatten, flatten_boxes_of, FlatLayout};
pub use instance::Instance;
pub use layer::Layer;
pub use rsgl::{read_rsgl, write_rsgl};
pub use technology::{DesignRules, Technology};
