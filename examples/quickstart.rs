//! Quickstart: the full Fig 1.1 flow in fifty lines.
//!
//! 1. Draw a sample layout: a leaf cell plus one assembly cell in which
//!    two instances overlap and a numeric label marks the interface.
//! 2. Feed it to the generator: the interface table is extracted.
//! 3. Build a connectivity graph (partial instances + interface-indexed
//!    edges) and expand it into a layout.
//! 4. Write CIF.
//!
//! Run with `cargo run --example quickstart`.

use rsg::core::Rsg;
use rsg::geom::{Orientation, Point, Rect};
use rsg::layout::{CellDefinition, CellTable, Instance, Layer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. the sample layout (normally read from a .rsgl file) --------
    let mut sample = CellTable::new();
    let mut tile = CellDefinition::new("tile");
    tile.add_box(Layer::Well, Rect::from_coords(0, 0, 12, 12));
    tile.add_box(Layer::Metal1, Rect::from_coords(3, 3, 9, 9));
    let tile_id = sample.insert(tile)?;

    // Design by example: two tiles assembled at the desired pitch, the
    // label "1" in the shared region defines interface #1.
    let mut pair = CellDefinition::new("example_pair");
    pair.add_instance(Instance::new(tile_id, Point::new(0, 0), Orientation::NORTH));
    pair.add_instance(Instance::new(
        tile_id,
        Point::new(12, 0),
        Orientation::NORTH,
    ));
    pair.add_label("1", Point::new(12, 6));
    sample.insert(pair)?;

    // --- 2. initialize the generator -----------------------------------
    let mut rsg = Rsg::from_sample(sample)?;
    let tile_cell = rsg.cells().lookup("tile").expect("sample cell");
    println!("extracted {} interface entries", rsg.interfaces().len());

    // --- 3. connectivity graph → layout ---------------------------------
    let nodes: Vec<_> = (0..8).map(|_| rsg.mk_instance(tile_cell)).collect();
    for w in nodes.windows(2) {
        rsg.connect(w[0], w[1], 1)?;
    }
    let row = rsg.mk_cell("row8", nodes[0])?;

    // One hierarchy walk produces the FlatLayout: boxes + a prebuilt
    // spatial index that stats, DRC, and flat CIF emission all share.
    let flat = rsg::layout::flatten(rsg.cells(), row)?;
    let stats = rsg::layout::stats::LayoutStats::of_flat(&flat);
    println!("built `row8`:\n{stats}");
    let tech = rsg::layout::Technology::mead_conway(2);
    println!(
        "DRC: {} violations",
        rsg::layout::drc::check_flat(&flat, &tech.rules).len()
    );

    // --- 4. output -------------------------------------------------------
    let cif = rsg::layout::write_cif(rsg.cells(), row)?;
    println!("--- CIF ---\n{cif}");
    println!(
        "--- flat CIF ---\n{}",
        rsg::layout::write_cif_flat(&flat, "row8_flat")?
    );
    Ok(())
}
