//! Chapter 6: leaf-cell compaction with pitch trade-offs.
//!
//! Compacts a small cell library once, under every legal interface, with
//! the pitches as unknowns — then retargets the same library to a finer
//! technology, the "technology transportable" scenario that motivates the
//! whole chapter. Independent cells of one library fan out through the
//! parallel batch compactor; the solver backend is pluggable and the
//! cost-function study at the end compares two of them.
//!
//! Run with `cargo run --example leaf_compaction`.

use rsg::compact::backend::{Balanced, BellmanFord, Solver};
use rsg::compact::layers::expand_contacts;
use rsg::compact::leaf::{
    compact, compact_batch, LeafInterface, LeafOptions, LibraryJob, PitchKind,
};
use rsg::compact::par::Parallelism;
use rsg::geom::Rect;
use rsg::layout::{CellDefinition, Layer, Technology};

fn library_cell() -> CellDefinition {
    let mut c = CellDefinition::new("cell");
    c.add_box(Layer::Poly, Rect::from_coords(4, 0, 10, 40));
    c.add_box(Layer::Diffusion, Rect::from_coords(12, 10, 24, 18));
    c.add_box(Layer::Metal1, Rect::from_coords(20, 4, 32, 36));
    c.add_box(Layer::Poly, Rect::from_coords(40, 0, 46, 40));
    c.add_box(Layer::Contact, Rect::from_coords(22, 14, 30, 26));
    c
}

fn interfaces(weight_h: i64) -> Vec<LeafInterface> {
    vec![
        LeafInterface {
            cell_a: 0,
            cell_b: 0,
            kind: PitchKind::VariableX {
                initial: 56,
                weight: weight_h,
            },
            y_offset: 0,
            name: "horizontal".into(),
        },
        LeafInterface {
            cell_a: 0,
            cell_b: 0,
            kind: PitchKind::FixedX(0),
            y_offset: 44,
            name: "vertical".into(),
        },
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== leaf-cell compaction: one cell, every interface ===\n");
    // The library was drawn at λ = 2; retarget it to λ = 1 and λ = 3.
    // (Each retarget uses different design rules, so these are separate
    // compact() calls; the batch API below fans out within one rule set.)
    let lambdas = [2i64, 1, 3];
    let techs: Vec<Technology> = lambdas
        .iter()
        .map(|&l| Technology::mead_conway(l))
        .collect();
    for tech in &techs {
        let out = compact(
            &[library_cell()],
            &interfaces(64),
            &tech.rules,
            &BellmanFord::SORTED,
            &LeafOptions::default(),
        )?;
        println!("--- {} ---", tech.name);
        println!(
            "unknowns: {}   constraints: {}",
            out.unknowns, out.constraints
        );
        for (name, value) in &out.pitches {
            println!("pitch {name} = {value} (sample had 56)");
        }
        let bb = out.cells[0].local_bbox().rect().expect("non-empty");
        println!("cell bbox after compaction: {bb}");

        // Contact pseudo-layer expansion at mask time (Fig 6.9).
        let expanded = expand_contacts(&out.cells[0], &tech.rules);
        let cuts = expanded.boxes().filter(|(l, _)| *l == Layer::Cut).count();
        println!("contact expanded into {cuts} cut(s)\n");
    }

    println!("=== parallel batch: independent cells of one library ===");
    // A real library holds many cells with no shared constraints; those
    // are embarrassingly parallel jobs under one rule set. The parallel
    // path is byte-identical to the serial path by construction.
    let tech2 = Technology::mead_conway(2);
    let jobs: Vec<LibraryJob> = (0..4i64)
        .map(|k| {
            let mut c = CellDefinition::new(format!("cell{k}"));
            c.add_box(Layer::Poly, Rect::from_coords(4, 0, 10, 40));
            c.add_box(
                Layer::Metal1,
                Rect::from_coords(20 + 2 * k, 4, 32 + 2 * k, 36),
            );
            c.add_box(
                Layer::Poly,
                Rect::from_coords(40 + 4 * k, 0, 46 + 4 * k, 40),
            );
            LibraryJob {
                cells: vec![c],
                interfaces: vec![LeafInterface {
                    cell_a: 0,
                    cell_b: 0,
                    kind: PitchKind::VariableX {
                        initial: 56 + 4 * k,
                        weight: 8,
                    },
                    y_offset: 0,
                    name: format!("pitch{k}"),
                }],
            }
        })
        .collect();
    let serial = compact_batch(
        &jobs,
        &tech2.rules,
        &BellmanFord::SORTED,
        Parallelism::Serial,
    );
    let parallel = compact_batch(&jobs, &tech2.rules, &BellmanFord::SORTED, Parallelism::Auto);
    assert_eq!(serial, parallel, "parallel batch must match serial");
    for result in parallel {
        let out = result?;
        let (name, pitch) = &out.pitches[0];
        println!("cell job {name}: solved pitch = {pitch}");
    }
    println!("parallel == serial, bit for bit.\n");

    println!("=== cost-function trade-off (Fig 6.1/6.2) ===");
    // Two staggered-row interfaces whose pitches are coupled through the
    // cell's internal geometry: shrinking one grows the other. The cost
    // weights (expected replication factors n, m of §6.2) pick the point
    // on the trade-off curve.
    let tech = Technology::mead_conway(2);
    let mut brick = CellDefinition::new("brick");
    brick.add_box(Layer::Metal1, Rect::from_coords(0, 0, 4, 10));
    brick.add_box(Layer::Metal1, Rect::from_coords(20, 20, 24, 30));
    let coupled = |w_a: i64, w_b: i64| {
        vec![
            LeafInterface {
                cell_a: 0,
                cell_b: 0,
                kind: PitchKind::VariableX {
                    initial: 40,
                    weight: w_a,
                },
                y_offset: -20,
                name: "lambda_a".into(),
            },
            LeafInterface {
                cell_a: 0,
                cell_b: 0,
                kind: PitchKind::VariableX {
                    initial: 40,
                    weight: w_b,
                },
                y_offset: 20,
                name: "lambda_b".into(),
            },
        ]
    };
    // The backend is pluggable: the pitch trade-off is identical under
    // left-packing and balanced refinement (pitches come from the LP;
    // backends only place the edges within the solved pitches).
    for backend in [&BellmanFord::SORTED as &dyn Solver, &Balanced] {
        for (w_a, w_b) in [(1i64, 10i64), (10, 1), (5, 5)] {
            let out = compact(
                &[brick.clone()],
                &coupled(w_a, w_b),
                &tech.rules,
                backend,
                &LeafOptions::default(),
            )?;
            println!(
                "[{}] weights (n={w_a:>2}, m={w_b:>2}): pitches = {:?}",
                backend.name(),
                out.pitches
            );
        }
    }
    println!("\nminimizing one pitch costs the other — §6.2's central observation.");
    Ok(())
}
