//! Experiment E1's three-phase table (§4.5): "The execution time is
//! divided into roughly three equal parts: reading in the source file and
//! building up the initial interface table, parsing and executing the
//! design and parameter file, and writing the output file. A 32×32
//! Baugh-Wooley multiplier ... is generated in 5 seconds on a DEC-2060."
//!
//! The compaction column is followed by the new solver diagnostics:
//! which tight constraints pin each library pitch (§6.2's "which
//! constraints set the width"), and the critical path of the compacted
//! flat core — the chain of constraints whose weights sum to the solved
//! extent.
//!
//! Run with `cargo run --release --example phase_breakdown`.

use rsg::compact::backend::BellmanFord;
use rsg::compact::par::Parallelism;
use rsg::compact::scanline::{self, Method, Prune};
use rsg::compact::solver::{solve, EdgeOrder};
use rsg::core::Rsg;
use rsg::geom::Axis;
use rsg::lang::Interpreter;
use rsg::mult::{cells, compactor, design_file_source, parameter_file_source};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "size", "read sample", "execute", "write output", "compact lib", "total"
    );
    let mut library = None;
    for n in [8usize, 16, 32, 64] {
        // Phase 1: read the sample layout (from its textual form, as the
        // paper's RSG read CIF) and build the interface table.
        let sample_table = cells::sample_layout()?;
        let any_top = sample_table.lookup("s_h").expect("sample cell");
        let sample_text = rsg::layout::write_rsgl(&sample_table, any_top)?;

        let t0 = Instant::now();
        let (_parsed, _) = rsg::layout::read_rsgl(&sample_text)?;
        let rsg = Rsg::from_sample(cells::sample_layout()?)?;
        let p1 = t0.elapsed();
        drop(rsg);

        // Phase 2: parse + execute design and parameter files.
        let t1 = Instant::now();
        let mut interp = Interpreter::from_sample(cells::sample_layout()?)?;
        interp.load_parameters(&parameter_file_source(n, n))?;
        let run = interp.run(design_file_source())?;
        let p2 = t1.elapsed();

        // Phase 3: write the output file.
        let top = run.rsg.cells().lookup("thewholething").expect("built");
        let t2 = Instant::now();
        let cif = rsg::layout::write_cif(run.rsg.cells(), top)?;
        let p3 = t2.elapsed();
        std::hint::black_box(cif.len());

        // Phase 4 (the Chapter 6 economics): leaf-compact the cell
        // library. Independent of n — the same cost whether the array is
        // 8×8 or 64×64, which is the whole point of §6.1.
        let t3 = Instant::now();
        let lib = compactor::compact_library(
            &rsg::layout::Technology::mead_conway(2).rules,
            &BellmanFord::SORTED,
            Parallelism::Auto,
        )?;
        let p4 = t3.elapsed();
        std::hint::black_box(lib.len());
        library = Some(lib);

        println!(
            "{:>6} {:>14.3?} {:>14.3?} {:>14.3?} {:>14.3?} {:>14.3?}",
            format!("{n}x{n}"),
            p1,
            p2,
            p3,
            p4,
            p1 + p2 + p3 + p4
        );
    }
    println!("\npaper (DEC-2060, 32x32): three roughly equal parts totalling ~5 s;");
    println!("library compaction is constant in the array size (leaf economics, §6.1).");

    // What pins each pitch: the tight (zero-slack) constraints the
    // solver reports per λᵢ — §6.2's "which constraints set the width".
    println!("\npitch bindings (tight constraints per λ):");
    for result in library.expect("loop ran") {
        for binding in &result.bindings {
            println!(
                "  {:>16} = {:>3}  pinned by {} tight constraint(s)",
                binding.name,
                binding.value,
                binding.tight.len()
            );
        }
    }

    // Critical path of a flat compaction: the chain of tight constraints
    // whose weights telescope to the compacted width.
    let out = rsg::mult::generator::generate(8, 8)?;
    let flat = rsg::layout::flatten(out.rsg.cells(), out.top)?;
    let boxes: Vec<_> = flat
        .layer_rects()
        .iter()
        .filter(|(l, _)| *l == rsg::layout::Layer::Metal1)
        .copied()
        .collect();
    let tech = rsg::layout::Technology::mead_conway(2);
    let (sys, _) = scanline::generate(
        &boxes,
        &tech.rules,
        Method::Visibility,
        Axis::X,
        Prune::Apply,
    );
    let sol = solve(&sys, EdgeOrder::Sorted)?;
    let widest = sys
        .vars()
        .max_by_key(|&v| sol.position(v))
        .expect("non-empty system");
    let chain = sol.critical_path(&sys, widest);
    let total: i64 = chain.iter().map(|c| c.weight).sum();
    println!(
        "\ncritical path, 8x8 multiplier metal1 ({} vars, {} constraints):",
        sys.num_vars(),
        sys.constraints().len()
    );
    println!(
        "  {} chain links, weights sum to {} = solved extent {}",
        chain.len(),
        total,
        sol.extent()
    );
    assert_eq!(total, sol.extent(), "the chain explains the extent");
    Ok(())
}
