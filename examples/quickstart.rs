//! Quickstart: synthesize a small design to clock-free xSFQ cells.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use xsfq::aig::{build, Aig, Lit};
use xsfq::core::SynthesisFlow;
use xsfq::netlist::writers;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the design as an AIG (the RTL-entry substitute).
    let mut aig = Aig::new("adder4");
    let a = aig.input_word("a", 4);
    let b = aig.input_word("b", 4);
    let (sum, carry) = build::ripple_add(&mut aig, &a, &b, Lit::FALSE);
    aig.output_word("sum", &sum);
    aig.output("carry", carry);
    println!("input design: {aig}");

    // 2. Run the flow: a pass script optimizes the AIG, then polarities are
    //    chosen, the graph is mapped, and splitters inserted. The script is
    //    ABC-style — `"standard"` is the default preset, and any recipe
    //    like `"b; rw; rf; b; rwz; rw"` or `"standard; f"` works.
    //    `verify(true)` adds a SAT proof that the netlist matches.
    let result = SynthesisFlow::new()
        .script_str("standard")?
        .verify(true)
        .run(&aig)?;
    println!("report:       {}", result.report);

    // 3. Per-pass telemetry: every scripted pass reports wall time,
    //    node/depth deltas and its commit count.
    println!("passes:");
    for stat in &result.report.passes {
        println!("  {stat}");
    }

    // 4. Inspect the mapped netlist.
    let stats = result.netlist().stats();
    println!(
        "cells: {} LA/FA + {} splitters = {} JJs ({} clocked cells — clock-free!)",
        stats.la_fa, stats.splitters, stats.jj_total, stats.clocked_cells
    );

    // 5. Export structural Verilog.
    let mut verilog = Vec::new();
    writers::write_verilog(result.netlist(), &mut verilog)?;
    println!("\n--- netlist.v (first lines) ---");
    for line in String::from_utf8(verilog)?.lines().take(12) {
        println!("{line}");
    }
    Ok(())
}
