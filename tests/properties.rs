//! Property-based tests over the core data structures and flow invariants.

use proptest::prelude::*;
use xsfq::aig::{build, opt, sim, tt::TruthTable, Aig, Lit};
use xsfq::core::{map_xsfq, MapOptions, PolarityMode};
use xsfq::sat::cec;

/// Build a random DAG circuit from a recipe of (op, operand indices).
fn circuit_from_recipe(recipe: &[(u8, usize, usize)], inputs: usize, outputs: usize) -> Aig {
    let mut g = Aig::new("rand");
    let mut pool: Vec<Lit> = (0..inputs).map(|i| g.input(format!("x{i}"))).collect();
    for &(op, i, j) in recipe {
        let a = pool[i % pool.len()];
        let b = pool[j % pool.len()];
        let lit = match op % 6 {
            0 => g.and(a, b),
            1 => g.or(a, b),
            2 => g.xor(a, b),
            3 => g.nand(a, b),
            4 => g.mux(a, b, !a),
            _ => g.xnor(a, b),
        };
        pool.push(lit);
    }
    for o in 0..outputs {
        let lit = pool[pool.len() - 1 - (o % pool.len().min(8))];
        g.output(format!("y{o}"), lit);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Optimization never grows the graph and always preserves the
    /// function (proved by SAT, not just simulated).
    #[test]
    fn optimization_preserves_function(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 4..40),
        inputs in 2usize..6,
    ) {
        let g = circuit_from_recipe(&recipe, inputs, 3);
        let o = opt::optimize(&g, opt::Effort::Fast);
        prop_assert!(o.num_ands() <= g.num_ands());
        prop_assert!(cec::equivalent(&g, &o));
    }

    /// The mapped xSFQ netlist always reconstructs to the source function,
    /// and its physical form satisfies the single-sink (splitter) law.
    #[test]
    fn mapping_is_sound(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 4..28),
        inputs in 2usize..5,
        mode_sel in 0u8..3,
    ) {
        let g = circuit_from_recipe(&recipe, inputs, 2);
        let mode = match mode_sel {
            0 => PolarityMode::DualRail,
            1 => PolarityMode::AllPositive,
            _ => PolarityMode::Heuristic,
        };
        let m = map_xsfq(&g, &MapOptions { polarity: mode, ..Default::default() });
        // Single-sink law on the physical netlist.
        prop_assert!(m.physical.fanout_counts().iter().all(|&f| f <= 1));
        // Functional soundness (SAT proof via the verify module).
        prop_assert!(xsfq::core::verify::verify_mapping(&g, &m, mode).is_ok());
        // Heuristic polarity never exceeds the all-positive cost.
        if mode == PolarityMode::Heuristic {
            let ap = map_xsfq(&g, &MapOptions { polarity: PolarityMode::AllPositive, ..Default::default() });
            prop_assert!(m.physical.stats().la_fa <= ap.physical.stats().la_fa);
        }
    }

    /// ISOP + factoring round-trips arbitrary truth tables.
    #[test]
    fn synthesize_roundtrips_any_function(bits in any::<u16>()) {
        let tt = TruthTable::from_word(4, bits as u64);
        let mut g = Aig::new("t");
        let leaves: Vec<Lit> = (0..4).map(|i| g.input(format!("x{i}"))).collect();
        let out = xsfq::aig::synth::synthesize(&mut g, &tt, &leaves);
        g.output("f", out);
        for p in 0..16usize {
            let inputs: Vec<bool> = (0..4).map(|i| p >> i & 1 == 1).collect();
            let got = sim::eval_outputs(&g, &inputs)[0];
            prop_assert_eq!(got, bits >> p & 1 == 1);
        }
    }

    /// The adder builder matches machine arithmetic for arbitrary widths
    /// and operands.
    #[test]
    fn adder_matches_arithmetic(a in any::<u32>(), b in any::<u32>(), width in 1usize..16) {
        let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
        let (a, b) = (a & mask, b & mask);
        let mut g = Aig::new("add");
        let aw = g.input_word("a", width);
        let bw = g.input_word("b", width);
        let (s, c) = build::ripple_add(&mut g, &aw, &bw, Lit::FALSE);
        g.output_word("s", &s);
        g.output("c", c);
        let mut inputs = Vec::new();
        for i in 0..width { inputs.push(a >> i & 1 == 1); }
        for i in 0..width { inputs.push(b >> i & 1 == 1); }
        let out = sim::eval_outputs(&g, &inputs);
        let mut got = 0u64;
        for (i, &bit) in out.iter().enumerate() { got |= (bit as u64) << i; }
        prop_assert_eq!(got, a as u64 + b as u64);
    }
}
