//! Golden gate for the pass-manager redesign: the `fast`/`standard`/`high`
//! preset scripts must produce **bit-identical** AIGs to the legacy
//! hard-coded `Effort` loop.
//!
//! The legacy loop is copied verbatim below (against the public pass
//! functions) so the pin survives refactors of `optimize` itself. Run in
//! CI as a named step.

use proptest::prelude::*;

use xsfq_aig::opt::{self, Effort};
use xsfq_aig::pass::{PassCtx, Script};
use xsfq_aig::{build, Aig, Lit};

mod common;
use common::circuit_from_recipe;

/// The pre-redesign `optimize_with` body, verbatim (modulo going through
/// the public per-pass entry points).
fn legacy_optimize(aig: &Aig, effort: Effort) -> Aig {
    let (rounds, refactor_k) = match effort {
        Effort::Fast => (1, 8),
        Effort::Standard => (3, 8),
        Effort::High => (6, 10),
    };
    let mut best = aig.compact();
    for _ in 0..rounds {
        let before = best.num_ands();
        let mut cur = opt::balance(&best);
        cur = opt::rewrite(&cur);
        cur = opt::refactor_with_cut_size(&cur, refactor_k);
        cur = opt::balance(&cur);
        cur = opt::rewrite_zero(&cur);
        cur = opt::rewrite(&cur);
        if cur.num_ands() < best.num_ands()
            || (cur.num_ands() == best.num_ands() && cur.depth() < best.depth())
        {
            best = cur;
        }
        if best.num_ands() >= before {
            break;
        }
    }
    best
}

fn run_preset(aig: &Aig, effort: Effort) -> Aig {
    Script::preset(effort)
        .compile(None)
        .expect("presets compile")
        .run(aig, &mut PassCtx::new())
}

fn assert_identical(a: &Aig, b: &Aig, label: &str) {
    common::assert_identical(a, b).unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn presets_match_legacy_effort_on_structured_circuits() {
    let mut mul = Aig::new("mul7");
    let a = mul.input_word("a", 7);
    let b = mul.input_word("b", 7);
    let p = build::array_multiplier(&mut mul, &a, &b);
    mul.output_word("p", &p);

    let mut alu = Aig::new("alu");
    let a = alu.input_word("a", 5);
    let b = alu.input_word("b", 5);
    let sel = alu.input("sel");
    let (sum, carry) = build::ripple_add(&mut alu, &a, &b, Lit::FALSE);
    let xors: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| alu.xor(x, y)).collect();
    let out = build::mux_word(&mut alu, sel, &sum, &xors);
    alu.output_word("o", &out);
    alu.output("c", carry);

    for g in [&mul, &alu] {
        for effort in [Effort::Fast, Effort::Standard, Effort::High] {
            let golden = legacy_optimize(g, effort);
            let label = format!("{} {effort:?}", g.name());
            assert_identical(&golden, &run_preset(g, effort), &label);
            // The facade entry point must agree too.
            assert_identical(&golden, &opt::optimize(g, effort), &label);
        }
    }
}

#[test]
fn preset_scripts_parse_to_the_documented_text() {
    assert_eq!(
        Script::preset(Effort::Fast).to_string(),
        "c; repeat 1 { b; rw; rf; b; rwz; rw }"
    );
    assert_eq!(
        Script::preset(Effort::Standard).to_string(),
        "c; repeat 3 { b; rw; rf; b; rwz; rw }"
    );
    assert_eq!(
        Script::preset(Effort::High).to_string(),
        "c; repeat 6 { b; rw; rf -K 10; b; rwz; rw }"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Preset scripts == legacy Effort loop, node-for-node, on random DAGs.
    #[test]
    fn presets_match_legacy_effort_on_random_circuits(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 8..100),
        inputs in 2usize..8,
        effort_sel in 0u8..3,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let effort = match effort_sel {
            0 => Effort::Fast,
            1 => Effort::Standard,
            _ => Effort::High,
        };
        let golden = legacy_optimize(&g, effort);
        let scripted = run_preset(&g, effort);
        prop_assert_eq!(golden.nodes(), scripted.nodes(), "node tables differ");
        prop_assert_eq!(golden.outputs(), scripted.outputs());
        prop_assert_eq!(golden.inputs(), scripted.inputs());
    }
}
