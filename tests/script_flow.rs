//! Scripted-flow correctness: any permutation of script passes —
//! including `fraig` — must preserve the function of the design, proven by
//! SAT CEC against the source AIG, and the full flow over a scripted
//! recipe must still pass post-mapping verification.

use proptest::prelude::*;

use xsfq::aig::pass::{PassCtx, Script};
use xsfq::aig::{Aig, Lit};
use xsfq::core::SynthesisFlow;
use xsfq::sat::cec;

/// Every pass name a script can draw from (the set the flow compiles).
const TOKENS: [&str; 7] = ["b", "rw", "rwz", "rf", "rf -K 6", "c", "f"];

fn circuit_from_recipe(recipe: &[(u8, usize, usize)], inputs: usize) -> Aig {
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
    let n = pool.len();
    g.output("o0", pool[n - 1]);
    g.output("o1", pool[n / 2]);
    g.output("o2", !pool[2 * n / 3]);
    g
}

/// Build a script string from token picks, optionally wrapping a suffix of
/// the passes in a `repeat` block to exercise the keep-best loop.
fn script_text(picks: &[usize], repeat_split: usize) -> String {
    let names: Vec<&str> = picks.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect();
    let split = repeat_split % (names.len() + 1);
    if split == 0 || split == names.len() {
        names.join("; ")
    } else {
        format!(
            "{}; repeat 2 {{ {} }}",
            names[..split].join("; "),
            names[split..].join("; ")
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random permutation of script passes yields a CEC-equivalent AIG.
    #[test]
    fn random_scripts_preserve_equivalence(
        recipe in prop::collection::vec((any::<u8>(), 0usize..48, 0usize..48), 6..60),
        inputs in 2usize..7,
        picks in prop::collection::vec(0usize..TOKENS.len(), 1..7),
        repeat_split in 0usize..8,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let text = script_text(&picks, repeat_split);
        let compiled = Script::parse(&text)
            .unwrap_or_else(|e| panic!("script `{text}` must parse: {e}"))
            .compile(Some(xsfq::sat::fraig_pass))
            .unwrap_or_else(|e| panic!("script `{text}` must compile: {e}"));
        let out = compiled.run(&g, &mut PassCtx::new());
        prop_assert!(
            cec::check_equivalence(&g, &out).is_equivalent(),
            "script `{}` broke the function",
            text
        );
        prop_assert_eq!(g.num_inputs(), out.num_inputs());
        prop_assert_eq!(g.num_outputs(), out.num_outputs());
    }

    /// The same scripted recipes drive the whole flow: mapping must verify.
    #[test]
    fn scripted_flows_verify_after_mapping(
        recipe in prop::collection::vec((any::<u8>(), 0usize..32, 0usize..32), 6..40),
        inputs in 2usize..6,
        picks in prop::collection::vec(0usize..TOKENS.len(), 1..5),
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let text = script_text(&picks, 0);
        let r = SynthesisFlow::new()
            .script_str(&text)
            .unwrap()
            .verify(true)
            .run(&g)
            .unwrap_or_else(|e| panic!("scripted flow `{text}` failed: {e}"));
        prop_assert_eq!(r.report.passes.len(), picks.len(), "one stat per pass");
    }
}

/// Commit counters count only replacements that reach the output: on a
/// design the standard script has already converged, each further pass
/// hands back a graph equal to its input node for node and so reports no
/// commits.
#[test]
fn a_pass_that_changes_nothing_commits_nothing() {
    let run = |text: &str, g: &Aig| {
        let compiled = Script::parse(text).unwrap().compile(None).unwrap();
        let mut ctx = PassCtx::new();
        let out = compiled.run(g, &mut ctx);
        (out, ctx.take_telemetry())
    };
    let source = xsfq::benchmarks::by_name("int2float").unwrap();
    let (mut g, _) = run("standard", &source);
    for pass in ["rw", "rf", "rwz"] {
        let (out, stats) = run(pass, &g);
        assert!(
            out.nodes() == g.nodes() && out.outputs() == g.outputs(),
            "premise: `{pass}` leaves the converged int2float unchanged"
        );
        assert_eq!(stats[0].commits, 0, "`{pass}` changed nothing");
        g = out;
    }
}
