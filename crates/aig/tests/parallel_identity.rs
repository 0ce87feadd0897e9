//! CI gate for the data-parallel executor: `optimize` must be
//! **bit-identical** across thread counts — same node table (ids, kinds and
//! fanin literals, which fixes the structural-hash state), same interface.
//!
//! This is the contract that makes the parallel evaluate phases safe: they
//! are pure functions of the input graph, and all replacements are
//! committed single-threaded in node-index order. Run in CI as a named
//! step, like `sweep_agreement`.

use proptest::prelude::*;

use xsfq_aig::opt::{self, Effort};
use xsfq_aig::pass::{PassCtx, Script};
use xsfq_aig::Aig;
use xsfq_exec::ThreadPool;

mod common;
use common::{assert_identical, circuit_from_recipe};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `optimize(aig, effort)` with 1 thread vs. N threads: bit-identical
    /// output AIGs (same node order, same strash state).
    #[test]
    fn parallel_optimize_is_bit_identical(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 8..120),
        inputs in 2usize..8,
        effort_sel in 0u8..3,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let effort = match effort_sel {
            0 => Effort::Fast,
            1 => Effort::Standard,
            _ => Effort::High,
        };
        let sequential = ThreadPool::new(1);
        let parallel = ThreadPool::new(4);
        let a = opt::optimize_with(&g, effort, &sequential);
        let b = opt::optimize_with(&g, effort, &parallel);
        assert_identical(&a, &b)?;
        // And against the default-pool entry point the flow uses.
        let c = opt::optimize(&g, effort);
        assert_identical(&a, &c)?;
    }

    /// `balance` follows the same evaluate/commit mold: bit-identical
    /// output for every thread count.
    #[test]
    fn parallel_balance_is_bit_identical(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 8..120),
        inputs in 2usize..8,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let sequential = ThreadPool::new(1);
        let a = opt::balance_with(&g, &sequential);
        for threads in [2usize, 5] {
            let pool = ThreadPool::new(threads);
            let b = opt::balance_with(&g, &pool);
            assert_identical(&a, &b)?;
        }
        // The global-pool entry point agrees.
        assert_identical(&a, &opt::balance(&g))?;
    }

    /// Arbitrary scripted pass sequences (not just the presets) stay
    /// bit-identical across pool sizes — the pass manager inherits the
    /// evaluate/commit determinism of every pass it schedules.
    #[test]
    fn scripted_passes_are_bit_identical_across_pools(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 8..80),
        inputs in 2usize..8,
        picks in prop::collection::vec(0usize..6, 1..6),
    ) {
        const TOKENS: [&str; 6] = ["b", "rw", "rwz", "rf", "rf -K 5", "c"];
        let g = circuit_from_recipe(&recipe, inputs);
        let text = picks.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join("; ");
        let compiled = Script::parse(&text)
            .unwrap()
            .compile(None)
            .unwrap();
        let sequential = ThreadPool::new(1);
        let parallel = ThreadPool::new(4);
        let a = compiled.run(&g, &mut PassCtx::new(&sequential));
        let b = compiled.run(&g, &mut PassCtx::new(&parallel));
        assert_identical(&a, &b)?;
    }
}

/// Deterministic (non-proptest) smoke over a structured circuit big enough
/// to exercise multiple evaluate batches, each split across participants.
#[test]
fn parallel_optimize_identical_on_multiplier() {
    let mut g = Aig::new("mul8");
    let a = g.input_word("a", 8);
    let b = g.input_word("b", 8);
    let p = xsfq_aig::build::array_multiplier(&mut g, &a, &b);
    g.output_word("p", &p);
    let sequential = ThreadPool::new(1);
    let a1 = opt::optimize_with(&g, Effort::Standard, &sequential);
    for threads in [2, 4, 7] {
        let pool = ThreadPool::new(threads);
        let an = opt::optimize_with(&g, Effort::Standard, &pool);
        assert_eq!(a1.nodes(), an.nodes(), "threads = {threads}");
        assert_eq!(a1.outputs(), an.outputs(), "threads = {threads}");
    }
}
