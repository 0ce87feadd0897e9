//! CI gate for the mapping pipeline: the mapped physical netlist must be
//! **bit-identical** across thread counts — same cell table (kinds and pin
//! wiring, which fixes `CellId`/`NetId` numbering), same ports, same
//! trigger marks, same polarity assignment and rail requirements.
//!
//! The requirements sweep, the heuristic polarity search and the emission
//! run sequentially; only the exhaustive polarity search fans out, and it
//! reduces in candidate order. This pins that the pool cannot leak into
//! the result. Run in CI as a named step under the default pool and
//! `XSFQ_THREADS=1`, like `parallel_identity` and `script_golden`.

use proptest::prelude::*;

use xsfq_aig::{Aig, Lit};
use xsfq_core::pipeline::choose_rank_levels;
use xsfq_core::{
    map_with_assignment_pool, map_xsfq_with_pool, MapOptions, MappedDesign, PolarityAssignment,
    PolarityMode,
};
use xsfq_exec::ThreadPool;

/// Random DAG from a recipe of (op, operand, operand) triples.
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
    // Several outputs so the polarity search has real choices to make.
    let n = pool.len();
    g.output("o0", pool[n - 1]);
    g.output("o1", !pool[n - 2]);
    g.output("o2", pool[n / 2]);
    g
}

fn assert_mapped_identical(a: &MappedDesign, b: &MappedDesign) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.assignment, &b.assignment, "polarity assignment");
    prop_assert_eq!(&a.requirements, &b.requirements, "rail requirements");
    prop_assert_eq!(&a.logical, &b.logical, "logical netlist");
    prop_assert_eq!(&a.physical, &b.physical, "physical netlist");
    prop_assert_eq!(a.used_nodes, b.used_nodes);
    prop_assert_eq!(a.trigger_merger_jj, b.trigger_merger_jj);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `map_xsfq` (polarity search + requirements sweep + emission) with
    /// 1 thread vs. 4 threads vs. the global pool: bit-identical mapped
    /// designs in every polarity mode.
    #[test]
    fn mapping_is_bit_identical_across_pools(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 8..100),
        inputs in 2usize..8,
        mode_sel in 0u8..4,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let mode = match mode_sel {
            0 => PolarityMode::DualRail,
            1 => PolarityMode::AllPositive,
            2 => PolarityMode::Heuristic,
            _ => PolarityMode::Exhaustive,
        };
        let options = MapOptions {
            polarity: mode,
            ..Default::default()
        };
        let sequential = ThreadPool::new(1);
        let parallel = ThreadPool::new(4);
        let a = map_xsfq_with_pool(&g, &options, &sequential);
        let b = map_xsfq_with_pool(&g, &options, &parallel);
        assert_mapped_identical(&a, &b)?;
        // And against the global-pool entry point the flow uses.
        let c = map_xsfq_with_pool(&g, &options, ThreadPool::global());
        assert_mapped_identical(&a, &c)?;
    }

    /// Pipelined mapping (rank-aware sweep, DROC chain creation) stays
    /// bit-identical across pools.
    #[test]
    fn pipelined_mapping_is_bit_identical_across_pools(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 8..80),
        inputs in 2usize..8,
        stages in 1usize..3,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let options = MapOptions {
            rank_levels: choose_rank_levels(&g, stages, 2),
            ..Default::default()
        };
        let sequential = ThreadPool::new(1);
        let a = map_xsfq_with_pool(&g, &options, &sequential);
        for threads in [2usize, 5] {
            let pool = ThreadPool::new(threads);
            let b = map_xsfq_with_pool(&g, &options, &pool);
            assert_mapped_identical(&a, &b)?;
        }
    }
}

/// Deterministic smoke over a structured sequential design (latch seeding
/// takes the §3.2 init-value path) plus an explicit-assignment mapping.
#[test]
fn sequential_and_explicit_assignment_identical() {
    let mut g = Aig::new("seq");
    let d = g.input("d");
    let q0 = g.latch("q0", false);
    let q1 = g.latch("q1", true);
    let x = g.xor(d, q0);
    let y = g.and(x, q1);
    g.set_latch_next(q0, y);
    g.set_latch_next(q1, !x);
    g.output("o", y);
    let options = MapOptions::default();
    let sequential = ThreadPool::new(1);
    let a = map_xsfq_with_pool(&g, &options, &sequential);
    for threads in [2, 4, 7] {
        let pool = ThreadPool::new(threads);
        let b = map_xsfq_with_pool(&g, &options, &pool);
        assert_eq!(a.physical, b.physical, "threads = {threads}");
        assert_eq!(a.logical, b.logical, "threads = {threads}");
    }
    // Explicit assignment path (ablation entry point).
    let assignment = PolarityAssignment::all_positive(&g);
    let a = map_with_assignment_pool(&g, &options, assignment.clone(), &sequential);
    let b = map_with_assignment_pool(&g, &options, assignment, &ThreadPool::new(4));
    assert_eq!(a.physical, b.physical);
}
