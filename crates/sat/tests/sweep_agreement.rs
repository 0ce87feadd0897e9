//! Agreement tests: the SAT-sweeping CEC engine must return exactly the
//! same verdicts as the classic monolithic miter encoder — on equivalent
//! pairs (a design against its optimized self) and on mutated pairs (a
//! design against a randomly perturbed copy) — and every counterexample
//! must actually distinguish the two designs under simulation.
//!
//! The monolithic encoder lives here, as this test's oracle: it is built
//! only on the solver's public API.

use std::collections::HashMap;

use proptest::prelude::*;

use xsfq_aig::{build, opt, sim, Aig, Lit as AigLit, NodeId, NodeKind};
use xsfq_sat::cec::{check_equivalence, EquivResult};
use xsfq_sat::{Lit, SatResult, Solver, Var};

/// Tseitin-encode the combinational logic of `aig` into `solver`.
///
/// Returns the literal map from AIG nodes to SAT literals. `input_vars` maps
/// each primary input index to an existing SAT variable (so multiple AIGs
/// can share inputs). Latch outputs are treated as free inputs via
/// `latch_vars` (cut-point abstraction for sequential designs).
pub fn encode(
    solver: &mut Solver,
    aig: &Aig,
    input_vars: &[Var],
    latch_vars: &[Var],
) -> HashMap<NodeId, Lit> {
    assert_eq!(input_vars.len(), aig.num_inputs(), "input var count");
    assert_eq!(latch_vars.len(), aig.num_latches(), "latch var count");
    let mut map: HashMap<NodeId, Lit> = HashMap::with_capacity(aig.num_nodes());
    // Constant node: a frozen variable forced to false.
    let const_var = solver.new_var();
    solver.add_clause(&[const_var.negative()]);
    map.insert(NodeId::CONST0, const_var.positive());
    for (i, kind) in aig.nodes().iter().enumerate() {
        let id = NodeId::from_index(i);
        match *kind {
            NodeKind::Const0 => {}
            NodeKind::Input { index } => {
                map.insert(id, input_vars[index as usize].positive());
            }
            NodeKind::Latch { index } => {
                map.insert(id, latch_vars[index as usize].positive());
            }
            NodeKind::And { a, b } => {
                let la = lit_of(&map, a);
                let lb = lit_of(&map, b);
                let n = solver.new_var().positive();
                // n <-> la & lb
                solver.add_clause(&[!n, la]);
                solver.add_clause(&[!n, lb]);
                solver.add_clause(&[n, !la, !lb]);
                map.insert(id, n);
            }
        }
    }
    map
}

fn lit_of(map: &HashMap<NodeId, Lit>, l: AigLit) -> Lit {
    let base = map[&l.node()];
    if l.is_complement() {
        !base
    } else {
        base
    }
}

/// The classic one-shot miter encoding: every output pair XORed, the
/// disjunction asserted, one monolithic solve on a cold solver. Kept as the
/// reference oracle for the sweeping engine. Interface requirements and
/// verdict semantics match [`check_equivalence`].
///
/// # Panics
///
/// Panics if the interfaces differ.
pub fn check_equivalence_monolithic(a: &Aig, b: &Aig) -> EquivResult {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    assert_eq!(a.num_latches(), b.num_latches(), "latch counts differ");

    let mut solver = Solver::new();
    let inputs: Vec<Var> = (0..a.num_inputs()).map(|_| solver.new_var()).collect();
    let latches: Vec<Var> = (0..a.num_latches()).map(|_| solver.new_var()).collect();
    let map_a = encode(&mut solver, a, &inputs, &latches);
    let map_b = encode(&mut solver, b, &inputs, &latches);

    // Miter: OR over outputs (and latch-next pairs) of XOR differences.
    let mut diffs: Vec<Lit> = Vec::new();
    let pairs = a
        .outputs()
        .iter()
        .map(|o| o.lit)
        .chain(a.latches().iter().map(|l| l.next))
        .zip(
            b.outputs()
                .iter()
                .map(|o| o.lit)
                .chain(b.latches().iter().map(|l| l.next)),
        );
    for (oa, ob) in pairs {
        let la = lit_of(&map_a, oa);
        let lb = lit_of(&map_b, ob);
        let d = solver.new_var().positive();
        // d <-> la XOR lb
        solver.add_clause(&[!d, la, lb]);
        solver.add_clause(&[!d, !la, !lb]);
        solver.add_clause(&[d, !la, lb]);
        solver.add_clause(&[d, la, !lb]);
        diffs.push(d);
    }
    if diffs.is_empty() {
        return EquivResult::Equivalent;
    }
    solver.add_clause(&diffs);
    match solver.solve() {
        SatResult::Unsat => EquivResult::Equivalent,
        SatResult::Sat => {
            let pattern = inputs
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect();
            EquivResult::Counterexample(pattern)
        }
    }
}

/// Random multi-output DAG from a recipe of (op, operand, operand) triples.
fn circuit_from_recipe(recipe: &[(u8, usize, usize)], inputs: usize) -> Aig {
    let mut g = Aig::new("rand");
    let mut pool: Vec<AigLit> = (0..inputs).map(|i| g.input(format!("x{i}"))).collect();
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
    // Several outputs so the per-pair final queries get exercised.
    for (k, &lit) in pool.iter().rev().take(3).enumerate() {
        g.output(format!("o{k}"), lit);
    }
    g
}

/// Both checkers on the same pair: verdicts must match, counterexamples
/// must distinguish.
fn assert_agreement(a: &Aig, b: &Aig) -> Result<(), TestCaseError> {
    let swept = check_equivalence(a, b);
    let mono = check_equivalence_monolithic(a, b);
    prop_assert_eq!(
        swept.is_equivalent(),
        mono.is_equivalent(),
        "verdicts diverge: swept {:?} vs monolithic {:?}",
        swept,
        mono
    );
    for result in [&swept, &mono] {
        if let EquivResult::Counterexample(cex) = result {
            prop_assert_eq!(cex.len(), a.num_inputs());
            prop_assert_ne!(
                sim::eval_outputs(a, cex),
                sim::eval_outputs(b, cex),
                "counterexample does not distinguish the designs"
            );
        }
    }
    Ok(())
}

/// A 4-bit ripple adder and its optimized self: both engines must say
/// Equivalent.
#[test]
fn agree_on_adders() {
    let mut g1 = Aig::new("g1");
    let a = g1.input_word("a", 4);
    let b = g1.input_word("b", 4);
    let (s, c) = build::ripple_add(&mut g1, &a, &b, AigLit::FALSE);
    g1.output_word("s", &s);
    g1.output("c", c);
    let g2 = opt::optimize(&g1, opt::Effort::Standard);
    assert!(check_equivalence(&g1, &g2).is_equivalent());
    assert_agreement(&g1, &g2).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A design and its optimized self: both engines must say Equivalent.
    /// The input range straddles `Simulator::EXHAUSTIVE_LIMIT` (12), so
    /// both the exhaustive-signature path and the random-simulation +
    /// counterexample-replay path face the oracle.
    #[test]
    fn agree_on_equivalent_pairs(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 4..40),
        inputs in 2usize..16,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let o = opt::optimize(&g, opt::Effort::Fast);
        prop_assert!(check_equivalence(&g, &o).is_equivalent(),
            "sweep must prove an optimized design equivalent");
        assert_agreement(&g, &o)?;
    }

    /// A design and a mutated copy (one operator swapped): verdicts must
    /// agree either way — the mutation may or may not change the function.
    #[test]
    fn agree_on_mutated_pairs(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 4..40),
        inputs in 2usize..16,
        mutate_at in 0usize..64,
        new_op in 0u8..6,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let mut mutated = recipe.clone();
        let k = mutate_at % mutated.len();
        mutated[k].0 = new_op;
        let m = circuit_from_recipe(&mutated, inputs);
        assert_agreement(&g, &m)?;
    }
}
