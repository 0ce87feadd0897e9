//! Helpers for the `script_golden` gate: a random-DAG generator and the
//! bit-identity check.

use proptest::prelude::*;
use xsfq_aig::{Aig, Lit};

/// Random DAG from a recipe of (op, operand, operand) triples.
pub fn circuit_from_recipe(recipe: &[(u8, usize, usize)], inputs: usize) -> Aig {
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
    // Several outputs so optimization sees shared logic, not one cone.
    let n = pool.len();
    g.output("o0", pool[n - 1]);
    g.output("o1", pool[n / 2]);
    g.output("o2", !pool[2 * n / 3]);
    g
}

/// Node-table + interface equality: node ids and fanin literals fix the
/// strash state, so this is bit-identity of the whole graph.
pub fn assert_identical(a: &Aig, b: &Aig) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.nodes(), b.nodes(), "node tables differ");
    prop_assert_eq!(a.inputs(), b.inputs());
    prop_assert_eq!(a.outputs(), b.outputs());
    prop_assert_eq!(a.latches(), b.latches());
    prop_assert_eq!(a.name(), b.name());
    Ok(())
}
