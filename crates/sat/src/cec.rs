//! Combinational equivalence checking.
//!
//! [`check_equivalence`] is the decision procedure: it delegates to the
//! simulation-guided SAT-sweeping engine ([`crate::sweep`]), which merges
//! internally equivalent logic with small incremental queries before
//! deciding the outputs. The `sweep_agreement` integration test keeps the
//! classic monolithic miter encoding — shared inputs, per-output XORs,
//! disjunction asserted true, one cold solve — as its oracle and pins the
//! two to identical verdicts.
//!
//! This is the verification backbone of the whole flow: every AIG
//! optimization pass and every xSFQ mapping step is checked against it.

use xsfq_aig::Aig;

pub use crate::sweep::check_equivalence;

/// Result of an equivalence check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EquivResult {
    /// The two designs agree on every input pattern.
    Equivalent,
    /// The designs differ; the payload is an input vector (one bool per
    /// shared primary input) on which at least one output differs.
    Counterexample(Vec<bool>),
}

impl EquivResult {
    /// True when the result is [`EquivResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

/// Convenience wrapper: `true` iff the designs are equivalent.
pub fn equivalent(a: &Aig, b: &Aig) -> bool {
    check_equivalence(a, b).is_equivalent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_aig::{build, opt, Aig, Lit as AigLit};

    #[test]
    fn equivalent_adders() {
        let mut g1 = Aig::new("g1");
        let a = g1.input_word("a", 4);
        let b = g1.input_word("b", 4);
        let (s, c) = build::ripple_add(&mut g1, &a, &b, AigLit::FALSE);
        g1.output_word("s", &s);
        g1.output("c", c);
        let g2 = opt::optimize(&g1, opt::Effort::Standard);
        assert!(equivalent(&g1, &g2));
    }

    #[test]
    fn counterexample_on_difference() {
        let mut g1 = Aig::new("g1");
        let a = g1.input("a");
        let b = g1.input("b");
        let x = g1.and(a, b);
        g1.output("o", x);

        let mut g2 = Aig::new("g2");
        let a2 = g2.input("a");
        let b2 = g2.input("b");
        let x2 = g2.or(a2, b2);
        g2.output("o", x2);

        let EquivResult::Counterexample(cex) = check_equivalence(&g1, &g2) else {
            panic!("AND and OR must differ");
        };
        // The counterexample must actually distinguish them.
        let oa = xsfq_aig::sim::eval_outputs(&g1, &cex)[0];
        let ob = xsfq_aig::sim::eval_outputs(&g2, &cex)[0];
        assert_ne!(oa, ob);
    }

    #[test]
    fn complemented_outputs_differ() {
        let mut g1 = Aig::new("g1");
        let a = g1.input("a");
        g1.output("o", a);
        let mut g2 = Aig::new("g2");
        let a2 = g2.input("a");
        g2.output("o", !a2);
        assert!(!equivalent(&g1, &g2));
    }

    #[test]
    fn sequential_cutpoint_check() {
        // Same next-state logic expressed differently.
        let mut g1 = Aig::new("g1");
        let d = g1.input("d");
        let q = g1.latch("q", false);
        let n = g1.xor(d, q);
        g1.set_latch_next(q, n);
        g1.output("o", q);

        let mut g2 = Aig::new("g2");
        let d2 = g2.input("d");
        let q2 = g2.latch("q", false);
        // d^q = (d|q) & !(d&q)
        let or = g2.or(d2, q2);
        let and = g2.and(d2, q2);
        let n2 = g2.and(or, !and);
        g2.set_latch_next(q2, n2);
        g2.output("o", q2);

        assert!(equivalent(&g1, &g2));
    }

    #[test]
    fn constant_handling() {
        let mut g1 = Aig::new("g1");
        let a = g1.input("a");
        let f = g1.and(a, AigLit::FALSE);
        g1.output("o", f);
        let mut g2 = Aig::new("g2");
        let _a = g2.input("a");
        g2.output("o", AigLit::FALSE);
        assert!(equivalent(&g1, &g2));
    }

    #[test]
    fn multiplier_against_itself_optimized() {
        let mut g = Aig::new("mul4");
        let a = g.input_word("a", 4);
        let b = g.input_word("b", 4);
        let p = build::array_multiplier(&mut g, &a, &b);
        g.output_word("p", &p);
        let o = opt::optimize(&g, opt::Effort::Fast);
        assert!(equivalent(&g, &o));
    }
}
