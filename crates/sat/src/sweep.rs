//! Simulation-guided SAT sweeping (fraiging) — the fast path behind
//! combinational equivalence checking and a standalone AIG optimization.
//!
//! # Engine invariants
//!
//! The engine rests on a strict division of labor:
//!
//! * **Signature = candidate.** Bit-parallel random (or, for ≤ 12
//!   combinational inputs, exhaustive) simulation assigns every node a
//!   signature; nodes whose polarity-canonicalized signatures agree are
//!   *candidate* equivalences. A signature match is never trusted on its
//!   own.
//! * **SAT = proof.** Each candidate pair is decided by two bounded
//!   incremental queries on one shared CNF encoding (`x ∧ ¬y` and
//!   `¬x ∧ y` both UNSAT ⟺ `x ≡ y`). Only a proof merges nodes.
//! * **Disproof = pattern.** A SAT model is a distinguishing input
//!   pattern; it is replayed into the simulator
//!   ([`xsfq_aig::sim::Simulator::add_pattern`]) so the next round's
//!   classes no longer contain the refuted pair. Rounds therefore
//!   monotonically shrink the candidate set, and the loop ends when a round
//!   produces no counterexample (or the round cap is hit).
//! * **Proof = clause.** A proven equivalence is added to the solver as a
//!   biconditional, so later queries propagate through it — the clause-level
//!   analogue of structurally merging the nodes, which keeps the thousands
//!   of small queries shallow.
//!
//! Equivalences are tracked in a union-find over nodes whose edges carry a
//! complement bit; roots are always the lowest node id in their class, so a
//! merged graph can be rebuilt in one topological pass ([`fraig`]).
//!
//! [`check_equivalence`] uses the same engine for CEC: both designs
//! are imported into one shared, structurally hashed miter AIG (identical
//! subgraphs collapse for free), internal equivalences are swept, and only
//! the surviving output pairs are decided by final unbounded queries.

use xsfq_aig::sim::Simulator;
use xsfq_aig::{Aig, Lit as AigLit, NodeId, NodeKind};
use xsfq_exec::CancelToken;

use crate::cec::EquivResult;
use crate::solver::{Lit, SatResult, Solver, Var};

/// Random simulation words (64 patterns each) seeding the signatures.
/// Unused when the design is small enough for exhaustive simulation.
const SIM_WORDS: usize = 4;
/// Conflict budget per bounded candidate query. Pairs exceeding it are left
/// unmerged (sound: merging is optional) rather than blocking the sweep;
/// CEC decides surviving *output* pairs without a budget.
const MAX_CONFLICTS: u64 = 100;
/// Maximum simulate → prove → refine rounds.
const MAX_ROUNDS: usize = 32;
/// Seed for the random patterns.
const SEED: u64 = 0x5eed;

/// Counters describing what a sweep did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Refinement rounds executed.
    pub rounds: usize,
    /// Incremental SAT queries issued (bounded and final).
    pub sat_calls: u64,
    /// Candidate pairs proven equivalent and merged.
    pub proved: usize,
    /// Candidate pairs refuted by a counterexample.
    pub disproved: usize,
    /// Candidate pairs skipped because the conflict budget ran out.
    pub deferred: usize,
}

/// Outcome of one candidate query.
enum PairOutcome {
    Proved,
    Disproved(Vec<bool>),
    Deferred,
}

/// The sweeping engine: one AIG, one simulator, one incremental solver, one
/// union-find of proven equivalences.
struct Sweeper<'a> {
    aig: &'a Aig,
    sim: Simulator<'a>,
    solver: Solver,
    /// SAT variable per combinational input (primary inputs, then latches).
    ci_vars: Vec<Var>,
    /// SAT literal per AIG node (dense Tseitin encoding).
    node_lit: Vec<Lit>,
    /// Union-find parent edges with complement: `repr[i].node() == i` marks
    /// a root; roots are always the lowest id of their class.
    repr: Vec<AigLit>,
    /// Cooperative cancellation: checked before every candidate class (and
    /// every round). A cancelled sweep stops proving and keeps the merges
    /// established so far — sound, since merging is optional.
    cancel: &'a CancelToken,
    stats: SweepStats,
}

impl<'a> Sweeper<'a> {
    fn new(aig: &'a Aig, cancel: &'a CancelToken) -> Self {
        let num_cis = aig.num_inputs() + aig.num_latches();
        let sim = if num_cis <= Simulator::EXHAUSTIVE_LIMIT {
            Simulator::exhaustive(aig)
        } else {
            Simulator::random(aig, SIM_WORDS, SEED)
        };
        // Dense Tseitin encoding of the whole graph up front: encoding is
        // linear and cheap next to solving, and a flat Vec beats a map in
        // the per-query literal lookups.
        let mut solver = Solver::new();
        let const_var = solver.new_var();
        solver.add_clause(&[const_var.negative()]);
        let mut ci_vars = Vec::with_capacity(num_cis);
        let mut node_lit = vec![const_var.positive(); aig.num_nodes()];
        // Inputs come before latches in the CI ordering, matching the
        // pattern layout of [`Simulator`].
        let mut latch_vars = Vec::with_capacity(aig.num_latches());
        for _ in 0..aig.num_inputs() {
            ci_vars.push(solver.new_var());
        }
        for _ in 0..aig.num_latches() {
            let v = solver.new_var();
            latch_vars.push(v);
            ci_vars.push(v);
        }
        for (i, kind) in aig.nodes().iter().enumerate() {
            match *kind {
                NodeKind::Const0 => {}
                NodeKind::Input { index } => {
                    node_lit[i] = ci_vars[index as usize].positive();
                }
                NodeKind::Latch { index } => {
                    node_lit[i] = latch_vars[index as usize].positive();
                }
                NodeKind::And { a, b } => {
                    let la = edge(&node_lit, a);
                    let lb = edge(&node_lit, b);
                    let n = solver.new_var().positive();
                    solver.add_clause(&[!n, la]);
                    solver.add_clause(&[!n, lb]);
                    solver.add_clause(&[n, !la, !lb]);
                    node_lit[i] = n;
                }
            }
        }
        Sweeper {
            aig,
            sim,
            solver,
            ci_vars,
            node_lit,
            repr: (0..aig.num_nodes())
                .map(|i| NodeId::from_index(i).lit())
                .collect(),
            cancel,
            stats: SweepStats::default(),
        }
    }

    /// Representative literal of a node, with path compression.
    fn find(&mut self, node: NodeId) -> AigLit {
        let parent = self.repr[node.index()];
        if parent.node() == node {
            return parent;
        }
        let root = self.find(parent.node());
        let resolved = root.complement_if(parent.is_complement());
        self.repr[node.index()] = resolved;
        resolved
    }

    /// Representative of an edge literal.
    fn resolve(&mut self, l: AigLit) -> AigLit {
        self.find(l.node()).complement_if(l.is_complement())
    }

    /// Record the proven fact `x ≡ y`, keeping the lower node id as root.
    fn union(&mut self, x: AigLit, y: AigLit) {
        let rx = self.resolve(x);
        let ry = self.resolve(y);
        if rx.node() == ry.node() {
            debug_assert_eq!(rx, ry, "contradictory merge");
            return;
        }
        let (hi, lo) = if rx.node().index() > ry.node().index() {
            (rx, ry)
        } else {
            (ry, rx)
        };
        // `hi ≡ lo` as literals, so node(hi) ≡ lo ⊕ complement(hi).
        self.repr[hi.node().index()] = lo.complement_if(hi.is_complement());
    }

    fn sat_lit(&self, l: AigLit) -> Lit {
        let base = self.node_lit[l.node().index()];
        if l.is_complement() {
            !base
        } else {
            base
        }
    }

    /// The solver model restricted to the combinational inputs, in CI order.
    fn model_pattern(&self) -> Vec<bool> {
        self.ci_vars
            .iter()
            .map(|&v| self.solver.value(v).unwrap_or(false))
            .collect()
    }

    /// Decide `x ≡ y` with two assumption queries under `budget` conflicts
    /// each. On proof, the biconditional is taught to the solver.
    fn prove_lits_equal(&mut self, x: AigLit, y: AigLit, budget: u64) -> PairOutcome {
        let sx = self.sat_lit(x);
        let sy = self.sat_lit(y);
        self.stats.sat_calls += 1;
        match self.solver.solve_limited(&[sx, !sy], budget) {
            None => return PairOutcome::Deferred,
            Some(SatResult::Sat) => return PairOutcome::Disproved(self.model_pattern()),
            Some(SatResult::Unsat) => {}
        }
        self.stats.sat_calls += 1;
        match self.solver.solve_limited(&[!sx, sy], budget) {
            None => PairOutcome::Deferred,
            Some(SatResult::Sat) => PairOutcome::Disproved(self.model_pattern()),
            Some(SatResult::Unsat) => {
                // Both directions refuted ⇒ the formula entails x ↔ y, so
                // the clauses are implied and can never make it UNSAT.
                self.solver.add_clause(&[!sx, sy]);
                self.solver.add_clause(&[sx, !sy]);
                PairOutcome::Proved
            }
        }
    }

    /// The sweep loop: group by signature, prove candidates, replay
    /// counterexamples, repeat until a round is counterexample-free.
    fn sweep(&mut self) {
        use xsfq_aig::hash::FxHashMap;
        for round in 0..MAX_ROUNDS {
            if self.cancel.is_cancelled() {
                return;
            }
            self.stats.rounds = round + 1;
            // Candidate classes: canonical signature hash → members. Only
            // class roots participate (merged nodes ride with their root).
            let mut classes: FxHashMap<u64, Vec<(NodeId, bool)>> = FxHashMap::default();
            for i in 0..self.aig.num_nodes() {
                let id = NodeId::from_index(i);
                if self.find(id).node() != id {
                    continue;
                }
                let (key, complement) = self.sim.canonical_key(id);
                classes.entry(key).or_default().push((id, complement));
            }
            let mut class_list: Vec<Vec<(NodeId, bool)>> = classes
                .into_values()
                .filter(|members| members.len() > 1)
                .collect();
            // Deterministic order, shallow classes first (members are
            // already in id order because nodes were scanned in order).
            class_list.sort_by_key(|members| members[0].0);

            let mut num_cex = 0usize;
            for members in &class_list {
                // Candidate-class boundary: bail out of a long proving round
                // in bounded time. Established merges stay valid.
                if self.cancel.is_cancelled() {
                    return;
                }
                let (rep, rep_c) = members[0];
                for &(m, m_c) in &members[1..] {
                    // The hash key can collide; only a full signature match
                    // makes a candidate.
                    let phase = rep_c ^ m_c;
                    if !self.sim.signatures_match(rep, m, phase) {
                        continue;
                    }
                    let x = self.resolve(rep.lit());
                    let y = self.resolve(m.lit().complement_if(phase));
                    if x.node() == y.node() {
                        continue; // already merged (transitively)
                    }
                    match self.prove_lits_equal(x, y, MAX_CONFLICTS) {
                        PairOutcome::Proved => {
                            self.stats.proved += 1;
                            self.union(x, y);
                        }
                        PairOutcome::Disproved(pattern) => {
                            self.stats.disproved += 1;
                            num_cex += 1;
                            self.sim.add_pattern(&pattern);
                        }
                        PairOutcome::Deferred => self.stats.deferred += 1,
                    }
                }
            }
            self.sim.flush();
            if num_cex == 0 {
                break;
            }
        }
    }
}

#[inline]
fn edge(node_lit: &[Lit], l: AigLit) -> Lit {
    let base = node_lit[l.node().index()];
    if l.is_complement() {
        !base
    } else {
        base
    }
}

/// Import the combinational logic of `src` into `dst` over the shared CI
/// literals (primary inputs first, then latches as free cut-point inputs).
/// Returns the root literals: outputs first, then latch next-state functions.
fn import_comb(src: &Aig, dst: &mut Aig, cis: &[AigLit]) -> Vec<AigLit> {
    let mut map: Vec<AigLit> = vec![AigLit::FALSE; src.num_nodes()];
    for (i, kind) in src.nodes().iter().enumerate() {
        map[i] = match *kind {
            NodeKind::Const0 => AigLit::FALSE,
            NodeKind::Input { index } => cis[index as usize],
            NodeKind::Latch { index } => cis[src.num_inputs() + index as usize],
            NodeKind::And { a, b } => {
                let fa = map[a.node().index()].complement_if(a.is_complement());
                let fb = map[b.node().index()].complement_if(b.is_complement());
                dst.and(fa, fb)
            }
        };
    }
    src.outputs()
        .iter()
        .map(|o| o.lit)
        .chain(src.latches().iter().map(|l| l.next))
        .map(|l| map[l.node().index()].complement_if(l.is_complement()))
        .collect()
}

/// Check combinational equivalence of two AIGs with identical interfaces
/// (same input count/order and output count/order) by SAT sweeping a shared
/// miter. Latches, if present, must match pairwise and are treated as free
/// cut-point inputs, which is sound for netlists whose registers were not
/// moved (use bounded sequential checks for retimed designs).
///
/// Verdicts are identical to a classic monolithic miter encoding (the
/// `sweep_agreement` test keeps one as its oracle). For latch-free designs
/// a counterexample (one bool per primary input) is a valid distinguishing
/// pattern; with latches, only the primary-input slice of the model is
/// reported, and the distinguishing latch values are not included.
///
/// # Panics
///
/// Panics if the interfaces (input/output/latch counts) differ.
pub fn check_equivalence(a: &Aig, b: &Aig) -> EquivResult {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    assert_eq!(a.num_latches(), b.num_latches(), "latch counts differ");

    // Shared miter AIG: structural hashing already merges identical cones.
    let mut miter = Aig::new("sweep_miter");
    let cis: Vec<AigLit> = (0..a.num_inputs() + a.num_latches())
        .map(|i| miter.input(format!("i{i}")))
        .collect();
    let roots_a = import_comb(a, &mut miter, &cis);
    let roots_b = import_comb(b, &mut miter, &cis);
    if roots_a == roots_b {
        return EquivResult::Equivalent; // collapsed structurally
    }

    let never = CancelToken::default();
    let mut sweeper = Sweeper::new(&miter, &never);
    sweeper.sweep();

    // Only output pairs the sweep did not merge go to the (unbounded)
    // final queries.
    for (&la, &lb) in roots_a.iter().zip(&roots_b) {
        let x = sweeper.resolve(la);
        let y = sweeper.resolve(lb);
        if x == y {
            continue;
        }
        match sweeper.prove_lits_equal(x, y, u64::MAX) {
            PairOutcome::Proved => sweeper.union(x, y),
            PairOutcome::Disproved(pattern) => {
                // Report the primary-input slice only; latches are free
                // cut points.
                return EquivResult::Counterexample(pattern[..a.num_inputs()].to_vec());
            }
            PairOutcome::Deferred => unreachable!("unbounded query cannot defer"),
        }
    }
    EquivResult::Equivalent
}

/// SAT-sweep an AIG as an optimization pass: prove functionally equivalent
/// (up to complement) internal nodes equivalent and merge them, like ABC's
/// `fraig`. Latches are cut points (their next-state cones are swept
/// combinationally), so the pass is safe on sequential designs.
///
/// Returns the merged graph and the sweep counters. `cancel` is polled
/// before every candidate class; a cancelled sweep keeps the merges proven
/// so far.
pub fn fraig_with_stats(aig: &Aig, cancel: &CancelToken) -> (Aig, SweepStats) {
    let mut sweeper = Sweeper::new(aig, cancel);
    sweeper.sweep();

    let mut out = Aig::new(aig.name().to_string());
    let mut map: Vec<AigLit> = vec![AigLit::FALSE; aig.num_nodes()];
    for (i, &id) in aig.inputs().iter().enumerate() {
        map[id.index()] = out.input(aig.input_name(i).to_string());
    }
    for latch in aig.latches() {
        map[latch.output.index()] = out.latch(latch.name.clone(), latch.init);
    }
    for (i, kind) in aig.nodes().iter().enumerate() {
        let NodeKind::And { a, b } = *kind else {
            continue;
        };
        let id = NodeId::from_index(i);
        let root = sweeper.find(id);
        map[i] = if root.node() != id {
            // Roots have lower ids, so the root's image already exists.
            map[root.node().index()].complement_if(root.is_complement())
        } else {
            let fa = map[a.node().index()].complement_if(a.is_complement());
            let fb = map[b.node().index()].complement_if(b.is_complement());
            out.and(fa, fb)
        };
    }
    for o in aig.outputs() {
        let lit = map[o.lit.node().index()].complement_if(o.lit.is_complement());
        out.output(o.name.clone(), lit);
    }
    for (i, latch) in aig.latches().iter().enumerate() {
        let next = map[latch.next.node().index()].complement_if(latch.next.is_complement());
        let output = out.latches()[i].output.lit();
        out.set_latch_next(output, next);
    }
    (out.compact(), sweeper.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cec::equivalent;
    use xsfq_aig::{build, opt, sim};

    #[test]
    fn swept_cec_agrees_on_adders() {
        let mut g1 = Aig::new("g1");
        let a = g1.input_word("a", 4);
        let b = g1.input_word("b", 4);
        let (s, c) = build::ripple_add(&mut g1, &a, &b, AigLit::FALSE);
        g1.output_word("s", &s);
        g1.output("c", c);
        let g2 = opt::optimize(&g1, opt::Effort::Standard);
        assert!(check_equivalence(&g1, &g2).is_equivalent());
    }

    #[test]
    fn swept_cec_counterexample_is_valid() {
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
        assert_eq!(cex.len(), 2);
        let oa = sim::eval_outputs(&g1, &cex)[0];
        let ob = sim::eval_outputs(&g2, &cex)[0];
        assert_ne!(oa, ob);
    }

    #[test]
    fn fraig_merges_functional_duplicates() {
        // Two structurally different XOR implementations (AND-form vs
        // MUX-form, which strash does NOT share): fraig must collapse them
        // onto one cone.
        let mut g = Aig::new("dup");
        let a = g.input("a");
        let b = g.input("b");
        let x1 = g.xor(a, b);
        let x2 = g.mux(a, !b, b);
        g.output("x1", x1);
        g.output("x2", x2);
        assert_ne!(x1, x2, "test premise: strash must not share the cones");
        let before = g.num_ands();
        let (merged, stats) = fraig_with_stats(&g, &CancelToken::default());
        assert!(stats.proved > 0, "expected at least one merge: {stats:?}");
        assert!(
            merged.num_ands() < before,
            "fraig must shrink the duplicated graph ({} -> {})",
            before,
            merged.num_ands()
        );
        assert!(equivalent(&g, &merged));
        let o = merged.outputs();
        assert_eq!(
            o[0].lit, o[1].lit,
            "both outputs must point at the same cone"
        );
    }

    #[test]
    fn fraig_detects_constant_nodes() {
        // (a & b) & (a & !b) is constant false but hidden from strash.
        let mut g = Aig::new("konst");
        let a = g.input("a");
        let b = g.input("b");
        let ab = g.and(a, b);
        let anb = g.and(a, !b);
        let f = g.and(ab, anb);
        g.output("o", f);
        let (merged, _) = fraig_with_stats(&g, &CancelToken::default());
        assert_eq!(merged.num_ands(), 0, "constant cone must vanish");
        assert_eq!(merged.outputs()[0].lit, AigLit::FALSE);
    }

    #[test]
    fn fraig_preserves_sequential_interface() {
        let mut g = Aig::new("seq");
        let d = g.input("d");
        let q = g.latch("q", true);
        let n1 = g.xor(d, q);
        g.set_latch_next(q, n1);
        // A redundant MUX-form XOR cone feeding an output.
        let n2 = g.mux(d, !q, q);
        g.output("o", n2);
        let (merged, _) = fraig_with_stats(&g, &CancelToken::default());
        assert_eq!(merged.num_latches(), 1);
        assert!(merged.latches()[0].init);
        assert!(equivalent(&g, &merged));
        assert!(merged.num_ands() <= g.num_ands());
    }

    #[test]
    fn sweep_handles_wide_random_designs() {
        // 16 CIs forces the random-simulation (non-exhaustive) path.
        let mut g = Aig::new("wide");
        let xs = g.input_word("x", 16);
        let mut acc = AigLit::FALSE;
        for pair in xs.chunks(2) {
            let t = g.and(pair[0], pair[1]);
            acc = g.xor(acc, t);
        }
        g.output("o", acc);
        let o = opt::optimize(&g, opt::Effort::Standard);
        assert!(check_equivalence(&g, &o).is_equivalent());
        // And a mutated copy must be caught.
        let mut bad = Aig::new("wide");
        let xs = bad.input_word("x", 16);
        let mut acc = AigLit::FALSE;
        for (i, pair) in xs.chunks(2).enumerate() {
            let t = if i == 5 {
                bad.or(pair[0], pair[1])
            } else {
                bad.and(pair[0], pair[1])
            };
            acc = bad.xor(acc, t);
        }
        bad.output("o", acc);
        let r = check_equivalence(&g, &bad);
        let EquivResult::Counterexample(cex) = r else {
            panic!("mutation must be caught");
        };
        assert_ne!(sim::eval_outputs(&g, &cex), sim::eval_outputs(&bad, &cex));
    }
}
