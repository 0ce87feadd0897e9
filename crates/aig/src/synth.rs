//! Resynthesis of a truth table into AIG structure.
//!
//! [`synthesize`] turns a cut function back into AND/INV logic using a
//! combination of:
//!
//! * simple decomposition rules (constant/unate/XOR cofactor patterns),
//! * Shannon expansion (MUX) on the most binate variable, and
//! * ISOP extraction ([`crate::isop`]) followed by algebraic literal
//!   factoring (the SIS `quick_factor` recipe).
//!
//! The cheapest alternative (in freshly created AND nodes) wins. This is
//! the engine behind both the `rewrite` (4-input cuts) and `refactor`
//! (reconvergence-driven cuts) passes.
//!
//! # Memoization
//!
//! A [`Synthesizer`] keeps two memos, both keyed by the truth table.
//!
//! * **Plans.** Each table is planned once: the top-level decomposition it
//!   picks and that decomposition's isolation cost are stored together.
//!   [`Synthesizer::cost`] fills the memo and the first build of a table
//!   reads its plans from it, so a table costed in an evaluate phase is
//!   never re-planned (two ISOPs and a factoring for any table no cofactor
//!   rule decomposes) when a commit phase builds it.
//! * **Recordings.** The first build of a table runs the recursive builder
//!   once against a recorder, which writes down every `and` and `xor` call
//!   it makes. An operand is the constant, leaf `i` or the result of call
//!   `j`, each with a complement bit. Every build, that first one included,
//!   replays the recording against the real builder: a
//!   [`DryRun`](crate::DryRun) to cost a
//!   rewrite candidate, the output graph for the winner. Which calls the
//!   recursion makes, and on which operands, depends only on the table:
//!   no branch looks at a literal. So a replay makes the same calls with the
//!   same literals as the recursion would, and builds the same graph, node
//!   for node.
//!
//! Both memo values are pure functions of the table: a plan depends only
//! on the table and on the costs of its cofactors, which are themselves
//! memo values, and a recording only on the plans. So what a synthesizer
//! has seen before — earlier cuts, passes or designs — can change how fast
//! it answers, never what it answers.

use crate::hash::FxHashMap;
use crate::isop::{isop, Cube};
use crate::tt::TruthTable;
use crate::{Aig, Build, Lit, NodeId};

/// Rebuild `tt` over the literals `leaves` inside `aig`.
///
/// `leaves[i]` supplies variable `i` of the table. Returns the output
/// literal. New nodes are structurally hashed into `aig`, so logic shared
/// with the existing graph is free.
///
/// # Panics
///
/// Panics if `leaves.len() != tt.num_vars()`.
pub fn synthesize(aig: &mut Aig, tt: &TruthTable, leaves: &[Lit]) -> Lit {
    Synthesizer::new().build(aig, tt, leaves)
}

/// Reusable resynthesis engine with per-table plan and recording memos.
///
/// Optimization passes that resynthesize many cuts should reuse one
/// `Synthesizer` so repeated cut functions (buffers, carry chains…) are
/// planned and recorded once. The memos never change a result (see the
/// [module docs](self)), so one engine may serve any sequence of passes
/// and designs.
#[derive(Default, Debug)]
pub struct Synthesizer {
    /// Per-table memo: every table planned so far, with its plan and that
    /// plan's isolation cost (cofactors included). ≤6-variable tables are a
    /// single inline word, so the common key is 16 bytes and never
    /// heap-allocated.
    plans: FxHashMap<TruthTable, (Plan, usize)>,
    /// Per-table memo: every table built so far, with its recording.
    recordings: FxHashMap<TruthTable, Recording>,
    /// The steps of every recording, back to back.
    steps: Vec<Step>,
    /// Node memo of the recursion that makes a recording, keyed by the
    /// table each call built (cleared per recording, kept for its buckets).
    build_memo: FxHashMap<TruthTable, Lit>,
    /// Replay scratch: the literal each step returned.
    results: Vec<Lit>,
}

/// A recorded build: its steps, `steps[start..end]`, and the operand that
/// is its result.
#[derive(Copy, Clone, Debug)]
struct Recording {
    start: u32,
    end: u32,
    out: Lit,
}

/// One recorded builder call. Operands are literals over a numbering of
/// the recording's own: node 0 is the constant, node `1 + i` is leaf `i`
/// and node `1 + n + j` (for `n` leaves) is the result of step `j`.
#[derive(Copy, Clone, Debug)]
enum Step {
    And(Lit, Lit),
    Xor(Lit, Lit),
}

/// The [`Build`] a recording is made with: it appends each `and` and `xor`
/// call to `steps` and answers with the operand naming its result. The
/// other gates are [`Build`]'s provided methods, so they record as the
/// `and`s they make; `xor` is recorded whole, because its structure
/// depends on its operands' polarity, which only a replay knows.
struct Recorder<'s> {
    steps: &'s mut Vec<Step>,
    start: usize,
    leaves: usize,
}

impl Recorder<'_> {
    fn push(&mut self, step: Step) -> Lit {
        self.steps.push(step);
        NodeId::from_index(self.leaves + self.steps.len() - self.start).lit()
    }
}

impl Build for Recorder<'_> {
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        self.push(Step::And(a, b))
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        self.push(Step::Xor(a, b))
    }
}

/// How a function will be decomposed at the top level.
#[derive(Debug)]
enum Plan {
    Const(bool),
    Literal {
        var: usize,
        complement: bool,
    },
    /// `f = (v ^ v_complement) op rest-cofactor`
    Rule {
        var: usize,
        rule: Rule,
    },
    Mux {
        var: usize,
    },
    Sop {
        cover: Vec<Cube>,
        complement: bool,
    },
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Rule {
    /// `f = v & f1`
    AndPos,
    /// `f = !v & f0`
    AndNeg,
    /// `f = !v | f1`
    OrNeg,
    /// `f = v | f0`
    OrPos,
    /// `f = v ^ f0`
    Xor,
}

impl Synthesizer {
    /// Create a fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build `tt` over `leaves` with `builder` (an [`Aig`] or a
    /// [`DryRun`](crate::DryRun)); see [`synthesize`]. Records the table on
    /// its first build and replays the recording.
    pub fn build<B: Build + ?Sized>(
        &mut self,
        builder: &mut B,
        tt: &TruthTable,
        leaves: &[Lit],
    ) -> Lit {
        assert_eq!(leaves.len(), tt.num_vars(), "leaf count must match table");
        let rec = match self.recordings.get(tt) {
            Some(&rec) => rec,
            None => self.record(tt),
        };
        let n = leaves.len();
        let results = &mut self.results;
        results.clear();
        let resolve = |results: &[Lit], op: Lit| {
            let lit = match op.node().index() {
                0 => Lit::FALSE,
                i if i <= n => leaves[i - 1],
                i => results[i - 1 - n],
            };
            lit.complement_if(op.is_complement())
        };
        for &step in &self.steps[rec.start as usize..rec.end as usize] {
            let lit = match step {
                Step::And(a, b) => builder.and(resolve(results, a), resolve(results, b)),
                Step::Xor(a, b) => builder.xor(resolve(results, a), resolve(results, b)),
            };
            results.push(lit);
        }
        resolve(results, rec.out)
    }

    /// Record the builder calls [`Synthesizer::build_rec`] makes for `tt`.
    fn record(&mut self, tt: &TruthTable) -> Recording {
        let n = tt.num_vars();
        let leaves: Vec<Lit> = (1..=n).map(|i| NodeId::from_index(i).lit()).collect();
        let mut steps = std::mem::take(&mut self.steps);
        let mut memo = std::mem::take(&mut self.build_memo);
        memo.clear();
        let start = steps.len();
        let mut recorder = Recorder {
            steps: &mut steps,
            start,
            leaves: n,
        };
        let out = self.build_rec(&mut recorder, tt, &leaves, &mut memo);
        let rec = Recording {
            start: start as u32,
            end: steps.len() as u32,
            out,
        };
        self.steps = steps;
        self.build_memo = memo;
        self.recordings.insert(tt.clone(), rec);
        rec
    }

    /// Memoized AND-node cost of building `tt` (isolation estimate).
    ///
    /// Never below `s - 1` for a table over `s` support variables: each
    /// branch of the estimate (rule, XOR, MUX, factored SOP) counts the ANDs
    /// of an AIG that computes the table, and any AIG that depends on `s`
    /// inputs has at least `s - 1` ANDs.
    pub fn cost(&mut self, tt: &TruthTable) -> usize {
        self.planned(tt).1
    }

    /// The memoized plan of `tt`, planning it on first sight.
    fn planned(&mut self, tt: &TruthTable) -> &(Plan, usize) {
        if !self.plans.contains_key(tt) {
            let planned = self.plan(tt);
            self.plans.insert(tt.clone(), planned);
        }
        &self.plans[tt]
    }

    /// Decompose `tt` at the top level and cost the result (the cofactors'
    /// costs come from, and go into, the memo).
    fn plan(&mut self, tt: &TruthTable) -> (Plan, usize) {
        if tt.is_zero() || tt.is_ones() {
            return (Plan::Const(tt.is_ones()), 0);
        }
        let support = tt.support();
        if support.len() == 1 {
            let var = support[0];
            let complement = !tt.cofactor1(var).is_ones();
            return (Plan::Literal { var, complement }, 0);
        }
        for &v in &support {
            let c0 = tt.cofactor0(v);
            let c1 = tt.cofactor1(v);
            let (rule, step, rest) = if c0.is_zero() {
                (Rule::AndPos, 1, c1)
            } else if c1.is_zero() {
                (Rule::AndNeg, 1, c0)
            } else if c0.is_ones() {
                (Rule::OrNeg, 1, c1)
            } else if c1.is_ones() {
                (Rule::OrPos, 1, c0)
            } else if c1.is_complement_of(&c0) {
                (Rule::Xor, 3, c0)
            } else {
                continue;
            };
            return (Plan::Rule { var: v, rule }, step + self.cost(&rest));
        }
        // No free rule: compare MUX expansion against factored SOP covers.
        let var = most_binate_var(tt, &support);
        let mux_cost = 3 + self.cost(&tt.cofactor0(var)) + self.cost(&tt.cofactor1(var));
        let cover = isop(tt, tt);
        let neg = tt.not();
        let cover_neg = isop(&neg, &neg);
        let sop_cost = factored_cost(&cover, tt.num_vars());
        let sop_neg_cost = factored_cost(&cover_neg, tt.num_vars());
        if mux_cost < sop_cost.min(sop_neg_cost) {
            (Plan::Mux { var }, mux_cost)
        } else if sop_cost <= sop_neg_cost {
            let complement = false;
            (Plan::Sop { cover, complement }, sop_cost)
        } else {
            let (cover, complement) = (cover_neg, true);
            (Plan::Sop { cover, complement }, sop_neg_cost)
        }
    }

    /// Build `tt` over `leaves` by its plans, recursing into cofactors;
    /// `memo` holds what this build already made, by table.
    fn build_rec<B: Build + ?Sized>(
        &mut self,
        aig: &mut B,
        tt: &TruthTable,
        leaves: &[Lit],
        memo: &mut FxHashMap<TruthTable, Lit>,
    ) -> Lit {
        if let Some(&hit) = memo.get(tt) {
            return hit;
        }
        let complement = tt.not();
        if let Some(&hit) = memo.get(&complement) {
            return !hit;
        }
        let lit = match self.planned(tt).0 {
            Plan::Const(value) => {
                if value {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            }
            Plan::Literal { var, complement } => leaves[var].complement_if(complement),
            Plan::Rule { var, rule } => match rule {
                Rule::AndPos => {
                    let f1 = self.build_rec(aig, &tt.cofactor1(var), leaves, memo);
                    aig.and(leaves[var], f1)
                }
                Rule::AndNeg => {
                    let f0 = self.build_rec(aig, &tt.cofactor0(var), leaves, memo);
                    aig.and(!leaves[var], f0)
                }
                Rule::OrNeg => {
                    let f1 = self.build_rec(aig, &tt.cofactor1(var), leaves, memo);
                    aig.or(!leaves[var], f1)
                }
                Rule::OrPos => {
                    let f0 = self.build_rec(aig, &tt.cofactor0(var), leaves, memo);
                    aig.or(leaves[var], f0)
                }
                Rule::Xor => {
                    let f0 = self.build_rec(aig, &tt.cofactor0(var), leaves, memo);
                    aig.xor(leaves[var], f0)
                }
            },
            Plan::Mux { var } => {
                let f0 = self.build_rec(aig, &tt.cofactor0(var), leaves, memo);
                let f1 = self.build_rec(aig, &tt.cofactor1(var), leaves, memo);
                aig.mux(leaves[var], f1, f0)
            }
            Plan::Sop {
                ref cover,
                complement,
            } => build_factored(aig, cover, leaves).complement_if(complement),
        };
        memo.insert(tt.clone(), lit);
        lit
    }
}

/// Variable that splits the ON-set most evenly — the classic choice for
/// Shannon expansion.
fn most_binate_var(tt: &TruthTable, support: &[usize]) -> usize {
    let mut best = support[0];
    let mut best_score = usize::MAX;
    for &v in support {
        let ones0 = tt.cofactor0(v).count_ones();
        let ones1 = tt.cofactor1(v).count_ones();
        let score = ones0.abs_diff(ones1);
        if score < best_score {
            best_score = score;
            best = v;
        }
    }
    best
}

/// AND nodes [`build_factored`] creates for `cover` over fresh leaves.
fn factored_cost(cover: &[Cube], num_leaves: usize) -> usize {
    let mut scratch = Aig::new("cost");
    let leaves: Vec<Lit> = (0..num_leaves).map(|_| scratch.input("")).collect();
    build_factored(&mut scratch, cover, &leaves);
    scratch.num_ands()
}

/// Build a factored form of an SOP cover (SIS-style literal factoring):
/// recursively divide the cover by its most frequent literal.
fn build_factored<B: Build + ?Sized>(aig: &mut B, cover: &[Cube], leaves: &[Lit]) -> Lit {
    if cover.is_empty() {
        return Lit::FALSE;
    }
    if cover.contains(&Cube::UNIVERSE) {
        return Lit::TRUE;
    }
    if cover.len() == 1 {
        return build_cube(aig, cover[0], leaves);
    }
    // Pick the literal appearing in the most cubes.
    let mut best: Option<(bool, usize, usize)> = None; // (positive, var, count)
    for v in 0..leaves.len() {
        let pos_count = cover.iter().filter(|c| c.pos >> v & 1 == 1).count();
        let neg_count = cover.iter().filter(|c| c.neg >> v & 1 == 1).count();
        if pos_count > 0 && best.is_none_or(|(_, _, c)| pos_count > c) {
            best = Some((true, v, pos_count));
        }
        if neg_count > 0 && best.is_none_or(|(_, _, c)| neg_count > c) {
            best = Some((false, v, neg_count));
        }
    }
    let (positive, var, count) = best.expect("non-trivial cover has literals");
    if count <= 1 {
        // No sharing opportunity: OR the cubes directly.
        let terms: Vec<Lit> = cover.iter().map(|&c| build_cube(aig, c, leaves)).collect();
        return aig.or_many(&terms);
    }
    let bit = 1u32 << var;
    let mut quotient = Vec::new();
    let mut remainder = Vec::new();
    for &c in cover {
        let has = if positive {
            c.pos & bit != 0
        } else {
            c.neg & bit != 0
        };
        if has {
            let stripped = if positive {
                Cube {
                    pos: c.pos & !bit,
                    neg: c.neg,
                }
            } else {
                Cube {
                    pos: c.pos,
                    neg: c.neg & !bit,
                }
            };
            quotient.push(stripped);
        } else {
            remainder.push(c);
        }
    }
    let lit = leaves[var].complement_if(!positive);
    let q = build_factored(aig, &quotient, leaves);
    let lq = aig.and(lit, q);
    if remainder.is_empty() {
        lq
    } else {
        let r = build_factored(aig, &remainder, leaves);
        aig.or(lq, r)
    }
}

fn build_cube<B: Build + ?Sized>(aig: &mut B, cube: Cube, leaves: &[Lit]) -> Lit {
    let mut lits = Vec::new();
    for (v, &leaf) in leaves.iter().enumerate() {
        if cube.pos >> v & 1 == 1 {
            lits.push(leaf);
        }
        if cube.neg >> v & 1 == 1 {
            lits.push(!leaf);
        }
    }
    aig.and_many(&lits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    fn check_roundtrip(vars: usize, word_fn: impl Fn(usize) -> bool) {
        let mut tt = TruthTable::zeros(vars);
        for p in 0..(1usize << vars) {
            tt.set_bit(p, word_fn(p));
        }
        let mut aig = Aig::new("t");
        let leaves: Vec<Lit> = (0..vars).map(|i| aig.input(format!("x{i}"))).collect();
        let out = synthesize(&mut aig, &tt, &leaves);
        aig.output("f", out);
        for p in 0..(1usize << vars) {
            let inputs: Vec<bool> = (0..vars).map(|i| p >> i & 1 == 1).collect();
            let got = sim::eval_outputs(&aig, &inputs)[0];
            assert_eq!(got, word_fn(p), "pattern {p:b}");
        }
    }

    /// AND nodes [`synthesize`] creates for `tt` over fresh leaves.
    fn synthesis_cost(tt: &TruthTable, num_leaves: usize) -> usize {
        let mut scratch = Aig::new("scratch");
        let leaves: Vec<Lit> = (0..num_leaves).map(|_| scratch.input("")).collect();
        synthesize(&mut scratch, tt, &leaves);
        scratch.num_ands()
    }

    #[test]
    fn synthesizes_basic_functions() {
        check_roundtrip(2, |p| p == 3); // AND
        check_roundtrip(2, |p| p != 0); // OR
        check_roundtrip(2, |p| (p.count_ones() & 1) == 1); // XOR
        check_roundtrip(3, |p| p.count_ones() >= 2); // MAJ
        check_roundtrip(4, |p| (p.count_ones() & 1) == 0); // XNOR4
    }

    #[test]
    fn xor_chain_is_linear_size() {
        // Parity of 6 variables must synthesize as an XOR chain
        // (5 XORs = 15 ANDs), not an exponential SOP.
        let vars = 6;
        let mut tt = TruthTable::zeros(vars);
        for p in 0..(1usize << vars) {
            if (p as u32).count_ones() & 1 == 1 {
                tt.set_bit(p, true);
            }
        }
        let cost = synthesis_cost(&tt, vars);
        assert_eq!(cost, 15, "parity6 should cost 5 XORs");
    }

    #[test]
    fn maj3_is_four_ands() {
        let a = TruthTable::variable(3, 0);
        let b = TruthTable::variable(3, 1);
        let c = TruthTable::variable(3, 2);
        let f = a.and(&b).or(&a.and(&c)).or(&b.and(&c));
        assert!(
            synthesis_cost(&f, 3) <= 4,
            "maj3 should cost at most 4 ANDs"
        );
    }

    #[test]
    fn random_functions_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let word: u64 = rng.gen();
            check_roundtrip(5, |p| word >> (p % 64) & 1 == 1);
        }
    }

    #[test]
    fn constants_and_literals() {
        let mut aig = Aig::new("t");
        let leaves: Vec<Lit> = (0..3).map(|i| aig.input(format!("x{i}"))).collect();
        assert_eq!(
            synthesize(&mut aig, &TruthTable::zeros(3), &leaves),
            Lit::FALSE
        );
        assert_eq!(
            synthesize(&mut aig, &TruthTable::ones(3), &leaves),
            Lit::TRUE
        );
        let v1 = TruthTable::variable(3, 1);
        assert_eq!(synthesize(&mut aig, &v1, &leaves), leaves[1]);
        assert_eq!(synthesize(&mut aig, &v1.not(), &leaves), !leaves[1]);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn replay_matches_the_recursive_build() {
        // A replay makes the recursion's calls on the same literals, so it
        // must create the same nodes and return the same literal, whatever
        // the leaves: duplicates, complements and constants included, over
        // a graph that already holds some of the logic.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut synth = Synthesizer::new();
        for case in 0..300 {
            let mut g = Aig::new("base");
            let xs: Vec<Lit> = (0..4).map(|i| g.input(format!("x{i}"))).collect();
            let x01 = g.xor(xs[0], xs[1]);
            let m = g.mux(xs[2], x01, xs[3]);
            let pool = [Lit::FALSE, xs[0], xs[1], xs[2], xs[3], x01, m];
            let vars = rng.gen_range(1..=8);
            let mut tt = TruthTable::ones(vars);
            for _ in 0..rng.gen_range(1..=3) {
                let mut t = TruthTable::zeros(vars);
                for p in 0..1usize << vars {
                    t.set_bit(p, rng.gen());
                }
                tt.and_with(&t);
            }
            let leaves: Vec<Lit> = (0..vars)
                .map(|_| pool[rng.gen_range(0..pool.len())].complement_if(rng.gen()))
                .collect();
            let mut direct = g.clone();
            let want = synth.build_rec(&mut direct, &tt, &leaves, &mut FxHashMap::default());
            // The first build records the table; the second replays the memo.
            for round in 0..2 {
                let mut replayed = g.clone();
                let got = synth.build(&mut replayed, &tt, &leaves);
                assert_eq!(got, want, "case {case} build {round}: {tt}");
                assert_eq!(
                    replayed.nodes(),
                    direct.nodes(),
                    "case {case} build {round}"
                );
            }
        }
    }

    #[test]
    fn cost_memo_is_consistent() {
        let mut s = Synthesizer::new();
        let a = TruthTable::variable(4, 0);
        let b = TruthTable::variable(4, 1);
        let f = a.xor(&b);
        let c1 = s.cost(&f);
        let c2 = s.cost(&f);
        assert_eq!(c1, c2);
        assert_eq!(c1, 3);
    }
}
