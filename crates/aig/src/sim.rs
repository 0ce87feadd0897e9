//! Bit-parallel simulation of AIGs.
//!
//! Combinational simulation packs 64 patterns per word; sequential simulation
//! steps latches cycle by cycle. These are the golden models against which
//! mapped xSFQ netlists (and the pulse-level simulator) are verified.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Aig, Lit, NodeId, NodeKind};

/// Evaluate all nodes for 64 parallel input patterns.
///
/// `input_words[i]` supplies 64 values for primary input `i`;
/// `latch_words[i]` likewise for latch `i` (pass all-zeros for combinational
/// designs). Returns one word per node.
///
/// # Panics
///
/// Panics if the word slices do not match the input/latch counts.
fn simulate_words(aig: &Aig, input_words: &[u64], latch_words: &[u64]) -> Vec<u64> {
    assert_eq!(input_words.len(), aig.num_inputs(), "input word count");
    assert_eq!(latch_words.len(), aig.num_latches(), "latch word count");
    let mut words = vec![0u64; aig.num_nodes()];
    for (i, kind) in aig.nodes().iter().enumerate() {
        words[i] = match *kind {
            NodeKind::Const0 => 0,
            NodeKind::Input { index } => input_words[index as usize],
            NodeKind::Latch { index } => latch_words[index as usize],
            NodeKind::And { a, b } => lit_word(&words, a) & lit_word(&words, b),
        };
    }
    words
}

#[inline]
fn lit_word(words: &[u64], lit: Lit) -> u64 {
    let w = words[lit.node().index()];
    if lit.is_complement() {
        !w
    } else {
        w
    }
}

/// Evaluate the primary outputs for a single input pattern.
pub fn eval_outputs(aig: &Aig, inputs: &[bool]) -> Vec<bool> {
    let input_words: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
    let latch_words = vec![0u64; aig.num_latches()];
    let words = simulate_words(aig, &input_words, &latch_words);
    aig.outputs()
        .iter()
        .map(|o| lit_word(&words, o.lit) & 1 != 0)
        .collect()
}

/// Random-simulation equivalence check between two combinational AIGs with
/// identical interfaces. Returns `false` as soon as any of `rounds × 64`
/// random patterns distinguishes them. A `true` result is evidence, not
/// proof — use `xsfq-sat`'s CEC for a decision procedure.
///
/// # Panics
///
/// Panics if the interfaces (input/output counts) differ.
pub fn random_equiv(a: &Aig, b: &Aig, rounds: usize, seed: u64) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    assert_eq!(a.num_latches(), 0, "combinational only");
    assert_eq!(b.num_latches(), 0, "combinational only");
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rounds {
        let input_words: Vec<u64> = (0..a.num_inputs()).map(|_| rng.gen()).collect();
        let wa = simulate_words(a, &input_words, &[]);
        let wb = simulate_words(b, &input_words, &[]);
        for (oa, ob) in a.outputs().iter().zip(b.outputs()) {
            if lit_word(&wa, oa.lit) != lit_word(&wb, ob.lit) {
                return false;
            }
        }
    }
    true
}

/// Incremental bit-parallel simulator with counterexample replay — the
/// random-simulation half of SAT sweeping (fraiging).
///
/// The simulator holds a growing set of input patterns, packed 64 per word,
/// and the resulting value words for *every* node. Nodes whose
/// [canonical signatures](Simulator::canonical_key) collide are *candidate*
/// equivalences (possibly complemented); a SAT disproof feeds the
/// distinguishing pattern back via [`Simulator::add_pattern`], which refines
/// the signatures for the next round. Latches are treated as free inputs
/// (cut-point abstraction), so a pattern is one bool per combinational input
/// (primary inputs first, then latches).
///
/// Invariant: equal canonical keys are *candidates*, never proof — only a
/// SAT verdict (or exhaustive patterns) promotes a candidate to a fact.
///
/// ```
/// use xsfq_aig::{Aig, sim::Simulator};
/// let mut g = Aig::new("t");
/// let a = g.input("a");
/// let b = g.input("b");
/// let x = g.and(a, b);
/// g.output("o", x);
/// let mut sim = Simulator::empty(&g, 1);
/// sim.add_pattern(&[true, true]);
/// sim.flush();
/// // On the single pattern (1,1), `a & b` and `a` agree.
/// assert_eq!(sim.canonical_key(x.node()).0, sim.canonical_key(a.node()).0);
/// // Replaying the distinguishing pattern (1,0) separates them.
/// sim.add_pattern(&[true, false]);
/// sim.flush();
/// assert_ne!(sim.canonical_key(x.node()).0, sim.canonical_key(a.node()).0);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator<'a> {
    aig: &'a Aig,
    /// One entry per simulated word: `rounds[r][node]` holds 64 pattern
    /// values of `node`.
    rounds: Vec<Vec<u64>>,
    /// Replayed patterns waiting to be packed into the next word.
    pending: Vec<Vec<bool>>,
    rng: StdRng,
}

impl<'a> Simulator<'a> {
    /// Simulator with `words × 64` uniformly random patterns.
    pub fn random(aig: &'a Aig, words: usize, seed: u64) -> Self {
        let mut sim = Self::empty(aig, seed);
        for _ in 0..words {
            let ci_words: Vec<u64> = (0..sim.num_cis()).map(|_| sim.rng.gen()).collect();
            sim.simulate_ci_words(&ci_words);
        }
        sim
    }

    /// Simulator covering *all* `2^n` input patterns, for designs with at
    /// most [`Simulator::EXHAUSTIVE_LIMIT`] combinational inputs. Signatures
    /// are then exact truth tables: equal canonical keys are real
    /// equivalences, and SAT disproofs are impossible.
    ///
    /// # Panics
    ///
    /// Panics if the design has more combinational inputs than the limit.
    pub fn exhaustive(aig: &'a Aig) -> Self {
        let n = aig.num_inputs() + aig.num_latches();
        assert!(
            n <= Self::EXHAUSTIVE_LIMIT,
            "exhaustive simulation limited to {} inputs",
            Self::EXHAUSTIVE_LIMIT
        );
        let mut sim = Self::empty(aig, 0);
        let patterns = 1usize << n;
        for base in (0..patterns).step_by(64) {
            let mut ci_words = vec![0u64; n];
            for offset in 0..64.min(patterns - base) {
                let p = base + offset;
                for (i, w) in ci_words.iter_mut().enumerate() {
                    if p >> i & 1 == 1 {
                        *w |= 1u64 << offset;
                    }
                }
            }
            // With fewer than 64 patterns left, the tail lanes hold the
            // all-zero pattern — harmless duplicates.
            sim.simulate_ci_words(&ci_words);
        }
        sim
    }

    /// Maximum combinational-input count for [`Simulator::exhaustive`]
    /// (4096 patterns = 64 words).
    pub const EXHAUSTIVE_LIMIT: usize = 12;

    /// Simulator with no patterns yet (everything looks equivalent until
    /// patterns are added).
    pub fn empty(aig: &'a Aig, seed: u64) -> Self {
        Simulator {
            aig,
            rounds: Vec::new(),
            pending: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of combinational inputs (primary inputs + latches) a pattern
    /// must supply.
    fn num_cis(&self) -> usize {
        self.aig.num_inputs() + self.aig.num_latches()
    }

    /// Queue a replay pattern (one bool per combinational input). Patterns
    /// are packed 64 to a word; a full word is simulated immediately.
    ///
    /// # Panics
    ///
    /// Panics if the pattern length is not the number of combinational
    /// inputs (primary inputs + latches).
    pub fn add_pattern(&mut self, pattern: &[bool]) {
        assert_eq!(pattern.len(), self.num_cis(), "pattern length");
        self.pending.push(pattern.to_vec());
        if self.pending.len() == 64 {
            self.flush();
        }
    }

    /// Simulate any queued replay patterns. A partial word is padded by
    /// cycling through the queued patterns again (deterministic duplicates),
    /// so every lane carries a counterexample-derived pattern.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let n = self.num_cis();
        let mut ci_words = vec![0u64; n];
        for lane in 0..64 {
            let pattern = &self.pending[lane % self.pending.len()];
            for (i, w) in ci_words.iter_mut().enumerate() {
                if pattern[i] {
                    *w |= 1u64 << lane;
                }
            }
        }
        self.pending.clear();
        self.simulate_ci_words(&ci_words);
    }

    fn simulate_ci_words(&mut self, ci_words: &[u64]) {
        let (input_words, latch_words) = ci_words.split_at(self.aig.num_inputs());
        self.rounds
            .push(simulate_words(self.aig, input_words, latch_words));
    }

    /// Signature word of `node` in round `r`.
    pub fn word(&self, r: usize, node: NodeId) -> u64 {
        self.rounds[r][node.index()]
    }

    /// Canonical signature key of a node: a hash of the signature with the
    /// polarity normalized so a node and its complement collide, plus the
    /// complement flag that was applied. Two nodes are candidate-equivalent
    /// (up to complement) iff their keys are equal *and*
    /// [`Simulator::signatures_match`] confirms the full signatures (the
    /// hash alone can collide).
    pub fn canonical_key(&self, node: NodeId) -> (u64, bool) {
        let i = node.index();
        // Normalize polarity by the first pattern's value so `x` and `!x`
        // land in the same class.
        let complement = self.rounds.first().map(|r| r[i] & 1 == 1).unwrap_or(false);
        let mask = if complement { !0u64 } else { 0 };
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for round in &self.rounds {
            hash ^= round[i] ^ mask;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        (hash, complement)
    }

    /// True when the full signatures of `a` and `b` agree, complementing
    /// `b`'s when `complement` is set.
    pub fn signatures_match(&self, a: NodeId, b: NodeId, complement: bool) -> bool {
        let mask = if complement { !0u64 } else { 0 };
        self.rounds
            .iter()
            .all(|r| r[a.index()] == r[b.index()] ^ mask)
    }
}

/// Cycle-accurate sequential simulator.
///
/// ```
/// use xsfq_aig::{Aig, sim::SeqSim};
/// // 1-bit toggle counter.
/// let mut aig = Aig::new("toggle");
/// let q = aig.latch("q", false);
/// aig.set_latch_next(q, !q);
/// aig.output("o", q);
/// let mut sim = SeqSim::new(&aig);
/// let mut trace = Vec::new();
/// for _ in 0..4 {
///     trace.push(sim.step(&[])[0]);
/// }
/// assert_eq!(trace, [false, true, false, true]);
/// ```
#[derive(Clone, Debug)]
pub struct SeqSim<'a> {
    aig: &'a Aig,
    state: Vec<bool>,
}

impl<'a> SeqSim<'a> {
    /// Create a simulator with all latches at their declared init values.
    pub fn new(aig: &'a Aig) -> Self {
        SeqSim {
            aig,
            state: aig.latches().iter().map(|l| l.init).collect(),
        }
    }

    /// Current latch state.
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Apply one input vector, return the outputs sampled *before* the clock
    /// edge, then advance the latches.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        let input_words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let latch_words: Vec<u64> = self.state.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let words = simulate_words(self.aig, &input_words, &latch_words);
        let outputs = self
            .aig
            .outputs()
            .iter()
            .map(|o| lit_word(&words, o.lit) & 1 != 0)
            .collect();
        self.state = self
            .aig
            .latches()
            .iter()
            .map(|l| lit_word(&words, l.next) & 1 != 0)
            .collect();
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    /// XOR3's truth table over the 8 patterns `p = c b a`: parity of `p`.
    const XOR3: u64 = 0x96;

    #[test]
    fn words_and_bools_agree() {
        let mut g = Aig::new("t");
        let a = g.input("a");
        let b = g.input("b");
        let x = g.xor(a, b);
        g.output("x", x);
        assert_eq!(eval_outputs(&g, &[false, false]), [false]);
        assert_eq!(eval_outputs(&g, &[true, false]), [true]);
        assert_eq!(eval_outputs(&g, &[false, true]), [true]);
        assert_eq!(eval_outputs(&g, &[true, true]), [false]);
    }

    #[test]
    fn exhaustive_xor3() {
        let mut g = Aig::new("x3");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let x = g.xor_many(&[a, b, c]);
        g.output("x", x);
        // Lane p of the words is the input pattern p = c b a.
        let words = simulate_words(&g, &[0xaa, 0xcc, 0xf0], &[]);
        assert_eq!(lit_word(&words, x) & 0xff, XOR3);
    }

    #[test]
    fn random_equiv_detects_difference() {
        let mut g1 = Aig::new("g1");
        let a = g1.input("a");
        let b = g1.input("b");
        let o = g1.and(a, b);
        g1.output("o", o);

        let mut g2 = Aig::new("g2");
        let a = g2.input("a");
        let b = g2.input("b");
        let o = g2.or(a, b);
        g2.output("o", o);

        assert!(!random_equiv(&g1, &g2, 4, 42));
        assert!(random_equiv(&g1, &g1.clone(), 4, 42));
    }

    #[test]
    fn counterexample_replay_refines_classes() {
        // f = a&b&c and g = a&b differ only on (1,1,0). Seed the simulator
        // with patterns that cannot tell them apart, then replay the
        // distinguishing pattern as a SAT counterexample would be.
        let mut aig = Aig::new("t");
        let a = aig.input("a");
        let b = aig.input("b");
        let c = aig.input("c");
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.output("f", abc);
        aig.output("g", ab);

        let mut sim = Simulator::empty(&aig, 7);
        sim.add_pattern(&[true, true, true]);
        sim.add_pattern(&[false, true, false]);
        sim.flush();
        assert_eq!(sim.rounds.len(), 1, "one flushed word of 64 patterns");
        let (kf, cf) = sim.canonical_key(abc.node());
        let (kg, cg) = sim.canonical_key(ab.node());
        assert_eq!((kf, cf), (kg, cg), "agreeing patterns leave a candidate");
        assert!(sim.signatures_match(abc.node(), ab.node(), cf ^ cg));

        sim.add_pattern(&[true, true, false]);
        sim.flush();
        let (kf, cf) = sim.canonical_key(abc.node());
        let (kg, cg) = sim.canonical_key(ab.node());
        assert!(
            (kf, cf) != (kg, cg) || !sim.signatures_match(abc.node(), ab.node(), cf ^ cg),
            "replayed counterexample must split the class"
        );
    }

    #[test]
    fn exhaustive_simulator_matches_truth_tables() {
        let mut g = Aig::new("fa");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let x = g.xor_many(&[a, b, c]);
        g.output("x", x);
        let sim = Simulator::exhaustive(&g);
        // The first 8 lanes of round 0 enumerate all 3-input patterns.
        assert_eq!(sim.word(0, x.node()) & 0xff, XOR3);
    }

    #[test]
    fn sequential_counter() {
        // 2-bit counter: q0' = !q0, q1' = q1 ^ q0.
        let mut g = Aig::new("cnt2");
        let q0 = g.latch("q0", false);
        let q1 = g.latch("q1", false);
        g.set_latch_next(q0, !q0);
        let n1 = g.xor(q1, q0);
        g.set_latch_next(q1, n1);
        g.output("o0", q0);
        g.output("o1", q1);
        let mut sim = SeqSim::new(&g);
        let mut seen = Vec::new();
        for _ in 0..6 {
            let o = sim.step(&[]);
            seen.push((o[1] as u8) << 1 | o[0] as u8);
        }
        assert_eq!(seen, [0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn full_adder_exhaustive() {
        let mut g = Aig::new("fa");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let (s, co) = build::full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("co", co);
        for p in 0..8usize {
            let inputs: Vec<bool> = (0..3).map(|i| p >> i & 1 == 1).collect();
            let bits = (p & 1) + (p >> 1 & 1) + (p >> 2 & 1);
            assert_eq!(eval_outputs(&g, &inputs), [bits & 1 == 1, bits >= 2]);
        }
    }
}
