//! AIG optimization passes: `balance`, `rewrite`, `refactor` and the
//! `optimize` script combining them.
//!
//! These are from-scratch implementations of the ABC passes the paper runs
//! unmodified (§3.1.3, §4.1): DAG-aware cut rewriting (Mishchenko et al.,
//! DAC'06), reconvergence-driven refactoring, and AND-tree balancing. All
//! passes preserve the PI/PO/latch interface and are verified by CEC in the
//! test suites.
//!
//! # Evaluate, then commit
//!
//! The resynthesis passes (`rewrite`, `rewrite_zero`, `refactor*`) visit
//! the AND nodes in ascending index order and handle each in two steps:
//!
//! * **evaluate** — per candidate cut: the cut function, the MFFC size and
//!   the isolation-cost prefilter, which drops a cut whose isolation cost
//!   exceeds its MFFC by more than 2. The rewrite passes read the function
//!   from the cut itself (enumeration computes it, see [`cuts`]); refactor
//!   walks the cone of its reconvergence cut. A function of `s` leaves
//!   costs at least `s - 1` ANDs, so a cut with `s - 1 - mffc > 2` is
//!   dropped before it is costed; the bound is exact (it drops only cuts
//!   the cost would), so it changes no result. These read only the
//!   *immutable input graph* (plus the finished cut lists). The rewrite
//!   passes' enumeration takes each cone left unchanged since the previous
//!   rewrite pass's enumeration from that one, up to renumbering (see
//!   [`cuts`], "Reuse across enumerations").
//! * **commit** — the sharing-aware gain measurement and the winning
//!   rebuild. Each candidate is costed by replaying its table's recorded
//!   build on a [`DryRun`] over the growing output graph: the dry run looks
//!   pairs up in the graph's structural hash and counts the ANDs the build
//!   would add, so costing never pushes, hashes or rolls back a node. Only
//!   the winner is built. The gain is the MFFC size minus the nodes added,
//!   so it never exceeds the MFFC: a candidate whose MFFC cannot reach the
//!   minimum gain, or beat the best gain so far, is skipped uncosted, which
//!   changes no result. Commit order determines node ids and
//!   structural-hash sharing, so nodes commit in ascending index order.
//!
//! Every pass runs on the calling thread; designs, not passes, are the
//! unit of parallelism (see `xsfq_exec`). A pass polls the job's
//! cancellation token every `EVAL_BATCH` nodes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cuts::{self, Cut, CutArena, CutScratch};
use crate::pass::{PassCtx, Script};
use crate::synth::Synthesizer;
use crate::tt::TruthTable;
use crate::{Aig, DryRun, Lit, NodeId, NodeKind};
use xsfq_exec::{CancelToken, ThreadPool};

/// Balance AND trees to reduce depth (ABC's `balance`).
///
/// Single-fanout chains of non-complemented ANDs are collected into
/// super-gates and rebuilt as level-minimal trees (combine the two
/// lowest-level operands first). Levels of the output graph are maintained
/// incrementally as nodes are created — one O(1) update per fresh AND —
/// instead of re-scanning the node table.
pub fn balance(aig: &Aig) -> Aig {
    balance_counted(aig, &CancelToken::default()).0
}

/// [`balance`] that also reports how many multi-input super-gates were
/// rebuilt (the pass's commit counter). Checks `token` every `EVAL_BATCH`
/// nodes; on cancellation the input graph is returned unchanged (the
/// caller discards cancelled results).
pub(crate) fn balance_counted(aig: &Aig, token: &CancelToken) -> (Aig, u64) {
    let fanouts = aig.fanout_counts(true);

    // An AND is *absorbed* when a parent super-gate expands through it
    // (the exact `collect_supergate` rule); its own rebuilt tree is dead,
    // so only non-absorbed roots count as committed super-gates.
    let mut absorbed = vec![false; aig.num_nodes()];
    for kind in aig.nodes() {
        let NodeKind::And { a, b } = *kind else {
            continue;
        };
        for f in [a, b] {
            if !f.is_complement() && aig.node(f.node()).is_and() && fanouts[f.node().index()] == 1 {
                absorbed[f.node().index()] = true;
            }
        }
    }

    // Rebuild level-minimal trees in node-index order (tree shape depends
    // on the mapped levels of the growing output graph, which fixes node
    // ids and strash state).
    let mut commits = 0u64;
    let mut out = Aig::new(aig.name().to_string());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    map_cis(aig, &mut out, &mut map);
    out.reserve(aig.num_ands());
    // `levels[i]` is the level of output node `i`; constants and CIs sit at
    // level 0, and `and_leveled` appends exactly when `out.and` allocates.
    let mut levels: Vec<u32> = vec![0; out.num_nodes()];
    let and_leveled = |out: &mut Aig, levels: &mut Vec<u32>, a: Lit, b: Lit| -> Lit {
        let r = out.and(a, b);
        if out.num_nodes() > levels.len() {
            debug_assert_eq!(out.num_nodes(), levels.len() + 1);
            let lv = 1 + levels[a.node().index()].max(levels[b.node().index()]);
            levels.push(lv);
        }
        r
    };

    let (mut leaves, mut stack): (Vec<Lit>, Vec<Lit>) = (Vec::new(), Vec::new());
    let and_ids = (0..aig.num_nodes()).filter(|&i| aig.nodes()[i].is_and());
    for (n, i) in and_ids.enumerate() {
        // Every EVAL_BATCH nodes: a cancelled job abandons the rebuild.
        if n % EVAL_BATCH == 0 && token.is_cancelled() {
            return (aig.clone(), 0);
        }
        collect_supergate(
            aig,
            NodeId::from_index(i),
            &fanouts,
            &mut leaves,
            &mut stack,
        );
        if leaves.len() > 2 && !absorbed[i] {
            commits += 1;
        }
        // Map leaves into the new graph and combine lowest-level first.
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = leaves
            .iter()
            .map(|l| {
                let mapped = map[l.node().index()].complement_if(l.is_complement());
                Reverse((levels[mapped.node().index()], mapped.raw()))
            })
            .collect();
        let mut result = Lit::TRUE;
        if let Some(Reverse((_, first))) = heap.pop() {
            result = Lit::from_raw(first);
            while let Some(Reverse((_, next))) = heap.pop() {
                result = and_leveled(&mut out, &mut levels, result, Lit::from_raw(next));
                heap.push(Reverse((levels[result.node().index()], result.raw())));
                let Some(Reverse((_, top))) = heap.pop() else {
                    unreachable!()
                };
                result = Lit::from_raw(top);
            }
        }
        map[i] = result;
    }
    finish(aig, &mut out, &map);
    (out.compact(), commits)
}

/// Collect into `leaves` the operand literals of the AND tree rooted at
/// `id`, expanding through non-complemented, single-fanout AND fanins.
///
/// The walk keeps its pending fanins on `stack`, not the call stack, so a
/// chain of any length fits a small thread stack. Each node pushes its
/// second fanin below its first, so leaves come out in the order of a
/// recursive first-fanin-first descent, which fixes the rebuilt trees.
fn collect_supergate(
    aig: &Aig,
    id: NodeId,
    fanouts: &[u32],
    leaves: &mut Vec<Lit>,
    stack: &mut Vec<Lit>,
) {
    leaves.clear();
    let (a, b) = aig.and_fanins(id);
    stack.extend([b, a]);
    while let Some(f) = stack.pop() {
        if !f.is_complement() && aig.node(f.node()).is_and() && fanouts[f.node().index()] == 1 {
            let (a, b) = aig.and_fanins(f.node());
            stack.extend([b, a]);
        } else {
            leaves.push(f);
        }
    }
}

/// DAG-aware cut rewriting (ABC's `rewrite`): for every AND node, enumerate
/// 4-feasible cuts, resynthesize the best one, and accept when the new
/// implementation is smaller than the node's maximum fanout-free cone.
pub fn rewrite(aig: &Aig) -> Aig {
    rewrite_ctx(aig, false, &mut PassCtx::new()).0
}

/// Like [`rewrite`] but also accepts size-neutral replacements (ABC's
/// `rewrite -z`): restructuring toward canonical forms unlocks gains in the
/// following passes.
pub fn rewrite_zero(aig: &Aig) -> Aig {
    rewrite_ctx(aig, true, &mut PassCtx::new()).0
}

/// Reconvergence-driven refactoring (ABC's `refactor`): one larger cut per
/// node, resynthesized through ISOP + factoring. The scripted `rf` uses
/// `k = 8`; `k` is clamped to `2..=12`.
pub fn refactor_with_cut_size(aig: &Aig, k: usize) -> Aig {
    refactor_ctx(aig, k, &mut PassCtx::new()).0
}

/// [`refactor_with_cut_size`] against a pass context (shared arenas), with
/// the number of accepted replacements — the form the script engine
/// invokes.
pub(crate) fn refactor_ctx(aig: &Aig, k: usize, ctx: &mut PassCtx) -> (Aig, u64) {
    resynthesis_pass(aig, ResynthMode::Refactor { k: k.clamp(2, 12) }, ctx)
}

/// [`rewrite`] against a pass context, with the number of accepted
/// replacements — the form the script engine invokes.
pub(crate) fn rewrite_ctx(aig: &Aig, zero_gain: bool, ctx: &mut PassCtx) -> (Aig, u64) {
    resynthesis_pass(
        aig,
        ResynthMode::Rewrite {
            k: 4,
            max_cuts: 8,
            zero_gain,
        },
        ctx,
    )
}

enum ResynthMode {
    Rewrite {
        k: usize,
        max_cuts: usize,
        zero_gain: bool,
    },
    Refactor {
        k: usize,
    },
}

/// Nodes a pass visits between two polls of the cancellation token, which
/// bounds how long a cancelled job keeps running inside a pass.
const EVAL_BATCH: usize = 256;

/// One surviving candidate of the evaluate step.
struct Candidate {
    cut: Cut,
    tt: TruthTable,
    mffc: isize,
}

/// The evaluate/commit arenas of a pass context (owned by the
/// [`PassCtx`] so they persist across every pass and job it runs). The
/// commit step replays builds recorded in the same synthesizer the evaluate
/// step costs with.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    pub(crate) scratch: CutScratch,
    pub(crate) synth: Synthesizer,
}

fn resynthesis_pass(aig: &Aig, mode: ResynthMode, ctx: &mut PassCtx) -> (Aig, u64) {
    let fanouts = aig.fanout_counts(true);
    let zero_gain = matches!(
        mode,
        ResynthMode::Rewrite {
            zero_gain: true,
            ..
        }
    );
    let min_gain = if zero_gain { 0 } else { 1 };
    let token = ctx.token().clone();
    // The arenas live in the pass context, so one flat cut buffer and one
    // set of synthesis memos serve every pass of a script (and every design
    // of a batch). Memo entries are pure function values, so sharing them
    // never changes the committed graph.
    let enumerated: Option<&CutArena> = match &mode {
        ResynthMode::Rewrite { k, max_cuts, .. } => {
            cuts::enumerate_cuts_into(aig, *k, *max_cuts, &mut ctx.cut_arena);
            Some(&ctx.cut_arena)
        }
        ResynthMode::Refactor { .. } => None,
    };
    let st = &mut ctx.eval;
    let mut out = Aig::new(aig.name().to_string());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    map_cis(aig, &mut out, &mut map);
    out.reserve(aig.num_ands());
    let mut commits = 0u64;
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut leaf_lits: Vec<Lit> = Vec::new();
    let mut pending: Vec<(Lit, Lit)> = Vec::new();

    let and_ids = (0..aig.num_nodes()).filter(|&i| aig.nodes()[i].is_and());
    for (n, i) in and_ids.enumerate() {
        // Every EVAL_BATCH nodes: a cancelled job must stop in bounded time
        // even mid-pass. The partial rebuild is abandoned and the input
        // graph returned unchanged (the engine discards it anyway).
        if n % EVAL_BATCH == 0 && token.is_cancelled() {
            return (aig.clone(), 0);
        }
        candidates.clear();
        evaluate_node(aig, &mode, enumerated, &fanouts, i, st, &mut candidates);
        commits += u64::from(commit_node(
            aig,
            &mut out,
            &mut map,
            &mut st.synth,
            &mut leaf_lits,
            &mut pending,
            min_gain,
            i,
            &candidates,
        ));
    }
    finish(aig, &mut out, &map);
    let out = out.compact();
    // The gain estimates are heuristic; never accept a larger graph
    // (zero-gain mode intentionally tolerates equal size). Commits count
    // only replacements that reach the output: none when the input comes
    // back, or when the rebuild equals it node for node.
    if out.num_ands() < aig.num_ands() {
        (out, commits)
    } else if zero_gain && out.num_ands() == aig.num_ands() {
        let same = out.nodes() == aig.nodes()
            && out.outputs() == aig.outputs()
            && out.latches() == aig.latches();
        (out, if same { 0 } else { commits })
    } else {
        (aig.clone(), 0)
    }
}

/// Evaluate step for one node: collect the candidate cuts that pass the
/// isolation-cost prefilter, in enumeration order, with the data the
/// commit step needs. Reads only the immutable input graph.
fn evaluate_node(
    aig: &Aig,
    mode: &ResynthMode,
    enumerated: Option<&CutArena>,
    fanouts: &[u32],
    i: usize,
    st: &mut EvalScratch,
    candidates: &mut Vec<Candidate>,
) {
    let id = NodeId::from_index(i);
    match mode {
        ResynthMode::Rewrite { .. } => {
            for cut in enumerated
                .expect("rewrite enumerates cuts")
                .node(i)
                .iter()
                .filter(|c| c.len() >= 2 && c.leaves() != [id])
            {
                let tt = cut
                    .function()
                    .expect("enumerated cuts carry their function");
                push_candidate(aig, id, *cut, tt, fanouts, st, candidates);
            }
        }
        ResynthMode::Refactor { k } => {
            let cut = cuts::reconvergence_cut_with(aig, id, *k, &mut st.scratch);
            if cut.len() >= 2 {
                let tt = cuts::cut_function_with(aig, id, cut.leaves(), &mut st.scratch);
                push_candidate(aig, id, cut, tt, fanouts, st, candidates);
            }
        }
    }
}

fn push_candidate(
    aig: &Aig,
    id: NodeId,
    cut: Cut,
    tt: TruthTable,
    fanouts: &[u32],
    st: &mut EvalScratch,
    candidates: &mut Vec<Candidate>,
) {
    let mffc = cuts::mffc_size_with(aig, id, cut.leaves(), fanouts, &mut st.scratch) as isize;
    // Cheap pre-filter on the isolation estimate (the synthesis cost is a
    // pure function of the table). The support bound is checked first and
    // is exact: `cost >= support - 1` (see `Synthesizer::cost`), so it
    // rejects only cuts the cost would, and spares refactor's wide cuts
    // the costing. On a rewrite cut (≤ 4 leaves, mffc ≥ 1) it never fires.
    let support = tt.support_mask().count_ones() as isize;
    if support - 1 - mffc > 2 || st.synth.cost(&tt) as isize - mffc > 2 {
        return;
    }
    candidates.push(Candidate { cut, tt, mffc });
}

/// Commit step for one node: measure each surviving candidate's
/// *sharing-aware* gain by costing its build on a [`DryRun`] over the
/// output graph, then build the winner for real. Returns whether a
/// replacement was accepted.
#[allow(clippy::too_many_arguments)]
fn commit_node(
    aig: &Aig,
    out: &mut Aig,
    map: &mut [Lit],
    synth: &mut Synthesizer,
    leaf_lits: &mut Vec<Lit>,
    pending: &mut Vec<(Lit, Lit)>,
    min_gain: isize,
    i: usize,
    candidates: &[Candidate],
) -> bool {
    let NodeKind::And { a, b } = aig.nodes()[i] else {
        unreachable!("commit only visits AND nodes");
    };
    let mut best: Option<(isize, usize)> = None; // (gain, candidate index)
    for (ci, cand) in candidates.iter().enumerate() {
        // A build adds no negative number of nodes, so the gain never
        // exceeds the MFFC: a candidate whose MFFC cannot reach `min_gain`
        // or beat the best gain so far cannot win. Skip costing it.
        if cand.mffc < min_gain || best.is_some_and(|(g, _)| cand.mffc <= g) {
            continue;
        }
        leaf_lits.clear();
        leaf_lits.extend(cand.cut.leaves().iter().map(|l| map[l.index()]));
        let mut dry = DryRun::new(out, pending);
        synth.build(&mut dry, &cand.tt, leaf_lits);
        let gain = cand.mffc - dry.added() as isize;
        if gain >= min_gain && best.is_none_or(|(g, _)| gain > g) {
            best = Some((gain, ci));
        }
    }
    map[i] = if let Some((_, ci)) = best {
        let cand = &candidates[ci];
        leaf_lits.clear();
        leaf_lits.extend(cand.cut.leaves().iter().map(|l| map[l.index()]));
        synth.build(out, &cand.tt, leaf_lits)
    } else {
        let fa = map[a.node().index()].complement_if(a.is_complement());
        let fb = map[b.node().index()].complement_if(b.is_complement());
        out.and(fa, fb)
    };
    best.is_some()
}

fn map_cis(aig: &Aig, out: &mut Aig, map: &mut [Lit]) {
    for (i, &id) in aig.inputs().iter().enumerate() {
        map[id.index()] = out.input(aig.input_name(i).to_string());
    }
    for latch in aig.latches() {
        map[latch.output.index()] = out.latch(latch.name.clone(), latch.init);
    }
}

fn finish(aig: &Aig, out: &mut Aig, map: &[Lit]) {
    for o in aig.outputs() {
        let lit = map[o.lit.node().index()].complement_if(o.lit.is_complement());
        out.output(o.name.clone(), lit);
    }
    for (i, latch) in aig.latches().iter().enumerate() {
        let next = map[latch.next.node().index()].complement_if(latch.next.is_complement());
        let output = out.latches()[i].output.lit();
        out.set_latch_next(output, next);
    }
}

/// Optimization effort for [`optimize`].
///
/// Each level is a thin facade over a preset pass script
/// ([`Script::preset`]); the pass manager in [`crate::pass`] is the
/// general mechanism.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Effort {
    /// One balance + rewrite round (`c; repeat 1 { b; rw; rf; b; rwz; rw }`).
    Fast,
    /// Up to three rounds of balance/rewrite/refactor (≈ ABC `resyn2`;
    /// `c; repeat 3 { b; rw; rf; b; rwz; rw }`).
    #[default]
    Standard,
    /// Up to six rounds with larger refactoring cuts
    /// (`c; repeat 6 { b; rw; rf -K 10; b; rwz; rw }`).
    High,
}

/// Run the optimization script: alternating balance / rewrite / refactor
/// until no improvement (bounded by the effort level). Returns the smallest
/// graph seen.
///
/// ```
/// use xsfq_aig::{Aig, build, opt};
/// let mut g = Aig::new("fa");
/// let a = g.input("a");
/// let b = g.input("b");
/// let c = g.input("cin");
/// let (s, co) = build::full_adder(&mut g, a, b, c);
/// g.output("s", s);
/// g.output("cout", co);
/// let opt = opt::optimize(&g, opt::Effort::Standard);
/// assert!(opt.num_ands() <= 7, "full adder optimizes to ≤ 7 nodes");
/// ```
pub fn optimize(aig: &Aig, effort: Effort) -> Aig {
    let compiled = Script::preset(effort)
        .compile(None)
        .expect("preset scripts compile without a sweep");
    compiled.run(aig, &mut PassCtx::new())
}

/// [`optimize`]; `pool` is unused, because every pass runs on the calling
/// thread. Kept with its signature for perfbench's `trace.rs`, which calls
/// it.
///
/// Expands the effort level to its preset script and runs it through the
/// pass manager — `script_golden` pins the expansion to the legacy
/// hard-coded loop node-for-node.
pub fn optimize_with(aig: &Aig, effort: Effort, _pool: &ThreadPool) -> Aig {
    optimize(aig, effort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, sim};

    fn fa_naive() -> Aig {
        // 9-NAND full adder (the paper's "typical CMOS synthesis" example).
        let mut g = Aig::new("fa9");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("cin");
        let x1 = g.nand(a, b);
        let x2 = g.nand(a, x1);
        let x3 = g.nand(b, x1);
        let s1 = g.nand(x2, x3);
        let x4 = g.nand(s1, c);
        let x5 = g.nand(s1, x4);
        let x6 = g.nand(c, x4);
        let s = g.nand(x5, x6);
        let cout = g.nand(x1, x4);
        g.output("s", s);
        g.output("cout", cout);
        g
    }

    #[test]
    fn nand_full_adder_has_nine_nodes() {
        assert_eq!(fa_naive().num_ands(), 9);
    }

    #[test]
    fn optimize_full_adder_to_seven() {
        let g = fa_naive();
        let opt = optimize(&g, Effort::Standard);
        assert!(
            opt.num_ands() <= 7,
            "expected ≤ 7 nodes, got {}",
            opt.num_ands()
        );
        assert!(
            sim::random_equiv(&g, &opt, 8, 3),
            "optimization broke the function"
        );
    }

    #[test]
    fn balance_reduces_depth_of_chain() {
        let mut g = Aig::new("chain");
        let xs = g.input_word("x", 8);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = g.and(acc, x);
        }
        g.output("o", acc);
        assert_eq!(g.depth(), 7);
        let b = balance(&g);
        assert_eq!(b.depth(), 3);
        assert!(sim::random_equiv(&g, &b, 4, 11));
    }

    #[test]
    fn supergate_of_a_long_chain_fits_a_small_stack() {
        // A single-fanout chain x0 & x1 & ... & xn is one super-gate. Its
        // collection must not recurse per AND: 200,000 ANDs would overflow
        // a 2 MiB worker stack and abort the process.
        const N: usize = 200_000;
        let mut g = Aig::new("chain");
        let xs: Vec<Lit> = (0..=N).map(|i| g.input(format!("x{i}"))).collect();
        let acc = xs[1..].iter().fold(xs[0], |acc, &x| g.and(acc, x));
        g.output("o", acc);
        let leaves = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let fanouts = g.fanout_counts(true);
                let (mut leaves, mut stack) = (Vec::new(), Vec::new());
                collect_supergate(&g, acc.node(), &fanouts, &mut leaves, &mut stack);
                leaves
            })
            .expect("spawn")
            .join()
            .expect("collection overflowed its stack");
        // Each AND stores (x_i, chain below) and the descent takes the
        // first fanin first: x_n, ..., x_2, then the bottom AND's x0, x1.
        let mut expected: Vec<Lit> = xs[2..].iter().rev().copied().collect();
        expected.extend([xs[0], xs[1]]);
        assert_eq!(leaves, expected);
    }

    #[test]
    fn rewrite_removes_redundancy() {
        // (a & b) | (a & b & c) == a & b — rewriting should shrink it.
        let mut g = Aig::new("red");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        let o = g.or(ab, abc);
        g.output("o", o);
        let r = optimize(&g, Effort::Standard);
        assert_eq!(r.num_ands(), 1);
        assert!(sim::random_equiv(&g, &r, 4, 5));
    }

    #[test]
    fn optimize_is_equivalence_preserving_on_alu_slice() {
        // A small ALU-like block with muxes and arithmetic.
        let mut g = Aig::new("alu");
        let a = g.input_word("a", 4);
        let b = g.input_word("b", 4);
        let sel = g.input("sel");
        let (sum, _) = build::ripple_add(&mut g, &a, &b, Lit::FALSE);
        let ands: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| g.and(x, y)).collect();
        let out = build::mux_word(&mut g, sel, &sum, &ands);
        g.output_word("o", &out);
        let opt = optimize(&g, Effort::Standard);
        assert!(opt.num_ands() <= g.num_ands());
        assert!(sim::random_equiv(&g, &opt, 16, 99));
    }

    #[test]
    fn optimize_preserves_latch_interface() {
        let mut g = Aig::new("seq");
        let d = g.input("d");
        let q = g.latch("q", true);
        let nx = g.xor(d, q);
        g.set_latch_next(q, nx);
        g.output("o", q);
        let opt = optimize(&g, Effort::Standard);
        assert_eq!(opt.num_latches(), 1);
        assert!(opt.latches()[0].init);
        assert_eq!(opt.num_inputs(), 1);
    }

    #[test]
    fn optimize_mux_tree() {
        // An 8:1 mux built wastefully; optimization must not grow it.
        let mut g = Aig::new("mux8");
        let data = g.input_word("d", 8);
        let sel = g.input_word("s", 3);
        let onehot = build::decoder(&mut g, &sel, None);
        let terms: Vec<Lit> = onehot
            .iter()
            .zip(&data)
            .map(|(&h, &d)| g.and(h, d))
            .collect();
        let out = g.or_many(&terms);
        g.output("o", out);
        let before = g.num_ands();
        let opt = optimize(&g, Effort::High);
        assert!(opt.num_ands() <= before);
        assert!(sim::random_equiv(&g, &opt, 16, 17));
    }
}
