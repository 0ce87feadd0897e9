//! Polarity optimization (paper §3.1.4–3.1.5).
//!
//! A dual-rail xSFQ node costs an LA-FA *pair* only when both of its rails
//! (the function and its complement) are consumed. Because primary outputs
//! feed DROC cells or dual-to-single-rail converters, each output may retain
//! either polarity — so inverters can be pushed backwards from the outputs
//! (bubble pushing), and the choice of output polarities becomes the domino
//! logic *output phase assignment* problem (Puri et al., ICCAD'96), solved
//! here with the same greedy-improvement heuristic.

use xsfq_aig::{Aig, Lit, NodeKind};
use xsfq_exec::ThreadPool;

/// Polarity retained for a primary output.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum OutputPolarity {
    /// Keep the positive rail (the signal itself), as in Figure 5i.
    #[default]
    Positive,
    /// Keep the negative rail (its complement), as in Figure 5ii.
    Negative,
}

impl OutputPolarity {
    /// Flip the polarity.
    #[must_use]
    fn flipped(self) -> Self {
        match self {
            OutputPolarity::Positive => OutputPolarity::Negative,
            OutputPolarity::Negative => OutputPolarity::Positive,
        }
    }
}

/// How output polarities are chosen.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PolarityMode {
    /// No relaxation: every node and every output keeps both rails
    /// (§3.1.1/§3.1.3 mapping; 100% duplication).
    DualRail,
    /// All outputs keep the positive rail only (§3.1.4, Figure 5i).
    AllPositive,
    /// Greedy output-phase assignment heuristic (§3.1.5, Figure 5ii) — the
    /// paper's default.
    #[default]
    Heuristic,
    /// Try all `2^outputs` assignments (only for tiny designs / ablation
    /// studies).
    Exhaustive,
}

/// A chosen polarity per primary output.
///
/// Latch data rails are *not* free choices: the initialization strategy of
/// §3.2 dictates that a latch with power-on value 0 samples the negative
/// rail of its next-state function (with the DROC output pins swapped), so
/// the trigger-cycle dummy pulse emerges as the correct initial value. The
/// mapper derives that from [`xsfq_aig::Latch::init`] directly.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PolarityAssignment {
    /// One entry per primary output.
    pub outputs: Vec<OutputPolarity>,
}

impl PolarityAssignment {
    /// All-positive assignment for a design.
    fn all_positive(aig: &Aig) -> Self {
        PolarityAssignment {
            outputs: vec![OutputPolarity::Positive; aig.num_outputs()],
        }
    }
}

/// Which rails every node must produce.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RailRequirements {
    /// Node needs its positive rail (an LA cell for AND nodes).
    pub needs_pos: Vec<bool>,
    /// Node needs its negative rail (an FA cell for AND nodes).
    pub needs_neg: Vec<bool>,
}

impl RailRequirements {
    /// Number of LA/FA cells implied (pairs count twice). Only AND nodes
    /// cost cells; inputs, latches and constants provide rails for free.
    fn cell_count(&self, aig: &Aig) -> usize {
        aig.and_ids()
            .map(|id| self.needs_pos[id.index()] as usize + self.needs_neg[id.index()] as usize)
            .sum()
    }

    /// Number of AND nodes contributing at least one cell.
    pub fn used_nodes(&self, aig: &Aig) -> usize {
        aig.and_ids()
            .filter(|id| self.needs_pos[id.index()] || self.needs_neg[id.index()])
            .count()
    }

    /// The paper's duplication penalty: `cells / nodes − 1`, in percent.
    /// 0% means every used node maps to a single LA or FA cell; 100% means
    /// every node needs the full pair (Tables 3–6 "Dupl." column).
    pub fn duplication_percent(&self, aig: &Aig) -> f64 {
        let nodes = self.used_nodes(aig);
        if nodes == 0 {
            return 0.0;
        }
        let cells = self.cell_count(aig);
        (cells as f64 / nodes as f64 - 1.0) * 100.0
    }
}

/// Compute rail requirements for a given assignment (backward bubble
/// pushing). `dual_rail` forces both rails everywhere (the §3.1.1/§3.1.3
/// mappings).
fn rail_requirements(
    aig: &Aig,
    assignment: &PolarityAssignment,
    dual_rail: bool,
) -> RailRequirements {
    let mut req = RailRequirements::default();
    rail_requirements_into(aig, assignment, dual_rail, None, &mut req);
    req
}

/// [`rail_requirements`] into caller-owned buffers, optionally evaluating a
/// **single-output flip** (`flip = Some(o)` costs the assignment with
/// output `o`'s polarity flipped, without cloning the assignment). Both
/// polarity searches cost their candidates with it; reusing the buffers
/// keeps the inner loop allocation-free.
fn rail_requirements_into(
    aig: &Aig,
    assignment: &PolarityAssignment,
    dual_rail: bool,
    flip: Option<usize>,
    req: &mut RailRequirements,
) {
    let n = aig.num_nodes();
    req.needs_pos.clear();
    req.needs_pos.resize(n, false);
    req.needs_neg.clear();
    req.needs_neg.resize(n, false);
    if dual_rail {
        // Every node reachable from a root needs both rails.
        let mut live = vec![false; n];
        let mut stack: Vec<usize> = aig
            .combinational_roots()
            .map(|l| l.node().index())
            .collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            if let NodeKind::And { a, b } = aig.nodes()[i] {
                stack.push(a.node().index());
                stack.push(b.node().index());
            }
        }
        for (i, &is_live) in live.iter().enumerate().take(n) {
            if is_live {
                req.needs_pos[i] = true;
                req.needs_neg[i] = true;
            }
        }
        return;
    }

    // Seed from the outputs and latch data inputs. A latch samples the
    // positive rail of its next-state function when init = 1, the negative
    // rail when init = 0 (§3.2 initialization strategy).
    for (o, (out, pol)) in aig.outputs().iter().zip(&assignment.outputs).enumerate() {
        let mut positive = *pol == OutputPolarity::Positive;
        if flip == Some(o) {
            positive = !positive;
        }
        mark(req, out.lit, positive);
    }
    for latch in aig.latches() {
        mark(req, latch.next, latch.init);
    }
    // One reverse-topological sweep: fanins have smaller ids than the node.
    for i in (1..n).rev() {
        let NodeKind::And { a, b } = aig.nodes()[i] else {
            continue;
        };
        if req.needs_pos[i] {
            // LA consumes the positive sense of each fanin edge.
            mark(req, a, true);
            mark(req, b, true);
        }
        if req.needs_neg[i] {
            // FA consumes the negative sense of each fanin edge
            // (De Morgan: !(a & b) = !a | !b).
            mark(req, a, false);
            mark(req, b, false);
        }
    }
}

/// Request the rail carrying `lit`'s value (`positive_sense`) or its
/// complement.
fn mark(req: &mut RailRequirements, lit: Lit, positive_sense: bool) {
    let want_pos = positive_sense ^ lit.is_complement();
    if want_pos {
        req.needs_pos[lit.node().index()] = true;
    } else {
        req.needs_neg[lit.node().index()] = true;
    }
}

/// Choose output polarities according to `mode` and return the assignment
/// with its rail requirements.
pub fn assign_polarities(aig: &Aig, mode: PolarityMode) -> (PolarityAssignment, RailRequirements) {
    match mode {
        PolarityMode::DualRail => {
            let a = PolarityAssignment::all_positive(aig);
            let r = rail_requirements(aig, &a, true);
            (a, r)
        }
        PolarityMode::AllPositive => {
            let a = PolarityAssignment::all_positive(aig);
            let r = rail_requirements(aig, &a, false);
            (a, r)
        }
        PolarityMode::Heuristic => heuristic_assignment(aig),
        PolarityMode::Exhaustive => exhaustive_assignment(aig),
    }
}

/// [`assign_polarities`]; `pool` is unused, because both searches run on
/// the calling thread. Kept with its signature for perfbench's `trace.rs`,
/// which calls it.
pub fn assign_polarities_with_pool(
    aig: &Aig,
    mode: PolarityMode,
    _pool: &ThreadPool,
) -> (PolarityAssignment, RailRequirements) {
    assign_polarities(aig, mode)
}

/// Greedy improvement (the Puri–Bjorksten–Rosser heuristic adapted to
/// AIGs): starting all-positive, walk the outputs in order and flip each
/// one whose flip lowers the LA/FA cell count, so the first improving flip
/// wins, not the best. Walks repeat until one flips nothing, at most 8
/// times. Only outputs are candidates: latch rails follow
/// [`xsfq_aig::Latch::init`] (§3.2).
fn heuristic_assignment(aig: &Aig) -> (PolarityAssignment, RailRequirements) {
    let mut assignment = PolarityAssignment::all_positive(aig);
    let mut req = rail_requirements(aig, &assignment, false);
    let mut best_cost = req.cell_count(aig);
    for _pass in 0..8 {
        let mut improved = false;
        for o in 0..assignment.outputs.len() {
            rail_requirements_into(aig, &assignment, false, Some(o), &mut req);
            let cost = req.cell_count(aig);
            if cost < best_cost {
                assignment.outputs[o] = assignment.outputs[o].flipped();
                best_cost = cost;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let best_req = rail_requirements(aig, &assignment, false);
    debug_assert_eq!(best_req.cell_count(aig), best_cost);
    (assignment, best_req)
}

/// Exhaustive search over all output polarity assignments (≤ 20 outputs):
/// costs every code in ascending order and keeps the lowest code of
/// minimal cost.
///
/// # Panics
///
/// Panics if the design has more than 20 outputs.
fn exhaustive_assignment(aig: &Aig) -> (PolarityAssignment, RailRequirements) {
    let bits = aig.num_outputs();
    assert!(
        bits <= 20,
        "exhaustive polarity search limited to 20 outputs"
    );
    let assignment_for = |code: u32| PolarityAssignment {
        outputs: (0..bits)
            .map(|i| {
                if code >> i & 1 == 1 {
                    OutputPolarity::Negative
                } else {
                    OutputPolarity::Positive
                }
            })
            .collect(),
    };
    let mut req = RailRequirements::default();
    let (mut best_code, mut best_cost) = (0, usize::MAX);
    for code in 0..(1u32 << bits) {
        rail_requirements_into(aig, &assignment_for(code), false, None, &mut req);
        let cost = req.cell_count(aig);
        // Strict `<` keeps the lowest minimal code.
        if cost < best_cost {
            (best_code, best_cost) = (code, cost);
        }
    }
    let assignment = assignment_for(best_code);
    let req = rail_requirements(aig, &assignment, false);
    (assignment, req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_aig::build;

    fn full_adder() -> Aig {
        let mut g = Aig::new("fa");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("cin");
        let (s, co) = build::full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("cout", co);
        g
    }

    #[test]
    fn dual_rail_doubles_everything() {
        let g = full_adder();
        let (_, req) = assign_polarities(&g, PolarityMode::DualRail);
        // Figure 4: 7-node AIG → 14 LA/FA cells.
        assert_eq!(req.cell_count(&g), 14);
        assert!((req.duplication_percent(&g) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn positive_outputs_give_eleven_cells() {
        let g = full_adder();
        let (_, req) = assign_polarities(&g, PolarityMode::AllPositive);
        // Figure 5i: retaining sp and coutp needs 11 LA/FA cells.
        assert_eq!(req.cell_count(&g), 11);
    }

    #[test]
    fn heuristic_finds_ten_cells() {
        let g = full_adder();
        let (assignment, req) = assign_polarities(&g, PolarityMode::Heuristic);
        // Figure 5ii: flipping one output's polarity gives 10 cells (the
        // paper keeps coutn; flipping s instead is an equal-cost optimum).
        assert_eq!(req.cell_count(&g), 10);
        let flipped = assignment
            .outputs
            .iter()
            .filter(|p| **p == OutputPolarity::Negative)
            .count();
        assert_eq!(flipped, 1, "exactly one output flips");
    }

    #[test]
    fn heuristic_matches_exhaustive_on_full_adder() {
        let g = full_adder();
        let (_, heur) = assign_polarities(&g, PolarityMode::Heuristic);
        let (_, exact) = assign_polarities(&g, PolarityMode::Exhaustive);
        assert_eq!(heur.cell_count(&g), exact.cell_count(&g));
    }

    #[test]
    fn single_gate_needs_one_cell() {
        let mut g = Aig::new("and");
        let a = g.input("a");
        let b = g.input("b");
        let x = g.and(a, b);
        g.output("o", x);
        let (_, req) = assign_polarities(&g, PolarityMode::Heuristic);
        assert_eq!(req.cell_count(&g), 1);
        assert!((req.duplication_percent(&g) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn inverted_output_prefers_negative_rail() {
        // o = !(a & b): positive polarity needs the FA cell only.
        let mut g = Aig::new("nand");
        let a = g.input("a");
        let b = g.input("b");
        let x = g.nand(a, b);
        g.output("o", x);
        let (_, req) = assign_polarities(&g, PolarityMode::AllPositive);
        assert_eq!(req.cell_count(&g), 1);
        let idx = x.node().index();
        assert!(!req.needs_pos[idx]);
        assert!(req.needs_neg[idx]);
    }

    #[test]
    fn latch_rail_follows_init_value() {
        // init = 0 demands the negative rail of the next-state function;
        // init = 1 the positive rail (§3.2).
        for init in [false, true] {
            let mut g = Aig::new("seq");
            let d = g.input("d");
            let q = g.latch("q", init);
            let x = g.and(q, d);
            g.set_latch_next(q, x);
            let (_, req) = assign_polarities(&g, PolarityMode::AllPositive);
            let idx = x.node().index();
            assert_eq!(req.needs_pos[idx], init, "init={init}");
            assert_eq!(req.needs_neg[idx], !init, "init={init}");
        }
    }

    #[test]
    fn xor_dominated_design_has_high_duplication() {
        // A parity tree forces both rails through most of the circuit —
        // the xSFQ analog of the paper's `sin`/`voter` observation.
        let mut g = Aig::new("parity");
        let xs = g.input_word("x", 8);
        let p = g.xor_many(&xs);
        g.output("p", p);
        let (_, req) = assign_polarities(&g, PolarityMode::Heuristic);
        assert!(
            req.duplication_percent(&g) > 50.0,
            "parity should stay heavily duplicated, got {:.0}%",
            req.duplication_percent(&g)
        );
    }
}
