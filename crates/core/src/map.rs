//! Dual-rail technology mapping: AIG → clock-free xSFQ netlist.
//!
//! The mapper exploits the paper's central isomorphism (§3.1.3): an AIG node
//! maps to an LA cell (its positive rail, an AND) and/or an FA cell (its
//! negative rail, an OR of complements — De Morgan). Inversions are wire
//! twists. Which rails exist is decided by the polarity analysis
//! ([`crate::polarity`]); pipeline DROC ranks (§4.2.2) and sequential DROC
//! pairs with the preload/trigger initialization strategy (§3.2) are
//! inserted here as well.
//!
//! # Two sequential sweeps
//!
//! * **requirements** — one backward sweep in reverse node-index order
//!   computes `needs_pos`/`needs_neg`/`needs_any` per node. Every consumer
//!   of a node has a larger index, so a node's requirements are final when
//!   the sweep reaches it.
//! * **emission** — cells are emitted in ascending node-index order (DROC
//!   chains created on first demand). Cell instantiation order fixes
//!   `NetId`/`CellId` numbering.
//!
//! Both sweeps run on the calling thread, like every stage of a design's
//! flow: a levelized parallel requirements sweep measured slower than the
//! sequential one on two cores, and the emission order is inherently
//! serial.

use xsfq_aig::{Aig, Lit, NodeId, NodeKind};
use xsfq_cells::{CellKind, CellLibrary, InterconnectStyle};
use xsfq_exec::ThreadPool;
use xsfq_netlist::{NetId, Netlist};

use crate::polarity::{OutputPolarity, PolarityAssignment, PolarityMode, RailRequirements};

/// Mapping options.
#[derive(Clone, Debug)]
pub struct MapOptions {
    /// Output polarity strategy (paper §3.1.4–3.1.5).
    pub polarity: PolarityMode,
    /// Interconnect style selecting the cell library variant.
    pub style: InterconnectStyle,
    /// Levels at which pipeline DROC ranks are inserted, ascending. Rank
    /// `i` (1-based) is preloaded + trigger-clocked when odd — the first
    /// DROC of each logical pair (§3.2). Empty for purely combinational
    /// mapping. Primary outputs register past all ranks.
    pub rank_levels: Vec<u32>,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            polarity: PolarityMode::Heuristic,
            style: InterconnectStyle::Abutted,
            rank_levels: Vec::new(),
        }
    }
}

/// Result of mapping an AIG to xSFQ cells.
#[derive(Clone, Debug)]
pub struct MappedDesign {
    /// The logical netlist (multi-fanout nets, no splitters).
    pub logical: Netlist,
    /// The physical netlist (balanced splitter trees inserted).
    pub physical: Netlist,
    /// Chosen output polarities.
    pub assignment: PolarityAssignment,
    /// Rail requirements used for emission (after `needs-any` promotion).
    pub requirements: RailRequirements,
    /// AND nodes contributing at least one cell.
    pub used_nodes: usize,
    /// JJ cost of the trigger merger (5 when the §3.2 trigger is needed,
    /// else 0; the paper counts exactly one merger per design).
    pub trigger_merger_jj: u64,
}

impl MappedDesign {
    /// Duplication penalty in percent (paper Tables 3–6).
    pub fn duplication_percent(&self) -> f64 {
        if self.used_nodes == 0 {
            return 0.0;
        }
        let cells = self.physical.stats().la_fa;
        (cells as f64 / self.used_nodes as f64 - 1.0) * 100.0
    }
}

#[derive(Clone, Copy, Default)]
struct RailSet {
    pos: Option<NetId>,
    neg: Option<NetId>,
}

/// Tiny rank → [`RailSet`] map. A node touches at most a handful of
/// pipeline ranks (usually exactly one), so an inline linear vector beats a
/// per-node `HashMap` in both allocation count and lookup time.
#[derive(Clone, Default)]
struct RankRails(Vec<(usize, RailSet)>);

impl RankRails {
    #[inline]
    fn get(&self, rank: usize) -> Option<&RailSet> {
        self.0.iter().find(|(r, _)| *r == rank).map(|(_, s)| s)
    }

    #[inline]
    fn insert(&mut self, rank: usize, set: RailSet) {
        if let Some(slot) = self.0.iter_mut().find(|(r, _)| *r == rank) {
            slot.1 = set;
        } else {
            self.0.push((rank, set));
        }
    }
}

/// Map an optimized AIG to an xSFQ netlist.
///
/// # Panics
///
/// Panics if `rank_levels` is non-empty on a sequential design (pipelining
/// and feedback latches are composed at the flow level, not here).
pub fn map_xsfq(aig: &Aig, options: &MapOptions) -> MappedDesign {
    assert!(
        options.rank_levels.is_empty() || aig.num_latches() == 0,
        "pipeline ranks apply to combinational designs only"
    );
    let (assignment, _) = crate::polarity::assign_polarities(aig, options.polarity);
    map_with_assignment(aig, options, assignment)
}

/// [`map_with_assignment`], which takes no pool: mapping runs sequentially
/// (see the [module docs](self)), so `pool` is unused. The signature stays
/// because perfbench's `trace.rs` calls it.
pub fn map_with_assignment_pool(
    aig: &Aig,
    options: &MapOptions,
    assignment: PolarityAssignment,
    _pool: &ThreadPool,
) -> MappedDesign {
    map_with_assignment(aig, options, assignment)
}

/// Map with an explicit polarity assignment (for ablation studies).
pub fn map_with_assignment(
    aig: &Aig,
    options: &MapOptions,
    assignment: PolarityAssignment,
) -> MappedDesign {
    let n = aig.num_nodes();
    let levels = aig.levels();
    let nranks = options.rank_levels.len();
    let rank_of = |node: NodeId| -> usize {
        let lvl = levels[node.index()];
        options.rank_levels.iter().filter(|&&c| c <= lvl).count()
    };
    let out_rank = nranks;
    let dual_rail = options.polarity == PolarityMode::DualRail;

    // ---- Requirements analysis (rank-aware backward sweep) ----
    let mut needs_pos = vec![false; n];
    let mut needs_neg = vec![false; n];
    let mut needs_any = vec![false; n];
    let base_rank: Vec<usize> = (0..n).map(|i| rank_of(NodeId::from_index(i))).collect();

    let mut seed = |lit: Lit, positive_sense: bool, consumer_rank: usize| {
        let node = lit.node().index();
        if consumer_rank > base_rank[node] {
            needs_any[node] = true;
        } else if positive_sense ^ lit.is_complement() {
            needs_pos[node] = true;
        } else {
            needs_neg[node] = true;
        }
    };
    for (o, pol) in aig.outputs().iter().zip(&assignment.outputs) {
        if dual_rail {
            seed(o.lit, true, out_rank);
            seed(o.lit, false, out_rank);
        } else {
            seed(o.lit, *pol == OutputPolarity::Positive, out_rank);
        }
    }
    for latch in aig.latches() {
        // §3.2 initialization: the first DROC samples the positive rail of
        // the next-state function when init = 1, the negative rail when
        // init = 0 (so the trigger-cycle dummy emerges as the init value).
        seed(latch.next, latch.init, 0);
    }

    // Every consumer of a node has a larger id, so one reverse-id sweep
    // reaches each node with its requirements final.
    for i in (1..n).rev() {
        let NodeKind::And { a, b } = aig.nodes()[i] else {
            continue;
        };
        if dual_rail && (needs_pos[i] || needs_neg[i] || needs_any[i]) {
            needs_pos[i] = true;
            needs_neg[i] = true;
        }
        // Promote a registered-only requirement to a single rail.
        if needs_any[i] && !needs_pos[i] && !needs_neg[i] {
            needs_pos[i] = true;
        }
        let nr = base_rank[i];
        for (sense, active) in [(true, needs_pos[i]), (false, needs_neg[i])] {
            if !active {
                continue;
            }
            for edge in [a, b] {
                let c = edge.node().index();
                if nr > base_rank[c] {
                    needs_any[c] = true;
                } else if sense ^ edge.is_complement() {
                    needs_pos[c] = true;
                } else {
                    needs_neg[c] = true;
                }
            }
        }
    }
    // Inputs and constants referenced only across ranks need no promotion:
    // their rails exist anyway, so every DROC chain has a source rail.
    emit_mapping(
        aig, options, assignment, needs_pos, needs_neg, base_rank, out_rank, dual_rail,
    )
}

/// Emission, in ascending node-index order (DROC rank chains created on
/// first demand). Cell instantiation order determines `CellId`/`NetId`
/// numbering, so this order pins the mapped netlist.
#[allow(clippy::too_many_arguments)]
fn emit_mapping(
    aig: &Aig,
    options: &MapOptions,
    assignment: PolarityAssignment,
    needs_pos: Vec<bool>,
    needs_neg: Vec<bool>,
    base_rank: Vec<usize>,
    out_rank: usize,
    dual_rail: bool,
) -> MappedDesign {
    let n = aig.num_nodes();
    let mut netlist = Netlist::new(aig.name().to_string(), CellLibrary::xsfq(options.style));
    // rails[node] maps rank → RailSet.
    let mut rails: Vec<RankRails> = vec![RankRails::default(); n];

    // Constant rails, created on demand (constant outputs are represented
    // as alternating sources at the interface, modeled as input ports).
    let mut const_rails: Option<RailSet> = None;

    // Primary inputs: both rails as ports (Eq. 1's N_inp = 2 × |PI|).
    for (i, &id) in aig.inputs().iter().enumerate() {
        let p = netlist.add_input(format!("{}_p", aig.input_name(i)));
        let q = netlist.add_input(format!("{}_n", aig.input_name(i)));
        rails[id.index()].insert(
            0,
            RailSet {
                pos: Some(p),
                neg: Some(q),
            },
        );
    }

    // Latches: DROC pairs implementing the §3.2 protocol — the first DROC
    // is preloaded and trigger-clocked, the second is plain. The data rail
    // and output-pin assignment follow the init value: init = 0 samples the
    // negative rail and swaps Qp/Qn (so the trigger-cycle dummy pulse
    // emerges on the negative rail, i.e. as logical 0).
    let mut latch_first_droc = Vec::with_capacity(aig.num_latches());
    for latch in aig.latches() {
        let flip = !latch.init;
        let (d1, d1_outs) = netlist.add_cell_deferred(CellKind::Droc { preload: true });
        netlist.set_trigger_clocked(d1);
        let d2_outs = netlist.add_cell(CellKind::Droc { preload: false }, &[d1_outs[0]]);
        let (pos, neg) = if flip {
            (d2_outs[1], d2_outs[0])
        } else {
            (d2_outs[0], d2_outs[1])
        };
        rails[latch.output.index()].insert(
            0,
            RailSet {
                pos: Some(pos),
                neg: Some(neg),
            },
        );
        latch_first_droc.push(d1);
    }

    // Helper: fetch (creating DROC chains as needed) the rail of `node`
    // carrying `want_pos` at `rank`.
    fn get_rail(
        netlist: &mut Netlist,
        rails: &mut Vec<RankRails>,
        const_rails: &mut Option<RailSet>,
        base_rank: &[usize],
        node: usize,
        want_pos: bool,
        rank: usize,
    ) -> NetId {
        if node == 0 {
            // Constant-zero node: alternating constant sources at the
            // interface (modeled as dedicated input ports).
            let set = const_rails.get_or_insert_with(|| RailSet {
                pos: Some(netlist.add_input("const0_p")),
                neg: Some(netlist.add_input("const0_n")),
            });
            return if want_pos {
                set.pos.expect("const rail")
            } else {
                set.neg.expect("const rail")
            };
        }
        if let Some(set) = rails[node].get(rank) {
            if let Some(net) = if want_pos { set.pos } else { set.neg } {
                return net;
            }
        }
        assert!(
            rank > base_rank[node],
            "rail {} of node {node} missing at its base rank — requirements analysis bug",
            if want_pos { "pos" } else { "neg" }
        );
        // Register the previous rank's rail through a DROC. Prefer the
        // positive rail as the data sense when available.
        let prev = rank - 1;
        let prev_set = rails[node].get(prev).copied().unwrap_or_default();
        let (src, src_pos) = if let Some(p) = prev_set.pos {
            (p, true)
        } else if let Some(ng) = prev_set.neg {
            (ng, false)
        } else {
            // Ensure the previous rank exists first (recursive chain).
            let p = get_rail(netlist, rails, const_rails, base_rank, node, true, prev);
            (p, true)
        };
        // Boundary index == rank (1-based); odd boundaries are the
        // preloaded, trigger-clocked first halves of the logical pairs.
        let preload = rank % 2 == 1;
        let (cell, outs) = {
            let outs = netlist.add_cell(CellKind::Droc { preload }, &[src]);
            let cell = match netlist.driver(outs[0]) {
                xsfq_netlist::Driver::Cell { cell, .. } => cell,
                xsfq_netlist::Driver::Input(_) => unreachable!(),
            };
            (cell, outs)
        };
        if preload {
            netlist.set_trigger_clocked(cell);
        }
        let (pos, neg) = if src_pos {
            (outs[0], outs[1])
        } else {
            (outs[1], outs[0])
        };
        rails[node].insert(
            rank,
            RailSet {
                pos: Some(pos),
                neg: Some(neg),
            },
        );
        if want_pos {
            pos
        } else {
            neg
        }
    }

    // Logic cells, topological order.
    for i in 1..n {
        let NodeKind::And { a, b } = aig.nodes()[i] else {
            continue;
        };
        let nr = base_rank[i];
        let mut set = RailSet::default();
        if needs_pos[i] {
            // LA on the positive senses of the fanin edges.
            let ia = fanin_rail(
                &mut netlist,
                &mut rails,
                &mut const_rails,
                &base_rank,
                a,
                true,
                nr,
            );
            let ib = fanin_rail(
                &mut netlist,
                &mut rails,
                &mut const_rails,
                &base_rank,
                b,
                true,
                nr,
            );
            set.pos = Some(netlist.add_cell(CellKind::La, &[ia, ib])[0]);
        }
        if needs_neg[i] {
            // FA on the negative senses (De Morgan).
            let ia = fanin_rail(
                &mut netlist,
                &mut rails,
                &mut const_rails,
                &base_rank,
                a,
                false,
                nr,
            );
            let ib = fanin_rail(
                &mut netlist,
                &mut rails,
                &mut const_rails,
                &base_rank,
                b,
                false,
                nr,
            );
            set.neg = Some(netlist.add_cell(CellKind::Fa, &[ia, ib])[0]);
        }
        if set.pos.is_some() || set.neg.is_some() {
            rails[i].insert(nr, set);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn fanin_rail(
        netlist: &mut Netlist,
        rails: &mut Vec<RankRails>,
        const_rails: &mut Option<RailSet>,
        base_rank: &[usize],
        edge: Lit,
        sense_pos: bool,
        consumer_rank: usize,
    ) -> NetId {
        let want_pos = sense_pos ^ edge.is_complement();
        get_rail(
            netlist,
            rails,
            const_rails,
            base_rank,
            edge.node().index(),
            want_pos,
            consumer_rank,
        )
    }

    // Wire the latch data inputs (positive rail for init = 1, negative
    // rail for init = 0 — matching the requirement seeding above).
    for (latch, &d1) in aig.latches().iter().zip(&latch_first_droc) {
        let net = fanin_rail(
            &mut netlist,
            &mut rails,
            &mut const_rails,
            &base_rank,
            latch.next,
            latch.init,
            0,
        );
        netlist.connect_input(d1, 0, net);
    }

    // Primary outputs.
    for (o, pol) in aig.outputs().iter().zip(&assignment.outputs) {
        if dual_rail {
            let p = fanin_rail(
                &mut netlist,
                &mut rails,
                &mut const_rails,
                &base_rank,
                o.lit,
                true,
                out_rank,
            );
            let q = fanin_rail(
                &mut netlist,
                &mut rails,
                &mut const_rails,
                &base_rank,
                o.lit,
                false,
                out_rank,
            );
            netlist.add_output(format!("{}_p", o.name), p);
            netlist.add_output(format!("{}_n", o.name), q);
        } else {
            let positive = *pol == OutputPolarity::Positive;
            let net = fanin_rail(
                &mut netlist,
                &mut rails,
                &mut const_rails,
                &base_rank,
                o.lit,
                positive,
                out_rank,
            );
            netlist.add_output(o.name.clone(), net);
        }
    }

    netlist.assert_connected();
    let physical = netlist.insert_splitters();
    let trigger_merger_jj = if netlist.trigger_clocked().is_empty() {
        0
    } else {
        u64::from(netlist.library().jj(CellKind::Merger))
    };
    let used_nodes = (1..n)
        .filter(|&i| aig.nodes()[i].is_and() && (needs_pos[i] || needs_neg[i]))
        .count();
    MappedDesign {
        logical: netlist,
        physical,
        assignment,
        requirements: RailRequirements {
            needs_pos,
            needs_neg,
        },
        used_nodes,
        trigger_merger_jj,
    }
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
    fn dual_rail_full_adder_matches_figure4() {
        let g = full_adder();
        let m = map_xsfq(
            &g,
            &MapOptions {
                polarity: PolarityMode::DualRail,
                ..Default::default()
            },
        );
        let st = m.physical.stats();
        assert_eq!(st.la_fa, 14, "Figure 4: 14 LA/FA cells");
        assert_eq!(st.splitters, 12, "Figure 4: 12 splitters");
        // 14×4 + 12×3 = 92 JJ (§3.1.3: saves 28 of the 120 direct JJs).
        assert_eq!(st.jj_total, 92);
    }

    #[test]
    fn positive_polarity_full_adder_matches_figure5i() {
        let g = full_adder();
        let m = map_xsfq(
            &g,
            &MapOptions {
                polarity: PolarityMode::AllPositive,
                ..Default::default()
            },
        );
        let st = m.physical.stats();
        assert_eq!(st.la_fa, 11, "Figure 5i: 11 LA/FA cells");
        assert_eq!(st.splitters, 7, "Figure 5i: 7 splitters");
        assert_eq!(st.jj_total, 65);
    }

    #[test]
    fn heuristic_full_adder_matches_figure5ii() {
        let g = full_adder();
        let m = map_xsfq(&g, &MapOptions::default());
        let st = m.physical.stats();
        assert_eq!(st.la_fa, 10, "Figure 5ii: 10 LA/FA cells");
        assert_eq!(st.splitters, 6, "Figure 5ii: 6 splitters");
        assert_eq!(st.jj_total, 58, "Figure 5ii: 58 JJs without PTLs");
    }

    #[test]
    fn ptl_library_full_adder_jjs() {
        let g = full_adder();
        let m = map_xsfq(
            &g,
            &MapOptions {
                style: InterconnectStyle::Ptl,
                ..Default::default()
            },
        );
        // Figure 5ii with PTLs: 10×12 + 6×3 = 138 JJs.
        assert_eq!(m.physical.stats().jj_total, 138);
    }

    #[test]
    fn equation1_holds_on_full_adder() {
        let g = full_adder();
        for mode in [
            PolarityMode::DualRail,
            PolarityMode::AllPositive,
            PolarityMode::Heuristic,
        ] {
            let m = map_xsfq(
                &g,
                &MapOptions {
                    polarity: mode,
                    ..Default::default()
                },
            );
            let st = m.physical.stats();
            let n_gate = st.la_fa;
            let n_out = m.logical.outputs().len();
            let n_inp = m.logical.inputs().len();
            assert_eq!(
                st.splitters,
                n_gate + n_out - n_inp,
                "Equation 1 violated for {mode:?}"
            );
        }
    }

    #[test]
    fn combinational_designs_have_no_clock() {
        let g = full_adder();
        let m = map_xsfq(&g, &MapOptions::default());
        let st = m.physical.stats();
        assert_eq!(st.clocked_cells, 0);
        assert_eq!(st.clock_tree_jj(3), 0);
        assert_eq!(m.trigger_merger_jj, 0);
    }

    #[test]
    fn sequential_latch_becomes_droc_pair() {
        // 1-bit toggle: q' = !q.
        let mut g = Aig::new("toggle");
        let q = g.latch("q", false);
        g.set_latch_next(q, !q);
        g.output("o", q);
        let m = map_xsfq(&g, &MapOptions::default());
        let st = m.physical.stats();
        assert_eq!(st.drocs_preload + st.drocs_plain, 2, "one DROC pair");
        assert!(st.drocs_preload >= 1, "first DROC is preloaded");
        assert_eq!(m.physical.trigger_clocked().len(), 1);
        assert_eq!(m.trigger_merger_jj, 5);
    }

    #[test]
    fn every_latch_pair_has_one_preloaded_droc() {
        // §3.2: the first DROC of each pair carries the preloading
        // hardware, the second never does — regardless of the init value.
        for init in [false, true] {
            let mut g = Aig::new("t");
            let d = g.input("d");
            let q = g.latch("q", init);
            g.set_latch_next(q, d);
            g.output("o", q);
            let m = map_xsfq(
                &g,
                &MapOptions {
                    polarity: PolarityMode::AllPositive,
                    ..Default::default()
                },
            );
            let st = m.physical.stats();
            assert_eq!(st.drocs_preload, 1, "init={init}");
            assert_eq!(st.drocs_plain, 1, "init={init}");
        }
    }

    #[test]
    fn pipeline_ranks_insert_drocs() {
        // An AND chain of depth 4 with a rank cut at level 2 and one past
        // the end (outputs registered): 2 ranks = 1 architectural stage.
        let mut g = Aig::new("chain");
        let xs = g.input_word("x", 5);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = g.and(acc, x);
        }
        g.output("o", acc);
        assert_eq!(g.depth(), 4);
        let m = map_xsfq(
            &g,
            &MapOptions {
                polarity: PolarityMode::AllPositive,
                rank_levels: vec![3, 5],
                ..Default::default()
            },
        );
        let st = m.physical.stats();
        assert!(st.drocs_preload >= 1, "odd rank is preloaded");
        assert!(st.drocs_plain >= 1, "even rank is plain");
        // The deepest combinational segment shrank.
        assert!(
            st.depth_logic <= 3,
            "depth {} not pipelined",
            st.depth_logic
        );
        assert!(!m.physical.trigger_clocked().is_empty());
    }

    #[test]
    fn pipeline_registers_inputs_used_late() {
        // x feeds the last gate directly: it must be registered through
        // rank 1 so both operands arrive in the same phase.
        let mut g = Aig::new("skew");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        g.output("o", abc);
        let m = map_xsfq(
            &g,
            &MapOptions {
                polarity: PolarityMode::AllPositive,
                rank_levels: vec![2],
                ..Default::default()
            },
        );
        // c (level 0) is consumed at rank 1 → needs one DROC; ab likewise.
        let st = m.physical.stats();
        assert!(
            st.drocs_preload + st.drocs_plain >= 2,
            "late-used inputs must be registered, got {}/{}",
            st.drocs_preload,
            st.drocs_plain
        );
    }
}
