//! Slack matching: size and insert path-balancing JTL buffers.
//!
//! The slack-matching LP minimizes inserted delay subject to
//! per-join alignment constraints `|arrive(a) − arrive(b)| ≤ tolerance`.
//! On these netlists the LP decouples: every physical net has exactly one
//! sink, so padding one arc never disturbs another path, and the optimum
//! is the longest-path solution — pad each early arc up to (never past)
//! its join's latest arrival, quantized to whole JTLs by flooring. Never
//! overshooting is what keeps the pass a single sweep: the latest arrival
//! at every join is unchanged, so downstream arrivals — and the critical
//! path — are preserved and the pre-balance analysis stays valid
//! everywhere.

use xsfq_cells::CellKind;
use xsfq_netlist::Netlist;

use crate::analysis::TimingAnalysis;
use crate::{BalanceMode, TimingOptions, TimingSummary};

/// Where JTL buffers go: `(cell, input pin, count)` plus
/// `(output port index, count)` for dual-rail output alignment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct BalancePlan {
    /// JTL chains spliced in front of cell input pins.
    pin_pads: Vec<(u32, u8, u32)>,
    /// JTL chains spliced in front of output ports.
    port_pads: Vec<(u32, u32)>,
}

impl BalancePlan {
    /// True when nothing needs padding.
    fn is_empty(&self) -> bool {
        self.pin_pads.is_empty() && self.port_pads.is_empty()
    }

    /// Total JTL buffers the plan inserts.
    fn total(&self) -> usize {
        self.pin_pads
            .iter()
            .map(|&(_, _, k)| k as usize)
            .sum::<usize>()
            + self
                .port_pads
                .iter()
                .map(|&(_, k)| k as usize)
                .sum::<usize>()
    }
}

/// Result of [`balance_netlist`].
#[derive(Clone, Debug)]
pub struct BalanceOutcome {
    /// The rebuilt netlist, or `None` when no buffer was needed (the input
    /// is already balanced — callers keep the original untouched).
    pub netlist: Option<Netlist>,
    /// Timing of the final netlist (post-balance when buffers were
    /// inserted, the input's own analysis otherwise).
    pub analysis: TimingAnalysis,
    /// Compact stage summary for reports and verdicts.
    pub summary: TimingSummary,
}

/// JTL count for one early arc: `diff` ps behind, quantized to whole JTLs
/// without overshooting.
fn pads_for(diff: f64, jtl: f64, mode: BalanceMode) -> u32 {
    // NaN deltas (corrupt delay models) pad nothing, like non-positive ones.
    if diff.is_nan() || jtl.is_nan() || diff <= 0.0 || jtl <= 0.0 {
        return 0;
    }
    // The 1e-9 nudge keeps exact multiples (diff == k·jtl) from flooring
    // to k−1 after float round-off; the clamp bounds pathological delay
    // models.
    let kmax = ((diff / jtl) + 1e-9).floor().min(1e6) as u32;
    match mode {
        BalanceMode::Off => 0,
        BalanceMode::Full => kmax,
        BalanceMode::Budget(b) => {
            if diff <= b {
                0
            } else {
                (((diff - b) / jtl).ceil().min(1e6) as u32).min(kmax)
            }
        }
    }
}

/// Size the JTL padding for every join and dual-rail output pair.
///
/// RSFQ-family joins are skipped (JTL padding is the xSFQ balancing
/// mechanism; clocked RSFQ cells are aligned by their clock, and mixing
/// styles would trip the X007 lint).
fn plan_buffers(netlist: &Netlist, analysis: &TimingAnalysis, opts: &TimingOptions) -> BalancePlan {
    let jtl = netlist.library().delay(CellKind::Jtl);
    let mut plan = BalancePlan::default();
    for join in &analysis.joins {
        let kind = netlist.cells()[join.cell].kind;
        if kind.is_rsfq() || kind.is_clocked() {
            continue;
        }
        let diff = join.arrival_ps[0] - join.arrival_ps[1];
        let early: u8 = if diff > 0.0 { 1 } else { 0 };
        let k = pads_for(diff.abs(), jtl, opts.balance);
        if k > 0 {
            plan.pin_pads.push((join.cell as u32, early, k));
        }
    }
    for pair in &analysis.rail_pairs {
        let diff = pair.arrival_ps[0] - pair.arrival_ps[1];
        let early = if diff > 0.0 {
            pair.ports[1]
        } else {
            pair.ports[0]
        };
        let k = pads_for(diff.abs(), jtl, opts.balance);
        if k > 0 {
            plan.port_pads.push((early as u32, k));
        }
    }
    plan
}

/// Rebuild the netlist with the plan's JTL chains spliced in.
///
/// The copy preserves cell order and kinds (the original cells form an
/// exact prefix of the result's cell list), port names and order, and the
/// trigger-clocked set; only the pin/port connections named by the plan
/// are routed through freshly appended JTL chains.
fn apply_plan(netlist: &Netlist, plan: &BalancePlan) -> Netlist {
    let ncells = netlist.cells().len();
    let mut pin_pad = vec![[0u32; 2]; ncells];
    for &(ci, pin, k) in &plan.pin_pads {
        if (ci as usize) < ncells && (pin as usize) < 2 {
            pin_pad[ci as usize][pin as usize] = k;
        }
    }
    let mut port_pad = vec![0u32; netlist.outputs().len()];
    for &(pi, k) in &plan.port_pads {
        if (pi as usize) < port_pad.len() {
            port_pad[pi as usize] = k;
        }
    }

    let mut out = Netlist::new(netlist.name(), netlist.library().clone());
    let mut net_map = vec![xsfq_netlist::NetId::from_index(0); netlist.num_nets()];
    for port in netlist.inputs() {
        net_map[port.net.index()] = out.add_input(port.name.clone());
    }
    // Phase 1: instantiate every cell deferred so feedback through clocked
    // cells copies cleanly; record the output-net mapping.
    let mut cell_map = Vec::with_capacity(ncells);
    for cell in netlist.cells() {
        let (id, outs) = out.add_cell_deferred(cell.kind);
        for (pin, &net) in cell.outputs.iter().enumerate() {
            if pin < outs.len() {
                net_map[net.index()] = outs[pin];
            }
        }
        cell_map.push(id);
    }
    // Phase 2: wire inputs, splicing JTL chains where the plan says so.
    let nin = |n: xsfq_netlist::NetId| n.index() < net_map.len();
    for (ci, cell) in netlist.cells().iter().enumerate() {
        let arity = out.cells()[cell_map[ci].index()].inputs.len();
        for (pin, &net) in cell.inputs.iter().enumerate().take(arity) {
            if !nin(net) {
                continue; // dangling pin: leave the sentinel in place
            }
            let mut src = net_map[net.index()];
            for _ in 0..pin_pad[ci].get(pin).copied().unwrap_or(0) {
                src = out.add_cell(CellKind::Jtl, &[src])[0];
            }
            out.connect_input(cell_map[ci], pin, src);
        }
    }
    for (pi, port) in netlist.outputs().iter().enumerate() {
        if !nin(port.net) {
            continue;
        }
        let mut src = net_map[port.net.index()];
        for _ in 0..port_pad[pi] {
            src = out.add_cell(CellKind::Jtl, &[src])[0];
        }
        out.add_output(port.name.clone(), src);
    }
    for &tc in netlist.trigger_clocked() {
        if tc.index() < cell_map.len() {
            out.set_trigger_clocked(cell_map[tc.index()]);
        }
    }
    out
}

/// Analyse, size, and (when needed) insert path-balancing JTLs.
pub fn balance_netlist(netlist: &Netlist, opts: &TimingOptions) -> BalanceOutcome {
    let pre = TimingAnalysis::analyze(netlist, opts);
    let plan = plan_buffers(netlist, &pre, opts);
    if plan.is_empty() {
        let summary = summarize(&pre, 0, 0, opts);
        return BalanceOutcome {
            netlist: None,
            analysis: pre,
            summary,
        };
    }
    let balanced = apply_plan(netlist, &plan);
    let post = TimingAnalysis::analyze(&balanced, opts);
    let buffers = plan.total();
    let jj_delta = buffers as u64 * u64::from(netlist.library().jj(CellKind::Jtl));
    let summary = summarize(&post, buffers, jj_delta, opts);
    BalanceOutcome {
        netlist: Some(balanced),
        analysis: post,
        summary,
    }
}

fn summarize(
    analysis: &TimingAnalysis,
    buffers: usize,
    jj_delta: u64,
    opts: &TimingOptions,
) -> TimingSummary {
    TimingSummary {
        critical_path_ps: analysis.critical_path_ps,
        worst_slack_ps: analysis.worst_slack_ps,
        worst_skew_ps: analysis.worst_skew_ps,
        buffers_inserted: buffers,
        jj_delta,
        tolerance_ps: analysis.tolerance_ps,
        balance: opts.balance.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_cells::CellLibrary;

    /// `(a & b) & c`: the `c` leg trails the LA leg by 7.2 ps at the
    /// second join — more than one JTL quantum, so Full mode pads it.
    fn deep_skew() -> Netlist {
        let mut n = Netlist::new("deep", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let la1 = n.add_cell(CellKind::La, &[a, b])[0];
        let la2 = n.add_cell(CellKind::La, &[la1, c])[0];
        n.add_output("y", la2);
        n
    }

    #[test]
    fn full_balance_pads_and_clears_slack() {
        let n = deep_skew();
        let opts = TimingOptions::default();
        let out = balance_netlist(&n, &opts);
        // 7.2 ps skew → one 4.6 ps JTL, residual 2.6 ps < tolerance.
        assert_eq!(out.summary.buffers_inserted, 1);
        assert_eq!(out.summary.jj_delta, 2);
        assert!(out.summary.worst_slack_ps >= 0.0);
        assert!((out.summary.worst_skew_ps - 2.6).abs() < 1e-9);
        let balanced = out.netlist.expect("buffers were inserted");
        assert_eq!(balanced.count_kind(CellKind::Jtl), 1);
        // Critical path is preserved: padding never overshoots.
        let pre = TimingAnalysis::analyze(&n, &opts);
        assert_eq!(out.summary.critical_path_ps, pre.critical_path_ps);
        // The original cells are an exact prefix, ports unchanged.
        for (i, cell) in n.cells().iter().enumerate() {
            assert_eq!(balanced.cells()[i].kind, cell.kind);
        }
        assert_eq!(balanced.outputs().len(), 1);
        assert_eq!(balanced.outputs()[0].name, "y");
        balanced.assert_connected();
    }

    #[test]
    fn balancing_is_idempotent() {
        let n = deep_skew();
        let opts = TimingOptions::default();
        let first = balance_netlist(&n, &opts);
        let again = balance_netlist(first.netlist.as_ref().unwrap(), &opts);
        assert_eq!(again.summary.buffers_inserted, 0);
        assert!(again.netlist.is_none());
    }

    #[test]
    fn budget_mode_pads_less() {
        let mut n = Netlist::new("wide", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        // Four JTLs on one leg: 18.4 ps of skew at the join.
        let mut long = a;
        for _ in 0..4 {
            long = n.add_cell(CellKind::Jtl, &[long])[0];
        }
        let la = n.add_cell(CellKind::La, &[long, b])[0];
        n.add_output("y", la);
        let full = balance_netlist(&n, &TimingOptions::default());
        assert_eq!(full.summary.buffers_inserted, 4);
        let budget = balance_netlist(
            &n,
            &TimingOptions {
                balance: BalanceMode::Budget(10.0),
                tolerance_ps: None,
            },
        );
        // Only the skew beyond 10 ps is padded away: ceil(8.4/4.6) = 2.
        assert_eq!(budget.summary.buffers_inserted, 2);
        assert!(budget.summary.worst_skew_ps <= 10.0 + 1e-9);
        assert!(budget.summary.worst_slack_ps >= 0.0);
        let off = balance_netlist(
            &n,
            &TimingOptions {
                balance: BalanceMode::Off,
                tolerance_ps: None,
            },
        );
        assert_eq!(off.summary.buffers_inserted, 0);
        assert!(off.netlist.is_none());
        assert!(off.summary.worst_slack_ps < 0.0);
    }

    #[test]
    fn rail_pairs_are_aligned() {
        let mut n = Netlist::new("rails", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let s = n.add_cell(CellKind::Splitter, &[a]);
        let mut slow = s[1];
        for _ in 0..2 {
            slow = n.add_cell(CellKind::Jtl, &[slow])[0];
        }
        n.add_output("y_p", s[0]);
        n.add_output("y_n", slow);
        let out = balance_netlist(&n, &TimingOptions::default());
        assert_eq!(out.summary.buffers_inserted, 2);
        assert!(out.summary.worst_slack_ps >= 0.0);
        let balanced = out.netlist.unwrap();
        assert_eq!(balanced.count_kind(CellKind::Jtl), 4);
    }

    #[test]
    fn trigger_clocked_set_survives_rebuild() {
        let mut n = Netlist::new("trig", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let d = n.add_cell(CellKind::Droc { preload: true }, &[a]);
        n.set_trigger_clocked(xsfq_netlist::CellId::from_index(0));
        let la1 = n.add_cell(CellKind::La, &[d[0], b])[0];
        let la2 = n.add_cell(CellKind::La, &[la1, d[1]])[0];
        n.add_output("y", la2);
        let out = balance_netlist(&n, &TimingOptions::default());
        let balanced = out.netlist.expect("skewed joins get padded");
        assert_eq!(balanced.trigger_clocked(), n.trigger_clocked());
        assert!(out.summary.worst_slack_ps >= 0.0);
    }
}
