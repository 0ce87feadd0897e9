//! The X011 timing check: residual dual-rail arrival skew.
//!
//! Runs the `xsfq_timing` engine on the calling thread, like every other
//! check in this crate, and reports every xSFQ join cell and dual-rail
//! output pair whose latest-arrival skew exceeds the given allowance.
//! Intended for netlists the balancer already processed: on those, a
//! finding means the balancing promise is broken, which is why the flow
//! runs this at `Stage` level only after `BalanceMode::Full`.

use xsfq_netlist::Netlist;
use xsfq_timing::{BalanceMode, TimingAnalysis, TimingOptions};

use crate::diag::{Code, Diag, Site};

/// Audit residual arrival skew: one `X011` per join cell or `_p`/`_n`
/// output pair with skew beyond `allowed_skew_ps`.
///
/// Clocked RSFQ joins are exempt (their inputs align on the clock, not on
/// JTL padding), as are joins with unresolved arrivals (dangling pins and
/// combinational cycles — those are X001/X003 findings, not timing ones).
/// Like every check in this crate the function is total: it never panics,
/// whatever the netlist looks like.
pub fn lint_timing(netlist: &Netlist, allowed_skew_ps: f64) -> Vec<Diag> {
    let opts = TimingOptions {
        balance: BalanceMode::Off,
        tolerance_ps: Some(allowed_skew_ps),
    };
    let analysis = TimingAnalysis::analyze(netlist, &opts);
    // Float guard: arrivals sum delays in slightly different orders on the
    // two legs of a join, so exact-tolerance skew must not flag.
    let limit = allowed_skew_ps + 1e-9;
    let mut diags = Vec::new();
    for join in &analysis.joins {
        if join.kind.is_rsfq() || join.skew_ps <= limit {
            continue;
        }
        diags.push(Diag::new(
            Code::X011,
            Site::Cell(join.cell),
            format!(
                "arrival skew {:.2} ps at {} exceeds the {:.2} ps tolerance \
                 (inputs arrive at {:.2} / {:.2} ps)",
                join.skew_ps, join.kind, allowed_skew_ps, join.arrival_ps[0], join.arrival_ps[1],
            ),
        ));
    }
    for pair in &analysis.rail_pairs {
        if pair.skew_ps <= limit {
            continue;
        }
        diags.push(Diag::new(
            Code::X011,
            Site::Port(format!("{}_p", pair.base)),
            format!(
                "dual-rail output `{0}_p`/`{0}_n` arrivals are {1:.2} ps apart, \
                 beyond the {2:.2} ps tolerance ({3:.2} vs {4:.2} ps)",
                pair.base, pair.skew_ps, allowed_skew_ps, pair.arrival_ps[0], pair.arrival_ps[1],
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_cells::{CellKind, CellLibrary};
    use xsfq_timing::balance_netlist;

    #[test]
    fn skewed_join_flags_and_balancing_clears_it() {
        let mut n = Netlist::new("skew", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let la1 = n.add_cell(CellKind::La, &[a, b])[0];
        let la2 = n.add_cell(CellKind::La, &[la1, c])[0];
        n.add_output("y", la2);
        let tol = n.library().delay(CellKind::Jtl);
        let diags = lint_timing(&n, tol);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::X011);
        assert_eq!(diags[0].site, Site::Cell(1));
        let balanced = balance_netlist(&n, &TimingOptions::default())
            .netlist
            .expect("the 7.2 ps skew gets a pad");
        assert!(lint_timing(&balanced, tol).is_empty());
    }
}
