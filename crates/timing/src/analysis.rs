//! Levelized arrival/required/slack sweeps over a netlist.
//!
//! See the crate docs for the timing model. The forward sweep visits the
//! levels in order and each level's cells in ascending cell order; a cell
//! reads only the arrivals of earlier levels.

use xsfq_cells::CellKind;
use xsfq_netlist::{Driver, NetId, Netlist};

use crate::TimingOptions;

/// What a timing endpoint is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EndpointKind {
    /// A primary output port.
    Output,
    /// A data input of a clocked cell (DROC rank boundary).
    ClockedInput,
}

/// Arrival window and slack at one capture point.
#[derive(Clone, Debug, PartialEq)]
pub struct EndpointTiming {
    /// Port name, or `cell<idx>/<KIND>/d<pin>` for clocked-cell inputs.
    pub name: String,
    /// Endpoint family.
    pub kind: EndpointKind,
    /// Net index the endpoint observes.
    pub net: usize,
    /// Earliest arrival, ps.
    pub arrival_min_ps: f64,
    /// Latest arrival, ps.
    pub arrival_max_ps: f64,
    /// `critical_path_ps − arrival_max_ps` (≥ 0 by construction).
    pub slack_ps: f64,
}

/// Latest-arrival skew between the two inputs of a join cell.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinTiming {
    /// Cell index.
    pub cell: usize,
    /// Cell kind.
    pub kind: CellKind,
    /// Latest arrival per input pin, ps.
    pub arrival_ps: [f64; 2],
    /// `|arrival_ps[0] − arrival_ps[1]|`.
    pub skew_ps: f64,
}

/// Latest-arrival skew between a dual-rail `_p`/`_n` output-port pair.
#[derive(Clone, Debug, PartialEq)]
pub struct RailPairTiming {
    /// Port base name (without the `_p`/`_n` suffix).
    pub base: String,
    /// Output-port indices (positive rail, negative rail).
    pub ports: [usize; 2],
    /// Latest arrival per rail, ps.
    pub arrival_ps: [f64; 2],
    /// `|arrival_ps[0] − arrival_ps[1]|`.
    pub skew_ps: f64,
}

/// Full result of a timing sweep.
#[derive(Clone, Debug)]
pub struct TimingAnalysis {
    arrival_min: Vec<f64>,
    arrival_max: Vec<f64>,
    required: Vec<f64>,
    resolved: Vec<bool>,
    num_levels: usize,
    /// Latest arrival over all endpoints, ps (0 for endpoint-free designs).
    pub critical_path_ps: f64,
    /// Largest skew over joins and rail pairs, ps.
    pub worst_skew_ps: f64,
    /// Minimum over endpoint slack and skew slack (`allowed − skew`), ps.
    pub worst_slack_ps: f64,
    /// Skew tolerance the sweep ran with, ps.
    pub tolerance_ps: f64,
    /// Skew allowance used for slack (tolerance, or the budget if larger).
    pub allowed_skew_ps: f64,
    /// Capture points, output ports first (port order), then clocked-cell
    /// data inputs in cell order.
    pub endpoints: Vec<EndpointTiming>,
    /// All cells with ≥ 2 resolved inputs, in cell order.
    pub joins: Vec<JoinTiming>,
    /// Adjacent `_p`/`_n` output-port pairs, in port order.
    pub rail_pairs: Vec<RailPairTiming>,
}

/// Clock-to-Q launch delay for output `pin` of a clocked cell.
fn clock_to_q(netlist: &Netlist, kind: CellKind, pin: usize) -> f64 {
    match kind {
        CellKind::Droc { .. } => netlist.library().droc_delay(pin == 1),
        _ => netlist.library().delay(kind),
    }
}

/// Evaluate one combinational cell's output window from the arrivals of
/// its inputs. Returns `(min, max, ok)`; `ok` is false when any input is
/// missing or unresolved (the cell's outputs then stay unresolved).
fn eval_cell(
    netlist: &Netlist,
    amin: &[f64],
    amax: &[f64],
    resolved: &[bool],
    ci: usize,
) -> (f64, f64, bool) {
    let cell = &netlist.cells()[ci];
    let delay = netlist.library().delay(cell.kind);
    // Input-free cells (DC-to-SFQ) launch at t = 0.
    let (mut lo, mut hi) = (0.0f64, 0.0f64);
    for (k, &n) in cell.inputs.iter().enumerate() {
        let i = n.index();
        if i >= resolved.len() || !resolved[i] {
            return (0.0, 0.0, false);
        }
        if k == 0 {
            lo = amin[i];
            hi = amax[i];
        } else {
            lo = lo.min(amin[i]);
            hi = hi.max(amax[i]);
        }
    }
    (lo + delay, hi + delay, true)
}

impl TimingAnalysis {
    /// Run the arrival, required-time and slack sweeps over `netlist`.
    pub fn analyze(netlist: &Netlist, opts: &TimingOptions) -> TimingAnalysis {
        let ncells = netlist.cells().len();
        let nnets = netlist.num_nets();

        // --- Levelize combinational cells (Kahn waves). Clocked cells are
        // launch points, not members of a level; cells with dangling pins
        // or on combinational cycles never levelize and stay unresolved.
        let mut pending: Vec<u32> = vec![0; ncells];
        let mut dead: Vec<bool> = vec![false; ncells];
        let mut listeners: Vec<Vec<u32>> = vec![Vec::new(); nnets];
        for (ci, cell) in netlist.cells().iter().enumerate() {
            if cell.kind.is_clocked() {
                continue;
            }
            for &n in cell.inputs.iter() {
                if n.index() >= nnets {
                    dead[ci] = true;
                    continue;
                }
                if let Driver::Cell { cell: d, .. } = netlist.driver(n) {
                    if !netlist.cells()[d.index()].kind.is_clocked() {
                        pending[ci] += 1;
                        listeners[n.index()].push(ci as u32);
                    }
                }
            }
        }
        let mut wave: Vec<u32> = (0..ncells as u32)
            .filter(|&ci| {
                let cell = &netlist.cells()[ci as usize];
                !cell.kind.is_clocked() && !dead[ci as usize] && pending[ci as usize] == 0
            })
            .collect();
        let mut levels: Vec<Vec<u32>> = Vec::new();
        while !wave.is_empty() {
            let mut next: Vec<u32> = Vec::new();
            for &ci in &wave {
                for &out in netlist.cells()[ci as usize].outputs.iter() {
                    for &sink in &listeners[out.index()] {
                        pending[sink as usize] -= 1;
                        if pending[sink as usize] == 0 && !dead[sink as usize] {
                            next.push(sink);
                        }
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            levels.push(std::mem::replace(&mut wave, next));
        }

        // --- Forward sweep: seed launch points, then evaluate the levels in
        // order.
        let mut amin = vec![0.0f64; nnets];
        let mut amax = vec![0.0f64; nnets];
        let mut resolved = vec![false; nnets];
        for port in netlist.inputs() {
            resolved[port.net.index()] = true;
        }
        for cell in netlist.cells() {
            if !cell.kind.is_clocked() {
                continue;
            }
            for (pin, &out) in cell.outputs.iter().enumerate() {
                let d = clock_to_q(netlist, cell.kind, pin);
                amin[out.index()] = d;
                amax[out.index()] = d;
                resolved[out.index()] = true;
            }
        }
        for &ci in levels.iter().flatten() {
            let (lo, hi, ok) = eval_cell(netlist, &amin, &amax, &resolved, ci as usize);
            if !ok {
                continue;
            }
            for &out in netlist.cells()[ci as usize].outputs.iter() {
                amin[out.index()] = lo;
                amax[out.index()] = hi;
                resolved[out.index()] = true;
            }
        }

        // --- Endpoints and the critical path.
        let mut raw_endpoints: Vec<(String, EndpointKind, usize)> = Vec::new();
        for port in netlist.outputs() {
            let i = port.net.index();
            if i < nnets && resolved[i] {
                raw_endpoints.push((port.name.clone(), EndpointKind::Output, i));
            }
        }
        for (ci, cell) in netlist.cells().iter().enumerate() {
            if !cell.kind.is_clocked() {
                continue;
            }
            for (pin, &n) in cell.inputs.iter().enumerate() {
                let i = n.index();
                if i < nnets && resolved[i] {
                    raw_endpoints.push((
                        format!("cell{ci}/{}/d{pin}", cell.kind),
                        EndpointKind::ClockedInput,
                        i,
                    ));
                }
            }
        }
        let critical = raw_endpoints
            .iter()
            .map(|&(_, _, net)| amax[net])
            .fold(0.0f64, f64::max);

        // --- Backward required-time sweep (`min` updates are exact and
        // order-independent).
        let mut required = vec![f64::INFINITY; nnets];
        for &(_, _, net) in &raw_endpoints {
            required[net] = required[net].min(critical);
        }
        for level in levels.iter().rev() {
            for &ci in level.iter().rev() {
                let cell = &netlist.cells()[ci as usize];
                let delay = netlist.library().delay(cell.kind);
                let rq = cell
                    .outputs
                    .iter()
                    .map(|n| required[n.index()])
                    .fold(f64::INFINITY, f64::min);
                if !rq.is_finite() {
                    continue;
                }
                for &n in cell.inputs.iter() {
                    if n.index() < nnets {
                        required[n.index()] = required[n.index()].min(rq - delay);
                    }
                }
            }
        }

        let endpoints: Vec<EndpointTiming> = raw_endpoints
            .into_iter()
            .map(|(name, kind, net)| EndpointTiming {
                name,
                kind,
                net,
                arrival_min_ps: amin[net],
                arrival_max_ps: amax[net],
                slack_ps: critical - amax[net],
            })
            .collect();

        // --- Joins and dual-rail output pairs.
        let mut joins: Vec<JoinTiming> = Vec::new();
        for (ci, cell) in netlist.cells().iter().enumerate() {
            if cell.inputs.len() < 2 {
                continue;
            }
            let (a, b) = (cell.inputs[0].index(), cell.inputs[1].index());
            if a >= nnets || b >= nnets || !resolved[a] || !resolved[b] {
                continue;
            }
            joins.push(JoinTiming {
                cell: ci,
                kind: cell.kind,
                arrival_ps: [amax[a], amax[b]],
                skew_ps: (amax[a] - amax[b]).abs(),
            });
        }
        let mut rail_pairs: Vec<RailPairTiming> = Vec::new();
        let outs = netlist.outputs();
        for (pi, port) in outs.iter().enumerate() {
            let Some(base) = port.name.strip_suffix("_p") else {
                continue;
            };
            let Some(twin) = outs.get(pi + 1).filter(|q| q.name == format!("{base}_n")) else {
                continue;
            };
            let (a, b) = (port.net.index(), twin.net.index());
            if a >= nnets || b >= nnets || !resolved[a] || !resolved[b] {
                continue;
            }
            rail_pairs.push(RailPairTiming {
                base: base.to_string(),
                ports: [pi, pi + 1],
                arrival_ps: [amax[a], amax[b]],
                skew_ps: (amax[a] - amax[b]).abs(),
            });
        }

        let worst_skew = joins
            .iter()
            .map(|j| j.skew_ps)
            .chain(rail_pairs.iter().map(|r| r.skew_ps))
            .fold(0.0f64, f64::max);
        let tolerance = opts.tolerance_for(netlist);
        let allowed = opts.allowed_skew_for(netlist);
        let mut worst_slack = f64::INFINITY;
        for e in &endpoints {
            worst_slack = worst_slack.min(e.slack_ps);
        }
        if !joins.is_empty() || !rail_pairs.is_empty() {
            worst_slack = worst_slack.min(allowed - worst_skew);
        }
        if !worst_slack.is_finite() {
            worst_slack = 0.0;
        }

        TimingAnalysis {
            arrival_min: amin,
            arrival_max: amax,
            required,
            resolved,
            num_levels: levels.len(),
            critical_path_ps: critical,
            worst_skew_ps: worst_skew,
            worst_slack_ps: worst_slack,
            tolerance_ps: tolerance,
            allowed_skew_ps: allowed,
            endpoints,
            joins,
            rail_pairs,
        }
    }

    /// Arrival window `(min, max)` of a net, if the sweep resolved it.
    pub fn arrival(&self, net: NetId) -> Option<(f64, f64)> {
        let i = net.index();
        (i < self.resolved.len() && self.resolved[i])
            .then(|| (self.arrival_min[i], self.arrival_max[i]))
    }

    /// Per-net slack `required − arrival_max`, if resolved and constrained.
    pub fn slack(&self, net: NetId) -> Option<f64> {
        let i = net.index();
        (i < self.resolved.len() && self.resolved[i] && self.required[i].is_finite())
            .then(|| self.required[i] - self.arrival_max[i])
    }

    /// Number of combinational levels the sweep visited.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BalanceMode, TimingOptions};
    use xsfq_cells::CellLibrary;

    /// `(a & b) | c` with an extra JTL on the `c` leg: LA then FA.
    fn skewed_netlist() -> Netlist {
        let mut n = Netlist::new("skewed", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let la = n.add_cell(CellKind::La, &[a, b])[0];
        let j = n.add_cell(CellKind::Jtl, &[c])[0];
        let fa = n.add_cell(CellKind::Fa, &[la, j])[0];
        n.add_output("y", fa);
        n
    }

    #[test]
    fn arrival_windows_follow_table2_delays() {
        let n = skewed_netlist();
        let t = TimingAnalysis::analyze(&n, &TimingOptions::default());
        // LA = 7.2, JTL = 4.6, FA = 9.5 (abutted library).
        let y = n.outputs()[0].net;
        let (lo, hi) = t.arrival(y).unwrap();
        assert!((hi - (7.2 + 9.5)).abs() < 1e-9, "hi = {hi}");
        assert!((lo - (4.6 + 9.5)).abs() < 1e-9, "lo = {lo}");
        assert!((t.critical_path_ps - 16.7).abs() < 1e-9);
        // The FA join sees 7.2 vs 4.6 → 2.6 ps skew, inside one JTL.
        assert_eq!(t.joins.len(), 2); // LA itself joins a/b at zero skew
        assert!((t.worst_skew_ps - 2.6).abs() < 1e-9);
        assert!(t.worst_slack_ps >= 0.0);
    }

    #[test]
    fn skew_beyond_tolerance_goes_negative() {
        let n = skewed_netlist();
        let opts = TimingOptions {
            balance: BalanceMode::Off,
            tolerance_ps: Some(1.0),
        };
        let t = TimingAnalysis::analyze(&n, &opts);
        assert!((t.worst_slack_ps - (1.0 - 2.6)).abs() < 1e-9);
    }

    #[test]
    fn endpoint_slack_and_per_net_slack_agree() {
        let n = skewed_netlist();
        let t = TimingAnalysis::analyze(&n, &TimingOptions::default());
        let y = n.outputs()[0].net;
        assert_eq!(t.endpoints.len(), 1);
        assert!((t.endpoints[0].slack_ps).abs() < 1e-9);
        assert!(t.slack(y).unwrap().abs() < 1e-9);
    }

    #[test]
    fn droc_rails_launch_asymmetrically() {
        let mut n = Netlist::new("droc", CellLibrary::xsfq_abutted());
        let d = n.add_input("d");
        let q = n.add_cell(CellKind::Droc { preload: false }, &[d]);
        n.add_output("qp", q[0]);
        n.add_output("qn", q[1]);
        let t = TimingAnalysis::analyze(&n, &TimingOptions::default());
        assert!((t.arrival(q[0]).unwrap().1 - 6.7).abs() < 1e-9);
        assert!((t.arrival(q[1]).unwrap().1 - 9.5).abs() < 1e-9);
        // The data input is an endpoint (capture at the rank boundary).
        assert!(t
            .endpoints
            .iter()
            .any(|e| e.kind == EndpointKind::ClockedInput));
    }

    #[test]
    fn combinational_cycle_stays_total() {
        let mut n = Netlist::new("cycle", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let (c1, o1) = n.add_cell_deferred(CellKind::La);
        let (c2, o2) = n.add_cell_deferred(CellKind::La);
        n.connect_input(c1, 0, a);
        n.connect_input(c1, 1, o2[0]);
        n.connect_input(c2, 0, o1[0]);
        n.connect_input(c2, 1, a);
        n.add_output("y", o2[0]);
        let t = TimingAnalysis::analyze(&n, &TimingOptions::default());
        assert!(t.arrival(o1[0]).is_none());
        assert!(t.endpoints.is_empty());
        assert_eq!(t.critical_path_ps, 0.0);
    }
}
