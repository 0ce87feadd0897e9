//! Static timing analysis and slack-matching buffer insertion for mapped
//! xSFQ netlists.
//!
//! The synthesis flow ends at a physical netlist; fabrication needs more: a
//! statement of how late every pulse can arrive, proof that dual-rail pulse
//! pairs stay aligned through every join, and the JTL padding that makes
//! them align. This crate supplies all three:
//!
//! * [`TimingAnalysis`] — a levelized static timing engine over a
//!   [`Netlist`], loading per-cell delays from the netlist's own
//!   [`CellLibrary`](xsfq_cells::CellLibrary) (`delay_ps`, the paper's
//!   Table 2 values — the same numbers `cells::liberty` exports). It
//!   computes longest/shortest arrival windows per net, a backward
//!   required-time sweep, per-net and per-endpoint slack, join-input skew,
//!   and dual-rail output skew. Like every stage of a design's flow, the
//!   sweeps run on the calling thread.
//! * [`balance_netlist`] — an LP-shaped slack-matching pass. Because every
//!   physical net has a single sink, the LP's difference constraints
//!   decouple per arc and the optimum is the longest-path solution: each
//!   early arc gets `floor(skew / jtl_delay)` JTL buffers, never
//!   overshooting, so the critical path is preserved while residual skew
//!   drops below one JTL delay. [`BalanceMode`] is the area–delay knob:
//!   `Full` pads every join and dual-rail output pair, `Budget(ps)` only
//!   pads skew beyond the given budget (fewer JJs, looser alignment),
//!   `Off` analyses without inserting anything.
//! * [`artifacts`] — report writers for the `xsfq-time` CLI and the flow's
//!   Timing stage: an ASCII report with a slack histogram, per-endpoint
//!   CSV, a JSON summary, and SDC constraints.
//!
//! # Timing model
//!
//! Launch points are primary inputs (arrive at t = 0) and clocked-cell
//! outputs (arrive at clock-to-Q:
//! [`CellLibrary::droc_delay`](xsfq_cells::CellLibrary::droc_delay) per
//! rail for DROC — the Qp/Qn asymmetry is a real skew source the balancer
//! must absorb — and `delay_ps` for clocked RSFQ cells). Capture points are
//! primary outputs and clocked-cell data inputs. Combinational cells
//! propagate conservative windows: earliest-in + delay for the window
//! minimum, latest-in + delay for the maximum (for first-arrival cells
//! like FA and the merger this over-approximates the window, which is the
//! safe direction for skew checking). Cells on combinational cycles never
//! levelize; their nets stay unresolved and are excluded from endpoints
//! and joins, keeping the engine total on corrupt input — the property
//! `xsfq-lint`'s X011 check relies on.
//!
//! # Slack and skew
//!
//! Every endpoint's required time is the critical path (the latest
//! arrival over all endpoints), so endpoint slack is ≥ 0 by construction
//! and the binding constraint is **skew slack**: `allowed − skew` at every
//! 2-input join and every `name_p`/`name_n` output pair, where `allowed`
//! is the skew tolerance (default: one JTL delay; `Budget(ps)` raises it
//! to the budget when larger). [`TimingAnalysis::worst_slack_ps`] is the
//! minimum over both families — negative exactly when some pulse pair is
//! further apart than the tolerance, and guaranteed ≥ 0 after
//! [`BalanceMode::Full`] balancing because floor quantization leaves
//! residual skew strictly below one JTL delay.
//!
//! # Report formats
//!
//! * **Text** ([`artifacts::render_report`]): critical path, worst
//!   slack/skew, buffer count, and a 10-bin ASCII slack histogram over
//!   joins and rail pairs.
//! * **CSV** ([`artifacts::render_endpoint_csv`]): header
//!   `endpoint,arrival_min_ps,arrival_max_ps,required_ps,slack_ps`, one
//!   row per endpoint (output ports by name, clocked-cell data inputs as
//!   `cell<idx>/<KIND>/d<pin>`).
//! * **JSON** ([`artifacts::render_json_report`], schema
//!   `xsfq-time-report/1`): the [`TimingSummary`] object plus an
//!   `endpoints` array mirroring the CSV.
//! * **SDC** ([`artifacts::render_sdc`], dialect `xsfq-time sdc/1`): ps
//!   units; a virtual clock `vclk` whose period is the critical path;
//!   `set_max_delay`/`set_min_delay` per output port pinning the achieved
//!   arrival window (the analysis result *becomes* the constraint, the
//!   hbcn-constrainer convention); `set_output_delay -clock vclk` rows
//!   carrying endpoint slack. Comment lines carry design/library
//!   provenance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod artifacts;
pub mod balance;

pub use analysis::{EndpointKind, EndpointTiming, JoinTiming, RailPairTiming, TimingAnalysis};
pub use balance::{balance_netlist, BalanceOutcome};

use xsfq_netlist::writers::Json;
use xsfq_netlist::Netlist;

/// Area–delay knob for the slack-matching pass.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum BalanceMode {
    /// Analyse only; insert nothing.
    Off,
    /// Pad only the skew that exceeds the given budget (ps): cheaper in
    /// JJs, residual skew up to `max(budget, tolerance)`.
    Budget(f64),
    /// Pad every join and dual-rail output pair down to sub-JTL residual
    /// skew; worst slack is ≥ 0 afterwards.
    Full,
}

impl BalanceMode {
    /// Stable lowercase name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            BalanceMode::Off => "off",
            BalanceMode::Budget(_) => "budget",
            BalanceMode::Full => "full",
        }
    }
}

/// Configuration for the timing stage.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingOptions {
    /// Buffer-insertion mode.
    pub balance: BalanceMode,
    /// Skew tolerance in ps; `None` means one JTL delay of the netlist's
    /// library (4.6 ps abutted, 17.0 ps PTL).
    pub tolerance_ps: Option<f64>,
}

impl Default for TimingOptions {
    fn default() -> Self {
        TimingOptions {
            balance: BalanceMode::Full,
            tolerance_ps: None,
        }
    }
}

impl TimingOptions {
    /// The effective skew tolerance for a given netlist.
    pub fn tolerance_for(&self, netlist: &Netlist) -> f64 {
        self.tolerance_ps
            .unwrap_or_else(|| netlist.library().delay(xsfq_cells::CellKind::Jtl))
    }

    /// The skew allowance used for slack. With balancing off this is the
    /// raw tolerance (pure analysis). With balancing on, JTL padding
    /// cannot align tighter than one JTL quantum, so the allowance clamps
    /// below to the library's JTL delay — and in [`BalanceMode::Budget`]
    /// mode residual skew up to the budget is the *requested* trade-off,
    /// not a violation, so the budget raises it further.
    pub fn allowed_skew_for(&self, netlist: &Netlist) -> f64 {
        let tol = self.tolerance_for(netlist);
        let jtl = netlist.library().delay(xsfq_cells::CellKind::Jtl);
        match self.balance {
            BalanceMode::Off => tol,
            BalanceMode::Budget(b) => tol.max(b).max(jtl),
            BalanceMode::Full => tol.max(jtl),
        }
    }
}

/// Compact result of the timing stage, carried by `FlowReport` and the
/// daemon verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingSummary {
    /// Latest arrival over all endpoints, ps.
    pub critical_path_ps: f64,
    /// Minimum over endpoint slack and skew slack, ps (negative when some
    /// pulse pair exceeds the allowed skew).
    pub worst_slack_ps: f64,
    /// Largest arrival skew over joins and dual-rail output pairs, ps.
    pub worst_skew_ps: f64,
    /// JTL buffers inserted by the balancer.
    pub buffers_inserted: usize,
    /// JJ cost of the inserted buffers.
    pub jj_delta: u64,
    /// Skew tolerance the analysis ran with, ps.
    pub tolerance_ps: f64,
    /// Balance mode name (`off` / `budget` / `full`).
    pub balance: &'static str,
}

/// The summary as a JSON object (stable key order, a schema-less fragment
/// embedded in `xsfq-flow-report/2` and `xsfq-time-report/1`).
impl From<&TimingSummary> for Json {
    fn from(t: &TimingSummary) -> Json {
        Json::object([
            ("critical_path_ps", t.critical_path_ps.into()),
            ("worst_slack_ps", t.worst_slack_ps.into()),
            ("worst_skew_ps", t.worst_skew_ps.into()),
            ("buffers_inserted", t.buffers_inserted.into()),
            ("jj_delta", t.jj_delta.into()),
            ("tolerance_ps", t.tolerance_ps.into()),
            ("balance", t.balance.into()),
        ])
    }
}
