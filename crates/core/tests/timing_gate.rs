//! CI gate for the timing backend: slack-matching buffer insertion must be
//! invisible to the function and the untimed flow must be invisible to the
//! bytes.
//!
//! * the full EPFL suite balances under `BalanceMode::Full` with every
//!   balanced netlist sweep-CEC-equivalent to its unbalanced input,
//!   non-negative worst slack, an unchanged critical path, and a clean
//!   `X011` audit;
//! * a flow with timing unset is byte-identical — Verilog and report JSON —
//!   to the pre-timing flow (no `timing` key, no stage entry);
//! * a proptest sweeps random DAGs across polarity modes and balance modes,
//!   asserting function, ports and non-JTL structure survive balancing;
//! * golden `analyse` numbers for three EPFL designs pin the engine's
//!   arithmetic (the values the CSV/SDC artifacts print).
//!
//! Run in CI under both the default pool and `XSFQ_THREADS=1`, like
//! `lint_gate`.

use proptest::prelude::*;

use xsfq_aig::opt::Effort;
use xsfq_aig::pass::Script;
use xsfq_aig::{Aig, Lit};
use xsfq_cells::CellKind;
use xsfq_core::verify::{netlist_to_comb_aig, prove_equivalent};
use xsfq_core::{BalanceMode, CheckLevel, PolarityMode, SynthesisFlow, TimingOptions};
use xsfq_netlist::writers::write_verilog;
use xsfq_netlist::Netlist;
use xsfq_timing::{balance_netlist, TimingAnalysis};

fn verilog(netlist: &Netlist) -> Vec<u8> {
    let mut buf = Vec::new();
    write_verilog(netlist, &mut buf).unwrap();
    buf
}

/// Balanced output must compute the same function as its input — JTLs are
/// identities in the sweep model — and keep everything except JTL count.
fn assert_balancing_invariants(name: &str, before: &Netlist, after: &Netlist) {
    assert!(
        prove_equivalent(
            &netlist_to_comb_aig(before).unwrap(),
            &netlist_to_comb_aig(after).unwrap(),
        ),
        "{name}: balancing changed the function"
    );
    for kind in [
        CellKind::La,
        CellKind::Fa,
        CellKind::Splitter,
        CellKind::Merger,
        CellKind::DcToSfq,
    ] {
        assert_eq!(
            before.count_kind(kind),
            after.count_kind(kind),
            "{name}: balancing changed the {kind:?} count"
        );
    }
    assert!(
        after.count_kind(CellKind::Jtl) >= before.count_kind(CellKind::Jtl),
        "{name}: balancing removed JTLs"
    );
    assert_eq!(before.inputs(), after.inputs(), "{name}: inputs changed");
    assert_eq!(
        before.outputs().len(),
        after.outputs().len(),
        "{name}: output count changed"
    );
    for (a, b) in before.outputs().iter().zip(after.outputs()) {
        assert_eq!(a.name, b.name, "{name}: output names changed");
    }
    after.assert_connected();
}

/// Every EPFL design balances fully: function preserved, worst slack ≥ 0,
/// critical path untouched (floor quantization never overshoots), and the
/// X011 audit comes back clean.
#[test]
fn epfl_suite_balances_clean_under_full() {
    let flow = SynthesisFlow::new().script(Script::preset(Effort::Fast));
    let opts = TimingOptions::default();
    for b in xsfq_benchmarks::all()
        .iter()
        .filter(|b| b.suite == xsfq_benchmarks::Suite::Epfl)
    {
        let aig = (b.build)();
        let result = flow
            .run(&aig)
            .unwrap_or_else(|e| panic!("{}: flow failed: {e}", b.name));
        let before = &result.mapped.physical;
        let outcome = balance_netlist(before, &opts);
        assert!(
            outcome.summary.worst_slack_ps >= 0.0,
            "{}: negative worst slack {} after full balancing",
            b.name,
            outcome.summary.worst_slack_ps
        );
        // Floor quantization never overshoots, so the critical path is
        // preserved — up to float associativity: padded paths accumulate
        // their JTL delays one addition at a time.
        let pre = TimingAnalysis::analyze(before, &opts);
        assert!(
            (outcome.summary.critical_path_ps - pre.critical_path_ps).abs() < 1e-6,
            "{}: balancing moved the critical path ({} -> {})",
            b.name,
            pre.critical_path_ps,
            outcome.summary.critical_path_ps
        );
        let after = outcome.netlist.as_ref().unwrap_or(before);
        assert_balancing_invariants(b.name, before, after);
        let allowed = opts.allowed_skew_for(after);
        let diags = xsfq_lint::lint_timing(after, allowed);
        assert!(
            diags.is_empty(),
            "{}: residual skew after full balancing: {}",
            b.name,
            xsfq_lint::render_text(&diags)
        );
    }
}

/// Timing off is the default, adds no stage, no report key, and produces
/// bytes identical to a flow that never heard of timing.
#[test]
fn untimed_flow_is_byte_identical_and_stage_free() {
    assert!(
        SynthesisFlow::new().options().timing.is_none(),
        "default flow must not pay for timing"
    );
    let aig = xsfq_benchmarks::by_name("int2float").unwrap();
    let untimed = SynthesisFlow::new()
        .script(Script::preset(Effort::Fast))
        .run(&aig)
        .unwrap();
    assert!(untimed.report.timing.is_none());
    let json = untimed.report.to_json();
    assert!(
        !json.contains("\"timing\""),
        "untimed report JSON must not carry a timing key: {json}"
    );
    assert!(
        !json.contains("\"stage\":\"timing\""),
        "untimed report must not record a timing stage: {json}"
    );

    // The timed flow differs from the untimed one only by inserted JTLs and
    // the extra report fields.
    let timed = SynthesisFlow::new()
        .script(Script::preset(Effort::Fast))
        .check(CheckLevel::Stage)
        .timing(TimingOptions::default())
        .run(&aig)
        .unwrap();
    let summary = timed.report.timing.as_ref().expect("timed report summary");
    assert!(summary.worst_slack_ps >= 0.0);
    assert!(timed.report.to_json().contains("\"timing\":{"));
    assert!(timed
        .report
        .stages
        .iter()
        .any(|s| s.stage.name() == "timing"));
    assert_balancing_invariants("int2float", untimed.netlist(), timed.netlist());
    assert_eq!(
        timed.netlist().count_kind(CellKind::Jtl),
        untimed.netlist().count_kind(CellKind::Jtl) + summary.buffers_inserted,
        "report buffer count disagrees with the netlist"
    );
}

/// Golden `analyse` numbers for three EPFL designs: the critical path and
/// skew the engine reports (balance off — pure analysis) and the padding
/// full balancing then spends. Pinned so a library or engine change that
/// silently shifts the artifacts fails loudly here.
#[test]
fn golden_epfl_analyse_reports() {
    // (design, critical_path_ps, worst_skew_ps, endpoints, joins, buffers)
    let golden = [
        ("ctrl", 56.6, 34.1, 26, 64, 93),
        ("int2float", 452.5, 360.2, 8, 240, 3157),
        ("dec", 57.3, 0.0, 256, 304, 0),
    ];
    let analyse = TimingOptions {
        balance: BalanceMode::Off,
        tolerance_ps: None,
    };
    for (name, critical, skew, endpoints, joins, buffers) in golden {
        let aig = xsfq_benchmarks::by_name(name).unwrap();
        let result = SynthesisFlow::new()
            .script(Script::preset(Effort::Fast))
            .run(&aig)
            .unwrap();
        let analysis = TimingAnalysis::analyze(&result.mapped.physical, &analyse);
        let round = |v: f64| (v * 10.0).round() / 10.0;
        assert_eq!(
            round(analysis.critical_path_ps),
            critical,
            "{name}: critical path drifted"
        );
        assert_eq!(
            round(analysis.worst_skew_ps),
            skew,
            "{name}: worst skew drifted"
        );
        assert_eq!(
            analysis.endpoints.len(),
            endpoints,
            "{name}: endpoint count drifted"
        );
        assert_eq!(analysis.joins.len(), joins, "{name}: join count drifted");
        let outcome = balance_netlist(&result.mapped.physical, &TimingOptions::default());
        assert_eq!(
            outcome.summary.buffers_inserted, buffers,
            "{name}: full-balance buffer count drifted"
        );
    }
}

/// Random DAG from a recipe of (op, operand, operand) triples — the same
/// generator as `lint_gate`, so coverage composes.
fn circuit_from_recipe(recipe: &[(u8, usize, usize)], inputs: usize) -> Aig {
    let mut g = Aig::new("rand");
    let mut pool: Vec<Lit> = (0..inputs).map(|i| g.input(format!("x{i}"))).collect();
    for &(op, i, j) in recipe {
        let a = pool[i % pool.len()];
        let b = pool[j % pool.len()];
        let lit = match op % 6 {
            0 => g.and(a, b),
            1 => g.or(a, b),
            2 => g.xor(a, b),
            3 => g.nand(a, b),
            4 => g.mux(a, b, !a),
            _ => g.xnor(a, b),
        };
        pool.push(lit);
    }
    let n = pool.len();
    g.output("o0", pool[n - 1]);
    g.output("o1", !pool[n - 2]);
    g.output("o2", pool[n / 2]);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Balancing preserves the function, the ports and the non-JTL
    /// structure of every mapped netlist, whatever the polarity mode and
    /// balance mode, and full balancing always reaches worst slack ≥ 0.
    #[test]
    fn balancing_preserves_function_and_structure(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 8..64),
        inputs in 2usize..8,
        mode_sel in 0u8..4,
        balance_sel in 0u8..3,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let mode = match mode_sel {
            0 => PolarityMode::DualRail,
            1 => PolarityMode::AllPositive,
            2 => PolarityMode::Heuristic,
            _ => PolarityMode::Exhaustive,
        };
        let balance = match balance_sel {
            0 => BalanceMode::Full,
            1 => BalanceMode::Budget(7.0),
            _ => BalanceMode::Off,
        };
        let result = SynthesisFlow::new()
            .script(Script::preset(Effort::Fast))
            .polarity(mode)
            .run(&g)
            .unwrap();
        let before = &result.mapped.physical;
        let opts = TimingOptions { balance, tolerance_ps: None };
        let outcome = balance_netlist(before, &opts);
        if balance == BalanceMode::Off {
            prop_assert!(outcome.netlist.is_none(), "Off mode must not insert");
        }
        let after = outcome.netlist.as_ref().unwrap_or(before);
        assert_balancing_invariants("rand", before, after);
        if balance == BalanceMode::Full {
            prop_assert!(
                outcome.summary.worst_slack_ps >= 0.0,
                "full balancing left negative slack {}",
                outcome.summary.worst_slack_ps
            );
        }
        // Verilog still renders (the writer walks every cell and port).
        let _ = verilog(after);
    }
}
