//! CI gate for the static checker: everything the pipeline emits must be
//! lint-clean, and turning checking on must not perturb the result.
//!
//! * the full EPFL suite synthesizes successfully at [`CheckLevel::Stage`]
//!   (which DRCs both mapped netlists and validates the optimized AIG) and
//!   the outputs are bit-identical to an unchecked run;
//! * [`CheckLevel::Paranoid`] (per-pass validation + cut-arena audit) is
//!   clean on representative designs;
//! * a proptest sweeps random DAGs across scripts, polarity modes,
//!   interconnect styles and pipelining, asserting every combination maps
//!   lint-clean under `Stage`.
//!
//! Run in CI under both the default pool and `XSFQ_THREADS=1`.

use proptest::prelude::*;

use xsfq_aig::opt::Effort;
use xsfq_aig::pass::Script;
use xsfq_aig::{Aig, Lit};
use xsfq_cells::InterconnectStyle;
use xsfq_core::{CheckLevel, PolarityMode, SynthesisFlow};
use xsfq_lint::{lint_netlist, NetlistProfile};
use xsfq_netlist::writers::write_verilog;

fn verilog(flow_result: &xsfq_core::FlowResult) -> Vec<u8> {
    let mut buf = Vec::new();
    write_verilog(flow_result.netlist(), &mut buf).unwrap();
    buf
}

/// Every EPFL design maps lint-clean at `Stage`, and the checked run's
/// netlist is byte-identical to the unchecked run's (checking observes, it
/// never rewrites).
#[test]
fn epfl_suite_is_lint_clean_at_stage_and_identical_to_unchecked() {
    let checked = SynthesisFlow::new()
        .script(Script::preset(Effort::Fast))
        .check(CheckLevel::Stage);
    let unchecked = SynthesisFlow::new().script(Script::preset(Effort::Fast));
    for b in xsfq_benchmarks::all()
        .iter()
        .filter(|b| b.suite == xsfq_benchmarks::Suite::Epfl)
    {
        let aig = (b.build)();
        let got = checked
            .run(&aig)
            .unwrap_or_else(|e| panic!("{}: stage-checked flow failed: {e}", b.name));
        let base = unchecked.run(&aig).unwrap();
        assert_eq!(
            verilog(&got),
            verilog(&base),
            "{}: checking changed the output",
            b.name
        );
        // Belt and braces: the physical netlist also passes a direct DRC
        // under the physical profile (single-sink nets, splitter trees).
        let diags = lint_netlist(&got.mapped.physical, NetlistProfile::Physical);
        assert!(
            !xsfq_lint::has_errors(&diags),
            "{}: physical netlist has lint errors: {}",
            b.name,
            xsfq_lint::render_text(&diags)
        );
    }
}

/// Paranoid mode — per-pass AIG validation plus the cut-arena audit — is
/// clean on designs exercising every stage (combinational, sequential,
/// pipelined, both styles).
#[test]
fn paranoid_checking_is_clean_on_representative_designs() {
    for name in ["int2float", "ctrl", "s298"] {
        let aig = xsfq_benchmarks::by_name(name).unwrap();
        SynthesisFlow::new()
            .check(CheckLevel::Paranoid)
            .run(&aig)
            .unwrap_or_else(|e| panic!("{name}: paranoid flow failed: {e}"));
    }
    let aig = xsfq_benchmarks::by_name("cavlc").unwrap();
    SynthesisFlow::new()
        .check(CheckLevel::Paranoid)
        .pipeline_stages(2)
        .style(InterconnectStyle::Ptl)
        .run(&aig)
        .expect("paranoid pipelined PTL flow");
}

/// `Off` is the default, and an explicit `Off` is the same flow object
/// configuration as the default — the zero-overhead contract is a no-op
/// code path, not a separate mode.
#[test]
fn off_is_the_default_check_level() {
    assert_eq!(
        SynthesisFlow::new().options().check,
        CheckLevel::Off,
        "default flow must not pay for checking"
    );
    let explicit = SynthesisFlow::new().check(CheckLevel::Off);
    assert_eq!(explicit.options().check, CheckLevel::Off);
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    let a = SynthesisFlow::new().run(&aig).unwrap();
    let b = explicit.run(&aig).unwrap();
    assert_eq!(verilog(&a), verilog(&b));
}

/// Random DAG from a recipe of (op, operand, operand) triples.
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

    /// Every pipeline output is lint-clean: random AIGs × effort × polarity
    /// mode × interconnect style × pipelining, all at `Stage` (which fails
    /// the flow on any error-severity finding).
    #[test]
    fn every_pipeline_output_is_lint_clean(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 8..80),
        inputs in 2usize..8,
        effort_sel in 0u8..3,
        mode_sel in 0u8..4,
        ptl in any::<bool>(),
        stages in 0usize..3,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let effort = match effort_sel {
            0 => Effort::Fast,
            1 => Effort::Standard,
            _ => Effort::High,
        };
        let mode = match mode_sel {
            0 => PolarityMode::DualRail,
            1 => PolarityMode::AllPositive,
            2 => PolarityMode::Heuristic,
            _ => PolarityMode::Exhaustive,
        };
        let style = if ptl {
            InterconnectStyle::Ptl
        } else {
            InterconnectStyle::Abutted
        };
        let result = SynthesisFlow::new()
            .script(Script::preset(effort))
            .polarity(mode)
            .style(style)
            .pipeline_stages(stages)
            .check(CheckLevel::Stage)
            .run(&g);
        let result = match result {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!(
                "flow failed under Stage checking: {e}"
            ))),
        };
        // The physical netlist is also clean under a direct DRC, warnings
        // included for the splitter-tree balance check.
        let diags = lint_netlist(&result.mapped.physical, NetlistProfile::Physical);
        prop_assert!(
            !xsfq_lint::has_errors(&diags),
            "physical netlist lint errors: {}",
            xsfq_lint::render_text(&diags)
        );
    }
}
