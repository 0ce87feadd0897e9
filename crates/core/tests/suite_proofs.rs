//! Suite proofs: every suite design the standard flow synthesizes is
//! proven, not only pinned.
//!
//! `suite_golden` pins the structure and JJ count of each design, so it
//! cannot see a pass or a mapping that changes a design's function while
//! keeping its size. This test runs the flow over all 35 registered
//! benchmarks with `verify(true)`, so the flow's own Verify stage proves
//! optimized ≡ mapped for the 19 combinational designs (the flow skips
//! Verify for designs with latches). It then proves source ≡ optimized
//! with `xsfq_sat::check_equivalence`, which treats latches as shared cut
//! points, so for the 16 ISCAS89 designs it checks register
//! correspondence.
//!
//! `sin` and `voter` are left out of the source ≡ optimized proof: their
//! sweeps take tens of seconds each even in a release build. They wait for
//! proofs that check each pass's certificate instead of a whole miter.
//!
//! The proofs and their assertions run design by design in suite order, so
//! a broken pass fails at the first design it breaks: a failing proof can
//! take far longer than a passing one.

use xsfq_core::{FlowStage, SynthesisFlow};
use xsfq_sat::check_equivalence;

/// Designs whose source ≡ optimized sweep is too slow for tier-1.
const SLOW_SWEEPS: [&str; 2] = ["sin", "voter"];

#[test]
fn every_suite_design_is_proven_equivalent_to_its_source() {
    let benches = xsfq_benchmarks::all();
    let designs: Vec<_> = benches.iter().map(|b| (b.build)()).collect();
    let verdicts = SynthesisFlow::new()
        .verify(true)
        .run_many_isolated(&designs);
    let (mut mapped, mut optimized) = (0, 0);
    for ((bench, source), verdict) in benches.iter().zip(&designs).zip(verdicts) {
        let name = bench.name;
        let result = verdict.unwrap_or_else(|e| panic!("{name}: {e}"));
        if source.num_latches() == 0 {
            assert!(
                result
                    .report
                    .stages
                    .iter()
                    .any(|s| s.stage == FlowStage::Verify),
                "{name}: the flow skipped its Verify stage"
            );
            mapped += 1;
        }
        if SLOW_SWEEPS.contains(&name) {
            continue;
        }
        let proof = check_equivalence(source, &result.optimized);
        assert!(
            proof.is_equivalent(),
            "{name}: the optimized AIG differs from its source: {proof:?}"
        );
        optimized += 1;
    }
    assert_eq!(
        (mapped, optimized),
        (19, 33),
        "(optimized ≡ mapped, source ≡ optimized) proofs run"
    );
}
