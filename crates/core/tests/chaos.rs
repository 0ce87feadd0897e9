//! Fault-isolation acceptance suite (CI-gated under the `chaos` feature,
//! run under both the default pool and `XSFQ_THREADS=1`).
//!
//! Deterministic faults — a panic and a stall past the job deadline — are
//! injected into specific (design, pass) coordinates of a
//! [`SynthesisFlow::run_many_isolated`] batch. The contract under test:
//!
//! * every faulted design yields a structured [`JobError`] naming the
//!   design, the failure kind, the pass in flight and the telemetry of the
//!   passes that completed before the fault;
//! * every healthy design completes **bit-identically** to a solo
//!   [`SynthesisFlow::run`] of the same options; and
//! * the executor pool survives: the same flow keeps working after the
//!   faulted batch.

#![cfg(feature = "chaos")]

use std::time::Duration;

use xsfq_aig::chaos::{FaultKind, FaultPlan};
use xsfq_aig::{build, Aig, Lit};
use xsfq_core::{FlowError, FlowResult, JobErrorKind, SynthesisFlow};

/// A small batch with enough structural variety that "bit-identical"
/// actually constrains the optimizer and the mapper.
fn batch() -> Vec<Aig> {
    let mut adder = Aig::new("adder4");
    let a = adder.input_word("a", 4);
    let b = adder.input_word("b", 4);
    let (sum, carry) = build::ripple_add(&mut adder, &a, &b, Lit::FALSE);
    adder.output_word("sum", &sum);
    adder.output("carry", carry);

    let mut fa = Aig::new("fa");
    let a = fa.input("a");
    let b = fa.input("b");
    let c = fa.input("cin");
    let (s, co) = build::full_adder(&mut fa, a, b, c);
    fa.output("s", s);
    fa.output("cout", co);

    let mut mux = Aig::new("muxtree");
    let s0 = mux.input("s0");
    let s1 = mux.input("s1");
    let d: Vec<Lit> = (0..4).map(|i| mux.input(format!("d{i}"))).collect();
    let lo = mux.mux(s0, d[1], d[0]);
    let hi = mux.mux(s0, d[3], d[2]);
    let o = mux.mux(s1, hi, lo);
    mux.output("o", o);

    let mut chain = Aig::new("xorchain");
    let xs = chain.input_word("x", 6);
    let folded = xs[1..].iter().fold(xs[0], |acc, &x| chain.xor(acc, x));
    chain.output("parity", folded);

    vec![adder, fa, mux, chain]
}

fn assert_bit_identical(got: &FlowResult, solo: &FlowResult) {
    assert_eq!(
        got.optimized.nodes(),
        solo.optimized.nodes(),
        "optimized AIG diverged"
    );
    assert_eq!(
        got.optimized.outputs(),
        solo.optimized.outputs(),
        "optimized outputs diverged"
    );
    assert_eq!(
        got.mapped.physical, solo.mapped.physical,
        "physical netlist diverged"
    );
    assert_eq!(got.report.jj_total, solo.report.jj_total);
}

/// The ISSUE's acceptance scenario: one design panics at its first pass,
/// one stalls past its deadline, the rest must be untouched.
#[test]
fn batch_isolates_panic_and_deadline_faults() {
    let designs = batch();
    let flow = SynthesisFlow::new()
        .job_deadline(Duration::from_millis(750))
        .chaos_plan(
            FaultPlan::new()
                .fault(1, 0, FaultKind::Panic)
                .fault(2, 1, FaultKind::Stall),
        );
    let results = flow.run_many_isolated(&designs);
    assert_eq!(results.len(), designs.len());

    // Design 1 panicked inside pass 0: no pass completed, the in-flight
    // pass is attributed, and the panic message survives.
    let err = results[1].as_ref().expect_err("design 1 must panic");
    assert_eq!(err.design, 1);
    assert_eq!(err.name, "fa");
    let JobErrorKind::Panicked { message } = &err.kind else {
        panic!("expected a panic verdict, got {:?}", err.kind);
    };
    assert!(message.contains("chaos"), "payload lost: {message}");
    assert!(err.pass.is_some(), "panicking pass not attributed");
    assert!(err.passes.is_empty(), "no pass completed before the fault");

    // Design 2 stalled in pass 1 until its deadline fired: exactly one
    // completed pass of partial telemetry, and a deadline verdict (the
    // stall's safety-cap panic must *not* be misread as a crash).
    let err = results[2].as_ref().expect_err("design 2 must time out");
    assert_eq!(err.design, 2);
    assert!(
        matches!(err.kind, JobErrorKind::DeadlineExpired),
        "expected a deadline verdict, got {:?}",
        err.kind
    );
    assert_eq!(err.passes.len(), 1, "one pass completed before the stall");
    assert!(err.pass.is_some(), "stalled pass not attributed");
    assert!(err.elapsed >= Duration::from_millis(750));

    // Healthy designs are bit-identical to solo runs of the same flow.
    for &i in &[0usize, 3] {
        let got = results[i].as_ref().unwrap_or_else(|e| {
            panic!("healthy design {i} failed: {e}");
        });
        let solo = SynthesisFlow::new().run(&designs[i]).expect("solo run");
        assert_bit_identical(got, &solo);
    }

    // The pool is not poisoned: the same flow object keeps working.
    let after = flow.run(&designs[0]).expect("flow must survive the batch");
    assert_eq!(
        after.report.jj_total,
        SynthesisFlow::new()
            .run(&designs[0])
            .unwrap()
            .report
            .jj_total
    );
}

/// `run_many` (the all-or-nothing wrapper) maps an isolated deadline fault
/// to `FlowError::Cancelled(Deadline)` instead of a panic.
#[test]
fn run_many_surfaces_deadlines_as_cancellation() {
    let designs = batch();
    let flow = SynthesisFlow::new()
        .job_deadline(Duration::from_millis(400))
        .chaos_plan(FaultPlan::new().fault(2, 0, FaultKind::Stall));
    let err = flow.run_many(&designs).expect_err("the stall must surface");
    assert!(
        matches!(err, FlowError::Cancelled(xsfq_exec::CancelCause::Deadline)),
        "expected a deadline cancellation, got {err:?}"
    );
}
