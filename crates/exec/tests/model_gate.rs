//! Model-checker gates for the executor's concurrency: the cancel token.
//!
//! Only meaningful with `--features model`, which swaps the crate's `sync`
//! facade to the `xsfq_model` instrumented runtime; run as
//!
//! ```text
//! cargo test -p xsfq-exec --features model --test model_gate
//! ```
//!
//! The cancel-token scenario comes in a pair:
//!
//! - the **correct** `CancelToken` must survive *every* schedule within the
//!   preemption bound, including store-buffer reorderings of its relaxed
//!   operations; and
//! - a **seeded mutation** (`mutants::CancelTokenRelaxed`, its flag
//!   accesses demoted to Relaxed) must be *caught* — the explorer must find
//!   a schedule where the bug the ordering prevents actually fires.
//!
//! The second half is what makes the first half trustworthy: a gate that
//! cannot detect the bug when it is planted proves nothing by passing.
//! Bounds are fixed (deterministic schedule enumeration, no timing
//! dependence), so these tests cannot flake.
//!
//! `ThreadPool::map_init` is not modeled: its fan-out runs on std scoped
//! threads and a std counter, which `xsfq_model` cannot schedule; its unit
//! tests and the `chaos`/`cancellation` suites cover it instead.

#![cfg(feature = "model")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use xsfq_exec::{mutants, CancelToken, CancelTokenImpl};
use xsfq_model::{thread, Explorer};

// The `mutants` alias resolves to exactly the const parameter the scenario
// below instantiates; drift would silently gate the wrong mutation, so pin
// the mapping at compile time.
const _: fn(mutants::CancelTokenRelaxed) -> CancelTokenImpl<1> = |m| m;

/// Assert that the explorer finds a bug in `f` within `preemptions`.
fn expect_caught(name: &str, preemptions: usize, f: impl Fn() + Send + Sync + 'static) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Explorer::new().preemptions(preemptions).check(f);
    }));
    assert!(
        result.is_err(),
        "seeded mutation `{name}` was NOT caught: the model gate cannot \
         detect the bug class it claims to guard against"
    );
}

// ---------------------------------------------------------------------------
// CancelToken: the Release/Acquire visibility edge
// ---------------------------------------------------------------------------

/// The canceller writes a reason into plain (non-atomic) memory before
/// calling `cancel()`; an observer that sees `is_cancelled()` must see the
/// reason. With the real token the Release store / Acquire load pair
/// orders the accesses; `CancelTokenRelaxed` drops the edge and the reads
/// race the write.
fn cancel_publishes_reason<const MUT: u8>() {
    let reason = Arc::new(xsfq_model::cell::UnsafeCell::new(0usize));
    let token = CancelTokenImpl::<MUT>::new();
    let (reason_w, token_w) = (Arc::clone(&reason), token.clone());
    let canceller = thread::Builder::new()
        .spawn(move || {
            // SAFETY: the pointer is valid for the closure's duration and
            // the model runtime's race detector checks the access itself.
            reason_w.with_mut(|p| unsafe { *p = 42 });
            token_w.cancel();
        })
        .unwrap();
    if token.is_cancelled() {
        // SAFETY: as above — validity is local, ordering is the runtime's
        // to verify (that verification is the point of this gate).
        let seen = reason.with(|p| unsafe { *p });
        assert_eq!(seen, 42, "observed cancellation without its cause");
    }
    canceller.join().unwrap();
}

#[test]
fn cancel_token_publishes_prior_writes() {
    let report = Explorer::new()
        .preemptions(2)
        .check(cancel_publishes_reason::<0>);
    assert!(report.complete, "exploration did not exhaust the tree");
}

#[test]
fn mutation_cancel_token_relaxed_is_caught() {
    // mutants::CancelTokenRelaxed == CancelTokenImpl<1>
    expect_caught("CancelTokenRelaxed", 2, cancel_publishes_reason::<1>);
}

/// Cross-clone propagation: cancelling one clone is visible on the other,
/// and `cause()` agrees with `is_cancelled()` in every interleaving.
#[test]
fn cancel_token_clones_share_the_flag() {
    let report = Explorer::new().preemptions(2).check(|| {
        let token = CancelToken::new();
        let remote = token.clone();
        let canceller = thread::Builder::new()
            .spawn(move || remote.cancel())
            .unwrap();
        if token.is_cancelled() {
            assert_eq!(
                token.cause(),
                Some(xsfq_exec::CancelCause::Explicit),
                "is_cancelled() true but cause() disagrees"
            );
        }
        canceller.join().unwrap();
        assert!(token.is_cancelled(), "cancel lost after join");
    });
    assert!(report.complete, "exploration did not exhaust the tree");
}
