//! Deterministic fault injection for the pass engine (`chaos` feature).
//!
//! Robustness claims are only as good as the faults they were tested
//! against. This module lets a test *plan* a fault — a panic or a stall —
//! at pass *i* of design *j*, and the pass engine fires it at exactly that
//! point. Every recovery path in the hardened job runner
//! (`xsfq_core::flow::SynthesisFlow::run_many_isolated`) is exercised by
//! real injected faults rather than hand-mocked errors:
//!
//! * [`FaultKind::Panic`] — `panic!` inside the pass boundary, testing
//!   per-job unwind isolation and partial-telemetry capture.
//! * [`FaultKind::Stall`] — busy-wait until the job's [`CancelToken`]
//!   cancels (a deadline firing or an explicit cancel), testing the
//!   deadline path with a *real* stuck pass instead of a sleep of a guessed
//!   length.
//!
//! The plan is deterministic — `(design index, pass index) → fault` — so
//! chaos tests are exactly reproducible however a batch's designs are
//! scheduled.
//!
//! ```
//! use xsfq_aig::chaos::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::new()
//!     .fault(1, 0, FaultKind::Panic) // design 1 dies in its first pass
//!     .fault(3, 2, FaultKind::Stall); // design 3 stalls in its third
//! assert!(plan.for_design(0).is_none(), "healthy designs get no injector");
//! let inj = plan.for_design(1).unwrap();
//! assert_eq!(inj.fault_at(0), Some(FaultKind::Panic));
//! assert_eq!(inj.fault_at(1), None);
//! ```

use std::time::{Duration, Instant};

use xsfq_exec::CancelToken;

/// What to inject at the planned point. See the [module docs](self).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the pass boundary.
    Panic,
    /// Busy-wait until the job's cancellation token fires.
    Stall,
}

/// A deterministic fault plan for a whole batch: which fault (if any) fires
/// at pass `i` of design `j`. Built once by a test, shared read-only by
/// every job.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<(usize, usize, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults anywhere).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Plan `kind` to fire when design `design` starts its `pass`-th pass
    /// (0-based, counted across the whole script in execution order).
    #[must_use]
    pub fn fault(mut self, design: usize, pass: usize, kind: FaultKind) -> FaultPlan {
        self.faults.push((design, pass, kind));
        self
    }

    /// The injector for one design of the batch, or `None` when the plan
    /// holds nothing for it.
    pub fn for_design(&self, design: usize) -> Option<Injector> {
        let faults: Vec<(usize, FaultKind)> = self
            .faults
            .iter()
            .filter(|(d, _, _)| *d == design)
            .map(|(_, p, k)| (*p, *k))
            .collect();
        if faults.is_empty() {
            None
        } else {
            Some(Injector { faults })
        }
    }
}

/// One design's slice of a [`FaultPlan`], installed into the pass context
/// ([`PassCtx::set_chaos`](crate::pass::PassCtx::set_chaos)) and queried by
/// the engine at every pass boundary.
#[derive(Clone, Debug)]
pub struct Injector {
    faults: Vec<(usize, FaultKind)>,
}

impl Injector {
    /// The fault planned for the `pass_index`-th executed pass, if any.
    pub fn fault_at(&self, pass_index: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|(p, _)| *p == pass_index)
            .map(|(_, k)| *k)
    }
}

/// Busy-wait (with short sleeps) until `token` reports cancelled — the
/// [`FaultKind::Stall`] implementation. A stalled pass must only ever end
/// because cancellation reached it; if nothing cancels the token within a
/// generous safety cap the test harness is broken, and panicking beats
/// hanging CI forever.
pub fn stall_until_cancelled(token: &CancelToken) {
    const SAFETY_CAP: Duration = Duration::from_secs(60);
    let start = Instant::now();
    while !token.is_cancelled() {
        if start.elapsed() > SAFETY_CAP {
            panic!("chaos: stalled pass was never cancelled within {SAFETY_CAP:?}");
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_routes_faults_by_design_and_pass() {
        let plan = FaultPlan::new()
            .fault(0, 2, FaultKind::Stall)
            .fault(2, 0, FaultKind::Panic)
            .fault(2, 5, FaultKind::Stall);
        assert!(plan.for_design(1).is_none());
        let d0 = plan.for_design(0).unwrap();
        assert_eq!(d0.fault_at(2), Some(FaultKind::Stall));
        assert_eq!(d0.fault_at(0), None);
        let d2 = plan.for_design(2).unwrap();
        assert_eq!(d2.fault_at(0), Some(FaultKind::Panic));
        assert_eq!(d2.fault_at(5), Some(FaultKind::Stall));
    }

    #[test]
    fn stall_returns_once_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        stall_until_cancelled(&token); // must return immediately
    }
}
