//! # xsfq-model — deterministic bounded model checking for xsfq concurrency
//!
//! A std-only, vendored-style (zero external dependencies) loom-like
//! checker. A test wraps its concurrent scenario in [`check`]; the runtime
//! then executes the closure repeatedly, steering every scheduling decision
//! through a depth-first search over the tree of choice points, until the
//! bounded tree is exhausted or a bug is found. Bugs are: modeled data
//! races (vector-clock happens-before violations on [`cell::UnsafeCell`]),
//! deadlocks, unjoined thread panics (e.g. a failed `assert!` inside a
//! modeled thread), a panic escaping the checked closure itself, and
//! step-bound (livelock) overruns. On a bug the failing schedule is
//! re-executed with tracing and the panic message carries the full
//! event-by-event interleaving.
//!
//! ## Execution model
//!
//! Modeled threads are real OS threads, but at most one executes between
//! choice points: every visible operation (atomic access, fence,
//! mutex/condvar op, spawn/join/yield) parks until the scheduler hands the
//! thread the token. A choice point enumerates, in deterministic order:
//!
//! 1. **Continue** — the current thread performs its next operation;
//! 2. **Run(t)** — preempt to another runnable thread (costs one credit);
//! 3. **Flush(t, i)** — publish one buffered store (costs one credit);
//! 4. **TimeoutWake(cv, t)** — fire a pending `wait_timeout` (one credit;
//!    free when nothing else can run, since real timeouts always fire).
//!
//! Blocking (mutex contention, condvar wait, join) forces a free switch.
//! `compare_exchange_weak` adds a binary spurious-failure choice, also
//! charged one credit. The **preemption bound** ([`Explorer::preemptions`])
//! caps total credits per execution; with bound *p* the search is
//! exhaustive over all schedules with at most *p* non-forced events, which
//! in practice finds ordering bugs at tiny bounds (a non-atomic
//! load/store increment losing an update needs one preemption; a
//! store-buffer reordering needs a flush plus a preemption) while keeping
//! the tree tractable.
//!
//! ## Memory model (PSO store buffers)
//!
//! Non-SeqCst stores do not publish immediately: each thread has a
//! per-location-FIFO store buffer, and a buffered store becomes visible
//! only when an explicit **Flush** choice (or a mandatory drain) applies
//! it. The thread itself always sees its own latest store (store
//! forwarding). Constraints on flush order:
//!
//! - per-location FIFO (coherence);
//! - a `Release` store flushes only after *everything* before it;
//! - a release fence splits the buffer into barrier groups — pre-fence
//!   stores flush before post-fence stores;
//! - SeqCst stores/fences and all RMWs (including CAS) drain the issuing
//!   thread's buffer and act on globally visible memory.
//!
//! This is processor-store-order (PSO): it exhibits store→store and
//! store→load reordering — exactly the behaviours `Release` publication
//! and `SeqCst` fences exist to forbid — but *not* load→load or
//! load→store reordering, and RMWs are stronger than C11 relaxed RMWs.
//! Consequently a weakened *load* ordering whose only effect is load
//! reordering may escape this checker; the seeded-mutation gates in
//! `crates/exec` only claim catches the model provably makes.
//!
//! Happens-before is tracked with vector clocks: release stores (and
//! release fences, for later relaxed stores) attach the writer's clock to
//! the value; acquire loads join it; relaxed loads park it in a pending set
//! that a later acquire fence joins (C11 fence synchronization). Mutex
//! unlock→lock and condvar signal edges join clocks likewise; RMWs
//! continue the release sequence of the store they displace.
//!
//! ## Determinism and replay
//!
//! The choice-point structure depends only on modeled state, never on real
//! timing (token handoff uses an explicit grant flag, so whether a thread
//! was already parked when scheduled is unobservable). A schedule is the
//! sequence of picked alternatives; replaying it reproduces the execution
//! exactly, which is how failing traces are reconstructed. Checked
//! closures must therefore be deterministic modulo scheduling: no ambient
//! randomness, no wall-clock reads (use [`time::Instant`], which counts
//! modeled steps), no communication outside the modeled primitives.
//!
//! ## Bounds
//!
//! [`Explorer::preemptions`] (default 2) bounds the credits per execution,
//! [`Explorer::max_iterations`] (default 1,000,000) the number of explored
//! schedules, and [`Explorer::max_steps`] (default 20,000) the operations
//! per execution (livelock guard). Exceeding the iteration bound panics —
//! an unfinished exploration must be visible, not silently green.

mod rt;

// Module files use std-like names on disk; import under private aliases and
// re-export through std-shaped public modules below.
#[path = "cell.rs"]
mod cell_impl;
#[path = "sync.rs"]
mod sync_impl;
#[path = "thread.rs"]
mod thread_impl;
#[path = "time.rs"]
mod time_impl;

pub mod cell {
    pub use crate::cell_impl::UnsafeCell;
}

pub mod sync {
    pub use crate::sync_impl::{atomic, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    pub use std::sync::Arc;
}

pub mod thread {
    pub use crate::thread_impl::{spawn, yield_now, Builder, JoinHandle};
}

pub mod time {
    pub use crate::time_impl::Instant;
    pub use std::time::Duration;
}

use rt::{Opts, Rt};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

/// Outcome of a completed (bug-free) exploration.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub iterations: u64,
    /// True when the bounded tree was exhausted (always, currently: hitting
    /// the iteration cap panics instead of returning).
    pub complete: bool,
}

/// Exploration configuration. See the crate docs for the semantics of each
/// bound.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Preemption-bound credits per execution (preemptive switches, store
    /// flushes, timeout wakes, spurious CAS failures).
    pub preemptions: usize,
    /// Cap on explored schedules; exceeding it panics.
    pub max_iterations: u64,
    /// Cap on modeled operations within one execution (livelock guard).
    pub max_steps: u64,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer {
            preemptions: 2,
            max_iterations: 1_000_000,
            max_steps: 20_000,
        }
    }
}

impl Explorer {
    pub fn new() -> Explorer {
        Explorer::default()
    }

    pub fn preemptions(mut self, n: usize) -> Explorer {
        self.preemptions = n;
        self
    }

    pub fn max_iterations(mut self, n: u64) -> Explorer {
        self.max_iterations = n;
        self
    }

    pub fn max_steps(mut self, n: u64) -> Explorer {
        self.max_steps = n;
        self
    }

    /// Exhaustively explore `f` under the configured bounds. Panics with a
    /// full schedule trace if any execution exhibits a bug.
    pub fn check(&self, f: impl Fn()) -> Report {
        install_quiet_hook();
        let rt = Arc::new(Rt::new(Opts {
            preemption_bound: self.preemptions,
            max_steps: self.max_steps,
        }));
        let mut iterations = 0u64;
        loop {
            iterations += 1;
            assert!(
                iterations <= self.max_iterations,
                "xsfq-model: exploration exceeded {} schedules without \
                 exhausting the tree; raise max_iterations or lower the \
                 preemption bound",
                self.max_iterations
            );
            if let Some(bug) = run_once(&rt, &f, false) {
                // Deterministic replay of the failing schedule, tracing on.
                let replay_bug = run_once(&rt, &f, true);
                let trace = rt.trace_lines().join("\n  ");
                panic!(
                    "xsfq-model: bug found on schedule {iterations}: {bug}\n\
                     (replay: {})\n  trace:\n  {trace}",
                    replay_bug.as_deref().unwrap_or("did not reproduce"),
                );
            }
            if !rt.backtrack() {
                return Report {
                    iterations,
                    complete: true,
                };
            }
        }
    }
}

/// Explore `f` with default bounds (preemption bound 2).
pub fn check(f: impl Fn()) -> Report {
    Explorer::default().check(f)
}

fn run_once(rt: &Arc<Rt>, f: &impl Fn(), tracing: bool) -> Option<String> {
    rt.reset_iteration(tracing);
    rt::set_ctx(Some((Arc::clone(rt), 0)));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    rt::set_ctx(None);
    rt.thread_finished(0, outcome.map_err(|e| e as Box<dyn std::any::Any + Send>));
    let (bug, handles) = rt.wait_done();
    for h in handles {
        let _ = h.join();
    }
    bug
}

/// The runtime aborts executions by unwinding modeled threads with a
/// private payload; the default panic hook would print one message per
/// aborted thread per schedule. Filter those, once, process-wide.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<rt::ModelAbort>() {
                return;
            }
            prev(info);
        }));
    });
}
