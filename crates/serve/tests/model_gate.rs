//! Model-checker gates for the daemon's admission queue, plus the PR-7
//! stats-vs-journal regression.
//!
//! Only meaningful with `--features model`, which swaps `xsfq_exec::sync`
//! (the facade `queue.rs` imports its lock, condvar and clock from) to the
//! `xsfq_model` instrumented runtime; run as
//!
//! ```text
//! cargo test -p xsfq-serve --features model --test model_gate
//! ```
//!
//! Unlike the executor's gate there are no seeded mutations here: the
//! queue is lock-based, so the properties under test are liveness and
//! invariant preservation across interleavings (no lost wakeups, capacity
//! respected under concurrent admission, graceful drain after close) —
//! bug classes the explorer detects directly as deadlocks or assertion
//! failures, with bounds fixed so the enumeration is deterministic.

#![cfg(feature = "model")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use xsfq_aig::digest::Digest;
use xsfq_aig::Aig;
use xsfq_model::thread;
use xsfq_model::Explorer;
use xsfq_serve::cache::CacheKey;
use xsfq_serve::job::{Input, Job, JobSink};
use xsfq_serve::queue::JobQueue;

fn job(id: u64) -> Job {
    Job {
        id,
        name: format!("j{id}"),
        input: Box::new(Input {
            aig: Aig::default(),
            key: CacheKey {
                digest: Digest([0; 16]),
                script: String::new(),
                guards: String::new(),
            },
        }),
        fault: None,
        sink: JobSink::Discard,
        attempt: 0,
    }
}

/// A push must wake a popper that blocked on the empty queue — in every
/// schedule, including the one where the popper checks, finds the queue
/// empty, and races the pusher to the condvar (the classic lost-wakeup
/// window; the queue is safe because the check and the wait share the
/// mutex critical section).
#[test]
fn push_wakes_blocked_popper() {
    let report = Explorer::new().preemptions(2).check(|| {
        let queue = Arc::new(JobQueue::new(4));
        let q = Arc::clone(&queue);
        let popper = thread::Builder::new()
            .spawn(move || q.pop().map(|j| j.id))
            .unwrap();
        queue.try_push(job(9)).unwrap();
        assert_eq!(popper.join().unwrap(), Some(9), "admitted job never popped");
    });
    assert!(report.complete, "exploration did not exhaust the tree");
}

/// Two threads race to admit into a capacity-1 queue: exactly one wins in
/// every interleaving, and the loser gets its job handed back.
#[test]
fn capacity_is_enforced_under_concurrent_pushers() {
    let report = Explorer::new().preemptions(2).check(|| {
        let queue = Arc::new(JobQueue::new(1));
        let q = Arc::clone(&queue);
        let racer = thread::Builder::new()
            .spawn(move || q.try_push(job(2)).is_ok())
            .unwrap();
        let local = queue.try_push(job(1)).is_ok();
        let remote = racer.join().unwrap();
        assert_eq!(
            usize::from(local) + usize::from(remote),
            1,
            "capacity 1 but {local}/{remote} admissions succeeded"
        );
        assert_eq!(queue.ready_len(), 1);
    });
    assert!(report.complete, "exploration did not exhaust the tree");
}

/// Close races a draining popper: queued work is still delivered, the pop
/// after the drain returns `None` (no popper is left blocked forever), and
/// admissions after close are refused.
#[test]
fn close_wakes_poppers_and_drains() {
    let report = Explorer::new().preemptions(2).check(|| {
        let queue = Arc::new(JobQueue::new(2));
        queue.try_push(job(1)).unwrap();
        let q = Arc::clone(&queue);
        let closer = thread::Builder::new().spawn(move || q.close()).unwrap();
        assert_eq!(
            queue.pop().map(|j| j.id),
            Some(1),
            "job admitted before close was lost in the drain"
        );
        assert!(queue.pop().is_none(), "pop after drain must end, not block");
        closer.join().unwrap();
        assert!(queue.try_push(job(3)).is_err(), "admission after close");
    });
    assert!(report.complete, "exploration did not exhaust the tree");
}

/// A retry bypasses the capacity check (the job was already accepted and
/// journaled; shedding it would break at-least-once) and reaches a popper
/// that may already be blocked when the retry lands.
#[test]
fn retry_bypasses_capacity_and_reaches_blocked_popper() {
    let report = Explorer::new().preemptions(2).check(|| {
        let queue = Arc::new(JobQueue::new(0));
        assert!(queue.try_push(job(1)).is_err(), "capacity 0 must shed");
        let q = Arc::clone(&queue);
        let retrier = thread::Builder::new()
            .spawn(move || q.push_retry(job(7), Duration::from_nanos(0)).is_ok())
            .unwrap();
        assert_eq!(
            queue.pop().map(|j| j.id),
            Some(7),
            "due retry never delivered"
        );
        assert!(retrier.join().unwrap());
    });
    assert!(report.complete, "exploration did not exhaust the tree");
}

/// A not-yet-due retry makes the popper take the timed-wait branch; the
/// wait re-arms until the due instant passes on the modeled clock and the
/// job is promoted — never lost, never delivered early.
#[test]
fn delayed_retry_comes_due_on_the_modeled_clock() {
    let report = Explorer::new().preemptions(2).check(|| {
        let queue = JobQueue::new(1);
        queue.push_retry(job(5), Duration::from_nanos(3)).unwrap();
        assert_eq!(queue.pop().map(|j| j.id), Some(5));
    });
    assert!(report.complete, "exploration did not exhaust the tree");
}

// ---------------------------------------------------------------------------
// Regression: the PR-7 stats-vs-journal observation race (fixed in 924f41a)
// ---------------------------------------------------------------------------

/// Distilled `finish_ok` shape from `server.rs`: a worker settling a job
/// updates the completion counter and appends the durable journal `D`
/// record, while an observer reads the journal and then the stats. The
/// invariant (documented on `finish_ok`): anyone who observes the durable
/// record already sees the updated counter.
///
/// Pre-fix, the journal append came first, so an observer could see the
/// `D` record while the counter still read the old value — exactly the
/// stale-stats report PR-7's review caught. The fix reversed the order:
/// counter first, then journal, the mutex edge on the journal ordering the
/// counter update before any observer that sees the record.
fn finish_shape(counter_first: bool) {
    use xsfq_model::sync::atomic::{AtomicUsize, Ordering};
    use xsfq_model::sync::Mutex;
    let journal = Arc::new(Mutex::new(0usize));
    let completed = Arc::new(AtomicUsize::new(0));
    let (journal_w, completed_w) = (Arc::clone(&journal), Arc::clone(&completed));
    let worker = thread::Builder::new()
        .spawn(move || {
            // Ordering: Relaxed — mirrors the Relaxed stats counters in
            // server.rs; the invariant rides on program order plus the
            // journal mutex, which is exactly what this gate checks.
            if counter_first {
                completed_w.fetch_add(1, Ordering::Relaxed);
                *journal_w.lock().unwrap() += 1;
            } else {
                *journal_w.lock().unwrap() += 1;
                completed_w.fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
    let durable = *journal.lock().unwrap();
    if durable == 1 {
        // Ordering: Relaxed — the mutex edge above is what must make the
        // bump visible; a stronger load here would mask the bug.
        assert_eq!(
            completed.load(Ordering::Relaxed),
            1,
            "journal holds the done record but stats missed the completion"
        );
    }
    worker.join().unwrap();
}

/// The explorer finds the stale-stats schedule on the pre-fix ordering —
/// proof the gate would have caught PR-7's bug before review did.
#[test]
fn pr7_race_found_on_pre_fix_shape() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Explorer::new().preemptions(2).check(|| finish_shape(false));
    }));
    assert!(
        result.is_err(),
        "pre-fix journal-then-counter ordering was NOT caught"
    );
}

/// The shipped counter-then-journal ordering is clean under the same
/// bounds.
#[test]
fn pr7_post_fix_shape_is_clean() {
    let report = Explorer::new().preemptions(2).check(|| finish_shape(true));
    assert!(report.complete, "exploration did not exhaust the tree");
}
