//! # xsfq-exec — vendored data-parallel executor
//!
//! A zero-dependency (std-only) fan-out for batch synthesis: a
//! [`ThreadPool`] is a width, and [`ThreadPool::map_init`] runs a
//! deterministic data-parallel map on the calling thread plus scoped
//! threads (`std::thread::scope`) that it spawns and joins before
//! returning. It is the one primitive the flow needs: *map an index range
//! over immutable shared data, with per-thread mutable state, into one
//! result per index*.
//!
//! # Designs are the unit of parallelism
//!
//! The one parallel section in the workspace is the flow's design fan-out
//! (`xsfq_core::SynthesisFlow::run_many_isolated`): each item is a whole
//! synthesis job. Everything inside one design — every optimization pass,
//! cut enumeration, the polarity search, mapping and the timing sweeps —
//! runs sequentially on the thread that claimed the design; on two cores,
//! splitting one design's passes across a pool measured slower than one
//! thread. The serving daemon gets its parallelism from its worker shards
//! instead, each running one job at a time. A job's result is a pure
//! function of its design, so a batch's results are identical for every
//! pool size.
//!
//! # Work distribution
//!
//! Every call maps a slice built before the call, and no item adds items,
//! so there is nothing to steal: participants claim the next index from
//! one shared counter until it passes the end. A counter rather than fixed
//! blocks because item costs vary widely — `run_many`'s designs differ
//! ~70× — and a participant stuck on one expensive item must not hold back
//! the items after it. The flow fans out once per batch, so spawning the
//! threads per call costs little next to one design's synthesis, and no
//! thread outlives the call that spawned it.
//!
//! The `model_gate` suite explores the cancel token (with a seeded mutation
//! it must catch) exhaustively under the [`mod@sync`] facade's `model`
//! runtime, Miri runs the unit tests for UB, and `tools/check_ordering.sh`
//! audits that every non-SeqCst atomic op carries an `// Ordering:`
//! justification. The crate forbids `unsafe`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sync;

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::time::Instant;
use std::any::Any;
use std::panic;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
// The fan-out's index counter and threads are std's even under
// `--features model`: `xsfq_model` has no scoped threads, and its atomics
// only work inside `Explorer::check`, so a modeled counter would break
// every map run outside a model test.
use std::sync::atomic::AtomicUsize;
use std::thread;

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/// Why a [`CancelToken`] reports itself cancelled.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called.
    Explicit,
    /// The token's deadline passed.
    Deadline,
}

/// A cooperative cancellation token: a shared atomic flag plus an optional
/// per-handle deadline.
///
/// Cloning shares the flag — cancelling any clone cancels them all — while
/// [`CancelToken::with_timeout`] derives a handle that *additionally*
/// expires at an instant of its own (the flow's job runner derives one per
/// job from the batch-wide token). Checking is cheap (one atomic load, plus
/// one monotonic-clock read when a deadline is set), so long-running work
/// can poll at every natural boundary: the pass engine checks between
/// passes and every few hundred nodes inside a pass, which bounds
/// cancellation latency to that much work.
///
/// A token that is never cancelled and has no deadline never reports
/// cancelled; [`CancelToken::default`] is exactly that, so APIs can thread a
/// token unconditionally.
pub type CancelToken = CancelTokenImpl<0>;

/// The implementation behind [`CancelToken`], parameterized by a seeded
/// mutation selector for the model-checker gates (`MUT == 0`, the only
/// variant the alias exposes, is the correct code; the branches on other
/// values are const-folded away in normal builds). See `mutants`, which
/// exists only under the `model` feature.
#[derive(Clone, Debug, Default)]
pub struct CancelTokenImpl<const MUT: u8> {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl<const MUT: u8> CancelTokenImpl<MUT> {
    /// Fresh token: not cancelled, no deadline.
    pub fn new() -> CancelTokenImpl<MUT> {
        CancelTokenImpl::default()
    }

    /// This handle, expiring at `deadline` (the shared flag is unchanged —
    /// other clones do not inherit the deadline).
    #[must_use]
    fn with_deadline(&self, deadline: Instant) -> CancelTokenImpl<MUT> {
        CancelTokenImpl {
            flag: Arc::clone(&self.flag),
            deadline: Some(match self.deadline {
                Some(own) => own.min(deadline),
                None => deadline,
            }),
        }
    }

    /// This handle, expiring `timeout` from now.
    #[must_use]
    pub fn with_timeout(&self, timeout: Duration) -> CancelTokenImpl<MUT> {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Request cancellation on every clone of this token.
    pub fn cancel(&self) {
        // Ordering: Release pairs with the Acquire load in is_cancelled /
        // cause, so everything the canceller wrote before cancelling (e.g.
        // the reason for the cancellation) is visible to work that observes
        // the flag and stops. Mutation 1 drops the edge for the model gate.
        let ord = if MUT == 1 {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.flag.store(true, ord);
    }

    /// Whether work observing this token should stop (explicitly cancelled
    /// or past the deadline).
    pub fn is_cancelled(&self) -> bool {
        // Ordering: Acquire pairs with the Release store in cancel — an
        // observer that reads true also sees the canceller's prior writes.
        let ord = if MUT == 1 {
            Ordering::Relaxed
        } else {
            Ordering::Acquire
        };
        self.flag.load(ord) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Why the token is cancelled, or `None` when it is not. An explicit
    /// [`CancelToken::cancel`] wins over a passed deadline.
    pub fn cause(&self) -> Option<CancelCause> {
        // Ordering: Acquire — same edge as is_cancelled.
        if self.flag.load(Ordering::Acquire) {
            Some(CancelCause::Explicit)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(CancelCause::Deadline)
        } else {
            None
        }
    }

    /// The handle's deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

// ---------------------------------------------------------------------------
// Panic payloads
// ---------------------------------------------------------------------------

/// Extract the conventional panic text from a payload: the `&'static str`
/// of `panic!("...")`, the `String` of `panic!("{x}")`, or a placeholder
/// for custom payloads.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Seeded-mutation variant of the cancel token, compiled only for the
/// model-checker gate. It weakens exactly one ordering of the shipped code
/// path; the `model_gate` suite proves the checker catches it, which is what
/// licenses the green run on the unmutated token.
#[cfg(feature = "model")]
#[doc(hidden)]
pub mod mutants {
    /// `CancelToken` flag accesses demoted to Relaxed: cancellation no
    /// longer publishes the canceller's prior writes.
    pub type CancelTokenRelaxed = super::CancelTokenImpl<1>;
}

/// The width of a data-parallel map.
///
/// A `ThreadPool` holds no threads: each [`ThreadPool::map_init`] call runs
/// on the calling thread plus up to `n − 1` scoped threads it spawns and
/// joins before returning, so `n == 1` means fully sequential. One pool may
/// be shared by any number of callers.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Pool with `threads` participants (clamped to at least 1). Spawns
    /// nothing.
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The process-wide pool, sized by [`default_threads`].
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| ThreadPool::new(default_threads()))
    }

    /// Number of participants (spawned threads + the calling thread) a map
    /// over at least that many items runs on.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Deterministic parallel map with per-thread state.
    ///
    /// Computes `f(&mut state, i, &items[i])` for every index and returns
    /// the results in item order. Each participating thread builds its own
    /// `state` with `init` once per call; `f` must derive its result from
    /// `(i, items[i])` alone (state may cache but not change results),
    /// which makes the output independent of scheduling and thread count.
    ///
    /// The calling thread and `min(n, items.len()) − 1` spawned threads
    /// (named `xsfq-exec-{i}`) claim indices one at a time, in ascending
    /// order, from a shared counter, so a caller that sorts its items
    /// largest first gets longest-first scheduling: the expensive items
    /// start together and the cheap tail fills in around them. Each item
    /// should be coarse — the flow maps whole designs — because a call
    /// spawns and joins its threads. With one participant the map runs
    /// inline, in index order.
    ///
    /// If `f` panics, the panic propagates with its original payload once
    /// every participant has stopped (the calling thread's own panic first,
    /// then the spawned threads' in spawn order); results computed so far
    /// are dropped.
    pub fn map_init<I, T, S>(
        &self,
        items: &[I],
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, &I) -> T + Sync,
    ) -> Vec<T>
    where
        I: Sync,
        T: Send,
    {
        let next = AtomicUsize::new(0);
        // One participant: claim indices until the counter passes the end,
        // keeping each result with its index.
        let participate = || {
            let mut state = init();
            let mut claimed = Vec::new();
            loop {
                // Ordering: Relaxed — the read-modify-write alone hands each
                // index to exactly one participant (all RMWs on one atomic
                // are totally ordered); no data is published through the
                // counter, and the results reach the caller through the
                // join.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return claimed;
                };
                claimed.push((i, f(&mut state, i, item)));
            }
        };
        let mut claimed = thread::scope(|scope| {
            let spawned: Vec<_> = (1..self.threads.min(items.len()))
                .map(|id| {
                    thread::Builder::new()
                        .name(format!("xsfq-exec-{id}"))
                        .spawn_scoped(scope, participate)
                        .expect("spawn executor thread")
                })
                .collect();
            let mut claimed = participate();
            for handle in spawned {
                match handle.join() {
                    Ok(theirs) => claimed.extend(theirs),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
            claimed
        });
        claimed.sort_unstable_by_key(|&(i, _)| i);
        claimed.into_iter().map(|(_, value)| value).collect()
    }
}

/// The width of [`ThreadPool::global`] — the flow's design fan-out — and
/// the daemon's default shard count: the
/// `XSFQ_THREADS` environment variable when it holds a positive integer
/// (surrounding whitespace allowed), otherwise
/// [`std::thread::available_parallelism`], or 1 when that is unknown.
pub fn default_threads() -> usize {
    let hardware = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var("XSFQ_THREADS") {
        // `0` means "no override"; a malformed value must not silently
        // collapse the fan-out to one thread, so it also falls through to
        // the hardware default.
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => hardware(),
        },
        Err(_) => hardware(),
    }
}

// The unit tests exercise the std-backed build; under the model feature the
// primitives only work inside xsfq_model::check (see tests/model_gate.rs).
#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::{Condvar, Mutex};

    const FIVE_S: Duration = Duration::from_secs(5);

    #[test]
    fn map_init_matches_sequential_map() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let got = pool.map_init(
            &items,
            || 0u64,
            |acc, _, &x| {
                *acc += x; // per-thread state must not affect results
                x * x + 1
            },
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn map_init_is_identical_across_pool_sizes() {
        let items: Vec<u32> = (0..500).rev().collect();
        let run = |threads| {
            ThreadPool::new(threads).map_init(&items, Vec::<u32>::new, |scratch, i, &x| {
                scratch.push(x);
                (i as u32).wrapping_mul(x).rotate_left(x % 31)
            })
        };
        let base = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), base, "threads = {threads}");
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ThreadPool::new(3);
        for round in 0..10u64 {
            let items: Vec<u64> = (0..200 + round).collect();
            let got = pool.map_init(&items, || (), |_, _, &x| x + round);
            assert!(got.iter().zip(&items).all(|(g, &x)| *g == x + round));
        }
    }

    #[test]
    fn map_init_parallelizes_small_inputs() {
        let pool = ThreadPool::new(4);
        // A handful of coarse items still runs as a parallel section.
        let items: Vec<usize> = (0..8).collect();
        let got = pool.map_init(&items, || (), |_, _, &x| x * 3);
        assert_eq!(got, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        // Identical results for every pool size (the determinism contract).
        let seq = ThreadPool::new(1).map_init(&items, || (), |_, _, &x| x * 3);
        assert_eq!(got, seq);
    }

    #[test]
    fn one_thread_pool_runs_inline_in_order() {
        let pool = ThreadPool::new(1);
        let items: Vec<usize> = (0..256).collect();
        let caller = std::thread::current().id();
        // A 1-thread pool spawns no worker: the section runs inline on the
        // calling thread in ascending index order — observable, unlike "no
        // overhead".
        let seen = std::sync::Mutex::new(Vec::new());
        let got = pool.map_init(
            &items,
            || (),
            |_, i, &x| {
                assert_eq!(std::thread::current().id(), caller);
                seen.lock().unwrap().push(i);
                x + 1
            },
        );
        assert_eq!(got, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (0..items.len()).collect::<Vec<_>>());
    }

    #[test]
    fn a_blocked_item_does_not_hold_back_the_next_index() {
        // Item 0 blocks until item 1 has started, so item 1 must start on
        // the other participant while item 0 runs. Claimed in index order,
        // no other item can start before it.
        let pool = ThreadPool::new(2);
        let items: Vec<usize> = (0..8).collect();
        let started = std::sync::Mutex::new(Vec::new());
        let item_1_started = std::sync::Condvar::new();
        pool.map_init(
            &items,
            || (),
            |_, i, _| {
                let mut log = started.lock().unwrap();
                log.push(i);
                match i {
                    0 => drop(
                        item_1_started
                            .wait_timeout_while(log, Duration::from_secs(5), |log| {
                                !log.contains(&1)
                            })
                            .unwrap(),
                    ),
                    1 => item_1_started.notify_all(),
                    _ => {}
                }
            },
        );
        let started = started.into_inner().unwrap();
        let before_1: Vec<usize> = started.iter().take_while(|&&i| i != 1).copied().collect();
        assert_eq!(before_1, [0], "items started before item 1: {started:?}");
    }

    #[test]
    fn spawned_participant_panic_reaches_the_caller_with_its_payload() {
        // The caller's item waits (up to 5 s) for the spawned thread's item
        // to start, so each participant runs one; the spawned one panics,
        // and the caller must see its `String` payload, unwrapped.
        let pool = ThreadPool::new(2);
        let caller = thread::current().id();
        let (started, cv) = (Mutex::new(false), Condvar::new());
        let boom = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_init(
                &[0usize, 1],
                || (),
                |_, _, _| {
                    if thread::current().id() != caller {
                        *started.lock().unwrap() = true;
                        cv.notify_all();
                        panic!("intentional payload {}", 41 + 1);
                    }
                    let _ = cv.wait_timeout_while(started.lock().unwrap(), FIVE_S, |s| !*s);
                },
            )
        }));
        let payload = boom.expect_err("a spawned participant's panic must propagate");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("intentional payload 42"));
        assert_eq!(pool.map_init(&[1usize, 2], || (), |_, _, &x| x + 1), [2, 3]);
    }

    #[test]
    fn a_map_runs_on_at_most_one_thread_per_item_the_caller_among_them() {
        let pool = ThreadPool::new(8);
        let caller = thread::current().id();
        // Each item waits (up to 5 s) until all three have started, so each
        // holds a participant of its own.
        let (started, cv) = (Mutex::new(Vec::new()), Condvar::new());
        pool.map_init(
            &[0usize, 1, 2],
            || (),
            |_, _, _| {
                let mut ids = started.lock().unwrap();
                ids.push(thread::current().id());
                cv.notify_all();
                let _ = cv.wait_timeout_while(ids, FIVE_S, |ids| ids.len() < 3);
            },
        );
        let ids: HashSet<_> = started.into_inner().unwrap().into_iter().collect();
        assert!(ids.len() <= 3 && ids.contains(&caller), "{ids:?}");
        // One item: nothing is spawned.
        let one = pool.map_init(&[0usize], || (), |_, _, _| thread::current().id());
        assert_eq!(one, [caller]);
    }

    #[test]
    fn cancel_token_flag_is_shared_and_deadline_is_per_handle() {
        let base = CancelToken::new();
        assert!(!base.is_cancelled());
        assert_eq!(base.cause(), None);

        let expired = base.with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled(), "past deadline must read cancelled");
        assert_eq!(expired.cause(), Some(CancelCause::Deadline));
        assert!(!base.is_cancelled(), "deadline must not leak to the base");

        let far = base.with_timeout(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        // Deriving a deadline keeps the earlier of the two.
        let near = expired.with_timeout(Duration::from_secs(3600));
        assert!(near.is_cancelled(), "deadlines only tighten");

        base.cancel();
        assert!(base.is_cancelled());
        assert!(far.is_cancelled(), "cancel reaches every clone");
        assert_eq!(far.cause(), Some(CancelCause::Explicit));
        assert_eq!(
            expired.cause(),
            Some(CancelCause::Explicit),
            "explicit cancel wins over a passed deadline"
        );
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let items: Vec<usize> = (0..256).collect();
        let boom = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_init(
                &items,
                || (),
                |_, _, &x| {
                    assert!(x != 100, "intentional test panic");
                    x
                },
            )
        }));
        assert!(boom.is_err());
        // The pool must stay usable after a panicked section.
        let ok = pool.map_init(&items, || (), |_, _, &x| x + 1);
        assert_eq!(ok[0], 1);
    }
}
