//! # xsfq-exec — vendored data-parallel executor
//!
//! A zero-dependency (std-only) runtime for batch synthesis: [`ThreadPool`]
//! is a persistent pool of parked worker threads driving a deterministic
//! data-parallel map ([`ThreadPool::map_init`]). The workspace builds
//! without crates.io dependencies, so this plays the role rayon-core would
//! otherwise play — scoped down to the one primitive the flow needs: *map
//! an index range over immutable shared data, with per-thread mutable
//! state, into a result slot per index*.
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
//! Every parallel section maps a slice built before the call, and no item
//! adds items, so there is nothing to steal: participants claim the next
//! index from one shared counter until it passes the end. A counter rather
//! than fixed blocks because item costs vary widely — `run_many`'s designs
//! differ ~70× — and a participant stuck on one expensive item must not
//! hold back the items after it.
//!
//! The `model_gate` suite explores the cancel token (with a seeded mutation
//! it must catch) and pool dispatch exhaustively under the [`mod@sync`]
//! facade's `model` runtime, Miri runs the unit tests for UB, and
//! `tools/check_ordering.sh` audits that every non-SeqCst atomic op carries
//! an `// Ordering:` justification.

#![warn(missing_docs)]

pub mod sync;

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::thread::{Builder as ThreadBuilder, JoinHandle};
use crate::sync::time::Instant;
use crate::sync::{Condvar, Mutex};
use std::any::Any;
use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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
/// [`CancelToken::with_deadline`] / [`CancelToken::with_timeout`] derive a
/// handle that *additionally* expires at an instant of its own (the flow's
/// job runner derives one per job from the batch-wide token). Checking is
/// cheap (one atomic load, plus one monotonic-clock read when a deadline is
/// set), so long-running work can poll at every natural boundary: the pass
/// engine checks between passes and every few hundred nodes inside a pass,
/// which bounds cancellation latency to that much work.
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
    pub fn with_deadline(&self, deadline: Instant) -> CancelTokenImpl<MUT> {
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
// Worker panic payloads
// ---------------------------------------------------------------------------

/// The panic payload of the **first** worker thread that panicked inside a
/// parallel section, re-raised by the dispatching thread.
///
/// The original payload is preserved (downcast [`WorkerPanic::payload`] to
/// recover it); [`WorkerPanic::message`] extracts the conventional
/// `&str`/`String` panic text for error reports. The job-runner layers
/// above catch this to attribute a fault to a design and pass instead of a
/// bare "a worker thread panicked".
pub struct WorkerPanic {
    /// Participant index (1-based: participant 0 is the dispatcher, whose
    /// panics propagate unwrapped) of the first worker that panicked.
    pub worker: usize,
    /// The worker's original panic payload.
    pub payload: Box<dyn Any + Send>,
}

impl WorkerPanic {
    /// The human-readable panic message, when the payload is the
    /// conventional `&str` or `String` (as produced by `panic!`).
    pub fn message(&self) -> &str {
        panic_message(self.payload.as_ref())
    }
}

impl fmt::Debug for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message())
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker thread {} panicked: {}",
            self.worker,
            self.message()
        )
    }
}

// A caught `WorkerPanic` is routinely boxed into `dyn Error` chains by the
// layers that catch it (job runners, the serving daemon).
impl std::error::Error for WorkerPanic {}

/// Extract the conventional panic text from a payload: the `&'static str`
/// of `panic!("...")`, the `String` of `panic!("{x}")`, the message of a
/// re-raised [`WorkerPanic`], or a placeholder for custom payloads.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else if let Some(w) = payload.downcast_ref::<WorkerPanic>() {
        w.message()
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

type Job = *const (dyn Fn(usize) + Sync);

/// Raw job pointer made sendable; validity is guaranteed by the dispatch
/// protocol (the dispatcher blocks until every worker finished the job).
struct SendJob(Job);
// SAFETY: the pointee is `Sync` (the `Job` type requires it) and the
// dispatch protocol keeps it alive across the send — the dispatcher does
// not return from `run` until every worker has finished calling it.
unsafe impl Send for SendJob {}

struct JobSlot {
    epoch: u64,
    job: Option<SendJob>,
    running: usize,
    /// First worker panic of the current section: `(worker id, payload)`.
    /// Only the first is kept — it is the one the dispatcher re-raises.
    panic: Option<(usize, Box<dyn Any + Send>)>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<JobSlot>,
    work: Condvar,
    done: Condvar,
}

/// Persistent thread pool.
///
/// `ThreadPool::new(n)` spawns `n - 1` parked workers; the calling thread is
/// always participant 0 of a parallel section, so `n == 1` means fully
/// sequential (no threads are spawned at all). One pool may be shared by
/// many callers — parallel sections are serialized through an internal lock,
/// never nested.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes whole parallel sections (the pool runs one job at a time).
    run_lock: Mutex<()>,
}

impl ThreadPool {
    /// Pool with `threads` participants (clamped to at least 1).
    pub fn new(threads: usize) -> ThreadPool {
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                epoch: 0,
                job: None,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads.max(1))
            .map(|wid| {
                let shared = Arc::clone(&shared);
                ThreadBuilder::new()
                    .name(format!("xsfq-exec-{wid}"))
                    .spawn(move || worker_loop(&shared, wid))
                    .expect("spawn executor worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            run_lock: Mutex::new(()),
        }
    }

    /// The process-wide pool, sized by [`default_threads`].
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| ThreadPool::new(default_threads()))
    }

    /// Number of participants (workers + the calling thread).
    pub fn num_threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Deterministic parallel map with per-thread state.
    ///
    /// Computes `f(&mut state, i, &items[i])` for every index and returns
    /// the results in item order. Each participating thread builds its own
    /// `state` with `init` once per call; `f` must derive its result from
    /// `(i, items[i])` alone (state may cache but not change results),
    /// which makes the output independent of scheduling and thread count.
    ///
    /// From two items up, participants claim indices one at a time, in
    /// ascending order, from a shared counter, so a caller that sorts its
    /// items largest first gets longest-first scheduling: the expensive
    /// items start together and the cheap tail fills in around them. Each
    /// item should be coarse — the flow maps whole designs — because a
    /// section costs a wake-up and a join.
    ///
    /// `f` must not run a parallel section on the *same* pool: sections
    /// are serialized, so the nested one would deadlock.
    ///
    /// If `f` panics, the panic propagates after all workers stop, and
    /// results computed so far are **leaked** (not dropped): slots are
    /// written in claim order, so which are initialized is unknowable
    /// without extra bookkeeping, and leaking is the safe failure mode.
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
        let n = items.len();
        if self.num_threads() == 1 || n < 2 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(&mut state, i, item))
                .collect();
        }

        let mut results: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
        // SAFETY: MaybeUninit contents are allowed to be uninitialized; the
        // vector never drops T (only the transmuted result does, once every
        // slot has been written exactly once).
        unsafe { results.set_len(n) };
        let out = SendPtr(results.as_mut_ptr() as *mut T);
        let next = AtomicUsize::new(0);

        let body = move |_wid: usize| {
            let mut state = init();
            loop {
                // Ordering: Relaxed — the read-modify-write alone hands each
                // index to exactly one participant (all RMWs on one atomic
                // are totally ordered); no data is published through the
                // counter, and the results reach the dispatcher through the
                // job-slot mutex when the section ends.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(&mut state, i, &items[i]);
                // SAFETY: the counter hands index `i` to exactly one
                // participant, so this slot is written exactly once.
                unsafe { out.slot(i).write(value) };
            }
        };
        self.run(&body);

        // SAFETY: every participant stopped only once the counter passed
        // `n`, so every index was claimed and its slot written; all `n`
        // slots are initialized, and MaybeUninit<T> and T share layout.
        let mut results = ManuallyDrop::new(results);
        unsafe { Vec::from_raw_parts(results.as_mut_ptr() as *mut T, n, results.capacity()) }
    }

    /// Run `body(participant_index)` on every participant and wait for all
    /// of them. Parallel sections are serialized; nesting (calling back into
    /// the same pool from inside `body`) would deadlock and is forbidden.
    fn run(&self, body: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            body(0);
            return;
        }
        // A panicking section poisons the lock while unwinding; that is
        // benign here (the section waited for every worker before
        // unwinding), so recover instead of propagating the poison.
        let _section = self
            .run_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            let mut slot = self.shared.slot.lock().expect("job slot poisoned");
            // SAFETY: `body` outlives the job because this function blocks
            // below until `running` returns to zero.
            let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
            slot.job = Some(SendJob(body_static));
            slot.epoch += 1;
            slot.running = self.handles.len();
            self.shared.work.notify_all();
        }
        // The dispatcher is participant 0.
        let main_result = panic::catch_unwind(AssertUnwindSafe(|| body(0)));
        let worker_panic = {
            let mut slot = self.shared.slot.lock().expect("job slot poisoned");
            while slot.running > 0 {
                slot = self.shared.done.wait(slot).expect("job slot poisoned");
            }
            slot.job = None;
            slot.panic.take()
        };
        if let Err(payload) = main_result {
            panic::resume_unwind(payload);
        }
        if let Some((worker, payload)) = worker_panic {
            // Re-raise the first worker's original payload, wrapped so the
            // catcher learns which worker it was (and the message survives
            // for error reports) instead of a generic pool panic.
            panic::panic_any(WorkerPanic { worker, payload });
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("job slot poisoned");
            slot.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.num_threads())
            .finish()
    }
}

struct SendPtr<T>(*mut T);
// SAFETY: a raw pointer is Send/Sync-neutral by itself; every dereference
// site (`slot` callers) separately proves disjoint access — each index is
// written by exactly one thread — so sharing the pointer value is sound
// for `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — the pointer value is shared, disjointness of the
// actual accesses is proven at each dereference site.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to slot `i`. A method (rather than direct field access) so
    /// closures capture the whole `SendPtr` — the `Sync` carrier — instead
    /// of the raw `*mut T` field, which is not `Sync`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the allocation `self.0` points into, and
    /// the caller must uphold the aliasing rules for whatever it does with
    /// the returned pointer.
    #[inline]
    unsafe fn slot(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

fn worker_loop(shared: &Shared, wid: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().expect("job slot poisoned");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen {
                    seen = slot.epoch;
                    break slot.job.as_ref().expect("job published with epoch").0;
                }
                slot = shared.work.wait(slot).expect("job slot poisoned");
            }
        };
        // SAFETY: the dispatcher keeps `job` alive until `running` drops to
        // zero, which only happens after this call returns.
        let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(wid) }));
        let mut slot = shared.slot.lock().expect("job slot poisoned");
        if let Err(payload) = result {
            // First worker wins: later panics of the same section are
            // usually knock-on effects of the same fault.
            if slot.panic.is_none() {
                slot.panic = Some((wid, payload));
            }
        }
        slot.running -= 1;
        if slot.running == 0 {
            shared.done.notify_all();
        }
    }
}

/// The worker count of [`ThreadPool::global`] — the width of the flow's
/// design fan-out — and the daemon's default shard count: the
/// `XSFQ_THREADS` environment variable when it holds a positive integer
/// (surrounding whitespace allowed), otherwise
/// [`std::thread::available_parallelism`], or 1 when that is unknown.
pub fn default_threads() -> usize {
    let hardware = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var("XSFQ_THREADS") {
        // `0` means "no override"; a malformed value must not silently
        // collapse the pool to one thread, so it also falls through to the
        // hardware default.
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
    fn worker_panic_payload_and_id_are_preserved() {
        // Pin the panic to the last index and stall whichever participant
        // claims index 0, so the others race through the rest; when a
        // *worker* (wid >= 1) hits the panic, the dispatcher must re-raise
        // a WorkerPanic carrying the original message and the worker id.
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..512).collect();
        let n = items.len();
        let boom = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_init(
                &items,
                || (),
                |_, wid_probe, &x| {
                    // Stall index 0's participant while the others claim
                    // the tail indices.
                    if x == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                    if x == n - 1 {
                        panic!("intentional payload {}", 41 + 1);
                    }
                    let _ = wid_probe;
                },
            )
        }));
        let payload = boom.expect_err("section must panic");
        match payload.downcast::<WorkerPanic>() {
            Ok(wp) => {
                assert_eq!(wp.message(), "intentional payload 42");
                assert!(
                    (1..4).contains(&wp.worker),
                    "panic must be attributed to a worker, got {}",
                    wp.worker
                );
                assert!(wp.to_string().contains("intentional payload 42"));
            }
            Err(other) => {
                // The dispatcher itself claimed the poisoned index: the
                // original payload propagates raw.
                assert_eq!(panic_message(other.as_ref()), "intentional payload 42");
            }
        }
        // The pool stays usable either way.
        let ok = pool.map_init(&items, || (), |_, _, &x| x + 1);
        assert_eq!(ok[0], 1);
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
