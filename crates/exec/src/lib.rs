//! # xsfq-exec — vendored work-stealing executor
//!
//! A zero-dependency (std-only) work-stealing runtime for the synthesis
//! passes: [`Deque`] is a fixed-capacity Chase-Lev work-stealing deque and
//! [`ThreadPool`] a persistent pool of parked worker threads driving a
//! deterministic data-parallel map ([`ThreadPool::map_init`]). The container
//! has no crates.io access, so this plays the role rayon-core would
//! otherwise play — scoped down to the one primitive the optimization
//! passes need: *map an index range over immutable shared data, with
//! per-thread mutable scratch, into a result slot per index*.
//!
//! # Why the commit phase stays single-threaded
//!
//! The resynthesis passes ([`rewrite`](../xsfq_aig/opt/fn.rewrite.html) and
//! friends) split every pass into an **evaluate** phase — per-node cut
//! functions, MFFC sizes and synthesis costs, all pure functions of the
//! *input* graph — and a **commit** phase that builds replacements into the
//! *output* graph. Only the evaluate phase runs on this executor: commit
//! order determines node ids, structural-hash sharing and therefore the
//! result graph, so commits are merged single-threaded in ascending node
//! index. Because evaluation results are pure (scheduling cannot change
//! them), the final graph is **bit-identical** for every thread count; the
//! `parallel_identity` proptest in `xsfq-aig` pins this in CI.
//!
//! # Deque invariants (Chase-Lev)
//!
//! * Tasks are plain `usize` indices into the caller's item slice.
//! * Exactly one owner thread calls [`Deque::push`] / [`Deque::pop`]
//!   (bottom end, LIFO); any number of threads call [`Deque::steal`]
//!   (top end, FIFO). Ownership is by convention — the pool gives each
//!   participant its own deque.
//! * Capacity is fixed at construction and must cover every task pushed;
//!   [`ThreadPool::map_init`] pre-distributes all indices before the
//!   parallel section starts, so the buffer never needs to grow and
//!   `Empty` is a *stable* answer once all pushes have happened-before the
//!   steal (a `Retry` only signals a lost CAS race, not emptiness).
//!
//! # Memory-ordering contract (Lê et al., PPoPP'13)
//!
//! The orderings are exactly those of Lê, Pop, Cohen & Zappa Nardelli,
//! *Correct and Efficient Work-Stealing for Weak Memory Models*, with the
//! array accesses expressed as `Relaxed` atomic slot accesses (the paper's
//! C11 formulation). Which barrier pairs with which access, and what each
//! pair rules out:
//!
//! * **`push` release fence → `steal` acquire `bottom` load.** `push`
//!   writes the slot (`Relaxed`), issues `fence(Release)`, then publishes
//!   `bottom` (`Relaxed`). A stealer's `Acquire` load of `bottom` that
//!   observes the new value therefore also observes the slot contents —
//!   without the fence the bottom store may overtake the slot store
//!   (store→store reordering) and a thief reads a stale task (the *lost /
//!   garbage task* bug; model-gate mutation `DequePushFenceRemoved`).
//! * **`pop` SeqCst fence ↔ `steal` SeqCst fence.** `pop` decrements
//!   `bottom` (`Relaxed`), then `fence(SeqCst)`, then reads `top`; `steal`
//!   reads `top` (`Acquire`), then `fence(SeqCst)`, then reads `bottom`.
//!   The two fences order the owner's bottom-decrement against the thief's
//!   bottom-read in a single total order: either the thief sees the
//!   decrement (and backs off the contended slot) or the owner sees the
//!   thief's `top` advance. Weakening the `pop` fence lets the decrement
//!   sit in the owner's store buffer while a thief still sees the old
//!   `bottom` — both sides take the same last task (the *double take* bug;
//!   mutation `DequePopFenceWeakened`).
//! * **`top` CAS (`SeqCst`) in `pop`/`steal`.** The single arbitration
//!   point for the last-task race: at most one CAS on a given `t` value
//!   succeeds, so every task is handed out exactly once. `pop` only needs
//!   the CAS when `t == b` (one task left); skipping it is the logic
//!   mutation `DequeLastItemCasRemoved`.
//! * **`steal`'s `Acquire` load of `top`** pairs with the previous
//!   winner's `SeqCst` CAS, so a stealer that observes `top = t` also
//!   observes everything published before task `t-1` was taken (slot
//!   recycling after wrap-around stays safe within the capacity bound).
//!
//! The contract is enforced three ways: the `model_gate` suite explores
//! these races exhaustively under the [`mod@sync`] facade's `model`
//! runtime (each bullet's mutation must make the suite fail), Miri runs
//! the unit tests for UB, and `tools/check_ordering.sh` audits that every
//! non-SeqCst atomic op carries an `// Ordering:` justification.

#![warn(missing_docs)]

pub mod sync;

use crate::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicUsize, Ordering};
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
/// engine checks between passes and between evaluate batches, which bounds
/// cancellation latency to one batch of work.
///
/// A token that is never cancelled and has no deadline never reports
/// cancelled; [`CancelToken::default`] is exactly that, so APIs can thread a
/// token unconditionally.
pub type CancelToken = CancelTokenImpl<0>;

/// The implementation behind [`CancelToken`], parameterized by a seeded
/// mutation selector for the model-checker gates (`MUT == 0`, the only
/// variant the alias exposes, is the correct code; the branches on other
/// values are const-folded away in normal builds). See [`mutants`].
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

/// Result of a [`Deque::steal`] attempt.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost a race against the owner or another stealer; try again.
    Retry,
    /// Stole the given task.
    Success(usize),
}

/// A fixed-capacity Chase-Lev work-stealing deque over `usize` tasks.
///
/// See the module docs for the ownership and capacity invariants, and the
/// *Memory-ordering contract* section for why each barrier is where it is.
pub type Deque = DequeImpl<0>;

/// The implementation behind [`Deque`], parameterized by a seeded mutation
/// selector for the model-checker gates. `MUT == 0` — the only variant the
/// [`Deque`] alias exposes — is the correct Lê et al. code; the non-zero
/// branches reintroduce one classic bug each (see [`mutants`]) and are
/// const-folded away in normal builds.
///
/// Task slots are `Relaxed` atomics (the paper's C11 array formulation):
/// a slot written by `push` races benignly with stale reads in `steal`,
/// whose CAS discards the value unless the slot was legitimately claimed.
pub struct DequeImpl<const MUT: u8> {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buf: Box<[AtomicUsize]>,
    mask: usize,
}

impl<const MUT: u8> DequeImpl<MUT> {
    /// Deque able to hold `cap` outstanding tasks (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(cap: usize) -> DequeImpl<MUT> {
        let cap = cap.max(2).next_power_of_two();
        DequeImpl {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buf: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap - 1,
        }
    }

    /// Push a task on the bottom end. Owner thread only.
    ///
    /// # Panics
    ///
    /// Panics if the deque is full (the fixed capacity must be sized to the
    /// total task count — see the module docs).
    pub fn push(&self, task: usize) {
        // Ordering: Relaxed — only the owner writes bottom, so it reads
        // its own latest value; no other thread's writes are involved.
        let b = self.bottom.load(Ordering::Relaxed);
        // Ordering: Acquire pairs with the stealers' SeqCst CAS on top;
        // observing top = t here means slot t-1's consumption is complete,
        // so reusing its slot (wrap-around) cannot tear a stealer's read.
        let t = self.top.load(Ordering::Acquire);
        assert!(
            (b - t) as usize <= self.mask,
            "deque overflow: capacity must cover all outstanding tasks"
        );
        // Ordering: Relaxed slot store — publication is the release fence
        // below, not the slot access itself (Lê et al.'s C11 array write).
        self.buf[b as usize & self.mask].store(task, Ordering::Relaxed);
        if MUT != 2 {
            // Publish the slot before the new bottom becomes visible to
            // stealers (pairs with steal's Acquire load of bottom).
            // Mutation 2 removes the fence: bottom may overtake the slot
            // write and a thief steals a stale task.
            fence(Ordering::Release);
        }
        // Ordering: Relaxed — the release fence above already orders the
        // slot contents before this store for any thread that reads it.
        self.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Pop a task from the bottom end (most recently pushed). Owner only.
    pub fn pop(&self) -> Option<usize> {
        // Ordering: Relaxed load + Relaxed store — owner-only access to
        // bottom; cross-thread visibility is the SeqCst fence's job.
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // Ordering: the store of `bottom` must be visible before `top` is
        // read, or a concurrent stealer and this pop could both take the
        // last task. Pairs with the SeqCst fence in steal. Mutation 1
        // weakens it to a release fence, which does not stop the bottom
        // store from sitting in the owner's store buffer past the top read.
        if MUT == 1 {
            fence(Ordering::Release);
        } else {
            fence(Ordering::SeqCst);
        }
        // Ordering: Relaxed — ordered against the stealers by the fence
        // just above; an Acquire here would add nothing the fence pairing
        // does not already give.
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            // Ordering: Relaxed slot load — the owner wrote this slot
            // itself (t <= b proves it is below every stealable index
            // consumed so far), so no synchronization is needed to read it.
            let task = self.buf[b as usize & self.mask].load(Ordering::Relaxed);
            if t == b && MUT != 3 {
                // Single task left: race the stealers for it. The CAS is
                // SeqCst like the stealers' so exactly one side wins.
                // Ordering: Relaxed on failure — losing means a stealer
                // took the task; nothing is read that needs its edge.
                // Mutation 3 skips the arbitration and keeps the task
                // unconditionally — the double-take logic bug.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                // Ordering: Relaxed — owner-only bottom reset (the next
                // push/pop re-reads it on this thread).
                self.bottom.store(b + 1, Ordering::Relaxed);
                won.then_some(task)
            } else {
                Some(task)
            }
        } else {
            // Ordering: Relaxed — owner-only bottom reset, as above.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Try to steal a task from the top end (least recently pushed).
    pub fn steal(&self) -> Steal {
        // Ordering: Acquire pairs with the previous winner's SeqCst CAS on
        // top: observing top = t also observes that task t-1 was fully
        // taken before this steal attempt starts.
        let t = self.top.load(Ordering::Acquire);
        // Pairs with the SeqCst fence in pop: either this thread sees the
        // owner's bottom decrement, or the owner sees this thread's top
        // CAS — never neither.
        fence(Ordering::SeqCst);
        // Ordering: Acquire pairs with push's release fence — a bottom
        // value covering slot t guarantees the slot's task is visible.
        let b = self.bottom.load(Ordering::Acquire);
        if t < b {
            // Ordering: Relaxed slot load — may race with a later push
            // recycling the slot, but the CAS below discards the value
            // unless this thread legitimately claimed index t.
            let task = self.buf[t as usize & self.mask].load(Ordering::Relaxed);
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                return Steal::Retry;
            }
            Steal::Success(task)
        } else {
            Steal::Empty
        }
    }
}

/// Seeded-mutation variants of the lock-free types, compiled only for the
/// model-checker gates. Each alias weakens exactly one ordering (or removes
/// one arbitration step) from the shipped code path; the `model_gate` suite
/// proves the checker catches every one of them, which is what licenses the
/// green run on the unmutated types.
#[cfg(feature = "model")]
#[doc(hidden)]
pub mod mutants {
    /// `pop`'s SeqCst fence weakened to Release: double-take of the last
    /// task (owner's bottom decrement hides in its store buffer).
    pub type DequePopFenceWeakened = super::DequeImpl<1>;
    /// `push`'s Release fence removed: a thief can observe the new bottom
    /// before the slot write (steals a stale/garbage task).
    pub type DequePushFenceRemoved = super::DequeImpl<2>;
    /// `pop`'s last-item CAS removed: owner and thief both take the final
    /// task even under sequential consistency.
    pub type DequeLastItemCasRemoved = super::DequeImpl<3>;
    /// `CancelToken` flag accesses demoted to Relaxed: cancellation no
    /// longer publishes the canceller's prior writes.
    pub type CancelTokenRelaxed = super::CancelTokenImpl<1>;
}

/// Below this many items [`ThreadPool::map_init`] runs inline on the calling
/// thread: waking the pool costs more than the work. Results are identical
/// either way (evaluation is scheduling-independent by construction).
pub const SEQUENTIAL_CUTOFF: usize = 64;

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

/// Persistent work-stealing thread pool.
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
    /// Participant cap installed by [`ThreadPool::scoped_budget`];
    /// `usize::MAX` means "no cap".
    budget: AtomicUsize,
}

/// RAII guard of a [`ThreadPool::scoped_budget`] call: restores the pool's
/// previous participant budget when dropped.
pub struct BudgetScope<'p> {
    pool: &'p ThreadPool,
    prev: usize,
}

impl Drop for BudgetScope<'_> {
    fn drop(&mut self) {
        // Ordering: Relaxed — the budget is advisory configuration read by
        // the same thread that dispatches sections (concurrent installs
        // are documented as unsupported); no data is published through it.
        self.pool.budget.store(self.prev, Ordering::Relaxed);
    }
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
            budget: AtomicUsize::new(usize::MAX),
        }
    }

    /// Cap the number of participants of the parallel sections dispatched
    /// while the returned guard lives (the cap is `min(n, num_threads)`,
    /// with `n` clamped to at least 1). Dropping the guard restores the
    /// previous budget.
    ///
    /// A budget of **1** takes the zero-overhead sequential path: no
    /// workers are woken, the section runs inline on the calling thread —
    /// identical to a 1-thread pool. Budgets above 1 still wake the whole
    /// pool, but only the first `n` participants receive work; results are
    /// bit-identical for every budget (the determinism contract of
    /// [`ThreadPool::map_init`] is scheduling-independent).
    ///
    /// The budget is a property of the pool handle, intended for pools
    /// owned by a single job runner (the serving daemon caps each job's
    /// worker count this way so one giant design cannot monopolize the
    /// machine). Sharing one pool between threads that install different
    /// budgets concurrently is unsupported — last writer wins.
    pub fn scoped_budget(&self, n: usize) -> BudgetScope<'_> {
        // Ordering: Relaxed — see BudgetScope::drop: advisory config, read
        // by the dispatching thread itself, publishes no data.
        let prev = self.budget.swap(n.max(1), Ordering::Relaxed);
        BudgetScope { pool: self, prev }
    }

    /// Participants the next parallel section will actually use: the pool
    /// size clamped by the current [`ThreadPool::scoped_budget`].
    pub fn effective_threads(&self) -> usize {
        // Ordering: Relaxed — see BudgetScope::drop: advisory config only.
        self.num_threads().min(self.budget.load(Ordering::Relaxed))
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
    /// `(i, items[i])` alone (state may cache/memoize but not change
    /// results), which makes the output independent of scheduling and
    /// thread count — the property the `optimize` determinism gate pins.
    ///
    /// Work distribution: indices are pre-pushed in contiguous blocks onto
    /// one Chase-Lev deque per participant; each participant drains its own
    /// deque bottom-up (ascending index order) and steals from the top of
    /// the others when empty.
    pub fn map_init<I, T, S>(
        &self,
        items: &[I],
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, &I) -> T + Sync,
    ) -> Vec<T>
    where
        I: Sync,
        T: Send,
        S: Send,
    {
        let mut states: Vec<S> = (0..self.num_threads()).map(|_| init()).collect();
        self.map_reuse(items, &mut states, f)
    }

    /// [`ThreadPool::map_init`] with caller-owned per-thread states.
    ///
    /// Participant `wid` works on `states[wid]` exclusively; the slice must
    /// hold at least [`ThreadPool::num_threads`] entries. Callers that map
    /// many batches reuse one state vector so per-thread arenas and memo
    /// tables stay warm across batches — the resynthesis passes' evaluate
    /// phase does exactly this. As with `map_init`, `f` must derive its
    /// result from `(i, items[i])` alone; state may only cache.
    ///
    /// If `f` panics, the panic propagates after all workers stop, and
    /// results computed so far are **leaked** (not dropped): slots are
    /// written in steal order, so which are initialized is unknowable
    /// without extra bookkeeping, and leaking is the safe failure mode.
    pub fn map_reuse<I, T, S>(
        &self,
        items: &[I],
        states: &mut [S],
        f: impl Fn(&mut S, usize, &I) -> T + Sync,
    ) -> Vec<T>
    where
        I: Sync,
        T: Send,
        S: Send,
    {
        self.map_reuse_cutoff(items, states, SEQUENTIAL_CUTOFF, f)
    }

    /// [`ThreadPool::map_init`] for **coarse-grained** items: parallelizes
    /// from two items up instead of applying [`SEQUENTIAL_CUTOFF`].
    ///
    /// The cutoff exists because dispatching the pool costs more than a
    /// fine-grained item (a node evaluation); when each item is itself a
    /// whole synthesis run — the flow's `run_many` scheduling entire
    /// designs — the dispatch cost is noise and a handful of items should
    /// still fan out.
    ///
    /// The nesting rule is unchanged: `f` must not run a parallel section
    /// on the *same* pool (use a private 1-thread pool for inner work).
    pub fn map_init_coarse<I, T, S>(
        &self,
        items: &[I],
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, &I) -> T + Sync,
    ) -> Vec<T>
    where
        I: Sync,
        T: Send,
        S: Send,
    {
        let mut states: Vec<S> = (0..self.num_threads()).map(|_| init()).collect();
        self.map_reuse_cutoff(items, &mut states, 2, f)
    }

    /// Shared body of [`ThreadPool::map_reuse`] / [`ThreadPool::map_init_coarse`]:
    /// inputs shorter than `cutoff` run inline on the calling thread.
    fn map_reuse_cutoff<I, T, S>(
        &self,
        items: &[I],
        states: &mut [S],
        cutoff: usize,
        f: impl Fn(&mut S, usize, &I) -> T + Sync,
    ) -> Vec<T>
    where
        I: Sync,
        T: Send,
        S: Send,
    {
        let n = items.len();
        // The scoped budget caps how many participants receive deques; the
        // surplus workers still wake but return immediately from `body`.
        let threads = self.effective_threads();
        assert!(
            states.len() >= threads,
            "need one state per participant ({} < {threads})",
            states.len()
        );
        if threads == 1 || n < cutoff {
            let state = &mut states[0];
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(state, i, item))
                .collect();
        }

        // One deque per participant, blocks of consecutive indices, pushed
        // in reverse so the owner pops them in ascending order.
        let chunk = n.div_ceil(threads);
        let deques: Vec<Deque> = (0..threads)
            .map(|p| {
                let lo = (p * chunk).min(n);
                let hi = ((p + 1) * chunk).min(n);
                let d = Deque::with_capacity(chunk);
                for i in (lo..hi).rev() {
                    d.push(i);
                }
                d
            })
            .collect();

        let mut results: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
        // SAFETY: MaybeUninit contents are allowed to be uninitialized; the
        // vector never drops T (only the transmuted result does, once every
        // slot has been written exactly once).
        unsafe { results.set_len(n) };
        let out = SendPtr(results.as_mut_ptr() as *mut T);
        let states_ptr = SendPtr(states.as_mut_ptr());

        let body = move |wid: usize| {
            if wid >= threads {
                // Participant beyond the scoped budget: no deque, no work.
                return;
            }
            // SAFETY: participant indices are distinct, so each `&mut S`
            // aliases nothing (bounds asserted above).
            let state = unsafe { &mut *states_ptr.slot(wid) };
            let mine = &deques[wid];
            loop {
                let task = mine.pop().or_else(|| {
                    // All pushes happened before dispatch, so Empty is
                    // stable; only Retry (a lost CAS) warrants another lap.
                    loop {
                        let mut saw_retry = false;
                        for off in 1..threads {
                            match deques[(wid + off) % threads].steal() {
                                Steal::Success(t) => return Some(t),
                                Steal::Retry => saw_retry = true,
                                Steal::Empty => {}
                            }
                        }
                        if !saw_retry {
                            return None;
                        }
                        std::hint::spin_loop();
                    }
                });
                let Some(i) = task else { break };
                let value = f(state, i, &items[i]);
                // SAFETY: the deque protocol hands index `i` to exactly one
                // thread, so this slot is written exactly once.
                unsafe { out.slot(i).write(value) };
            }
        };
        self.run(&body);

        // SAFETY: every index was executed (each deque was drained), so all
        // `n` slots are initialized; MaybeUninit<T> and T share layout.
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

/// The worker count of [`ThreadPool::global`] and of the daemon's shard
/// pools: the `XSFQ_THREADS` environment variable when it holds a positive
/// integer (surrounding whitespace allowed), otherwise
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
    fn deque_lifo_pop_fifo_steal() {
        let d = Deque::with_capacity(8);
        for i in 0..4 {
            d.push(i);
        }
        assert_eq!(d.steal(), Steal::Success(0));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), Steal::Success(1));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn deque_concurrent_steal_takes_each_task_once() {
        let d = Arc::new(Deque::with_capacity(1 << 12));
        let n = 4000usize;
        for i in 0..n {
            d.push(i);
        }
        let mut stolen: Vec<Vec<usize>> = Vec::new();
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for _ in 0..3 {
                let d = Arc::clone(&d);
                joins.push(s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match d.steal() {
                            Steal::Success(t) => got.push(t),
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => break,
                        }
                    }
                    got
                }));
            }
            let mut own = Vec::new();
            while let Some(t) = d.pop() {
                own.push(t);
            }
            stolen.push(own);
            for j in joins {
                stolen.push(j.join().unwrap());
            }
        });
        let mut all: Vec<usize> = stolen.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "each task exactly once");
    }

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
    fn map_init_coarse_parallelizes_small_inputs() {
        let pool = ThreadPool::new(4);
        // Below SEQUENTIAL_CUTOFF, yet items must still be distributed:
        // record which participant handled each item via the state.
        let items: Vec<usize> = (0..8).collect();
        let got = pool.map_init_coarse(&items, || (), |_, _, &x| x * 3);
        assert_eq!(got, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        // Identical results for every pool size (the determinism contract).
        let seq = ThreadPool::new(1).map_init_coarse(&items, || (), |_, _, &x| x * 3);
        assert_eq!(got, seq);
    }

    #[test]
    fn small_inputs_run_inline() {
        let pool = ThreadPool::new(4);
        let items = [1usize, 2, 3];
        assert_eq!(
            pool.map_init(&items, || (), |_, _, &x| x * 2),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn scoped_budget_caps_participants_and_restores() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.effective_threads(), 4);
        let items: Vec<usize> = (0..SEQUENTIAL_CUTOFF * 4).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 7).collect();
        {
            let _cap = pool.scoped_budget(2);
            assert_eq!(pool.effective_threads(), 2);
            assert_eq!(pool.map_init(&items, || (), |_, _, &x| x * 7), expect);
        }
        assert_eq!(pool.effective_threads(), 4, "drop must restore");
        // Budgets only clamp downward; a huge budget is the pool size.
        let _cap = pool.scoped_budget(64);
        assert_eq!(pool.effective_threads(), 4);
        assert_eq!(pool.map_init(&items, || (), |_, _, &x| x * 7), expect);
    }

    #[test]
    fn one_thread_budget_takes_the_sequential_path() {
        let pool = ThreadPool::new(4);
        let _cap = pool.scoped_budget(1);
        let items: Vec<usize> = (0..SEQUENTIAL_CUTOFF * 4).collect();
        let caller = std::thread::current().id();
        // The sequential path runs inline on the calling thread in
        // ascending index order — observable, unlike "no overhead".
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
    fn worker_panic_payload_and_id_are_preserved() {
        // Pin the panic to a stealable index and keep participant 0 busy so
        // a *worker* (wid >= 1) hits it; the dispatcher must then re-raise
        // a WorkerPanic carrying the original message and the worker id.
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..SEQUENTIAL_CUTOFF * 8).collect();
        let n = items.len();
        let boom = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_init(
                &items,
                || (),
                |_, wid_probe, &x| {
                    // Index 0 belongs to participant 0's deque; stall it so
                    // the tail indices (other deques) run on real workers.
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
                // The dispatcher itself stole the poisoned index before any
                // worker got there: the original payload propagates raw.
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
        let items: Vec<usize> = (0..SEQUENTIAL_CUTOFF * 4).collect();
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
