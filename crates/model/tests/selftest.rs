//! Sanity checks on the model checker itself: it must find the classic
//! textbook concurrency bugs (store-buffer reordering, data races, lost
//! notify deadlocks) and must stay quiet on correctly synchronized code.
//! These are the checker's own "does the smoke detector detect smoke"
//! tests; the xsfq-specific gates live in `crates/exec/tests/model_gate.rs`
//! and `crates/serve/tests/model_gate.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::Arc;
use xsfq_model::cell::UnsafeCell;
use xsfq_model::sync::atomic::{fence, AtomicBool, AtomicUsize};
use xsfq_model::sync::{Condvar, Mutex};
use xsfq_model::{check, thread, Explorer};

fn finds_bug_at(bound: usize, f: impl Fn() + 'static) -> String {
    let res = catch_unwind(AssertUnwindSafe(|| {
        Explorer::new().preemptions(bound).check(f);
    }));
    match res {
        Ok(_) => panic!("model checker failed to find the seeded bug"),
        Err(p) => {
            if let Some(s) = p.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = p.downcast_ref::<&'static str>() {
                (*s).to_string()
            } else {
                "<non-string>".into()
            }
        }
    }
}

fn finds_bug(f: impl Fn() + 'static) -> String {
    finds_bug_at(3, f)
}

// --- must-catch: store visibility ---------------------------------------

/// Message passing with only Relaxed orderings: the flag can become
/// visible before the data (store-store reordering) — the checker must
/// find the schedule where the reader sees flag=1, data=0.
#[test]
fn catches_relaxed_message_passing() {
    let msg = finds_bug(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Relaxed);
            f2.store(1, Relaxed);
        });
        if flag.load(Relaxed) == 1 {
            assert_eq!(data.load(Relaxed), 42, "flag visible before data");
        }
        t.join().unwrap();
    });
    assert!(msg.contains("flag visible before data"), "got: {msg}");
}

/// Same shape with Release/Acquire must be clean.
#[test]
fn passes_release_acquire_message_passing() {
    let report = check(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Relaxed);
            f2.store(1, Release);
        });
        if flag.load(Acquire) == 1 {
            assert_eq!(data.load(Relaxed), 42);
        }
        t.join().unwrap();
    });
    assert!(report.complete);
}

/// Release/acquire *fences* pairing relaxed accesses must also be clean:
/// C11 fence synchronization publishes relaxed stores just as a release
/// store does, so flagging it would be a false positive.
#[test]
fn passes_fence_synchronized_message_passing() {
    let report = check(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Relaxed);
            fence(Release);
            f2.store(1, Relaxed);
        });
        if flag.load(Relaxed) == 1 {
            fence(Acquire);
            assert_eq!(data.load(Relaxed), 42);
        }
        t.join().unwrap();
    });
    assert!(report.complete);
}

/// Dekker store-load: without SeqCst fences both threads can read 0
/// (their own stores parked in store buffers) and enter the critical
/// section together.
#[test]
fn catches_dekker_without_seqcst_fence() {
    let msg = finds_bug(|| {
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        let wins = Arc::new(AtomicUsize::new(0));
        let (a2, b2, w2) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&wins));
        let t = thread::spawn(move || {
            a2.store(1, Relaxed);
            if b2.load(Relaxed) == 0 {
                w2.fetch_add(1, SeqCst);
            }
        });
        b.store(1, Relaxed);
        if a.load(Relaxed) == 0 {
            wins.fetch_add(1, SeqCst);
        }
        t.join().unwrap();
        assert!(wins.load(SeqCst) <= 1, "mutual exclusion violated");
    });
    assert!(msg.contains("mutual exclusion violated"), "got: {msg}");
}

/// The same Dekker shape with SeqCst fences between store and load is
/// sound — the fences drain the store buffers.
#[test]
fn passes_dekker_with_seqcst_fence() {
    let report = check(|| {
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        let wins = Arc::new(AtomicUsize::new(0));
        let (a2, b2, w2) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&wins));
        let t = thread::spawn(move || {
            a2.store(1, Relaxed);
            fence(SeqCst);
            if b2.load(Relaxed) == 0 {
                w2.fetch_add(1, SeqCst);
            }
        });
        b.store(1, Relaxed);
        fence(SeqCst);
        if a.load(Relaxed) == 0 {
            wins.fetch_add(1, SeqCst);
        }
        t.join().unwrap();
        assert!(wins.load(SeqCst) <= 1);
    });
    assert!(report.complete);
}

// --- must-catch: data races, lost updates, deadlock ----------------------

#[test]
fn catches_unsynchronized_cell_race() {
    let msg = finds_bug(|| {
        let cell = Arc::new(UnsafeCell::new(0usize));
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || {
            // SAFETY: the raw pointer from with_mut is used only inside
            // the closure; the race itself is what the model must catch.
            c2.with_mut(|p| unsafe { *p = 1 });
        });
        cell.with_mut(|p| unsafe { *p = 2 });
        t.join().unwrap();
    });
    assert!(msg.contains("data race"), "got: {msg}");
}

#[test]
fn passes_flag_guarded_cell() {
    let report = check(|| {
        let cell = Arc::new(UnsafeCell::new(0usize));
        let done = Arc::new(AtomicBool::new(false));
        let (c2, d2) = (Arc::clone(&cell), Arc::clone(&done));
        let t = thread::spawn(move || {
            // SAFETY: writes before the Release store; the reader only
            // touches the cell after its Acquire load observes true.
            c2.with_mut(|p| unsafe { *p = 7 });
            d2.store(true, Release);
        });
        if done.load(Acquire) {
            cell.with(|p| assert_eq!(unsafe { *p }, 7));
        }
        t.join().unwrap();
    });
    assert!(report.complete);
}

/// Relaxed read-modify-write increments are atomic — no lost updates.
#[test]
fn passes_concurrent_fetch_add() {
    let report = check(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            n2.fetch_add(1, Relaxed);
        });
        n.fetch_add(1, Relaxed);
        t.join().unwrap();
        assert_eq!(n.load(SeqCst), 2);
    });
    assert!(report.complete);
}

/// A non-atomic load/store increment pair loses updates under preemption.
#[test]
fn catches_load_store_lost_update() {
    let msg = finds_bug(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            let v = n2.load(SeqCst);
            n2.store(v + 1, SeqCst);
        });
        let v = n.load(SeqCst);
        n.store(v + 1, SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(SeqCst), 2, "lost update");
    });
    assert!(msg.contains("lost update"), "got: {msg}");
}

/// Missed-wakeup deadlock: the predicate lives outside the mutex, so the
/// signaller can set it and notify in the window between the waiter's
/// check and its park — the notify hits zero waiters and the untimed wait
/// never returns (reported as a deadlock).
#[test]
fn catches_lost_notify_deadlock() {
    let msg = finds_bug(|| {
        let m = Arc::new(Mutex::new(()));
        let cv = Arc::new(Condvar::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (f2, c2) = (Arc::clone(&flag), Arc::clone(&cv));
        let _t = thread::spawn(move || {
            // Bug: predicate write and notify happen outside the mutex.
            f2.store(true, SeqCst);
            c2.notify_one();
        });
        let g = m.lock().unwrap();
        if !flag.load(SeqCst) {
            let _g = cv.wait(g).unwrap();
        }
    });
    assert!(msg.contains("deadlock"), "got: {msg}");
}

/// The standard predicate-loop condvar pattern is clean.
#[test]
fn passes_predicate_loop_condvar() {
    let report = check(|| {
        let ready = Arc::new((Mutex::new(false), Condvar::new()));
        let r2 = Arc::clone(&ready);
        let t = thread::spawn(move || {
            let (m, cv) = &*r2;
            *m.lock().unwrap() = true;
            cv.notify_all();
        });
        let (m, cv) = &*ready;
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        drop(g);
        t.join().unwrap();
    });
    assert!(report.complete);
}

/// wait_timeout explores the timeout branch, so the waiter escapes even
/// when the notify is lost — and the run must not deadlock.
#[test]
fn passes_wait_timeout_escapes_lost_notify() {
    let report = check(|| {
        let ready = Arc::new((Mutex::new(false), Condvar::new()));
        let r2 = Arc::clone(&ready);
        let t = thread::spawn(move || {
            let (m, cv) = &*r2;
            let mut g = m.lock().unwrap();
            *g = true;
            drop(g);
            cv.notify_one();
        });
        let (m, cv) = &*ready;
        let mut g = m.lock().unwrap();
        while !*g {
            let (g2, _timed_out) = cv
                .wait_timeout(g, std::time::Duration::from_millis(1))
                .unwrap();
            g = g2;
        }
        drop(g);
        t.join().unwrap();
    });
    assert!(report.complete);
}

// --- must-catch: CAS ------------------------------------------------------

/// compare_exchange_weak may fail spuriously: code that treats one failure
/// as definitive breaks under the injected spurious failure.
#[test]
fn catches_weak_cas_without_retry() {
    let msg = finds_bug(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let ok = n.compare_exchange_weak(0, 1, SeqCst, SeqCst).is_ok();
        assert!(ok, "weak cas treated as strong");
    });
    assert!(msg.contains("weak cas treated as strong"), "got: {msg}");
}

/// A weak-CAS retry loop is fine (spurious failures are bounded by the
/// preemption budget, so the loop terminates in the model).
#[test]
fn passes_weak_cas_retry_loop() {
    let report = check(|| {
        let n = Arc::new(AtomicUsize::new(0));
        while n.compare_exchange_weak(0, 1, SeqCst, SeqCst).is_err() {
            std::hint::spin_loop();
        }
        assert_eq!(n.load(SeqCst), 1);
    });
    assert!(report.complete);
}

// --- determinism of the explorer itself ----------------------------------

/// The same scenario must explore the same number of schedules every time
/// (choice structure independent of OS timing).
#[test]
fn exploration_is_deterministic() {
    let scenario = || {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            n2.fetch_add(1, Relaxed);
            n2.store(5, Release);
        });
        let _ = n.load(Acquire);
        n.fetch_add(2, Relaxed);
        t.join().unwrap();
    };
    let a = Explorer::new().preemptions(2).check(scenario);
    let b = Explorer::new().preemptions(2).check(scenario);
    let c = Explorer::new().preemptions(2).check(scenario);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(b.iterations, c.iterations);
    assert!(a.complete && a.iterations > 1);
}

/// Unjoined panicking threads surface as bugs rather than vanishing.
#[test]
fn catches_unjoined_thread_panic() {
    let msg = finds_bug(|| {
        let _t = thread::spawn(|| panic!("boom in child"));
        // Handle dropped without join: the panic must still surface.
    });
    assert!(
        msg.contains("boom in child") || msg.contains("panicked"),
        "got: {msg}"
    );
}

/// Modeled Instants are monotone along an execution.
#[test]
fn instants_are_monotonic() {
    let report = check(|| {
        let t0 = xsfq_model::time::Instant::now();
        let n = AtomicUsize::new(0);
        n.store(1, Relaxed);
        let t1 = xsfq_model::time::Instant::now();
        assert!(t1 >= t0);
        assert!(t1 + std::time::Duration::from_nanos(5) > t1);
    });
    assert!(report.complete);
}
