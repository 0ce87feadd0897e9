//! Synchronization facade: every concurrency primitive the cancel token and
//! the daemon's admission queue (`xsfq_serve::queue`) touch is imported
//! from here, never from `std` directly. It is the workspace's one facade.
//!
//! In normal builds (the default) these are pure re-exports of the `std`
//! types — zero cost, zero behavioural difference; the bit-identical tier-1
//! gates pin that. With `--features model` (`xsfq-serve`'s `model` feature
//! turns it on too) the same paths resolve to the `xsfq_model`
//! instrumented runtime instead, which lets the `model_gate` test suites
//! deterministically enumerate thread interleavings (including
//! store-buffer reorderings of the non-SeqCst operations) around the very
//! code that ships.
//!
//! [`ThreadPool::map_init`](crate::ThreadPool::map_init)'s fan-out is
//! std-only in both builds: `xsfq_model` has no scoped threads, and its
//! atomics only work inside `Explorer::check`, so the fan-out's counter
//! cannot come from here without breaking every map outside a model test.
//!
//! The rule for code under the facade: `use xsfq_exec::sync::…` (`crate::`
//! inside the executor) for atomics, `Mutex`/`Condvar` and `Instant`. `Arc`
//! and `Duration` stay on `std` (they carry no scheduling-visible
//! behaviour).

/// Std-backed primitives (normal builds).
#[cfg(not(feature = "model"))]
mod imp {
    /// Atomic types, as used by the cancel token.
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, Ordering};
    }
    pub use std::sync::{Condvar, Mutex};
    /// Monotonic time for cancellation deadlines and queue retry due-times.
    pub mod time {
        pub use std::time::Instant;
    }
}

/// Model-runtime primitives (`--features model` builds).
#[cfg(feature = "model")]
mod imp {
    /// Atomic types, as used by the cancel token.
    pub mod atomic {
        pub use xsfq_model::sync::atomic::{AtomicBool, Ordering};
    }
    pub use xsfq_model::sync::{Condvar, Mutex};
    /// Logical time (monotonic along a modeled schedule).
    pub mod time {
        pub use xsfq_model::time::Instant;
    }
}

pub use imp::*;
