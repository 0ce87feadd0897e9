//! Minimal SIGTERM/SIGINT latching without a signal-handling crate.
//!
//! The daemon only needs one bit — "a termination signal arrived" — so the
//! handler does the one thing that is async-signal-safe: store to a
//! `static` atomic. The main loop polls [`triggered`]. Installed via the
//! C `signal(2)` entry point through a direct FFI declaration; std links
//! libc already, so this adds no dependency.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::TRIGGERED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: the one operation unconditionally
        // async-signal-safe.
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: plain FFI into libc `signal(2)` with a valid
        // `extern "C"` handler address; the handler body is restricted to
        // a single atomic store, which is async-signal-safe, so no
        // handler-context UB is possible.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// Non-unix builds run without signal-triggered drain; stop the
    /// daemon by killing the process.
    pub fn install() {}
}

/// Install the SIGTERM/SIGINT latch (no-op off unix). Idempotent.
pub fn install() {
    imp::install();
}

/// Whether a termination signal has arrived since [`install`].
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}
