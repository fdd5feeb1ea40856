//! Minimal SIGINT/SIGTERM notification without any signal-handling crate:
//! the handler just sets a process-global atomic flag, which the CLI's
//! supervision loop polls to start a graceful drain.
//!
//! The handler body is a single relaxed atomic store — async-signal-safe.
//! On non-Unix targets installation is a no-op and shutdown happens via the
//! programmatic [`crate::ServerHandle::shutdown`] path only.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATION_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT or SIGTERM arrived since [`install`].
pub fn termination_requested() -> bool {
    TERMINATION_REQUESTED.load(Ordering::Relaxed)
}

/// Installs the SIGINT and SIGTERM handlers (idempotent).
#[cfg(unix)]
pub fn install() {
    use std::os::raw::c_int;
    // `signal(2)` from the C runtime Rust already links against; no crate.
    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }
    extern "C" fn on_signal(_signum: c_int) {
        TERMINATION_REQUESTED.store(true, Ordering::Relaxed);
    }
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No signals to install on non-Unix targets.
#[cfg(not(unix))]
pub fn install() {}
