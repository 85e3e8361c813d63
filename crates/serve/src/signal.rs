//! Process-termination signals as a pollable flag.
//!
//! The resident daemon (`zeroconf serve`) drains gracefully on `SIGTERM`:
//! stop accepting, finish in-flight work, flush responses, exit 0. std
//! exposes no signal API, so this module carries the workspace's one
//! signal-handling site: a two-symbol FFI surface (`signal(2)`) that
//! installs an async-signal-safe handler whose only action is a relaxed
//! store into a process-global [`AtomicBool`]. Everything else — the
//! endpoint loops' shutdown checks — merely *polls*
//! [`termination_requested`].
//!
//! The module is deliberately minimal and one-directional: handlers are
//! installed once per process ([`install_termination_handler`] is
//! idempotent) and never uninstalled, and the flag is never cleared.
//! [`raise_termination`] raises the flag from within the process, which
//! is how tests drive drain paths without delivering a real signal.

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-global "a termination signal arrived" flag.
static TERMINATION: AtomicBool = AtomicBool::new(false);

/// Whether handler installation already happened (idempotence latch).
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Whether `SIGTERM`/`SIGINT` (or [`raise_termination`]) has been seen.
/// The flag is sticky: once raised it stays raised for process lifetime.
#[must_use]
pub fn termination_requested() -> bool {
    // ORDERING: a sticky standalone flag polled by drain loops; only the
    // flag's value matters, no other memory is published through it.
    TERMINATION.load(Ordering::Relaxed)
}

/// Raises the termination flag from within the process, as if a signal
/// had arrived. Used by tests and by servers that want a programmatic
/// shutdown path sharing the signal-drain machinery.
pub fn raise_termination() {
    // ORDERING: sets the standalone sticky flag; see
    // termination_requested.
    TERMINATION.store(true, Ordering::Relaxed);
}

mod sys {
    use std::ffi::c_int;

    /// POSIX-mandated signal numbers.
    pub(super) const SIGINT: c_int = 2;
    pub(super) const SIGTERM: c_int = 15;

    /// `SIG_ERR`, the all-ones sentinel `signal(2)` returns on failure.
    pub(super) fn sig_err() -> usize {
        usize::MAX
    }

    extern "C" {
        /// `signal(2)`: installs `handler` (a function address) for
        /// `signum` and returns the previous disposition, or `SIG_ERR`.
        pub(super) fn signal(signum: c_int, handler: usize) -> usize;
    }

    /// The installed handler. Its only action is a relaxed store into a
    /// static `AtomicBool`, which is async-signal-safe (a plain aligned
    /// store, no allocation, no locks, no FFI back into the runtime).
    pub(super) extern "C" fn on_termination(_signum: c_int) {
        // ORDERING: the handler may only perform async-signal-safe work;
        // a relaxed store of the standalone flag is exactly that, and the
        // polling reader needs no ordering beyond eventually seeing it.
        super::TERMINATION.store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Installs `SIGTERM` and `SIGINT` handlers that raise the termination
/// flag. Returns whether handlers are in place after the call (`true`
/// also when a previous call already installed them); `false` only if
/// `signal(2)` refused.
///
/// Installation is process-global and idempotent; there is no uninstall.
pub fn install_termination_handler() -> bool {
    // ORDERING: SeqCst on the installation latch — installs are
    // once-per-process and cold, so the strongest ordering costs
    // nothing and makes the winner-installs reasoning trivial.
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return true;
    }
    let handler = sys::on_termination as *const () as usize;
    // SAFETY: `signal(2)` is called with a valid POSIX signal number
    // and the address of an `extern "C" fn(c_int)` handler whose body
    // is a single relaxed atomic store into a `'static` — an
    // async-signal-safe action. The handler never unwinds (no panic
    // paths) and stays valid for process lifetime (it is a static
    // function). Replacing the previous disposition is the documented
    // intent of this module.
    let term = unsafe { sys::signal(sys::SIGTERM, handler) };
    // SAFETY: same contract as the SIGTERM installation above, for
    // SIGINT (interactive ^C gets the same graceful drain).
    let int = unsafe { sys::signal(sys::SIGINT, handler) };
    term != sys::sig_err() && int != sys::sig_err()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_is_sticky_and_visible() {
        // Note: the flag is process-global, so this test constrains what
        // other tests in this *crate* may assume: no server they build
        // follows process signals.
        assert!(!termination_requested() || TERMINATION.load(Ordering::Relaxed));
        raise_termination();
        assert!(termination_requested());
        raise_termination();
        assert!(termination_requested(), "raising twice stays raised");
    }

    #[test]
    fn installation_is_idempotent() {
        assert!(install_termination_handler());
        assert!(install_termination_handler());
    }
}
