//! Minimal SIGTERM latch for graceful drain, and the accept loop's wait.
//!
//! The build is offline and the workspace has no `libc` crate, so both
//! calls go through hand-declared bindings: `signal(2)` registers the
//! handler (C `signal`, which glibc implements with BSD semantics: the
//! handler stays installed), and `poll(2)` waits for the listener. These
//! two FFI calls are the only unsafe code in the crate, confined to this
//! module.
//!
//! The handler itself does the only thing that is async-signal-safe
//! here: store a relaxed atomic flag. The accept loop runs non-blocking
//! and waits in [`wait_readable`] between accepts: a connection wakes it
//! at once, and so does a signal (`poll` is never restarted after a
//! handler; it returns `EINTR`). Its timeout bounds how long the loop
//! goes without checking the latch and the shutdown flags, which it turns
//! into an orderly drain in normal code.
#![allow(unsafe_code)]

use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the handler; consumed (swap-to-false) by the accept loop.
static SIGTERM_PENDING: AtomicBool = AtomicBool::new(false);

/// SIGTERM's number on every platform this daemon targets (Linux and
/// the BSDs agree on 15).
const SIGTERM: i32 = 15;

/// `POLLIN` from `<poll.h>` (the same value on Linux and the BSDs).
const POLLIN: i16 = 1;

/// C `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// C `nfds_t`.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    /// C `signal(2)`. Takes and returns the previous handler as a plain
    /// address; `usize` keeps the declaration free of function-pointer
    /// transmutes on our side.
    fn signal(signum: i32, handler: usize) -> usize;

    /// C `poll(2)`.
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
}

/// The handler: only an atomic store, which is async-signal-safe.
extern "C" fn on_sigterm(_signum: i32) {
    SIGTERM_PENDING.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM latch. Idempotent; called once at daemon start.
pub fn install_sigterm_latch() {
    // The two-step cast (fn item → fn pointer → address) is what the
    // C API actually receives.
    let handler: extern "C" fn(i32) = on_sigterm;
    // SAFETY: `signal` is the C standard library's registration call,
    // always linked by std on the targeted platforms; the handler we
    // pass performs a single atomic store and never unwinds.
    unsafe {
        signal(SIGTERM, handler as usize);
    }
}

/// Waits until `fd` is readable (for a listening socket: a connection is
/// waiting), a signal is delivered, or `timeout` passes, whichever comes
/// first. An error, `EINTR` included, also ends the wait: the caller
/// re-checks its flags and either accepts or waits again.
pub fn wait_readable(fd: RawFd, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `pfd` is a live, exclusively borrowed `struct pollfd` for
    // the whole call and `nfds` is 1; `poll` only writes `revents`.
    unsafe {
        poll(&mut pfd, 1, timeout_ms);
    }
}

/// Consumes a pending SIGTERM: `true` at most once per delivery.
pub fn take_sigterm() -> bool {
    SIGTERM_PENDING.swap(false, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_is_consumed_once() {
        // Raise the flag the way the handler would, without involving a
        // real signal delivery (other tests share the process).
        SIGTERM_PENDING.store(true, Ordering::Relaxed);
        assert!(take_sigterm());
        assert!(!take_sigterm());
    }

    #[test]
    fn wait_readable_wakes_on_a_connection_and_times_out_without_one() {
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::{UnixListener, UnixStream};
        use std::time::Instant;

        let dir = crate::test_common::TempDir::new("fires-poll", "wake");
        let path = dir.join("s.sock");
        let listener = UnixListener::bind(&path).unwrap();
        listener.set_nonblocking(true).unwrap();
        let fd = listener.as_raw_fd();

        let idle = Instant::now();
        wait_readable(fd, Duration::from_millis(20));
        assert!(idle.elapsed() >= Duration::from_millis(15));
        assert!(listener.accept().is_err(), "nothing to accept yet");

        let _client = UnixStream::connect(&path).unwrap();
        let woken = Instant::now();
        wait_readable(fd, Duration::from_secs(10));
        assert!(woken.elapsed() < Duration::from_secs(5));
        assert!(listener.accept().is_ok());
    }

    #[test]
    fn install_is_idempotent() {
        install_sigterm_latch();
        install_sigterm_latch();
        assert!(!take_sigterm());
    }
}
