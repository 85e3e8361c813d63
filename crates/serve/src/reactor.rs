//! The readiness shim: a minimal, vendored `epoll(7)` surface.
//!
//! The serve daemon runs one event-loop thread per endpoint; this module
//! is the only place that loop touches the kernel's readiness API. Like
//! [`crate::signal`] — the workspace's other FFI site — it is
//! deliberately tiny and self-contained: a handful of Linux constants, a
//! four-symbol `extern "C"` block, and safe wrappers that own their file
//! descriptors (closed on drop). Two things are exported:
//!
//! - [`Poller`]: level-triggered readiness over registered descriptors —
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait`.
//! - [`WakeHandle`]: the completion-wakeup channel from the engine's
//!   executor threads into the loop — an `eventfd(2)`, read and written
//!   through std's [`File`]. Cloneable and `Send + Sync`; registered
//!   with the poller like any descriptor, so an engine completion wakes
//!   `epoll_wait` exactly like socket readiness does.
//!
//! Every `unsafe` block carries its own `SAFETY:` justification and the
//! module is on the audit's unsafe-confinement allowlist
//! (`zeroconf audit`, rule 1); the invariants are catalogued in
//! DESIGN.md ("Unsafe inventory & invariants").

use std::ffi::c_int;
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// What a registered descriptor wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Interest {
    /// Wake when the descriptor has bytes to read (or a peer hangup to
    /// observe as EOF).
    pub(crate) readable: bool,
    /// Wake when the descriptor can accept writes again.
    pub(crate) writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// What actually happened on a descriptor, as reported by one wait.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Readiness {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    /// Error or hangup: the kernel reports these regardless of interest;
    /// the connection should be read to EOF and torn down.
    pub(crate) hangup: bool,
}

/// One readiness report: the token passed at registration, plus what the
/// descriptor is ready for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) token: u64,
    pub(crate) ready: Readiness,
}

/// Linux `epoll`/`eventfd` constants (stable kernel ABI, identical
/// across architectures).
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// Mirror of the kernel's `struct epoll_event`. The kernel ABI packs
/// it on x86-64 (and only there), so the layout attribute is
/// arch-conditional, exactly as in the system headers.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    /// `epoll_create1(2)`: a new epoll instance; returns its fd or -1.
    fn epoll_create1(flags: c_int) -> c_int;
    /// `epoll_ctl(2)`: add/modify/remove one descriptor's registration.
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    /// `epoll_wait(2)`: blocks up to `timeout` ms for readiness events.
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    /// `eventfd(2)`: a kernel counter usable as a wakeup channel.
    fn eventfd(initval: u32, flags: c_int) -> c_int;
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn interest_mask(interest: Interest) -> u32 {
    let mut mask = 0;
    if interest.readable {
        // RDHUP makes a peer's half-close visible as readiness, so a
        // vanished client is noticed without a read timeout tick.
        mask |= EPOLLIN | EPOLLRDHUP;
    }
    if interest.writable {
        mask |= EPOLLOUT;
    }
    mask
}

/// Level-triggered readiness over registered descriptors (epoll).
pub(crate) struct Poller {
    epoll: OwnedFd,
    buf: Vec<EpollEvent>,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes only a flags word and returns
        // a fresh descriptor (or -1, mapped to an error by `check`).
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` was just returned by a successful
        // `epoll_create1`, so it is open and owned by no one else;
        // wrapping it transfers that sole ownership to the `OwnedFd`,
        // which closes it exactly once on drop.
        let epoll = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poller {
            epoll,
            buf: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&mut self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest_mask(interest),
            data: token,
        };
        // SAFETY: `event` is a properly initialized, live stack value
        // matching the kernel's `struct epoll_event` layout; the
        // kernel copies it during the call and keeps no pointer to it.
        check(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) })?;
        Ok(())
    }

    /// Starts watching `fd`, reporting events under `token`.
    pub(crate) fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes what an already-registered `fd` is watched for.
    pub(crate) fn reregister(
        &mut self,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`. Must be called before the descriptor is
    /// closed (epoll auto-removal only happens on the *final* close).
    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        // SAFETY: `EPOLL_CTL_DEL` ignores the event argument on every
        // kernel this workspace supports (>= 2.6.9), so a null
        // pointer is the documented calling convention.
        check(unsafe {
            epoll_ctl(
                self.epoll.as_raw_fd(),
                EPOLL_CTL_DEL,
                fd,
                std::ptr::null_mut(),
            )
        })?;
        Ok(())
    }

    /// Blocks up to `timeout` for readiness, appending reports to
    /// `events` (which is cleared first).
    pub(crate) fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        events.clear();
        let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        let max = c_int::try_from(self.buf.len()).unwrap_or(c_int::MAX);
        // SAFETY: `buf` is a live, initialized Vec of `buf.len()`
        // `EpollEvent`s and `max` equals that length, so the kernel
        // writes only inside the allocation; the returned count is
        // bounded by `max`.
        let n = check(unsafe {
            epoll_wait(self.epoll.as_raw_fd(), self.buf.as_mut_ptr(), max, millis)
        })?;
        for slot in self.buf.iter().take(n.max(0) as usize) {
            let mask = slot.events;
            events.push(Event {
                token: slot.data,
                ready: Readiness {
                    readable: mask & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: mask & EPOLLOUT != 0,
                    hangup: mask & (EPOLLERR | EPOLLHUP) != 0,
                },
            });
        }
        Ok(())
    }
}

/// The executor → event-loop wakeup channel: an `eventfd`.
/// Cloneable (all clones share the counter); `notify` is safe to call
/// from any thread, including the pipeline executors.
#[derive(Clone)]
pub(crate) struct WakeHandle {
    eventfd: Arc<File>,
}

impl WakeHandle {
    pub(crate) fn new() -> io::Result<WakeHandle> {
        // SAFETY: `eventfd` takes an initial counter and flags and
        // returns a fresh descriptor or -1 (mapped to an error).
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: `fd` was just returned by a successful `eventfd`
        // call, so wrapping it hands its sole ownership to the `File`,
        // closed exactly once when the last clone drops.
        Ok(WakeHandle {
            eventfd: Arc::new(unsafe { File::from_raw_fd(fd) }),
        })
    }

    /// The descriptor to register with the poller (readable interest).
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.eventfd.as_raw_fd()
    }

    /// Wakes the loop: adds one to the counter with a single 8-byte
    /// write, which an eventfd never splits. Never blocks: the eventfd
    /// is nonblocking and an `EAGAIN` (counter saturated) still leaves
    /// it readable, which is all a wakeup needs.
    pub(crate) fn notify(&self) {
        let _ = (&*self.eventfd).write(&1_u64.to_ne_bytes());
    }

    /// Consumes pending wakeups so a level-triggered poller stops
    /// reporting the handle readable until the next `notify`: one
    /// 8-byte read resets the counter, and `EAGAIN` means it already
    /// was zero.
    pub(crate) fn drain(&self) {
        let mut counter = [0_u8; 8];
        let _ = (&*self.eventfd).read(&mut counter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Duration;

    #[test]
    fn wake_handle_round_trips_through_the_poller() {
        let mut poller = Poller::new().unwrap();
        let wake = WakeHandle::new().unwrap();
        poller.register(wake.raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();

        // Nothing pending: the wait times out empty.
        poller.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert!(events.is_empty());

        // A notify from another thread wakes the wait with our token.
        let remote = wake.clone();
        let notifier = std::thread::spawn(move || remote.notify());
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        notifier.join().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].ready.readable);

        // Draining consumes the wakeup; the next wait is empty again.
        wake.drain();
        poller.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readiness_and_interest_changes_are_reported() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 42, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        client.write_all(b"ping\n").unwrap();
        client.flush().unwrap();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.ready.readable));

        // Write interest on an idle socket reports writable immediately.
        poller
            .reregister(
                server.as_raw_fd(),
                42,
                Interest {
                    readable: false,
                    writable: true,
                },
            )
            .unwrap();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.ready.writable));

        // Deregistered descriptors stop reporting.
        poller.deregister(server.as_raw_fd()).unwrap();
        let mut buf = [0u8; 8];
        let mut server_read = &server;
        let _ = server_read.read(&mut buf);
        poller.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert!(events.is_empty(), "{events:?}");
    }
}
