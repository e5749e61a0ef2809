//! Raw `epoll` and listener-socket bindings — the only unsafe code in the
//! crate.
//!
//! The build environment vendors no `libc` crate, so the reactor declares
//! the seven syscall wrappers it needs directly against the C library that
//! `std` already links. Everything is wrapped in a safe API around
//! [`std::os::fd::OwnedFd`]; file descriptors are closed on drop by `std`.

#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;
// Socket-creation constants (Linux generic ABI; x86-64 and aarch64 share
// these values — the architectures this reproduction targets).
const AF_INET: i32 = 2;
const AF_INET6: i32 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_CLOEXEC: i32 = 0x80000;
const SOL_SOCKET: i32 = 1;
const SO_REUSEADDR: i32 = 2;
const SO_REUSEPORT: i32 = 15;

/// One readiness event. Mirrors the kernel's `struct epoll_event`, which is
/// packed on x86-64.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bits (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

impl EpollEvent {
    /// An empty (zeroed) event, for buffer initialization.
    #[must_use]
    pub fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }

    /// The readiness bits (copied by value out of the possibly-packed
    /// struct — no unaligned reference is formed).
    #[must_use]
    pub fn readiness(&self) -> u32 {
        self.events
    }

    /// The registration token (copied by value out of the possibly-packed
    /// struct — no unaligned reference is formed).
    #[must_use]
    pub fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn socket(domain: i32, kind: i32, protocol: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    fn bind(fd: i32, addr: *const u8, addrlen: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// `struct sockaddr_in` (network byte order for port and address).
#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// `struct sockaddr_in6` (network byte order for port; the address is a
/// plain byte array already in wire order).
#[repr(C)]
struct SockAddrIn6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

/// Creates a listening TCP socket with `SO_REUSEPORT` set *before* bind —
/// the accept-sharding primitive: N listeners bound to one address, each
/// owned by one reactor event loop, with the kernel hashing incoming
/// connections across them (no shared accept queue).
///
/// `std::net::TcpListener` cannot express this (it binds inside
/// `TcpListener::bind` with no hook to set options first), so the socket is
/// created raw and wrapped after `listen`.
///
/// # Errors
///
/// Propagates the first failing syscall's errno. On kernels without
/// `SO_REUSEPORT` (pre-3.9) the `setsockopt` fails with `ENOPROTOOPT`.
pub fn bind_reuseport(addr: SocketAddr, backlog: i32) -> io::Result<TcpListener> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: socket takes no pointers; a non-negative return is a fresh fd
    // we immediately take ownership of.
    let raw = cvt(unsafe { socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `raw` is a valid fd owned by nobody else.
    let fd = unsafe { OwnedFd::from_raw_fd(raw) };
    let one: i32 = 1;
    // `SO_REUSEADDR` as `std::net::TcpListener::bind` sets it, so a
    // restarted server can rebind a port its old connections hold in
    // TIME_WAIT.
    for option in [SO_REUSEADDR, SO_REUSEPORT] {
        // SAFETY: passes a live 4-byte value with its correct length.
        cvt(unsafe {
            setsockopt(
                fd.as_raw_fd(),
                SOL_SOCKET,
                option,
                std::ptr::addr_of!(one).cast(),
                4,
            )
        })?;
    }
    match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            // SAFETY: `sa` is a live, correctly-sized sockaddr_in.
            cvt(unsafe {
                bind(
                    fd.as_raw_fd(),
                    std::ptr::addr_of!(sa).cast(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            })?;
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            // SAFETY: `sa` is a live, correctly-sized sockaddr_in6.
            cvt(unsafe {
                bind(
                    fd.as_raw_fd(),
                    std::ptr::addr_of!(sa).cast(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            })?;
        }
    }
    // SAFETY: listen takes no pointers; `fd` is a live, bound socket.
    cvt(unsafe { listen(fd.as_raw_fd(), backlog) })?;
    Ok(TcpListener::from(fd))
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// A safe handle to an epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_create1` errno.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a non-negative return is
        // a freshly-created fd we immediately take ownership of.
        let raw = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self {
            // SAFETY: `raw` is a valid fd owned by nobody else.
            fd: unsafe { OwnedFd::from_raw_fd(raw) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it out.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) }).map(|_| ())
    }

    /// Registers `fd` for `events`, tagging readiness with `token`.
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_ctl` errno.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of a registered fd.
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_ctl` errno.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes a registered fd.
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_ctl` errno.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `events`; returns the number of ready
    /// entries. A `timeout` of `None` blocks indefinitely. Retries on
    /// `EINTR`.
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_wait` errno.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: Option<i32>) -> io::Result<usize> {
        let timeout = timeout_ms.unwrap_or(-1);
        loop {
            // SAFETY: `events` is a valid, writable buffer of the declared
            // length for the duration of the call.
            let ret = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout,
                )
            };
            match cvt(ret) {
                Ok(n) => return Ok(n as usize),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuseport_listeners_share_one_port_and_split_accepts() {
        use std::net::TcpStream;
        use std::time::{Duration, Instant};

        let first = bind_reuseport("127.0.0.1:0".parse().unwrap(), 16).unwrap();
        let addr = first.local_addr().unwrap();
        // A second listener on the *same* concrete port succeeds only with
        // SO_REUSEPORT set on both.
        let second = bind_reuseport(addr, 16).unwrap();
        first.set_nonblocking(true).unwrap();
        second.set_nonblocking(true).unwrap();

        let clients: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut accepted = 0usize;
        let deadline = Instant::now() + Duration::from_secs(2);
        while accepted < clients.len() && Instant::now() < deadline {
            for listener in [&first, &second] {
                while listener.accept().is_ok() {
                    accepted += 1;
                }
            }
        }
        // Every connection landed in exactly one of the two accept queues.
        assert_eq!(accepted, clients.len());
    }

    #[test]
    fn epoll_tracks_tcp_sockets() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 1).unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = epoll.wait(&mut events, Some(2000)).unwrap();
        assert!(n >= 1);
        assert_eq!(events[0].token(), 1);

        let (accepted, _) = listener.accept().unwrap();
        epoll.add(accepted.as_raw_fd(), EPOLLIN, 2).unwrap();
        client.write_all(b"hi").unwrap();
        let n = epoll.wait(&mut events, Some(2000)).unwrap();
        assert!((0..n).any(|i| events[i].token() == 2));

        // Interest modification and removal round-trip: the unread bytes
        // keep the socket readable under its new token, and a deleted fd
        // reports nothing.
        epoll.delete(listener.as_raw_fd()).unwrap();
        epoll
            .modify(accepted.as_raw_fd(), EPOLLIN | EPOLLOUT, 3)
            .unwrap();
        let n = epoll.wait(&mut events, Some(2000)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 3);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);
        epoll.delete(accepted.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, Some(0)).unwrap(), 0);
    }
}
