//! Thin raw-FFI helpers the reactor transport needs beyond what `std`
//! exposes: nonblocking `connect(2)`, a deeper listen backlog, raising
//! the fd soft limit for big meshes, and the process's CPU time and
//! voluntary context switches for the benchmark and the wake-up guard.
//! Everything links against the platform libc that `std` already pulls
//! in — no new dependencies, matching the offline-deps pattern of
//! `vendor/`.
//!
//! Non-unix builds get honest fallbacks: blocking connect, no-op backlog
//! and rlimit tweaks, zero for CPU time and context switches (the
//! reactor itself is unix-only, so a TCP run there reports `Unsupported`).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

#[cfg(unix)]
mod imp {
    use super::*;
    use std::mem;
    use std::os::raw::{c_int, c_long, c_void};
    use std::os::unix::io::{AsRawFd, FromRawFd};

    const AF_INET: c_int = 2;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const AF_INET6: c_int = 10;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const AF_INET6: c_int = 30; // macOS/BSD value
    const SOCK_STREAM: c_int = 1;
    const EINPROGRESS: i32 = 36; // macOS/BSD
    const EINPROGRESS_LINUX: i32 = 115;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    const RLIMIT_NOFILE: c_int = 7;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const RLIMIT_NOFILE: c_int = 8;

    #[repr(C)]
    struct SockaddrIn {
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        sin_len: u8,
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        sin_family: u8,
        #[cfg(any(target_os = "linux", target_os = "android"))]
        sin_family: u16,
        sin_port: u16, // network byte order
        sin_addr: u32, // network byte order
        sin_zero: [u8; 8],
    }

    #[repr(C)]
    struct SockaddrIn6 {
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        sin6_len: u8,
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        sin6_family: u8,
        #[cfg(any(target_os = "linux", target_os = "android"))]
        sin6_family: u16,
        sin6_port: u16, // network byte order
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    #[repr(C)]
    struct Rlimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    #[repr(C)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }

    /// `struct rusage`: two timevals, then fourteen `long`s in the same
    /// order on Linux and the BSDs (`ru_maxrss` … `ru_nvcsw`,
    /// `ru_nivcsw`).  The tail pads past any libc's idea of its size.
    #[repr(C)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        ru_longs: [c_long; 14],
        _pad: [u64; 16],
    }

    /// Index of `ru_nvcsw` in [`Rusage::ru_longs`].
    const RU_NVCSW: usize = 12;

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }

    /// Start a nonblocking TCP connect to `addr`.  Returns the socket
    /// wrapped in a `TcpStream` that is **not yet connected**: the caller
    /// must wait for write-readiness and then check
    /// [`TcpStream::take_error`] to learn the outcome.
    pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
        let domain = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        let fd = unsafe { socket(domain, SOCK_STREAM, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Wrap immediately: any error below closes the fd via Drop.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        stream.set_nonblocking(true)?;
        let rc = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockaddrIn {
                    #[cfg(not(any(target_os = "linux", target_os = "android")))]
                    sin_len: mem::size_of::<SockaddrIn>() as u8,
                    #[cfg(not(any(target_os = "linux", target_os = "android")))]
                    sin_family: AF_INET as u8,
                    #[cfg(any(target_os = "linux", target_os = "android"))]
                    sin_family: AF_INET as u16,
                    sin_port: v4.port().to_be(),
                    sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                    sin_zero: [0; 8],
                };
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockaddrIn).cast(),
                        mem::size_of::<SockaddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                let sa = SockaddrIn6 {
                    #[cfg(not(any(target_os = "linux", target_os = "android")))]
                    sin6_len: mem::size_of::<SockaddrIn6>() as u8,
                    #[cfg(not(any(target_os = "linux", target_os = "android")))]
                    sin6_family: AF_INET6 as u8,
                    #[cfg(any(target_os = "linux", target_os = "android"))]
                    sin6_family: AF_INET6 as u16,
                    sin6_port: v6.port().to_be(),
                    sin6_flowinfo: v6.flowinfo(),
                    sin6_addr: v6.ip().octets(),
                    sin6_scope_id: v6.scope_id(),
                };
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockaddrIn6).cast(),
                        mem::size_of::<SockaddrIn6>() as u32,
                    )
                }
            }
        };
        if rc == 0 {
            return Ok(stream); // connected instantly (loopback fast path)
        }
        match io::Error::last_os_error().raw_os_error() {
            Some(e) if e == EINPROGRESS || e == EINPROGRESS_LINUX => Ok(stream),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// Deepen the accept backlog of an already-listening socket.  `std`
    /// hard-codes backlog 128; a 256-node mesh sends every peer's SYN at
    /// once and an overflowing queue costs whole TCP retry seconds.
    /// Calling `listen(2)` again on a listening socket updates the backlog
    /// in place (POSIX-sanctioned; both Linux and the BSDs honour it).
    pub fn listen_backlog(listener: &TcpListener, backlog: i32) -> io::Result<()> {
        let rc = unsafe { listen(listener.as_raw_fd(), backlog) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Raise the fd soft limit to at least `needed` (clamped to the hard
    /// limit).  Returns the resulting soft limit.
    pub fn raise_nofile_limit(needed: u64) -> io::Result<u64> {
        let mut lim = Rlimit { rlim_cur: 0, rlim_max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
            return Err(io::Error::last_os_error());
        }
        if lim.rlim_cur >= needed {
            return Ok(lim.rlim_cur);
        }
        let want = Rlimit {
            rlim_cur: needed.min(lim.rlim_max),
            rlim_max: lim.rlim_max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(want.rlim_cur)
    }

    /// `getrusage(RUSAGE_SELF)`: the whole process, threads that have
    /// already exited included (`/proc/self/task` forgets those).
    fn rusage_self() -> Option<Rusage> {
        let mut ru = Rusage {
            ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
            ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
            ru_longs: [0; 14],
            _pad: [0; 16],
        };
        // SAFETY: `ru` outlives the call and is larger than any libc's
        // `struct rusage`.  RUSAGE_SELF = 0 everywhere.
        (unsafe { getrusage(0, &mut ru) } >= 0).then_some(ru)
    }

    /// CPU time (user + system) consumed by this process so far.
    pub fn process_cpu_time() -> Duration {
        let Some(ru) = rusage_self() else {
            return Duration::ZERO;
        };
        let secs = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) as u64;
        let usecs = (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) as u64;
        Duration::from_secs(secs) + Duration::from_micros(usecs)
    }

    /// Times a thread of this process has given up the CPU to wait
    /// (`ru_nvcsw`): blocking in `poll`, on a futex, in `sleep`.
    pub fn voluntary_switches() -> u64 {
        rusage_self().map_or(0, |ru| ru.ru_longs[RU_NVCSW] as u64)
    }
}

#[cfg(not(unix))]
mod imp {
    use super::*;

    pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
        // Blocking connect, then flip to nonblocking: functionally
        // equivalent, just serialized during setup.
        let s = TcpStream::connect(addr)?;
        s.set_nonblocking(true)?;
        Ok(s)
    }

    pub fn listen_backlog(_listener: &TcpListener, _backlog: i32) -> io::Result<()> {
        Ok(())
    }

    pub fn raise_nofile_limit(_needed: u64) -> io::Result<u64> {
        Ok(u64::MAX)
    }

    pub fn process_cpu_time() -> Duration {
        Duration::ZERO
    }

    pub fn voluntary_switches() -> u64 {
        0
    }
}

pub use imp::{
    connect_nonblocking, listen_backlog, process_cpu_time, raise_nofile_limit, voluntary_switches,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn nonblocking_connect_completes_against_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(addr).expect("connect start");
        let (mut inbound, _) = listener.accept().expect("accept");
        // Outcome check: no socket error once accepted.
        // (Poll-based callers wait for writability first; against a
        // loopback backlog the handshake is already done.)
        if let Some(e) = stream.take_error().unwrap() {
            panic!("connect failed: {e}");
        }
        drop(stream);
        let mut buf = Vec::new();
        // EOF proves the connection was fully established then closed.
        inbound.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn nonblocking_connect_to_dead_port_reports_an_error() {
        // Bind-then-drop guarantees the port is closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        match connect_nonblocking(addr) {
            // Either shape is fine: instant refusal, or EINPROGRESS whose
            // failure surfaces via take_error once the kernel gives up.
            Err(_) => {}
            Ok(s) => {
                let mut err = None;
                for _ in 0..200 {
                    if let Some(e) = s.take_error().unwrap() {
                        err = Some(e);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                assert!(err.is_some(), "refused connect surfaced no error");
            }
        }
    }

    #[test]
    fn listen_backlog_and_rlimit_are_callable() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        listen_backlog(&l, 1024).expect("re-listen with deeper backlog");
        let lim = raise_nofile_limit(256).expect("query/raise fd limit");
        assert!(lim >= 256);
    }

    #[test]
    fn cpu_time_is_monotone() {
        let a = process_cpu_time();
        // Burn a little CPU so the clock visibly advances on unix.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let b = process_cpu_time();
        assert!(b >= a);
    }

    #[cfg(unix)]
    #[test]
    fn a_sleep_is_a_voluntary_switch() {
        let a = voluntary_switches();
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(voluntary_switches() >= a + 5);
    }
}
