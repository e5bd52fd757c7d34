//! The non-blocking connection engine: one thread, one `epoll` set, every
//! socket.
//!
//! Readiness-driven instead of thread-per-connection: the loop owns the
//! listener and all accepted sockets, each wrapped in a small state
//! machine ([`Conn`]) of buffered reads, incremental parses
//! (`http::try_parse_request`), and buffered writes. Classify requests are
//! handed to the inference replicas through the batch queue; their
//! [`ResponseSlot`] notifiers push the connection's token onto a shared
//! completion list and poke a **wake pipe** registered with the poller, so
//! results re-enter the loop without blocking any thread on a condvar.
//!
//! The `epoll` syscalls are declared directly (`std` already links libc on
//! unix — the same trick as [`crate::server::signals`]). On non-Linux
//! targets a portable fallback poller reports every registered handle
//! ready after a short sleep; that is merely less efficient, not less
//! correct, because the sockets are non-blocking and the loop tolerates
//! spurious readiness by design (level-triggered semantics).
//!
//! [`ResponseSlot`]: crate::batcher::ResponseSlot

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http::try_parse_request;
use crate::server::{self, signals, Ctx, DispatchResult, InFlight};
use xbar_obs::{metrics, names};

/// Poll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poll token of the wake pipe's read end.
const TOKEN_WAKE: u64 = 1;
/// First connection token; tokens are monotonic and never reused, so a
/// late completion can never be misdelivered to a recycled connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Longest the loop sleeps in the poller: bounds shutdown-flag latency.
const TICK: Duration = Duration::from_millis(25);

/// Read chunk per `read(2)`; level-triggered readiness re-reports anything
/// left unread.
const READ_CHUNK: usize = 64 << 10;

#[cfg(unix)]
pub(crate) type Handle = std::os::fd::RawFd;
#[cfg(not(unix))]
pub(crate) type Handle = u64;

#[cfg(unix)]
fn handle_of(x: &impl std::os::fd::AsRawFd) -> Handle {
    x.as_raw_fd()
}
#[cfg(not(unix))]
fn handle_of<T>(_x: &T) -> Handle {
    0
}

#[cfg(target_os = "linux")]
mod poll {
    //! `epoll(7)` via direct declarations — no libc crate.

    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::sync::Arc;
    use std::time::Duration;

    use super::Handle;

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    /// Matches the kernel's `struct epoll_event`, which is packed on
    /// x86-64 only.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
    }

    pub struct Poller {
        epfd: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let fd = unsafe { epoll_create1(0) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
                buf: Vec::with_capacity(256),
            })
        }

        fn ctl(&self, op: i32, fd: Handle, token: u64, writable: bool) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN | if writable { EPOLLOUT } else { 0 },
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        /// Adds `fd` with read interest (always) and optional write
        /// interest, tagged with `token`.
        pub fn register(&mut self, fd: Handle, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, writable)
        }

        pub fn modify(&mut self, fd: Handle, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, writable)
        }

        pub fn deregister(&mut self, fd: Handle, _token: u64) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// Fills `out` with `(token, readable, writable)` readiness.
        /// Errors and hangups report as both so the owning state machine
        /// discovers them on its next read/write.
        pub fn wait(
            &mut self,
            timeout: Duration,
            out: &mut Vec<(u64, bool, bool)>,
        ) -> io::Result<()> {
            out.clear();
            self.buf.clear();
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.capacity() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    // Our own SIGTERM/SIGINT handler interrupting the
                    // wait; the loop re-checks the flag every iteration.
                    return Ok(());
                }
                return Err(err);
            }
            // Sound: the kernel initialised the first `n` entries.
            unsafe { self.buf.set_len(n as usize) };
            for ev in &self.buf {
                let events = ev.events;
                let token = ev.data;
                out.push((
                    token,
                    events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                ));
            }
            Ok(())
        }
    }

    /// Self-pipe that lets inference replicas interrupt an `epoll_wait`.
    pub struct WakePipe {
        read: std::fs::File,
        write: Arc<std::fs::File>,
    }

    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            let mut fds = [0i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(WakePipe {
                read: unsafe { std::fs::File::from_raw_fd(fds[0]) },
                write: Arc::new(unsafe { std::fs::File::from_raw_fd(fds[1]) }),
            })
        }

        pub fn handle(&self) -> Handle {
            self.read.as_raw_fd()
        }

        pub fn waker(&self) -> Waker {
            Waker {
                file: Arc::clone(&self.write),
            }
        }

        /// Swallows pending wake bytes. Reads once (blocking is safe: only
        /// called when the poller reported the pipe readable); anything
        /// beyond one chunk re-reports level-triggered.
        pub fn drain(&self) {
            use std::io::Read;
            let mut buf = [0u8; 4096];
            let _ = (&self.read).read(&mut buf);
        }
    }

    #[derive(Clone)]
    pub struct Waker {
        file: Arc<std::fs::File>,
    }

    impl Waker {
        pub fn wake(&self) {
            use std::io::Write;
            let _ = (&*self.file).write(&[1u8]);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod poll {
    //! Portable fallback: a short sleep, then report every registered
    //! token ready. Spurious readiness is harmless — the sockets are
    //! non-blocking and the state machines treat `WouldBlock` as "not
    //! yet" — it just costs a few wake-ups per millisecond.

    use std::io;
    use std::time::Duration;

    use super::Handle;

    pub struct Poller {
        tokens: Vec<u64>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { tokens: Vec::new() })
        }

        pub fn register(&mut self, _fd: Handle, token: u64, _writable: bool) -> io::Result<()> {
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, _fd: Handle, _token: u64, _writable: bool) -> io::Result<()> {
            Ok(())
        }

        pub fn deregister(&mut self, _fd: Handle, token: u64) {
            self.tokens.retain(|&t| t != token);
        }

        pub fn wait(
            &mut self,
            timeout: Duration,
            out: &mut Vec<(u64, bool, bool)>,
        ) -> io::Result<()> {
            out.clear();
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            out.extend(self.tokens.iter().map(|&t| (t, true, true)));
            Ok(())
        }
    }

    /// No pipe needed: the fallback poller wakes itself every few
    /// milliseconds, which bounds completion latency without a signal.
    pub struct WakePipe;

    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            Ok(WakePipe)
        }

        pub fn handle(&self) -> Handle {
            0
        }

        pub fn waker(&self) -> Waker {
            Waker
        }

        pub fn drain(&self) {}
    }

    #[derive(Clone)]
    pub struct Waker;

    impl Waker {
        pub fn wake(&self) {}
    }
}

/// Where inference replicas deposit finished request tokens for the loop
/// to collect; every push pokes the wake pipe so a parked `epoll_wait`
/// returns promptly.
pub(crate) struct Completions {
    list: Mutex<Vec<u64>>,
    waker: poll::Waker,
}

impl Completions {
    fn new(waker: poll::Waker) -> Arc<Completions> {
        Arc::new(Completions {
            list: Mutex::new(Vec::new()),
            waker,
        })
    }

    pub(crate) fn push(&self, token: u64) {
        self.list
            .lock()
            .expect("completion list poisoned")
            .push(token);
        self.waker.wake();
    }

    fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.list.lock().expect("completion list poisoned"))
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (may hold pipelined requests).
    read_buf: Vec<u8>,
    /// Response bytes not yet flushed to the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// The admitted classify request this connection is waiting on, if
    /// any; while set, pipelined bytes stay buffered unparsed.
    inflight: Option<InFlight>,
    /// Close once `write_buf` drains (non-keep-alive or erroring reply).
    close_after_write: bool,
    /// Whether the poller currently watches this socket for writability.
    want_write: bool,
    /// The socket failed; tear down at the next sync point.
    broken: bool,
}

/// The single-threaded engine owning every socket. Built on the caller's
/// thread so setup errors surface from `Server::start`, then moved
/// into the `xbar-eventloop` thread and [`run`](EventLoop::run).
pub(crate) struct EventLoop {
    listener: Option<TcpListener>,
    ctx: Arc<Ctx>,
    poller: poll::Poller,
    wake: poll::WakePipe,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Admitted classify requests not yet answered — the admission-control
    /// signal. Loop-local: only this thread admits or finishes requests.
    inflight_count: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
    read_scratch: Vec<u8>,
    events: Vec<(u64, bool, bool)>,
}

impl EventLoop {
    pub(crate) fn new(listener: TcpListener, ctx: Arc<Ctx>) -> std::io::Result<EventLoop> {
        let mut poller = poll::Poller::new()?;
        let wake = poll::WakePipe::new()?;
        poller.register(handle_of(&listener), TOKEN_LISTENER, false)?;
        poller.register(wake.handle(), TOKEN_WAKE, false)?;
        let completions = Completions::new(wake.waker());
        Ok(EventLoop {
            listener: Some(listener),
            ctx,
            poller,
            wake,
            completions,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            inflight_count: 0,
            draining: false,
            drain_deadline: None,
            read_scratch: vec![0u8; READ_CHUNK],
            events: Vec::new(),
        })
    }

    pub(crate) fn run(mut self) {
        loop {
            if !self.draining && (self.ctx.shutdown.load(Ordering::SeqCst) || signals::signalled())
            {
                self.begin_drain();
            }
            if self.draining
                && (self.conns.is_empty()
                    || self.drain_deadline.is_some_and(|d| Instant::now() >= d))
            {
                break;
            }
            let timeout = self.next_timeout();
            let mut events = std::mem::take(&mut self.events);
            if let Err(e) = self.poller.wait(timeout, &mut events) {
                // A dead poller cannot make progress; bail out rather
                // than spin.
                eprintln!("[serve] event loop poller failed: {e}");
                break;
            }
            for &(token, readable, writable) in &events {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake.drain(),
                    _ => {
                        if readable {
                            self.read_ready(token);
                        }
                        if writable {
                            self.write_ready(token);
                        }
                    }
                }
            }
            self.events = events;
            // Completions are drained every iteration regardless of the
            // wake pipe, so a missed wake only costs one tick of latency.
            for token in self.completions.take() {
                self.complete(token);
            }
            self.expire_inflight();
        }
        // Drain deadline passed (or poller died): drop whatever is left.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// Sleep no longer than the nearest in-flight deadline (so 504s are
    /// timely) or one tick (so shutdown is).
    fn next_timeout(&self) -> Duration {
        let mut timeout = TICK;
        if self.inflight_count > 0 {
            let now = Instant::now();
            for conn in self.conns.values() {
                if let Some(inflight) = &conn.inflight {
                    timeout = timeout.min(inflight.deadline.saturating_duration_since(now));
                }
            }
        }
        timeout.max(Duration::from_millis(1))
    }

    /// Accepts until the backlog is dry (level-triggered readiness).
    fn accept_ready(&mut self) {
        loop {
            if self.draining {
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    metrics::counter_add(names::SERVE_CONNECTIONS, 1);
                    if self.conns.len() >= self.ctx.cfg.max_connections {
                        metrics::counter_add(names::SERVE_CONNECTIONS_REJECTED, 1);
                        server::reject_connection(stream, self.ctx.cfg.max_connections);
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(handle_of(&stream), token, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            read_buf: Vec::new(),
                            write_buf: Vec::new(),
                            written: 0,
                            inflight: None,
                            close_after_write: false,
                            want_write: false,
                            broken: false,
                        },
                    );
                    metrics::gauge_set(names::SERVE_OPEN_CONNECTIONS, self.conns.len() as f64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Pulls available bytes into the connection's read buffer, then
    /// advances its state machine.
    fn read_ready(&mut self, token: u64) {
        // Headroom above the body limit covers the head and modest
        // pipelining; a connection that outruns an unanswered request by
        // this much is abusive, not unlucky.
        let max_buf = server::MAX_BODY + (1 << 20);
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            loop {
                match conn.stream.read(&mut self.read_scratch) {
                    Ok(0) => {
                        conn.broken = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&self.read_scratch[..n]);
                        if conn.read_buf.len() > max_buf {
                            conn.broken = true;
                            break;
                        }
                        if n < self.read_scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.broken = true;
                        break;
                    }
                }
            }
        }
        self.advance(token);
    }

    fn write_ready(&mut self, token: u64) {
        self.flush(token);
        self.sync(token);
    }

    /// Parses and dispatches buffered requests (one in flight at a time),
    /// then flushes and reconciles poller interest.
    fn advance(&mut self, token: u64) {
        loop {
            let draining = self.draining;
            let inflight_now = self.inflight_count;
            let ctx = Arc::clone(&self.ctx);
            let completions = Arc::clone(&self.completions);
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.broken
                || conn.inflight.is_some()
                || conn.close_after_write
                || conn.read_buf.is_empty()
            {
                break;
            }
            match try_parse_request(&conn.read_buf, server::MAX_BODY) {
                Ok(None) => break,
                Ok(Some((request, consumed))) => {
                    conn.read_buf.drain(..consumed);
                    if draining {
                        let bytes = server::shutting_down_response();
                        conn.write_buf.extend_from_slice(&bytes);
                        conn.close_after_write = true;
                        break;
                    }
                    let notify: Box<dyn FnOnce() + Send> =
                        Box::new(move || completions.push(token));
                    match server::dispatch(&request, &ctx, inflight_now, notify) {
                        DispatchResult::Done { bytes, keep_alive } => {
                            conn.write_buf.extend_from_slice(&bytes);
                            if !keep_alive {
                                conn.close_after_write = true;
                                break;
                            }
                        }
                        DispatchResult::Pending(inflight) => {
                            conn.inflight = Some(*inflight);
                            self.inflight_count += 1;
                            metrics::gauge_set(names::SERVE_INFLIGHT, self.inflight_count as f64);
                            break;
                        }
                    }
                }
                Err(e) => {
                    let bytes = server::http_error_response(&e);
                    conn.write_buf.extend_from_slice(&bytes);
                    conn.close_after_write = true;
                    break;
                }
            }
        }
        self.flush(token);
        self.sync(token);
    }

    /// Writes as much buffered response as the socket accepts.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.written < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => {
                    conn.broken = true;
                    break;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.broken = true;
                    break;
                }
            }
        }
        if conn.written > 0 && conn.written == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.written = 0;
        }
    }

    /// Reconciles the connection's poller interest with its buffers, and
    /// tears it down when it is broken or finished.
    fn sync(&mut self, token: u64) {
        let (close, interest) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let pending_write = conn.written < conn.write_buf.len();
            if conn.broken || (!pending_write && conn.close_after_write) {
                (true, None)
            } else if pending_write != conn.want_write {
                conn.want_write = pending_write;
                (false, Some(pending_write))
            } else {
                (false, None)
            }
        };
        if close {
            self.close_conn(token);
        } else if let Some(writable) = interest {
            let handle = handle_of(&self.conns[&token].stream);
            self.poller.modify(handle, token, writable).ok();
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.poller.deregister(handle_of(&conn.stream), token);
        if conn.inflight.is_some() {
            // The answer, if it ever lands, has nowhere to go; its late
            // completion will find the token missing and no-op.
            self.inflight_count = self.inflight_count.saturating_sub(1);
            metrics::gauge_set(names::SERVE_INFLIGHT, self.inflight_count as f64);
        }
        metrics::gauge_set(names::SERVE_OPEN_CONNECTIONS, self.conns.len() as f64);
    }

    /// Delivers a filled response slot back onto its connection.
    fn complete(&mut self, token: u64) {
        let ctx = Arc::clone(&self.ctx);
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                // Connection closed while the request was in flight.
                return;
            };
            let Some(inflight) = &conn.inflight else {
                // Already finished (e.g. timed out last tick); stale wake.
                return;
            };
            match inflight.slot.take() {
                Some(outcome) => outcome,
                None => return, // spurious notification, not filled yet
            }
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let inflight = conn.inflight.take().expect("checked above");
        let (bytes, keep_alive) = server::finish_inflight(inflight, Some(outcome), &ctx);
        conn.write_buf.extend_from_slice(&bytes);
        if !keep_alive {
            conn.close_after_write = true;
        }
        self.inflight_count = self.inflight_count.saturating_sub(1);
        metrics::gauge_set(names::SERVE_INFLIGHT, self.inflight_count as f64);
        // A pipelined follow-up may be parseable now; advance also
        // flushes and re-syncs interest.
        self.advance(token);
    }

    /// Turns overdue in-flight requests into 504s (unless their result
    /// raced in at the last instant, which still wins).
    fn expire_inflight(&mut self) {
        if self.inflight_count == 0 {
            return;
        }
        let now = Instant::now();
        let ctx = Arc::clone(&self.ctx);
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.inflight.as_ref().is_some_and(|f| now >= f.deadline))
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let Some(inflight) = conn.inflight.take() else {
                continue;
            };
            let outcome = inflight.slot.take();
            let (bytes, keep_alive) = server::finish_inflight(inflight, outcome, &ctx);
            conn.write_buf.extend_from_slice(&bytes);
            if !keep_alive {
                conn.close_after_write = true;
            }
            self.inflight_count = self.inflight_count.saturating_sub(1);
            metrics::gauge_set(names::SERVE_INFLIGHT, self.inflight_count as f64);
            self.advance(token);
        }
    }

    /// Shutdown observed: stop accepting, give in-flight requests one
    /// request-timeout (plus slack) to finish, close idle connections now.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            self.poller.deregister(handle_of(&listener), TOKEN_LISTENER);
        }
        self.drain_deadline =
            Some(Instant::now() + self.ctx.cfg.request_timeout + Duration::from_secs(1));
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.inflight.is_none() && c.written == c.write_buf.len())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }
}
