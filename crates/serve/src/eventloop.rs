//! The epoll event loop: non-blocking accept/read/write with one
//! connection state machine per socket — the one connection front end of
//! both the scan server and the balancer. One loop thread owns every connection — header
//! parsing, body accumulation, response write-out with partial-write
//! resumption — and hands complete requests to a [`Handler`]. Handlers
//! answer either synchronously (metrics, health, protocol errors) or
//! asynchronously through a [`Completer`] (scan jobs scored by the batch
//! workers, proxied fleet requests), which posts the finished response back
//! to the loop over a channel plus a wakeup byte on a socketpair.
//!
//! Why this shape: a blocking server pins one OS thread per open socket, so
//! 10k idle keep-alive connections cost 10k stacks and a scheduler meltdown.
//! Here 10k connections cost 10k small buffers in one thread; the compute
//! plane (the micro-batch workers) is untouched.
//!
//! ## Slow-client hardening
//!
//! * a per-connection **header deadline**: a client that opened a request
//!   but has not finished its head within the budget is answered `408` and
//!   closed — a slowloris fleet can pin at most one buffer each, never a
//!   thread, and only until the deadline;
//! * the head cap answers `431` as soon as the buffered head exceeds it,
//!   even before its terminator arrives;
//! * declared-oversized bodies answer `413` before any body byte is read;
//! * the read buffer is bounded: a client pipelining faster than it reads
//!   responses gets its socket-level backpressure, not unbounded memory.
//!
//! Requests on one connection are processed strictly in order (pipelined
//! requests queue in the read buffer until the previous response is fully
//! written), so responses can never interleave.

use crate::http::{
    find_head_end, parse_request_buffer, write_response_with_headers, ParseStatus, Request,
    Response, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use crate::metrics::{CloseReason, ConnCounters};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reserved token for the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Reserved token for the wakeup socketpair.
const WAKE_TOKEN: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Events fetched per `epoll_wait`.
const MAX_EVENTS: usize = 1024;
/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Read-buffer bound per connection: one maximal request plus a pipelined
/// head. Beyond it the loop stops reading until responses drain.
const RBUF_CAP: usize = MAX_HEAD_BYTES + MAX_BODY_BYTES + 16 * 1024;
/// `epoll_wait` timeout, which bounds header-deadline sweep latency.
const TICK_MS: i32 = 50;
/// How long a draining loop keeps *idle* keep-alive connections around so
/// an already-connected client can get one final explicit answer (a `503`
/// with `Connection: close`) instead of a silent EOF. Past the linger,
/// idle connections are closed; in-flight work gets the full drain grace.
const DRAIN_IDLE_LINGER: Duration = Duration::from_secs(1);

/// A finished asynchronous response, addressed to (connection, request).
pub(crate) struct Completion {
    token: u64,
    seq: u64,
    resp: Response,
}

/// Wakes the event loop from another thread (a worker finishing a batch, a
/// reload thread, shutdown). One byte on a non-blocking socketpair; a full
/// pipe means a wakeup is already pending, so the error is ignored.
#[derive(Clone)]
pub(crate) struct WakeHandle(Arc<UnixStream>);

impl WakeHandle {
    /// Wakes the loop.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&[1u8]);
    }
}

/// The write half of an in-flight asynchronous request: whoever holds it
/// owes the connection exactly one response. Dropping it unanswered posts a
/// 503 instead — a vanished worker degrades to an error response, never to
/// a connection stuck forever.
pub(crate) struct Completer {
    inner: Option<(u64, u64, Sender<Completion>, WakeHandle)>,
}

impl Completer {
    /// Posts the response back to the loop and wakes it.
    pub fn complete(mut self, resp: Response) {
        if let Some((token, seq, tx, wake)) = self.inner.take() {
            let _ = tx.send(Completion { token, seq, resp });
            wake.wake();
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if let Some((token, seq, tx, wake)) = self.inner.take() {
            let _ = tx.send(Completion {
                token,
                seq,
                resp: Response::error(503, "request handler dropped"),
            });
            wake.wake();
        }
    }
}

/// Lazily hands a [`Completer`] to a handler that decides to answer
/// asynchronously; the loop observes whether it was taken.
pub(crate) struct CompleterSource<'a> {
    token: u64,
    seq: u64,
    tx: &'a Sender<Completion>,
    wake: &'a WakeHandle,
    taken: &'a mut bool,
}

impl CompleterSource<'_> {
    /// Takes the completer, committing the handler to answer later.
    pub fn take(self) -> Completer {
        *self.taken = true;
        Completer {
            inner: Some((self.token, self.seq, self.tx.clone(), self.wake.clone())),
        }
    }
}

/// What the event loop serves: routing and response accounting live behind
/// this, so the scan server and the fleet balancer share one loop.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Handles one complete request. `Some` answers synchronously; `None`
    /// means the handler took the completer and will answer later.
    fn handle(&self, req: &Request, completer: CompleterSource<'_>) -> Option<Response>;
    /// Response-status accounting (protocol errors included — the loop
    /// reports every response it writes).
    fn count_response(&self, status: u16);
    /// The connection lifecycle counters to maintain.
    fn conn_counters(&self) -> &ConnCounters;
}

/// Event-loop tunables.
#[derive(Debug, Clone)]
pub(crate) struct LoopConfig {
    /// Budget for a client to deliver its complete request head, and the
    /// longest pause between reads of a request body (408 past either).
    pub header_deadline: Duration,
    /// Open-connection cap; connections beyond it are closed at accept.
    pub max_connections: usize,
    /// How long a draining loop waits for in-flight responses before
    /// giving up.
    pub drain_grace: Duration,
    /// Test hook: shrink accepted sockets' kernel buffers to force partial
    /// reads/writes.
    pub sock_buf_bytes: Option<usize>,
}

/// A running event loop.
pub(crate) struct EventLoopHandle {
    /// Wakes the loop (e.g. after flipping the drain flag).
    pub wake: WakeHandle,
    /// The loop thread, joined on shutdown.
    pub thread: JoinHandle<()>,
}

/// Spawns the loop thread. The loop runs until `draining` flips true and
/// every connection has been flushed and closed (or the drain grace
/// expires).
pub(crate) fn start_event_loop(
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    draining: Arc<AtomicBool>,
    cfg: LoopConfig,
) -> std::io::Result<EventLoopHandle> {
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let wake = WakeHandle(Arc::new(wake_tx));

    let ep = Epoll::new()?;
    ep.add(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)?;
    ep.add(wake_rx.as_raw_fd(), WAKE_TOKEN, EPOLLIN)?;
    let (tx, rx) = mpsc::channel();

    let mut lp = Loop {
        ep,
        listener: Some(listener),
        wake_rx,
        wake: wake.clone(),
        conns: HashMap::new(),
        deadlines: VecDeque::new(),
        completions_tx: tx,
        completions_rx: rx,
        handler,
        draining,
        drain_started: None,
        cfg,
        next_token: FIRST_CONN_TOKEN,
    };
    let thread = std::thread::Builder::new()
        .name("svd-eventloop".to_string())
        .spawn(move || lp.run())?;
    Ok(EventLoopHandle { wake, thread })
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by a parsed request.
    rbuf: Vec<u8>,
    /// Pending response bytes and the write cursor into them.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Completed-request counter; completions are addressed to a seq so a
    /// stale one can never answer the wrong request.
    seq: u64,
    /// The seq of the in-flight asynchronous request, if any.
    awaiting: Option<u64>,
    /// Close once the in-flight async response is written.
    close_when_done: bool,
    /// Close as soon as `wbuf` flushes.
    close_after_write: bool,
    /// What to report when a server-initiated close happens.
    close_reason: CloseReason,
    /// The peer half-closed its writing side.
    read_closed: bool,
    /// Deadline for the in-progress request, if one is mid-arrival: its
    /// head's, then, once the head is complete, the body's next read's.
    read_deadline: Option<Instant>,
    /// The in-progress request's head is complete; its body is arriving.
    body_pending: bool,
    /// Currently registered epoll interest.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            seq: 0,
            awaiting: None,
            close_when_done: false,
            close_after_write: false,
            close_reason: CloseReason::ResponseComplete,
            read_closed: false,
            read_deadline: None,
            body_pending: false,
            interest: EPOLLIN | EPOLLRDHUP,
        }
    }

    fn desired_interest(&self) -> u32 {
        let mut want = EPOLLRDHUP;
        if !self.read_closed && self.rbuf.len() < RBUF_CAP {
            want |= EPOLLIN;
        }
        if self.wpos < self.wbuf.len() {
            want |= EPOLLOUT;
        }
        want
    }
}

struct Loop {
    ep: Epoll,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    wake: WakeHandle,
    conns: HashMap<u64, Conn>,
    /// Read deadlines in registration order (the budget is constant, so
    /// registration order is deadline order): `(deadline, token, seq)`.
    /// Entries are lazily invalidated — the conn may have finished its
    /// request, re-armed its body deadline or died; the sweep re-checks
    /// before acting.
    deadlines: VecDeque<(Instant, u64, u64)>,
    completions_tx: Sender<Completion>,
    completions_rx: Receiver<Completion>,
    handler: Arc<dyn Handler>,
    draining: Arc<AtomicBool>,
    drain_started: Option<Instant>,
    cfg: LoopConfig,
    next_token: u64,
}

impl Loop {
    fn run(&mut self) {
        let mut events = [EpollEvent::default(); MAX_EVENTS];
        loop {
            let n = self.ep.wait(&mut events, TICK_MS).unwrap_or_default();
            if n > 0 {
                // One span per wakeup-with-work: rides the PR 5 trace lanes
                // into `sevuldet_stage_duration_seconds{stage=...}`.
                let _s = sevuldet::trace::span!("serve.eventloop.wakeup");
                for ev in &events[..n] {
                    let (token, bits) = ({ ev.data }, { ev.events });
                    match token {
                        LISTENER_TOKEN => self.accept_ready(),
                        WAKE_TOKEN => self.drain_wake_bytes(),
                        _ => self.conn_ready(token, bits),
                    }
                }
                self.drain_completions();
            } else {
                self.drain_completions();
            }
            self.sweep_deadlines(Instant::now());
            if self.draining.load(Ordering::SeqCst) && self.drain_started.is_none() {
                self.begin_drain();
            }
            if let Some(started) = self.drain_started {
                if self.conns.is_empty() {
                    return;
                }
                if started.elapsed() > DRAIN_IDLE_LINGER {
                    // The courtesy window for idle keep-alive clients is
                    // over; only in-flight work may keep the loop alive.
                    let idle: Vec<u64> = self
                        .conns
                        .iter()
                        .filter(|(_, c)| {
                            c.awaiting.is_none() && c.wpos >= c.wbuf.len() && c.rbuf.is_empty()
                        })
                        .map(|(t, _)| *t)
                        .collect();
                    for t in idle {
                        self.close(t, CloseReason::Drain);
                    }
                    if self.conns.is_empty() {
                        return;
                    }
                }
                if started.elapsed() > self.cfg.drain_grace {
                    // Give up on stragglers, but keep the gauges honest.
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for t in tokens {
                        self.close(t, CloseReason::Drain);
                    }
                    return;
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let counters = self.handler.conn_counters();
                    counters.on_accept();
                    if self.conns.len() >= self.cfg.max_connections {
                        counters.on_close(CloseReason::OverCapacity);
                        continue; // stream drops => RST/FIN; cheapest shed
                    }
                    if stream.set_nonblocking(true).is_err() {
                        counters.on_close(CloseReason::IoError);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if let Some(bytes) = self.cfg.sock_buf_bytes {
                        let _ = crate::sys::set_socket_buffers(stream.as_raw_fd(), bytes, bytes);
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .ep
                        .add(stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP)
                        .is_err()
                    {
                        counters.on_close(CloseReason::IoError);
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn drain_wake_bytes(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn conn_ready(&mut self, token: u64, bits: u32) {
        if bits & EPOLLERR != 0 {
            self.close(token, CloseReason::IoError);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.readable(token);
        }
        if bits & EPOLLOUT != 0 {
            self.flush(token);
        }
    }

    fn readable(&mut self, token: u64) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut got = false;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.read_closed || conn.rbuf.len() >= RBUF_CAP {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    got = true;
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token, CloseReason::IoError);
                    return;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            if got && conn.body_pending {
                // The body moved: `progress` re-arms its deadline.
                conn.read_deadline = None;
            }
        }
        self.progress(token);
    }

    /// Parses and dispatches as many buffered requests as current state
    /// allows: stops at an async dispatch (responses stay ordered), a
    /// scheduled close, or an incomplete request.
    fn progress(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.awaiting.is_some() || conn.close_after_write {
                break;
            }
            if conn.rbuf.is_empty() {
                conn.read_deadline = None;
                conn.body_pending = false;
                if conn.read_closed {
                    if conn.wpos < conn.wbuf.len() {
                        break; // finish writing first
                    }
                    self.close(token, CloseReason::PeerClosed);
                    return;
                }
                break;
            }
            match parse_request_buffer(&conn.rbuf) {
                Ok(ParseStatus::NeedMore) => {
                    if conn.read_closed {
                        // EOF mid-request: nothing to answer anyone with.
                        self.close(token, CloseReason::PeerClosed);
                        return;
                    }
                    // The head must arrive within one budget of its first
                    // byte (the slowloris defence). A body gets the budget
                    // afresh after every read that brings more of it, so a
                    // slow but moving body finishes and a stalled one is
                    // answered `408`.
                    if !conn.body_pending && find_head_end(&conn.rbuf).is_some() {
                        conn.body_pending = true;
                        conn.read_deadline = None;
                    }
                    if conn.read_deadline.is_none() {
                        let deadline = Instant::now() + self.cfg.header_deadline;
                        conn.read_deadline = Some(deadline);
                        self.deadlines.push_back((deadline, token, conn.seq));
                    }
                    break;
                }
                Err(e) => {
                    let status = e.status;
                    let resp = Response::error(status, &e.msg);
                    self.enqueue_response(token, resp, true, CloseReason::ProtocolError);
                    break;
                }
                Ok(ParseStatus::Complete { req, consumed }) => {
                    conn.rbuf.drain(..consumed);
                    conn.read_deadline = None;
                    conn.body_pending = false;
                    conn.seq += 1;
                    let seq = conn.seq;
                    let keep_alive = req.keep_alive() && !self.draining.load(Ordering::SeqCst);
                    let mut taken = false;
                    let source = CompleterSource {
                        token,
                        seq,
                        tx: &self.completions_tx,
                        wake: &self.wake,
                        taken: &mut taken,
                    };
                    let handler = self.handler.clone();
                    let sync_resp = handler.handle(&req, source);
                    match sync_resp {
                        Some(resp) => {
                            self.enqueue_response(
                                token,
                                resp,
                                !keep_alive,
                                CloseReason::ResponseComplete,
                            );
                        }
                        None if taken => {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.awaiting = Some(seq);
                                conn.close_when_done = !keep_alive;
                            }
                            break;
                        }
                        None => {
                            // A handler bug; answer something rather than
                            // wedging the connection.
                            self.enqueue_response(
                                token,
                                Response::error(500, "handler produced no response"),
                                true,
                                CloseReason::ProtocolError,
                            );
                            break;
                        }
                    }
                }
            }
        }
        self.update_interest(token);
    }

    /// Serializes a response onto the connection's write buffer (with a
    /// fresh trace id, and `Connection: close` when `close`) and starts
    /// flushing it.
    fn enqueue_response(&mut self, token: u64, resp: Response, close: bool, reason: CloseReason) {
        self.handler.count_response(resp.status);
        let trace_id = sevuldet::trace::next_trace_id();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut extra: Vec<(&str, &str)> = vec![("X-Trace-Id", &trace_id)];
        for (k, v) in &resp.extra {
            extra.push((k.as_str(), v.as_str()));
        }
        // Writing to a Vec cannot fail.
        let _ = write_response_with_headers(
            &mut conn.wbuf,
            resp.status,
            &resp.content_type,
            &resp.body,
            &extra,
            close,
        );
        if close {
            conn.close_after_write = true;
            conn.close_reason = reason;
        }
        self.flush(token);
    }

    /// Writes as much buffered response as the socket accepts; a partial
    /// write leaves the cursor for EPOLLOUT to resume.
    fn flush(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.wpos >= conn.wbuf.len() {
                break;
            }
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.close(token, CloseReason::IoError);
                    return;
                }
                Ok(n) => {
                    let conn = self.conns.get_mut(&token).expect("conn just seen");
                    conn.wpos += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token, CloseReason::IoError);
                    return;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            if conn.close_after_write {
                let reason = conn.close_reason;
                self.close(token, reason);
                return;
            }
            if conn.read_closed && conn.rbuf.is_empty() && conn.awaiting.is_none() {
                self.close(token, CloseReason::PeerClosed);
                return;
            }
        }
        self.update_interest(token);
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = conn.desired_interest();
        if want != conn.interest {
            if self
                .ep
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                self.close(token, CloseReason::IoError);
                return;
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.interest = want;
            }
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(c) = self.completions_rx.try_recv() {
            let Some(conn) = self.conns.get_mut(&c.token) else {
                continue; // connection died while its job was in flight
            };
            if conn.awaiting != Some(c.seq) {
                continue; // stale completion for a superseded request
            }
            conn.awaiting = None;
            let close = conn.close_when_done || self.draining.load(Ordering::SeqCst);
            let reason = if self.draining.load(Ordering::SeqCst) {
                CloseReason::Drain
            } else {
                CloseReason::ResponseComplete
            };
            self.enqueue_response(c.token, c.resp, close, reason);
            // The response may unblock a pipelined next request.
            self.progress(c.token);
        }
    }

    fn sweep_deadlines(&mut self, now: Instant) {
        while let Some(&(deadline, token, seq)) = self.deadlines.front() {
            if deadline > now {
                break;
            }
            self.deadlines.pop_front();
            let expired = self.conns.get(&token).and_then(|conn| {
                let due = conn.seq == seq && conn.read_deadline.is_some_and(|d| d <= now);
                due.then_some(conn.body_pending)
            });
            if let Some(body) = expired {
                let part = if body { "body" } else { "head" };
                self.enqueue_response(
                    token,
                    Response::error(408, &format!("timeout reading request {part}")),
                    true,
                    CloseReason::HeaderTimeout,
                );
            }
        }
    }

    fn begin_drain(&mut self) {
        self.drain_started = Some(Instant::now());
        // Stop accepting: dropping the listener closes its fd, which also
        // deregisters it from epoll.
        self.listener.take();
        // Existing connections are kept: in-flight requests finish and
        // answer, and idle keep-alive clients get the linger window to send
        // one last request (which will be answered with `Connection:
        // close`, or `503` for scans). Responses written from here on all
        // close, because `keep_alive` consults the drain flag.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.awaiting.is_some() {
                conn.close_when_done = true; // finish, answer, then close
            } else if conn.wpos < conn.wbuf.len() {
                conn.close_after_write = true;
                conn.close_reason = CloseReason::Drain;
            }
        }
    }

    fn close(&mut self, token: u64, reason: CloseReason) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.ep.delete(conn.stream.as_raw_fd());
            self.handler.conn_counters().on_close(reason);
        }
    }
}
