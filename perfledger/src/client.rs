//! The load generator: one thread, at most two keep-alive connections,
//! `poll`-driven so the open loop can send on a schedule with sub-
//! millisecond precision while responses arrive.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until a descriptor is ready or `timeout` passes (`None` = no limit).
fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    let ts = timeout.map(|d| Timespec {
        tv_sec: d.as_secs() as i64,
        tv_nsec: d.subsec_nanos() as i64,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd structs whose length is passed alongside it; `ts_ptr` is null
    // or points at `ts`, which outlives the call; a null sigmask keeps the
    // signal mask unchanged. An error return (EINTR) only ends the wait early.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, ts_ptr, std::ptr::null());
    }
}

/// One request's outcome.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// From the scheduled (open loop) or actual (closed loop) send time.
    pub latency_ms: f64,
    /// Actual send time minus scheduled send time.
    pub lateness_ms: f64,
}

/// A phase's outcomes, indexed like the requests; `None` = transport error.
pub struct PhaseResult {
    pub replies: Vec<Option<Reply>>,
    pub elapsed: Duration,
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    /// While a request is in flight: its index, due time and send time.
    job: Option<(usize, Instant, Instant)>,
    dead: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            wbuf: Vec::new(),
            wpos: 0,
            rbuf: Vec::with_capacity(1 << 16),
            job: None,
            dead: false,
        })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what is available; returns a complete response when one is.
    fn read(&mut self) -> std::io::Result<Option<(u16, Vec<u8>)>> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(parse_response(&mut self.rbuf))
    }
}

/// Takes one complete `Content-Length` response off the front of `buf`.
fn parse_response(buf: &mut Vec<u8>) -> Option<(u16, Vec<u8>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    if buf.len() < head_end + len {
        return None;
    }
    let body = buf[head_end..head_end + len].to_vec();
    buf.drain(..head_end + len);
    Some((status, body))
}

/// Serialized keep-alive `POST /scan` request.
pub fn scan_request(body: &str) -> Vec<u8> {
    format!(
        "POST /scan HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends every request in order over `conns` connections. With `rate`
/// (requests per second) request k is due at `k / rate` after the start
/// and is timed from then; without it each free connection sends its next
/// request at once (closed loop).
pub fn run(addr: SocketAddr, requests: &[Vec<u8>], conns: usize, rate: Option<f64>) -> PhaseResult {
    let mut pool: Vec<Conn> = (0..conns)
        .map(|_| Conn::open(addr).expect("connect to the fleet"))
        .collect();
    let mut replies: Vec<Option<Reply>> = vec![None; requests.len()];
    let mut next = 0usize;
    let mut done = 0usize;
    let start = Instant::now();
    let due = |k: usize, now: Instant| match rate {
        Some(r) => start + Duration::from_secs_f64(k as f64 / r),
        None => now,
    };
    while done < requests.len() {
        // Hand the next due request to a free connection.
        let now = Instant::now();
        for c in pool.iter_mut().filter(|c| c.job.is_none() && !c.dead) {
            if next >= requests.len() {
                break;
            }
            let when = due(next, now);
            if when > now {
                break;
            }
            c.wbuf.clear();
            c.wbuf.extend_from_slice(&requests[next]);
            c.wpos = 0;
            c.job = Some((next, when, now));
            next += 1;
            if c.flush().is_err() {
                c.dead = true;
            }
        }
        // Fail requests stranded on a broken connection, then reconnect.
        for c in pool.iter_mut().filter(|c| c.dead) {
            if let Some((k, _, _)) = c.job.take() {
                replies[k] = None;
                done += 1;
            }
            match Conn::open(addr) {
                Ok(fresh) => *c = fresh,
                // Nobody listens: count the next request as failed, so a
                // vanished fleet ends the phase instead of stalling it.
                Err(_) if next < requests.len() => {
                    next += 1;
                    done += 1;
                }
                Err(_) => {}
            }
        }
        if done >= requests.len() {
            break;
        }
        let any_free = pool.iter().any(|c| c.job.is_none());
        let timeout = match rate {
            Some(_) if any_free && next < requests.len() => {
                let now = Instant::now();
                Some(due(next, now).saturating_duration_since(now))
            }
            _ if any_free && next < requests.len() => Some(Duration::ZERO),
            _ => None,
        };
        let mut fds: Vec<PollFd> = pool
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: match c.job {
                    Some(_) if c.wpos < c.wbuf.len() => POLLOUT,
                    Some(_) => POLLIN,
                    None => 0,
                },
                revents: 0,
            })
            .collect();
        if timeout != Some(Duration::ZERO) {
            wait(&mut fds, timeout);
        }
        for (c, fd) in pool.iter_mut().zip(&fds) {
            if fd.revents == 0 {
                continue;
            }
            if c.wpos < c.wbuf.len() {
                if c.flush().is_err() {
                    c.dead = true;
                }
                continue;
            }
            match c.read() {
                Ok(Some((status, body))) => {
                    let (k, when, sent) = c.job.take().expect("a response answers a request");
                    replies[k] = Some(Reply {
                        status,
                        body,
                        latency_ms: when.elapsed().as_secs_f64() * 1e3,
                        lateness_ms: sent.saturating_duration_since(when).as_secs_f64() * 1e3,
                    });
                    done += 1;
                }
                Ok(None) => {}
                Err(_) => c.dead = true,
            }
        }
    }
    PhaseResult {
        replies,
        elapsed: start.elapsed(),
    }
}

/// A one-off request on a fresh connection; returns `(status, body)`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let (status, body) = parse_response(&mut buf).expect("complete response");
    (status, String::from_utf8_lossy(&body).into_owned())
}
