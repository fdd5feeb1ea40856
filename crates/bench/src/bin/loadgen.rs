//! `loadgen` — an epoll-based HTTP load generator for `sevuldet serve` and
//! `sevuldet balance`, built to hold 10k concurrent keep-alive connections
//! from one process (the thread-per-request shape of a naive client would
//! melt first and measure itself, not the server).
//!
//! Each connection runs a closed loop by default — send `POST /scan`, await
//! the response, record latency, immediately send the next — so `N`
//! connections ≈ `N` outstanding requests. `--rate R` switches to an
//! open loop: requests are scheduled at a fixed aggregate rate and latency
//! is measured from the *scheduled* send time, so a server that falls
//! behind accrues queueing delay in the numbers instead of silently slowing
//! the generator (coordinated omission).
//!
//! ```text
//! loadgen --addr 127.0.0.1:8080 [--connections 1000] [--duration-s 10]
//!         [--warmup-s 2] [--distinct 64] [--rate 0] [--json] [--self-test]
//! ```
//!
//! `--distinct N` rotates N distinct source bodies (distinct digests), which
//! is what exercises consistent-hash cache affinity behind the balancer.
//! Reports req/s plus p50/p99/p999 latency; any non-200 response or I/O
//! error counts as a failure, broken down by status code and error class
//! (connect hangup vs read vs write) so chaos benches report *availability*
//! — completed / attempted — not just throughput. `--min-availability P`
//! (e.g. `0.999`) turns the exit gate from "zero failures" into "measured
//! availability ≥ P", which is what a rolling-restart run asserts.
//! `--self-test` spins an in-process server and runs a short closed-loop
//! burst against it (the CI smoke path).

#[cfg(target_os = "linux")]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    linux::main(&args)
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("loadgen requires Linux (epoll)");
    std::process::exit(2);
}

#[cfg(target_os = "linux")]
mod linux {
    use sevuldet::Json;
    use sevuldet_serve::http::{parse_response_buffer, HttpError};
    use sevuldet_serve::sys::{
        raise_nofile_limit, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
    };
    use std::collections::BTreeMap;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    const MAX_EVENTS: usize = 1024;

    /// The scan body template; `{i}` varies per distinct source so each has
    /// its own digest (and its own consistent-hash home shard).
    fn scan_body(i: usize) -> String {
        let source = format!(
            "void process_{i}(char *dest, char *data) {{\n    int n = atoi(data) + {i};\n    if (n < 16) {{\n        puts(\"small\");\n    }}\n    strncpy(dest, data, n);\n}}"
        );
        Json::obj(vec![
            ("source", Json::str(source)),
            ("name", Json::str(format!("bench_{i}.c"))),
        ])
        .to_string()
    }

    /// Pre-serialized keep-alive request bytes for one distinct body.
    fn request_bytes(addr: &str, body: &str) -> Vec<u8> {
        format!(
            "POST /scan HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    struct Conn {
        stream: TcpStream,
        wbuf: &'static [u8],
        wpos: usize,
        rbuf: Vec<u8>,
        /// When the in-flight request was (actually or nominally) sent.
        sent_at: Instant,
        /// Open loop: when this connection's next request is due.
        next_due: Instant,
        in_flight: bool,
        interest: u32,
        dead: bool,
    }

    struct Stats {
        latencies_ns: Vec<u64>,
        completed: u64,
        failures: u64,
        /// Responses by exact status code (200 included).
        statuses: BTreeMap<u16, u64>,
        /// Transport failures by class: `hangup` (EPOLLERR/HUP or EOF
        /// mid-response), `read`, `write`, `malformed` (a response that
        /// cannot be framed).
        errors: BTreeMap<&'static str, u64>,
    }

    pub fn main(args: &[String]) {
        let get = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .cloned()
        };
        let has = |name: &str| args.iter().any(|a| a == name);
        let parse = |name: &str, default: u64| -> u64 {
            get(name).map_or(default, |v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("bad {name} `{v}`");
                    std::process::exit(2);
                })
            })
        };

        if has("--self-test") {
            self_test();
            return;
        }
        let Some(addr) = get("--addr") else {
            eprintln!(
                "usage: loadgen --addr host:port [--connections N] [--duration-s N] [--warmup-s N] [--distinct N] [--rate R] [--min-availability P] [--json] [--self-test]"
            );
            std::process::exit(2);
        };
        let connections = parse("--connections", 1000) as usize;
        let duration = Duration::from_secs(parse("--duration-s", 10));
        let warmup = Duration::from_secs(parse("--warmup-s", 2));
        let distinct = (parse("--distinct", 64) as usize).max(1);
        let rate = parse("--rate", 0);
        let as_json = has("--json");
        let min_availability: Option<f64> = get("--min-availability").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad --min-availability `{v}`");
                std::process::exit(2);
            })
        });

        let report = run(&addr, connections, duration, warmup, distinct, rate);
        print_report(
            &report,
            connections,
            duration,
            distinct,
            rate,
            as_json,
            min_availability,
        );
    }

    struct Report {
        requests: u64,
        failures: u64,
        statuses: BTreeMap<u16, u64>,
        errors: BTreeMap<&'static str, u64>,
        elapsed: Duration,
        p50_ms: f64,
        p99_ms: f64,
        p999_ms: f64,
    }

    impl Report {
        /// Completed ÷ attempted: the availability a client of this fleet
        /// observed during the run.
        fn availability(&self) -> f64 {
            let attempted = self.requests + self.failures;
            if attempted == 0 {
                return 0.0;
            }
            self.requests as f64 / attempted as f64
        }
    }

    fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
        if sorted_ns.is_empty() {
            return 0.0;
        }
        let idx = ((sorted_ns.len() as f64 * q) as usize).min(sorted_ns.len() - 1);
        sorted_ns[idx] as f64 / 1e6
    }

    fn run(
        addr: &str,
        connections: usize,
        duration: Duration,
        warmup: Duration,
        distinct: usize,
        rate: u64,
    ) -> Report {
        match raise_nofile_limit() {
            Ok(limit) if (limit as usize) < connections + 64 => {
                eprintln!("warning: nofile limit {limit} is tight for {connections} connections");
            }
            Err(e) => eprintln!("warning: could not raise nofile limit: {e}"),
            _ => {}
        }

        // One request per distinct body, leaked once: connections borrow
        // them for the whole run without per-send allocation.
        let requests: Vec<&'static [u8]> = (0..distinct)
            .map(|i| &*Vec::leak(request_bytes(addr, &scan_body(i))))
            .collect();

        let ep = Epoll::new().expect("epoll");
        let mut conns: Vec<Conn> = Vec::with_capacity(connections);
        // Open loop: stagger each connection's schedule so the aggregate
        // rate is smooth, not a thundering herd at every interval edge.
        let interval = if rate > 0 {
            Duration::from_secs_f64(connections as f64 / rate as f64)
        } else {
            Duration::ZERO
        };
        let start = Instant::now();
        for i in 0..connections {
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("connect {i}: {e}");
                    std::process::exit(1);
                }
            };
            stream.set_nonblocking(true).expect("nonblocking");
            stream.set_nodelay(true).expect("nodelay");
            ep.add(stream.as_raw_fd(), i as u64, EPOLLIN)
                .expect("epoll add");
            conns.push(Conn {
                stream,
                wbuf: requests[i % distinct],
                wpos: 0,
                rbuf: Vec::new(),
                sent_at: start,
                next_due: start,
                in_flight: false,
                interest: EPOLLIN,
                dead: false,
            });
            // Pace the connect storm so the server's accept backlog never
            // overflows (it drains per event-loop wakeup).
            if i % 256 == 255 {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Schedules are based *after* the connect storm: at high connection
        // counts setup takes real time, and basing `next_due` before it
        // would book the loadgen's own slow start as server latency.
        let sched_start = Instant::now();
        if rate > 0 {
            for (i, c) in conns.iter_mut().enumerate() {
                c.next_due = sched_start + interval.mul_f64(i as f64 / connections as f64);
            }
        }

        let mut stats = Stats {
            latencies_ns: Vec::with_capacity(1 << 20),
            completed: 0,
            failures: 0,
            statuses: BTreeMap::new(),
            errors: BTreeMap::new(),
        };
        let measure_from = Instant::now() + warmup;
        let deadline = measure_from + duration;
        let mut measuring = false;
        let mut events = [EpollEvent::default(); MAX_EVENTS];
        let mut round = 0usize;

        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if !measuring && now >= measure_from {
                measuring = true;
                stats.latencies_ns.clear();
                stats.completed = 0;
                stats.failures = 0;
                stats.statuses.clear();
                stats.errors.clear();
            }
            // Kick idle connections whose next request is due (closed loop:
            // always due). Sweep a slice per iteration to bound the scan.
            for (i, c) in conns.iter_mut().enumerate() {
                if c.dead || c.in_flight {
                    continue;
                }
                if rate == 0 || c.next_due <= now {
                    begin_request(&ep, c, i, &requests, distinct, round, rate, interval, now);
                }
            }
            round += 1;

            let timeout = if rate > 0 { 1 } else { 10 };
            let n = ep.wait(&mut events, timeout).unwrap_or(0);
            for ev in &events[..n] {
                let (token, bits) = ({ ev.data } as usize, { ev.events });
                let c = &mut conns[token];
                if c.dead {
                    continue;
                }
                if bits & (EPOLLERR | EPOLLHUP) != 0 {
                    kill(&ep, c, &mut stats, measuring, "hangup");
                    continue;
                }
                if bits & EPOLLOUT != 0 {
                    continue_write(&ep, c, token, &mut stats, measuring);
                }
                if bits & EPOLLIN != 0 {
                    continue_read(&ep, c, token, &mut stats, measuring);
                }
            }
        }

        let elapsed = Instant::now() - measure_from.min(Instant::now());
        stats.latencies_ns.sort_unstable();
        Report {
            requests: stats.completed,
            failures: stats.failures,
            statuses: stats.statuses,
            errors: stats.errors,
            elapsed,
            p50_ms: percentile_ms(&stats.latencies_ns, 0.50),
            p99_ms: percentile_ms(&stats.latencies_ns, 0.99),
            p999_ms: percentile_ms(&stats.latencies_ns, 0.999),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn begin_request(
        ep: &Epoll,
        c: &mut Conn,
        token: usize,
        requests: &[&'static [u8]],
        distinct: usize,
        round: usize,
        rate: u64,
        interval: Duration,
        now: Instant,
    ) {
        // Rotate bodies across rounds so every connection eventually posts
        // every distinct source (a repeated-corpus workload).
        c.wbuf = requests[(token + round) % distinct];
        c.wpos = 0;
        c.in_flight = true;
        // Open loop: latency includes any lateness of this very send.
        c.sent_at = if rate > 0 { c.next_due } else { now };
        if rate > 0 {
            c.next_due += interval;
        }
        write_some(c);
        let want = if c.wpos < c.wbuf.len() {
            EPOLLIN | EPOLLOUT
        } else {
            EPOLLIN
        };
        if want != c.interest {
            if ep.modify(c.stream.as_raw_fd(), token as u64, want).is_err() {
                c.dead = true;
                return;
            }
            c.interest = want;
        }
    }

    fn write_some(c: &mut Conn) {
        while c.wpos < c.wbuf.len() {
            match c.stream.write(&c.wbuf[c.wpos..]) {
                Ok(0) => {
                    c.dead = true;
                    return;
                }
                Ok(n) => c.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.dead = true;
                    return;
                }
            }
        }
    }

    fn continue_write(ep: &Epoll, c: &mut Conn, token: usize, stats: &mut Stats, measuring: bool) {
        write_some(c);
        if c.dead {
            if measuring {
                stats.failures += 1;
                *stats.errors.entry("write").or_insert(0) += 1;
            }
            let _ = ep.delete(c.stream.as_raw_fd());
            return;
        }
        if c.wpos >= c.wbuf.len()
            && c.interest != EPOLLIN
            && ep
                .modify(c.stream.as_raw_fd(), token as u64, EPOLLIN)
                .is_ok()
        {
            c.interest = EPOLLIN;
        }
    }

    fn continue_read(ep: &Epoll, c: &mut Conn, _token: usize, stats: &mut Stats, measuring: bool) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    kill(ep, c, stats, measuring, "hangup");
                    return;
                }
                Ok(n) => {
                    c.rbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    kill(ep, c, stats, measuring, "read");
                    return;
                }
            }
        }
        // One request in flight per connection, so at most one complete
        // response sits in the buffer. A response the parser will not frame
        // desynchronizes the connection: count it and drop the connection.
        match take_response(&mut c.rbuf) {
            Ok(None) => {}
            Ok(Some(status)) => {
                if measuring {
                    *stats.statuses.entry(status).or_insert(0) += 1;
                    if status == 200 {
                        stats.completed += 1;
                        stats
                            .latencies_ns
                            .push(c.sent_at.elapsed().as_nanos() as u64);
                    } else {
                        stats.failures += 1;
                    }
                }
                c.in_flight = false;
            }
            Err(_) => kill(ep, c, stats, measuring, "malformed"),
        }
    }

    /// Takes one complete response off the front of `rbuf`, returning its
    /// status; `Ok(None)` until the whole response has arrived.
    fn take_response(rbuf: &mut Vec<u8>) -> Result<Option<u16>, HttpError> {
        let Some((resp, consumed)) = parse_response_buffer(rbuf)? else {
            return Ok(None);
        };
        rbuf.drain(..consumed);
        Ok(Some(resp.status))
    }

    fn kill(ep: &Epoll, c: &mut Conn, stats: &mut Stats, measuring: bool, class: &'static str) {
        if !c.dead {
            c.dead = true;
            let _ = ep.delete(c.stream.as_raw_fd());
            if measuring && c.in_flight {
                stats.failures += 1;
                *stats.errors.entry(class).or_insert(0) += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn print_report(
        report: &Report,
        connections: usize,
        duration: Duration,
        distinct: usize,
        rate: u64,
        as_json: bool,
        min_availability: Option<f64>,
    ) {
        let secs = report.elapsed.as_secs_f64().max(1e-9);
        let rps = report.requests as f64 / secs;
        let availability = report.availability();
        if as_json {
            let statuses = Json::Obj(
                report
                    .statuses
                    .iter()
                    .map(|(code, n)| (code.to_string(), Json::Num(*n as f64)))
                    .collect(),
            );
            let errors = Json::Obj(
                report
                    .errors
                    .iter()
                    .map(|(class, n)| (class.to_string(), Json::Num(*n as f64)))
                    .collect(),
            );
            println!(
                "{}",
                Json::obj(vec![
                    ("connections", Json::Num(connections as f64)),
                    ("duration_s", Json::Num(duration.as_secs_f64())),
                    ("distinct_sources", Json::Num(distinct as f64)),
                    ("rate_target", Json::Num(rate as f64)),
                    ("requests", Json::Num(report.requests as f64)),
                    ("failures", Json::Num(report.failures as f64)),
                    ("availability", Json::Num(availability)),
                    ("statuses", statuses),
                    ("errors", errors),
                    ("req_per_s", Json::Num(rps)),
                    ("p50_ms", Json::Num(report.p50_ms)),
                    ("p99_ms", Json::Num(report.p99_ms)),
                    ("p999_ms", Json::Num(report.p999_ms)),
                ])
            );
        } else {
            println!(
                "{connections} conns, {:.1}s: {} requests ({rps:.0} req/s), {} failure(s), availability {:.4}%; latency p50 {:.2} ms, p99 {:.2} ms, p99.9 {:.2} ms",
                secs,
                report.requests,
                report.failures,
                availability * 100.0,
                report.p50_ms,
                report.p99_ms,
                report.p999_ms
            );
            if !report.statuses.is_empty() || !report.errors.is_empty() {
                let statuses: Vec<String> = report
                    .statuses
                    .iter()
                    .map(|(code, n)| format!("{code}:{n}"))
                    .collect();
                let errors: Vec<String> = report
                    .errors
                    .iter()
                    .map(|(class, n)| format!("{class}:{n}"))
                    .collect();
                println!(
                    "  statuses {{{}}} transport-errors {{{}}}",
                    statuses.join(", "),
                    errors.join(", ")
                );
            }
        }
        let failed = match min_availability {
            Some(min) => availability < min,
            None => report.failures > 0,
        };
        if failed {
            std::process::exit(1);
        }
    }

    /// CI smoke: a tiny in-process server, 64 keep-alive connections,
    /// closed loop for two seconds — asserts zero failures and nonzero
    /// throughput, exercising the whole loadgen state machine plus the
    /// server's event loop.
    fn self_test() {
        use sevuldet::{save_detector, Detector, GadgetSpec, ModelKind, TrainConfig};
        use sevuldet_dataset::{sard, SardConfig};
        use sevuldet_serve::registry::ModelRegistry;
        use sevuldet_serve::server::{start, ServeConfig};

        let samples = sard::generate(&SardConfig {
            per_category: 5,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let cfg = TrainConfig {
            embed_dim: 10,
            w2v_epochs: 1,
            epochs: 2,
            cnn_channels: 8,
            seed: 42,
            ..TrainConfig::quick()
        };
        let mut det = Detector::train(&corpus, ModelKind::SevulDet, &cfg);
        let dir = std::env::temp_dir().join(format!("svd-loadgen-selftest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.svd");
        std::fs::write(&path, save_detector(&mut det)).expect("write model");

        let registry = ModelRegistry::open(&path).expect("model loads");
        let handle = start(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                max_batch: 16,
                queue_cap: 256,
                ..ServeConfig::default()
            },
            registry,
        )
        .expect("server starts");
        let addr = handle.addr().to_string();

        let report = run(
            &addr,
            64,
            Duration::from_secs(2),
            Duration::from_millis(500),
            8,
            0,
        );
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.failures, 0, "self-test saw request failures");
        assert!(report.requests > 0, "self-test completed no requests");
        println!(
            "loadgen self-test ok: {} requests, p99 {:.2} ms",
            report.requests, report.p99_ms
        );
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn complete_responses_are_taken_one_at_a_time() {
            let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 429".to_vec();
            assert_eq!(take_response(&mut buf), Ok(Some(200)));
            assert_eq!(buf, b"HTTP/1.1 429");
            assert_eq!(take_response(&mut buf), Ok(None));
        }

        /// An unparseable `Content-Length` is an error the caller counts
        /// as a transport failure — framing it as an empty body would
        /// silently desynchronize the rest of the stream.
        #[test]
        fn unparseable_content_length_is_an_error_not_an_empty_body() {
            let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 12x\r\n\r\n{\"ok\":true}".to_vec();
            assert!(take_response(&mut buf).is_err());
        }
    }
}
