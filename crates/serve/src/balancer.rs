//! The fleet front end: `sevuldet balance` runs one of these in front of N
//! `sevuldet serve --shard i/N` processes.
//!
//! Client connections ride the same epoll event loop as the single-process
//! server (`crate::eventloop`), so the balancer itself holds 10k+ open
//! connections on one thread. Completed requests are routed:
//!
//! * `POST /scan` — **consistent-hash** by the sha-256 digest of the
//!   request's `source` field, so repeated scans of the same file always
//!   land on the same shard and its `sevuldet-query` artifact cache stays
//!   hot (a request whose body does not parse falls back to round-robin;
//!   the shard answers it `400` exactly as it would have locally);
//! * `POST /reload` — **broadcast** to every healthy shard, with an
//!   aggregated JSON answer (`200` only when every shard reloads);
//! * `GET /healthz`, `GET /metrics` — answered by the balancer itself
//!   (fleet health summary and routing counters);
//! * everything else — **round-robin** over healthy shards, so probes and
//!   unknown paths get the shard's own byte-identical answer.
//!
//! ## Fault tolerance
//!
//! `/scan` is a pure function of its body, which makes retries safe by
//! construction; the forwarding plane exploits that everywhere:
//!
//! * **Per-request failover** — a connect failure, I/O error, backend
//!   timeout, `429`, or `5xx` from a shard re-routes the request to the
//!   next distinct healthy shard in ring order (round-robin order for
//!   unhashed requests), with jittered exponential backoff between the
//!   later attempts, always within the request's remaining deadline.
//! * **Deadline budget** — the client's `X-Deadline-Ms` (capped at
//!   `backend_timeout`, which is also the budget when the header is
//!   absent) is decremented by elapsed queue/connect/retry time before
//!   every forward; an exhausted budget answers `504` locally, so retries
//!   can never stack past the client's deadline.
//! * **Circuit breaking** — every request outcome (not just the probe
//!   loop) feeds a per-shard closed/open/half-open breaker: `fail_after`
//!   consecutive passive failures — or probe failures — open it and eject
//!   the shard from both rotations immediately; probe successes then walk
//!   it through half-open back to closed after `recover_after`. A probe
//!   success never masks passive failures, so a shard that accepts
//!   connections but stops answering (frozen worker) still gets ejected.
//! * **Hedged requests** — with `hedge_after` set, a `/scan` whose primary
//!   shard stays silent past the threshold (a fixed delay or a tracked
//!   latency percentile) races a second shard; the first answer wins and
//!   the loser is discarded, cutting tail latency under a slow shard.
//! * **Brownout** — past `shed_inflight` forwards in flight the balancer
//!   degrades instead of failing: requests marked `X-Sevuldet-Priority:
//!   low` are shed locally with a typed `503`, every `/scan` is shed past
//!   twice the threshold, and `/healthz` reports `"degraded"` (still
//!   `200`) so operators see the brownout before clients do.
//!
//! A health thread still polls each shard's `/healthz` on an interval as
//! the recovery path (and as a backstop for shards that never take
//! traffic). A draining shard (`503` from `/healthz`) counts as failed,
//! which is what makes rolling restarts invisible to clients.
//!
//! Forwarding is done by a small pool of blocking forwarder threads, each
//! holding one keep-alive connection per shard.

use crate::eventloop::{
    start_event_loop, Completer, CompleterSource, EventLoopHandle, Handler, LoopConfig,
};
use crate::http::{parse_response_buffer, Request, Response};
use crate::metrics::{ConnCounters, Family};
use sevuldet::{sha256_hex, Json};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Virtual nodes per shard on the consistent-hash ring. More points mean a
/// smoother keyspace split and smaller reshuffles on ejection.
const VNODES: usize = 64;

/// Recent `/scan` latencies kept for percentile-based hedging.
const LATENCY_WINDOW: usize = 512;

/// Fewest window samples before a percentile hedge threshold is trusted.
const LATENCY_MIN_SAMPLES: usize = 32;

/// When to launch a hedged second attempt for a silent `/scan` primary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HedgeAfter {
    /// A fixed silence budget.
    Fixed(Duration),
    /// A quantile (e.g. `0.99`) of the balancer's rolling latency window;
    /// hedging stays off until the window has enough samples.
    Percentile(f64),
}

impl std::str::FromStr for HedgeAfter {
    type Err = String;

    /// `"80"` → fixed 80 ms; `"p99"` / `"p99.9"` → that latency percentile.
    fn from_str(s: &str) -> Result<HedgeAfter, String> {
        if let Some(q) = s.strip_prefix('p') {
            let pct: f64 = q
                .parse()
                .map_err(|_| format!("bad hedge percentile `{s}`"))?;
            if !(0.0..100.0).contains(&pct) {
                return Err(format!("hedge percentile `{s}` outside (0, 100)"));
            }
            Ok(HedgeAfter::Percentile(pct / 100.0))
        } else {
            let ms: u64 = s
                .parse()
                .map_err(|_| format!("bad hedge delay `{s}` (want ms or pXX)"))?;
            Ok(HedgeAfter::Fixed(Duration::from_millis(ms)))
        }
    }
}

/// Balancer tunables.
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Bind address for the client-facing listener (`:0` picks a port).
    pub addr: String,
    /// Shard addresses, e.g. `["127.0.0.1:9001", "127.0.0.1:9002"]`.
    pub shards: Vec<String>,
    /// How often each shard's `/healthz` is polled.
    pub health_interval: Duration,
    /// Consecutive failures (probe or passive) before the breaker opens.
    pub fail_after: u32,
    /// Consecutive successes before an open breaker closes again.
    pub recover_after: u32,
    /// Blocking forwarder threads (each keeps one connection per shard).
    pub forwarders: usize,
    /// TCP connect timeout towards a shard.
    pub connect_timeout: Duration,
    /// Per-attempt read timeout towards a shard; also the deadline budget
    /// for requests that carry no `X-Deadline-Ms`.
    pub backend_timeout: Duration,
    /// Client header deadline (`408` past it), as on the serve loop.
    pub header_deadline: Duration,
    /// Open client connection cap.
    pub max_connections: usize,
    /// Hedged-request trigger for `/scan`; `None` disables hedging.
    pub hedge_after: Option<HedgeAfter>,
    /// In-flight forwards before the brownout starts shedding low-priority
    /// requests (`0` disables shedding).
    pub shed_inflight: usize,
    /// Base delay for jittered exponential backoff between failovers.
    pub retry_backoff: Duration,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            addr: "127.0.0.1:8080".to_string(),
            shards: Vec::new(),
            health_interval: Duration::from_millis(500),
            fail_after: 2,
            recover_after: 2,
            forwarders: 8,
            connect_timeout: Duration::from_secs(1),
            backend_timeout: Duration::from_secs(30),
            header_deadline: Duration::from_secs(5),
            max_connections: 16_384,
            hedge_after: None,
            shed_inflight: 1024,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// How a request was routed (the `mode` label on the routed counter).
#[derive(Debug, Clone, Copy)]
enum RouteMode {
    Hash,
    RoundRobin,
    Broadcast,
}

/// Circuit-breaker position; the numeric values are the
/// `sevuldet_balancer_breaker_state` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed = 0,
    Open = 1,
    HalfOpen = 2,
}

/// Per-shard breaker bookkeeping. Passive (real-traffic) and probe failure
/// streaks are tracked separately so a probe success cannot launder away
/// passive timeouts from a frozen shard, while a lone passive blip months
/// apart still cannot accumulate into an ejection.
#[derive(Debug)]
struct BreakerCore {
    state: BreakerState,
    passive_fails: u32,
    probe_fails: u32,
    oks: u32,
}

impl BreakerCore {
    fn new() -> BreakerCore {
        BreakerCore {
            state: BreakerState::Closed,
            passive_fails: 0,
            probe_fails: 0,
            oks: 0,
        }
    }
}

/// Per-shard routing/health counters.
struct ShardStats {
    addr: String,
    routed_hash: AtomicU64,
    routed_rr: AtomicU64,
    routed_broadcast: AtomicU64,
    ejections: AtomicU64,
    healthy: AtomicBool,
    breaker: Mutex<BreakerCore>,
}

impl ShardStats {
    fn new(addr: String) -> ShardStats {
        ShardStats {
            addr,
            routed_hash: AtomicU64::new(0),
            routed_rr: AtomicU64::new(0),
            routed_broadcast: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            // Optimistic start: shards are routable until the health thread
            // finds otherwise, so a balancer started moments before its
            // fleet does not blackhole the first interval.
            healthy: AtomicBool::new(true),
            breaker: Mutex::new(BreakerCore::new()),
        }
    }

    fn count_routed(&self, mode: RouteMode) {
        let c = match mode {
            RouteMode::Hash => &self.routed_hash,
            RouteMode::RoundRobin => &self.routed_rr,
            RouteMode::Broadcast => &self.routed_broadcast,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().unwrap_or_else(|e| e.into_inner()).state
    }
}

/// Everything the handler, health thread, and forwarders share.
struct Fleet {
    cfg: BalancerConfig,
    shards: Vec<ShardStats>,
    /// Consistent-hash ring over *healthy* shards: `(point, shard index)`
    /// sorted by point. Rebuilt on every health transition.
    ring: RwLock<Vec<(u64, usize)>>,
    /// Round-robin cursor.
    rr_next: AtomicUsize,
    /// Client-facing response statuses (the balancer's own `/metrics`).
    responses: [AtomicU64; 6],
    conn: ConnCounters,
    draining: Arc<AtomicBool>,
    /// Forwards accepted but not yet answered (brownout signal).
    inflight: AtomicI64,
    /// Extra attempts of any kind (stale-conn reconnects + failovers).
    retries: AtomicU64,
    /// Attempts that moved the request to a different shard.
    failovers: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    /// Requests shed locally by the brownout.
    shed: AtomicU64,
    /// `504`s answered locally on an exhausted deadline budget.
    deadline_local: AtomicU64,
    /// Recent `/scan` latencies (nanos) for percentile hedging.
    latency_window: Mutex<VecDeque<u64>>,
    /// Where forwarders enqueue hedge legs — a dedicated channel with its
    /// own forwarder pool, so hedges never starve behind saturated primary
    /// forwarders. Cleared at shutdown so the channel can actually close
    /// (forwarders must not own a `Sender`).
    hedge_tx: Mutex<Option<Sender<ForwardJob>>>,
}

impl Fleet {
    fn healthy_indices(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.shards[i].healthy.load(Ordering::SeqCst))
            .collect()
    }

    fn rebuild_ring(&self) {
        let mut ring = Vec::new();
        for i in self.healthy_indices() {
            for v in 0..VNODES {
                ring.push((hash_point(&format!("{}#{v}", self.shards[i].addr)), i));
            }
        }
        ring.sort_unstable();
        *self.ring.write().unwrap_or_else(|e| e.into_inner()) = ring;
    }

    /// The shard owning `key` on the ring, or `None` with no healthy shard.
    fn route_hash(&self, key: u64) -> Option<usize> {
        let ring = self.ring.read().unwrap_or_else(|e| e.into_inner());
        if ring.is_empty() {
            return None;
        }
        let at = ring.partition_point(|&(p, _)| p < key);
        Some(if at == ring.len() {
            ring[0].1
        } else {
            ring[at].1
        })
    }

    fn route_rr(&self) -> Option<usize> {
        let healthy = self.healthy_indices();
        if healthy.is_empty() {
            return None;
        }
        let n = self.rr_next.fetch_add(1, Ordering::Relaxed);
        Some(healthy[n % healthy.len()])
    }

    /// The next distinct healthy shard for a failover or hedge: ring-order
    /// successor of `key` (round-robin order without one) skipping shards
    /// already `tried`.
    fn next_candidate(&self, key: Option<u64>, tried: &[usize]) -> Option<usize> {
        match key {
            Some(k) => {
                let ring = self.ring.read().unwrap_or_else(|e| e.into_inner());
                if ring.is_empty() {
                    return None;
                }
                let start = ring.partition_point(|&(p, _)| p < k);
                for off in 0..ring.len() {
                    let (_, s) = ring[(start + off) % ring.len()];
                    if !tried.contains(&s) && self.shards[s].healthy.load(Ordering::SeqCst) {
                        return Some(s);
                    }
                }
                None
            }
            None => {
                let healthy = self.healthy_indices();
                if healthy.is_empty() {
                    return None;
                }
                let n = self.rr_next.fetch_add(1, Ordering::Relaxed) % healthy.len();
                (0..healthy.len())
                    .map(|off| healthy[(n + off) % healthy.len()])
                    .find(|s| !tried.contains(s))
            }
        }
    }

    /// Feeds one request or probe outcome into the shard's breaker,
    /// ejecting / readmitting and rebuilding the ring on transitions.
    fn record_outcome(&self, shard: usize, ok: bool, from_probe: bool) {
        let s = &self.shards[shard];
        let mut changed = false;
        {
            let mut b = s.breaker.lock().unwrap_or_else(|e| e.into_inner());
            if ok {
                match b.state {
                    BreakerState::Closed => {
                        // A probe success must not clear *passive* failures:
                        // a frozen shard keeps answering probes while real
                        // requests time out.
                        if from_probe {
                            b.probe_fails = 0;
                        } else {
                            b.passive_fails = 0;
                        }
                    }
                    BreakerState::Open | BreakerState::HalfOpen => {
                        b.state = BreakerState::HalfOpen;
                        b.oks += 1;
                        if b.oks >= self.cfg.recover_after {
                            *b = BreakerCore::new();
                            s.healthy.store(true, Ordering::SeqCst);
                            changed = true;
                        }
                    }
                }
            } else {
                b.oks = 0;
                match b.state {
                    BreakerState::Closed => {
                        if from_probe {
                            b.probe_fails += 1;
                        } else {
                            b.passive_fails += 1;
                        }
                        if b.probe_fails >= self.cfg.fail_after
                            || b.passive_fails >= self.cfg.fail_after
                        {
                            b.state = BreakerState::Open;
                            b.passive_fails = 0;
                            b.probe_fails = 0;
                            s.healthy.store(false, Ordering::SeqCst);
                            s.ejections.fetch_add(1, Ordering::Relaxed);
                            changed = true;
                        }
                    }
                    BreakerState::HalfOpen => b.state = BreakerState::Open,
                    BreakerState::Open => {}
                }
            }
        }
        if changed {
            self.rebuild_ring();
        }
    }

    fn observe_latency(&self, latency: Duration) {
        let mut w = self
            .latency_window
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if w.len() >= LATENCY_WINDOW {
            w.pop_front();
        }
        w.push_back(latency.as_nanos() as u64);
    }

    /// The silence budget before a hedge launches, or `None` when hedging
    /// is off (or a percentile threshold has too little signal yet).
    fn hedge_delay(&self) -> Option<Duration> {
        match self.cfg.hedge_after? {
            HedgeAfter::Fixed(d) => Some(d),
            HedgeAfter::Percentile(q) => {
                let w = self
                    .latency_window
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if w.len() < LATENCY_MIN_SAMPLES {
                    return None;
                }
                let mut v: Vec<u64> = w.iter().copied().collect();
                drop(w);
                v.sort_unstable();
                let idx = ((v.len() as f64 * q) as usize).min(v.len() - 1);
                Some(Duration::from_nanos(v[idx]).max(Duration::from_millis(1)))
            }
        }
    }

    fn count_response(&self, status: u16) {
        let idx = match status {
            200..=299 => 0,
            400..=499 => 1,
            500..=599 => 2,
            _ => 3,
        };
        self.responses[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn render_metrics(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let mut f = Family::new(
            w,
            "sevuldet_balancer_routed_total",
            "counter",
            "Requests routed to each shard, by routing mode.",
        );
        for s in &self.shards {
            for (mode, c) in [
                ("hash", &s.routed_hash),
                ("rr", &s.routed_rr),
                ("broadcast", &s.routed_broadcast),
            ] {
                let n = c.load(Ordering::Relaxed);
                f.sample("", &[("shard", &s.addr), ("mode", &mode)], n);
            }
        }
        let mut f = Family::new(
            w,
            "sevuldet_balancer_ejections_total",
            "counter",
            "Breaker ejections per shard (probe or passive).",
        );
        for s in &self.shards {
            f.sample(
                "",
                &[("shard", &s.addr)],
                s.ejections.load(Ordering::Relaxed),
            );
        }
        let mut f = Family::new(
            w,
            "sevuldet_balancer_shard_healthy",
            "gauge",
            "Whether each shard is currently in rotation.",
        );
        for s in &self.shards {
            f.sample(
                "",
                &[("shard", &s.addr)],
                u8::from(s.healthy.load(Ordering::SeqCst)),
            );
        }
        let mut f = Family::new(
            w,
            "sevuldet_balancer_breaker_state",
            "gauge",
            "Circuit breaker per shard (0 closed, 1 open, 2 half-open).",
        );
        for s in &self.shards {
            f.sample("", &[("shard", &s.addr)], s.breaker_state() as u8);
        }
        for (name, help, value) in [
            (
                "sevuldet_balancer_retries_total",
                "Extra forward attempts (stale reconnects + failovers).",
                &self.retries,
            ),
            (
                "sevuldet_balancer_failovers_total",
                "Attempts re-routed to a different shard.",
                &self.failovers,
            ),
        ] {
            Family::new(w, name, "counter", help).sample("", &[], value.load(Ordering::Relaxed));
        }
        Family::new(
            w,
            "sevuldet_balancer_hedges_total",
            "counter",
            "Hedged second attempts, by outcome.",
        )
        .sample(
            "",
            &[("outcome", &"launched")],
            self.hedges_launched.load(Ordering::Relaxed),
        )
        .sample(
            "",
            &[("outcome", &"won")],
            self.hedges_won.load(Ordering::Relaxed),
        );
        for (name, help, value) in [
            (
                "sevuldet_balancer_shed_total",
                "Requests shed locally by the brownout.",
                &self.shed,
            ),
            (
                "sevuldet_balancer_deadline_local_total",
                "504s answered locally on an exhausted deadline budget.",
                &self.deadline_local,
            ),
        ] {
            Family::new(w, name, "counter", help).sample("", &[], value.load(Ordering::Relaxed));
        }
        Family::new(
            w,
            "sevuldet_balancer_inflight",
            "gauge",
            "Forwards accepted but not yet answered.",
        )
        .sample("", &[], self.inflight.load(Ordering::Relaxed));
        let mut f = Family::new(
            w,
            "sevuldet_balancer_responses_total",
            "counter",
            "Client-facing responses by status class.",
        );
        for (i, class) in ["2xx", "4xx", "5xx", "other"].iter().enumerate() {
            f.sample(
                "",
                &[("class", class)],
                self.responses[i].load(Ordering::Relaxed),
            );
        }
        self.conn.render(w);
        out
    }
}

/// A point on the ring: the first 16 hex digits of a sha-256, as u64.
fn hash_point(s: &str) -> u64 {
    u64::from_str_radix(&sha256_hex(s.as_bytes())[..16], 16).unwrap_or(0)
}

/// The slice of a client request the forwarders re-serialize per attempt
/// (the deadline header is recomputed each time, so it cannot be baked in).
#[derive(Clone)]
struct ForwardReq {
    method: String,
    path: String,
    content_type: Option<String>,
    body: Vec<u8>,
}

impl ForwardReq {
    fn from_request(req: &Request) -> ForwardReq {
        ForwardReq {
            method: req.method.clone(),
            path: req.path.clone(),
            content_type: req.header("content-type").map(str::to_string),
            body: req.body.clone(),
        }
    }
}

/// The one-shot response slot a request's primary and hedge legs race for.
type Winner = Arc<Mutex<Option<Completer>>>;

fn winner_taken(winner: &Winner) -> bool {
    winner.lock().unwrap_or_else(|e| e.into_inner()).is_none()
}

/// Takes the completer (first caller wins) and settles the inflight gauge.
fn claim(fleet: &Fleet, winner: &Winner) -> Option<Completer> {
    let c = winner.lock().unwrap_or_else(|e| e.into_inner()).take();
    if c.is_some() {
        fleet.inflight.fetch_sub(1, Ordering::Relaxed);
    }
    c
}

/// One forwarded request, handed to the forwarder pool.
struct ForwardJob {
    shard: usize,
    mode: RouteMode,
    /// Hash-ring key for `/scan` (failovers walk its successors).
    key: Option<u64>,
    req: ForwardReq,
    /// Absolute client deadline; every attempt, backoff, and hedge stays
    /// inside it.
    deadline: Instant,
    /// Shards already attempted by this leg (a hedge starts with the
    /// primary listed, so it never duplicates it).
    tried: Vec<usize>,
    winner: Winner,
    is_hedge: bool,
    enqueued: Instant,
}

/// A running balancer.
pub struct BalancerHandle {
    addr: SocketAddr,
    fleet: Arc<Fleet>,
    event_loop: Option<EventLoopHandle>,
    health_thread: Option<JoinHandle<()>>,
    forwarder_threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    jobs_tx: Option<Sender<ForwardJob>>,
}

impl BalancerHandle {
    /// The actual bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, answer in-flight forwards, stop
    /// the health thread and forwarders.
    pub fn shutdown(mut self) {
        self.fleet.draining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        if let Some(lh) = self.event_loop.take() {
            lh.wake.wake();
            let _ = lh.thread.join();
        }
        // Drop every sender — the fleet's hedge sender included — so the
        // channel closes and the forwarder loops end once drained; every
        // in-flight job still answers (into a dead loop, harmlessly).
        *self
            .fleet
            .hedge_tx
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
        drop(self.jobs_tx.take());
        for t in self.forwarder_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds the client listener and spawns the loop, health, and forwarder
/// threads.
///
/// # Errors
///
/// Propagates bind failures; an empty shard list is `InvalidInput`.
pub fn start(cfg: BalancerConfig) -> std::io::Result<BalancerHandle> {
    if cfg.shards.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "balancer needs at least one shard address",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let _ = crate::sys::raise_nofile_limit();

    let fleet = Arc::new(Fleet {
        shards: cfg.shards.iter().cloned().map(ShardStats::new).collect(),
        ring: RwLock::new(Vec::new()),
        rr_next: AtomicUsize::new(0),
        responses: Default::default(),
        conn: ConnCounters::default(),
        draining: Arc::new(AtomicBool::new(false)),
        inflight: AtomicI64::new(0),
        retries: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        hedges_launched: AtomicU64::new(0),
        hedges_won: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        deadline_local: AtomicU64::new(0),
        latency_window: Mutex::new(VecDeque::new()),
        hedge_tx: Mutex::new(None),
        cfg,
    });
    fleet.rebuild_ring();

    let (jobs_tx, jobs_rx) = mpsc::channel::<ForwardJob>();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let mut forwarder_threads: Vec<JoinHandle<()>> = (0..fleet.cfg.forwarders.max(1))
        .map(|i| {
            let fleet = fleet.clone();
            let rx = jobs_rx.clone();
            std::thread::Builder::new()
                .name(format!("svd-forward-{i}"))
                .spawn(move || forwarder_loop(&fleet, &rx))
                .expect("spawn forwarder")
        })
        .collect();

    // Hedge legs get their own channel and pool. Sharing the primary pool
    // would let a saturated fleet (every forwarder blocked reading a slow
    // shard) starve the very hedges meant to race those slow reads — the
    // hedge would only start once a primary finished, defeating it.
    let (hedge_jobs_tx, hedge_jobs_rx) = mpsc::channel::<ForwardJob>();
    *fleet.hedge_tx.lock().unwrap_or_else(|e| e.into_inner()) = Some(hedge_jobs_tx);
    let hedge_jobs_rx = Arc::new(Mutex::new(hedge_jobs_rx));
    forwarder_threads.extend((0..fleet.cfg.forwarders.max(1)).map(|i| {
        let fleet = fleet.clone();
        let rx = hedge_jobs_rx.clone();
        std::thread::Builder::new()
            .name(format!("svd-hedge-{i}"))
            .spawn(move || forwarder_loop(&fleet, &rx))
            .expect("spawn hedge forwarder")
    }));

    let stop = Arc::new(AtomicBool::new(false));
    let health_thread = {
        let fleet = fleet.clone();
        let stop = stop.clone();
        std::thread::Builder::new()
            .name("svd-health".to_string())
            .spawn(move || health_loop(&fleet, &stop))
            .expect("spawn health thread")
    };

    let handler = Arc::new(BalancerHandler {
        fleet: fleet.clone(),
        jobs_tx: jobs_tx.clone(),
    });
    let loop_cfg = LoopConfig {
        header_deadline: fleet.cfg.header_deadline,
        max_connections: fleet.cfg.max_connections,
        drain_grace: Duration::from_secs(30),
        sock_buf_bytes: None,
    };
    let lh = start_event_loop(listener, handler, fleet.draining.clone(), loop_cfg)?;

    Ok(BalancerHandle {
        addr,
        fleet,
        event_loop: Some(lh),
        health_thread: Some(health_thread),
        forwarder_threads,
        stop: stop.clone(),
        jobs_tx: Some(jobs_tx),
    })
}

/// The deadline budget a client request gets: its `X-Deadline-Ms`, capped
/// at twice `backend_timeout` (which is also the default without the
/// header). Two backend timeouts — not one — so that a request whose
/// first shard times out (the slow/frozen-shard scenario) still has a
/// full attempt's budget left to fail over with; each individual attempt
/// is still bounded by `backend_timeout`.
fn budget(req: &Request, cfg: &BalancerConfig) -> Duration {
    let cap = cfg.backend_timeout * 2;
    req.header("x-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .map_or(cap, |d| d.min(cap))
}

/// The event loop's view of the balancer.
struct BalancerHandler {
    fleet: Arc<Fleet>,
    jobs_tx: Sender<ForwardJob>,
}

impl BalancerHandler {
    /// Queues a forward towards `shard`, or answers 503 when the pool is
    /// gone (shutdown race).
    fn forward(
        &self,
        shard: usize,
        mode: RouteMode,
        key: Option<u64>,
        req: &Request,
        completer: Completer,
    ) {
        let now = Instant::now();
        self.fleet.shards[shard].count_routed(mode);
        self.fleet.inflight.fetch_add(1, Ordering::Relaxed);
        let job = ForwardJob {
            shard,
            mode,
            key,
            req: ForwardReq::from_request(req),
            deadline: now + budget(req, &self.fleet.cfg),
            tried: Vec::new(),
            winner: Arc::new(Mutex::new(Some(completer))),
            is_hedge: false,
            enqueued: now,
        };
        if let Err(mpsc::SendError(job)) = self.jobs_tx.send(job) {
            if let Some(c) = claim(&self.fleet, &job.winner) {
                c.complete(Response::error(503, "balancer draining"));
            }
        }
    }

    /// Brownout check: past `shed_inflight` forwards in flight, shed
    /// low-priority requests locally; past twice that, shed this request
    /// regardless. Returns the shed response, or `None` to proceed.
    fn maybe_shed(&self, req: &Request) -> Option<Response> {
        let threshold = self.fleet.cfg.shed_inflight;
        if threshold == 0 {
            return None;
        }
        let inflight = self.fleet.inflight.load(Ordering::Relaxed);
        if inflight < threshold as i64 {
            return None;
        }
        let low = req
            .header("x-sevuldet-priority")
            .is_some_and(|v| v.trim().eq_ignore_ascii_case("low"));
        if low || inflight >= 2 * threshold as i64 {
            self.fleet.shed.fetch_add(1, Ordering::Relaxed);
            return Some(Response::error(503, "shed under overload (brownout)"));
        }
        None
    }
}

impl Handler for BalancerHandler {
    fn handle(&self, req: &Request, completer: CompleterSource<'_>) -> Option<Response> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/scan") => {
                if let Some(shed) = self.maybe_shed(req) {
                    return Some(shed);
                }
                // Hash-route by source digest so one file's repeat scans
                // always hit the same shard's warm cache. A body the
                // balancer cannot read falls back to round-robin: the
                // shard produces the byte-identical 400 the single-process
                // server would.
                let key = std::str::from_utf8(&req.body)
                    .ok()
                    .and_then(|text| Json::parse(text).ok())
                    .and_then(|doc| doc.get("source").and_then(Json::as_str).map(str::to_string))
                    .map(|source| hash_point(&sha256_hex(source.as_bytes())));
                let (shard, mode) = match key {
                    Some(key) => (self.fleet.route_hash(key), RouteMode::Hash),
                    None => (self.fleet.route_rr(), RouteMode::RoundRobin),
                };
                let Some(shard) = shard else {
                    return Some(Response::error(503, "no healthy shards"));
                };
                self.forward(shard, mode, key, req, completer.take());
                None
            }
            ("POST", "/reload") => {
                // Broadcast: every healthy shard reloads; the aggregate is
                // 200 only when all of them did.
                let healthy = self.fleet.healthy_indices();
                if healthy.is_empty() {
                    return Some(Response::error(503, "no healthy shards"));
                }
                let completer = completer.take();
                let fleet = self.fleet.clone();
                let freq = ForwardReq::from_request(req);
                for &i in &healthy {
                    fleet.shards[i].count_routed(RouteMode::Broadcast);
                }
                // Reloads take real time (model load + smoke test) and go
                // to several shards; run the fan-out off the loop thread.
                let spawned = std::thread::Builder::new()
                    .name("svd-broadcast".to_string())
                    .spawn(move || {
                        let resp = broadcast_reload(&fleet, &healthy, &freq);
                        completer.complete(resp);
                    });
                if spawned.is_err() {
                    // The dropped completer answers 503.
                }
                None
            }
            ("GET", "/healthz") => {
                if self.fleet.draining.load(Ordering::SeqCst) {
                    return Some(Response::json(
                        503,
                        Json::obj(vec![("status", Json::str("draining"))]).to_string(),
                    ));
                }
                let healthy = self.fleet.healthy_indices().len();
                let total = self.fleet.shards.len();
                let inflight = self.fleet.inflight.load(Ordering::Relaxed).max(0);
                let threshold = self.fleet.cfg.shed_inflight;
                // Degraded readiness: still serving (200), but either part
                // of the fleet is ejected or the brownout threshold is hit
                // — operators should look before clients notice.
                let browned_out = threshold > 0 && inflight >= threshold as i64;
                let (status, text) = if healthy == 0 {
                    (503, "no healthy shards")
                } else if healthy < total || browned_out {
                    (200, "degraded")
                } else {
                    (200, "ok")
                };
                Some(Response::json(
                    status,
                    Json::obj(vec![
                        ("status", Json::str(text)),
                        ("healthy_shards", Json::Num(healthy as f64)),
                        ("total_shards", Json::Num(total as f64)),
                        ("inflight", Json::Num(inflight as f64)),
                    ])
                    .to_string(),
                ))
            }
            ("GET", "/metrics") => Some(Response::new(
                200,
                crate::metrics::CONTENT_TYPE,
                self.fleet.render_metrics(),
            )),
            (_, "/healthz" | "/metrics") => Some(Response::error(405, "method not allowed")),
            _ => {
                // Unknown paths and probe traffic round-robin to a shard,
                // which answers exactly as it would have locally (404s
                // included).
                let Some(shard) = self.fleet.route_rr() else {
                    return Some(Response::error(503, "no healthy shards"));
                };
                self.forward(shard, RouteMode::RoundRobin, None, req, completer.take());
                None
            }
        }
    }

    fn count_response(&self, status: u16) {
        self.fleet.count_response(status);
    }

    fn conn_counters(&self) -> &ConnCounters {
        &self.fleet.conn
    }
}

/// Re-serializes a parsed client request for a shard, propagating the
/// request's *remaining* deadline budget (recomputed per attempt, so
/// retries can never stack past the client's deadline) and the headers
/// that matter, normalizing the rest.
fn serialize_request(req: &ForwardReq, host: &str, deadline_ms: Option<u64>) -> Vec<u8> {
    let mut out = format!(
        "{} {} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n",
        req.method,
        req.path,
        req.body.len()
    );
    if let Some(ms) = deadline_ms {
        out.push_str(&format!("X-Deadline-Ms: {ms}\r\n"));
    }
    if let Some(v) = &req.content_type {
        out.push_str(&format!("Content-Type: {v}\r\n"));
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(&req.body);
    bytes
}

/// A pending hedge launch: fire `action` once the clock passes `at`.
struct HedgeFire<'a> {
    at: Instant,
    action: Box<dyn FnOnce() + 'a>,
}

/// Reads one response, accumulating into a buffer in short timeout slices
/// so the wait can observe the attempt deadline, fire a pending hedge, and
/// abandon early once the other leg has answered.
fn read_shard_response(
    conn: &mut TcpStream,
    attempt_deadline: Instant,
    winner: Option<&Winner>,
    hedge: &mut Option<HedgeFire<'_>>,
) -> std::io::Result<Response> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(w) = winner {
            if winner_taken(w) {
                return Err(std::io::Error::other("superseded by the other leg"));
            }
        }
        let now = Instant::now();
        if now >= attempt_deadline {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        if let Some(h) = hedge.as_ref() {
            if now >= h.at {
                let h = hedge.take().expect("hedge present");
                (h.action)();
            }
        }
        let mut slice = (attempt_deadline - now).min(Duration::from_millis(50));
        if let Some(h) = hedge.as_ref() {
            slice = slice.min(h.at - now);
        }
        conn.set_read_timeout(Some(slice.max(Duration::from_millis(1))))?;
        match conn.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "shard closed before responding",
                ))
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let parsed = parse_response_buffer(&buf)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.msg))?;
                if let Some((mut resp, consumed)) = parsed {
                    // Trailing bytes would desynchronize the keep-alive
                    // connection; never reuse it.
                    resp.close |= consumed != buf.len();
                    return Ok(resp);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn connect(
    addr: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> std::io::Result<TcpStream> {
    let sock_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable shard")
    })?;
    let conn = TcpStream::connect_timeout(&sock_addr, connect_timeout)?;
    conn.set_read_timeout(Some(read_timeout))?;
    conn.set_nodelay(true)?;
    Ok(conn)
}

/// Writes one request and reads one response on a fresh, short-lived
/// connection (probes and reload broadcasts; no hedging, no winner race).
fn forward_blocking(
    conn: &mut TcpStream,
    request: &[u8],
    timeout: Duration,
) -> std::io::Result<Response> {
    conn.write_all(request)?;
    read_shard_response(conn, Instant::now() + timeout, None, &mut None)
}

/// One forwarder thread: pops jobs and runs each through the failover loop.
fn forwarder_loop(fleet: &Fleet, rx: &Mutex<Receiver<ForwardJob>>) {
    let mut conns: HashMap<usize, TcpStream> = HashMap::new();
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok(job) = job else {
            return; // channel closed: shutdown
        };
        handle_job(fleet, &mut conns, job);
    }
}

/// How one forward attempt ended.
enum AttemptOutcome {
    /// The shard produced a complete HTTP response (any status).
    Answered(Response),
    /// Connect/write/read failure or timeout — failover-eligible.
    Failed,
    /// The other hedge leg already answered the client; stop silently.
    Superseded,
}

/// One attempt against one shard: cached keep-alive connection first, one
/// fresh reconnect when the cached one is stale — and, unlike a stale
/// pooled connection, a failure on the *fresh* connection is a real shard
/// failure that stays eligible for failover instead of surfacing as a
/// balancer error.
fn attempt(
    fleet: &Fleet,
    conns: &mut HashMap<usize, TcpStream>,
    shard: usize,
    request: &[u8],
    deadline: Instant,
    winner: &Winner,
    hedge: &mut Option<HedgeFire<'_>>,
) -> AttemptOutcome {
    let addr = &fleet.shards[shard].addr;
    let attempt_deadline = deadline.min(Instant::now() + fleet.cfg.backend_timeout);
    let try_once = |conn: &mut TcpStream, hedge: &mut Option<HedgeFire<'_>>| {
        conn.write_all(request)
            .and_then(|()| read_shard_response(conn, attempt_deadline, Some(winner), hedge))
    };
    if let Some(mut conn) = conns.remove(&shard) {
        match try_once(&mut conn, hedge) {
            Ok(sr) => {
                if !sr.close {
                    conns.insert(shard, conn);
                }
                return AttemptOutcome::Answered(sr);
            }
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                // The shard is slow, not the connection stale; retrying the
                // same shard on a fresh socket would just burn the budget.
                return AttemptOutcome::Failed;
            }
            Err(_) if winner_taken(winner) => return AttemptOutcome::Superseded,
            Err(_) => {
                // Stale pooled connection (shard restarted between
                // requests): one fresh reconnect below.
                fleet.retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return AttemptOutcome::Failed;
    }
    let mut conn = match connect(
        addr,
        fleet.cfg.connect_timeout.min(remaining),
        fleet.cfg.backend_timeout,
    ) {
        Ok(c) => c,
        Err(_) => return AttemptOutcome::Failed,
    };
    match try_once(&mut conn, hedge) {
        Ok(sr) => {
            if !sr.close {
                conns.insert(shard, conn);
            }
            AttemptOutcome::Answered(sr)
        }
        Err(_) if winner_taken(winner) => AttemptOutcome::Superseded,
        Err(_) => AttemptOutcome::Failed,
    }
}

/// Cheap per-thread xorshift for backoff jitter (no RNG dependency; the
/// seed only has to differ across threads, not be unpredictable).
fn jitter_rand() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0) };
    }
    STATE.with(|s| {
        let mut x = s.get();
        if x == 0 {
            x = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64 + d.as_secs())
                .unwrap_or(0x9e37_79b9)
                | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x
    })
}

/// Jittered exponential backoff before the `nth` failover (the first is
/// immediate — a reset shard should fail over instantly), never spending
/// more than a fraction of the remaining deadline budget.
fn failover_backoff(fleet: &Fleet, nth: u32, deadline: Instant) {
    if nth < 2 {
        return;
    }
    let base = fleet.cfg.retry_backoff.as_millis().max(1) as u64;
    let full = (base << (nth - 2).min(4)).min(200);
    let jittered = full / 2 + jitter_rand() % (full / 2 + 1);
    let remaining = deadline.saturating_duration_since(Instant::now());
    let sleep = Duration::from_millis(jittered).min(remaining / 4);
    if !sleep.is_zero() {
        std::thread::sleep(sleep);
    }
}

/// Queues the hedge leg for `job` towards the next distinct healthy shard.
fn launch_hedge(fleet: &Fleet, job: &ForwardJob, primary: usize) {
    let tried = vec![primary];
    let Some(shard) = fleet.next_candidate(job.key, &tried) else {
        return;
    };
    let guard = fleet.hedge_tx.lock().unwrap_or_else(|e| e.into_inner());
    let Some(tx) = guard.as_ref() else {
        return; // shutting down
    };
    fleet.hedges_launched.fetch_add(1, Ordering::Relaxed);
    let _ = tx.send(ForwardJob {
        shard,
        mode: job.mode,
        key: job.key,
        req: job.req.clone(),
        deadline: job.deadline,
        tried,
        winner: job.winner.clone(),
        is_hedge: true,
        enqueued: job.enqueued,
    });
}

/// Completes the client's response from a shard answer (first leg wins).
fn deliver(fleet: &Fleet, job: &ForwardJob, shard: usize, mut resp: Response) {
    let Some(completer) = claim(fleet, &job.winner) else {
        return;
    };
    if job.is_hedge {
        fleet.hedges_won.fetch_add(1, Ordering::Relaxed);
    }
    if job.req.path == "/scan" && resp.status == 200 {
        fleet.observe_latency(job.enqueued.elapsed());
    }
    resp.extra.push((
        "X-Sevuldet-Shard".to_string(),
        fleet.shards[shard].addr.clone(),
    ));
    if let RouteMode::Hash = job.mode {
        resp.extra
            .push(("X-Sevuldet-Route".to_string(), "hash".to_string()));
    }
    completer.complete(resp);
}

/// The failover loop for one request leg: attempt, record the outcome into
/// the breaker, and walk ring successors on retryable failures — all
/// inside the deadline budget, answering a typed local `504` once it is
/// exhausted.
fn handle_job(fleet: &Fleet, conns: &mut HashMap<usize, TcpStream>, mut job: ForwardJob) {
    // Hedging arms only on the primary leg's first attempt, for hashed
    // requests (a hedge of a hedge, or of a failover, would multiply load
    // exactly when the fleet is struggling).
    let hedge_delay = if job.is_hedge || job.key.is_none() {
        None
    } else {
        fleet.hedge_delay()
    };
    let mut shard = job.shard;
    let mut failovers = 0u32;
    loop {
        if winner_taken(&job.winner) {
            return;
        }
        let now = Instant::now();
        let remaining = job.deadline.saturating_duration_since(now);
        if remaining.is_zero() {
            fleet.deadline_local.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = claim(fleet, &job.winner) {
                c.complete(Response::error(
                    504,
                    "deadline exhausted before a shard reply",
                ));
            }
            return;
        }
        let request = serialize_request(
            &job.req,
            &fleet.shards[shard].addr,
            Some((remaining.as_millis() as u64).max(1)),
        );
        let mut hedge = match hedge_delay {
            Some(d) if failovers == 0 => Some(HedgeFire {
                at: now + d,
                action: Box::new(|| launch_hedge(fleet, &job, shard)),
            }),
            _ => None,
        };
        let outcome = attempt(
            fleet,
            conns,
            shard,
            &request,
            job.deadline,
            &job.winner,
            &mut hedge,
        );
        drop(hedge);
        if !job.tried.contains(&shard) {
            job.tried.push(shard);
        }
        let retry_to = |tried: &[usize]| fleet.next_candidate(job.key, tried);
        match outcome {
            AttemptOutcome::Superseded => return,
            AttemptOutcome::Answered(sr) => {
                let server_err = sr.status >= 500;
                fleet.record_outcome(shard, !server_err, false);
                // 5xx and 429 (queue full) are worth another shard — /scan
                // is idempotent and another shard may have capacity; when
                // no failover target remains the shard's own answer goes
                // back to the client (it is a real, typed answer).
                if (server_err || sr.status == 429) && !winner_taken(&job.winner) {
                    if let Some(next) = retry_to(&job.tried) {
                        failovers += 1;
                        fleet.retries.fetch_add(1, Ordering::Relaxed);
                        fleet.failovers.fetch_add(1, Ordering::Relaxed);
                        failover_backoff(fleet, failovers, job.deadline);
                        shard = next;
                        continue;
                    }
                }
                deliver(fleet, &job, shard, sr);
                return;
            }
            AttemptOutcome::Failed => {
                fleet.record_outcome(shard, false, false);
                conns.remove(&shard);
                if let Some(next) = retry_to(&job.tried) {
                    failovers += 1;
                    fleet.retries.fetch_add(1, Ordering::Relaxed);
                    fleet.failovers.fetch_add(1, Ordering::Relaxed);
                    failover_backoff(fleet, failovers, job.deadline);
                    shard = next;
                    continue;
                }
                if let Some(c) = claim(fleet, &job.winner) {
                    c.complete(Response::error(
                        502,
                        "shard unavailable (no failover target)",
                    ));
                }
                return;
            }
        }
    }
}

/// Fans a reload out to every healthy shard (its own short-lived
/// connections; reloads are rare) and aggregates.
fn broadcast_reload(fleet: &Fleet, healthy: &[usize], req: &ForwardReq) -> Response {
    let mut results = Vec::new();
    let mut all_ok = true;
    for &i in healthy {
        let addr = &fleet.shards[i].addr;
        let request = serialize_request(req, addr, None);
        let outcome = connect(addr, fleet.cfg.connect_timeout, fleet.cfg.backend_timeout)
            .and_then(|mut conn| forward_blocking(&mut conn, &request, fleet.cfg.backend_timeout));
        let (status, body) = match outcome {
            Ok(sr) => (sr.status, String::from_utf8(sr.body).unwrap_or_default()),
            Err(e) => (0, format!("{{\"error\":\"{e}\"}}")),
        };
        if status != 200 {
            all_ok = false;
        }
        results.push(Json::obj(vec![
            ("shard", Json::str(addr.as_str())),
            ("status", Json::Num(status as f64)),
            (
                "body",
                Json::parse(&body).unwrap_or_else(|_| Json::str(body.as_str())),
            ),
        ]));
    }
    let status = if all_ok { 200 } else { 502 };
    Response::json(
        status,
        Json::obj(vec![
            ("reloaded", Json::Bool(all_ok)),
            ("shards", Json::Arr(results)),
        ])
        .to_string(),
    )
}

/// The health thread: probes every shard's `/healthz` each interval and
/// feeds the outcomes into the same breakers the forwarders use. Probes
/// are the recovery path for open breakers (an ejected shard takes no
/// traffic, so only probes can walk it back through half-open).
fn health_loop(fleet: &Fleet, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        for (i, shard) in fleet.shards.iter().enumerate() {
            let ok = probe(&shard.addr, fleet.cfg.connect_timeout);
            fleet.record_outcome(i, ok, true);
        }
        // Sleep in small slices so shutdown is prompt.
        let mut slept = Duration::ZERO;
        while slept < fleet.cfg.health_interval && !stop.load(Ordering::SeqCst) {
            let slice = Duration::from_millis(50).min(fleet.cfg.health_interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// One `/healthz` probe. A draining shard (503) counts as down, which is
/// what routes traffic away during a rolling restart.
fn probe(addr: &str, timeout: Duration) -> bool {
    let Ok(mut conn) = connect(addr, timeout, timeout) else {
        return false;
    };
    let req = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    matches!(
        forward_blocking(&mut conn, req.as_bytes(), timeout),
        Ok(sr) if sr.status == 200
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_fleet(addrs: &[&str]) -> Fleet {
        let fleet = Fleet {
            cfg: BalancerConfig {
                shards: addrs.iter().map(|s| s.to_string()).collect(),
                ..BalancerConfig::default()
            },
            shards: addrs
                .iter()
                .map(|s| ShardStats::new(s.to_string()))
                .collect(),
            ring: RwLock::new(Vec::new()),
            rr_next: AtomicUsize::new(0),
            responses: Default::default(),
            conn: ConnCounters::default(),
            draining: Arc::new(AtomicBool::new(false)),
            inflight: AtomicI64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            hedges_launched: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_local: AtomicU64::new(0),
            latency_window: Mutex::new(VecDeque::new()),
            hedge_tx: Mutex::new(None),
        };
        fleet.rebuild_ring();
        fleet
    }

    #[test]
    fn ring_routes_consistently_and_redistributes_on_ejection() {
        let fleet = test_fleet(&["a:1", "b:1", "c:1"]);

        let keys: Vec<u64> = (0..1000u64)
            .map(|i| hash_point(&format!("key-{i}")))
            .collect();
        let before: Vec<usize> = keys.iter().map(|&k| fleet.route_hash(k).unwrap()).collect();
        // Same key, same shard — every time.
        let again: Vec<usize> = keys.iter().map(|&k| fleet.route_hash(k).unwrap()).collect();
        assert_eq!(before, again);
        // All three shards own some keyspace.
        for shard in 0..3 {
            assert!(before.contains(&shard), "shard {shard} owns no keys");
        }

        // Ejecting shard 1 moves only its keys; everyone else's stay put.
        fleet.shards[1].healthy.store(false, Ordering::SeqCst);
        fleet.rebuild_ring();
        let after: Vec<usize> = keys.iter().map(|&k| fleet.route_hash(k).unwrap()).collect();
        for (i, (&b, &a)) in before.iter().zip(&after).enumerate() {
            if b != 1 {
                assert_eq!(b, a, "key {i} moved although its shard stayed healthy");
            } else {
                assert_ne!(a, 1, "key {i} still routed to the ejected shard");
            }
        }
    }

    #[test]
    fn round_robin_cycles_healthy_shards_only() {
        let fleet = test_fleet(&["a:1", "b:1", "c:1"]);
        fleet.shards[1].healthy.store(false, Ordering::SeqCst);
        let picks: Vec<usize> = (0..6).map(|_| fleet.route_rr().unwrap()).collect();
        assert_eq!(picks, vec![0, 2, 0, 2, 0, 2]);
        fleet.shards[0].healthy.store(false, Ordering::SeqCst);
        fleet.shards[2].healthy.store(false, Ordering::SeqCst);
        assert!(fleet.route_rr().is_none());
    }

    #[test]
    fn failover_candidates_walk_ring_successors_without_repeats() {
        let fleet = test_fleet(&["a:1", "b:1", "c:1", "d:1"]);
        let key = hash_point("some-source-digest");
        let primary = fleet.route_hash(key).unwrap();

        // Walking the ring with a growing `tried` list visits every shard
        // exactly once, starting from the primary.
        let mut tried = Vec::new();
        let mut order = Vec::new();
        while let Some(s) = fleet.next_candidate(Some(key), &tried) {
            order.push(s);
            tried.push(s);
        }
        assert_eq!(order[0], primary, "first candidate must be the ring owner");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 2, 3],
            "every shard visited once: {order:?}"
        );

        // Unhealthy shards are skipped even when untried.
        fleet.shards[order[1]]
            .healthy
            .store(false, Ordering::SeqCst);
        fleet.rebuild_ring();
        let next = fleet.next_candidate(Some(key), &[order[0]]).unwrap();
        assert_ne!(next, order[1], "ejected shard offered as failover target");

        // Round-robin candidates (no key) also skip tried shards.
        let rr = fleet.next_candidate(None, &[0, 2, 3]).unwrap();
        assert!(
            !fleet.shards[rr].healthy.load(Ordering::SeqCst) || ![0usize, 2, 3].contains(&rr),
            "rr candidate repeated a tried shard"
        );
    }

    #[test]
    fn breaker_opens_on_passive_failures_despite_probe_successes() {
        let fleet = test_fleet(&["a:1", "b:1"]);
        // Probe successes interleaved with passive failures: the frozen
        // shard pattern. Probes must not launder the passive streak.
        fleet.record_outcome(0, false, false);
        fleet.record_outcome(0, true, true);
        assert!(fleet.shards[0].healthy.load(Ordering::SeqCst));
        fleet.record_outcome(0, false, false);
        assert!(
            !fleet.shards[0].healthy.load(Ordering::SeqCst),
            "fail_after=2 passive failures must open the breaker"
        );
        assert_eq!(fleet.shards[0].breaker_state(), BreakerState::Open);
        assert_eq!(fleet.shards[0].ejections.load(Ordering::Relaxed), 1);
        // The ring no longer contains the ejected shard.
        let ring = fleet.ring.read().unwrap();
        assert!(ring.iter().all(|&(_, s)| s != 0));
        drop(ring);

        // Recovery: recover_after successes walk open -> half-open -> closed.
        fleet.record_outcome(0, true, true);
        assert_eq!(fleet.shards[0].breaker_state(), BreakerState::HalfOpen);
        assert!(!fleet.shards[0].healthy.load(Ordering::SeqCst));
        fleet.record_outcome(0, true, true);
        assert_eq!(fleet.shards[0].breaker_state(), BreakerState::Closed);
        assert!(fleet.shards[0].healthy.load(Ordering::SeqCst));

        // A failure while half-open snaps back to open.
        fleet.record_outcome(0, false, true);
        fleet.record_outcome(0, false, true);
        fleet.record_outcome(0, true, true);
        assert_eq!(fleet.shards[0].breaker_state(), BreakerState::HalfOpen);
        fleet.record_outcome(0, false, false);
        assert_eq!(fleet.shards[0].breaker_state(), BreakerState::Open);
    }

    #[test]
    fn breaker_passive_success_clears_passive_streak() {
        let fleet = test_fleet(&["a:1"]);
        // fail, success, fail — never two consecutive: stays closed.
        fleet.record_outcome(0, false, false);
        fleet.record_outcome(0, true, false);
        fleet.record_outcome(0, false, false);
        assert_eq!(fleet.shards[0].breaker_state(), BreakerState::Closed);
        // Same for the probe streak.
        fleet.record_outcome(0, false, true);
        fleet.record_outcome(0, true, true);
        fleet.record_outcome(0, false, true);
        assert_eq!(fleet.shards[0].breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn serialized_requests_carry_remaining_deadline_and_content_type() {
        let freq = ForwardReq {
            method: "POST".to_string(),
            path: "/scan".to_string(),
            content_type: Some("application/json".to_string()),
            body: b"{\"source\":\"int main(){}\"}".to_vec(),
        };
        // The forwarder passes the *remaining* budget, not the client's
        // original header — a second attempt gets a smaller number.
        let bytes = serialize_request(&freq, "127.0.0.1:9001", Some(167));
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /scan HTTP/1.1\r\n"), "{text}");
        assert!(text.contains("Host: 127.0.0.1:9001\r\n"));
        assert!(text.contains("X-Deadline-Ms: 167\r\n"));
        assert!(text.contains("Content-Length: 25\r\n"));
        assert!(text.ends_with("{\"source\":\"int main(){}\"}"));

        let without = String::from_utf8(serialize_request(&freq, "h", None)).unwrap();
        assert!(!without.contains("X-Deadline-Ms"), "{without}");
    }

    #[test]
    fn budget_caps_header_at_twice_backend_timeout() {
        let cfg = BalancerConfig {
            backend_timeout: Duration::from_millis(500),
            ..BalancerConfig::default()
        };
        let req = |headers: Vec<(&str, &str)>| Request {
            method: "POST".to_string(),
            path: "/scan".to_string(),
            headers: headers
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        };
        assert_eq!(
            budget(&req(vec![("x-deadline-ms", "250")]), &cfg),
            Duration::from_millis(250)
        );
        assert_eq!(
            budget(&req(vec![("x-deadline-ms", "99999")]), &cfg),
            Duration::from_millis(1000),
            "header can lower the budget, never raise it past 2x backend_timeout"
        );
        // Default (no header): room for one full slow attempt plus a
        // failover attempt.
        assert_eq!(budget(&req(vec![]), &cfg), Duration::from_millis(1000));
        assert_eq!(
            budget(&req(vec![("x-deadline-ms", "soon")]), &cfg),
            Duration::from_millis(1000),
            "unparseable header falls back to the default budget"
        );
    }

    #[test]
    fn hedge_after_parses_fixed_and_percentile() {
        assert_eq!(
            "80".parse::<HedgeAfter>().unwrap(),
            HedgeAfter::Fixed(Duration::from_millis(80))
        );
        assert_eq!(
            "p99".parse::<HedgeAfter>().unwrap(),
            HedgeAfter::Percentile(0.99)
        );
        match "p99.9".parse::<HedgeAfter>().unwrap() {
            HedgeAfter::Percentile(q) => assert!((q - 0.999).abs() < 1e-9),
            other => panic!("expected percentile, got {other:?}"),
        }
        assert!("fast".parse::<HedgeAfter>().is_err());
        assert!("p200".parse::<HedgeAfter>().is_err());
    }

    #[test]
    fn hedge_delay_tracks_percentile_window() {
        let mut fleet = test_fleet(&["a:1", "b:1"]);
        fleet.cfg.hedge_after = Some(HedgeAfter::Percentile(0.5));
        assert_eq!(
            fleet.hedge_delay(),
            None,
            "no hedging before the window has signal"
        );
        for i in 0..LATENCY_MIN_SAMPLES as u64 {
            fleet.observe_latency(Duration::from_millis(10 + i % 3));
        }
        let d = fleet.hedge_delay().expect("window primed");
        assert!(
            d >= Duration::from_millis(10) && d <= Duration::from_millis(13),
            "median of a 10-12ms window, got {d:?}"
        );
        fleet.cfg.hedge_after = Some(HedgeAfter::Fixed(Duration::from_millis(40)));
        assert_eq!(fleet.hedge_delay(), Some(Duration::from_millis(40)));
    }
}
