//! Fleet chaos harness: a real balancer fronting real *shard processes*
//! (spawned from the `sevuldet` binary), driven through failpoints and
//! `kill -9`. Every scenario asserts the fleet's fault-tolerance contract:
//! each client gets a byte-identical correct response or a single bounded,
//! typed error — never a hang, never a mangled answer.
//!
//! Scenarios:
//! * shard murdered mid-burst (SIGKILL) — zero client-visible failures;
//! * frozen shard (accepts, never answers) — passive breaker ejection
//!   while the shard's own `/healthz` still reports healthy;
//! * slow shard — hedged requests cut the latency tail;
//! * rolling restart of every shard under load — availability stays 100%;
//! * exhausted `X-Deadline-Ms` — one typed local 504, retries never stack
//!   past the client's budget;
//! * (env-gated) long randomized kill schedule from a seeded generator.
//!
//! Set `SEVULDET_CHAOS_LONG=1` for the long randomized run (CI runs it on a
//! schedule, not on every push); `SEVULDET_CHAOS_SEED=N` reseeds it.
#![cfg(target_os = "linux")]

mod support;

use sevuldet::Json;
use sevuldet_serve::balancer::{start as start_balancer, BalancerConfig, HedgeAfter};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use support::{
    fleet_scan_body, metric_value, request_raw, reserve_addr, shard_header, try_request,
    write_model,
};

const BIN: &str = env!("CARGO_BIN_EXE_sevuldet");

/// Chaos tests spawn process fleets and assert on wall-clock timeouts;
/// running them concurrently starves each other of CPU and flakes. One at
/// a time.
fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One tiny deterministic model shared by every shard process (identical
/// bytes ⇒ identical answers, which is what byte-level comparison pins).
fn model_path() -> &'static Path {
    static P: OnceLock<PathBuf> = OnceLock::new();
    P.get_or_init(|| write_model("chaos", 42))
}

/// A shard subprocess. Dropping it SIGKILLs and reaps the child, so a
/// panicking test never leaks serve processes.
struct ShardProc {
    child: Child,
    addr: String,
}

impl ShardProc {
    /// Spawns `sevuldet serve` on `addr`, optionally with failpoints armed
    /// via the environment (the child parses `SEVULDET_FAILPOINTS` itself).
    fn spawn(addr: &str, failpoints: Option<&str>) -> ShardProc {
        let mut cmd = Command::new(BIN);
        cmd.args([
            "serve",
            "--model",
            model_path().to_str().unwrap(),
            "--addr",
            addr,
            "--workers",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
        if let Some(fp) = failpoints {
            cmd.env("SEVULDET_FAILPOINTS", fp);
        }
        let child = cmd.spawn().expect("spawn shard process");
        ShardProc {
            child,
            addr: addr.to_string(),
        }
    }

    /// Spawns and waits until `/healthz` answers 200.
    fn spawn_ready(addr: &str, failpoints: Option<&str>) -> ShardProc {
        let mut shard = ShardProc::spawn(addr, failpoints);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some((200, _, _)) = try_request(&shard.addr, "GET", "/healthz", "", "") {
                return shard;
            }
            if let Ok(Some(status)) = shard.child.try_wait() {
                panic!("shard on {addr} exited during startup: {status}");
            }
            assert!(
                Instant::now() < deadline,
                "shard on {addr} never became healthy"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// `kill -9`: no drain, no goodbye — the scenario the balancer must
    /// absorb without a client noticing.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill9();
    }
}

fn healthy_shards(balancer_addr: &str) -> f64 {
    let (_, health, _) = request_raw(balancer_addr, "GET", "/healthz", "", "");
    Json::parse(&health)
        .expect("health json")
        .get("healthy_shards")
        .and_then(|v| v.as_f64())
        .unwrap_or(-1.0)
}

fn wait_for_healthy(balancer_addr: &str, want: f64, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while healthy_shards(balancer_addr) != want {
        assert!(
            Instant::now() < deadline,
            "fleet never reached {want} healthy shards"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Byte-identical reference answers, captured while the fleet is calm.
fn reference_answers(balancer_addr: &str, sources: usize) -> Vec<String> {
    (0..sources)
        .map(|i| {
            let (status, body, _) =
                request_raw(balancer_addr, "POST", "/scan", &fleet_scan_body(i), "");
            assert_eq!(status, 200, "reference scan {i} failed: {body}");
            body
        })
        .collect()
}

/// Shared tally for client threads hammering the balancer during chaos.
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Tally {
    fn failures(&self) -> Vec<String> {
        self.errors
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Spawns `threads` client threads that cycle the source corpus through
/// the balancer until `stop` flips, comparing every answer against the
/// reference bodies.
fn spawn_clients(
    balancer_addr: &str,
    reference: &Arc<Vec<String>>,
    threads: usize,
    stop: &Arc<AtomicBool>,
    tally: &Arc<Tally>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..threads)
        .map(|t| {
            let addr = balancer_addr.to_string();
            let reference = Arc::clone(reference);
            let stop = Arc::clone(stop);
            let tally = Arc::clone(tally);
            std::thread::spawn(move || {
                let mut i = t; // offset so threads don't move in lockstep
                while !stop.load(Ordering::Relaxed) {
                    let idx = i % reference.len();
                    let (status, body, _) =
                        request_raw(&addr, "POST", "/scan", &fleet_scan_body(idx), "");
                    if status != 200 {
                        tally
                            .errors
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(format!("scan {idx}: status {status}: {body}"));
                    } else if body != reference[idx] {
                        tally
                            .errors
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(format!("scan {idx}: answer diverged from reference"));
                    } else {
                        tally.ok.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            })
        })
        .collect()
}

fn fleet_config(shards: &[ShardProc]) -> BalancerConfig {
    BalancerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: shards.iter().map(|s| s.addr.clone()).collect(),
        health_interval: Duration::from_millis(100),
        fail_after: 2,
        recover_after: 2,
        ..BalancerConfig::default()
    }
}

/// SIGKILL of one of four shards mid-burst: every client request still
/// gets a 200 with a byte-identical body — the per-request failover
/// absorbs the murder before the probe loop even notices.
#[test]
fn kill9_mid_burst_loses_zero_requests() {
    let _guard = chaos_lock();
    const SOURCES: usize = 24;
    let mut shards: Vec<ShardProc> = (0..4)
        .map(|_| ShardProc::spawn_ready(&reserve_addr(), None))
        .collect();
    let balancer = start_balancer(fleet_config(&shards)).expect("balancer binds");
    let addr = balancer.addr().to_string();
    let reference = Arc::new(reference_answers(&addr, SOURCES));

    // Pick the victim deterministically: the shard that owns source 0, so
    // at least that source is guaranteed to need a failover.
    let (_, _, raw) = request_raw(&addr, "POST", "/scan", &fleet_scan_body(0), "");
    let victim_addr = shard_header(&raw).expect("shard header");
    let victim = shards
        .iter()
        .position(|s| s.addr == victim_addr)
        .expect("victim in fleet");

    let stop = Arc::new(AtomicBool::new(false));
    let tally = Arc::new(Tally::default());
    let clients = spawn_clients(&addr, &reference, 3, &stop, &tally);

    std::thread::sleep(Duration::from_millis(500));
    shards[victim].kill9();
    std::thread::sleep(Duration::from_millis(1500));
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }

    let failures = tally.failures();
    assert!(
        failures.is_empty(),
        "kill -9 mid-burst leaked client failures: {failures:?}"
    );
    assert!(tally.ok.load(Ordering::Relaxed) > 0, "burst did no work");
    let (_, metrics, _) = request_raw(&addr, "GET", "/metrics", "", "");
    assert!(
        metric_value(&metrics, "sevuldet_balancer_failovers_total") >= 1.0,
        "the murdered shard's traffic must have failed over:\n{metrics}"
    );
    balancer.shutdown();
}

/// A frozen shard accepts connections and answers `/healthz`, but its
/// worker never finishes a scan. Active probes see a healthy shard —
/// only *passive* outcomes (backend timeouts) catch it, open the breaker,
/// and keep clients whole via failover.
#[test]
fn frozen_shard_trips_breaker_passively() {
    let _guard = chaos_lock();
    let healthy = ShardProc::spawn_ready(&reserve_addr(), None);
    // The scan worker sleeps ~forever on its first batch; the event loop
    // (and thus /healthz) stays perfectly responsive.
    let frozen = ShardProc::spawn_ready(&reserve_addr(), Some("worker_forward=sleep:600000"));
    let shards = [healthy, frozen];

    let balancer = start_balancer(BalancerConfig {
        backend_timeout: Duration::from_millis(700),
        // Huge recovery threshold: the frozen shard's /healthz probes keep
        // succeeding, and each success moves an ejected shard's breaker
        // from open to half-open — but it only rejoins the rotation after
        // `recover_after` of them. This test pins the *ejection*, not the
        // recovery.
        recover_after: 10_000,
        ..fleet_config(&shards)
    })
    .expect("balancer binds");
    let addr = balancer.addr().to_string();

    for i in 0..20 {
        let (status, body, _) = request_raw(&addr, "POST", "/scan", &fleet_scan_body(i), "");
        assert_eq!(status, 200, "scan {i} must fail over the freeze: {body}");
    }

    // The frozen shard still *looks* healthy to active probes …
    let (frozen_status, _, _) = request_raw(&shards[1].addr, "GET", "/healthz", "", "");
    assert_eq!(frozen_status, 200, "a frozen shard still answers /healthz");

    // … but passive outcomes ejected it and forced failovers. Its breaker
    // is open, or half-open once a probe has succeeded since (probes run
    // every 100 ms); either way it is out of rotation, never closed.
    let (_, metrics, _) = request_raw(&addr, "GET", "/metrics", "", "");
    let frozen = |name: &str| {
        let series = format!("{name}{{shard=\"{}\"}}", shards[1].addr);
        metric_value(&metrics, &series)
    };
    assert_eq!(
        frozen("sevuldet_balancer_shard_healthy"),
        0.0,
        "the frozen shard must be out of rotation:\n{metrics}"
    );
    assert!(
        frozen("sevuldet_balancer_ejections_total") >= 1.0,
        "passive failures must eject the frozen shard:\n{metrics}"
    );
    assert_ne!(
        frozen("sevuldet_balancer_breaker_state"),
        0.0,
        "the frozen shard's breaker must not be closed:\n{metrics}"
    );
    assert!(
        metric_value(&metrics, "sevuldet_balancer_failovers_total") >= 1.0,
        "frozen shard must have forced failovers:\n{metrics}"
    );
    balancer.shutdown();
}

/// Hedged requests: with one shard slowed by a failpoint, `--hedge-after`
/// races the other shard after a fixed delay and takes the first answer —
/// collapsing the latency tail that un-hedged routing exhibits.
#[test]
fn hedging_cuts_slow_shard_tail_latency() {
    let _guard = chaos_lock();
    const SOURCES: usize = 16;
    let fast = ShardProc::spawn_ready(&reserve_addr(), None);
    let slow = ShardProc::spawn_ready(&reserve_addr(), Some("worker_forward=sleep:700"));
    let shards = [fast, slow];

    let timings = |addr: &str| -> Vec<Duration> {
        (0..SOURCES)
            .map(|i| {
                let t0 = Instant::now();
                let (status, body, _) = request_raw(addr, "POST", "/scan", &fleet_scan_body(i), "");
                assert_eq!(status, 200, "scan {i}: {body}");
                t0.elapsed()
            })
            .collect()
    };

    // Phase 1 — hedging off: sources homed on the slow shard eat the full
    // failpoint delay.
    let plain = start_balancer(BalancerConfig {
        fail_after: 10_000, // keep the breaker out of this experiment
        ..fleet_config(&shards)
    })
    .expect("balancer binds");
    let slow_tail = timings(&plain.addr().to_string());
    plain.shutdown();
    let worst_plain = slow_tail.iter().max().copied().unwrap();
    assert!(
        worst_plain >= Duration::from_millis(500),
        "some source must home on the slow shard (worst {worst_plain:?})"
    );

    // Phase 2 — hedge after 80 ms: the fast shard answers long before the
    // slow one wakes up.
    let hedged = start_balancer(BalancerConfig {
        fail_after: 10_000,
        hedge_after: Some(HedgeAfter::Fixed(Duration::from_millis(80))),
        ..fleet_config(&shards)
    })
    .expect("balancer binds");
    let hedged_addr = hedged.addr().to_string();
    let hedge_tail = timings(&hedged_addr);
    let worst_hedged = hedge_tail.iter().max().copied().unwrap();
    assert!(
        worst_hedged < Duration::from_millis(500),
        "hedging must cut the tail below the failpoint delay (worst {worst_hedged:?})"
    );
    assert!(
        worst_hedged < worst_plain,
        "hedged tail {worst_hedged:?} must beat un-hedged {worst_plain:?}"
    );
    let (_, metrics, _) = request_raw(&hedged_addr, "GET", "/metrics", "", "");
    for needle in [
        "sevuldet_balancer_hedges_total{outcome=\"launched\"}",
        "sevuldet_balancer_hedges_total{outcome=\"won\"}",
    ] {
        assert!(
            metric_value(&metrics, needle) >= 1.0,
            "`{needle}` must count:\n{metrics}"
        );
    }
    hedged.shutdown();
}

/// Rolling restart of all four shards under sustained load: every client
/// request is answered correctly throughout — measured availability 100%,
/// far above the 99.9% the deployment contract demands.
#[test]
fn rolling_restart_keeps_every_client_whole() {
    let _guard = chaos_lock();
    const SOURCES: usize = 24;
    let mut shards: Vec<ShardProc> = (0..4)
        .map(|_| ShardProc::spawn_ready(&reserve_addr(), None))
        .collect();
    let balancer = start_balancer(fleet_config(&shards)).expect("balancer binds");
    let addr = balancer.addr().to_string();
    let reference = Arc::new(reference_answers(&addr, SOURCES));

    let stop = Arc::new(AtomicBool::new(false));
    let tally = Arc::new(Tally::default());
    let clients = spawn_clients(&addr, &reference, 2, &stop, &tally);

    for i in 0..shards.len() {
        let shard_addr = shards[i].addr.clone();
        shards[i].kill9();
        std::thread::sleep(Duration::from_millis(300));
        shards[i] = ShardProc::spawn_ready(&shard_addr, None);
        wait_for_healthy(&addr, shards.len() as f64, 20);
    }

    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }
    let failures = tally.failures();
    let ok = tally.ok.load(Ordering::Relaxed);
    assert!(
        failures.is_empty(),
        "rolling restart dropped requests (availability {:.4}%): {failures:?}",
        100.0 * ok as f64 / (ok + failures.len() as u64) as f64
    );
    assert!(ok > 0, "restart loop served no traffic");
    balancer.shutdown();
}

/// The deadline budget is a hard wall: with every shard frozen, a client
/// sending `X-Deadline-Ms: 400` gets exactly one typed 504 in ~400 ms —
/// retries and failovers never stack past the budget.
#[test]
fn deadline_budget_bounds_retries() {
    let _guard = chaos_lock();
    let a = ShardProc::spawn_ready(&reserve_addr(), Some("worker_forward=sleep:600000"));
    let b = ShardProc::spawn_ready(&reserve_addr(), Some("worker_forward=sleep:600000"));
    let shards = [a, b];
    let balancer = start_balancer(BalancerConfig {
        backend_timeout: Duration::from_secs(10),
        fail_after: 10_000, // keep both shards routable: only the budget stops us
        ..fleet_config(&shards)
    })
    .expect("balancer binds");
    let addr = balancer.addr().to_string();

    let t0 = Instant::now();
    let (status, body, _) = request_raw(
        &addr,
        "POST",
        "/scan",
        &fleet_scan_body(0),
        "X-Deadline-Ms: 400\r\n",
    );
    let elapsed = t0.elapsed();
    assert_eq!(status, 504, "exhausted budget must be a local 504: {body}");
    assert!(
        body.contains("deadline"),
        "the 504 must be a typed deadline error: {body}"
    );
    assert!(
        elapsed >= Duration::from_millis(350),
        "the budget should be spent trying ({elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_millis(1500),
        "retries stacked past the client deadline ({elapsed:?})"
    );
    let (_, metrics, _) = request_raw(&addr, "GET", "/metrics", "", "");
    assert!(
        metric_value(&metrics, "sevuldet_balancer_deadline_local_total") >= 1.0,
        "local 504s must be counted:\n{metrics}"
    );
    balancer.shutdown();
}

/// Long randomized chaos: a seeded kill schedule murders and revives
/// random shards under load for several rounds. Gated behind
/// `SEVULDET_CHAOS_LONG=1` so the per-push CI run stays deterministic and
/// quick; the scheduled job turns it on.
#[test]
fn long_randomized_kill_schedule() {
    if std::env::var("SEVULDET_CHAOS_LONG").as_deref() != Ok("1") {
        eprintln!("skipping: set SEVULDET_CHAOS_LONG=1 for the randomized chaos run");
        return;
    }
    let _guard = chaos_lock();
    let seed: u64 = std::env::var("SEVULDET_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);
    let mut rng = seed.max(1);
    let mut next = move || {
        // xorshift64: deterministic per seed, no external crates.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    const SOURCES: usize = 24;
    let mut shards: Vec<ShardProc> = (0..4)
        .map(|_| ShardProc::spawn_ready(&reserve_addr(), None))
        .collect();
    let balancer = start_balancer(fleet_config(&shards)).expect("balancer binds");
    let addr = balancer.addr().to_string();
    let reference = Arc::new(reference_answers(&addr, SOURCES));

    let stop = Arc::new(AtomicBool::new(false));
    let tally = Arc::new(Tally::default());
    let clients = spawn_clients(&addr, &reference, 3, &stop, &tally);

    for round in 0..6 {
        let victim = (next() as usize) % shards.len();
        let pause = 100 + next() % 400;
        let shard_addr = shards[victim].addr.clone();
        shards[victim].kill9();
        std::thread::sleep(Duration::from_millis(pause));
        shards[victim] = ShardProc::spawn_ready(&shard_addr, None);
        wait_for_healthy(&addr, shards.len() as f64, 20);
        eprintln!("round {round}: killed+revived shard {victim} (pause {pause}ms)");
    }

    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }
    let failures = tally.failures();
    assert!(
        failures.is_empty(),
        "randomized chaos dropped requests: {failures:?}"
    );
    balancer.shutdown();
}
