//! Fleet integration suite: a real balancer fronting real in-process shard
//! servers over TCP. Pins down consistent-hash scan routing (and the cache
//! affinity it buys over round-robin), round-robin for stateless routes,
//! reload broadcast, health-check ejection with readmission, and the
//! balancer's own health/metrics endpoints.
#![cfg(target_os = "linux")]

mod support;

use sevuldet::Json;
use sevuldet_serve::balancer::{start as start_balancer, BalancerConfig, BalancerHandle};
use sevuldet_serve::server::{ServeConfig, ServerHandle};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::{fleet_scan_body, metric_value, request_raw, reserve_addr, serve, shard_header};

/// Starts one shard server with fleet identity `index/total`, optionally on
/// a specific address.
fn start_shard(tag: &str, index: u32, total: u32, addr: Option<String>) -> ServerHandle {
    let cfg = ServeConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
        workers: 1,
        shard: Some((index, total)),
        ..ServeConfig::default()
    };
    serve(tag, cfg).0
}

/// Starts `n` shards plus a balancer fronting them.
fn start_fleet(tag: &str, n: u32) -> (BalancerHandle, Vec<ServerHandle>) {
    let shards: Vec<ServerHandle> = (0..n)
        .map(|i| start_shard(&format!("{tag}-{i}"), i, n, None))
        .collect();
    let balancer = start_balancer(BalancerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        health_interval: Duration::from_millis(100),
        ..BalancerConfig::default()
    })
    .expect("balancer binds");
    (balancer, shards)
}

/// Scans route by source-digest hash: the same source always lands on the
/// same shard; distinct sources spread; stateless routes round-robin.
#[test]
fn scans_route_by_hash_stateless_routes_round_robin() {
    let (balancer, shards) = start_fleet("routing", 3);
    let addr = balancer.addr();

    // Repeats of one source pin to one shard, and the response is marked
    // as hash-routed.
    let body = fleet_scan_body(0);
    let mut homes = std::collections::BTreeSet::new();
    for _ in 0..6 {
        let (status, resp, raw) = request_raw(addr, "POST", "/scan", &body, "");
        assert_eq!(status, 200, "{resp}");
        assert!(raw.contains("X-Sevuldet-Route: hash"), "{raw}");
        homes.insert(shard_header(&raw).expect("shard header"));
    }
    assert_eq!(
        homes.len(),
        1,
        "one source must pin to one shard: {homes:?}"
    );

    // Enough distinct sources touch more than one shard.
    let mut spread = std::collections::BTreeSet::new();
    for i in 1..16 {
        let (status, resp, raw) = request_raw(addr, "POST", "/scan", &fleet_scan_body(i), "");
        assert_eq!(status, 200, "{resp}");
        spread.insert(shard_header(&raw).expect("shard header"));
    }
    assert!(spread.len() > 1, "distinct sources must spread: {spread:?}");

    // A stateless shard route (`GET /metrics` is balancer-local, so use a
    // shard passthrough path) cycles: consecutive requests visit every
    // healthy shard. `/healthz` is balancer-local too, so probe a 404 path
    // — it forwards round-robin and still carries the shard header.
    let mut cycle = std::collections::BTreeSet::new();
    for _ in 0..6 {
        let (status, _, raw) = request_raw(addr, "GET", "/shard-poke", "", "");
        assert_eq!(status, 404);
        cycle.insert(shard_header(&raw).expect("shard header"));
    }
    assert_eq!(
        cycle.len(),
        3,
        "round-robin must cycle all shards: {cycle:?}"
    );

    // Balancer-local endpoints: fleet health and routing counters.
    let (status, health, _) = request_raw(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&health).expect("health json");
    assert_eq!(doc.get("healthy_shards").unwrap().as_f64(), Some(3.0));
    assert_eq!(doc.get("total_shards").unwrap().as_f64(), Some(3.0));

    let (status, metrics, _) = request_raw(addr, "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    for needle in [
        "sevuldet_balancer_routed_total",
        "mode=\"hash\"",
        "mode=\"rr\"",
        "sevuldet_balancer_ejections_total",
        "sevuldet_balancer_shard_healthy",
        "sevuldet_open_connections",
    ] {
        assert!(metrics.contains(needle), "missing `{needle}`:\n{metrics}");
    }

    balancer.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// `POST /reload` broadcasts: every shard reloads, the aggregate reports
/// each one, and every shard's model version bumps.
#[test]
fn reload_broadcasts_to_every_shard() {
    let (balancer, shards) = start_fleet("broadcast", 3);
    let (status, body, _) = request_raw(balancer.addr(), "POST", "/reload", "", "");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).expect("aggregate json");
    assert_eq!(doc.get("reloaded").unwrap().as_bool(), Some(true));

    for shard in &shards {
        let (status, health, _) = request_raw(shard.addr(), "GET", "/healthz", "", "");
        assert_eq!(status, 200);
        let doc = Json::parse(&health).expect("shard health");
        assert_eq!(
            doc.get("model_version").unwrap().as_f64(),
            Some(2.0),
            "shard missed the broadcast: {health}"
        );
    }
    balancer.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// A dead shard is ejected after consecutive probe failures, its traffic
/// redistributes, and it is readmitted once a server appears on its
/// address again.
#[test]
fn dead_shard_is_ejected_and_readmitted() {
    // A port with no server behind it: the "dead" shard.
    let dead_addr = reserve_addr();

    let live = start_shard("eject-live", 0, 2, None);
    let balancer = start_balancer(BalancerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: vec![live.addr().to_string(), dead_addr.clone()],
        health_interval: Duration::from_millis(100),
        fail_after: 2,
        recover_after: 2,
        ..BalancerConfig::default()
    })
    .expect("balancer binds");
    let addr = balancer.addr();

    // Wait for the ejection, visible in fleet health.
    let ejected = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(50));
        let (_, health, _) = request_raw(addr, "GET", "/healthz", "", "");
        let doc = Json::parse(&health).expect("health json");
        doc.get("healthy_shards").unwrap().as_f64() == Some(1.0)
    });
    assert!(ejected, "dead shard never ejected");

    // All scan traffic — including sources that hash to the dead shard —
    // now lands on the live one.
    for i in 0..8 {
        let (status, resp, raw) = request_raw(addr, "POST", "/scan", &fleet_scan_body(i), "");
        assert_eq!(status, 200, "{resp}");
        assert_eq!(
            shard_header(&raw).as_deref(),
            Some(live.addr().to_string().as_str()),
            "traffic must avoid the ejected shard"
        );
    }
    let (_, metrics, _) = request_raw(addr, "GET", "/metrics", "", "");
    assert!(
        metrics.contains(&format!(
            "sevuldet_balancer_ejections_total{{shard=\"{dead_addr}\"}} 1"
        )),
        "{metrics}"
    );

    // A server comes up on the dead address: after `recover_after` probes
    // the shard is back in rotation.
    let revived = start_shard("eject-revived", 1, 2, Some(dead_addr.clone()));
    let readmitted = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(50));
        let (_, health, _) = request_raw(addr, "GET", "/healthz", "", "");
        let doc = Json::parse(&health).expect("health json");
        doc.get("healthy_shards").unwrap().as_f64() == Some(2.0)
    });
    assert!(readmitted, "revived shard never readmitted");

    // Round-robin traffic reaches it again.
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..8 {
        let (_, _, raw) = request_raw(addr, "GET", "/poke", "", "");
        if let Some(s) = shard_header(&raw) {
            seen.insert(s);
        }
    }
    assert!(
        seen.contains(&dead_addr),
        "readmitted shard must take traffic again: {seen:?}"
    );

    balancer.shutdown();
    live.shutdown();
    revived.shutdown();
}

/// A connection reset on a *fresh* (non-pooled) connection must fail over
/// to another shard, not surface as a balancer 502. The broken shard here
/// accepts every connection and immediately closes it — the balancer's
/// first write/read on a brand-new connection fails, which before PR 9 was
/// a client-visible error.
#[test]
fn fresh_connection_reset_fails_over_to_healthy_shard() {
    let live = start_shard("reset-live", 0, 2, None);

    // The "shard" that accepts and instantly hangs up.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let fake_addr = listener.local_addr().unwrap().to_string();
    listener.set_nonblocking(true).expect("nonblocking");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let acceptor = std::thread::spawn(move || {
        while !stop2.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((conn, _)) => drop(conn),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });

    // Probes stay out of the way (huge interval, huge fail_after): only
    // *request* outcomes drive this test, so every hit on the broken shard
    // exercises the fresh-connection failover path.
    let balancer = start_balancer(BalancerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: vec![live.addr().to_string(), fake_addr],
        health_interval: Duration::from_secs(3600),
        fail_after: 10_000,
        ..BalancerConfig::default()
    })
    .expect("balancer binds");

    // Enough distinct sources that some must hash to the broken shard.
    for i in 0..12 {
        let (status, resp, raw) =
            request_raw(balancer.addr(), "POST", "/scan", &fleet_scan_body(i), "");
        assert_eq!(status, 200, "scan {i} must fail over, got: {resp}");
        assert_eq!(
            shard_header(&raw).as_deref(),
            Some(live.addr().to_string().as_str()),
            "every answer must come from the live shard"
        );
    }
    let (_, metrics, _) = request_raw(balancer.addr(), "GET", "/metrics", "", "");
    assert!(
        metric_value(&metrics, "sevuldet_balancer_failovers_total") > 0.0,
        "failovers must be counted:\n{metrics}"
    );

    stop.store(true, Ordering::Relaxed);
    acceptor.join().unwrap();
    balancer.shutdown();
    live.shutdown();
}

/// The acceptance criterion behind hash routing: on a repeated corpus,
/// consistent-hash routing produces a higher `sevuldet_query` cache hit
/// rate than round-robin spraying, because every repeat of a source lands
/// on the shard that already prepared it.
#[test]
fn hash_routing_beats_round_robin_on_cache_hits() {
    // 9 distinct sources (not divisible by the shard count, so a naive
    // round-robin never realigns a source with its previous shard) scanned
    // 3 times each. The query-cache counters are process-global, so the
    // two phases run sequentially and are compared by their deltas.
    const SOURCES: usize = 9;
    const REPEATS: usize = 3;
    let (balancer, shards) = start_fleet("affinity", 4);
    let shard_addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr()).collect();

    // Phase A — the baseline a cache-blind balancer would produce: spray
    // the corpus round-robin directly across the shards.
    let before = sevuldet_query::stats::counters();
    let mut k = 0;
    for _ in 0..REPEATS {
        for i in 0..SOURCES {
            let (status, resp, _) = request_raw(
                shard_addrs[k % shard_addrs.len()],
                "POST",
                "/scan",
                &fleet_scan_body(i),
                "",
            );
            assert_eq!(status, 200, "{resp}");
            k += 1;
        }
    }
    let mid = sevuldet_query::stats::counters();
    let rr_hits = mid.hits() - before.hits();

    // Phase B — the same corpus through the balancer's consistent hash.
    for _ in 0..REPEATS {
        for i in 0..SOURCES {
            let (status, resp, raw) =
                request_raw(balancer.addr(), "POST", "/scan", &fleet_scan_body(i), "");
            assert_eq!(status, 200, "{resp}");
            assert!(raw.contains("X-Sevuldet-Route: hash"), "{raw}");
        }
    }
    let after = sevuldet_query::stats::counters();
    let hash_hits = after.hits() - mid.hits();

    // Hash routing must land every repeat on a warm shard: at least one
    // hit per repeat beyond the first, for every source. Round-robin with
    // 9 sources over 4 shards realigns nothing.
    assert!(
        hash_hits >= (SOURCES * (REPEATS - 1)) as u64,
        "hash routing should hit a warm cache on every repeat: {hash_hits}"
    );
    assert!(
        hash_hits > rr_hits,
        "consistent hashing must beat round-robin on cache hits \
         (hash {hash_hits} vs rr {rr_hits})"
    );

    balancer.shutdown();
    for s in shards {
        s.shutdown();
    }
}
