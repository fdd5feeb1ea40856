//! The serving phases: four shards (one batch worker each, f32 tier,
//! in-memory query cache) behind the consistent-hash balancer, all started
//! in-process through `server::start` and `balancer::start`, driven by
//! [`crate::client`].

use crate::client::{self, PhaseResult};
use crate::inputs::Pool;
use sevuldet::{score_prepared_mut, Detector, Precision};
use sevuldet_query::QueryEngine;
use sevuldet_serve::balancer::{self, BalancerConfig, BalancerHandle};
use sevuldet_serve::registry::ModelRegistry;
use sevuldet_serve::server::{self, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

const SHARDS: u32 = 4;

pub struct Fleet {
    pub shards: Vec<ServerHandle>,
    pub balancer: Option<BalancerHandle>,
}

fn shard_config(i: u32, n: u32) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        shard: Some((i, n)),
        ..ServeConfig::default()
    }
}

fn open_registry(model: &Path) -> ModelRegistry {
    ModelRegistry::open_with_precision(model, Precision::F32).expect("model loads at f32")
}

impl Fleet {
    /// Four shards behind a balancer, each with an empty cache.
    pub fn start(model: &Path) -> Fleet {
        let shards: Vec<ServerHandle> = (0..SHARDS)
            .map(|i| {
                server::start(shard_config(i, SHARDS), open_registry(model)).expect("shard binds")
            })
            .collect();
        let balancer = balancer::start(BalancerConfig {
            addr: "127.0.0.1:0".into(),
            shards: shards.iter().map(|s| s.addr().to_string()).collect(),
            ..BalancerConfig::default()
        })
        .expect("balancer binds");
        Fleet {
            shards,
            balancer: Some(balancer),
        }
    }

    /// One shard and no balancer, for the direct-latency comparison.
    pub fn single(model: &Path) -> Fleet {
        let shard = server::start(shard_config(0, 1), open_registry(model)).expect("shard binds");
        Fleet {
            shards: vec![shard],
            balancer: None,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.balancer
            .as_ref()
            .map_or_else(|| self.shards[0].addr(), |b| b.addr())
    }

    pub fn shutdown(self) {
        if let Some(b) = self.balancer {
            b.shutdown();
        }
        for s in self.shards {
            s.shutdown();
        }
    }
}

/// The serialized requests of a pool, in send order.
pub fn requests(pool: &Pool) -> Vec<Vec<u8>> {
    let bodies: Vec<Vec<u8>> = pool
        .sources
        .iter()
        .map(|p| client::scan_request(&crate::inputs::scan_body(p)))
        .collect();
    pool.order.iter().map(|&i| bodies[i].clone()).collect()
}

/// The body a shard must answer each distinct source with: the in-process
/// f32 report.
pub fn expected(pool: &Pool, det32: &mut Detector) -> Vec<String> {
    pool.sources
        .iter()
        .map(|p| {
            let prepared = sevuldet::prepare_source(&p.source, 1).expect("pool source parses");
            let reports = score_prepared_mut(det32, &[prepared], 1).expect("scoring succeeds");
            reports[0].to_json(&p.name).to_string()
        })
        .collect()
}

/// Sent, succeeded and failed counts of a phase; a 200 whose body differs
/// from the in-process report makes the run incorrect.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub mismatched: u64,
}

pub fn check(result: &PhaseResult, pool: &Pool, expected: &[String]) -> Tally {
    let mut t = Tally::default();
    for (reply, &src) in result.replies.iter().zip(&pool.order) {
        t.sent += 1;
        match reply {
            Some(r) if r.status == 200 => {
                t.succeeded += 1;
                if r.body != expected[src].as_bytes() {
                    t.mismatched += 1;
                }
            }
            _ => t.failed += 1,
        }
    }
    t
}

/// Per-request in-process time for the pool, in send order, on a fresh
/// engine (so repeats hit the memo as they do on the fleet).
pub fn inproc_ms(pool: &Pool, det32: &mut Detector) -> Vec<f64> {
    let engine = QueryEngine::in_memory();
    pool.order
        .iter()
        .map(|&i| {
            let p = &pool.sources[i];
            let t = Instant::now();
            let prepared = engine.prepare(&p.source, 1).expect("pool source parses");
            let reports = score_prepared_mut(det32, &[prepared], 1).expect("scoring succeeds");
            std::hint::black_box(reports[0].to_json(&p.name).to_string());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Sum of every sample of metric `name` whose label set contains `filter`
/// in Prometheus text; 0 when absent.
pub fn prom(text: &str, name: &str, filter: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(k, _)| k.split('{').next() == Some(name) && k.contains(filter))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

pub fn scrape(addr: SocketAddr) -> String {
    let (status, body) = client::request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "metrics scrape");
    body
}
