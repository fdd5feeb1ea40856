//! Server observability: lock-light counters, gauges, and histograms
//! rendered in the Prometheus text exposition format (version 0.0.4) by
//! `GET /metrics`.
//!
//! Everything is updated with relaxed atomics on the hot path; the only
//! lock is around the (tiny, cold) per-status-code response map.
//!
//! Every exposition — the server's and the balancer's — is written through
//! one `Family` writer, so the text format lives in one place.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The `Content-Type` of a Prometheus text exposition.
pub(crate) const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// A label list: `(key, value)` pairs, written as `{k1="v1",k2="v2"}`.
pub(crate) type Labels<'a> = [(&'a str, &'a dyn Display)];

/// Writes one metric family in the Prometheus text format: the `# HELP`
/// and `# TYPE` lines on creation, then one line per sample.
pub(crate) struct Family<'a> {
    out: &'a mut String,
    name: &'a str,
}

impl<'a> Family<'a> {
    /// Starts the family `name` of type `kind` (`counter`, `gauge`,
    /// `histogram`) with its help text.
    pub(crate) fn new(out: &'a mut String, name: &'a str, kind: &str, help: &str) -> Family<'a> {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        Family { out, name }
    }

    /// Writes one sample of the series `name` + `suffix` (e.g. `_bucket`;
    /// empty for plain counters and gauges).
    pub(crate) fn sample(
        &mut self,
        suffix: &str,
        labels: &Labels<'_>,
        value: impl Display,
    ) -> &mut Self {
        let _ = write!(self.out, "{}{suffix}", self.name);
        for (i, (key, v)) in labels.iter().enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            let _ = write!(self.out, "{open}{key}=\"{v}\"");
        }
        if !labels.is_empty() {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
        self
    }
}

/// A fixed-bucket histogram. Observed values are accumulated as cumulative
/// bucket counts at render time; the running sum is kept in fixed-point
/// micro-units so it fits an atomic integer.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    /// A histogram over the given upper bounds (an implicit `+Inf` bucket
    /// is always appended).
    pub fn new(bounds: &'static [f64]) -> Histogram {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add((v.max(0.0) * 1e6) as u64, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Writes this histogram as its own family.
    fn render(&self, out: &mut String, name: &str, help: &str) {
        self.render_series(&mut Family::new(out, name, "histogram", help), &[]);
    }

    /// One histogram's series, with `labels` (e.g. `stage="nn.conv1"`)
    /// merged before `le` — lets several histograms share one family, as
    /// the per-stage and per-model families do.
    fn render_series(&self, family: &mut Family<'_>, labels: &Labels<'_>) {
        let mut with_le = labels.to_vec();
        with_le.push(("le", &"+Inf"));
        let le = with_le.len() - 1;
        let mut cumulative = 0u64;
        for (i, bound) in self.bounds.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            with_le[le].1 = bound;
            family.sample("_bucket", &with_le, cumulative);
        }
        cumulative += self.buckets[self.bounds.len()].load(Ordering::Relaxed);
        with_le[le].1 = &"+Inf";
        family.sample("_bucket", &with_le, cumulative);
        let sum = self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        family.sample("_sum", labels, sum);
        family.sample("_count", labels, self.count());
    }
}

/// The endpoints the request counter is labeled with.
pub const ENDPOINTS: &[&str] = &["scan", "metrics", "reload", "healthz", "other"];

/// Why a connection was closed — the label set of
/// `sevuldet_connections_closed_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed (or reset) the connection.
    PeerClosed,
    /// The server closed after a `Connection: close` response.
    ResponseComplete,
    /// A malformed or unsupported request forced a close after the error
    /// response.
    ProtocolError,
    /// The per-connection header deadline expired mid-request (slow client,
    /// answered 408).
    HeaderTimeout,
    /// The connection was refused because the server was at its
    /// `max_connections` cap.
    OverCapacity,
    /// The server was draining for shutdown.
    Drain,
    /// A socket read or write failed.
    IoError,
}

impl CloseReason {
    /// The metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            CloseReason::PeerClosed => "peer_closed",
            CloseReason::ResponseComplete => "response_complete",
            CloseReason::ProtocolError => "protocol_error",
            CloseReason::HeaderTimeout => "header_timeout",
            CloseReason::OverCapacity => "over_capacity",
            CloseReason::Drain => "drain",
            CloseReason::IoError => "io_error",
        }
    }

    /// Every reason, in render order.
    pub const ALL: &'static [CloseReason] = &[
        CloseReason::PeerClosed,
        CloseReason::ResponseComplete,
        CloseReason::ProtocolError,
        CloseReason::HeaderTimeout,
        CloseReason::OverCapacity,
        CloseReason::Drain,
        CloseReason::IoError,
    ];
}

/// Connection lifecycle counters, kept by the event loop for the server and
/// the balancer front end alike.
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Currently open connections.
    pub open: AtomicI64,
    /// Connections accepted since startup.
    pub accepted: AtomicU64,
    closed: [AtomicU64; 7],
}

impl ConnCounters {
    /// Counts one accepted connection (and opens the gauge).
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one closed connection under `reason` (and closes the gauge).
    pub fn on_close(&self, reason: CloseReason) {
        self.open.fetch_sub(1, Ordering::Relaxed);
        let idx = CloseReason::ALL
            .iter()
            .position(|r| *r == reason)
            .expect("reason in ALL");
        self.closed[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Closed-connection count for one reason.
    pub fn closed(&self, reason: CloseReason) -> u64 {
        let idx = CloseReason::ALL
            .iter()
            .position(|r| *r == reason)
            .expect("reason in ALL");
        self.closed[idx].load(Ordering::Relaxed)
    }

    /// Renders the three `sevuldet_*connection*` families.
    pub fn render(&self, out: &mut String) {
        Family::new(
            out,
            "sevuldet_open_connections",
            "gauge",
            "Currently open client connections.",
        )
        .sample("", &[], self.open.load(Ordering::Relaxed).max(0));
        Family::new(
            out,
            "sevuldet_connections_accepted_total",
            "counter",
            "Client connections accepted.",
        )
        .sample("", &[], self.accepted.load(Ordering::Relaxed));
        let mut closed = Family::new(
            out,
            "sevuldet_connections_closed_total",
            "counter",
            "Client connections closed, by reason.",
        );
        for (i, reason) in CloseReason::ALL.iter().enumerate() {
            let n = self.closed[i].load(Ordering::Relaxed);
            closed.sample("", &[("reason", &reason.as_str())], n);
        }
    }
}

/// Per-model serving counters, created lazily the first time a model scores
/// a request (see [`Metrics::model_stats`]).
#[derive(Debug)]
pub struct ModelStats {
    /// Scan requests scored by this model (each ensemble member counts its
    /// own share).
    pub scans: AtomicU64,
    /// Model-forward time of this model's batch groups, seconds.
    pub forward_duration: Histogram,
}

impl Default for ModelStats {
    fn default() -> Self {
        ModelStats {
            scans: AtomicU64::new(0),
            forward_duration: Histogram::new(LATENCY_BOUNDS),
        }
    }
}

/// All server metrics, shared via `Arc` between the event loop, the router,
/// and the batch workers.
#[derive(Debug)]
pub struct Metrics {
    requests: Vec<AtomicU64>,
    responses: Mutex<BTreeMap<u16, u64>>,
    /// Scans rejected because the queue was full (answered 429).
    pub rejected_queue_full: AtomicU64,
    /// Scans whose deadline expired while queued (answered 504).
    pub rejected_deadline: AtomicU64,
    /// Successful model reloads.
    pub reloads: AtomicU64,
    /// Rejected model reloads (missing, corrupt, or invalid candidate); the
    /// previous model kept serving.
    pub reload_failures: AtomicU64,
    /// Forward passes that panicked inside a batch worker and were isolated
    /// by bisection (counted once per caught panic, so a single poison
    /// request in a batch of N increments this ~log2(N) times).
    pub worker_panics: AtomicU64,
    /// Jobs currently waiting in the scan queue.
    pub queue_depth: AtomicI64,
    /// Connection lifecycle counters (accept/open/close-by-reason).
    pub conn: ConnCounters,
    /// Enqueue→scored latency of scan requests, seconds.
    pub scan_latency: Histogram,
    /// Model-forward time of non-empty batches, seconds (the compute slice
    /// of `scan_latency`, without queueing or parsing).
    pub forward_duration: Histogram,
    /// Number of requests coalesced per forward batch.
    pub batch_size: Histogram,
    /// Per-pipeline-stage durations, one histogram per span name, fed by
    /// the trace layer's observer hook (see [`Metrics::observe_stage`]).
    /// Series appear lazily as stages first fire.
    stage_durations: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
    /// Per-model serving counters, keyed by registry name. Series appear
    /// lazily as models first score.
    per_model: RwLock<BTreeMap<String, Arc<ModelStats>>>,
}

const LATENCY_BOUNDS: &[f64] = &[
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];
const BATCH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
/// Stage durations range from microseconds (lexing a small source) to
/// seconds (a full forward batch), so the buckets start far below
/// [`LATENCY_BOUNDS`].
const STAGE_BOUNDS: &[f64] = &[0.000001, 0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0];

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: ENDPOINTS.iter().map(|_| AtomicU64::new(0)).collect(),
            responses: Mutex::new(BTreeMap::new()),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            queue_depth: AtomicI64::new(0),
            conn: ConnCounters::default(),
            scan_latency: Histogram::new(LATENCY_BOUNDS),
            forward_duration: Histogram::new(LATENCY_BOUNDS),
            batch_size: Histogram::new(BATCH_BOUNDS),
            stage_durations: RwLock::new(BTreeMap::new()),
            per_model: RwLock::new(BTreeMap::new()),
        }
    }
}

impl Metrics {
    /// Counts a request against its endpoint label (unknown paths go to
    /// `other`).
    pub fn count_request(&self, endpoint: &str) {
        let idx = ENDPOINTS
            .iter()
            .position(|e| *e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1);
        self.requests[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one pipeline-stage duration (nanoseconds) against the
    /// stage's histogram, creating it on first sight. This is the trace
    /// observer's target: `server::start` registers
    /// `sevuldet::trace::add_observer` to call it on every span close, so
    /// `/metrics` exports stage costs without span recording being on.
    pub fn observe_stage(&self, stage: &'static str, dur_ns: u64) {
        let secs = dur_ns as f64 / 1e9;
        let existing = {
            let map = self
                .stage_durations
                .read()
                .unwrap_or_else(|e| e.into_inner());
            map.get(stage).cloned()
        };
        match existing {
            Some(h) => h.observe(secs),
            None => self
                .stage_durations
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .entry(stage)
                .or_insert_with(|| Arc::new(Histogram::new(STAGE_BOUNDS)))
                .observe(secs),
        }
    }

    /// The per-model counter block for `name`, created on first use. Batch
    /// workers bump `scans` and observe `forward_duration` through the
    /// returned handle.
    pub fn model_stats(&self, name: &str) -> Arc<ModelStats> {
        {
            let map = self.per_model.read().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = map.get(name) {
                return s.clone();
            }
        }
        self.per_model
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Counts a response by status code.
    pub fn count_response(&self, status: u16) {
        let mut map = self.responses.lock().unwrap_or_else(|e| e.into_inner());
        *map.entry(status).or_insert(0) += 1;
    }

    /// Renders the Prometheus text exposition. `precision` is the serving
    /// precision tier's name (`f64`/`f32`), exported as a labeled
    /// info-style gauge so dashboards can tell fast-tier replicas apart.
    /// `models` lists the registry's `(name, version)` pairs in slot order;
    /// they drive the `{model=...}` series (`sevuldet_requests_total`,
    /// `sevuldet_model_version`, `sevuldet_model_forward_duration_seconds`).
    pub fn render(&self, model_version: u64, precision: &str, models: &[(String, u64)]) -> String {
        let mut out = String::with_capacity(2048);
        let w = &mut out;
        let mut f = Family::new(
            w,
            "sevuldet_requests_total",
            "counter",
            "HTTP requests received, by endpoint.",
        );
        for (i, ep) in ENDPOINTS.iter().enumerate() {
            f.sample(
                "",
                &[("endpoint", ep)],
                self.requests[i].load(Ordering::Relaxed),
            );
        }
        for (name, _) in models {
            let n = self.model_stats(name).scans.load(Ordering::Relaxed);
            f.sample("", &[("model", name)], n);
        }
        let mut f = Family::new(
            w,
            "sevuldet_responses_total",
            "counter",
            "HTTP responses sent, by status code.",
        );
        for (code, n) in self
            .responses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            f.sample("", &[("code", code)], n);
        }
        Family::new(
            w,
            "sevuldet_rejected_total",
            "counter",
            "Scan requests rejected before scoring, by reason.",
        )
        .sample(
            "",
            &[("reason", &"queue_full")],
            self.rejected_queue_full.load(Ordering::Relaxed),
        )
        .sample(
            "",
            &[("reason", &"deadline")],
            self.rejected_deadline.load(Ordering::Relaxed),
        );
        for (name, help, value) in [
            (
                "sevuldet_model_reloads_total",
                "Successful model hot-reloads.",
                self.reloads.load(Ordering::Relaxed),
            ),
            (
                "sevuldet_reload_failures_total",
                "Model reloads rejected (old model kept serving).",
                self.reload_failures.load(Ordering::Relaxed),
            ),
            (
                "sevuldet_worker_panics_total",
                "Forward passes that panicked in a batch worker and were isolated.",
                self.worker_panics.load(Ordering::Relaxed),
            ),
            (
                "sevuldet_checkpoints_written_total",
                "Training checkpoints written by this process.",
                sevuldet::checkpoint::checkpoints_written(),
            ),
        ] {
            Family::new(w, name, "counter", help).sample("", &[], value);
        }
        let mut f = Family::new(
            w,
            "sevuldet_model_version",
            "gauge",
            "Monotonic version of the currently served model.",
        );
        f.sample("", &[], model_version);
        for (name, version) in models {
            f.sample("", &[("model", name)], version);
        }
        Family::new(
            w,
            "sevuldet_precision_tier",
            "gauge",
            "Serving precision tier (info gauge, always 1).",
        )
        .sample("", &[("tier", &precision)], 1);
        Family::new(
            w,
            "sevuldet_queue_depth",
            "gauge",
            "Scan jobs currently queued.",
        )
        .sample("", &[], self.queue_depth.load(Ordering::Relaxed).max(0));
        self.conn.render(w);
        let (ws_hits, ws_misses) = sevuldet::workspace_counters();
        Family::new(
            w,
            "sevuldet_workspace_acquires_total",
            "counter",
            "Kernel workspace buffer acquisitions, by pool outcome (process-wide).",
        )
        .sample("", &[("result", &"hit")], ws_hits)
        .sample("", &[("result", &"miss")], ws_misses);
        let qc = sevuldet_query::counters();
        Family::new(
            w,
            "sevuldet_query_cache_hits_total",
            "counter",
            "Incremental-query cache hits, by tier (process-wide).",
        )
        .sample("", &[("tier", &"memory")], qc.hits_mem)
        .sample("", &[("tier", &"disk")], qc.hits_disk);
        Family::new(
            w,
            "sevuldet_query_cache_misses_total",
            "counter",
            "Incremental-query cache misses (full recomputes, process-wide).",
        )
        .sample("", &[], qc.misses);
        Family::new(
            w,
            "sevuldet_query_cache_evictions_total",
            "counter",
            "Cache entries evicted for size pressure (process-wide).",
        )
        .sample("", &[], qc.evictions);
        Family::new(
            w,
            "sevuldet_cache_size_bytes",
            "gauge",
            "Persistent artifact store size on disk.",
        )
        .sample("", &[], qc.size_bytes);
        self.scan_latency.render(
            w,
            "sevuldet_scan_latency_seconds",
            "Enqueue-to-scored latency of scan requests.",
        );
        self.forward_duration.render(
            w,
            "sevuldet_forward_duration_seconds",
            "Model-forward time of non-empty scan batches.",
        );
        self.batch_size.render(
            w,
            "sevuldet_batch_size",
            "Requests coalesced per forward batch.",
        );
        let mut f = Family::new(
            w,
            "sevuldet_model_forward_duration_seconds",
            "histogram",
            "Model-forward time per registry model.",
        );
        {
            let map = self.per_model.read().unwrap_or_else(|e| e.into_inner());
            for (name, _) in models {
                if let Some(stats) = map.get(name) {
                    stats
                        .forward_duration
                        .render_series(&mut f, &[("model", name)]);
                }
            }
        }
        let mut f = Family::new(
            w,
            "sevuldet_stage_duration_seconds",
            "histogram",
            "Pipeline stage durations by trace span name.",
        );
        for (stage, h) in self
            .stage_durations
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            h.render_series(&mut f, &[("stage", stage)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let mut out = String::new();
        h.render(&mut out, "x", "test");
        assert!(out.contains("x_bucket{le=\"1\"} 1"));
        assert!(out.contains("x_bucket{le=\"2\"} 2"));
        assert!(out.contains("x_bucket{le=\"4\"} 3"));
        assert!(out.contains("x_bucket{le=\"+Inf\"} 4"));
        assert!(out.contains("x_count 4"));
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn render_contains_every_series() {
        let m = Metrics::default();
        m.count_request("scan");
        m.count_request("/nonsense");
        m.count_response(200);
        m.count_response(429);
        m.scan_latency.observe(0.02);
        m.forward_duration.observe(0.004);
        m.batch_size.observe(4.0);
        m.queue_depth.store(3, Ordering::Relaxed);
        m.reloads.store(2, Ordering::Relaxed);
        m.reload_failures.store(5, Ordering::Relaxed);
        m.worker_panics.store(1, Ordering::Relaxed);
        m.conn.on_accept();
        m.conn.on_accept();
        m.conn.on_close(CloseReason::PeerClosed);
        m.model_stats("champion").scans.store(9, Ordering::Relaxed);
        m.model_stats("champion").forward_duration.observe(0.003);
        let text = m.render(
            7,
            "f32",
            &[("champion".to_string(), 7), ("challenger".to_string(), 1)],
        );
        for needle in [
            "sevuldet_precision_tier{tier=\"f32\"} 1",
            "sevuldet_requests_total{model=\"champion\"} 9",
            "sevuldet_requests_total{model=\"challenger\"} 0",
            "sevuldet_model_version{model=\"champion\"} 7",
            "sevuldet_model_version{model=\"challenger\"} 1",
            "sevuldet_model_forward_duration_seconds_bucket{model=\"champion\",le=\"0.005\"} 1",
            "sevuldet_model_forward_duration_seconds_count{model=\"champion\"} 1",
            "sevuldet_reload_failures_total 5",
            "sevuldet_worker_panics_total 1",
            "sevuldet_checkpoints_written_total",
            "sevuldet_requests_total{endpoint=\"scan\"} 1",
            "sevuldet_requests_total{endpoint=\"other\"} 1",
            "sevuldet_responses_total{code=\"200\"} 1",
            "sevuldet_responses_total{code=\"429\"} 1",
            "sevuldet_rejected_total{reason=\"queue_full\"} 0",
            "sevuldet_model_reloads_total 2",
            "sevuldet_model_version 7",
            "sevuldet_queue_depth 3",
            "sevuldet_scan_latency_seconds_bucket{le=\"0.025\"} 1",
            "sevuldet_scan_latency_seconds_count 1",
            "sevuldet_forward_duration_seconds_bucket{le=\"0.005\"} 1",
            "sevuldet_forward_duration_seconds_count 1",
            "sevuldet_workspace_acquires_total{result=\"hit\"}",
            "sevuldet_workspace_acquires_total{result=\"miss\"}",
            "sevuldet_query_cache_hits_total{tier=\"memory\"}",
            "sevuldet_query_cache_hits_total{tier=\"disk\"}",
            "sevuldet_query_cache_misses_total",
            "sevuldet_query_cache_evictions_total",
            "sevuldet_cache_size_bytes",
            "sevuldet_batch_size_bucket{le=\"4\"} 1",
            "sevuldet_open_connections 1",
            "sevuldet_connections_accepted_total 2",
            "sevuldet_connections_closed_total{reason=\"peer_closed\"} 1",
            "sevuldet_connections_closed_total{reason=\"header_timeout\"} 0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn connection_counters_track_accept_and_close_reasons() {
        let c = ConnCounters::default();
        c.on_accept();
        c.on_accept();
        c.on_close(CloseReason::PeerClosed);
        assert_eq!(c.open.load(Ordering::Relaxed), 1);
        assert_eq!(c.accepted.load(Ordering::Relaxed), 2);
        assert_eq!(c.closed(CloseReason::PeerClosed), 1);
        assert_eq!(c.closed(CloseReason::Drain), 0);
        let mut out = String::new();
        c.render(&mut out);
        assert!(out.contains("sevuldet_open_connections 1"));
        assert!(out.contains("sevuldet_connections_closed_total{reason=\"peer_closed\"} 1"));
    }

    #[test]
    fn stage_histograms_render_labeled_series_per_stage() {
        let m = Metrics::default();
        m.observe_stage("serve.forward", 2_000_000); // 2 ms
        m.observe_stage("serve.forward", 40_000_000); // 40 ms
        m.observe_stage("serve.queue_wait", 500); // 0.5 µs
        let text = m.render(1, "f64", &[]);
        for needle in [
            "TYPE sevuldet_stage_duration_seconds histogram",
            "sevuldet_stage_duration_seconds_bucket{stage=\"serve.forward\",le=\"0.01\"} 1",
            "sevuldet_stage_duration_seconds_bucket{stage=\"serve.forward\",le=\"0.1\"} 2",
            "sevuldet_stage_duration_seconds_bucket{stage=\"serve.forward\",le=\"+Inf\"} 2",
            "sevuldet_stage_duration_seconds_count{stage=\"serve.forward\"} 2",
            "sevuldet_stage_duration_seconds_bucket{stage=\"serve.queue_wait\",le=\"0.000001\"} 1",
            "sevuldet_stage_duration_seconds_count{stage=\"serve.queue_wait\"} 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // A stage never observed renders nothing under its label.
        assert!(!text.contains("stage=\"nn.forward\""));
    }
}
