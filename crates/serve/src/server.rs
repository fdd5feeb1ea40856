//! The HTTP server: routing, and the graceful-shutdown choreography tying
//! the event loop, the queue, the workers, and the registry together.
//!
//! One epoll event loop thread (`crate::eventloop`) owns every connection;
//! one router answers each complete request, handing scans to the bounded
//! queue and answering them asynchronously through a completer once a
//! [`crate::batch`] worker has scored them. Serving is Linux-only: the loop
//! is built on `epoll`.
//!
//! ## Endpoints
//!
//! | Method | Path       | Purpose                                           |
//! |--------|------------|---------------------------------------------------|
//! | POST   | `/scan`    | Scan C source: `{"source": "...", "name": "...",` |
//! |        |            | `"model": "...", "explain": true}`                |
//! | POST   | `/reload`  | Hot-swap model(s) from file (validated); scope    |
//! |        |            | with `{"model": "name"}`, empty body = all        |
//! | GET    | `/metrics` | Prometheus text exposition                        |
//! | GET    | `/healthz` | Liveness + readiness + current model version(s)   |
//!
//! `/scan` answers `200` with a scan report, `400` on malformed requests,
//! `404` when the request names an unknown model, `422` when the source
//! does not parse, `429` when the queue is full (backpressure), `500` when
//! scoring the request panicked (isolated from its batch), `503` while
//! draining, and `504` when the per-request deadline expires before
//! scoring. The `model` field routes to a named registry model (or
//! `ensemble:a,b,c` for a vote across several); `explain: true` attaches
//! the Fig. 6 per-token heatmap to every finding. `/reload` answers `422`
//! when a candidate model is rejected (missing, corrupt, or failing its
//! smoke forward pass) — that model's old version keeps serving; an
//! optional `{"model": "name"}` body scopes the reload to one registry
//! slot. `/healthz` answers `503` with `"draining"` once shutdown has
//! begun. Slow or abusive clients get `408` (header deadline), `431`
//! (oversized head), or `413` (oversized body). See `docs/API.md` for the
//! full reference.

use crate::batch::{worker_loop, JobOutcome, JobQueue, ScanJob, SubmitError, WorkerConfig};
use crate::eventloop::{start_event_loop, CompleterSource, EventLoopHandle, Handler, LoopConfig};
use crate::http::{Request, Response};
use crate::metrics::{ConnCounters, Metrics};
use crate::registry::{ModelChoice, MultiRegistry};
use sevuldet::Json;
use sevuldet_query::{QueryConfig, QueryEngine};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. The defaults suit the integration tests and small
/// deployments; production front-ends should size `workers`, `max_batch`,
/// and `queue_cap` to the hardware.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` picks a free port).
    pub addr: String,
    /// Batch worker threads draining the scan queue.
    pub workers: usize,
    /// Most requests coalesced into one forward batch.
    pub max_batch: usize,
    /// Bounded queue capacity; submissions beyond it get 429.
    pub queue_cap: usize,
    /// Default per-request deadline (queue wait + scoring).
    pub deadline: Duration,
    /// Test hook: artificial per-batch latency, simulating a slow model.
    pub batch_delay: Duration,
    /// Persistent artifact-cache directory for `/scan` prepares; `None`
    /// keeps the query engine's memoization in-memory only.
    pub cache_dir: Option<PathBuf>,
    /// On-disk cache budget in bytes (0 = unbounded).
    pub cache_max_bytes: u64,
    /// Open-connection cap; excess accepts are shed.
    pub max_connections: usize,
    /// Budget for a client to deliver a complete request head (`408` past
    /// it — the slowloris defence), and the longest pause allowed between
    /// reads of a request body (`408` too).
    pub header_deadline: Duration,
    /// Fleet identity `(index, total)` when this process is one shard
    /// behind a balancer; surfaces in `/healthz` and `/metrics`.
    pub shard: Option<(u32, u32)>,
    /// Test hook: shrink accepted sockets' kernel buffers to this many
    /// bytes, forcing partial reads/writes.
    pub sock_buf_bytes: Option<usize>,
    /// Queue-fill percentage at which `/healthz` reports `degraded`
    /// instead of `ok` (still 200 — the shard keeps serving, but the
    /// balancer and operators see the brownout coming). `0` disables.
    pub degraded_queue_pct: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 2,
            max_batch: 8,
            queue_cap: 64,
            deadline: Duration::from_secs(10),
            batch_delay: Duration::ZERO,
            cache_dir: None,
            cache_max_bytes: 0,
            max_connections: 16_384,
            header_deadline: Duration::from_secs(5),
            shard: None,
            sock_buf_bytes: None,
            degraded_queue_pct: 80,
        }
    }
}

/// Everything the router and the workers share.
struct Shared {
    cfg: ServeConfig,
    queue: JobQueue,
    registry: MultiRegistry,
    metrics: Arc<Metrics>,
    draining: Arc<AtomicBool>,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running detached.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    worker_threads: Vec<JoinHandle<()>>,
    event_loop: EventLoopHandle,
    /// The trace observer feeding `sevuldet_stage_duration_seconds`;
    /// unregistered on shutdown (tests run several servers per process).
    observer: sevuldet::trace::ObserverId,
}

impl ServerHandle {
    /// The actual bound address (useful with `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics (e.g. for CLI status printing).
    pub fn metrics(&self) -> Arc<Metrics> {
        self.shared.metrics.clone()
    }

    /// Graceful shutdown: stop accepting, reject new scans with 503, drain
    /// every queued job through the workers, then join them. In-flight
    /// requests receive their responses.
    pub fn shutdown(self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the event loop so it notices the drain flag immediately.
        self.event_loop.wake.wake();
        // Half-close the queue: workers drain the backlog and exit. Every
        // in-flight completion is delivered before the joins return.
        self.shared.queue.close();
        for t in self.worker_threads {
            let _ = t.join();
        }
        self.event_loop.wake.wake();
        // Detached: a client that was connected before shutdown may still
        // send one last request and must get its explicit `503 draining`
        // answer — which can only happen *after* this call returns. The
        // loop exits on its own once lingering connections close (bounded
        // by its drain linger/grace).
        drop(self.event_loop.thread);
        sevuldet::trace::remove_observer(self.observer);
    }
}

/// Binds, spawns the event loop and the batch workers, and returns.
///
/// Accepts either a single [`crate::registry::ModelRegistry`] (served as
/// the lone `default` model, preserving the original single-model API) or
/// a [`MultiRegistry`] with named slots, A/B splits, and ensembles.
///
/// # Errors
///
/// Propagates bind and cache-directory failures.
pub fn start(
    cfg: ServeConfig,
    registry: impl Into<MultiRegistry>,
) -> std::io::Result<ServerHandle> {
    let registry = registry.into();
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    // One query engine shared by every batch worker: repeat scans of the
    // same source (clients retrying, fleets posting identical files) are
    // served from the memo, and `--cache-dir` adds the persistent tier.
    // A cache-dir that cannot be created is a startup error, like a bad
    // bind address; after startup, cache damage only ever means recompute.
    let engine = Arc::new(QueryEngine::open(&QueryConfig {
        cache_dir: cfg.cache_dir.clone(),
        max_bytes: cfg.cache_max_bytes,
        ..QueryConfig::default()
    })?);

    let metrics = Arc::new(Metrics::default());
    // Every span closed anywhere in the process — batch workers, the
    // pipeline crates under them — lands in this server's per-stage
    // histograms. Recording stays off; the observer path alone feeds it.
    let observer = {
        let metrics = metrics.clone();
        sevuldet::trace::add_observer(move |stage, dur_ns| metrics.observe_stage(stage, dur_ns))
    };
    let shared = Arc::new(Shared {
        queue: JobQueue::new(cfg.queue_cap, metrics.clone()),
        registry,
        metrics,
        draining: Arc::new(AtomicBool::new(false)),
        cfg,
    });

    let worker_cfg = WorkerConfig {
        max_batch: shared.cfg.max_batch,
        batch_delay: shared.cfg.batch_delay,
        engine,
    };
    let worker_threads: Vec<JoinHandle<()>> = (0..shared.cfg.workers.max(1))
        .map(|i| {
            let shared = shared.clone();
            let worker_cfg = worker_cfg.clone();
            std::thread::Builder::new()
                .name(format!("svd-batch-{i}"))
                .spawn(move || {
                    worker_loop(
                        &shared.queue,
                        &shared.registry,
                        &shared.metrics,
                        &worker_cfg,
                    )
                })
                .expect("spawn batch worker")
        })
        .collect();

    // 10k connections need >10k descriptors; lift the soft limit as far as
    // the hard limit allows (best-effort).
    let _ = crate::sys::raise_nofile_limit();
    let loop_cfg = LoopConfig {
        header_deadline: shared.cfg.header_deadline,
        max_connections: shared.cfg.max_connections,
        drain_grace: Duration::from_secs(30),
        sock_buf_bytes: shared.cfg.sock_buf_bytes,
    };
    let router = Arc::new(Router {
        shared: shared.clone(),
    });
    let event_loop = start_event_loop(listener, router, shared.draining.clone(), loop_cfg)?;
    Ok(ServerHandle {
        addr,
        shared,
        worker_threads,
        event_loop,
        observer,
    })
}

/// The event loop's view of this server: every route. `/scan` and
/// `/reload` answer through a completer (a batch worker or a reload thread
/// finishes them); everything else answers on the loop thread.
struct Router {
    shared: Arc<Shared>,
}

impl Handler for Router {
    fn handle(&self, req: &Request, completer: CompleterSource<'_>) -> Option<Response> {
        let shared = &self.shared;
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/scan") => {
                shared.metrics.count_request("scan");
                if shared.draining.load(Ordering::SeqCst) {
                    return Some(Response::error(503, "server draining"));
                }
                let fields = match scan_fields(req, shared) {
                    Ok(fields) => fields,
                    Err((status, body)) => return Some(Response::json(status, body)),
                };
                let completer = completer.take();
                let job = ScanJob {
                    name: fields.name,
                    source: fields.source,
                    choice: fields.choice,
                    model_label: fields.model_label,
                    explain: fields.explain,
                    enqueued: Instant::now(),
                    deadline: Instant::now() + fields.deadline,
                    resp: crate::batch::Responder::new(move |outcome| {
                        let (status, body) = outcome_status_body(outcome);
                        completer.complete(Response::json(status, body));
                    }),
                };
                // A rejected job answers through its own responder, so the
                // completer inside it delivers the 429/503 like any result.
                if let Err((e, job)) = shared.queue.submit(job) {
                    job.resp.send(JobOutcome::Rejected(e));
                }
                None
            }
            ("POST", "/reload") => {
                shared.metrics.count_request("reload");
                // Model loads take real time; never run one on the loop
                // thread. If the spawn itself fails the dropped completer
                // answers 503.
                let shared = shared.clone();
                let completer = completer.take();
                let body = req.body.clone();
                let _ = std::thread::Builder::new()
                    .name("svd-reload".to_string())
                    .spawn(move || {
                        let (status, body) = do_reload(&shared, &body);
                        completer.complete(Response::json(status, body));
                    });
                None
            }
            ("GET", "/metrics") => {
                shared.metrics.count_request("metrics");
                let text = render_metrics(shared);
                Some(Response::new(200, crate::metrics::CONTENT_TYPE, text))
            }
            ("GET", "/healthz") => {
                shared.metrics.count_request("healthz");
                Some(healthz(shared))
            }
            (_, "/scan" | "/reload" | "/metrics" | "/healthz") => {
                shared.metrics.count_request("other");
                Some(Response::error(405, "method not allowed"))
            }
            _ => {
                shared.metrics.count_request("other");
                Some(Response::error(404, "not found"))
            }
        }
    }

    fn count_response(&self, status: u16) {
        self.shared.metrics.count_response(status);
    }

    fn conn_counters(&self) -> &ConnCounters {
        &self.shared.metrics.conn
    }
}

/// Liveness + readiness in one: a draining server answers but is not ready
/// for new work (load balancers should stop routing).
fn healthz(shared: &Shared) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::json(
            503,
            Json::obj(vec![("status", Json::str("draining"))]).to_string(),
        );
    }
    let version = shared.registry.by_index(0).current().version;
    // Readiness has three levels: `ok`, `degraded` (still 200 — the scan
    // queue is nearly full, so new work will soon be queued-rejected or
    // slow; balancers keep routing but operators should act), and
    // `draining` (503, above).
    let pct = shared.cfg.degraded_queue_pct;
    let depth = shared.metrics.queue_depth.load(Ordering::Relaxed).max(0) as u64;
    let degraded = pct > 0
        && shared.cfg.queue_cap > 0
        && depth * 100 >= u64::from(pct) * shared.cfg.queue_cap as u64;
    let mut fields = vec![
        (
            "status",
            Json::str(if degraded { "degraded" } else { "ok" }),
        ),
        ("model_version", Json::Num(version as f64)),
    ];
    // With several named models, readiness also reports every slot's
    // version (the scalar above stays: it is the default model's,
    // preserving the single-model response shape).
    if shared.registry.len() > 1 {
        let models = shared
            .registry
            .versions()
            .into_iter()
            .map(|(name, v)| (name, Json::Num(v as f64)))
            .collect();
        fields.push(("models", Json::Obj(models)));
    }
    if degraded {
        fields.push(("queue_depth", Json::Num(depth as f64)));
        fields.push(("queue_cap", Json::Num(shared.cfg.queue_cap as f64)));
    }
    if let Some((i, n)) = shared.cfg.shard {
        fields.push(("shard", Json::str(format!("{i}/{n}"))));
    }
    Response::json(200, Json::obj(fields).to_string())
}

/// Renders the Prometheus exposition, with the shard identity appended when
/// this process is part of a fleet.
fn render_metrics(shared: &Shared) -> String {
    let default_slot = shared.registry.by_index(0);
    let version = default_slot.current().version;
    let precision = default_slot.precision();
    let mut text = shared
        .metrics
        .render(version, precision.as_str(), &shared.registry.versions());
    if let Some((i, n)) = shared.cfg.shard {
        crate::metrics::Family::new(
            &mut text,
            "sevuldet_shard_info",
            "gauge",
            "Fleet identity of this shard process.",
        )
        .sample("", &[("shard", &format!("{i}/{n}"))], 1);
    }
    text
}

/// Runs a model hot-swap and maps the result to `(status, JSON body)`.
///
/// The optional request body scopes the swap: `{"model": "name"}` reloads
/// only that registry slot (404 when the name is unknown); an empty body
/// reloads every slot. A single-model registry answers in the original
/// pre-multi-model shape (`{"reloaded":true,"version":N}`), so existing
/// clients and the balancer's broadcast aggregation are unaffected.
fn do_reload(shared: &Shared, body: &[u8]) -> (u16, String) {
    let scope: Option<String> = if body.iter().all(u8::is_ascii_whitespace) {
        None
    } else {
        let Ok(text) = std::str::from_utf8(body) else {
            return (400, error_body("body is not UTF-8"));
        };
        let doc = match Json::parse(text) {
            Ok(doc) => doc,
            Err(e) => return (400, error_body(&format!("invalid JSON: {e}"))),
        };
        match doc.get("model") {
            None => None,
            Some(v) => match v.as_str() {
                Some(name) => Some(name.to_string()),
                None => return (400, error_body("field `model` must be a string")),
            },
        }
    };
    let results = match shared.registry.reload(scope.as_deref()) {
        Ok(results) => results,
        // The scope named a model the registry does not hold: nothing was
        // attempted, nothing changed.
        Err(_) => {
            let name = scope.as_deref().unwrap_or_default();
            return (404, unknown_model_body(&shared.registry, name));
        }
    };
    // Count each slot's outcome. A rejected candidate (unreadable,
    // corrupt, or failing its smoke forward pass) leaves that slot's old
    // model serving and yields 422 with the typed reason.
    let mut all_ok = true;
    for (_, r) in &results {
        if r.is_ok() {
            shared.metrics.reloads.fetch_add(1, Ordering::Relaxed);
        } else {
            all_ok = false;
            shared
                .metrics
                .reload_failures
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Some(name) = scope {
        // Scoped: exactly one slot was attempted.
        let (status, mut fields) = match &results[0].1 {
            Ok(version) => (
                200,
                vec![
                    ("reloaded", Json::Bool(true)),
                    ("version", Json::Num(*version as f64)),
                ],
            ),
            Err(e) => (
                422,
                vec![
                    ("reloaded", Json::Bool(false)),
                    ("error", Json::str(e.to_string())),
                ],
            ),
        };
        fields.insert(1, ("model", Json::str(name)));
        return (status, Json::obj(fields).to_string());
    }
    if results.len() == 1 {
        // Single-model registry: the original response shape, byte-stable.
        return match &results[0].1 {
            Ok(version) => (
                200,
                Json::obj(vec![
                    ("reloaded", Json::Bool(true)),
                    ("version", Json::Num(*version as f64)),
                ])
                .to_string(),
            ),
            Err(e) => (422, error_body(&e.to_string())),
        };
    }
    // Broadcast across a multi-model registry: per-slot results, 422 if
    // any slot rejected its candidate (the others still swapped).
    let models = results
        .into_iter()
        .map(|(name, r)| {
            let mut fields = vec![
                ("model".to_string(), Json::str(name)),
                ("reloaded".to_string(), Json::Bool(r.is_ok())),
            ];
            match r {
                Ok(version) => fields.push(("version".to_string(), Json::Num(version as f64))),
                Err(e) => fields.push(("error".to_string(), Json::str(e.to_string()))),
            }
            Json::Obj(fields)
        })
        .collect();
    let body = Json::obj(vec![
        ("reloaded", Json::Bool(all_ok)),
        ("models", Json::Arr(models)),
    ])
    .to_string();
    (if all_ok { 200 } else { 422 }, body)
}

/// Typed 404 body for a request naming a model the registry does not hold.
fn unknown_model_body(registry: &MultiRegistry, name: &str) -> String {
    Json::obj(vec![
        ("error", Json::str(format!("unknown model `{name}`"))),
        ("model", Json::str(name)),
        (
            "available",
            Json::Arr(registry.names().map(Json::str).collect()),
        ),
    ])
    .to_string()
}

fn error_body(msg: &str) -> String {
    Json::obj(vec![("error", Json::str(msg))]).to_string()
}

/// A validated `/scan` request body.
struct ScanFields {
    name: String,
    source: String,
    deadline: Duration,
    /// Which registry slot(s) score this request.
    choice: ModelChoice,
    /// The label echoed back as the report's `model` field: the explicit
    /// request spec, or the split-picked name. `None` for a plain
    /// single-model scan, keeping that response byte-stable.
    model_label: Option<String>,
    /// Attach the per-token relevance heatmap to every finding.
    explain: bool,
}

/// Validates a `/scan` request.
fn scan_fields(req: &Request, shared: &Shared) -> Result<ScanFields, (u16, String)> {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Err((400, error_body("body is not UTF-8")));
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err((400, error_body(&format!("invalid JSON: {e}")))),
    };
    let Some(source) = doc.get("source").and_then(Json::as_str) else {
        return Err((400, error_body("missing string field `source`")));
    };
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("request")
        .to_string();
    // Model selection: an explicit `model` field (a registry name, or
    // `ensemble:a,b,c`) wins; otherwise a configured A/B split picks by
    // source digest (deterministic, so balancer hash-affinity and the
    // query cache keep working per model); otherwise the default slot.
    let (choice, model_label) = match doc.get("model") {
        Some(v) => {
            let Some(spec) = v.as_str() else {
                return Err((400, error_body("field `model` must be a string")));
            };
            match shared.registry.resolve(spec) {
                Ok(choice) => (choice, Some(spec.to_string())),
                Err(unknown) => return Err((404, unknown_model_body(&shared.registry, &unknown))),
            }
        }
        None if shared.registry.split().is_some() => {
            let idx = shared.registry.pick(source);
            (
                ModelChoice::Single(idx),
                Some(shared.registry.name_of(idx).to_string()),
            )
        }
        None => (ModelChoice::Single(0), None),
    };
    let explain = match doc.get("explain") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return Err((400, error_body("field `explain` must be a boolean"))),
        },
    };
    // Per-request deadline override, capped at the server default so one
    // client cannot park jobs in the queue for minutes.
    let deadline = req
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(|ms| Duration::from_millis(ms).min(shared.cfg.deadline))
        .unwrap_or(shared.cfg.deadline);
    Ok(ScanFields {
        name,
        source: source.to_string(),
        deadline,
        choice,
        model_label,
        explain,
    })
}

/// Maps a finished job outcome (or a queue rejection) to `(status, JSON
/// body)`.
fn outcome_status_body(outcome: JobOutcome) -> (u16, String) {
    match outcome {
        JobOutcome::Report(body) => (200, body),
        JobOutcome::ParseError(body) => (422, body),
        JobOutcome::DeadlineExceeded => (504, error_body("deadline exceeded before scoring")),
        JobOutcome::Panicked => (
            500,
            error_body("scoring this request failed; it was isolated from its batch"),
        ),
        JobOutcome::Internal(msg) => (500, error_body(&format!("internal scoring error: {msg}"))),
        JobOutcome::Rejected(SubmitError::Full) => (429, error_body("scan queue full")),
        JobOutcome::Rejected(SubmitError::ShuttingDown) => (503, error_body("server draining")),
    }
}
