#![deny(missing_docs)]

//! # sevuldet-serve
//!
//! A long-running, batched inference server for the SEVulDet detector — the
//! first step from the one-shot `sevuldet scan` CLI toward the ROADMAP's
//! production-serving north star. Std-only: HTTP/1.1 over
//! `std::net::TcpListener`, no external network or async dependencies.
//!
//! The subsystem, by module:
//!
//! * [`http`] — minimal HTTP/1.1: incremental request and response
//!   parsing, response writing;
//! * [`batch`] — the micro-batching scheduler: a bounded MPSC queue whose
//!   workers coalesce up to `max_batch` pending scans into **one** batched
//!   forward pass ([`sevuldet::score_prepared_mut`], the same entry point the
//!   CLI uses, so batching cannot change results);
//! * [`registry`] — named hot-reloadable model slots (`POST /reload` swaps
//!   an `Arc`, scoped to one model or broadcast; in-flight batches finish on
//!   the model they started with), with weighted A/B splits and per-request
//!   selection including `ensemble:a,b,c` voting;
//! * [`metrics`] — Prometheus counters/gauges/histograms for `GET /metrics`,
//!   written through one family writer;
//! * [`server`] (Linux) — routing, backpressure (429 on a full queue),
//!   per-request deadlines (504), and graceful drain, on the event loop;
//! * [`sys`] (Linux) — std-only `epoll`/`setsockopt`/`setrlimit` wrappers;
//! * `eventloop` (Linux, internal) — the epoll event loop: 10k concurrent
//!   connections on one thread, with slow-client hardening (408/413/431),
//!   keep-alive, pipelining, and partial-write resumption;
//! * [`balancer`] (Linux) — the fleet front end: round-robin plus
//!   consistent-hash routing of `/scan` across shard processes, with
//!   health-check-driven ejection;
//! * [`signal`] — SIGINT/SIGTERM → graceful-shutdown flag, std-only.
//!
//! Serving is Linux-only: the server and the balancer both sit on the epoll
//! event loop. Off Linux the crate still builds (HTTP parsing, metrics,
//! batching, the registry), but `server` and `balancer` are absent.
//!
//! ```no_run
//! use sevuldet_serve::{registry::ModelRegistry, server, server::ServeConfig};
//!
//! let registry = ModelRegistry::open("model.svd").expect("model loads");
//! let handle = server::start(ServeConfig::default(), registry).expect("binds");
//! println!("serving on http://{}", handle.addr());
//! // ... later:
//! handle.shutdown(); // drains the queue, then joins the workers
//! ```

#[cfg(target_os = "linux")]
pub mod balancer;
pub mod batch;
#[cfg(target_os = "linux")]
pub(crate) mod eventloop;
pub mod http;
pub mod metrics;
pub mod registry;
#[cfg(target_os = "linux")]
pub mod server;
pub mod signal;
#[cfg(target_os = "linux")]
pub mod sys;

pub use batch::{JobOutcome, JobQueue, ScanJob, SubmitError};
pub use metrics::Metrics;
pub use registry::{LoadedModel, ModelChoice, ModelRegistry, MultiRegistry};
#[cfg(target_os = "linux")]
pub use server::{start, ServeConfig, ServerHandle};
