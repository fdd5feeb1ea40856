//! # sevuldet-query
//!
//! Demand-driven incremental analysis for the SEVulDet pipeline: one
//! derived query over the front half of a scan (lex → parse → CFG/PDG →
//! Algorithm-1 slice → normalize), answered by
//! [`sevuldet::prepare_source`] and keyed by the source bytes' content
//! hash, backed by a two-tier cache:
//!
//! * an **in-memory memo table** ([`QueryEngine`]) serving repeat queries
//!   within a process (the server's workers share one engine);
//! * a **persistent artifact store** ([`ArtifactStore`]) under
//!   `--cache-dir`, each entry sealed with the workspace's CRC-32 footer
//!   and written atomically — a corrupt, truncated, or version-skewed
//!   entry is silently recomputed, never an error.
//!
//! The contract throughout: cached and cache-less scans produce
//! **byte-identical** reports. Cache state can only change *when* work
//! happens, never *what* comes out.
//!
//! ## Example
//!
//! ```
//! use sevuldet_query::{QueryConfig, QueryEngine};
//!
//! let engine = QueryEngine::in_memory();
//! let src = "void f(char *p) { strcpy(p, p); }";
//! let cold = engine.prepare(src, 1).unwrap();
//! let warm = engine.prepare(src, 1).unwrap(); // served from the memo
//! assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
//! assert!(sevuldet_query::stats::counters().hits_mem >= 1);
//! # let _ = QueryConfig::default();
//! ```
//!
//! Cache observability flows through [`stats::counters`], rendered by the
//! server's `/metrics` endpoint and the CLI's `--profile` summary.

pub mod engine;
pub mod stats;
pub mod store;
pub mod walk;

pub use engine::{QueryConfig, QueryEngine};
pub use stats::{counters, CacheCounters};
pub use store::{ArtifactStore, EntryStatus, StoreStats};
pub use walk::expand_paths;
