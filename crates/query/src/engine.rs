//! The demand-driven incremental engine: memoized `prepare` over the front
//! half of the pipeline (lex → parse → CFG/PDG → Algorithm-1 slice →
//! normalize), keyed by content hash.
//!
//! ## One derived query, two tiers
//!
//! The engine answers one query: the prepared gadgets of a source's bytes.
//! A miss calls [`sevuldet::prepare_source`] and keeps what it returns in
//! two tiers, both keyed by [`ArtifactStore::key`] (a SHA-256 over the
//! format version, the pipeline fingerprint and the source):
//!
//! 1. **an in-memory file memo** — key → the file's [`PreparedSource`]; a
//!    repeated scan of unchanged content inside one process is a clone;
//! 2. **a persistent artifact store** — the same key, sealed on disk
//!    ([`crate::store`]), shared across processes and with the serve
//!    workers. Damage is silently recomputed.
//!
//! A changed file is a new key and is prepared whole. There is no finer
//! tier: the answer depends only on the source bytes and the pipeline
//! fingerprint, so `prepare` returns **byte-for-byte** what
//! [`sevuldet::prepare_source`] returns by construction. The incremental
//! tests pin this across edit scenarios, and the fault-injection suite pins
//! it across cache damage.

use crate::stats;
use crate::store::ArtifactStore;
use sevuldet::{prepare_source, GadgetSpec, PreparedSource, ScanError};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

/// How a [`QueryEngine`] is set up.
#[derive(Debug, Clone, Default)]
pub struct QueryConfig {
    /// Directory for the persistent artifact store; `None` keeps the cache
    /// purely in-memory (still useful to a long-lived server).
    pub cache_dir: Option<PathBuf>,
    /// Soft on-disk size budget in bytes (oldest entries evicted past it);
    /// 0 = unbounded.
    pub max_bytes: u64,
    /// Bound on in-memory whole-file memo entries; 0 = the default (4096).
    pub mem_entries: usize,
}

const DEFAULT_MEM_ENTRIES: usize = 4096;

/// In-memory whole-file memo with FIFO eviction.
#[derive(Debug, Default)]
struct FileMemo {
    map: HashMap<String, PreparedSource>,
    order: VecDeque<String>,
}

/// The incremental query engine. `&self` methods only — the memo lives
/// behind a mutex, so one engine can be shared by every serve worker (an
/// `Arc<QueryEngine>`), with the expensive prepare running outside any lock.
#[derive(Debug)]
pub struct QueryEngine {
    fingerprint: String,
    store: Option<ArtifactStore>,
    mem_entries: usize,
    files: Mutex<FileMemo>,
}

impl QueryEngine {
    /// Opens an engine for the scan pipeline's configuration
    /// ([`GadgetSpec::path_sensitive`] — the one `sevuldet scan` and the
    /// server use).
    ///
    /// # Errors
    ///
    /// Propagates a cache-dir creation failure; everything after open
    /// degrades gracefully instead of erroring.
    pub fn open(config: &QueryConfig) -> io::Result<QueryEngine> {
        let spec = GadgetSpec::path_sensitive();
        // The fingerprint pins every knob that shapes a prepared artifact;
        // a change in any of them keys a disjoint cache namespace.
        let fingerprint = format!(
            "kind={:?} control_dep={} slice={:?}",
            spec.kind,
            spec.control_dep,
            spec.slice_config()
        );
        let store = match &config.cache_dir {
            Some(dir) => Some(ArtifactStore::open(dir, config.max_bytes)?),
            None => None,
        };
        Ok(QueryEngine {
            fingerprint,
            store,
            mem_entries: if config.mem_entries == 0 {
                DEFAULT_MEM_ENTRIES
            } else {
                config.mem_entries
            },
            files: Mutex::new(FileMemo::default()),
        })
    }

    /// An engine with no persistent store (in-memory memoization only).
    pub fn in_memory() -> QueryEngine {
        QueryEngine::open(&QueryConfig::default()).expect("no cache dir, cannot fail")
    }

    /// The persistent store, when one is open.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// The pipeline fingerprint that namespaces this engine's artifacts.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The memoized [`sevuldet::prepare_source`]: identical output for
    /// every input, served from the cheapest tier that holds it. A miss
    /// prepares across up to `jobs` threads.
    ///
    /// # Errors
    ///
    /// [`ScanError::Parse`] when the source is not valid mini-C (parse
    /// failures are never cached — they carry no sliced artifact).
    pub fn prepare(&self, source: &str, jobs: usize) -> Result<PreparedSource, ScanError> {
        let _t = sevuldet_trace::span!("query.prepare");
        let key = ArtifactStore::key(source, &self.fingerprint);
        if let Some(hit) = self
            .files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .get(&key)
        {
            stats::hit_mem();
            sevuldet_trace::counter("query.cache.hit", 1.0);
            return Ok(hit.clone());
        }
        if let Some(store) = &self.store {
            if let Some(prepared) = store.load(&key, &self.fingerprint) {
                stats::hit_disk();
                sevuldet_trace::counter("query.cache.hit", 1.0);
                self.remember(key, prepared.clone());
                return Ok(prepared);
            }
        }
        stats::miss();
        sevuldet_trace::counter("query.cache.miss", 1.0);
        let prepared = prepare_source(source, jobs)?;
        if let Some(store) = &self.store {
            store.save(&key, &self.fingerprint, source, &prepared);
        }
        self.remember(key, prepared.clone());
        Ok(prepared)
    }

    /// Inserts into the bounded in-memory file memo.
    fn remember(&self, key: String, prepared: PreparedSource) {
        let mut memo = self.files.lock().unwrap_or_else(|e| e.into_inner());
        if memo.map.contains_key(&key) {
            return;
        }
        while memo.map.len() >= self.mem_entries {
            match memo.order.pop_front() {
                Some(old) => {
                    if memo.map.remove(&old).is_some() {
                        stats::evicted(1);
                    }
                }
                None => break,
            }
        }
        memo.order.push_back(key.clone());
        memo.map.insert(key, prepared);
    }
}
