//! Process-global cache counters, mirroring the kernel layer's
//! `workspace_counters` idiom: relaxed atomics bumped by every
//! [`QueryEngine`](crate::QueryEngine) in the process, snapshotted by the
//! serve layer's `/metrics` exposition and the CLI's `--profile` summary.
//!
//! The counters are process-wide rather than per-engine on purpose: the
//! serve metrics renderer has no handle on the engine (it may not even
//! exist when the server runs cache-less), and a process never runs two
//! engines with *different* stores outside of tests.

use std::sync::atomic::{AtomicU64, Ordering};

static HITS_MEM: AtomicU64 = AtomicU64::new(0);
static HITS_DISK: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static SIZE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the process-wide cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Whole-file artifacts served from the in-memory memo table.
    pub hits_mem: u64,
    /// Whole-file artifacts served from the on-disk store.
    pub hits_disk: u64,
    /// Whole-file artifacts that had to be computed from source.
    pub misses: u64,
    /// Artifacts evicted from either cache tier (size pressure).
    pub evictions: u64,
    /// Current on-disk store size in bytes (0 when no store is open).
    pub size_bytes: u64,
}

impl CacheCounters {
    /// Total whole-file hits across both tiers (what
    /// `sevuldet_query_cache_hits_total` would sum to).
    pub fn hits(&self) -> u64 {
        self.hits_mem + self.hits_disk
    }
}

/// Snapshots every counter.
pub fn counters() -> CacheCounters {
    CacheCounters {
        hits_mem: HITS_MEM.load(Ordering::Relaxed),
        hits_disk: HITS_DISK.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        size_bytes: SIZE_BYTES.load(Ordering::Relaxed),
    }
}

pub(crate) fn hit_mem() {
    HITS_MEM.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn hit_disk() {
    HITS_DISK.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn evicted(n: u64) {
    EVICTIONS.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn set_size(bytes: u64) {
    SIZE_BYTES.store(bytes, Ordering::Relaxed);
}

pub(crate) fn add_size(delta: i64) {
    if delta >= 0 {
        SIZE_BYTES.fetch_add(delta as u64, Ordering::Relaxed);
    } else {
        let sub = (-delta) as u64;
        // Saturating: a concurrent `set_size` can race this, and a gauge
        // that briefly reads low beats one that wraps to 2^64.
        let _ = SIZE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(sub))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_size_saturates() {
        let before = counters();
        hit_mem();
        hit_disk();
        miss();
        evicted(2);
        let after = counters();
        assert_eq!(after.hits_mem, before.hits_mem + 1);
        assert_eq!(after.hits_disk, before.hits_disk + 1);
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.evictions, before.evictions + 2);
        assert_eq!(after.hits(), before.hits() + 2);
        set_size(10);
        add_size(-100);
        assert_eq!(counters().size_bytes, 0);
        add_size(25);
        assert_eq!(counters().size_bytes, 25);
    }
}
