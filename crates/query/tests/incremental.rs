//! Incremental-engine invariants, all downstream of one contract: for any
//! source and any cache state — cold, warm, damaged, evicted, or after an
//! edit — [`QueryEngine::prepare`] returns exactly what
//! [`sevuldet::prepare_source`] returns. The cache may only change how fast
//! the answer arrives, and its on-disk namespace is pinned so existing
//! cache directories stay valid.
//!
//! Counter assertions use before/after deltas with `>=`: the counters are
//! process-global and the test binary runs its tests concurrently.

use sevuldet::{prepare_source, PreparedSource};
use sevuldet_query::{counters, QueryConfig, QueryEngine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Three functions; `sink`'s gadget slices inter-procedurally into
/// `producer` (its caller), while `unrelated` stays out of that slice.
const BASE: &str = "void sink(char *dst, char *src) {\n    strcpy(dst, src);\n}\n\nvoid producer(char *buf) {\n    char data[64];\n    data[0] = 1;\n    sink(buf, data);\n}\n\nint unrelated(int x) {\n    int y = x + 1;\n    return y * 2;\n}\n";

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "svd-incr-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_engine(dir: &std::path::Path) -> QueryEngine {
    QueryEngine::open(&QueryConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..QueryConfig::default()
    })
    .expect("open engine")
}

/// The reference the engine must match byte-for-byte.
fn fresh(source: &str) -> PreparedSource {
    prepare_source(source, 1).expect("reference prepare")
}

#[test]
fn engine_matches_prepare_source_for_every_tier_and_jobs() {
    let dir = tmpdir("tiers");
    let engine = disk_engine(&dir);
    let sources = [
        BASE.to_string(),
        "int main() { return 0; }".to_string(),
        BASE.replace("y * 2", "y * 3"),
    ];
    for jobs in [1usize, 2] {
        for src in &sources {
            let want = fresh(src);
            // Cold (miss), warm (memory hit), and via a second engine on
            // the same directory (disk hit) — all three identical.
            assert_eq!(engine.prepare(src, jobs).unwrap(), want, "cold/warm");
            assert_eq!(engine.prepare(src, jobs).unwrap(), want, "memo");
            let other = disk_engine(&dir);
            assert_eq!(other.prepare(src, jobs).unwrap(), want, "disk");
        }
    }
    // Parse failures pass through unchanged (and are never cached).
    assert!(engine.prepare("int (", 1).is_err());
    assert!(engine.prepare("int (", 1).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_and_disk_hits_are_counted() {
    let dir = tmpdir("counters");
    let engine = disk_engine(&dir);
    let src = BASE.replace("unrelated", "renamed_for_counter_test");

    let before = counters();
    engine.prepare(&src, 1).unwrap();
    let after_cold = counters();
    assert!(after_cold.misses > before.misses, "cold scan is a miss");
    assert!(after_cold.size_bytes > 0, "save grew the store gauge");

    engine.prepare(&src, 1).unwrap();
    assert!(
        counters().hits_mem > after_cold.hits_mem,
        "second scan hits the memo"
    );

    let second = disk_engine(&dir);
    let before_disk = counters();
    second.prepare(&src, 1).unwrap();
    assert!(
        counters().hits_disk > before_disk.hits_disk,
        "fresh engine on the same dir hits the disk store"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every flavor of on-disk damage degrades to a silent recompute with
/// identical output: bit flips, truncation, emptiness, a stale format
/// header (sealed correctly, so only the header check can reject it), and
/// outright garbage.
#[test]
fn damaged_entries_recompute_byte_identically() {
    let dir = tmpdir("damage");
    let src = BASE.replace("unrelated", "renamed_for_damage_test");
    let want = fresh(&src);
    disk_engine(&dir).prepare(&src, 1).unwrap();
    let entry = || -> PathBuf {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "svdc"))
            .expect("one cache entry")
    };
    let pristine = std::fs::read(entry()).unwrap();

    let damages: Vec<Vec<u8>> = vec![
        {
            let mut b = pristine.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
            b
        },
        pristine[..pristine.len() / 3].to_vec(),
        Vec::new(),
        sevuldet::integrity::seal(
            String::from_utf8(pristine.clone())
                .unwrap()
                .lines()
                .take_while(|l| !l.starts_with("sevuldet-footer"))
                .collect::<Vec<_>>()
                .join("\n")
                .replace("cache v1", "cache v0"),
        )
        .into_bytes(),
        b"not a cache entry at all\n".to_vec(),
    ];
    for (i, bytes) in damages.iter().enumerate() {
        std::fs::write(entry(), bytes).unwrap();
        let engine = disk_engine(&dir);
        let before = counters();
        assert_eq!(
            engine.prepare(&src, 1).unwrap(),
            want,
            "damage #{i} changed the report"
        );
        assert!(
            counters().misses > before.misses,
            "damage #{i} must count as a miss, not a hit"
        );
        // And the store healed itself: a fresh engine now gets a disk hit.
        let before_heal = counters();
        assert_eq!(disk_engine(&dir).prepare(&src, 1).unwrap(), want);
        assert!(
            counters().hits_disk > before_heal.hits_disk,
            "damage #{i} was not rewritten by the recompute"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every kind of edit to a file the engine has already seen — outside the
/// slices, inside one, a line shift, a new caller, a newly defined callee,
/// a changed global — is a new query whose answer matches a fresh
/// `prepare_source`.
#[test]
fn edited_sources_match_prepare_source() {
    let engine = QueryEngine::in_memory();
    engine.prepare(BASE, 1).unwrap();

    // Editing `unrelated`, outside the sink/producer slices.
    let edited_unrelated = BASE.replace("y * 2", "y * 7");
    assert_eq!(
        engine.prepare(&edited_unrelated, 1).unwrap(),
        fresh(&edited_unrelated)
    );

    // A pure line shift (blank lines prepended) changes every gadget's
    // `line` but no function's text.
    let shifted = format!("\n\n\n{BASE}");
    let got = engine.prepare(&shifted, 1).unwrap();
    assert_eq!(got, fresh(&shifted));
    assert_ne!(
        got.gadgets[0].line,
        engine.prepare(BASE, 1).unwrap().gadgets[0].line,
        "shifted lines must be reported at their new positions"
    );

    // Editing `producer`, inside sink's inter-procedural slice.
    let edited_producer = BASE.replace("data[0] = 1", "data[0] = 2");
    assert_eq!(
        engine.prepare(&edited_producer, 1).unwrap(),
        fresh(&edited_producer)
    );

    // Adding a *new caller* of `sink` extends its backward slice even
    // though no previously-involved function changed.
    let with_caller =
        format!("{BASE}\nvoid extra(char *p) {{\n    char tmp[8];\n    sink(p, tmp);\n}}\n");
    assert_eq!(
        engine.prepare(&with_caller, 1).unwrap(),
        fresh(&with_caller)
    );

    // A previously-undefined callee gaining a definition lets forward
    // slices descend into it.
    let base_with_undef = BASE.replace("strcpy(dst, src);", "helper(dst, src);");
    engine.prepare(&base_with_undef, 1).unwrap();
    let defined =
        format!("{base_with_undef}\nvoid helper(char *a, char *b) {{\n    strcpy(a, b);\n}}\n");
    assert_eq!(engine.prepare(&defined, 1).unwrap(), fresh(&defined));

    // Globals participate in every function's analysis.
    let with_global = format!("int limit = 10;\n\n{BASE}");
    engine.prepare(&with_global, 1).unwrap();
    let changed_global = format!("int limit = 99;\n\n{BASE}");
    assert_eq!(
        engine.prepare(&changed_global, 1).unwrap(),
        fresh(&changed_global)
    );
}

#[test]
fn memory_memo_evicts_at_capacity() {
    let engine = QueryEngine::open(&QueryConfig {
        mem_entries: 2,
        ..QueryConfig::default()
    })
    .unwrap();
    let srcs: Vec<String> = (0..3)
        .map(|i| format!("int f{i}(int x) {{ return x + {i}; }}"))
        .collect();
    let before = counters();
    for s in &srcs {
        engine.prepare(s, 1).unwrap();
    }
    assert!(
        counters().evictions > before.evictions,
        "third insert into a 2-entry memo must evict"
    );
    // The evicted (oldest) source recomputes — and still matches.
    let before = counters();
    assert_eq!(engine.prepare(&srcs[0], 1).unwrap(), fresh(&srcs[0]));
    assert!(counters().misses > before.misses);
}

/// The cache namespace is part of the on-disk contract: the fingerprint,
/// the entry key for `BASE`, and the exact bytes of its `.svdc` entry are
/// pinned to literals, so any change that would orphan users' existing
/// `--cache-dir` contents fails here first.
#[test]
fn cache_namespace_is_pinned() {
    let fp = QueryEngine::in_memory().fingerprint().to_string();
    let key = sevuldet_query::ArtifactStore::key(BASE, &fp);
    let dir = tmpdir("namespace");
    disk_engine(&dir).prepare(BASE, 1).unwrap();
    let bytes = std::fs::read(dir.join(format!("{key}.svdc"))).expect("entry under its key");
    let entry_sha = sevuldet::integrity::sha256_hex(&bytes);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        fp,
        "kind=PathSensitive control_dep=true \
         slice=SliceConfig { control_dep: true, interprocedural: true, max_nodes: 4096 }"
    );
    assert_eq!(
        key,
        "cbd9d034b50adfc0d77ccf19e1602bab6bb69aa8806b8800ae2a42607b45051f"
    );
    assert_eq!(
        entry_sha,
        "158548c0eff2ae39873162042425d312491de32e82ddb6f978546332230c1d64"
    );
}
