//! The incremental-scan benchmark: prepare a synthetic ~250-file tree cold
//! (no cache), warm (every file memoized), with exactly one function edited
//! — the engine's headline scenario — and from the disk tier alone. The
//! acceptance criterion is warm-rescan-with-one-touched-file being at least
//! 10× faster than the cold scan.
//!
//! In CI this runs under `-- --test` (the vendored harness's run-once
//! mode), which also cross-checks that every tier returns results equal to
//! a direct `prepare_source`.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use sevuldet::prepare_source;
use sevuldet_query::{QueryConfig, QueryEngine};
use std::path::PathBuf;

const FILES: usize = 250;

/// One synthetic source file: a couple of gadget-bearing functions with an
/// inter-procedural edge, varied per index so every file is a distinct
/// cache entry.
fn file_source(i: usize) -> String {
    format!(
        "void sink_{i}(char *dst, char *src, int n) {{\n\
         \x20   if (n < {len}) {{\n\
         \x20       strncpy(dst, src, n);\n\
         \x20   }}\n\
         }}\n\
         \n\
         void feed_{i}(char *buf) {{\n\
         \x20   char local[{len}];\n\
         \x20   local[0] = {i};\n\
         \x20   sink_{i}(buf, local, {len});\n\
         }}\n\
         \n\
         int calc_{i}(int x) {{\n\
         \x20   int y = x * {mult};\n\
         \x20   return y + {i};\n\
         }}\n",
        len = 16 + (i % 48),
        mult = 2 + (i % 7),
    )
}

fn tree() -> Vec<String> {
    (0..FILES).map(file_source).collect()
}

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svd-bench-incr-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn prepare_all(engine: &QueryEngine, sources: &[String]) -> usize {
    sources
        .iter()
        .map(|s| engine.prepare(s, 1).expect("prepare").gadgets.len())
        .sum()
}

fn bench_incremental_scan(c: &mut Criterion) {
    let sources = tree();
    let mut group = c.benchmark_group("incremental_scan");

    // Cold: a fresh store and a fresh engine every iteration — the full
    // parse/analyze/slice/normalize cost for all files, plus cache writes.
    group.bench_function("cold_250_files", |b| {
        let mut n = 0usize;
        b.iter_batched(
            || {
                n += 1;
                let dir = cache_dir(&format!("cold-{n}"));
                (
                    QueryEngine::open(&QueryConfig {
                        cache_dir: Some(dir.clone()),
                        ..QueryConfig::default()
                    })
                    .expect("open"),
                    dir,
                )
            },
            |(engine, dir)| {
                let total = prepare_all(&engine, &sources);
                let _ = std::fs::remove_dir_all(&dir);
                black_box(total)
            },
            BatchSize::PerIteration,
        )
    });

    // Warm: every file already memoized; a rescan is pure hits.
    {
        let engine = QueryEngine::in_memory();
        prepare_all(&engine, &sources);
        group.bench_function("warm_250_files", |b| {
            b.iter(|| black_box(prepare_all(&engine, &sources)))
        });
    }

    // Warm with one touched function: 249 memo hits + one real recompute.
    // Every iteration edits the victim to a never-before-seen body, so the
    // recompute cannot be served from the file memo — only the function
    // tier inside it helps.
    {
        let engine = QueryEngine::in_memory();
        prepare_all(&engine, &sources);
        let victim = FILES / 2;
        let mut n = 0u32;
        group.bench_function("warm_one_file_touched", |b| {
            b.iter(|| {
                n += 1;
                let edited = sources[victim].replace("int y = x *", &format!("int y = {n} + x *"));
                let mut total = 0usize;
                for (i, s) in sources.iter().enumerate() {
                    let s = if i == victim { &edited } else { s };
                    total += engine.prepare(s, 1).expect("prepare").gadgets.len();
                }
                black_box(total)
            })
        });
    }

    // Disk-tier warm rescan: a brand-new process (modeled as a fresh
    // engine) over a populated store — every hit pays read + unseal +
    // decode instead of a memo clone.
    {
        let dir = cache_dir("disk");
        let seed_engine = QueryEngine::open(&QueryConfig {
            cache_dir: Some(dir.clone()),
            ..QueryConfig::default()
        })
        .expect("open");
        prepare_all(&seed_engine, &sources);
        group.bench_function("warm_disk_250_files", |b| {
            b.iter_batched(
                || {
                    QueryEngine::open(&QueryConfig {
                        cache_dir: Some(dir.clone()),
                        ..QueryConfig::default()
                    })
                    .expect("open")
                },
                |engine| black_box(prepare_all(&engine, &sources)),
                BatchSize::PerIteration,
            )
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    group.finish();

    // Correctness cross-check (runs in `--test` mode too): the engine's
    // answers equal direct computation for a sample of the tree.
    let engine = QueryEngine::in_memory();
    for src in sources.iter().step_by(50) {
        assert_eq!(
            engine.prepare(src, 1).expect("engine"),
            prepare_source(src, 1).expect("direct"),
            "engine diverged from prepare_source"
        );
    }
}

criterion_group!(benches, bench_incremental_scan);
criterion_main!(benches);
