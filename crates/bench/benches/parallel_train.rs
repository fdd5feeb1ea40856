//! Criterion benches for the data-parallel engine: one training epoch, a
//! full-corpus scan and a source-tree scan at 1 vs N worker threads. On a
//! multi-core host the N-job rows should approach a linear speedup (gradient
//! merge and the Adam step stay sequential); on a single-core host they
//! quantify the engine's sharding overhead instead.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sevuldet::{
    build_model, encode, prepare_source, train_model, Detector, GadgetCorpus, GadgetSpec,
    ModelKind, TrainConfig,
};
use sevuldet_dataset::{sard, SardConfig};

const JOBS: &[usize] = &[1, 2, 4];

fn bench_cfg(jobs: usize) -> TrainConfig {
    TrainConfig {
        embed_dim: 16,
        w2v_epochs: 1,
        epochs: 1,
        cnn_channels: 16,
        seed: 42,
        jobs,
        ..TrainConfig::quick()
    }
}

fn bench_corpus() -> GadgetCorpus {
    let samples = sard::generate(&SardConfig {
        per_category: 10,
        ..SardConfig::default()
    });
    GadgetSpec::path_sensitive().extract(&samples)
}

fn bench_train_epoch(c: &mut Criterion) {
    let corpus = bench_corpus();
    let encoded = encode(&corpus, &bench_cfg(1));
    let idx: Vec<usize> = (0..corpus.len()).collect();
    let mut group = c.benchmark_group("train_epoch");
    for &jobs in JOBS {
        let cfg = bench_cfg(jobs);
        group.bench_function(format!("jobs{jobs}"), |b| {
            b.iter_batched(
                || build_model(ModelKind::SevulDet, encoded.table.clone(), &cfg),
                |mut model| train_model(&mut model, &corpus, &encoded, &idx, &cfg),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_scan_throughput(c: &mut Criterion) {
    let corpus = bench_corpus();
    let mut det = {
        let cfg = bench_cfg(1);
        Detector::train(&corpus, ModelKind::SevulDet, &cfg)
    };
    let streams: Vec<Vec<String>> = corpus.items.iter().map(|i| i.tokens.clone()).collect();
    let mut group = c.benchmark_group("scan_corpus");
    for &jobs in JOBS {
        group.bench_function(format!("jobs{jobs}"), |b| {
            b.iter(|| std::hint::black_box(det.predict_batch_mut(&streams, jobs)))
        });
    }
    group.finish();

    // The corpus above holds one copy of each stream per category; a scan
    // scores every gadget `prepare_source` gives, in-file duplicates (one
    // per special token of a shared slice) included.
    let tree = sard::generate(&SardConfig {
        per_category: 4,
        seed: 3,
        ..SardConfig::default()
    });
    let gadgets: Vec<Vec<String>> = tree
        .iter()
        .flat_map(|s| {
            prepare_source(&s.source, 1)
                .expect("generated sources parse")
                .gadgets
        })
        .map(|g| g.tokens)
        .collect();
    let mut group = c.benchmark_group("scan_tree");
    for &jobs in JOBS {
        group.bench_function(format!("jobs{jobs}"), |b| {
            b.iter(|| std::hint::black_box(det.predict_batch_mut(&gadgets, jobs)))
        });
    }
    group.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let samples = sard::generate(&SardConfig {
        per_category: 10,
        ..SardConfig::default()
    });
    let spec = GadgetSpec::path_sensitive();
    let mut group = c.benchmark_group("extract_gadgets");
    for &jobs in JOBS {
        group.bench_function(format!("jobs{jobs}"), |b| {
            b.iter(|| std::hint::black_box(spec.extract_jobs(&samples, jobs)))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_train_epoch, bench_scan_throughput, bench_extraction
);
criterion_main!(benches);
