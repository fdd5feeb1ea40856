//! Criterion benches for the trace layer's overhead contract: a disabled
//! span is one relaxed atomic load (sub-nanosecond next to any pipeline
//! stage), and recording must stay cheap enough that `--profile` does not
//! distort what it measures. The end-to-end pair trains one identical epoch
//! with recording off and on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sevuldet::{
    build_model, encode, train_model, GadgetCorpus, GadgetSpec, ModelKind, TrainConfig,
};
use sevuldet_dataset::{sard, SardConfig};
use sevuldet_trace as trace;
use std::cell::Cell;

fn bench_span_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("span");

    trace::set_recording(false);
    group.bench_function("disabled", |b| {
        b.iter(|| {
            let _g = trace::span!("bench.stage");
        })
    });

    // Recording on: drain every 100k spans so the buffer (and the sort
    // inside `take`) stays bounded; the amortized drain is part of the
    // honest cost of actually keeping a recording.
    trace::set_recording(true);
    let produced = Cell::new(0u64);
    group.bench_function("enabled", |b| {
        b.iter(|| {
            let _g = trace::span!("bench.stage");
            produced.set(produced.get() + 1);
            if produced.get().is_multiple_of(100_000) {
                let _ = trace::take();
            }
        })
    });
    trace::set_recording(false);
    let _ = trace::take();

    // Observer notification without recording — the serve /metrics path.
    let id = trace::add_observer(|_name, _dur| {});
    group.bench_function("observed", |b| {
        b.iter(|| {
            let _g = trace::span!("bench.stage");
        })
    });
    trace::remove_observer(id);

    group.finish();
}

fn bench_cfg() -> TrainConfig {
    TrainConfig {
        embed_dim: 10,
        w2v_epochs: 1,
        epochs: 1,
        cnn_channels: 8,
        seed: 42,
        jobs: 1,
        ..TrainConfig::quick()
    }
}

fn bench_corpus() -> GadgetCorpus {
    let samples = sard::generate(&SardConfig {
        per_category: 5,
        ..SardConfig::default()
    });
    GadgetSpec::path_sensitive().extract(&samples)
}

fn bench_train_e2e(c: &mut Criterion) {
    let corpus = bench_corpus();
    let cfg = bench_cfg();
    let encoded = encode(&corpus, &cfg);
    let idx: Vec<usize> = (0..corpus.len()).collect();
    let mut group = c.benchmark_group("train_epoch");

    trace::set_recording(false);
    group.bench_function("tracing_off", |b| {
        b.iter_batched(
            || build_model(ModelKind::SevulDet, encoded.table.clone(), &cfg),
            |mut model| train_model(&mut model, &corpus, &encoded, &idx, &cfg),
            BatchSize::LargeInput,
        )
    });

    group.bench_function("tracing_on", |b| {
        trace::set_recording(true);
        b.iter_batched(
            || build_model(ModelKind::SevulDet, encoded.table.clone(), &cfg),
            |mut model| {
                train_model(&mut model, &corpus, &encoded, &idx, &cfg);
                // Draining is part of a real `--profile` run's cost.
                let _ = trace::take();
            },
            BatchSize::LargeInput,
        )
    });
    trace::set_recording(false);
    let _ = trace::take();

    group.finish();
}

criterion_group!(benches, bench_span_cost, bench_train_e2e);
criterion_main!(benches);
