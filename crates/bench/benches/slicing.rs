//! Criterion benches for the preprocessing pipeline: parsing, PDG
//! construction, the classic-vs-path-sensitive slicing ablation
//! (DESIGN.md: path sensitivity costs extra AST passes — measure it), and
//! the front half's layers one public call at a time on long-filler
//! programs (`analyze`, `build_gadget`, `normalize_gadget`,
//! `prepare_source`), where slicing and normalization dominate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sevuldet::GadgetSpec;
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_dataset::{sard, SardConfig};
use sevuldet_gadget::{
    build_gadget, find_special_tokens, generate_all, GadgetKind, Normalizer, SliceConfig,
};
use sevuldet_lang::parse;

fn corpus_sources() -> Vec<String> {
    sard::generate(&SardConfig {
        per_category: 8,
        seed: 11,
        ..SardConfig::default()
    })
    .into_iter()
    .map(|s| s.source)
    .collect()
}

/// Programs that all carry the generator's 70-statement dependent-filler
/// chain, a third of them routing taint through a helper function.
fn long_filler_sources() -> Vec<String> {
    sard::generate(&SardConfig {
        per_category: 3,
        long_fraction: 1.0,
        long_filler: 70,
        interproc_fraction: 0.33,
        seed: 12,
        ..SardConfig::default()
    })
    .into_iter()
    .map(|s| s.source)
    .collect()
}

fn bench_front_half(c: &mut Criterion) {
    let sources = long_filler_sources();
    let programs: Vec<_> = sources.iter().map(|s| parse(s).unwrap()).collect();
    let analyzed: Vec<_> = programs
        .iter()
        .map(|p| {
            let a = ProgramAnalysis::analyze(p);
            let t = find_special_tokens(p, &a);
            (p, a, t)
        })
        .collect();
    let spec = GadgetSpec::path_sensitive();
    let slice = spec.slice_config();
    let gadgets: Vec<_> = analyzed
        .iter()
        .flat_map(|(p, a, t)| t.iter().map(|st| build_gadget(p, a, st, spec.kind, &slice)))
        .collect();
    let mut group = c.benchmark_group("front_half_long_filler");
    group.bench_function("analyze", |b| {
        b.iter(|| {
            for p in &programs {
                std::hint::black_box(ProgramAnalysis::analyze(p));
            }
        })
    });
    group.bench_function("build_gadget", |b| {
        b.iter(|| {
            for (p, a, t) in &analyzed {
                for st in t {
                    std::hint::black_box(build_gadget(p, a, st, spec.kind, &slice));
                }
            }
        })
    });
    group.bench_function("normalize_gadget", |b| {
        b.iter(|| {
            for g in &gadgets {
                std::hint::black_box(Normalizer::normalize_gadget(g));
            }
        })
    });
    group.bench_function("prepare_source", |b| {
        b.iter(|| {
            for s in &sources {
                std::hint::black_box(sevuldet::prepare_source(s, 1).expect("parses"));
            }
        })
    });
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    let sources = corpus_sources();
    c.bench_function("parse_32_programs", |b| {
        b.iter(|| {
            for s in &sources {
                std::hint::black_box(parse(s).expect("generated source parses"));
            }
        })
    });
}

fn bench_pdg(c: &mut Criterion) {
    let programs: Vec<_> = corpus_sources().iter().map(|s| parse(s).unwrap()).collect();
    c.bench_function("pdg_32_programs", |b| {
        b.iter(|| {
            for p in &programs {
                std::hint::black_box(ProgramAnalysis::analyze(p));
            }
        })
    });
}

fn bench_gadgets(c: &mut Criterion) {
    let programs: Vec<_> = corpus_sources().iter().map(|s| parse(s).unwrap()).collect();
    let analyzed: Vec<_> = programs
        .iter()
        .map(|p| {
            let a = ProgramAnalysis::analyze(p);
            let t = find_special_tokens(p, &a);
            (p, a, t)
        })
        .collect();
    let mut group = c.benchmark_group("gadget_generation");
    for (name, kind) in [
        ("classic", GadgetKind::Classic),
        ("path_sensitive", GadgetKind::PathSensitive),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || (),
                |_| {
                    for (p, a, t) in &analyzed {
                        std::hint::black_box(generate_all(p, a, t, kind, &SliceConfig::default()));
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parse, bench_pdg, bench_gadgets, bench_front_half
);
criterion_main!(benches);
