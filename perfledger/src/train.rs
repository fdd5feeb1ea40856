//! The training phases: corpus extraction plus `Detector::train` (word2vec
//! included) at f64 and jobs 1, and the epoch phase on its own.

use crate::alloc;
use crate::stats::{ms_since, Tracer};
use sevuldet::{
    build_model, encode, save_detector, sha256_hex, train_model, AnyModel, Detector, Encoded,
    GadgetCorpus, GadgetSpec, ModelKind, TrainConfig,
};
use sevuldet_dataset::ProgramSample;
use sevuldet_embedding::{SkipGram, SkipGramConfig, Vocab};
use sevuldet_nn::{SequenceClassifier, Tensor};
use std::collections::BTreeMap;
use std::time::Instant;

/// The timed training phase's configuration: the CLI's quick preset with
/// two epochs, so one repetition (a chunk of the corpus) takes a fraction
/// of a second.
pub fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        seed,
        epochs: 2,
        jobs: 1,
        ..TrainConfig::quick()
    }
}

/// The scanning model's configuration (trained once per set-up).
pub fn model_config() -> TrainConfig {
    TrainConfig {
        seed: 0,
        epochs: 6,
        ..TrainConfig::quick()
    }
}

/// What a user of `sevuldet train` waits for: the corpus extracted and a
/// trained in-memory model.
pub fn train(samples: &[ProgramSample], cfg: &TrainConfig) -> (GadgetCorpus, Detector) {
    let corpus = GadgetSpec::path_sensitive().extract_jobs(samples, cfg.jobs);
    let det = Detector::train(&corpus, ModelKind::SevulDet, cfg);
    (corpus, det)
}

/// The sha256 of the model as it would be saved.
pub fn sha(det: &mut Detector) -> String {
    sha256_hex(save_detector(det).as_bytes())
}

/// A fresh model for the epoch phase on an already encoded corpus.
pub fn epoch_model(encoded: &Encoded, cfg: &TrainConfig) -> AnyModel {
    build_model(ModelKind::SevulDet, encoded.table.clone(), cfg)
}

/// The epoch phase alone: forward, backward and optimizer step for every
/// sample of the corpus, `cfg.epochs` times.
pub fn epochs(model: &mut AnyModel, corpus: &GadgetCorpus, encoded: &Encoded, cfg: &TrainConfig) {
    let all: Vec<usize> = (0..corpus.len()).collect();
    train_model(model, corpus, encoded, &all, cfg);
}

/// `train` on one chunk, decomposed into its layers' public calls, each in
/// a span; returns the model and the chunk's gadget count.
fn train_traced(
    tr: &mut Tracer,
    group: u64,
    samples: &[ProgramSample],
    cfg: &TrainConfig,
) -> (AnyModel, f64) {
    tr.span("train", group, |tr| {
        let corpus = tr.span("core.extract", group, |_| {
            GadgetSpec::path_sensitive().extract_jobs(samples, cfg.jobs)
        });
        // `sevuldet::encode`, one layer call at a time.
        let vocab = tr.span("embedding.vocab", group, |_| {
            Vocab::build(corpus.items.iter().map(|i| i.tokens.as_slice()), 1)
        });
        let ids: Vec<Vec<usize>> = tr.span("embedding.encode", group, |_| {
            corpus
                .items
                .iter()
                .map(|i| vocab.encode(&i.tokens))
                .collect()
        });
        let table = tr.span("embedding.w2v", group, |_| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed ^ 0x77);
            let sg = SkipGramConfig {
                dim: cfg.embed_dim,
                epochs: cfg.w2v_epochs,
                ..SkipGramConfig::default()
            };
            let t = SkipGram::train(&vocab, &ids, &sg, &mut rng).table();
            Tensor::from_vec(&[t.rows, t.cols], t.data)
        });
        let encoded = Encoded { ids, vocab, table };
        let mut model = tr.span("nn.build", group, |_| {
            build_model(ModelKind::SevulDet, encoded.table.clone(), cfg)
        });
        let all: Vec<usize> = (0..corpus.len()).collect();
        tr.span("nn.train", group, |_| {
            train_model(&mut model, &corpus, &encoded, &all, cfg)
        });
        (model, corpus.len() as f64)
    })
}

/// The per-layer numbers of the training path: every chunk's `train`
/// decomposed into its layers' public calls, checked against the untraced
/// model's parameters.
pub fn layers(
    tr: &mut Tracer,
    chunks: &[Vec<ProgramSample>],
    cfg: &TrainConfig,
    m: &mut BTreeMap<&'static str, f64>,
) {
    // Untraced and traced passes over every chunk, alternating, best of
    // three each.
    const REPS: usize = 3;
    let (mut untraced, mut traced) = (f64::INFINITY, f64::INFINITY);
    let mut reference = Vec::new();
    let mut gadgets = 0.0;
    for rep in 0..REPS {
        let t = Instant::now();
        let dets: Vec<Detector> = chunks.iter().map(|c| train(c, cfg).1).collect();
        untraced = untraced.min(ms_since(t));
        let t = Instant::now();
        let models: Vec<(AnyModel, f64)> = chunks
            .iter()
            .enumerate()
            .map(|(c, samples)| train_traced(tr, (rep * chunks.len() + c) as u64, samples, cfg))
            .collect();
        traced = traced.min(ms_since(t));
        gadgets = models.iter().map(|(_, n)| n).sum();
        for (mut det, (mut model, _)) in dets.into_iter().zip(models) {
            let params: Vec<&sevuldet_nn::Param> =
                model.params_mut().into_iter().map(|p| &*p).collect();
            assert_eq!(
                sevuldet_nn::save_params(&params),
                det.persist_parts().3,
                "decomposed training differs"
            );
            if rep == 0 {
                reference.push(sha(&mut det));
            }
        }
    }
    let per_pass = |name: &str| tr.total(name).0 / 1e3 / REPS as f64;
    m.insert(
        "embedding.encode_us_per_gadget",
        per_pass("embedding.encode") / gadgets,
    );
    m.insert(
        "nn.train_us_per_sample",
        per_pass("nn.train") / (gadgets * cfg.epochs as f64),
    );
    m.insert("embedding.w2v_ms", per_pass("embedding.w2v") / 1e3);
    m.insert(
        "trace.overhead_pct.train",
        (traced / untraced - 1.0) * 100.0,
    );
    m.insert("trace.coverage.train", tr.coverage("train"));

    // Allocation count of the epoch phase, and the jobs-2 comparison (every
    // model must come out byte-identical).
    let (mut allocs, mut samples) = (0u64, 0usize);
    for c in chunks {
        let corpus = GadgetSpec::path_sensitive().extract_jobs(c, 1);
        let encoded = encode(&corpus, cfg);
        let all: Vec<usize> = (0..corpus.len()).collect();
        let mut model = build_model(ModelKind::SevulDet, encoded.table.clone(), cfg);
        allocs += alloc::count(|| train_model(&mut model, &corpus, &encoded, &all, cfg)).1;
        samples += corpus.len() * cfg.epochs;
    }
    m.insert("train.allocs_per_sample", allocs as f64 / samples as f64);
    let cfg2 = TrainConfig {
        jobs: 2,
        ..cfg.clone()
    };
    let mut jobs2 = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let dets: Vec<Detector> = chunks.iter().map(|c| train(c, &cfg2).1).collect();
        jobs2 = jobs2.min(ms_since(t));
        for (mut det, want) in dets.into_iter().zip(&reference) {
            assert_eq!(&sha(&mut det), want, "jobs 2 changed the model");
        }
    }
    m.insert("par.train_jobs2_speedup", untraced / jobs2);
}
