//! End-to-end pipeline: corpus → gadgets → embedding → model → metrics,
//! with a reusable trained [`Detector`] for the detection phase (Fig. 2b).

use crate::config::TrainConfig;
use crate::corpus::{encode, extract_gadgets_jobs, GadgetCorpus};
use crate::metrics::Confusion;
use crate::par::parallel_map;
use crate::train::{evaluate_model, train_model};
use crate::zoo::{build_model, AnyModel, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sevuldet_dataset::ProgramSample;
use sevuldet_embedding::Vocab;
use sevuldet_gadget::{GadgetKind, SliceConfig};
use sevuldet_nn::{sigmoid, Precision, SequenceClassifier, SevulDetCnn};

/// How gadgets are produced for an experiment. VulDeePecker-style runs use
/// data-dependence-only classic gadgets; SySeVR-style runs use classic
/// gadgets with control dependence; SEVulDet uses path-sensitive gadgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GadgetSpec {
    /// Classic vs path-sensitive assembly.
    pub kind: GadgetKind,
    /// Follow control dependence while slicing.
    pub control_dep: bool,
}

impl GadgetSpec {
    /// SEVulDet's path-sensitive gadgets.
    pub fn path_sensitive() -> GadgetSpec {
        GadgetSpec {
            kind: GadgetKind::PathSensitive,
            control_dep: true,
        }
    }

    /// SySeVR-style classic gadgets (data + control dependence).
    pub fn classic() -> GadgetSpec {
        GadgetSpec {
            kind: GadgetKind::Classic,
            control_dep: true,
        }
    }

    /// VulDeePecker-style gadgets (data dependence only).
    pub fn data_only() -> GadgetSpec {
        GadgetSpec {
            kind: GadgetKind::Classic,
            control_dep: false,
        }
    }

    /// The slice configuration this spec implies.
    pub fn slice_config(&self) -> SliceConfig {
        if self.control_dep {
            SliceConfig::default()
        } else {
            SliceConfig::data_only()
        }
    }

    /// Extracts the gadget corpus of a program set under this spec.
    pub fn extract(&self, samples: &[ProgramSample]) -> GadgetCorpus {
        self.extract_jobs(samples, 1)
    }

    /// [`GadgetSpec::extract`] across `jobs` worker threads. The corpus is
    /// identical for every `jobs` value.
    pub fn extract_jobs(&self, samples: &[ProgramSample], jobs: usize) -> GadgetCorpus {
        extract_gadgets_jobs(samples, self.kind, &self.slice_config(), jobs)
    }
}

/// Trains a model on a train split and evaluates on a test split, returning
/// the confusion matrix. The embedding is trained on the *whole* corpus
/// (word2vec is unsupervised; the paper pre-trains it the same way).
pub fn run_split(
    corpus: &GadgetCorpus,
    model_kind: ModelKind,
    cfg: &TrainConfig,
    train_idx: &[usize],
    test_idx: &[usize],
) -> Confusion {
    let encoded = encode(corpus, cfg);
    let mut model = build_model(model_kind, encoded.table.clone(), cfg);
    train_model(&mut model, corpus, &encoded, train_idx, cfg);
    evaluate_model(&mut model, corpus, &encoded, test_idx, cfg)
}

/// The paper's five-fold cross-validation protocol: trains `k` models, each
/// tested on its held-out fold. Returns the per-fold confusion matrices and
/// the merged one.
pub fn cross_validate(
    corpus: &GadgetCorpus,
    model_kind: ModelKind,
    cfg: &TrainConfig,
    k: usize,
) -> (Vec<Confusion>, Confusion) {
    let idx: Vec<usize> = (0..corpus.len()).collect();
    let folds = crate::train::k_folds(&idx, k, cfg.seed ^ 0xf01d);
    let mut per_fold = Vec::with_capacity(k);
    let mut merged = Confusion::default();
    for (train_idx, test_idx) in folds {
        let c = run_split(corpus, model_kind, cfg, &train_idx, &test_idx);
        merged.merge(&c);
        per_fold.push(c);
    }
    (per_fold, merged)
}

/// Why a detector could not switch to a requested precision tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrecisionError {
    /// The fast tiers only exist for the CNN family; RNN baselines stay f64.
    UnsupportedModel(ModelKind),
}

impl std::fmt::Display for PrecisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecisionError::UnsupportedModel(kind) => {
                write!(
                    f,
                    "{kind} has no fast-tier engine; only the CNN family does"
                )
            }
        }
    }
}

impl std::error::Error for PrecisionError {}

/// A trained detector bundling the model with its vocabulary, usable on new
/// programs (the detection phase, and the Table VI transfer experiment).
/// `Clone` gives the batch-prediction path its per-worker replicas.
#[derive(Clone)]
pub struct Detector {
    model: AnyModel,
    kind: ModelKind,
    vocab: Vocab,
    cfg: TrainConfig,
    rng: StdRng,
    precision: Precision,
    /// The f32 copy of the CNN the fast tier scores with; the f64 `model`
    /// stays the trained, saved source of truth.
    fast: Option<SevulDetCnn<f32>>,
}

impl std::fmt::Debug for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Detector(vocab={} tokens)", self.vocab.len())
    }
}

impl Detector {
    /// Trains a detector of the given kind on an entire gadget corpus.
    pub fn train(corpus: &GadgetCorpus, model_kind: ModelKind, cfg: &TrainConfig) -> Detector {
        Self::train_with_checkpoints(corpus, model_kind, cfg, None)
            .expect("training without checkpoints cannot fail")
    }

    /// [`Detector::train`] with crash-safe checkpointing (see
    /// [`crate::train::train_model_checkpointed`]). The word2vec embedding
    /// and corpus encoding are deterministic functions of the config and
    /// corpus, so a resumed run re-derives them instead of persisting them
    /// — only the network parameters, optimizer moments, and cursor live in
    /// the checkpoint.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O failures, corrupt checkpoints, and fingerprint
    /// mismatches. `None` never fails.
    pub fn train_with_checkpoints(
        corpus: &GadgetCorpus,
        model_kind: ModelKind,
        cfg: &TrainConfig,
        ckpt: Option<&crate::checkpoint::CheckpointSpec>,
    ) -> Result<Detector, crate::checkpoint::CheckpointError> {
        let encoded = encode(corpus, cfg);
        let mut model = build_model(model_kind, encoded.table.clone(), cfg);
        let all: Vec<usize> = (0..corpus.len()).collect();
        crate::train::train_model_checkpointed(&mut model, corpus, &encoded, &all, cfg, ckpt)?;
        Ok(Detector {
            model,
            kind: model_kind,
            vocab: encoded.vocab,
            cfg: cfg.clone(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xdec0),
            precision: Precision::F64,
            fast: None,
        })
    }

    /// Decomposes the detector for persistence: `(kind, config, vocab,
    /// serialized parameters)`.
    pub fn persist_parts(&mut self) -> (ModelKind, TrainConfig, &Vocab, String) {
        let params: Vec<&sevuldet_nn::Param> =
            self.model.params_mut().into_iter().map(|p| &*p).collect();
        let text = sevuldet_nn::save_params(&params);
        (self.kind, self.cfg.clone(), &self.vocab, text)
    }

    /// Rebuilds a detector from persisted parts.
    ///
    /// # Errors
    ///
    /// Fails when the serialized parameters do not fit the architecture the
    /// `(kind, cfg, vocab)` triple implies.
    pub fn from_persisted(
        kind: ModelKind,
        cfg: TrainConfig,
        vocab: Vocab,
        params_text: &str,
    ) -> Result<Detector, sevuldet_nn::LoadError> {
        let table = sevuldet_nn::Tensor::zeros(&[vocab.len(), cfg.embed_dim]);
        let mut model = build_model(kind, table, &cfg);
        sevuldet_nn::load_params(&mut model.params_mut(), params_text)?;
        Ok(Detector {
            model,
            kind,
            vocab,
            cfg: cfg.clone(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xdec0),
            precision: Precision::F64,
            fast: None,
        })
    }

    /// Switches the inference tier. `f64` restores the bit-exact reference
    /// path; `f32` converts the current parameters once, here, into an f32
    /// copy of the CNN ([`SevulDetCnn::to_f32`]). Training always runs f64
    /// regardless of this setting.
    ///
    /// # Errors
    ///
    /// [`PrecisionError::UnsupportedModel`] for the RNN baselines.
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), PrecisionError> {
        if precision == Precision::F64 {
            self.fast = None;
            self.precision = Precision::F64;
            return Ok(());
        }
        let cnn = match &self.model {
            AnyModel::Cnn(c) => c,
            AnyModel::Rnn(_) => return Err(PrecisionError::UnsupportedModel(self.kind)),
        };
        self.fast = Some(cnn.to_f32());
        self.precision = precision;
        Ok(())
    }

    /// The tier inference currently runs at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Probability that a normalized gadget token stream is vulnerable.
    pub fn predict(&mut self, tokens: &[String]) -> f64 {
        let ids = self.vocab.encode(tokens);
        match &mut self.fast {
            Some(fast) => sigmoid(fast.infer_logit(&ids)),
            None => sigmoid(self.model.forward_logit(&ids, false, &mut self.rng)),
        }
    }

    /// Binary verdict at the configured threshold (paper: sigmoid > 0.8).
    pub fn is_vulnerable(&mut self, tokens: &[String]) -> bool {
        self.predict(tokens) > self.cfg.threshold
    }

    /// The decision threshold this detector was trained with. Persisted in
    /// the saved model, so a loaded detector scans with the same cut-off it
    /// was calibrated for.
    pub fn threshold(&self) -> f64 {
        self.cfg.threshold
    }

    /// Probabilities for a batch of token streams, computed on up to `jobs`
    /// worker threads (`0` = all cores). The streams are encoded, sharded
    /// round-robin across the workers, and each worker pushes its whole
    /// shard through a private replica of the network that scores — the
    /// f32 copy when a fast tier is set, otherwise the f64 model — in one
    /// batched call ([`SevulDetCnn::infer_logits`],
    /// [`SequenceClassifier::forward_logits`]). Outputs are in
    /// input order and identical for every `jobs` value and for the
    /// unbatched [`Detector::predict`] — inference consumes no randomness.
    pub fn predict_batch<S: AsRef<[String]>>(&self, streams: &[S], jobs: usize) -> Vec<f64> {
        if streams.is_empty() {
            return Vec::new();
        }
        let jobs = crate::par::effective_jobs(jobs, streams.len());
        let mut shards: Vec<Vec<Vec<usize>>> = vec![Vec::new(); jobs];
        for (i, tokens) in streams.iter().enumerate() {
            shards[i % jobs].push(self.vocab.encode(tokens.as_ref()));
        }
        let per_worker: Vec<Vec<f64>> = parallel_map(&shards, jobs, |_, shard| {
            let logits = match &self.fast {
                Some(fast) => fast.clone().infer_logits(shard),
                None => {
                    let (mut model, mut rng) = (self.model.clone(), self.rng.clone());
                    model.forward_logits(shard, false, &mut rng)
                }
            };
            logits.into_iter().map(sigmoid).collect()
        });
        (0..streams.len())
            .map(|i| per_worker[i % jobs][i / jobs])
            .collect()
    }

    /// Like [`Detector::predict_batch`], but for callers that own the
    /// detector: when the work runs on the calling thread (`jobs` clamps to
    /// one) the detector's own model computes the batch directly — no
    /// replica clone per call — so its kernel workspace stays warm across
    /// calls. Multi-threaded runs delegate to `predict_batch` unchanged.
    /// Outputs are bit-identical either way: inference consumes no
    /// randomness, and the forward math is the same.
    pub fn predict_batch_mut<S: AsRef<[String]>>(
        &mut self,
        streams: &[S],
        jobs: usize,
    ) -> Vec<f64> {
        if streams.is_empty() {
            return Vec::new();
        }
        if crate::par::effective_jobs(jobs, streams.len()) > 1 {
            return self.predict_batch(streams, jobs);
        }
        let ids: Vec<Vec<usize>> = streams
            .iter()
            .map(|t| self.vocab.encode(t.as_ref()))
            .collect();
        let logits = match &mut self.fast {
            Some(fast) => fast.infer_logits(&ids),
            None => self.model.forward_logits(&ids, false, &mut self.rng),
        };
        logits.into_iter().map(sigmoid).collect()
    }

    /// Probability computed on the reference f64 path, bypassing any fast
    /// tier. The fast tiers score on their own f32 copy of the network,
    /// whose attention weights the accessors below do not read, so
    /// explainability passes use this entry point: after it returns,
    /// [`Detector::token_weights`] and [`Detector::cbam_gates`] reflect this
    /// exact input regardless of the configured precision tier.
    pub fn predict_reference(&mut self, tokens: &[String]) -> f64 {
        let ids = self.vocab.encode(tokens);
        sigmoid(self.model.forward_logit(&ids, false, &mut self.rng))
    }

    /// Per-token attention weights of the last prediction, if the model has
    /// token attention (Fig. 6's hook).
    pub fn token_weights(&self) -> Option<Vec<f64>> {
        self.model.token_weights()
    }

    /// The CBAM `(channel, spatial)` gates of the last reference-path
    /// prediction, when the model carries a CBAM block.
    pub fn cbam_gates(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        self.model.cbam_gates()
    }

    /// Evaluates the detector on a fresh gadget corpus (e.g. the Xen-sim
    /// corpus after training on SARD-sim), sharding inference across the
    /// configured `cfg.jobs` worker threads.
    pub fn evaluate_corpus(&mut self, corpus: &GadgetCorpus) -> Confusion {
        let streams: Vec<&[String]> = corpus.items.iter().map(|i| i.tokens.as_slice()).collect();
        let probs = self.predict_batch(&streams, self.cfg.jobs);
        let mut confusion = Confusion::default();
        for (p, item) in probs.iter().zip(&corpus.items) {
            confusion.record(*p > self.cfg.threshold, item.label);
        }
        confusion
    }

    /// The encoded form of a token stream under this detector's vocabulary.
    pub fn encode(&self, tokens: &[String]) -> Vec<usize> {
        self.vocab.encode(tokens)
    }
}

/// Re-export for harnesses that need the raw encoding step.
pub use crate::corpus::encode as encode_corpus;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::stratified_split;
    use sevuldet_dataset::{sard, SardConfig};

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            embed_dim: 12,
            w2v_epochs: 1,
            epochs: 12,
            cnn_channels: 12,
            rnn_hidden: 10,
            rnn_steps: 60,
            lr: 1e-3,
            threshold: 0.5,
            ..TrainConfig::quick()
        }
    }

    #[test]
    fn sevuldet_learns_tiny_corpus() {
        let samples = sard::generate(&SardConfig {
            per_category: 20,
            displaced_fraction: 0.0,
            long_fraction: 0.0,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let idx = corpus.indices_of(None);
        let (train, test) = stratified_split(&corpus, &idx, 0.25, 5);
        let c = run_split(&corpus, ModelKind::SevulDet, &quick_cfg(), &train, &test);
        assert!(
            c.accuracy() > 0.65,
            "tiny-corpus accuracy should beat chance comfortably: {c}"
        );
    }

    #[test]
    fn detector_transfers_to_unseen_programs() {
        let train_samples = sard::generate(&SardConfig {
            per_category: 12,
            displaced_fraction: 0.0,
            long_fraction: 0.0,
            ..SardConfig::default()
        });
        let test_samples = sard::generate(&SardConfig {
            per_category: 5,
            displaced_fraction: 0.0,
            long_fraction: 0.0,
            seed: 777,
            ..SardConfig::default()
        });
        let spec = GadgetSpec::path_sensitive();
        let train_corpus = spec.extract(&train_samples);
        let test_corpus = spec.extract(&test_samples);
        let mut det = Detector::train(&train_corpus, ModelKind::SevulDet, &quick_cfg());
        let c = det.evaluate_corpus(&test_corpus);
        assert_eq!(c.total(), test_corpus.len());
        assert!(c.accuracy() > 0.55, "transfer should beat chance: {c}");
    }

    #[test]
    fn token_weights_available_after_predict() {
        let samples = sard::generate(&SardConfig {
            per_category: 4,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let mut det = Detector::train(&corpus, ModelKind::SevulDet, &quick_cfg());
        let tokens = corpus.items[0].tokens.clone();
        let _ = det.predict(&tokens);
        let w = det.token_weights().expect("attention weights");
        assert_eq!(w.len(), tokens.len());
    }

    /// Shards batch requests dynamically, so an f32 score must not depend
    /// on how the streams are split across workers or batched.
    #[test]
    fn f32_batch_scores_do_not_depend_on_jobs() {
        let samples = sard::generate(&SardConfig {
            per_category: 4,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let mut det = Detector::train(&corpus, ModelKind::SevulDet, &quick_cfg());
        det.set_precision(Precision::F32).unwrap();
        let streams: Vec<&[String]> = corpus.items.iter().map(|i| i.tokens.as_slice()).collect();
        let bits = |v: Vec<f64>| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let one = bits(det.predict_batch(&streams, 1));
        assert_eq!(bits(det.predict_batch(&streams, 2)), one, "jobs 2");
        assert_eq!(bits(det.predict_batch_mut(&streams, 1)), one, "owned");
        let alone: Vec<f64> = streams.iter().map(|s| det.predict(s)).collect();
        assert_eq!(bits(alone), one, "one stream at a time");
    }
}
