//! End-to-end pipeline: corpus → gadgets → embedding → model → metrics,
//! with a reusable trained [`Detector`] for the detection phase (Fig. 2b).

use crate::config::TrainConfig;
use crate::corpus::{encode, extract_gadgets_jobs, GadgetCorpus};
use crate::metrics::Confusion;
use crate::par::infer_sharded;
use crate::train::{evaluate_model, train_model};
use crate::zoo::{build_model, AnyModel, ModelKind};
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
/// `Clone` gives each server worker its own warm copy to score on.
#[derive(Clone)]
pub struct Detector {
    model: AnyModel,
    kind: ModelKind,
    vocab: Vocab,
    cfg: TrainConfig,
    /// The f32 copy of the CNN the fast tier scores with, present exactly
    /// when the tier is f32; the f64 `model` stays the trained, saved
    /// source of truth.
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
            cfg,
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
        self.fast = match (precision, &self.model) {
            (Precision::F64, _) => None,
            (Precision::F32, AnyModel::Cnn(cnn)) => Some(cnn.to_f32()),
            (Precision::F32, AnyModel::Rnn(_)) => {
                return Err(PrecisionError::UnsupportedModel(self.kind))
            }
        };
        Ok(())
    }

    /// The tier inference currently runs at.
    pub fn precision(&self) -> Precision {
        if self.fast.is_some() {
            Precision::F32
        } else {
            Precision::F64
        }
    }

    /// Probability that a normalized gadget token stream is vulnerable: a
    /// batch of one through [`Detector::predict_batch_mut`].
    pub fn predict(&mut self, tokens: &[String]) -> f64 {
        self.predict_batch_mut(&[tokens], 1)[0]
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
    /// worker threads (`0` = all cores). The streams are encoded, and each
    /// distinct id sequence is scored once — streams that normalize or
    /// encode alike (several special tokens of one slice, out-of-vocabulary
    /// tokens) share its score. The distinct sequences are sharded
    /// round-robin across the workers, and each shard goes through the
    /// network that scores — the f32 copy when a fast tier is set,
    /// otherwise the f64 model — in one batched `infer_logits` call
    /// ([`SevulDetCnn::infer_logits`], [`SequenceClassifier::infer_logits`]).
    /// At one job that network is the detector's own, so its kernel
    /// workspace stays warm across calls and the f64 model's last forward is
    /// on the batch's last stream ([`Detector::token_weights`] and
    /// [`Detector::cbam_gates`] report it); more jobs give each worker a
    /// clone of the network alone, never of the vocabulary. Outputs are in
    /// input order and bit-identical for every `jobs` value and for
    /// one-stream [`Detector::predict`] calls — inference reads no
    /// randomness, and each sequence gets the bits of a batch of one.
    pub fn predict_batch_mut<S: AsRef<[String]>>(
        &mut self,
        streams: &[S],
        jobs: usize,
    ) -> Vec<f64> {
        let (n, vocab) = (streams.len(), &self.vocab);
        let ids = |i: usize| vocab.encode(streams[i].as_ref());
        let logits = match &mut self.fast {
            Some(fast) => infer_sharded(fast, n, jobs, ids, SevulDetCnn::<f32>::infer_logits),
            None => infer_sharded(&mut self.model, n, jobs, ids, AnyModel::infer_logits),
        };
        logits.into_iter().map(sigmoid).collect()
    }

    /// Probability computed on the reference f64 path, bypassing any fast
    /// tier: a batch of one through the f64 model's
    /// [`SequenceClassifier::infer_logits`]. The f32 tier scores on its own
    /// f32 copy of the network, whose attention weights the accessors below
    /// do not read, so explainability passes use this entry point: after it
    /// returns, [`Detector::token_weights`] and [`Detector::cbam_gates`]
    /// reflect this exact input regardless of the configured precision tier.
    pub fn predict_reference(&mut self, tokens: &[String]) -> f64 {
        let ids = self.vocab.encode(tokens);
        sigmoid(self.model.infer_logits(std::slice::from_ref(&ids))[0])
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
        let probs = self.predict_batch_mut(&streams, self.cfg.jobs);
        let mut confusion = Confusion::default();
        for (p, item) in probs.iter().zip(&corpus.items) {
            confusion.record(*p > self.cfg.threshold, item.label);
        }
        confusion
    }
}

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

    /// A small detector and a batch with every kind of duplicate the
    /// scoring dedup folds: a last stream that repeats an earlier one, two
    /// different streams that encode to the same ids (they differ only in
    /// an out-of-vocabulary first token), and the empty stream twice.
    fn dedup_fixture() -> (Detector, Vec<Vec<String>>) {
        let samples = sard::generate(&SardConfig {
            per_category: 4,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let det = Detector::train(&corpus, ModelKind::SevulDet, &quick_cfg());
        // The corpus keeps one copy per category, so pick distinct streams.
        let mut distinct: Vec<&Vec<String>> = Vec::new();
        for item in &corpus.items {
            if !distinct.contains(&&item.tokens) {
                distinct.push(&item.tokens);
            }
        }
        let t = |i: usize| distinct[i].clone();
        let oov = |name: &str| {
            let mut toks = t(2);
            toks[0] = name.to_string();
            toks
        };
        let batch = vec![
            t(0),
            t(1),
            oov("never_seen_a"),
            Vec::new(),
            t(3),
            oov("never_seen_b"),
            Vec::new(),
            t(1),
            t(0),
        ];
        (det, batch)
    }

    #[test]
    fn duplicate_streams_score_like_single_predictions() {
        let (mut det, batch) = dedup_fixture();
        let bits = |v: Vec<f64>| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for precision in [Precision::F64, Precision::F32] {
            det.set_precision(precision).unwrap();
            let alone = bits(batch.iter().map(|s| det.predict(s)).collect());
            for jobs in [1, 2] {
                let batched = bits(det.predict_batch_mut(&batch, jobs));
                assert_eq!(batched, alone, "{precision} jobs {jobs}");
            }
        }
    }

    /// The dedup orders distinct streams by last occurrence, so a one-job
    /// batch still ends on its last stream: the attention accessors report
    /// that stream, as after `predict` on it alone.
    #[test]
    fn batch_attention_reports_the_last_stream() {
        let (mut det, batch) = dedup_fixture();
        let last = batch.last().unwrap();
        let _ = det.predict(last);
        let (weights, gates) = (det.token_weights(), det.cbam_gates());
        assert!(weights.is_some() && gates.is_some());
        let _ = det.predict(&batch[1]);
        assert_ne!(det.token_weights(), weights, "the fixture's streams differ");
        let _ = det.predict_batch_mut(&batch, 1);
        assert_eq!(det.token_weights(), weights);
        assert_eq!(det.cbam_gates(), gates);
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
        let one = bits(det.predict_batch_mut(&streams, 1));
        assert_eq!(bits(det.predict_batch_mut(&streams, 2)), one, "jobs 2");
        assert_eq!(bits(det.predict_batch_mut(&streams, 1)), one, "warm repeat");
        let alone: Vec<f64> = streams.iter().map(|s| det.predict(s)).collect();
        assert_eq!(bits(alone), one, "one stream at a time");
    }
}
