//! Training and evaluation loops (Step V), data-parallel and deterministic.
//!
//! Both loops shard samples across `cfg.jobs` worker threads while keeping
//! results **bit-identical for every thread count**:
//!
//! * each sample's dropout stream is seeded from `(run seed, epoch,
//!   position in the shuffled order)` — see [`crate::par::sample_seed`] —
//!   so randomness does not depend on which worker runs the sample or how
//!   many samples that worker has already processed;
//! * each worker computes per-sample gradients on its own model replica
//!   (weights are constant within a mini-batch, exactly as in sequential
//!   gradient accumulation) and the coordinator merges them in global
//!   sample order, so the floating-point summation tree never changes.
//!
//! The `jobs = 1` path runs through the same extract-and-merge code, which
//! is what makes the equivalence trivial rather than approximate.

use crate::checkpoint::{self, CheckpointError, CheckpointSpec};
use crate::config::TrainConfig;
use crate::corpus::{Encoded, GadgetCorpus};
use crate::faults;
use crate::metrics::Confusion;
use crate::par::{infer_sharded, parallel_map_with_state, sample_seed};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sevuldet_nn::{bce_with_logits_weighted, save_params, Adam, SequenceClassifier};

/// Trains a model on the items selected by `train_idx`.
///
/// Gradients are accumulated over `cfg.batch` samples before each Adam step
/// (the paper's mini-batch of 16). The positive class is up-weighted by the
/// negative/positive ratio (capped at 10) unless `cfg.pos_weight` overrides
/// it — the paper keeps its corpora imbalanced, so unweighted training
/// collapses to the majority class.
///
/// With `cfg.jobs > 1` the samples of each mini-batch are processed on
/// worker threads; saved parameters are bit-identical to `cfg.jobs == 1`
/// at equal `cfg.seed` (see the module docs for why).
pub fn train_model<M>(
    model: &mut M,
    corpus: &GadgetCorpus,
    encoded: &Encoded,
    train_idx: &[usize],
    cfg: &TrainConfig,
) where
    M: SequenceClassifier + Clone + Send + Sync,
{
    train_model_checkpointed(model, corpus, encoded, train_idx, cfg, None)
        .expect("training without checkpoints cannot fail");
}

/// [`train_model`] with optional crash-safe checkpointing.
///
/// With a [`CheckpointSpec`], the run's state (parameters, Adam moments,
/// epoch/batch cursor) is snapshotted to `<dir>/checkpoint.svc` — atomically
/// and checksummed — every `spec.every` optimizer steps and at every epoch
/// boundary. With `spec.resume`, an existing checkpoint of the *same run*
/// (verified by fingerprint) is loaded and training continues from its
/// cursor; because every random stream is either position-seeded or
/// replayed (see [`crate::checkpoint`]), the resumed run's final parameters
/// are bit-identical to an uninterrupted run's, for every `cfg.jobs`.
///
/// # Errors
///
/// Checkpoint I/O failures, corrupt checkpoint files, and fingerprint
/// mismatches (resuming with different arguments or data). `None` never
/// fails.
pub fn train_model_checkpointed<M>(
    model: &mut M,
    corpus: &GadgetCorpus,
    encoded: &Encoded,
    train_idx: &[usize],
    cfg: &TrainConfig,
    spec: Option<&CheckpointSpec>,
) -> Result<(), CheckpointError>
where
    M: SequenceClassifier + Clone + Send + Sync,
{
    let mut shuffle_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5151);
    let mut opt = Adam::new(cfg.lr);
    let pos = train_idx.iter().filter(|&&i| corpus.items[i].label).count();
    let neg = train_idx.len() - pos;
    let pos_weight = cfg
        .pos_weight
        .unwrap_or_else(|| ((neg.max(1) as f64) / (pos.max(1) as f64)).clamp(1.0, 10.0));

    let fp = spec.map(|_| checkpoint::fingerprint(cfg, train_idx, corpus.len()));
    let (mut start_epoch, mut start_cursor) = (0usize, 0usize);
    if let (Some(spec), Some(fp)) = (spec, fp.as_deref()) {
        if spec.resume {
            if let Some(ckpt) = checkpoint::load_for(&spec.path(), fp)? {
                sevuldet_nn::load_params(&mut model.params_mut(), &ckpt.params)
                    .map_err(|e| CheckpointError::Invalid(e.0))?;
                opt.import_state(&ckpt.adam)
                    .map_err(|e| CheckpointError::Invalid(e.0))?;
                start_epoch = ckpt.epoch;
                start_cursor = ckpt.cursor;
            }
        }
    }
    let save_ckpt = |model: &mut M, opt: &Adam, epoch: usize, cursor: usize| {
        let (Some(spec), Some(fp)) = (spec, fp.as_deref()) else {
            return Ok(());
        };
        let params: Vec<&sevuldet_nn::Param> =
            model.params_mut().into_iter().map(|p| &*p).collect();
        let params_text = save_params(&params);
        checkpoint::save(
            &spec.path(),
            fp,
            epoch,
            cursor,
            &opt.export_state(),
            &params_text,
        )
        .map_err(CheckpointError::Io)
    };

    let mut steps = 0usize;
    let mut order: Vec<usize> = train_idx.to_vec();
    for epoch in 0..cfg.epochs {
        // Shuffle even the epochs a resume skips: the shuffle RNG's stream
        // position must equal the epoch counter for the resumed order to
        // match the uninterrupted run's.
        order.shuffle(&mut shuffle_rng);
        if epoch < start_epoch {
            continue;
        }
        let _epoch_span = sevuldet_trace::span!("train.epoch");
        let mut start = if epoch == start_epoch {
            start_cursor
        } else {
            0
        };
        // A stale cursor beyond this epoch's length would silently skip an
        // epoch's tail; the fingerprint should prevent it, but check anyway.
        if start > order.len() {
            return Err(CheckpointError::Invalid(format!(
                "cursor {start} beyond epoch length {}",
                order.len()
            )));
        }
        while start < order.len() {
            let _batch_span = sevuldet_trace::span!("train.batch");
            let end = (start + cfg.batch).min(order.len());
            // (position in epoch order, corpus index) — the position keys
            // the sample's RNG and fixes its slot in the gradient merge.
            let batch: Vec<(usize, usize)> = (start..end).map(|pos| (pos, order[pos])).collect();
            // With one job the trainer's own model is the "replica": per-
            // sample gradients are extracted by `take_grads` before the
            // merge, so using it directly (no clone) leaves the math — and
            // the bits — unchanged while keeping its scratch buffers warm.
            let grads =
                parallel_map_with_state(&batch, cfg.jobs, model, |replica, _, &(pos, i)| {
                    let mut rng = StdRng::seed_from_u64(sample_seed(cfg.seed, epoch, pos));
                    let label = if corpus.items[i].label { 1.0 } else { 0.0 };
                    let logit = replica.forward_logit(&encoded.ids[i], &mut rng);
                    let (_, dlogit) = bce_with_logits_weighted(logit, label, pos_weight);
                    replica.backward(dlogit / cfg.batch as f64);
                    replica.take_grads()
                });
            // Fixed-order reduction: position 0's gradients first, always.
            for g in &grads {
                model.add_grads(g);
            }
            opt.step(&mut model.params_mut());
            start = end;
            steps += 1;
            // The kill point sits *before* the checkpoint save: dying here
            // loses this batch's snapshot and the resumed run must replay
            // it from the previous checkpoint — the harder invariant.
            faults::hit("batch_boundary");
            if let Some(spec) = spec {
                if spec.every > 0 && steps.is_multiple_of(spec.every) && start < order.len() {
                    let _t = sevuldet_trace::span!("train.checkpoint");
                    save_ckpt(model, &opt, epoch, start)?;
                }
            }
        }
        faults::hit("epoch_boundary");
        // Epoch-end checkpoint: next run starts the following epoch clean.
        if epoch + 1 < cfg.epochs && spec.is_some() {
            let _t = sevuldet_trace::span!("train.checkpoint");
            save_ckpt(model, &opt, epoch + 1, 0)?;
        }
    }
    Ok(())
}

/// Evaluates a model on the items selected by `test_idx`, thresholding the
/// sigmoid output at `cfg.threshold` (paper: 0.8). Inference is sharded
/// across `cfg.jobs` threads, one batched
/// [`SequenceClassifier::infer_logits`] call per shard; the confusion
/// matrix is independent of the thread count (inference reads no
/// randomness, and verdicts are merged in test order).
pub fn evaluate_model<M>(
    model: &mut M,
    corpus: &GadgetCorpus,
    encoded: &Encoded,
    test_idx: &[usize],
    cfg: &TrainConfig,
) -> Confusion
where
    M: SequenceClassifier + Clone + Send + Sync,
{
    let _t = sevuldet_trace::span!("train.eval");
    let z = cfg.logit_threshold();
    let logits = infer_sharded(
        model,
        test_idx.len(),
        cfg.jobs,
        |pos| encoded.ids[test_idx[pos]].clone(),
        M::infer_logits,
    );
    let mut confusion = Confusion::default();
    for (logit, &i) in logits.iter().zip(test_idx) {
        confusion.record(*logit > z, corpus.items[i].label);
    }
    confusion
}

/// Splits indices into stratified train/test partitions (preserving the
/// vulnerable/clean ratio on both sides).
pub fn stratified_split(
    corpus: &GadgetCorpus,
    idx: &[usize],
    test_fraction: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| corpus.items[i].label)
        .collect();
    let mut neg: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| !corpus.items[i].label)
        .collect();
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for bucket in [pos, neg] {
        let n_test = ((bucket.len() as f64) * test_fraction).round() as usize;
        test.extend(&bucket[..n_test]);
        train.extend(&bucket[n_test..]);
    }
    train.shuffle(&mut rng);
    test.shuffle(&mut rng);
    (train, test)
}

/// Stratified subsampling of a gadget corpus to at most `max` items
/// (label ratio preserved) — the analogue of the paper's "randomly select
/// 30,000 path-sensitive code gadgets" per experiment.
pub fn subsample(corpus: &GadgetCorpus, max: usize, seed: u64) -> GadgetCorpus {
    if corpus.len() <= max {
        return corpus.clone();
    }
    let idx: Vec<usize> = (0..corpus.len()).collect();
    let keep_fraction = max as f64 / corpus.len() as f64;
    let (_, keep) = stratified_split(corpus, &idx, keep_fraction, seed);
    GadgetCorpus {
        items: keep.into_iter().map(|i| corpus.items[i].clone()).collect(),
    }
}

/// k-fold partitions of `idx` (the paper's five-fold cross-validation).
pub fn k_folds(idx: &[usize], k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffled: Vec<usize> = idx.to_vec();
    shuffled.shuffle(&mut rng);
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let test: Vec<usize> = shuffled
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % k == f)
            .map(|(_, v)| v)
            .collect();
        let train: Vec<usize> = shuffled
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % k != f)
            .map(|(_, v)| v)
            .collect();
        folds.push((train, test));
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{encode, GadgetItem};
    use crate::zoo::{build_model, ModelKind};
    use std::path::PathBuf;

    use sevuldet_dataset::Origin;
    use sevuldet_gadget::Category;

    fn fake_corpus(n: usize) -> GadgetCorpus {
        let items = (0..n)
            .map(|i| GadgetItem {
                tokens: vec!["x".into()],
                label: i % 3 == 0,
                category: Category::Fc,
                program_id: format!("p{i}"),
                key_line: 1,
                origin: Origin::SardSim,
            })
            .collect();
        GadgetCorpus { items }
    }

    fn varied_corpus(n: usize) -> GadgetCorpus {
        let words = ["strcpy", "memcpy", "buf", "len", "if", "call"];
        let items = (0..n)
            .map(|i| GadgetItem {
                tokens: (0..4 + i % 5)
                    .map(|j| words[(i * 3 + j) % words.len()].to_string())
                    .collect(),
                label: i % 3 == 0,
                category: Category::Fc,
                program_id: format!("p{i}"),
                key_line: 1,
                origin: Origin::SardSim,
            })
            .collect();
        GadgetCorpus { items }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("svd-train-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn params_text<M: SequenceClassifier>(model: &mut M) -> String {
        let params: Vec<&sevuldet_nn::Param> =
            model.params_mut().into_iter().map(|p| &*p).collect();
        save_params(&params)
    }

    /// Resuming from a checkpoint — mid-epoch or at an epoch boundary, at
    /// any `jobs` — finishes with parameters bit-identical to the
    /// uninterrupted run. A full checkpointed run conveniently leaves its
    /// *last* snapshot on disk (the final batch is never followed by a
    /// save), which is exactly the state a killed run would resume from.
    #[test]
    fn checkpointed_resume_is_bit_identical() {
        let corpus = varied_corpus(24);
        let cfg = TrainConfig {
            embed_dim: 8,
            w2v_epochs: 1,
            epochs: 3,
            batch: 4,
            cnn_channels: 6,
            rnn_hidden: 6,
            rnn_steps: 20,
            ..TrainConfig::quick()
        };
        let encoded = encode(&corpus, &cfg);
        let idx: Vec<usize> = (0..corpus.len()).collect();

        let mut reference = build_model(ModelKind::SevulDet, encoded.table.clone(), &cfg);
        train_model(&mut reference, &corpus, &encoded, &idx, &cfg);
        let want = params_text(&mut reference);

        // `every` 1 leaves a mid-epoch snapshot; 0 leaves an epoch-boundary
        // one. Resume each at a different jobs count than it was written at.
        for (every, resume_jobs) in [(1usize, 2usize), (0, 1)] {
            let spec = CheckpointSpec {
                dir: tmpdir(&format!("resume-{every}")),
                every,
                resume: true,
            };
            let mut first = build_model(ModelKind::SevulDet, encoded.table.clone(), &cfg);
            train_model_checkpointed(&mut first, &corpus, &encoded, &idx, &cfg, Some(&spec))
                .unwrap();
            assert_eq!(params_text(&mut first), want, "checkpointing changed math");
            let ckpt = checkpoint::load(&spec.path()).unwrap();
            assert!(
                ckpt.epoch < cfg.epochs,
                "a resumable snapshot must precede the end"
            );

            let cfg2 = TrainConfig {
                jobs: resume_jobs,
                ..cfg.clone()
            };
            let mut resumed = build_model(ModelKind::SevulDet, encoded.table.clone(), &cfg2);
            train_model_checkpointed(&mut resumed, &corpus, &encoded, &idx, &cfg2, Some(&spec))
                .unwrap();
            assert_eq!(
                params_text(&mut resumed),
                want,
                "resume from (epoch {}, cursor {}) at jobs {resume_jobs} diverged",
                ckpt.epoch,
                ckpt.cursor
            );
            std::fs::remove_dir_all(&spec.dir).ok();
        }
    }

    /// A checkpoint from a run with different arguments is rejected, not
    /// silently resumed into a diverged model.
    #[test]
    fn resume_with_changed_args_is_rejected() {
        let corpus = varied_corpus(12);
        let cfg = TrainConfig {
            embed_dim: 8,
            w2v_epochs: 1,
            epochs: 2,
            batch: 4,
            cnn_channels: 6,
            rnn_hidden: 6,
            rnn_steps: 20,
            ..TrainConfig::quick()
        };
        let encoded = encode(&corpus, &cfg);
        let idx: Vec<usize> = (0..corpus.len()).collect();
        let spec = CheckpointSpec {
            dir: tmpdir("mismatch"),
            every: 1,
            resume: true,
        };
        let mut m = build_model(ModelKind::SevulDet, encoded.table.clone(), &cfg);
        train_model_checkpointed(&mut m, &corpus, &encoded, &idx, &cfg, Some(&spec)).unwrap();

        let cfg2 = TrainConfig {
            seed: cfg.seed ^ 7,
            ..cfg.clone()
        };
        let mut m2 = build_model(ModelKind::SevulDet, encoded.table.clone(), &cfg2);
        let err = train_model_checkpointed(&mut m2, &corpus, &encoded, &idx, &cfg2, Some(&spec))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        std::fs::remove_dir_all(&spec.dir).ok();
    }

    #[test]
    fn k_folds_partition_exactly() {
        let idx: Vec<usize> = (0..97).collect();
        let folds = k_folds(&idx, 5, 3);
        assert_eq!(folds.len(), 5);
        let mut seen = Vec::new();
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 97);
            for t in test {
                assert!(!train.contains(t));
            }
            seen.extend(test.iter().copied());
        }
        seen.sort_unstable();
        assert_eq!(seen, idx, "every index tested exactly once");
    }

    #[test]
    fn stratified_split_preserves_ratio() {
        let corpus = fake_corpus(300);
        let idx: Vec<usize> = (0..300).collect();
        let (train, test) = stratified_split(&corpus, &idx, 0.2, 9);
        assert_eq!(train.len() + test.len(), 300);
        let ratio = |v: &[usize]| {
            v.iter().filter(|&&i| corpus.items[i].label).count() as f64 / v.len() as f64
        };
        assert!((ratio(&train) - ratio(&test)).abs() < 0.05);
    }
}
