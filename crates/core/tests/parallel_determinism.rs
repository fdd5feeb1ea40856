//! End-to-end guarantees of the data-parallel engine: at an equal seed,
//! every `jobs` value must produce the *same bytes* — same trained
//! parameters, same saved model, same evaluation — and the degenerate
//! inputs the engine can meet in the wild (empty token streams) must not
//! panic anywhere in the stack.

use sevuldet::{save_detector, Detector, GadgetSpec, ModelKind, TrainConfig};
use sevuldet_dataset::{sard, SardConfig};

fn tiny_cfg(jobs: usize) -> TrainConfig {
    TrainConfig {
        embed_dim: 10,
        w2v_epochs: 1,
        epochs: 3,
        cnn_channels: 8,
        rnn_hidden: 8,
        rnn_steps: 40,
        seed: 42,
        jobs,
        ..TrainConfig::quick()
    }
}

fn tiny_corpus() -> sevuldet::GadgetCorpus {
    let samples = sard::generate(&SardConfig {
        per_category: 8,
        ..SardConfig::default()
    });
    GadgetSpec::path_sensitive().extract(&samples)
}

#[test]
fn saved_models_are_bit_identical_across_job_counts() {
    let corpus = tiny_corpus();
    let mut base = Detector::train(&corpus, ModelKind::SevulDet, &tiny_cfg(1));
    let base_text = save_detector(&mut base);
    for jobs in [2, 4] {
        let mut par = Detector::train(&corpus, ModelKind::SevulDet, &tiny_cfg(jobs));
        let par_text = save_detector(&mut par);
        assert!(
            base_text == par_text,
            "saved model with jobs={jobs} differs from jobs=1"
        );
    }
}

#[test]
fn rnn_training_is_job_count_invariant_too() {
    // The RNN branch of the zoo exercises a different backward path.
    let corpus = tiny_corpus();
    let mut base = Detector::train(&corpus, ModelKind::Bgru, &tiny_cfg(1));
    let mut par = Detector::train(&corpus, ModelKind::Bgru, &tiny_cfg(3));
    assert!(
        save_detector(&mut base) == save_detector(&mut par),
        "BGRU parameters diverged between jobs=1 and jobs=3"
    );
}

#[test]
fn evaluation_is_job_count_invariant() {
    let corpus = tiny_corpus();
    let mut det = Detector::train(&corpus, ModelKind::SevulDet, &tiny_cfg(1));
    let seq = det.evaluate_corpus(&corpus);
    let mut det_par = Detector::train(&corpus, ModelKind::SevulDet, &tiny_cfg(4));
    let par = det_par.evaluate_corpus(&corpus);
    assert_eq!(seq.to_string(), par.to_string());
}

#[test]
fn jobs_zero_means_all_cores_and_stays_deterministic() {
    let corpus = tiny_corpus();
    let mut base = Detector::train(&corpus, ModelKind::SevulDet, &tiny_cfg(1));
    let mut auto = Detector::train(&corpus, ModelKind::SevulDet, &tiny_cfg(0));
    assert!(save_detector(&mut base) == save_detector(&mut auto));
}

#[test]
fn empty_token_stream_predicts_without_panicking() {
    // Regression: Spp::forward used to compute `start.min(l - 1)` and
    // underflow on an empty sequence; the guard must hold end-to-end.
    let corpus = tiny_corpus();
    let mut det = Detector::train(&corpus, ModelKind::SevulDet, &tiny_cfg(1));
    let p = det.predict(&[]);
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let _ = det.is_vulnerable(&[]);
    let batch = det.predict_batch_mut(&[Vec::new(), vec!["if".to_string()]], 2);
    assert_eq!(batch.len(), 2);
    assert!(batch.iter().all(|p| (0.0..=1.0).contains(p)));
}

#[test]
fn loaded_detector_keeps_its_training_threshold() {
    let corpus = tiny_corpus();
    let cfg = TrainConfig {
        threshold: 0.8,
        ..tiny_cfg(1)
    };
    let mut det = Detector::train(&corpus, ModelKind::SevulDet, &cfg);
    let text = save_detector(&mut det);
    let loaded = sevuldet::load_detector(&text).expect("roundtrip");
    assert!(
        (loaded.threshold() - 0.8).abs() < 1e-12,
        "threshold lost in persistence: {}",
        loaded.threshold()
    );
}
