//! Cross-tier acceptance: the f32/SIMD inference tier must agree with the
//! bit-exact f64 reference on the repro corpus — scores within the
//! documented envelope (≤ 1e-3 on sigmoid probabilities), and identical
//! flag decisions on every gadget whose f64 score clears the threshold by
//! more than that envelope (inside that band a flag is, by construction,
//! rounding-sensitive — no reduced-precision tier can promise otherwise).
//! The model makes a save/load round trip first, so the tiers run exactly
//! the way `scan`, `serve`, and the repro harness get them: from a sealed
//! v3 file.

use sevuldet::{
    load_detector, prepare_source, save_detector, score_prepared_mut, Detector, GadgetSpec,
    ModelKind, Precision, PreparedSource, TrainConfig,
};
use sevuldet_dataset::{sard, SardConfig};

/// f32 end-to-end score envelope (see `sevuldet_nn::kernels_f32` docs).
const F32_TOL: f64 = 1e-3;

const LEAKY: &str = r#"void process(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        puts("small");
    }
    strncpy(dest, data, n);
}"#;

const CLEAN: &str = "int three() { return 3; }";

fn trained_round_tripped() -> Detector {
    let samples = sard::generate(&SardConfig {
        per_category: 8,
        ..SardConfig::default()
    });
    let corpus = GadgetSpec::path_sensitive().extract(&samples);
    // Enough epochs to polarize the scores: an undertrained model keeps
    // every probability pinned near the threshold, which would make the
    // flag-identity assertion below vacuous.
    let cfg = TrainConfig {
        embed_dim: 12,
        w2v_epochs: 2,
        epochs: 14,
        cnn_channels: 8,
        ..TrainConfig::quick()
    };
    let mut det = Detector::train(&corpus, ModelKind::SevulDet, &cfg);
    // Load is how every consumer (CLI, server, this test) actually
    // receives the model.
    let text = save_detector(&mut det);
    load_detector(&text).expect("round trip")
}

/// A small scan corpus: the paper's motivating example, a clean source, and
/// a handful of generated SARD samples (fresh seed so they are not the
/// training set).
fn scan_corpus() -> Vec<PreparedSource> {
    let mut sources: Vec<String> = vec![LEAKY.to_string(), CLEAN.to_string()];
    let held_out = sard::generate(&SardConfig {
        per_category: 2,
        seed: 777,
        ..SardConfig::default()
    });
    sources.extend(held_out.iter().take(8).map(|s| s.source.clone()));
    sources
        .iter()
        .map(|s| prepare_source(s, 1).expect("corpus parses"))
        .collect()
}

fn scores_at(det: &mut Detector, prepared: &[PreparedSource], p: Precision) -> Vec<(f64, bool)> {
    det.set_precision(p)
        .unwrap_or_else(|e| panic!("set_precision({p}): {e}"));
    score_prepared_mut(det, prepared, 1)
        .expect("scores")
        .iter()
        .flat_map(|r| r.findings.iter().map(|f| (f.score, f.flagged)))
        .collect()
}

#[test]
fn fast_tiers_match_f64_flags_within_envelope() {
    let mut det = trained_round_tripped();
    let threshold = det.threshold();
    let prepared = scan_corpus();
    let reference = scores_at(&mut det, &prepared, Precision::F64);
    assert!(
        reference.len() >= 4,
        "corpus should yield several gadgets, got {}",
        reference.len()
    );

    let fast = scores_at(&mut det, &prepared, Precision::F32);
    assert_eq!(fast.len(), reference.len());
    let mut max_delta = 0.0f64;
    let mut near_threshold = 0usize;
    for (i, ((ref_score, ref_flag), (score, flag))) in reference.iter().zip(&fast).enumerate() {
        let delta = (ref_score - score).abs();
        max_delta = max_delta.max(delta);
        assert!(
            delta <= F32_TOL,
            "f32 gadget {i}: |{score} - {ref_score}| = {delta} > {F32_TOL}"
        );
        if (ref_score - threshold).abs() > F32_TOL {
            assert_eq!(
                flag, ref_flag,
                "f32 gadget {i} flag flipped (f64 {ref_score}, f32 {score})"
            );
        } else {
            near_threshold += 1;
        }
    }
    // The near-threshold carve-out must stay a carve-out: if a large share
    // of the corpus sits inside the envelope, the flag-identity claim above
    // is vacuous.
    assert!(
        near_threshold * 10 <= reference.len(),
        "f32: {near_threshold}/{} gadgets within {F32_TOL} of threshold",
        reference.len()
    );
    println!(
        "f32: max |Δscore| = {max_delta:.2e}, {near_threshold} near-threshold, {} gadgets",
        fast.len()
    );
}

#[test]
fn switching_back_to_f64_restores_reference_scores() {
    let mut det = trained_round_tripped();
    let prepared = scan_corpus();
    let before = scores_at(&mut det, &prepared, Precision::F64);
    let _ = scores_at(&mut det, &prepared, Precision::F32);
    let after = scores_at(&mut det, &prepared, Precision::F64);
    // f64 is the bit-exact reference tier: a trip through the f32 tier must
    // not perturb it.
    assert_eq!(before, after);
}
