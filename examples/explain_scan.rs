//! Explainable scanning: score a suspicious source with a trained detector,
//! attach the Fig.-6 per-token relevance heatmap to each finding, and combine
//! two detectors into an ensemble vote — the same three report shapes the
//! HTTP server returns for `{"explain": true}` and `{"model": "ensemble:…"}`
//! (see `docs/API.md`).
//!
//! Run with: `cargo run --example explain_scan`

use sevuldet::{
    attach_explanations, combine_ensemble, prepare_source, score_prepared_mut, Detector,
    GadgetSpec, ModelKind, TrainConfig,
};
use sevuldet_dataset::{sard, SardConfig};

/// Trains a small detector on the synthetic SARD-style corpus. Different
/// seeds give genuinely different models, which is what makes the ensemble
/// vote below interesting.
fn train_small(kind: ModelKind, seed: u64) -> Detector {
    let samples = sard::generate(&SardConfig {
        per_category: 30,
        ..SardConfig::default()
    });
    let corpus = GadgetSpec::path_sensitive().extract(&samples);
    let cfg = TrainConfig {
        epochs: 6,
        seed,
        ..TrainConfig::quick()
    };
    Detector::train(&corpus, kind, &cfg)
}

fn main() {
    // The paper's Fig. 1 vulnerable shape: the length guard exists, but the
    // copy happens outside it.
    let source = r#"
void handle_packet(char *dest, char *payload) {
    int len = atoi(payload);
    if (len < 64) {
        puts("length ok");
    }
    strncpy(dest, payload, len);
}
"#;
    let prepared = vec![prepare_source(source, 1).expect("valid mini-C")];

    // 1. Single model, with explanations. `attach_explanations` ranks each
    //    finding's tokens by attention relevance (percent-of-max; the top
    //    token is always 100.0) and summarizes the CBAM channel/spatial
    //    gates. Architectures without an attention or saliency signal
    //    report a typed `explain_unavailable` instead of an empty heatmap.
    println!("training the champion (SEVulDet CNN) ...");
    let mut champion = train_small(ModelKind::SevulDet, 42);
    let mut report = score_prepared_mut(&mut champion, &prepared, 1)
        .expect("scoring")
        .remove(0);
    attach_explanations(&mut champion, &mut report, &prepared[0]);
    println!("\n--- explained single-model report ---");
    println!("{}", report.to_json("handle_packet.c"));
    for f in &report.findings {
        if let Some(exp) = &f.explain {
            println!(
                "finding at line {}: top tokens {:?}",
                f.line,
                exp.tokens
                    .iter()
                    .map(|t| format!("{} ({:.0}%)", t.token, t.percent))
                    .collect::<Vec<_>>()
            );
        }
    }

    // 2. An ensemble of two models: mean score, strict-majority flag, and
    //    the per-member scores preserved in each finding's `members` array.
    println!("\ntraining the challenger (BGRU) ...");
    let mut challenger = train_small(ModelKind::Bgru, 7);
    let challenger_report = score_prepared_mut(&mut challenger, &prepared, 1)
        .expect("scoring")
        .remove(0);
    let members = vec![
        ("champion".to_string(), report),
        ("challenger".to_string(), challenger_report),
    ];
    let mut combined = combine_ensemble(&members).expect("non-empty ensemble");
    combined.model = Some("ensemble:champion,challenger".to_string());
    println!("\n--- ensemble report ---");
    println!("{}", combined.to_json("handle_packet.c"));
}
