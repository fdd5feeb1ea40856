//! Quickstart: parse a C function, extract its path-sensitive code gadget,
//! train a small SEVulDet detector on a synthetic corpus, and classify the
//! gadget.
//!
//! Run with: `cargo run --example quickstart`

use sevuldet::{Detector, GadgetSpec, ModelKind, TrainConfig};
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_dataset::{sard, SardConfig};
use sevuldet_gadget::{build_gadget, find_special_tokens, GadgetKind, Normalizer, SliceConfig};

fn main() {
    // 1. A suspicious function: the guard exists, but the copy is outside it
    //    (the paper's Fig. 1 vulnerable shape).
    let source = r#"
void handle_packet(char *dest, char *payload) {
    int len = atoi(payload);
    if (len < 64) {
        puts("length ok");
    }
    strncpy(dest, payload, len);
}
"#;
    let program = sevuldet_lang::parse(source).expect("valid mini-C");
    let analysis = ProgramAnalysis::analyze(&program);

    // 2. Find the special tokens (Step I.2) and build the path-sensitive
    //    gadget for the strncpy call (Steps I.3-I.4, Algorithm 1).
    let tokens = find_special_tokens(&program, &analysis);
    let strncpy = tokens
        .iter()
        .find(|t| t.name == "strncpy")
        .expect("strncpy special token");
    let gadget = build_gadget(
        &program,
        &analysis,
        strncpy,
        GadgetKind::PathSensitive,
        &SliceConfig::default(),
    );
    println!("path-sensitive code gadget:\n{gadget}\n");

    // 3. Train a small detector on a synthetic SARD-style corpus.
    let corpus_cfg = SardConfig {
        per_category: 40,
        ..SardConfig::default()
    };
    let samples = sard::generate(&corpus_cfg);
    let spec = GadgetSpec::path_sensitive();
    let corpus = spec.extract(&samples);
    println!(
        "training on {} gadgets ({} vulnerable) ...",
        corpus.len(),
        corpus.vulnerable()
    );
    let cfg = TrainConfig {
        epochs: 10,
        ..TrainConfig::quick()
    };
    let mut detector = Detector::train(&corpus, ModelKind::SevulDet, &cfg);

    // 4. Classify the gadget (Step III normalization first).
    let tokens = Normalizer::normalize_gadget(&gadget).into_tokens();
    let probability = detector.predict(&tokens);
    println!(
        "vulnerability probability: {probability:.3} -> {}",
        if probability > cfg.threshold {
            "FLAWED"
        } else {
            "looks clean"
        }
    );
}
