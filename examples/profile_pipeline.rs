//! Profile the full pipeline as a library embedder: enable span recording,
//! train a tiny detector, scan a source, then render the same per-stage
//! table and Chrome trace the CLI's `--profile` / `--trace-out` flags
//! produce. Recording changes no output bytes — the scan report here is
//! identical to an untraced run.
//!
//! Run with: `cargo run --example profile_pipeline`

use sevuldet::{score_source, Detector, GadgetSpec, ModelKind, TrainConfig};
use sevuldet_dataset::{sard, SardConfig};

fn main() {
    sevuldet::trace::set_recording(true);

    // Train a deliberately tiny detector; every stage underneath — parsing,
    // PDG analysis, Algorithm-1 slicing, word2vec, per-layer forward and
    // backward — emits spans into the recording.
    let samples = sard::generate(&SardConfig {
        per_category: 5,
        ..SardConfig::default()
    });
    let corpus = GadgetSpec::path_sensitive().extract(&samples);
    let cfg = TrainConfig {
        embed_dim: 10,
        w2v_epochs: 1,
        epochs: 2,
        cnn_channels: 8,
        ..TrainConfig::quick()
    };
    let mut det = Detector::train(&corpus, ModelKind::SevulDet, &cfg);

    let report = score_source(
        &mut det,
        r#"void process(char *dest, char *data) {
            int n = atoi(data);
            strncpy(dest, data, n);
        }"#,
        1,
    )
    .expect("scans");
    println!("scan: {}\n", report.to_json("example.c"));

    // The CLI's `--profile` table ...
    let trace = sevuldet::trace::take();
    sevuldet::trace::set_recording(false);
    print!("{}", trace.profile_table());

    // ... and the `--trace-out` Perfetto file, from the same recording.
    let out = std::env::temp_dir().join("profile_pipeline_trace.json");
    std::fs::write(&out, trace.chrome_json()).expect("write trace");
    println!(
        "\nwrote {} spans to {} (open in chrome://tracing or ui.perfetto.dev)",
        trace.spans.len(),
        out.display()
    );
}
