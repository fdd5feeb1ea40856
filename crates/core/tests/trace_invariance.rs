//! Tracing must be a pure observer: turning span recording on changes
//! *nothing* about what the pipeline computes. This suite pins the
//! acceptance criterion byte-for-byte — the saved model text and the scan
//! report JSON are identical with recording off and on — and checks that
//! the traced run actually captured the pipeline (the invariance claim
//! would be vacuous if no spans fired).
//!
//! Everything lives in one `#[test]` because the recording switch is
//! process-global; parallel test threads toggling it would race.

use sevuldet::{save_detector, score_source, Detector, GadgetSpec, ModelKind, TrainConfig};
use sevuldet_dataset::{sard, SardConfig};

const LEAKY: &str = r#"void process(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        puts("small");
    }
    strncpy(dest, data, n);
}"#;

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        embed_dim: 10,
        w2v_epochs: 1,
        epochs: 2,
        cnn_channels: 8,
        seed: 42,
        jobs: 1,
        ..TrainConfig::quick()
    }
}

fn train_and_scan() -> (String, String) {
    let samples = sard::generate(&SardConfig {
        per_category: 6,
        ..SardConfig::default()
    });
    let corpus = GadgetSpec::path_sensitive().extract(&samples);
    let mut det = Detector::train(&corpus, ModelKind::SevulDet, &tiny_cfg());
    let model = save_detector(&mut det);
    let report = score_source(&mut det, LEAKY, 1)
        .expect("scans")
        .to_json("leaky.c")
        .to_string();
    (model, report)
}

#[test]
fn recording_changes_no_output_bytes() {
    // Baseline: recording off (explicitly, in case the environment set it).
    sevuldet::trace::set_recording(false);
    let (model_off, report_off) = train_and_scan();
    assert!(
        sevuldet::trace::take().is_empty(),
        "spans recorded while recording was off"
    );

    // Same work, recording on.
    sevuldet::trace::set_recording(true);
    let (model_on, report_on) = train_and_scan();
    let trace = sevuldet::trace::take();
    sevuldet::trace::set_recording(false);

    assert!(
        model_off == model_on,
        "saved model differs with tracing enabled"
    );
    assert_eq!(report_off, report_on, "scan report differs with tracing");

    // The traced run really did cover the pipeline end to end.
    for stage in [
        "lang.parse",
        "analysis.pdg",
        "gadget.slice",
        "embed.w2v",
        "core.encode",
        "nn.forward",
        "nn.backward",
        "train.epoch",
        "scan.prepare",
        "scan.score",
    ] {
        assert!(
            trace.spans.iter().any(|s| s.name == stage),
            "no `{stage}` span in the traced run"
        );
    }
    assert!(
        trace.counters.iter().any(|c| c.name == "gadgets"),
        "gadget counter missing"
    );
}
