//! Golden pin of the f64 reference tier across code versions: a detector
//! trained at a fixed seed on a fixed corpus must save to the same bytes,
//! and scanning a fixed generated tree with it must print the same
//! `scan --json` document, as when the constants below were captured.
//!
//! The other determinism suites compare runs of the *same* build with each
//! other (`--jobs` values, batching, save/load); this one compares against
//! bytes recorded once, so a kernel rewrite, a forward-pass shortcut or a
//! change in accumulation order that alters a single bit fails here.
//!
//! The constants were captured on x86-64 Linux (glibc `libm`): the network
//! calls `tanh`/`exp`, whose last bit is the platform math library's, so
//! the sha256 comparison runs only there; the training, loading and
//! `--jobs` self-consistency checks run everywhere. Update them only with a
//! change that means to alter f64 results or the saved model format, and
//! say so in its changelog entry. (`MODEL_SHA256` moved once without any
//! f64 change: saves stopped writing the optional `calibration` line of
//! the removed int8 tier; the new value is the old save with that line
//! cut out and the footer resealed.)
//!
//! The f32 tier is pinned the same way, on the same model and tree. Its
//! products run fused multiply-adds on AVX2+FMA machines and separate ones
//! elsewhere, so its constant is compared only where [`simd_level`]
//! reports `avx2+fma`.

use sevuldet::{
    load_detector, prepare_source, save_detector, score_prepared_mut, sha256_hex, simd_level,
    Detector, GadgetSpec, Json, ModelKind, Precision, PreparedSource, TrainConfig,
};
use sevuldet_dataset::{sard, SardConfig};

/// sha256 of `save_detector` for the model trained by [`trained`].
const MODEL_SHA256: &str = "08fe0984534aefd33744eb00b8a48b2aa34fa3d1a0acacf9577e293294b1e538";
/// sha256 of the `scan --json` document of [`scan_tree`].
const SCAN_JSON_SHA256: &str = "66830d15c12f1721a1088f366b2065ba943cc5f7c6def9670f17ca2aa5b76590";
/// sha256 of the `scan --json` document of [`scan_tree`] at `--precision f32`.
const SCAN_JSON_F32_SHA256: &str =
    "cd317cfa899760fc14d564853a8f4fc1c1a63e3d4aaffe823dd055a434ec65bc";

/// A corpus in which half the programs carry the generator's long
/// dependent-filler chain, so the forward pass sees gadgets of several
/// hundred tokens as well as short ones.
fn corpus(per_category: usize, seed: u64) -> Vec<sevuldet_dataset::ProgramSample> {
    sard::generate(&SardConfig {
        per_category,
        long_fraction: 0.5,
        long_filler: 40,
        seed,
        ..SardConfig::default()
    })
}

fn trained() -> Detector {
    let corpus = GadgetSpec::path_sensitive().extract(&corpus(6, 1401));
    let cfg = TrainConfig {
        epochs: 12,
        seed: 14,
        ..TrainConfig::quick()
    };
    Detector::train(&corpus, ModelKind::SevulDet, &cfg)
}

/// The fixed tree: a clean file, a token-free file and held-out generated
/// programs (fresh seed), named as `scan` would print relative paths.
fn scan_tree() -> Vec<(String, PreparedSource)> {
    let mut sources = vec![
        (
            "tree/clean.c".to_string(),
            "int three() { return 3; }".to_string(),
        ),
        ("tree/empty.c".to_string(), String::new()),
    ];
    for (i, s) in corpus(2, 1402).into_iter().enumerate() {
        sources.push((format!("tree/gen{i:02}.c"), s.source));
    }
    sources
        .into_iter()
        .map(|(name, src)| {
            let prepared = prepare_source(&src, 1).expect("generated sources parse");
            (name, prepared)
        })
        .collect()
}

/// The document `sevuldet scan --json` prints for the tree: one array with
/// one report object per file, then a newline.
fn scan_json(det: &mut Detector, tree: &[(String, PreparedSource)], jobs: usize) -> String {
    let prepared: Vec<PreparedSource> = tree.iter().map(|(_, p)| p.clone()).collect();
    let reports = score_prepared_mut(det, &prepared, jobs).expect("tree scores");
    let docs: Vec<Json> = tree
        .iter()
        .zip(&reports)
        .map(|((name, _), r)| r.to_json(name))
        .collect();
    format!("{}\n", Json::Arr(docs))
}

fn glibc_x86_64() -> bool {
    cfg!(all(
        target_os = "linux",
        target_arch = "x86_64",
        target_env = "gnu"
    ))
}

#[test]
fn f64_model_and_scan_json_match_golden_sha256() {
    let mut det = trained();
    let text = save_detector(&mut det);
    let model_sha = sha256_hex(text.as_bytes());

    // Scan with the detector as every consumer receives it: loaded from
    // its saved text, at the f64 tier.
    let mut loaded = load_detector(&text).expect("saved model loads");
    loaded
        .set_precision(Precision::F64)
        .expect("f64 is always available");
    let tree = scan_tree();
    let doc = scan_json(&mut loaded, &tree, 1);
    assert!(
        doc.matches("\"score\"").count() > 20,
        "the tree must produce enough findings to pin: {doc}"
    );
    assert_eq!(
        doc,
        scan_json(&mut loaded, &tree, 2),
        "jobs changed the document"
    );
    let scan_sha = sha256_hex(doc.as_bytes());

    if glibc_x86_64() {
        assert_eq!(
            (model_sha.as_str(), scan_sha.as_str()),
            (MODEL_SHA256, SCAN_JSON_SHA256),
            "f64 bytes changed: (model, scan --json) sha256"
        );
    }
}

#[test]
fn fast_tier_scan_json_match_golden_sha256() {
    let text = save_detector(&mut trained());
    let tree = scan_tree();
    let mut loaded = load_detector(&text).expect("saved model loads");
    loaded
        .set_precision(Precision::F32)
        .expect("a saved CNN runs at f32");
    let doc = scan_json(&mut loaded, &tree, 1);
    assert!(
        doc.matches("\"score\"").count() > 20,
        "the tree must produce enough findings to pin at f32: {doc}"
    );
    assert_eq!(
        doc,
        scan_json(&mut loaded, &tree, 2),
        "jobs changed the f32 document"
    );
    if glibc_x86_64() && simd_level() == "avx2+fma" {
        assert_eq!(
            sha256_hex(doc.as_bytes()),
            SCAN_JSON_F32_SHA256,
            "f32 bytes changed: scan --json sha256"
        );
    }
}
