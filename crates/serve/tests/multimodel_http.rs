//! TCP-level integration suite for the multi-model plane: named registry
//! slots, per-request selection, weighted A/B splits, ensemble voting, the
//! explainability API, and scoped hot reloads.
//!
//! The acceptance criteria pinned down here:
//! * an unknown `model` name answers a typed 404 listing the available
//!   models;
//! * `{"model": "bgru", "explain": true}` returns that model's score plus
//!   a per-token relevance heatmap;
//! * a 90/10 split routes deterministically by source digest (the test
//!   recomputes the pick from the digest and the responses agree);
//! * an ensemble of models returns per-member scores and a vote, and its
//!   response is byte-stable across `workers` settings;
//! * a scoped `/reload` of a corrupt candidate fails that slot alone —
//!   the other model reloads and serves untouched;
//! * `explain` on the f32 tier matches the f64 reference heatmap
//!   instead of coming back silently empty, and a model with no attention
//!   reports `explain_unavailable`.

#![cfg(target_os = "linux")]

mod support;

use sevuldet::{sha256_hex, Json, ModelKind};
use sevuldet_serve::registry::MultiRegistry;
use sevuldet_serve::server::{start, ServeConfig, ServerHandle};
use std::path::PathBuf;
use support::{model_text_of, request, temp_dir, test_config, LEAKY};

/// Model file text per architecture; `SevulDetFixed` stands for a second
/// CNN with different weights.
fn model_text(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::SevulDetFixed => model_text_of(ModelKind::SevulDet, 7),
        kind => model_text_of(kind, 42),
    }
}

/// Writes the given models into a fresh per-test temp dir, returning
/// `(dir, [(name, path)])`.
fn write_models(tag: &str, models: &[(&str, ModelKind)]) -> (PathBuf, Vec<(String, PathBuf)>) {
    let dir = temp_dir(tag);
    let specs = models
        .iter()
        .map(|(name, kind)| {
            let path = dir.join(format!("{name}.svd"));
            std::fs::write(&path, model_text(*kind)).expect("write model");
            (name.to_string(), path)
        })
        .collect();
    (dir, specs)
}

fn serve_multi(
    tag: &str,
    models: &[(&str, ModelKind)],
    cfg: ServeConfig,
) -> (ServerHandle, PathBuf) {
    let (dir, specs) = write_models(tag, models);
    let registry = MultiRegistry::open(&specs, sevuldet::Precision::F64).expect("models load");
    let handle = start(cfg, registry).expect("server binds");
    (handle, dir)
}

fn scan_body(source: &str, extra: &str) -> String {
    let src = Json::str(source).to_string();
    format!("{{\"name\": \"t.c\", \"source\": {src}{extra}}}")
}

#[test]
fn unknown_model_name_is_a_typed_404() {
    let (handle, dir) = serve_multi(
        "unknown",
        &[("champion", ModelKind::SevulDet), ("bgru", ModelKind::Bgru)],
        test_config(),
    );
    let (status, body) = request(
        handle.addr(),
        "POST",
        "/scan",
        &scan_body(LEAKY, ", \"model\": \"ghost\""),
        "",
    );
    assert_eq!(status, 404, "body: {body}");
    let doc = Json::parse(&body).expect("json 404 body");
    assert_eq!(doc.get("model").and_then(Json::as_str), Some("ghost"));
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .is_some_and(|e| e.contains("unknown model")));
    let available: Vec<&str> = doc
        .get("available")
        .and_then(Json::as_array)
        .expect("available list")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(available, vec!["champion", "bgru"]);
    // An unknown ensemble member 404s the same way, naming the member.
    let (status, body) = request(
        handle.addr(),
        "POST",
        "/scan",
        &scan_body(LEAKY, ", \"model\": \"ensemble:champion,ghost\""),
        "",
    );
    assert_eq!(status, 404);
    let doc = Json::parse(&body).expect("json 404 body");
    assert_eq!(doc.get("model").and_then(Json::as_str), Some("ghost"));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Pulls the first finding out of a scan report body.
fn first_finding(body: &str) -> Json {
    let doc = Json::parse(body).expect("report json");
    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .expect("findings array");
    assert!(!findings.is_empty(), "no findings in: {body}");
    findings[0].clone()
}

#[test]
fn named_model_scan_with_explain_returns_heatmap() {
    let (handle, dir) = serve_multi(
        "explain",
        &[("cnn", ModelKind::SevulDet), ("bgru", ModelKind::Bgru)],
        test_config(),
    );
    let (status, body) = request(
        handle.addr(),
        "POST",
        "/scan",
        &scan_body(LEAKY, ", \"model\": \"bgru\", \"explain\": true"),
        "",
    );
    assert_eq!(status, 200, "body: {body}");
    let doc = Json::parse(&body).expect("report json");
    assert_eq!(doc.get("model").and_then(Json::as_str), Some("bgru"));
    let finding = first_finding(&body);
    assert!(finding.get("score").and_then(Json::as_f64).is_some());
    let explain = finding.get("explain").expect("explain object");
    assert_eq!(explain.get("status").and_then(Json::as_str), Some("ok"));
    let tokens = explain
        .get("tokens")
        .and_then(Json::as_array)
        .expect("token heatmap");
    assert!(!tokens.is_empty());
    for t in tokens {
        assert!(t.get("token").and_then(Json::as_str).is_some());
        assert!(t.get("position").and_then(Json::as_f64).is_some());
        let pct = t.get("percent").and_then(Json::as_f64).expect("percent");
        assert!((0.0..=100.0).contains(&pct));
    }
    assert_eq!(
        tokens[0].get("percent").and_then(Json::as_f64),
        Some(100.0),
        "heatmap is normalized to its top token"
    );

    // Off by default: the same scan without the flag has no explain key,
    // and no model key when the model is not named — byte-stability with
    // the single-model era.
    let (status, body) = request(handle.addr(), "POST", "/scan", &scan_body(LEAKY, ""), "");
    assert_eq!(status, 200);
    assert!(!body.contains("\"explain\""), "body: {body}");
    assert!(!body.contains("\"model\""), "body: {body}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn split_routes_deterministically_by_source_digest() {
    let (dir, specs) = write_models(
        "split",
        &[
            ("champion", ModelKind::SevulDet),
            ("challenger", ModelKind::SevulDetFixed),
        ],
    );
    let mut registry = MultiRegistry::open(&specs, sevuldet::Precision::F64).expect("models load");
    registry
        .set_split(&[("champion".to_string(), 90), ("challenger".to_string(), 10)])
        .expect("valid split");
    let handle = start(test_config(), registry).expect("server binds");

    // The pick is pinned to the source digest: recompute it here exactly as
    // the registry does and require every response to carry that label.
    let expected = |source: &str| -> &'static str {
        let digest = sha256_hex(source.as_bytes());
        let point = u64::from_str_radix(&digest[..16], 16).unwrap();
        if point % 100 < 90 {
            "champion"
        } else {
            "challenger"
        }
    };
    let sources: Vec<String> = (0..12)
        .map(|i| format!("void f{i}(char *p, char *q) {{ strcpy(p, q); }}"))
        .collect();
    let mut seen_challenger = false;
    for source in &sources {
        let want = expected(source);
        seen_challenger |= want == "challenger";
        for _ in 0..2 {
            let (status, body) =
                request(handle.addr(), "POST", "/scan", &scan_body(source, ""), "");
            assert_eq!(status, 200, "body: {body}");
            let doc = Json::parse(&body).expect("report json");
            assert_eq!(
                doc.get("model").and_then(Json::as_str),
                Some(want),
                "source {source:?} must always route to {want}"
            );
        }
    }
    // 12 fixed sources are enough for the 10% arm to appear at least once
    // (sources were not chosen adversarially; this guards the weights).
    assert!(seen_challenger, "challenger never picked — split inert?");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ensemble_returns_member_scores_and_is_byte_stable_across_workers() {
    let models: &[(&str, ModelKind)] = &[
        ("a", ModelKind::SevulDet),
        ("b", ModelKind::SevulDetFixed),
        ("c", ModelKind::Bgru),
    ];
    let body_at_workers = |workers: usize| {
        let cfg = ServeConfig {
            workers,
            ..test_config()
        };
        let (handle, dir) = serve_multi("ensemble", models, cfg);
        let (status, body) = request(
            handle.addr(),
            "POST",
            "/scan",
            &scan_body(LEAKY, ", \"model\": \"ensemble:a,b,c\""),
            "",
        );
        assert_eq!(status, 200, "body: {body}");
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        body
    };
    let body = body_at_workers(1);
    let doc = Json::parse(&body).expect("report json");
    assert_eq!(
        doc.get("model").and_then(Json::as_str),
        Some("ensemble:a,b,c")
    );
    let finding = first_finding(&body);
    let members = finding
        .get("members")
        .and_then(Json::as_array)
        .expect("members array");
    assert_eq!(members.len(), 3);
    let names: Vec<&str> = members
        .iter()
        .filter_map(|m| m.get("model").and_then(Json::as_str))
        .collect();
    assert_eq!(names, vec!["a", "b", "c"]);
    let mut scores = Vec::new();
    let mut votes = 0;
    for m in members {
        scores.push(m.get("score").and_then(Json::as_f64).expect("member score"));
        if m.get("flagged")
            .and_then(Json::as_bool)
            .expect("member vote")
        {
            votes += 1;
        }
    }
    // The ensemble score is the member mean; the vote is a strict majority.
    let score = finding.get("score").and_then(Json::as_f64).expect("score");
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    assert!((score - mean).abs() < 1e-12, "score {score} vs mean {mean}");
    assert_eq!(
        finding.get("flagged").and_then(Json::as_bool),
        Some(2 * votes > members.len()),
        "vote must be the strict majority of member flags"
    );
    // Byte-stability: the worker count cannot change the response.
    assert_eq!(
        body,
        body_at_workers(4),
        "ensemble body changed with --workers"
    );
}

#[test]
fn scoped_reload_of_corrupt_candidate_isolates_that_model() {
    let (handle, dir) = serve_multi(
        "scoped-reload",
        &[
            ("champion", ModelKind::SevulDet),
            ("challenger", ModelKind::SevulDetFixed),
        ],
        test_config(),
    );
    // Corrupt only the challenger's file on disk.
    std::fs::write(dir.join("challenger.svd"), "not a model").expect("corrupt file");

    // Scoped reload of the corrupt candidate: 422, and the slot keeps its
    // old model serving.
    let (status, body) = request(
        handle.addr(),
        "POST",
        "/reload",
        "{\"model\": \"challenger\"}",
        "",
    );
    assert_eq!(status, 422, "body: {body}");
    let doc = Json::parse(&body).expect("reload json");
    assert_eq!(doc.get("reloaded").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("model").and_then(Json::as_str), Some("challenger"));
    assert!(doc.get("error").and_then(Json::as_str).is_some());

    // The challenger still scores on its pre-corruption model.
    let (status, _) = request(
        handle.addr(),
        "POST",
        "/scan",
        &scan_body(LEAKY, ", \"model\": \"challenger\""),
        "",
    );
    assert_eq!(status, 200);

    // The champion reloads independently of its broken neighbour.
    let (status, body) = request(
        handle.addr(),
        "POST",
        "/reload",
        "{\"model\": \"champion\"}",
        "",
    );
    assert_eq!(status, 200, "body: {body}");
    let doc = Json::parse(&body).expect("reload json");
    assert_eq!(doc.get("reloaded").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("version").and_then(Json::as_f64), Some(2.0));

    // /healthz reports both slots' versions: champion moved, challenger
    // pinned at its old generation.
    let (status, body) = request(handle.addr(), "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("healthz json");
    let models = doc.get("models").expect("per-model versions");
    assert_eq!(models.get("champion").and_then(Json::as_f64), Some(2.0));
    assert_eq!(models.get("challenger").and_then(Json::as_f64), Some(1.0));

    // A broadcast reload reports each slot's own outcome (champion ok,
    // challenger still corrupt) under 422.
    let (status, body) = request(handle.addr(), "POST", "/reload", "", "");
    assert_eq!(status, 422, "body: {body}");
    let doc = Json::parse(&body).expect("reload json");
    assert_eq!(doc.get("reloaded").and_then(Json::as_bool), Some(false));
    let entries = doc
        .get("models")
        .and_then(Json::as_array)
        .expect("per-model results");
    assert_eq!(entries.len(), 2);
    assert_eq!(
        entries[0].get("reloaded").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        entries[1].get("reloaded").and_then(Json::as_bool),
        Some(false)
    );

    // An unknown scope is the same typed 404 as a scan's.
    let (status, body) = request(
        handle.addr(),
        "POST",
        "/reload",
        "{\"model\": \"ghost\"}",
        "",
    );
    assert_eq!(status, 404);
    assert!(body.contains("unknown model"), "body: {body}");

    // Per-model metrics carry both slots' versions.
    let (status, metrics) = request(handle.addr(), "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("sevuldet_model_version{model=\"champion\"} 3"));
    assert!(metrics.contains("sevuldet_model_version{model=\"challenger\"} 1"));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fast_tier_explain_matches_the_f64_reference_over_http() {
    let explain_tokens_at = |precision: sevuldet::Precision| {
        let (dir, specs) = write_models("fast-explain", &[("m", ModelKind::SevulDet)]);
        let registry = MultiRegistry::open(&specs, precision).expect("models load");
        let handle = start(test_config(), registry).expect("server binds");
        let (status, body) = request(
            handle.addr(),
            "POST",
            "/scan",
            &scan_body(LEAKY, ", \"explain\": true"),
            "",
        );
        assert_eq!(status, 200, "at {precision}: {body}");
        let finding = first_finding(&body);
        let explain = finding.get("explain").expect("explain object").clone();
        assert_eq!(
            explain.get("status").and_then(Json::as_str),
            Some("ok"),
            "fast tier must fall back to the reference path, not go empty"
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        explain.get("tokens").expect("token heatmap").to_string()
    };
    let reference = explain_tokens_at(sevuldet::Precision::F64);
    assert_eq!(
        explain_tokens_at(sevuldet::Precision::F32),
        reference,
        "heatmap at f32 drifted from the f64 reference"
    );
}

#[test]
fn attention_free_model_reports_explain_unavailable() {
    let (handle, dir) = serve_multi(
        "plain-cnn",
        &[("plain", ModelKind::CnnPlain)],
        test_config(),
    );
    let (status, body) = request(
        handle.addr(),
        "POST",
        "/scan",
        &scan_body(LEAKY, ", \"explain\": true"),
        "",
    );
    assert_eq!(status, 200, "body: {body}");
    let finding = first_finding(&body);
    let explain = finding.get("explain").expect("explain object");
    assert_eq!(
        explain.get("status").and_then(Json::as_str),
        Some("explain_unavailable"),
        "a model with no relevance signal must say so, not return an empty heatmap"
    );
    assert_eq!(
        explain
            .get("tokens")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(0)
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
