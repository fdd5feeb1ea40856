//! Scanning raw C source with a trained detector, as a library.
//!
//! This is the single implementation behind both `sevuldet scan` and the
//! `sevuldet serve` HTTP endpoint, so the two can never drift: the CLI and
//! the server both call [`score_source`] (or its split form,
//! [`prepare_source`] + [`score_prepared_mut`], which lets a batching server
//! coalesce the gadget streams of *many* requests into one forward pass).
//!
//! The phases mirror the detection half of the paper's Fig. 2: parse →
//! program analysis → special tokens → path-sensitive gadgets → normalize →
//! encode → SPP-CNN forward → threshold.
//!
//! The model-free half runs standalone — useful for inspecting what the
//! detector would actually look at:
//!
//! ```
//! let src = r#"
//! void copy(char *dest, char *data) {
//!     int n = atoi(data);
//!     strncpy(dest, data, n);
//! }"#;
//! let prepared = sevuldet::prepare_source(src, 1).expect("parses");
//! // `strncpy` is a function-call (FC) special token, so at least one
//! // gadget comes back, carrying its normalized token stream.
//! assert!(!prepared.gadgets.is_empty());
//! let g = prepared
//!     .gadgets
//!     .iter()
//!     .find(|g| g.name == "strncpy")
//!     .expect("strncpy gadget");
//! assert_eq!(g.category, "FC");
//! assert!(g.tokens.iter().any(|t| t == "strncpy"));
//! // Unparseable input is a typed error, not a silent empty result.
//! assert!(sevuldet::prepare_source("int }{", 1).is_err());
//! ```

use crate::explain::{explain_tokens, Explanation, GateSummary};
use crate::json::Json;
use crate::par::parallel_map;
use crate::pipeline::{Detector, GadgetSpec};
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_gadget::{assemble, find_special_tokens, two_way_slice, Normalizer, SpecialToken};

/// Why a source could not be scanned at all (as opposed to scanning clean).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanError {
    /// The source did not parse as mini-C.
    Parse(String),
    /// The scoring backend broke an internal invariant (e.g. returned a
    /// mismatched score count). A bug report, not a property of the input —
    /// callers should surface it as an internal error, not reject the
    /// request.
    Internal(String),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Parse(msg) => write!(f, "parse error: {msg}"),
            ScanError::Internal(msg) => write!(f, "internal scan error: {msg}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// One gadget extracted from a source, ready to be scored: where it came
/// from plus its normalized token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedGadget {
    /// 1-based source line of the special token.
    pub line: u32,
    /// Special-token category abbreviation (FC/AU/PU/AE).
    pub category: &'static str,
    /// The special token itself (callee, array, pointer, or variable name).
    pub name: String,
    /// The normalized gadget token stream the model consumes.
    pub tokens: Vec<String>,
}

/// A parsed-and-sliced source: everything that can be computed without the
/// model. Produced by [`prepare_source`], consumed by [`score_prepared_mut`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreparedSource {
    /// One entry per special token, in source order.
    pub gadgets: Vec<PreparedGadget>,
}

/// How a gadget's score came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingStatus {
    /// The model produced a finite probability; `flagged` is meaningful.
    Scored,
    /// The model produced a non-finite score (NaN/±∞ — more reachable on
    /// the f32 tier). Reported as a per-gadget error, never as
    /// "clean": `flagged` is forced `false` and the JSON score is `null`.
    InvalidScore,
}

impl FindingStatus {
    /// The JSON spelling of the status.
    pub fn as_str(&self) -> &'static str {
        match self {
            FindingStatus::Scored => "scored",
            FindingStatus::InvalidScore => "invalid_score",
        }
    }
}

/// One ensemble member's verdict on a gadget (inside
/// [`Finding::members`] after [`combine_ensemble`]).
#[derive(Debug, Clone)]
pub struct MemberScore {
    /// The member model's registry name.
    pub model: String,
    /// That model's sigmoid probability (NaN when invalid).
    pub score: f64,
    /// That model's verdict at its own threshold.
    pub flagged: bool,
    /// Whether that model's score is trustworthy.
    pub status: FindingStatus,
}

/// One scored gadget in a [`ScanReport`].
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based source line of the special token.
    pub line: u32,
    /// Special-token category abbreviation (FC/AU/PU/AE).
    pub category: &'static str,
    /// The special token's name.
    pub name: String,
    /// Sigmoid probability the gadget is vulnerable (NaN when
    /// `status == InvalidScore`).
    pub score: f64,
    /// `score > threshold` — always `false` for an invalid score.
    pub flagged: bool,
    /// Whether the score is trustworthy.
    pub status: FindingStatus,
    /// Per-member verdicts, non-empty only for ensemble reports. Serialized
    /// as a `members` array when present; plain scans omit the key, so the
    /// single-model JSON is byte-identical to previous releases.
    pub members: Vec<MemberScore>,
    /// Fig. 6 explanation, attached only when the caller asked for one
    /// ([`attach_explanations`]). Serialized as an `explain` object when
    /// present; omitted otherwise.
    pub explain: Option<Explanation>,
}

/// The result of scanning one source. An empty `findings` list with
/// `gadgets == 0` means the source scanned *clean* (no special tokens) —
/// distinct from a [`ScanError`], which means it was not scanned at all.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Per-gadget verdicts, in source order.
    pub findings: Vec<Finding>,
    /// The decision threshold the scores were cut at.
    pub threshold: f64,
    /// Which registry model produced the report, when the caller selected
    /// one by name (or via a split/ensemble). `None` — the default for
    /// anonymous single-model scans — omits the key from the JSON, keeping
    /// those responses byte-identical to previous releases.
    pub model: Option<String>,
}

impl ScanReport {
    /// Number of gadgets scored.
    pub fn gadgets(&self) -> usize {
        self.findings.len()
    }

    /// Number of findings over the threshold.
    pub fn flagged(&self) -> usize {
        self.findings.iter().filter(|f| f.flagged).count()
    }

    /// Number of findings whose score came back non-finite.
    pub fn invalid(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.status == FindingStatus::InvalidScore)
            .count()
    }

    /// The report as a JSON tree. `name` labels the source (file path or
    /// request name); the shape is the serving API's response schema:
    ///
    /// ```json
    /// {"name":"x.c","status":"scanned","gadgets":2,"flagged":1,"invalid":0,
    ///  "threshold":0.8,
    ///  "findings":[{"line":3,"category":"FC","name":"strcpy",
    ///               "score":0.93,"flagged":true,"status":"scored"}]}
    /// ```
    ///
    /// A finding with a non-finite score serializes `"score":null` and
    /// `"status":"invalid_score"` — JSON has no NaN, and a silent `false`
    /// flag would misreport the gadget as clean.
    ///
    /// The `model`, per-finding `members`, and per-finding `explain` keys
    /// appear only when the corresponding report fields are populated, so a
    /// plain single-model scan serializes byte-identically to previous
    /// releases.
    pub fn to_json(&self, name: &str) -> Json {
        let mut top = vec![("name", Json::str(name)), ("status", Json::str("scanned"))];
        if let Some(model) = &self.model {
            top.push(("model", Json::str(&**model)));
        }
        top.push(("gadgets", Json::Num(self.gadgets() as f64)));
        top.push(("flagged", Json::Num(self.flagged() as f64)));
        top.push(("invalid", Json::Num(self.invalid() as f64)));
        top.push(("threshold", Json::Num(self.threshold)));
        top.push((
            "findings",
            Json::Arr(self.findings.iter().map(finding_json).collect()),
        ));
        Json::obj(top)
    }
}

fn score_json(score: f64, status: FindingStatus) -> Json {
    if status == FindingStatus::Scored {
        Json::Num(score)
    } else {
        Json::Null
    }
}

fn finding_json(f: &Finding) -> Json {
    let mut obj = vec![
        ("line", Json::Num(f.line as f64)),
        ("category", Json::str(f.category)),
        ("name", Json::str(&*f.name)),
        ("score", score_json(f.score, f.status)),
        ("flagged", Json::Bool(f.flagged)),
        ("status", Json::str(f.status.as_str())),
    ];
    if !f.members.is_empty() {
        obj.push((
            "members",
            Json::Arr(
                f.members
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("model", Json::str(&*m.model)),
                            ("score", score_json(m.score, m.status)),
                            ("flagged", Json::Bool(m.flagged)),
                            ("status", Json::str(m.status.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if let Some(exp) = &f.explain {
        obj.push(("explain", explain_json(exp)));
    }
    Json::obj(obj)
}

fn gate_summary_json(g: &GateSummary) -> Json {
    Json::obj(vec![
        ("len", Json::Num(g.len as f64)),
        ("mean", Json::Num(g.mean)),
        ("max", Json::Num(g.max)),
        ("argmax", Json::Num(g.argmax as f64)),
    ])
}

fn explain_json(exp: &Explanation) -> Json {
    let mut obj = vec![
        ("status", Json::str(exp.status.label())),
        (
            "tokens",
            Json::Arr(
                exp.tokens
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("token", Json::str(&*t.token)),
                            ("position", Json::Num(t.position as f64)),
                            ("percent", Json::Num(t.percent)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(cbam) = &exp.cbam {
        obj.push((
            "cbam",
            Json::obj(vec![
                ("channel", gate_summary_json(&cbam.channel)),
                ("spatial", gate_summary_json(&cbam.spatial)),
            ]),
        ));
    }
    Json::obj(obj)
}

/// The JSON shape for a source that could *not* be scanned, so callers can
/// distinguish "clean" (`status: "scanned"`, empty findings) from "error".
pub fn error_json(name: &str, error: &ScanError) -> Json {
    Json::obj(vec![
        ("name", Json::str(name)),
        ("status", Json::str("error")),
        ("error", Json::str(error.to_string())),
    ])
}

/// Parses and slices a source into scoreable gadget streams, extracting
/// path-sensitive gadgets across up to `jobs` threads. Model-free; the
/// companion [`score_prepared_mut`] runs the network.
///
/// # Errors
///
/// [`ScanError::Parse`] when the source is not valid mini-C.
pub fn prepare_source(source: &str, jobs: usize) -> Result<PreparedSource, ScanError> {
    let _t = sevuldet_trace::span!("scan.prepare");
    let program = sevuldet_lang::parse(source).map_err(|e| ScanError::Parse(e.to_string()))?;
    let analysis = ProgramAnalysis::analyze(&program);
    let specials = find_special_tokens(&program, &analysis);
    let spec = GadgetSpec::path_sensitive();
    let gadgets = parallel_map(&specials, jobs, |_, st| {
        prepare_gadget(&analysis, st, &spec)
    });
    sevuldet_trace::counter("scan.gadgets", gadgets.len() as f64);
    Ok(PreparedSource { gadgets })
}

/// Steps I.3–III for one special token: slice, Algorithm-1 assembly and
/// normalization, straight from the analysis's borrowed tokens into the
/// gadget's token stream.
fn prepare_gadget(
    analysis: &ProgramAnalysis,
    st: &SpecialToken,
    spec: &GadgetSpec,
) -> PreparedGadget {
    let slice = two_way_slice(analysis, &st.func, st.node, &spec.slice_config());
    let view = assemble(analysis, st, spec.kind, &slice);
    PreparedGadget {
        line: st.line,
        category: st.category.abbrev(),
        name: st.name.clone(),
        tokens: Normalizer::normalize_view(&view),
    }
}

/// Scores a batch of prepared sources in **one** batched forward pass: the
/// gadget streams of every source are concatenated, pushed through
/// [`Detector::predict_batch_mut`] together (sharded across `jobs` threads
/// by `par`; at one job on the detector's own warm network), and split back
/// per source. Reports are in input order and identical for every `jobs`
/// value and every way of batching the same sources — the invariant the
/// serving layer's determinism test pins down.
///
/// # Errors
///
/// [`ScanError::Internal`] when the model returns a score count that does
/// not match the gadget count — an invariant violation surfaced as a clean
/// error instead of a panic.
pub fn score_prepared_mut(
    detector: &mut Detector,
    prepared: &[PreparedSource],
    jobs: usize,
) -> Result<Vec<ScanReport>, ScanError> {
    let _t = sevuldet_trace::span!("scan.score");
    let streams = gadget_streams(prepared);
    let scores = detector.predict_batch_mut(&streams, jobs);
    assemble_reports(prepared, scores, detector.threshold())
}

/// The gadget token streams of every prepared source, in order, borrowed.
fn gadget_streams(prepared: &[PreparedSource]) -> Vec<&[String]> {
    prepared
        .iter()
        .flat_map(|p| p.gadgets.iter().map(|g| g.tokens.as_slice()))
        .collect()
}

/// Splits a flat score vector back into per-source reports (the inverse of
/// [`gadget_streams`]'s concatenation).
fn assemble_reports(
    prepared: &[PreparedSource],
    scores: Vec<f64>,
    threshold: f64,
) -> Result<Vec<ScanReport>, ScanError> {
    let expected: usize = prepared.iter().map(|p| p.gadgets.len()).sum();
    if scores.len() != expected {
        return Err(ScanError::Internal(format!(
            "model returned {} scores for {expected} gadgets",
            scores.len()
        )));
    }
    let mut cursor = scores.into_iter();
    Ok(prepared
        .iter()
        .map(|p| ScanReport {
            threshold,
            model: None,
            findings: p
                .gadgets
                .iter()
                .map(|g| {
                    // The count was validated above, so the cursor cannot run
                    // dry; the NaN fallback keeps even that impossible case a
                    // reported error instead of a panic.
                    let score = cursor.next().unwrap_or(f64::NAN);
                    let status = if score.is_finite() {
                        FindingStatus::Scored
                    } else {
                        FindingStatus::InvalidScore
                    };
                    Finding {
                        line: g.line,
                        category: g.category,
                        name: g.name.clone(),
                        score,
                        flagged: status == FindingStatus::Scored && score > threshold,
                        status,
                        members: Vec::new(),
                        explain: None,
                    }
                })
                .collect(),
        })
        .collect())
}

/// How many tokens an attached explanation ranks (the Fig. 6 bar count).
pub const EXPLAIN_TOP_K: usize = 10;

/// Attaches a Fig. 6 explanation to every finding of a report, running each
/// gadget back through the detector's reference f64 path. `prepared` is the
/// source the report was scored from: finding `i` explains gadget `i`'s
/// tokens. Heavier than the scoring pass (one extra forward per gadget),
/// which is why it is opt-in per request rather than always on.
pub fn attach_explanations(
    detector: &mut Detector,
    report: &mut ScanReport,
    prepared: &PreparedSource,
) {
    let _t = sevuldet_trace::span!("scan.explain");
    for (f, g) in report.findings.iter_mut().zip(&prepared.gadgets) {
        f.explain = Some(explain_tokens(detector, &g.tokens, EXPLAIN_TOP_K));
    }
}

/// Combines per-model reports over the *same* prepared source into one
/// ensemble report: per finding, the ensemble score is the mean of the
/// members' scores and the verdict is a strict majority vote of the
/// members' flags; each member's own score/flag rides along in
/// [`Finding::members`]. A finding where any member produced a non-finite
/// score is conservatively reported as `invalid_score` — averaging around a
/// NaN would silently misweight the vote. The ensemble threshold is the
/// mean of the member thresholds (informational: the vote, not the mean
/// score against it, decides `flagged`).
///
/// Deterministic in member order, and member reports are themselves
/// byte-stable across `--jobs` — so ensemble output is too.
///
/// # Errors
///
/// [`ScanError::Internal`] when the member reports disagree on the gadget
/// count (they must come from one prepared source) or no members are given.
pub fn combine_ensemble(members: &[(String, ScanReport)]) -> Result<ScanReport, ScanError> {
    let Some((_, first)) = members.first() else {
        return Err(ScanError::Internal("ensemble with no members".into()));
    };
    let n = first.findings.len();
    if let Some((name, r)) = members.iter().find(|(_, r)| r.findings.len() != n) {
        return Err(ScanError::Internal(format!(
            "ensemble member `{name}` scored {} gadgets, expected {n}",
            r.findings.len()
        )));
    }
    let threshold = members.iter().map(|(_, r)| r.threshold).sum::<f64>() / members.len() as f64;
    let findings = (0..n)
        .map(|i| {
            let per_member: Vec<MemberScore> = members
                .iter()
                .map(|(name, r)| {
                    let f = &r.findings[i];
                    MemberScore {
                        model: name.clone(),
                        score: f.score,
                        flagged: f.flagged,
                        status: f.status,
                    }
                })
                .collect();
            let all_valid = per_member.iter().all(|m| m.status == FindingStatus::Scored);
            let (score, status) = if all_valid {
                let mean =
                    per_member.iter().map(|m| m.score).sum::<f64>() / per_member.len() as f64;
                (mean, FindingStatus::Scored)
            } else {
                (f64::NAN, FindingStatus::InvalidScore)
            };
            let votes = per_member.iter().filter(|m| m.flagged).count();
            let flagged = status == FindingStatus::Scored && 2 * votes > per_member.len();
            let base = &first.findings[i];
            Finding {
                line: base.line,
                category: base.category,
                name: base.name.clone(),
                score,
                flagged,
                status,
                members: per_member,
                explain: None,
            }
        })
        .collect();
    Ok(ScanReport {
        findings,
        threshold,
        model: None,
    })
}

/// Scans one source end to end: [`prepare_source`] + [`score_prepared_mut`].
///
/// # Errors
///
/// [`ScanError::Parse`] when the source is not valid mini-C;
/// [`ScanError::Internal`] when scoring breaks an internal invariant.
pub fn score_source(
    detector: &mut Detector,
    source: &str,
    jobs: usize,
) -> Result<ScanReport, ScanError> {
    let prepared = prepare_source(source, jobs)?;
    score_prepared_mut(detector, &[prepared], jobs)?
        .pop()
        .ok_or_else(|| ScanError::Internal("no report produced".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::pipeline::{Detector, GadgetSpec};
    use crate::zoo::ModelKind;
    use sevuldet_dataset::{sard, SardConfig};

    const LEAKY: &str = r#"void process(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        puts("small");
    }
    strncpy(dest, data, n);
}"#;

    fn tiny_detector() -> Detector {
        let samples = sard::generate(&SardConfig {
            per_category: 6,
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
        Detector::train(&corpus, ModelKind::SevulDet, &cfg)
    }

    #[test]
    fn score_source_reports_every_gadget() {
        let mut det = tiny_detector();
        let report = score_source(&mut det, LEAKY, 1).expect("scans");
        assert!(
            report.gadgets() > 0,
            "motivating example has special tokens"
        );
        assert_eq!(report.threshold, det.threshold());
        for f in &report.findings {
            assert!(f.line >= 1);
            assert!((0.0..=1.0).contains(&f.score));
            assert_eq!(f.status, FindingStatus::Scored);
            assert_eq!(f.flagged, f.score > report.threshold);
        }
        let prepared = prepare_source(LEAKY, 1).expect("parses");
        assert_eq!(prepared.gadgets.len(), report.gadgets());
        assert!(prepared.gadgets.iter().all(|g| !g.tokens.is_empty()));
        assert_eq!(report.invalid(), 0);
        // Source order: lines never decrease out of special-token order.
        let json = report.to_json("leaky.c").to_string();
        assert!(json.contains("\"status\":\"scanned\""));
        assert!(json.contains("\"findings\":["));
    }

    #[test]
    fn clean_source_is_scanned_not_error() {
        let mut det = tiny_detector();
        let report = score_source(&mut det, "int three() { return 3; }", 1).expect("scans");
        assert_eq!(report.gadgets(), 0);
        assert_eq!(report.flagged(), 0);
        let json = report.to_json("clean.c").to_string();
        assert!(json.contains("\"status\":\"scanned\""));
        assert!(json.contains("\"gadgets\":0"));
        assert!(json.contains("\"findings\":[]"));
    }

    #[test]
    fn parse_failure_is_a_scan_error() {
        let mut det = tiny_detector();
        let err = score_source(&mut det, "this is not C at all {{{", 1).unwrap_err();
        assert!(matches!(err, ScanError::Parse(_)));
        let json = error_json("bad.c", &err).to_string();
        assert!(json.contains("\"status\":\"error\""));
    }

    #[test]
    fn non_finite_scores_become_typed_errors_not_clean() {
        let prepared = prepare_source(LEAKY, 1).expect("parses");
        let n = prepared.gadgets.len();
        assert!(n >= 2, "motivating example has at least two gadgets");
        // Hand the assembler a NaN in slot 0 and confident scores elsewhere.
        let mut scores = vec![0.9; n];
        scores[0] = f64::NAN;
        let prepared = [prepared];
        let reports = assemble_reports(&prepared, scores, 0.5).expect("count matches");
        let report = &reports[0];
        let bad = &report.findings[0];
        assert_eq!(bad.status, FindingStatus::InvalidScore);
        assert!(
            !bad.flagged,
            "a NaN score must never read as clean-or-flagged"
        );
        assert_eq!(report.invalid(), 1);
        assert_eq!(report.flagged(), n - 1);
        for f in &report.findings[1..] {
            assert_eq!(f.status, FindingStatus::Scored);
            assert!(f.flagged);
        }
        let json = report.to_json("nan.c").to_string();
        assert!(json.contains("\"status\":\"invalid_score\""));
        assert!(json.contains("\"score\":null"));
        assert!(json.contains("\"invalid\":1"));
    }

    #[test]
    fn score_count_mismatch_is_internal_error_not_panic() {
        let prepared = [prepare_source(LEAKY, 1).expect("parses")];
        let err = assemble_reports(&prepared, vec![0.5], 0.5).unwrap_err();
        assert!(matches!(err, ScanError::Internal(_)));
        assert!(err.to_string().contains("internal scan error"));
    }

    #[test]
    fn batched_scoring_matches_one_by_one() {
        let mut det = tiny_detector();
        let sources = [LEAKY, "int three() { return 3; }", LEAKY];
        let prepared: Vec<PreparedSource> = sources
            .iter()
            .map(|s| prepare_source(s, 1).expect("parses"))
            .collect();
        let batched = score_prepared_mut(&mut det, &prepared, 1).expect("scores");
        for (src, batch_report) in sources.iter().zip(&batched) {
            let solo = score_source(&mut det, src, 1).expect("scans");
            assert_eq!(
                solo.to_json("x").to_string(),
                batch_report.to_json("x").to_string(),
                "batching must not change scores"
            );
        }
    }

    /// Thread count must not change a byte of any report, for every model
    /// family a server slot can hold: the CNN (flexible and fixed length)
    /// and the RNN baseline. Repeated calls reuse the detector's warm
    /// buffers and must reproduce the first call exactly.
    #[test]
    fn owned_scoring_is_byte_stable_across_jobs_and_models() {
        let samples = sard::generate(&SardConfig {
            per_category: 6,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let cfg = TrainConfig {
            embed_dim: 10,
            w2v_epochs: 1,
            epochs: 2,
            cnn_channels: 8,
            rnn_hidden: 8,
            rnn_steps: 40,
            ..TrainConfig::quick()
        };
        let sources = [LEAKY, "int three() { return 3; }", LEAKY];
        let prepared: Vec<PreparedSource> = sources
            .iter()
            .map(|s| prepare_source(s, 1).expect("parses"))
            .collect();
        let json = |reports: Vec<ScanReport>| -> Vec<String> {
            reports.iter().map(|r| r.to_json("x").to_string()).collect()
        };
        for kind in [
            ModelKind::SevulDet,
            ModelKind::SevulDetFixed,
            ModelKind::Bgru,
        ] {
            let mut det = Detector::train(&corpus, kind, &cfg);
            let one = json(score_prepared_mut(&mut det, &prepared, 1).expect("scores"));
            for jobs in [2, 4, 1] {
                let again = json(score_prepared_mut(&mut det, &prepared, jobs).expect("scores"));
                assert_eq!(again, one, "{kind} at jobs={jobs}");
            }
        }
    }
}
