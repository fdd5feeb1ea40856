//! Attention-weight interpretation (RQ4 / Fig. 6).
//!
//! After a prediction, the token-attention weights are hooked and the top-k
//! tokens are reported with weights regularized against the maximum — the
//! exact presentation of the paper's Fig. 6 bar chart.
//!
//! All explainability passes run on the detector's reference f64 path
//! ([`Detector::predict_reference`]): the f32 tier scores on its
//! own f32 copy of the network, whose attention state the detector's
//! accessors do not read, so routing through them would report the weights
//! of some earlier input. Models that genuinely expose no relevance signal
//! (the plain-CNN ablation) produce a typed [`ExplainStatus::Unavailable`]
//! instead.

use crate::pipeline::Detector;

/// One attention-ranked token.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedToken {
    /// The surface token.
    pub token: String,
    /// Index in the gadget's token stream.
    pub position: usize,
    /// Weight as a percentage of the maximum weight (the top token = 100%).
    pub percent: f64,
}

/// Whether an explanation could be produced for a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainStatus {
    /// The model exposed per-token relevance weights.
    Ok,
    /// The model has no attention or saliency hook (e.g. the plain-CNN
    /// ablation) — never reported as a silently empty heatmap.
    Unavailable,
}

impl ExplainStatus {
    /// Wire label used in scan JSON.
    pub fn label(self) -> &'static str {
        match self {
            ExplainStatus::Ok => "ok",
            ExplainStatus::Unavailable => "explain_unavailable",
        }
    }
}

/// Summary statistics over one CBAM gate (channel or spatial).
#[derive(Debug, Clone, PartialEq)]
pub struct GateSummary {
    /// Gate length (channels, or sequence positions).
    pub len: usize,
    /// Mean gate activation.
    pub mean: f64,
    /// Maximum gate activation.
    pub max: f64,
    /// Index of the maximum activation.
    pub argmax: usize,
}

impl GateSummary {
    /// `None` for an empty gate, or one with a non-finite value (a
    /// diverged model), which has no meaningful mean or maximum.
    fn from_gate(gate: &[f64]) -> Option<GateSummary> {
        if gate.is_empty() || !gate.iter().all(|v| v.is_finite()) {
            return None;
        }
        let mut max = f64::MIN;
        let mut argmax = 0;
        let mut sum = 0.0;
        for (i, &v) in gate.iter().enumerate() {
            sum += v;
            if v > max {
                max = v;
                argmax = i;
            }
        }
        Some(GateSummary {
            len: gate.len(),
            mean: sum / gate.len() as f64,
            max,
            argmax,
        })
    }
}

/// CBAM channel/spatial attention summaries for one prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct CbamSummary {
    /// Channel-gate statistics.
    pub channel: GateSummary,
    /// Spatial-gate statistics (positions are post-convolution).
    pub spatial: GateSummary,
}

/// A full explanation for one gadget: the Fig. 6 token heatmap plus CBAM
/// gate summaries when the model carries a CBAM block.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Whether the model produced relevance weights at all.
    pub status: ExplainStatus,
    /// Top-k tokens, descending percent-of-max. Empty iff `status` is
    /// [`ExplainStatus::Unavailable`].
    pub tokens: Vec<RankedToken>,
    /// CBAM gate summaries, when present on the model.
    pub cbam: Option<CbamSummary>,
}

/// Runs the detector on a gadget on the reference f64 path and assembles the
/// full typed explanation: the `k` most attended tokens, sorted by
/// descending weight, plus CBAM summaries. The weights always reflect this
/// input, whatever the detector's precision tier. A model with no attention
/// weights (the plain-CNN ablation), or whose forward pass produced a
/// non-finite weight (a diverged model), yields
/// [`ExplainStatus::Unavailable`] with no tokens; a non-finite CBAM gate
/// yields no CBAM summary.
pub fn explain_tokens(detector: &mut Detector, tokens: &[String], k: usize) -> Explanation {
    let _ = detector.predict_reference(tokens);
    let ranked = match detector.token_weights() {
        Some(w) => rank_weights(&w, tokens, k),
        None => Vec::new(),
    };
    let cbam = detector.cbam_gates().and_then(|(c, s)| {
        Some(CbamSummary {
            channel: GateSummary::from_gate(&c)?,
            spatial: GateSummary::from_gate(&s)?,
        })
    });
    let status = if ranked.is_empty() {
        ExplainStatus::Unavailable
    } else {
        ExplainStatus::Ok
    };
    Explanation {
        status,
        tokens: ranked,
        cbam,
    }
}

fn rank_weights(weights: &[f64], tokens: &[String], k: usize) -> Vec<RankedToken> {
    if !weights.iter().all(|w| w.is_finite()) {
        return Vec::new();
    }
    let max = weights.iter().copied().fold(f64::MIN, f64::max).max(1e-12);
    // One entry per *distinct* token text (max weight wins), matching the
    // paper's Fig. 6 presentation.
    let mut best: std::collections::HashMap<&String, (usize, f64)> = Default::default();
    for (i, &w) in weights.iter().enumerate().take(tokens.len()) {
        let e = best.entry(&tokens[i]).or_insert((i, w));
        if w > e.1 {
            *e = (i, w);
        }
    }
    let mut ranked: Vec<RankedToken> = best
        .into_iter()
        .map(|(tok, (i, w))| RankedToken {
            token: tok.clone(),
            position: i,
            percent: w / max * 100.0,
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.percent
            .partial_cmp(&a.percent)
            .expect("weights checked finite above")
            .then_with(|| a.position.cmp(&b.position))
    });
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::pipeline::GadgetSpec;
    use crate::zoo::ModelKind;
    use sevuldet_dataset::{sard, SardConfig};
    use sevuldet_nn::Precision;

    fn trained(kind: ModelKind, per_category: usize) -> (Detector, Vec<String>) {
        let samples = sard::generate(&SardConfig {
            per_category,
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
        let tokens = corpus.items[0].tokens.clone();
        (Detector::train(&corpus, kind, &cfg), tokens)
    }

    #[test]
    fn explained_tokens_ranked_and_normalized() {
        let (mut det, tokens) = trained(ModelKind::SevulDet, 4);
        let ranked = explain_tokens(&mut det, &tokens, 10).tokens;
        assert!(!ranked.is_empty());
        assert!(ranked.len() <= 10);
        assert!((ranked[0].percent - 100.0).abs() < 1e-9, "top token = 100%");
        for w in ranked.windows(2) {
            assert!(w[0].percent >= w[1].percent, "descending order");
        }
    }

    #[test]
    fn plain_cnn_has_no_attention_to_rank() {
        let (mut det, tokens) = trained(ModelKind::CnnPlain, 3);
        let exp = explain_tokens(&mut det, &tokens, 5);
        assert_eq!(exp.status, ExplainStatus::Unavailable);
        assert_eq!(exp.status.label(), "explain_unavailable");
        assert!(exp.tokens.is_empty());
        assert!(exp.cbam.is_none(), "plain CNN has no CBAM block");
    }

    #[test]
    fn fast_tier_explain_falls_back_to_reference_path() {
        let (mut det, tokens) = trained(ModelKind::SevulDet, 4);
        let reference = explain_tokens(&mut det, &tokens, 10).tokens;
        assert!(!reference.is_empty());
        det.set_precision(Precision::F32)
            .expect("CNN supports the f32 tier");
        let ranked = explain_tokens(&mut det, &tokens, 10).tokens;
        assert_eq!(
            ranked, reference,
            "explain under f32 must match the f64 reference"
        );
    }

    #[test]
    fn rnn_saliency_produces_a_heatmap() {
        let (mut det, tokens) = trained(ModelKind::Bgru, 3);
        let exp = explain_tokens(&mut det, &tokens, 8);
        assert_eq!(exp.status, ExplainStatus::Ok);
        assert!(!exp.tokens.is_empty());
        assert!((exp.tokens[0].percent - 100.0).abs() < 1e-9);
        assert!(exp.cbam.is_none(), "RNNs carry no CBAM block");
    }

    #[test]
    fn cbam_summaries_present_on_full_model() {
        let (mut det, tokens) = trained(ModelKind::SevulDet, 4);
        let exp = explain_tokens(&mut det, &tokens, 5);
        assert_eq!(exp.status, ExplainStatus::Ok);
        let cbam = exp.cbam.expect("full SEVulDet has CBAM");
        assert!(cbam.channel.len > 0 && cbam.spatial.len > 0);
        assert!(cbam.spatial.max <= 1.0 + 1e-12, "spatial gate is sigmoid");
        assert!(cbam.channel.argmax < cbam.channel.len);
    }

    /// A diverged training run saves `NaN` parameters, and they load. Such
    /// a model's forward yields non-finite attention weights; explaining a
    /// gadget must report the heatmap unavailable instead of panicking.
    #[test]
    fn non_finite_forward_explains_as_unavailable() {
        let (mut det, tokens) = trained(ModelKind::SevulDet, 3);
        let (kind, cfg, vocab, text) = det.persist_parts();
        let vocab = vocab.clone();
        let nan_text: String = text
            .lines()
            .map(|line| {
                if line.starts_with("param") {
                    line.to_string()
                } else {
                    vec!["NaN"; line.split_whitespace().count()].join(" ")
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let mut diverged =
            Detector::from_persisted(kind, cfg, vocab, &nan_text).expect("NaN parameters load");
        assert!(diverged.predict(&tokens).is_nan());
        let exp = explain_tokens(&mut diverged, &tokens, 5);
        assert_eq!(exp.status, ExplainStatus::Unavailable);
        assert!(exp.tokens.is_empty());
        assert!(exp.cbam.is_none(), "NaN gates have no summary");
    }
}
