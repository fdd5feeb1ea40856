//! The model zoo: every network the evaluation compares.

use crate::config::TrainConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sevuldet_nn::{
    CbamOrder, CellKind, CnnConfig, Param, RnnNet, SequenceClassifier, SevulDetCnn, Tensor,
};
use std::fmt;

/// Which network to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The full SEVulDet network: token attention + CBAM + SPP.
    SevulDet,
    /// SEVulDet with inputs truncated/padded to `rnn_steps` tokens — the
    /// fixed-length ablation of Table II.
    SevulDetFixed,
    /// CNN without any attention (Table III "CNN").
    CnnPlain,
    /// CNN with token attention only (Table III "CNN-TokenATT").
    CnnTokenAtt,
    /// Full SEVulDet but with the CBAM gates in *parallel* arrangement —
    /// the ablation the paper mentions when noting sequential works better.
    SevulDetCbamParallel,
    /// Bidirectional LSTM with predefined time steps (VulDeePecker's net).
    Blstm,
    /// Bidirectional GRU with predefined time steps (SySeVR's best net).
    Bgru,
}

impl ModelKind {
    /// Paper-style display name.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::SevulDet => "SEVulDet",
            ModelKind::SevulDetFixed => "SEVulDet (fixed-length)",
            ModelKind::CnnPlain => "CNN",
            ModelKind::CnnTokenAtt => "CNN-TokenATT",
            ModelKind::SevulDetCbamParallel => "SEVulDet (parallel CBAM)",
            ModelKind::Blstm => "BLSTM",
            ModelKind::Bgru => "BGRU",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A zoo model behind one concrete type. `Clone` lets the data-parallel
/// trainer hand each worker thread its own replica. The variants differ in
/// size, but only a handful of models ever exist at once, so boxing the
/// large one would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum AnyModel {
    /// CNN family.
    Cnn(SevulDetCnn),
    /// RNN family.
    Rnn(RnnNet),
}

impl fmt::Debug for AnyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyModel::Cnn(_) => f.write_str("AnyModel::Cnn"),
            AnyModel::Rnn(_) => f.write_str("AnyModel::Rnn"),
        }
    }
}

impl AnyModel {
    /// The CBAM `(channel, spatial)` gates captured by the last forward
    /// pass, when the model is a CNN with a CBAM block that has run.
    pub fn cbam_gates(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        match self {
            AnyModel::Cnn(m) => m.cbam_gates(),
            AnyModel::Rnn(_) => None,
        }
    }
}

impl SequenceClassifier for AnyModel {
    fn infer_logits(&mut self, batch: &[Vec<usize>]) -> Vec<f64> {
        match self {
            AnyModel::Cnn(m) => m.infer_logits(batch),
            AnyModel::Rnn(m) => m.infer_logits(batch),
        }
    }

    fn forward_logit(&mut self, ids: &[usize], rng: &mut StdRng) -> f64 {
        match self {
            AnyModel::Cnn(m) => m.forward_logit(ids, rng),
            AnyModel::Rnn(m) => m.forward_logit(ids, rng),
        }
    }

    fn backward(&mut self, dlogit: f64) {
        match self {
            AnyModel::Cnn(m) => m.backward(dlogit),
            AnyModel::Rnn(m) => m.backward(dlogit),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            AnyModel::Cnn(m) => m.params_mut(),
            AnyModel::Rnn(m) => m.params_mut(),
        }
    }

    fn token_weights(&self) -> Option<Vec<f64>> {
        match self {
            AnyModel::Cnn(m) => m.token_weights(),
            AnyModel::Rnn(m) => m.token_weights(),
        }
    }
}

/// Builds a model of the given kind on top of a pre-trained embedding table.
pub fn build_model(kind: ModelKind, table: Tensor, cfg: &TrainConfig) -> AnyModel {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xbeef);
    match kind {
        ModelKind::SevulDet => AnyModel::Cnn(SevulDetCnn::new(
            table,
            CnnConfig {
                channels: cfg.cnn_channels,
                dropout: cfg.dropout,
                ..CnnConfig::default()
            },
            &mut rng,
        )),
        ModelKind::SevulDetFixed => AnyModel::Cnn(SevulDetCnn::new(
            table,
            CnnConfig {
                channels: cfg.cnn_channels,
                dropout: cfg.dropout,
                fixed_len: Some(cfg.rnn_steps),
                ..CnnConfig::default()
            },
            &mut rng,
        )),
        ModelKind::CnnPlain => AnyModel::Cnn(SevulDetCnn::new(
            table,
            CnnConfig {
                channels: cfg.cnn_channels,
                dropout: cfg.dropout,
                ..CnnConfig::plain()
            },
            &mut rng,
        )),
        ModelKind::CnnTokenAtt => AnyModel::Cnn(SevulDetCnn::new(
            table,
            CnnConfig {
                channels: cfg.cnn_channels,
                dropout: cfg.dropout,
                ..CnnConfig::token_att_only()
            },
            &mut rng,
        )),
        ModelKind::SevulDetCbamParallel => AnyModel::Cnn(SevulDetCnn::new(
            table,
            CnnConfig {
                channels: cfg.cnn_channels,
                dropout: cfg.dropout,
                cbam_order: CbamOrder::Parallel,
                ..CnnConfig::default()
            },
            &mut rng,
        )),
        ModelKind::Blstm => AnyModel::Rnn(RnnNet::new(
            table,
            CellKind::Lstm,
            cfg.rnn_hidden,
            cfg.rnn_steps,
            cfg.dropout,
            &mut rng,
        )),
        ModelKind::Bgru => AnyModel::Rnn(RnnNet::new(
            table,
            CellKind::Gru,
            cfg.rnn_hidden,
            cfg.rnn_steps,
            cfg.dropout,
            &mut rng,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_runs() {
        let cfg = TrainConfig {
            embed_dim: 8,
            cnn_channels: 8,
            rnn_hidden: 8,
            rnn_steps: 16,
            ..TrainConfig::quick()
        };
        for kind in [
            ModelKind::SevulDet,
            ModelKind::SevulDetFixed,
            ModelKind::CnnPlain,
            ModelKind::CnnTokenAtt,
            ModelKind::SevulDetCbamParallel,
            ModelKind::Blstm,
            ModelKind::Bgru,
        ] {
            let table = Tensor::zeros(&[10, 8]);
            let mut m = build_model(kind, table, &cfg);
            let logit = m.infer_logits(&[vec![1, 2, 3]])[0];
            assert!(logit.is_finite(), "{kind}");
            assert!(!m.params_mut().is_empty());
        }
    }

    #[test]
    fn labels_are_paper_names() {
        assert_eq!(ModelKind::SevulDet.label(), "SEVulDet");
        assert_eq!(ModelKind::Bgru.to_string(), "BGRU");
    }
}
