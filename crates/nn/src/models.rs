//! The paper's networks, assembled from the layer library.
//!
//! * [`SevulDetCnn`] — the SEVulDet architecture (Fig. 2): token-attention
//!   embedding → conv → CBAM → conv → **spatial pyramid pooling** → dense
//!   256 → 64 → 1. Ablation flags reproduce the Table III variants (plain
//!   CNN, CNN-TokenATT, CNN-MultiATT) and a fixed-length variant for the
//!   Table II comparison.
//! * [`RnnNet`] — bidirectional LSTM/GRU classifiers with predefined time
//!   steps (the BLSTM/BGRU baselines; VulDeePecker ≈ BLSTM, SySeVR ≈ BGRU).
//!
//! [`SevulDetCnn`]'s forward is generic over the [`Scalar`]: the trained
//! f64 network is the reference tier, and [`SevulDetCnn::to_f32`] builds
//! the f32 inference tier that runs the same code.

use crate::attention::{Cbam, CbamOrder, TokenAttention, TokenScoreMemo};
use crate::kernels::Workspace;
use crate::layers::{Conv1d, Dense, Dropout, Embedding, Relu, Spp};
use crate::param::Param;
use crate::rnn::{BiRnn, CellKind};
use crate::scalar::Scalar;
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Common interface of all sequence classifiers in the zoo.
pub trait SequenceClassifier {
    /// Inference logits of a batch of token-id sequences, in input order,
    /// with dropout off. This is the one way a network scores; it reads no
    /// randomness, and each logit has the bits of a batch of one on its
    /// sequence. [`SequenceClassifier::token_weights`] then reports the
    /// batch's last sequence.
    fn infer_logits(&mut self, batch: &[Vec<usize>]) -> Vec<f64>;
    /// The training forward on one sequence: dropout draws its mask from
    /// `rng`, and [`SequenceClassifier::backward`] follows.
    fn forward_logit(&mut self, ids: &[usize], rng: &mut StdRng) -> f64;
    /// Backpropagates a gradient on the logit.
    fn backward(&mut self, dlogit: f64);
    /// All trainable parameters, in a stable order.
    fn params_mut(&mut self) -> Vec<&mut Param>;
    /// Per-input-token attention weights of the last forward pass, if the
    /// architecture exposes them (Fig. 6 visualization).
    fn token_weights(&self) -> Option<Vec<f64>> {
        None
    }

    /// Moves all accumulated gradients out (in `params_mut` order), leaving
    /// zeros behind. Together with [`SequenceClassifier::add_grads`] this is
    /// the exchange primitive of the data-parallel training engine: workers
    /// extract per-sample gradients from their model clones and the
    /// coordinator merges them in a deterministic order.
    fn take_grads(&mut self) -> Vec<Tensor> {
        self.params_mut()
            .into_iter()
            .map(Param::take_grad)
            .collect()
    }

    /// Adds a gradient set produced by [`SequenceClassifier::take_grads`]
    /// into this model's accumulated gradients.
    ///
    /// # Panics
    ///
    /// Panics when `grads` does not match the parameter list in length or
    /// shapes.
    fn add_grads(&mut self, grads: &[Tensor]) {
        let params = self.params_mut();
        assert_eq!(params.len(), grads.len(), "gradient set length mismatch");
        for (p, g) in params.into_iter().zip(grads) {
            p.add_grad(g);
        }
    }
}

/// Configuration of [`SevulDetCnn`].
#[derive(Debug, Clone)]
pub struct CnnConfig {
    /// Convolution channels (both layers).
    pub channels: usize,
    /// Convolution kernel width.
    pub kernel: usize,
    /// Enable token attention (Step IV).
    pub token_attention: bool,
    /// Enable CBAM channel+spatial attention (Step V).
    pub cbam: bool,
    /// CBAM reduction ratio.
    pub cbam_reduction: usize,
    /// CBAM spatial kernel width (paper: 7).
    pub cbam_kernel: usize,
    /// CBAM gate arrangement (the paper finds sequential better).
    pub cbam_order: CbamOrder,
    /// SPP pyramid levels (paper: 4/2/1).
    pub spp_bins: Vec<usize>,
    /// When set, inputs are truncated/zero-padded to this many tokens before
    /// the network — the fixed-length ablation. `None` = flexible length.
    pub fixed_len: Option<usize>,
    /// Dropout probability before the first dense layer.
    pub dropout: f64,
}

impl Default for CnnConfig {
    fn default() -> Self {
        CnnConfig {
            channels: 32,
            kernel: 3,
            token_attention: true,
            cbam: true,
            cbam_reduction: 4,
            cbam_kernel: 7,
            cbam_order: CbamOrder::Sequential,
            spp_bins: vec![4, 2, 1],
            fixed_len: None,
            dropout: 0.2,
        }
    }
}

impl CnnConfig {
    /// The Table III "CNN" ablation: no attention at all.
    pub fn plain() -> Self {
        CnnConfig {
            token_attention: false,
            cbam: false,
            ..CnnConfig::default()
        }
    }

    /// The Table III "CNN-TokenATT" ablation: token attention only.
    pub fn token_att_only() -> Self {
        CnnConfig {
            token_attention: true,
            cbam: false,
            ..CnnConfig::default()
        }
    }
}

/// The SEVulDet network (Fig. 2, steps IV-V), computing in `S`: `f64`
/// for training and the reference tier, `f32` for the fast tiers.
#[derive(Debug, Clone)]
pub struct SevulDetCnn<S: Scalar = f64> {
    config: CnnConfig,
    emb: Embedding<S>,
    tok_att: Option<TokenAttention<S>>,
    conv1: Conv1d<S>,
    relu1: Relu,
    cbam: Option<Cbam<S>>,
    conv2: Conv1d<S>,
    relu2: Relu,
    spp: Spp,
    fc1: Dense<S>,
    relu_fc: Relu,
    drop: Dropout,
    fc2: Dense<S>,
    relu_fc2: Relu,
    fc3: Dense<S>,
    cache_padded: Vec<usize>,
    /// Token-attention scores of the current call's distinct ids.
    memo: TokenScoreMemo<S>,
    // Reused activation storage: `act_a` always holds the current
    // activation; layers write into `act_b` and the two are swapped.
    // Cloning a model starts it with fresh (empty) buffers.
    ws: Workspace<S>,
    act_a: Tensor<S>,
    act_b: Tensor<S>,
    vec_a: Vec<S>,
    vec_b: Vec<S>,
}

impl SevulDetCnn {
    /// Builds the network on top of a pre-trained `(V × D)` embedding table.
    pub fn new(table: Tensor, config: CnnConfig, rng: &mut StdRng) -> SevulDetCnn {
        let d = table.cols();
        let c = config.channels;
        let spp = Spp::new(config.spp_bins.clone());
        let pooled = spp.out_len(c);
        SevulDetCnn {
            emb: Embedding::from_table(table),
            tok_att: config
                .token_attention
                .then(|| TokenAttention::new(d, d, rng)),
            conv1: Conv1d::new(d, c, config.kernel, rng),
            relu1: Relu::new(),
            cbam: config.cbam.then(|| {
                Cbam::with_order(
                    c,
                    config.cbam_reduction,
                    config.cbam_kernel,
                    config.cbam_order,
                    rng,
                )
            }),
            conv2: Conv1d::new(c, c, config.kernel, rng),
            relu2: Relu::new(),
            spp,
            fc1: Dense::new(pooled, 256, rng),
            relu_fc: Relu::new(),
            drop: Dropout::new(config.dropout),
            fc2: Dense::new(256, 64, rng),
            relu_fc2: Relu::new(),
            fc3: Dense::new(64, 1, rng),
            cache_padded: Vec::new(),
            memo: TokenScoreMemo::new(),
            ws: Workspace::new(),
            act_a: Tensor::zeros(&[0, 0]),
            act_b: Tensor::zeros(&[0, 0]),
            vec_a: Vec::new(),
            vec_b: Vec::new(),
            config,
        }
    }

    /// The CBAM `(channel, spatial)` gates captured by the last forward pass,
    /// or `None` when the network has no CBAM block (or never ran).
    pub fn cbam_gates(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        let cbam = self.cbam.as_ref()?;
        match (cbam.last_channel_gate(), cbam.last_spatial_gate()) {
            (Some(c), Some(s)) => Some((c.to_vec(), s.to_vec())),
            _ => None,
        }
    }

    /// The f32 inference tier: this network with its parameters converted
    /// once, and no gradient storage. It runs the same forward code.
    pub fn to_f32(&self) -> SevulDetCnn<f32> {
        SevulDetCnn {
            config: self.config.clone(),
            emb: self.emb.convert(),
            tok_att: self.tok_att.as_ref().map(TokenAttention::convert),
            conv1: self.conv1.convert(),
            relu1: Relu::new(),
            cbam: self.cbam.as_ref().map(Cbam::convert),
            conv2: self.conv2.convert(),
            relu2: Relu::new(),
            spp: Spp::new(self.spp.bins.clone()),
            fc1: self.fc1.convert(),
            relu_fc: Relu::new(),
            drop: Dropout::new(self.drop.p),
            fc2: self.fc2.convert(),
            relu_fc2: Relu::new(),
            fc3: self.fc3.convert(),
            cache_padded: Vec::new(),
            memo: TokenScoreMemo::new(),
            ws: Workspace::new(),
            act_a: Tensor::zeros(&[0, 0]),
            act_b: Tensor::zeros(&[0, 0]),
            vec_a: Vec::new(),
            vec_b: Vec::new(),
        }
    }
}

impl<S: Scalar> SevulDetCnn<S> {
    /// Inference logits of a batch, in input order, widened to f64, at
    /// this network's precision. Token scores are computed once per
    /// distinct id of the batch; each logit has the bits of a batch of one
    /// on its sequence alone.
    pub fn infer_logits(&mut self, batch: &[Vec<usize>]) -> Vec<f64> {
        self.score_tokens(batch.iter().map(Vec::as_slice));
        batch
            .iter()
            .map(|ids| self.forward_scored(ids, None).to_f64())
            .collect()
    }

    fn prepare_ids_into(&mut self, ids: &[usize]) {
        self.cache_padded.clear();
        match self.config.fixed_len {
            Some(l) => {
                self.cache_padded.extend(ids.iter().copied().take(l));
                // A degenerate fixed length of 0 still pads to one token so
                // every downstream layer sees a non-empty sequence.
                self.cache_padded.resize(l.max(1), 0);
            }
            None => {
                if ids.is_empty() {
                    self.cache_padded.push(0);
                } else {
                    self.cache_padded.extend_from_slice(ids);
                }
            }
        }
    }

    /// Scores every distinct (padded, clamped) token id of `seqs` into the
    /// memo: token attention's `tanh(W·E[id] + b) · u_w` depends only on
    /// the id's embedding row, so one projection per id gives every token
    /// the bits its own row's projection would. Weights cannot change
    /// within a call, and the memo is refilled on every call.
    fn score_tokens<'a>(&mut self, seqs: impl IntoIterator<Item = &'a [usize]>) {
        if self.tok_att.is_none() {
            return;
        }
        let _t = sevuldet_trace::span!("nn.token_att");
        self.memo.reset(self.emb.vocab());
        for ids in seqs {
            self.prepare_ids_into(ids);
            self.memo.insert(&self.cache_padded);
        }
        if let Some(att) = &self.tok_att {
            att.fill_memo(&mut self.memo, &self.emb.table.w, &mut self.ws);
        }
    }

    /// One forward pass over ids already scored by [`Self::score_tokens`];
    /// `rng` carries the dropout randomness when training.
    fn forward_scored(&mut self, ids: &[usize], rng: Option<&mut StdRng>) -> S {
        let _fwd = sevuldet_trace::span!("nn.forward");
        {
            let _t = sevuldet_trace::span!("nn.embedding");
            self.prepare_ids_into(ids);
            self.emb.forward_into(&self.cache_padded, &mut self.act_a);
        }
        if let Some(att) = &mut self.tok_att {
            let _t = sevuldet_trace::span!("nn.token_att");
            att.forward_memo_into(&self.act_a, &self.cache_padded, &self.memo, &mut self.act_b);
            std::mem::swap(&mut self.act_a, &mut self.act_b);
        }
        {
            let _t = sevuldet_trace::span!("nn.conv1");
            self.conv1
                .forward_into(&self.act_a, &mut self.act_b, &mut self.ws);
            std::mem::swap(&mut self.act_a, &mut self.act_b);
            self.relu1.forward_inplace(&mut self.act_a);
        }
        if let Some(cbam) = &mut self.cbam {
            let _t = sevuldet_trace::span!("nn.cbam");
            cbam.forward_into(&self.act_a, &mut self.act_b, &mut self.ws);
            std::mem::swap(&mut self.act_a, &mut self.act_b);
        }
        {
            let _t = sevuldet_trace::span!("nn.conv2");
            self.conv2
                .forward_into(&self.act_a, &mut self.act_b, &mut self.ws);
            std::mem::swap(&mut self.act_a, &mut self.act_b);
            self.relu2.forward_inplace(&mut self.act_a);
        }
        {
            let _t = sevuldet_trace::span!("nn.spp");
            self.spp.forward_into(&self.act_a, &mut self.vec_a);
        }
        let _t = sevuldet_trace::span!("nn.dense");
        self.fc1.forward_into(&self.vec_a, &mut self.vec_b);
        self.relu_fc.forward_vec_inplace(&mut self.vec_b);
        self.drop.forward_inplace(&mut self.vec_b, rng);
        self.fc2.forward_into(&self.vec_b, &mut self.vec_a);
        self.relu_fc2.forward_vec_inplace(&mut self.vec_a);
        self.fc3.forward_into(&self.vec_a, &mut self.vec_b);
        self.vec_b[0]
    }
}

impl SequenceClassifier for SevulDetCnn {
    /// [`SevulDetCnn::infer_logits`] at f64.
    fn infer_logits(&mut self, batch: &[Vec<usize>]) -> Vec<f64> {
        SevulDetCnn::infer_logits(self, batch)
    }

    fn forward_logit(&mut self, ids: &[usize], rng: &mut StdRng) -> f64 {
        self.score_tokens([ids]);
        self.forward_scored(ids, Some(rng))
    }

    fn backward(&mut self, dlogit: f64) {
        let _bwd = sevuldet_trace::span!("nn.backward");
        {
            let _t = sevuldet_trace::span!("nn.dense");
            self.fc3.backward_into(&[dlogit], &mut self.vec_a);
            self.relu_fc2.backward_vec_inplace(&mut self.vec_a);
            self.fc2.backward_into(&self.vec_a, &mut self.vec_b);
            self.drop.backward_inplace(&mut self.vec_b);
            self.relu_fc.backward_vec_inplace(&mut self.vec_b);
            self.fc1.backward_into(&self.vec_b, &mut self.vec_a);
        }
        {
            let _t = sevuldet_trace::span!("nn.spp");
            self.spp.backward_into(&self.vec_a, &mut self.act_a);
        }
        {
            let _t = sevuldet_trace::span!("nn.conv2");
            self.relu2.backward_inplace(&mut self.act_a);
            self.conv2
                .backward_into(&self.act_a, &mut self.act_b, &mut self.ws);
            std::mem::swap(&mut self.act_a, &mut self.act_b);
        }
        if let Some(cbam) = &mut self.cbam {
            let _t = sevuldet_trace::span!("nn.cbam");
            cbam.backward_into(&self.act_a, &mut self.act_b, &mut self.ws);
            std::mem::swap(&mut self.act_a, &mut self.act_b);
        }
        {
            let _t = sevuldet_trace::span!("nn.conv1");
            self.relu1.backward_inplace(&mut self.act_a);
            self.conv1
                .backward_into(&self.act_a, &mut self.act_b, &mut self.ws);
            std::mem::swap(&mut self.act_a, &mut self.act_b);
        }
        if let Some(att) = &mut self.tok_att {
            let _t = sevuldet_trace::span!("nn.token_att");
            att.backward_into(&self.act_a, &mut self.act_b, &mut self.ws);
            std::mem::swap(&mut self.act_a, &mut self.act_b);
        }
        let _t = sevuldet_trace::span!("nn.embedding");
        self.emb.backward(&self.act_a);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v: Vec<&mut Param> = vec![&mut self.emb.table];
        if let Some(att) = &mut self.tok_att {
            v.extend(att.params_mut());
        }
        v.extend(self.conv1.params_mut());
        if let Some(cbam) = &mut self.cbam {
            v.extend(cbam.params_mut());
        }
        v.extend(self.conv2.params_mut());
        v.extend(self.fc1.params_mut());
        v.extend(self.fc2.params_mut());
        v.extend(self.fc3.params_mut());
        v
    }

    fn token_weights(&self) -> Option<Vec<f64>> {
        self.tok_att
            .as_ref()
            .and_then(|a| a.last_weights())
            .map(<[f64]>::to_vec)
    }
}

/// A bidirectional RNN classifier with predefined time steps (Definition 8's
/// fixed-length truncation/padding happens inside the forward pass).
#[derive(Debug, Clone)]
pub struct RnnNet {
    emb: Embedding,
    rnn: BiRnn,
    fc1: Dense,
    relu: Relu,
    drop: Dropout,
    fc2: Dense,
    /// Predefined time steps τ.
    pub time_steps: usize,
    ids_buf: Vec<usize>,
    act: Tensor,
    hvec: Vec<f64>,
    vec_a: Vec<f64>,
    vec_b: Vec<f64>,
}

impl RnnNet {
    /// Builds a BLSTM/BGRU classifier over a pre-trained embedding table.
    pub fn new(
        table: Tensor,
        kind: CellKind,
        hidden: usize,
        time_steps: usize,
        dropout: f64,
        rng: &mut StdRng,
    ) -> RnnNet {
        let d = table.cols();
        RnnNet {
            emb: Embedding::from_table(table),
            rnn: BiRnn::new(kind, d, hidden, rng),
            fc1: Dense::new(2 * hidden, 64, rng),
            relu: Relu::new(),
            drop: Dropout::new(dropout),
            fc2: Dense::new(64, 1, rng),
            time_steps,
            ids_buf: Vec::new(),
            act: Tensor::zeros(&[0, 0]),
            hvec: Vec::new(),
            vec_a: Vec::new(),
            vec_b: Vec::new(),
        }
    }

    /// One forward pass; `rng` carries the dropout randomness when
    /// training.
    fn forward_seq(&mut self, ids: &[usize], rng: Option<&mut StdRng>) -> f64 {
        // Fixed time steps à la Definition 8: truncate at τ. Short inputs
        // are *masked* rather than zero-padded (running the cells over
        // hundreds of pad embeddings would corrupt the final state — Keras
        // masking semantics).
        let _fwd = sevuldet_trace::span!("nn.forward");
        self.ids_buf.clear();
        self.ids_buf
            .extend(ids.iter().copied().take(self.time_steps));
        if self.ids_buf.is_empty() {
            self.ids_buf.push(0);
        }
        self.emb.forward_into(&self.ids_buf, &mut self.act);
        self.rnn.forward_into(&self.act, &mut self.hvec);
        self.fc1.forward_into(&self.hvec, &mut self.vec_a);
        self.relu.forward_vec_inplace(&mut self.vec_a);
        self.drop.forward_inplace(&mut self.vec_a, rng);
        self.fc2.forward_into(&self.vec_a, &mut self.vec_b);
        self.vec_b[0]
    }
}

impl SequenceClassifier for RnnNet {
    fn infer_logits(&mut self, batch: &[Vec<usize>]) -> Vec<f64> {
        batch
            .iter()
            .map(|ids| self.forward_seq(ids, None))
            .collect()
    }

    fn forward_logit(&mut self, ids: &[usize], rng: &mut StdRng) -> f64 {
        self.forward_seq(ids, Some(rng))
    }

    fn backward(&mut self, dlogit: f64) {
        let _bwd = sevuldet_trace::span!("nn.backward");
        self.fc2.backward_into(&[dlogit], &mut self.vec_a);
        self.drop.backward_inplace(&mut self.vec_a);
        self.relu.backward_vec_inplace(&mut self.vec_a);
        self.fc1.backward_into(&self.vec_a, &mut self.vec_b);
        self.rnn.backward_into(&self.vec_b, &mut self.act);
        self.emb.backward(&self.act);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v: Vec<&mut Param> = vec![&mut self.emb.table];
        v.extend(self.rnn.params_mut());
        v.extend(self.fc1.params_mut());
        v.extend(self.fc2.params_mut());
        v
    }

    fn token_weights(&self) -> Option<Vec<f64>> {
        // The RNN baselines have no attention layer; hidden-state delta
        // norms from the bidirectional pass stand in as the Fig. 6
        // relevance signal (truncated at τ like the forward pass itself).
        let s = self.rnn.token_saliency();
        (!s.is_empty()).then_some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::bce_with_logits;
    use crate::optim::Adam;
    use rand::{Rng, SeedableRng};

    /// The inference logit of one sequence: a batch of one.
    fn infer<M: SequenceClassifier>(m: &mut M, ids: &[usize]) -> f64 {
        m.infer_logits(&[ids.to_vec()])[0]
    }

    fn table(v: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            &[v, d],
            (0..v * d).map(|_| rng.gen_range(-0.5..0.5)).collect(),
        )
    }

    /// A tiny synthetic task: sequences containing token 5 adjacent to token
    /// 6 are positive. Checks a model can learn it.
    fn learnable<M: SequenceClassifier>(model: &mut M, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Adam::new(0.01);
        let gen = |rng: &mut StdRng| {
            let pos = rng.gen_bool(0.5);
            let len = rng.gen_range(4..12usize);
            let mut ids: Vec<usize> = (0..len).map(|_| rng.gen_range(1..5)).collect();
            if pos {
                let at = rng.gen_range(0..len - 1);
                ids[at] = 5;
                ids[at + 1] = 6;
            }
            (ids, pos)
        };
        for _ in 0..600 {
            let (ids, pos) = gen(&mut rng);
            let logit = model.forward_logit(&ids, &mut rng);
            let (_, dl) = bce_with_logits(logit, if pos { 1.0 } else { 0.0 });
            model.backward(dl);
            opt.step(&mut model.params_mut());
        }
        let mut correct = 0;
        for _ in 0..100 {
            let (ids, pos) = gen(&mut rng);
            let logit = infer(model, &ids);
            if (logit > 0.0) == pos {
                correct += 1;
            }
        }
        correct as f64 / 100.0
    }

    #[test]
    fn batched_forward_matches_single_inference() {
        // The batched path scores tokens through a per-call memo. Repeated
        // ids, an empty sequence (padded to id 0), an id past the
        // vocabulary (read as id 0) and a long sequence, under every
        // configuration the memo must handle or leave alone, must give the
        // one-at-a-time bits — at every precision tier.
        let batch: Vec<Vec<usize>> = vec![
            vec![6],
            vec![3, 3, 3, 3],
            vec![],
            vec![9999, 1, 0],
            (0..50).map(|i| (i * 5) % 8).collect(),
            vec![1, 2, 1, 2, 1, 7],
        ];
        let configs = [
            CnnConfig::default(),
            CnnConfig::token_att_only(),
            CnnConfig::plain(),
            CnnConfig {
                fixed_len: Some(4),
                ..CnnConfig::default()
            },
        ];
        for (ci, cfg) in configs.into_iter().enumerate() {
            let cfg = CnnConfig { channels: 8, ..cfg };
            let mut rng = StdRng::seed_from_u64(93 + ci as u64);
            let mut m = SevulDetCnn::new(table(8, 8, 94), cfg, &mut rng);
            let solo: Vec<(u64, Option<Vec<u64>>)> = batch
                .iter()
                .map(|ids| {
                    let logit = m.infer_logits(std::slice::from_ref(ids))[0];
                    let w = m
                        .token_weights()
                        .map(|w| w.iter().map(|v| v.to_bits()).collect());
                    (logit.to_bits(), w)
                })
                .collect();
            let batched = m.infer_logits(&batch);
            let batched: Vec<u64> = batched.iter().map(|v| v.to_bits()).collect();
            let solo_logits: Vec<u64> = solo.iter().map(|s| s.0).collect();
            assert_eq!(batched, solo_logits, "config {ci}: batched logits changed");
            // `token_weights()` reports the last sequence of the batch:
            // rotate each sequence to the end (the memo still covers all).
            for i in 0..batch.len() {
                let mut rotated = batch.clone();
                rotated.rotate_left(i + 1);
                m.infer_logits(&rotated);
                let w: Option<Vec<u64>> = m
                    .token_weights()
                    .map(|w| w.iter().map(|v| v.to_bits()).collect());
                assert_eq!(w, solo[i].1, "config {ci}: weights of sequence {i}");
            }
            // The caches a batched call leaves behind backpropagate like
            // those of a single call on its last sequence (several tokens,
            // so the attention gradient is not trivially zero).
            let grads_bits = |m: &mut SevulDetCnn| -> Vec<Vec<u64>> {
                m.backward(0.5);
                m.take_grads()
                    .iter()
                    .map(|g| g.data().iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            let (mut solo_m, mut batched_m) = (m.clone(), m.clone());
            solo_m.infer_logits(std::slice::from_ref(batch.last().unwrap()));
            batched_m.infer_logits(&batch);
            assert_eq!(
                grads_bits(&mut batched_m),
                grads_bits(&mut solo_m),
                "config {ci}: gradients after a batched call"
            );
            // The f32 tier: a sequence's logit has the same bits alone,
            // inside the batch, and at every batch position.
            let mut fast = m.to_f32();
            let solo: Vec<u64> = batch
                .iter()
                .map(|ids| fast.infer_logits(std::slice::from_ref(ids))[0].to_bits())
                .collect();
            for i in 0..batch.len() {
                let mut rotated = batch.clone();
                rotated.rotate_left(i);
                let got: Vec<u64> = fast
                    .infer_logits(&rotated)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let mut want = solo.clone();
                want.rotate_left(i);
                assert_eq!(got, want, "config {ci}: f32 batch rotated by {i}");
            }
        }
    }

    #[test]
    fn training_forward_runs_the_inference_layers() {
        // At dropout 0 the training forward and inference run the same
        // layers, so their logits share bits. With dropout on, training
        // forwards draw masks from the RNG, and inference after them still
        // has the dropout-off bits: it reads no RNG or mask state.
        let seqs: Vec<Vec<usize>> = vec![vec![1, 5, 6, 2], vec![], vec![7, 7, 3], vec![9999, 4]];
        let build = |arch: usize, dropout: f64| -> Box<dyn SequenceClassifier> {
            let mut rng = StdRng::seed_from_u64(300 + arch as u64);
            let cnn = |cfg: CnnConfig| CnnConfig {
                channels: 8,
                dropout,
                ..cfg
            };
            match arch {
                0 => Box::new(SevulDetCnn::new(
                    table(8, 8, 301),
                    cnn(CnnConfig::default()),
                    &mut rng,
                )),
                1 => Box::new(SevulDetCnn::new(
                    table(8, 8, 302),
                    cnn(CnnConfig::plain()),
                    &mut rng,
                )),
                2 => Box::new(RnnNet::new(
                    table(8, 8, 303),
                    CellKind::Lstm,
                    6,
                    16,
                    dropout,
                    &mut rng,
                )),
                _ => Box::new(RnnNet::new(
                    table(8, 8, 304),
                    CellKind::Gru,
                    6,
                    16,
                    dropout,
                    &mut rng,
                )),
            }
        };
        let bits = |v: Vec<f64>| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        for arch in 0..4 {
            let mut m = build(arch, 0.0);
            let want = bits(m.infer_logits(&seqs));
            let mut rng = StdRng::seed_from_u64(305);
            let trained: Vec<f64> = seqs
                .iter()
                .map(|ids| m.forward_logit(ids, &mut rng))
                .collect();
            assert_eq!(
                bits(trained),
                want,
                "arch {arch}: training forward at dropout 0"
            );

            let mut m = build(arch, 0.5);
            assert_eq!(
                bits(m.infer_logits(&seqs)),
                want,
                "arch {arch}: dropout is off"
            );
            for ids in &seqs {
                m.forward_logit(ids, &mut rng);
            }
            assert_eq!(
                bits(m.infer_logits(&seqs)),
                want,
                "arch {arch}: after training forwards"
            );
        }
    }

    #[test]
    fn sevuldet_cnn_learns_adjacent_pattern() {
        let mut rng = StdRng::seed_from_u64(250);
        let cfg = CnnConfig {
            channels: 8,
            ..CnnConfig::default()
        };
        let mut m = SevulDetCnn::new(table(8, 8, 251), cfg, &mut rng);
        let acc = learnable(&mut m, 252);
        assert!(acc >= 0.85, "accuracy {acc}");
    }

    #[test]
    fn plain_cnn_learns_too() {
        let mut rng = StdRng::seed_from_u64(53);
        let cfg = CnnConfig {
            channels: 8,
            ..CnnConfig::plain()
        };
        let mut m = SevulDetCnn::new(table(8, 8, 54), cfg, &mut rng);
        let acc = learnable(&mut m, 55);
        assert!(acc >= 0.8, "accuracy {acc}");
    }

    #[test]
    fn blstm_learns_adjacent_pattern() {
        let mut rng = StdRng::seed_from_u64(56);
        let mut m = RnnNet::new(table(8, 8, 57), CellKind::Lstm, 12, 16, 0.0, &mut rng);
        let acc = learnable(&mut m, 58);
        assert!(acc >= 0.8, "accuracy {acc}");
    }

    #[test]
    fn bgru_learns_adjacent_pattern() {
        let mut rng = StdRng::seed_from_u64(59);
        let mut m = RnnNet::new(table(8, 8, 60), CellKind::Gru, 12, 16, 0.0, &mut rng);
        let acc = learnable(&mut m, 61);
        assert!(acc >= 0.8, "accuracy {acc}");
    }

    #[test]
    fn cnn_handles_variable_and_extreme_lengths() {
        let mut rng = StdRng::seed_from_u64(62);
        let mut m = SevulDetCnn::new(table(8, 6, 63), CnnConfig::default(), &mut rng);
        for len in [1usize, 2, 7, 100, 700] {
            let ids: Vec<usize> = (0..len).map(|i| i % 8).collect();
            let logit = infer(&mut m, &ids);
            assert!(logit.is_finite(), "len={len}");
        }
        // Empty input is padded to one token rather than panicking.
        assert!(infer(&mut m, &[]).is_finite());
    }

    #[test]
    fn fixed_len_variant_truncates() {
        let mut rng = StdRng::seed_from_u64(64);
        let cfg = CnnConfig {
            fixed_len: Some(4),
            token_attention: true,
            ..CnnConfig::default()
        };
        let mut m = SevulDetCnn::new(table(8, 6, 65), cfg, &mut rng);
        let _ = infer(&mut m, &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(m.token_weights().unwrap().len(), 4);
    }

    #[test]
    fn token_weights_exposed_only_with_attention() {
        let mut rng = StdRng::seed_from_u64(66);
        let mut m = SevulDetCnn::new(table(8, 6, 67), CnnConfig::plain(), &mut rng);
        let _ = infer(&mut m, &[1, 2]);
        assert!(m.token_weights().is_none());
        let mut m = SevulDetCnn::new(table(8, 6, 68), CnnConfig::default(), &mut rng);
        let _ = infer(&mut m, &[1, 2]);
        assert_eq!(m.token_weights().unwrap().len(), 2);
    }

    #[test]
    fn take_and_add_grads_reproduce_direct_accumulation() {
        // Extracting each sample's gradient and merging in order matches
        // direct accumulation up to summation-order rounding (layers that
        // accumulate per-position associate differently); the trainer's
        // bit-identity guarantee is across jobs counts, where the merge
        // order — and thus the summation tree — is exactly the same.
        let mut rng = StdRng::seed_from_u64(71);
        let mut direct = SevulDetCnn::new(table(8, 6, 72), CnnConfig::default(), &mut rng);
        let mut staged = direct.clone();
        let samples: [(&[usize], f64); 2] = [(&[1, 5, 6, 2], 1.0), (&[3, 2, 4], 0.0)];

        for (ids, label) in samples {
            let logit = infer(&mut direct, ids);
            let (_, dl) = bce_with_logits(logit, label);
            direct.backward(dl);
        }

        let mut extracted = Vec::new();
        for (ids, label) in samples {
            let logit = infer(&mut staged, ids);
            let (_, dl) = bce_with_logits(logit, label);
            staged.backward(dl);
            extracted.push(staged.take_grads());
        }
        for grads in &extracted {
            staged.add_grads(grads);
        }

        for (a, b) in direct.params_mut().iter().zip(staged.params_mut().iter()) {
            for (&x, &y) in a.g.data().iter().zip(b.g.data()) {
                let scale = x.abs().max(y.abs()).max(1e-30);
                assert!(
                    (x - y).abs() / scale < 1e-9,
                    "merged grad diverged: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn take_grads_leaves_zeros() {
        let mut rng = StdRng::seed_from_u64(73);
        let mut m = SevulDetCnn::new(table(8, 6, 74), CnnConfig::default(), &mut rng);
        let logit = infer(&mut m, &[1, 2, 3]);
        let (_, dl) = bce_with_logits(logit, 1.0);
        m.backward(dl);
        let grads = m.take_grads();
        assert!(grads.iter().any(|g| g.data().iter().any(|&v| v != 0.0)));
        for p in m.params_mut() {
            assert!(p.g.data().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn degenerate_fixed_len_zero_still_runs() {
        let mut rng = StdRng::seed_from_u64(75);
        let cfg = CnnConfig {
            fixed_len: Some(0),
            ..CnnConfig::default()
        };
        let mut m = SevulDetCnn::new(table(8, 6, 76), cfg, &mut rng);
        assert!(infer(&mut m, &[]).is_finite());
        assert!(infer(&mut m, &[1, 2, 3]).is_finite());
    }

    #[test]
    fn whole_model_gradient_direction_reduces_loss() {
        // One SGD step on a single example must reduce that example's loss.
        let mut rng = StdRng::seed_from_u64(69);
        let mut m = SevulDetCnn::new(table(8, 6, 70), CnnConfig::default(), &mut rng);
        let ids = [1usize, 5, 6, 2, 3];
        let logit0 = infer(&mut m, &ids);
        let (loss0, dl) = bce_with_logits(logit0, 1.0);
        infer(&mut m, &ids);
        m.backward(dl);
        let mut opt = crate::optim::Sgd::new(0.05, 0.0);
        opt.step(&mut m.params_mut());
        let logit1 = infer(&mut m, &ids);
        let (loss1, _) = bce_with_logits(logit1, 1.0);
        assert!(loss1 < loss0, "{loss1} !< {loss0}");
    }
}
