//! Recurrent baselines: LSTM and GRU cells with BPTT, plus a bidirectional
//! sequence encoder. These power the BLSTM/BGRU comparison networks of
//! Tables II and V (VulDeePecker uses a BLSTM; SySeVR's best model is a
//! BGRU). Both consume *fixed-length* token windows — the very limitation
//! SPP removes.
//!
//! The input projection `Wx·x_t` for the whole sequence is one GEMM on the
//! kernel layer, and all per-step state lives in structure-of-arrays caches
//! that are reused across calls, so a warmed-up forward/backward pass
//! allocates nothing.

use crate::kernels::{self, Workspace};
use crate::param::Param;
use crate::tensor::{sigmoid, Tensor};
use rand::rngs::StdRng;

/// Which recurrent cell a sequence encoder uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Long short-term memory.
    Lstm,
    /// Gated recurrent unit.
    Gru,
}

/// One directional recurrent encoder (LSTM or GRU).
#[derive(Debug, Clone)]
pub struct Rnn {
    kind: CellKind,
    /// Input-to-gates weights `(G·H × D)` (G = 4 for LSTM, 3 for GRU).
    pub wx: Param,
    /// Hidden-to-gates weights `(G·H × H)`.
    pub wh: Param,
    /// Gate biases `(G·H)`.
    pub b: Param,
    h: usize,
    d: usize,
    // Structure-of-arrays step caches, reused across calls. `cache_h` and
    // `cache_c` carry L+1 rows with row 0 the (zero) initial state, so step
    // t reads row t and writes row t+1.
    steps: usize,
    cache_x: Tensor,     // (L × D)
    cache_h: Tensor,     // (L+1 × H)
    cache_c: Tensor,     // (L+1 × H), LSTM only
    cache_gates: Tensor, // (L × G·H) post-activation
    cache_px: Tensor,    // (L × G·H) batched Wx·x_t
    cache_ph: Tensor,    // (L × G·H) Wh·h_{t-1} (GRU backward reads it)
    scratch_pre: Vec<f64>,
    scratch_dpre: Vec<f64>,
    scratch_dpre_n_h: Vec<f64>,
    scratch_dh: Vec<f64>,
    scratch_dh_prev: Vec<f64>,
    scratch_dc: Vec<f64>,
    ws: Workspace,
}

impl Rnn {
    /// Creates a recurrent encoder with input dim `d` and hidden dim `h`.
    pub fn new(kind: CellKind, d: usize, h: usize, rng: &mut StdRng) -> Rnn {
        let g = match kind {
            CellKind::Lstm => 4,
            CellKind::Gru => 3,
        };
        let mut b = Param::zeros(&[g * h]);
        if kind == CellKind::Lstm {
            // Forget-gate bias init to 1 (standard trick for gradient flow).
            for i in h..2 * h {
                b.w.data_mut()[i] = 1.0;
            }
        }
        Rnn {
            kind,
            wx: Param::xavier(&[g * h, d], d, h, rng),
            wh: Param::xavier(&[g * h, h], h, h, rng),
            b,
            h,
            d,
            steps: 0,
            cache_x: Tensor::zeros(&[0, 0]),
            cache_h: Tensor::zeros(&[0, 0]),
            cache_c: Tensor::zeros(&[0, 0]),
            cache_gates: Tensor::zeros(&[0, 0]),
            cache_px: Tensor::zeros(&[0, 0]),
            cache_ph: Tensor::zeros(&[0, 0]),
            scratch_pre: Vec::new(),
            scratch_dpre: Vec::new(),
            scratch_dpre_n_h: Vec::new(),
            scratch_dh: Vec::new(),
            scratch_dh_prev: Vec::new(),
            scratch_dc: Vec::new(),
            ws: Workspace::new(),
        }
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> usize {
        self.h
    }

    /// How many timesteps the last `forward_into` processed (0 before any
    /// forward pass).
    pub fn last_steps(&self) -> usize {
        self.steps
    }

    /// The cached hidden state after timestep `t` of the last forward pass
    /// (`t` in `0..last_steps()`); `t = 0` is the state after the first input.
    pub fn step_state(&self, t: usize) -> &[f64] {
        assert!(t < self.steps);
        self.cache_h.row(t + 1)
    }

    fn gate_count(&self) -> usize {
        match self.kind {
            CellKind::Lstm => 4,
            CellKind::Gru => 3,
        }
    }

    /// Runs the sequence, writing the final hidden state into `h_out`.
    pub fn forward_into(&mut self, xs: &Tensor, h_out: &mut Vec<f64>) {
        assert_eq!(xs.cols(), self.d);
        let l = xs.rows();
        let h = self.h;
        let gh = self.gate_count() * h;
        self.steps = l;
        self.cache_x.copy_from(xs);
        // Batched input projection: px = X·Wxᵀ as one GEMM over the whole
        // sequence (dense — the per-step matvec it replaces never skipped).
        let mut wxt = self.ws.acquire(self.d * gh);
        kernels::transpose_into(&mut wxt, self.wx.w.data(), gh, self.d);
        self.cache_px.resize(&[l, gh]);
        self.cache_px.fill_zero();
        kernels::gemm_acc_dense(self.cache_px.data_mut(), xs.data(), &wxt, l, self.d, gh);
        self.ws.release(wxt);
        self.cache_h.resize(&[l + 1, h]);
        self.cache_h.fill_zero();
        self.cache_c.resize(&[l + 1, h]);
        self.cache_c.fill_zero();
        self.cache_gates.resize(&[l, gh]);
        self.cache_ph.resize(&[l, gh]);
        for t in 0..l {
            // ph_t = Wh·h_{t-1}.
            kernels::matvec_into(
                self.cache_ph.row_mut(t),
                self.wh.w.data(),
                self.cache_h.row(t),
                gh,
                h,
            );
            match self.kind {
                CellKind::Lstm => {
                    // pre = px + ph + b, gate order [i, f, g, o].
                    self.scratch_pre.clear();
                    self.scratch_pre.extend_from_slice(self.cache_px.row(t));
                    {
                        let ph = self.cache_ph.row(t);
                        let b = self.b.w.data();
                        for i in 0..gh {
                            self.scratch_pre[i] += ph[i] + b[i];
                        }
                    }
                    let pre = &self.scratch_pre;
                    let gates = self.cache_gates.row_mut(t);
                    for i in 0..h {
                        gates[i] = sigmoid(pre[i]); // i
                        gates[h + i] = sigmoid(pre[h + i]); // f
                        gates[2 * h + i] = pre[2 * h + i].tanh(); // g
                        gates[3 * h + i] = sigmoid(pre[3 * h + i]); // o
                    }
                    let (c_lo, c_hi) = self.cache_c.data_mut().split_at_mut((t + 1) * h);
                    let c_prev = &c_lo[t * h..];
                    let c = &mut c_hi[..h];
                    let (_, h_hi) = self.cache_h.data_mut().split_at_mut((t + 1) * h);
                    let hn = &mut h_hi[..h];
                    for i in 0..h {
                        c[i] = gates[h + i] * c_prev[i] + gates[i] * gates[2 * h + i];
                        hn[i] = gates[3 * h + i] * c[i].tanh();
                    }
                }
                CellKind::Gru => {
                    // Gate order [z, r, n]; n uses r∘(Wh·h_prev).
                    let px = self.cache_px.row(t);
                    let ph = self.cache_ph.row(t);
                    let b = self.b.w.data();
                    let gates = self.cache_gates.row_mut(t);
                    let (h_lo, h_hi) = self.cache_h.data_mut().split_at_mut((t + 1) * h);
                    let h_prev = &h_lo[t * h..];
                    let hn = &mut h_hi[..h];
                    for i in 0..h {
                        gates[i] = sigmoid(px[i] + ph[i] + b[i]); // z
                        gates[h + i] = sigmoid(px[h + i] + ph[h + i] + b[h + i]);
                        // r
                    }
                    for i in 0..h {
                        let n_pre = px[2 * h + i] + gates[h + i] * ph[2 * h + i] + b[2 * h + i];
                        let n = n_pre.tanh();
                        gates[2 * h + i] = n;
                        hn[i] = (1.0 - gates[i]) * n + gates[i] * h_prev[i];
                    }
                }
            }
        }
        h_out.clear();
        h_out.extend_from_slice(self.cache_h.row(l));
    }

    /// Runs the sequence, returning the final hidden state.
    pub fn forward(&mut self, xs: &Tensor) -> Vec<f64> {
        let mut h_out = Vec::new();
        self.forward_into(xs, &mut h_out);
        h_out
    }

    /// BPTT from a gradient on the *final* hidden state. Accumulates
    /// parameter gradients; writes per-step input gradients `(L × D)` into
    /// `dxs`.
    pub fn backward_into(&mut self, dh_last: &[f64], dxs: &mut Tensor) {
        let steps = self.steps;
        let h = self.h;
        let d = self.d;
        let gh = self.gate_count() * h;
        dxs.resize(&[steps, d]);
        dxs.fill_zero();
        self.scratch_dh.clear();
        self.scratch_dh.extend_from_slice(dh_last);
        self.scratch_dc.clear();
        self.scratch_dc.resize(h, 0.0);
        for t in (0..steps).rev() {
            self.scratch_dh_prev.clear();
            self.scratch_dh_prev.resize(h, 0.0);
            self.scratch_dpre.clear();
            self.scratch_dpre.resize(gh, 0.0);
            match self.kind {
                CellKind::Lstm => {
                    let gates = self.cache_gates.row(t);
                    let (c_row, c_prev) = (self.cache_c.row(t + 1), self.cache_c.row(t));
                    let dh = &self.scratch_dh;
                    let dc = &mut self.scratch_dc;
                    let dpre = &mut self.scratch_dpre;
                    for i in 0..h {
                        let o = gates[3 * h + i];
                        let tc = c_row[i].tanh();
                        let dci = dc[i] + dh[i] * o * (1.0 - tc * tc);
                        let di = dci * gates[2 * h + i];
                        let df = dci * c_prev[i];
                        let dg = dci * gates[i];
                        let do_ = dh[i] * tc;
                        dpre[i] = di * gates[i] * (1.0 - gates[i]);
                        dpre[h + i] = df * gates[h + i] * (1.0 - gates[h + i]);
                        dpre[2 * h + i] = dg * (1.0 - gates[2 * h + i] * gates[2 * h + i]);
                        dpre[3 * h + i] = do_ * o * (1.0 - o);
                        dc[i] = dci * gates[h + i];
                    }
                }
                CellKind::Gru => {
                    // Forward convention (PyTorch-style, r gates per output
                    // unit): n_pre_i = px_i + r_i·ph_i + b_i. ph comes from
                    // the forward cache instead of a matvec recompute.
                    self.scratch_dpre_n_h.clear();
                    self.scratch_dpre_n_h.resize(h, 0.0);
                    let gates = self.cache_gates.row(t);
                    let ph = self.cache_ph.row(t);
                    let h_prev = self.cache_h.row(t);
                    let dh = &self.scratch_dh;
                    let dh_prev = &mut self.scratch_dh_prev;
                    let dpre = &mut self.scratch_dpre;
                    let dpre_n_h = &mut self.scratch_dpre_n_h;
                    for i in 0..h {
                        let z = gates[i];
                        let r = gates[h + i];
                        let n = gates[2 * h + i];
                        let dz = dh[i] * (h_prev[i] - n);
                        let dn = dh[i] * (1.0 - z);
                        dh_prev[i] += dh[i] * z;
                        let dn_pre = dn * (1.0 - n * n);
                        let dr = dn_pre * ph[2 * h + i];
                        dpre[i] = dz * z * (1.0 - z);
                        dpre[h + i] = dr * r * (1.0 - r);
                        dpre[2 * h + i] = dn_pre;
                        dpre_n_h[i] = dn_pre * r;
                    }
                }
            }
            // Shared per-step accumulation (zero pre-activation gradients
            // contribute nothing and are skipped, as before).
            let x_row = self.cache_x.row(t);
            let hp_row = self.cache_h.row(t);
            let dx = dxs.row_mut(t);
            for gi in 0..gh {
                let g = self.scratch_dpre[gi];
                if g == 0.0 {
                    continue;
                }
                self.b.g.data_mut()[gi] += g;
                for j in 0..d {
                    self.wx.g.data_mut()[gi * d + j] += g * x_row[j];
                    dx[j] += g * self.wx.w.data()[gi * d + j];
                }
                // Wh path: GRU n-rows use the r-scaled gradient.
                let gw = if self.kind == CellKind::Gru && gi >= 2 * h {
                    self.scratch_dpre_n_h[gi - 2 * h]
                } else {
                    g
                };
                for j in 0..h {
                    self.wh.g.data_mut()[gi * h + j] += gw * hp_row[j];
                    self.scratch_dh_prev[j] += gw * self.wh.w.data()[gi * h + j];
                }
            }
            std::mem::swap(&mut self.scratch_dh, &mut self.scratch_dh_prev);
        }
    }

    /// BPTT from a gradient on the *final* hidden state; returns per-step
    /// input gradients `(L × D)`.
    pub fn backward(&mut self, dh_last: &[f64]) -> Tensor {
        let mut dxs = Tensor::zeros(&[0, 0]);
        self.backward_into(dh_last, &mut dxs);
        dxs
    }

    /// The encoder's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }
}

/// A bidirectional encoder: one forward and one backward [`Rnn`]; output is
/// the concatenation of both final hidden states (`2H`).
#[derive(Debug, Clone)]
pub struct BiRnn {
    /// Forward-direction cell.
    pub fwd: Rnn,
    /// Backward-direction cell.
    pub bwd: Rnn,
    rev: Tensor,
    h_tmp: Vec<f64>,
}

impl BiRnn {
    /// Creates a bidirectional encoder.
    pub fn new(kind: CellKind, d: usize, h: usize, rng: &mut StdRng) -> BiRnn {
        BiRnn {
            fwd: Rnn::new(kind, d, h, rng),
            bwd: Rnn::new(kind, d, h, rng),
            rev: Tensor::zeros(&[0, 0]),
            h_tmp: Vec::new(),
        }
    }

    /// Encodes a `(L × D)` sequence into a `2H` vector written to `out`.
    pub fn forward_into(&mut self, xs: &Tensor, out: &mut Vec<f64>) {
        self.fwd.forward_into(xs, out);
        reverse_rows_into(xs, &mut self.rev);
        self.bwd.forward_into(&self.rev, &mut self.h_tmp);
        out.extend_from_slice(&self.h_tmp);
    }

    /// Encodes a `(L × D)` sequence into a `2H` vector.
    pub fn forward(&mut self, xs: &Tensor) -> Vec<f64> {
        let mut out = Vec::new();
        self.forward_into(xs, &mut out);
        out
    }

    /// Per-position saliency from the last forward pass: for each timestep
    /// the L2 norm of the hidden-state delta `‖h_t − h_{t−1}‖` summed over
    /// both directions (the backward cell's step for position `t` is its own
    /// step `L−1−t`). Positions where the recurrent state moves a lot are the
    /// ones the encoder is reacting to — a deterministic relevance proxy for
    /// cells that have no attention layer. Empty before any forward pass.
    pub fn token_saliency(&self) -> Vec<f64> {
        let l = self.fwd.last_steps();
        if l == 0 || l != self.bwd.last_steps() {
            return Vec::new();
        }
        let delta = |cell: &Rnn, t: usize| -> f64 {
            let cur = cell.step_state(t);
            let mut acc = 0.0;
            if t == 0 {
                for &v in cur {
                    acc += v * v;
                }
            } else {
                for (&a, &b) in cur.iter().zip(cell.step_state(t - 1)) {
                    let d = a - b;
                    acc += d * d;
                }
            }
            acc.sqrt()
        };
        (0..l)
            .map(|t| delta(&self.fwd, t) + delta(&self.bwd, l - 1 - t))
            .collect()
    }

    /// BPTT; writes the input gradient `(L × D)` into `dx`.
    pub fn backward_into(&mut self, dout: &[f64], dx: &mut Tensor) {
        let h = self.fwd.hidden();
        self.fwd.backward_into(&dout[..h], dx);
        self.bwd.backward_into(&dout[h..], &mut self.rev);
        let l = dx.rows();
        for t in 0..l {
            let src = self.rev.row(l - 1 - t);
            for (a, &b) in dx.row_mut(t).iter_mut().zip(src) {
                *a += b;
            }
        }
    }

    /// BPTT; returns the input gradient `(L × D)`.
    pub fn backward(&mut self, dout: &[f64]) -> Tensor {
        let mut dx = Tensor::zeros(&[0, 0]);
        self.backward_into(dout, &mut dx);
        dx
    }

    /// The encoder's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.fwd.params_mut();
        v.extend(self.bwd.params_mut());
        v
    }
}

fn reverse_rows_into(x: &Tensor, out: &mut Tensor) {
    let (l, d) = (x.rows(), x.cols());
    out.resize(&[l, d]);
    for t in 0..l {
        out.row_mut(t).copy_from_slice(x.row(l - 1 - t));
    }
}

#[cfg(test)]
fn reverse_rows(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[0, 0]);
    reverse_rows_into(x, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_grads;
    use rand::{Rng, SeedableRng};

    fn sample(l: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            &[l, d],
            (0..l * d).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    #[test]
    fn lstm_final_state_changes_with_input() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut r = Rnn::new(CellKind::Lstm, 3, 4, &mut rng);
        let a = r.forward(&sample(5, 3, 1));
        let b = r.forward(&sample(5, 3, 2));
        assert_ne!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn lstm_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut r = Rnn::new(CellKind::Lstm, 2, 3, &mut rng);
        let xs = sample(4, 2, 33);
        check_param_grads(
            &mut r,
            |l| l.params_mut(),
            |l| l.forward(&xs).iter().sum(),
            |l| {
                let h = l.forward(&xs);
                l.backward(&vec![1.0; h.len()]);
            },
        );
    }

    #[test]
    fn lstm_input_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(34);
        let r = Rnn::new(CellKind::Lstm, 2, 3, &mut rng);
        let xs = sample(4, 2, 35);
        let mut rr = r.clone();
        let h = rr.forward(&xs);
        let dx = rr.backward(&vec![1.0; h.len()]);
        for i in 0..xs.len() {
            let mut xp = xs.clone();
            xp.data_mut()[i] += 1e-5;
            let mut xm = xs.clone();
            xm.data_mut()[i] -= 1e-5;
            let fp: f64 = r.clone().forward(&xp).iter().sum();
            let fm: f64 = r.clone().forward(&xm).iter().sum();
            let num = (fp - fm) / 2e-5;
            assert!(
                (num - dx.data()[i]).abs() < 1e-5,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn gru_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(36);
        let mut r = Rnn::new(CellKind::Gru, 2, 3, &mut rng);
        let xs = sample(4, 2, 37);
        check_param_grads(
            &mut r,
            |l| l.params_mut(),
            |l| l.forward(&xs).iter().sum(),
            |l| {
                let h = l.forward(&xs);
                l.backward(&vec![1.0; h.len()]);
            },
        );
    }

    #[test]
    fn gru_input_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(38);
        let r = Rnn::new(CellKind::Gru, 2, 3, &mut rng);
        let xs = sample(4, 2, 39);
        let mut rr = r.clone();
        let h = rr.forward(&xs);
        let dx = rr.backward(&vec![1.0; h.len()]);
        for i in 0..xs.len() {
            let mut xp = xs.clone();
            xp.data_mut()[i] += 1e-5;
            let mut xm = xs.clone();
            xm.data_mut()[i] -= 1e-5;
            let fp: f64 = r.clone().forward(&xp).iter().sum();
            let fm: f64 = r.clone().forward(&xm).iter().sum();
            let num = (fp - fm) / 2e-5;
            assert!(
                (num - dx.data()[i]).abs() < 1e-5,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn birnn_concats_directions_and_backprops() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut b = BiRnn::new(CellKind::Lstm, 2, 3, &mut rng);
        let xs = sample(5, 2, 41);
        let out = b.forward(&xs);
        assert_eq!(out.len(), 6);
        let dx = b.backward(&[1.0; 6]);
        assert_eq!(dx.shape(), &[5, 2]);
        // Input gradient check.
        let fresh = b.clone();
        for i in 0..xs.len() {
            let mut xp = xs.clone();
            xp.data_mut()[i] += 1e-5;
            let mut xm = xs.clone();
            xm.data_mut()[i] -= 1e-5;
            let fp: f64 = fresh.clone().forward(&xp).iter().sum();
            let fm: f64 = fresh.clone().forward(&xm).iter().sum();
            let num = (fp - fm) / 2e-5;
            assert!((num - dx.data()[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn reverse_rows_flips() {
        let x = Tensor::from_vec(&[3, 1], vec![1., 2., 3.]);
        assert_eq!(reverse_rows(&x).data(), &[3., 2., 1.]);
    }

    #[test]
    fn repeated_calls_reuse_buffers_and_match_fresh_state() {
        // A warmed-up encoder (buffers already sized from a longer input)
        // must produce exactly the results of a cold one.
        for kind in [CellKind::Lstm, CellKind::Gru] {
            let mut rng = StdRng::seed_from_u64(44);
            let warm0 = Rnn::new(kind, 3, 4, &mut rng);
            let mut warm = warm0.clone();
            let long = sample(9, 3, 45);
            warm.forward(&long);
            warm.backward(&[1.0; 4]);
            warm.wx.g.fill_zero();
            warm.wh.g.fill_zero();
            warm.b.g.fill_zero();
            let mut cold = warm0;
            let xs = sample(4, 3, 46);
            let hw = warm.forward(&xs);
            let hc = cold.forward(&xs);
            assert_eq!(hw, hc, "{kind:?} forward diverged after buffer reuse");
            let dw = warm.backward(&[1.0; 4]);
            let dc = cold.backward(&[1.0; 4]);
            assert_eq!(dw, dc, "{kind:?} backward diverged after buffer reuse");
        }
    }
}
