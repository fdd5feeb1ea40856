//! Basic layers: dense, ReLU, dropout, embedding, 1-D convolution, and
//! spatial pyramid pooling. Every layer caches what its backward pass needs
//! and accumulates parameter gradients into [`Param::g`].
//!
//! Each layer has two entry points: the original allocating `forward` /
//! `backward` (kept for tests and gradient checks) and an `_into` /
//! `_inplace` variant that writes into caller-owned buffers. The hot model
//! paths use the latter exclusively, so a warmed-up forward+backward pass
//! performs no heap allocation. Both variants produce bit-identical values
//! (the allocating ones are thin wrappers).
//!
//! The forward passes are generic over the [`Scalar`] they compute in, so
//! the f32 inference tier runs this same code (see [`crate::precision`]);
//! backward passes and initialization are f64 only.

use crate::kernels::{self, Workspace};
use crate::param::Param;
use crate::scalar::Scalar;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Fully-connected layer on vectors: `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Dense<S: Scalar = f64> {
    /// Weight matrix `(out × in)`.
    pub w: Param<S>,
    /// Bias `(out)`.
    pub b: Param<S>,
    cache_x: Vec<S>,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialised weights.
    pub fn new(input: usize, output: usize, rng: &mut StdRng) -> Dense {
        Dense {
            w: Param::xavier(&[output, input], input, output, rng),
            b: Param::zeros(&[output]),
            cache_x: Vec::new(),
        }
    }
}

impl<S: Scalar> Dense<S> {
    /// An inference copy at precision `T`.
    pub(crate) fn convert<T: Scalar>(&self) -> Dense<T> {
        Dense {
            w: self.w.convert(),
            b: self.b.convert(),
            cache_x: Vec::new(),
        }
    }

    /// Forward pass writing into a caller-owned output buffer.
    pub fn forward_into(&mut self, x: &[S], y: &mut Vec<S>) {
        let (out, inp) = (self.w.w.rows(), self.w.w.cols());
        assert_eq!(x.len(), inp);
        self.cache_x.clear();
        self.cache_x.extend_from_slice(x);
        y.clear();
        y.resize(out, S::ZERO);
        S::matvec(y, self.w.w.data(), x, out, inp);
        for (yo, &bo) in y.iter_mut().zip(self.b.w.data()) {
            *yo += bo;
        }
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &[S]) -> Vec<S> {
        let mut y = Vec::new();
        self.forward_into(x, &mut y);
        y
    }
}

impl Dense {
    /// Backward pass writing `dx` into a caller-owned buffer.
    pub fn backward_into(&mut self, dy: &[f64], dx: &mut Vec<f64>) {
        let (out, inp) = (self.w.w.rows(), self.w.w.cols());
        assert_eq!(dy.len(), out);
        for i in 0..out {
            self.b.g.data_mut()[i] += dy[i];
            let gi = dy[i];
            let wrow = &mut self.w.g.data_mut()[i * inp..(i + 1) * inp];
            for (gw, &x) in wrow.iter_mut().zip(&self.cache_x) {
                *gw += gi * x;
            }
        }
        dx.clear();
        dx.resize(inp, 0.0);
        for i in 0..out {
            let wrow = &self.w.w.data()[i * inp..(i + 1) * inp];
            for (dxj, &w) in dx.iter_mut().zip(wrow) {
                *dxj += dy[i] * w;
            }
        }
    }

    /// Backward pass: accumulates dW/db, returns dx.
    pub fn backward(&mut self, dy: &[f64]) -> Vec<f64> {
        let mut dx = Vec::new();
        self.backward_into(dy, &mut dx);
        dx
    }

    /// The layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Elementwise ReLU on a tensor.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Relu {
        Relu::default()
    }

    /// Forward pass rectifying `x` in place.
    pub fn forward_inplace<S: Scalar>(&mut self, x: &mut Tensor<S>) {
        self.forward_vec_inplace(x.data_mut());
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        self.forward_inplace(&mut y);
        y
    }

    /// Backward pass masking `dy` in place.
    pub fn backward_inplace(&self, dy: &mut Tensor) {
        self.backward_vec_inplace(dy.data_mut());
    }

    /// Backward pass.
    pub fn backward(&self, dy: &Tensor) -> Tensor {
        let mut dx = dy.clone();
        self.backward_inplace(&mut dx);
        dx
    }

    /// Vector convenience forward, in place.
    pub fn forward_vec_inplace<S: Scalar>(&mut self, x: &mut [S]) {
        self.mask.clear();
        self.mask.extend(x.iter().map(|&v| v > S::ZERO));
        for v in x.iter_mut() {
            *v = v.max(S::ZERO);
        }
    }

    /// Vector convenience backward, in place.
    pub fn backward_vec_inplace(&self, dy: &mut [f64]) {
        for (g, &m) in dy.iter_mut().zip(&self.mask) {
            if !m {
                *g = 0.0;
            }
        }
    }
}

/// Inverted dropout on vectors.
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Drop probability.
    pub p: f64,
    mask: Vec<f64>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    pub fn new(p: f64) -> Dropout {
        assert!((0.0..1.0).contains(&p), "p must be in [0,1)");
        Dropout {
            p,
            mask: Vec::new(),
        }
    }

    /// Forward pass scaling `x` in place at any precision: `rng` is `Some`
    /// when training, `None` for inference (identity).
    pub fn forward_inplace<S: Scalar>(&mut self, x: &mut [S], rng: Option<&mut StdRng>) {
        self.mask.clear();
        let rng = match rng {
            Some(rng) if self.p != 0.0 => rng,
            _ => {
                self.mask.resize(x.len(), 1.0);
                return;
            }
        };
        let keep = 1.0 - self.p;
        for v in x.iter_mut() {
            let m = if rng.gen::<f64>() < keep {
                1.0 / keep
            } else {
                0.0
            };
            self.mask.push(m);
            *v *= S::from_f64(m);
        }
    }

    /// Backward pass masking `dy` in place.
    pub fn backward_inplace(&self, dy: &mut [f64]) {
        for (g, &m) in dy.iter_mut().zip(&self.mask) {
            *g *= m;
        }
    }
}

/// Token-id embedding lookup: ids → `(L × D)`.
#[derive(Debug, Clone)]
pub struct Embedding<S = f64> {
    /// The `(V × D)` table.
    pub table: Param<S>,
    cache_ids: Vec<usize>,
}

impl Embedding {
    /// Creates an embedding from a pre-trained `(V × D)` table (e.g.
    /// word2vec output). The table remains trainable.
    pub fn from_table(table: Tensor) -> Embedding {
        let g = Tensor::zeros(table.shape());
        Embedding {
            table: Param { w: table, g },
            cache_ids: Vec::new(),
        }
    }
}

impl<S: Scalar> Embedding<S> {
    /// An inference copy at precision `T`.
    pub(crate) fn convert<T: Scalar>(&self) -> Embedding<T> {
        Embedding {
            table: self.table.convert(),
            cache_ids: Vec::new(),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.w.cols()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.w.rows()
    }

    /// Looks up a sequence of ids into a caller-owned `(L × D)` tensor
    /// (out-of-range ids map to row 0).
    pub fn forward_into(&mut self, ids: &[usize], out: &mut Tensor<S>) {
        self.cache_ids.clear();
        self.cache_ids.extend_from_slice(ids);
        let d = self.dim();
        let vocab = self.vocab();
        out.resize(&[ids.len(), d]);
        for (t, &id) in ids.iter().enumerate() {
            let id = if id < vocab { id } else { 0 };
            out.row_mut(t).copy_from_slice(self.table.w.row(id));
        }
    }

    /// Looks up a sequence of ids (out-of-range ids map to row 0).
    pub fn forward(&mut self, ids: &[usize]) -> Tensor<S> {
        let mut out = Tensor::zeros(&[0, 0]);
        self.forward_into(ids, &mut out);
        out
    }
}

impl Embedding {
    /// Accumulates gradients for the looked-up rows.
    pub fn backward(&mut self, d_out: &Tensor) {
        let d = self.dim();
        let vocab = self.vocab();
        for (t, &id) in self.cache_ids.iter().enumerate() {
            let id = if id < vocab { id } else { 0 };
            let src = d_out.row(t);
            let dst = &mut self.table.g.data_mut()[id * d..(id + 1) * d];
            for (g, &s) in dst.iter_mut().zip(src) {
                *g += s;
            }
        }
    }
}

/// 1-D convolution over a `(L × C_in)` sequence with 'same' zero padding.
///
/// Forward and backward are lowered to im2col + one GEMM each (see
/// `kernels`): forward multiplies the `(L × k·C_in)` im2col matrix of the
/// input by the transposed kernel into a bias-initialized output; backward
/// gets `dW` from `dyᵀ · cols` and `dx` from the im2col matrix of `dy`
/// times the tap-reversed kernel. The accumulation order of every output
/// element matches the original scalar loops, so results are bit-identical
/// (the property tests in `kernels` pin this against the frozen loops).
#[derive(Debug, Clone)]
pub struct Conv1d<S: Scalar = f64> {
    /// Kernel `(C_out × k × C_in)`.
    pub w: Param<S>,
    /// Bias `(C_out)`.
    pub b: Param<S>,
    k: usize,
    c_in: usize,
    c_out: usize,
    /// The `(L × k·C_in)` im2col matrix of the last input — the only
    /// forward state backward needs (replacing the old full-input clone;
    /// the GEMM-form weight gradient consumes it directly).
    cols: Tensor<S>,
}

impl Conv1d {
    /// Creates a convolution with kernel width `k` (must be odd for 'same'
    /// padding).
    ///
    /// # Panics
    ///
    /// Panics when `k` is even.
    pub fn new(c_in: usize, c_out: usize, k: usize, rng: &mut StdRng) -> Conv1d {
        assert!(k % 2 == 1, "kernel width must be odd for same padding");
        Conv1d {
            w: Param::xavier(&[c_out, k * c_in], k * c_in, c_out, rng),
            b: Param::zeros(&[c_out]),
            k,
            c_in,
            c_out,
            cols: Tensor::zeros(&[0, 0]),
        }
    }
}

impl<S: Scalar> Conv1d<S> {
    /// An inference copy at precision `T`.
    pub(crate) fn convert<T: Scalar>(&self) -> Conv1d<T> {
        Conv1d {
            w: self.w.convert(),
            b: self.b.convert(),
            k: self.k,
            c_in: self.c_in,
            c_out: self.c_out,
            cols: Tensor::zeros(&[0, 0]),
        }
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Forward pass into a caller-owned output: `(L × C_in) → (L × C_out)`.
    pub fn forward_into(&mut self, x: &Tensor<S>, out: &mut Tensor<S>, ws: &mut Workspace<S>) {
        assert_eq!(x.cols(), self.c_in);
        let l = x.rows();
        let kc = self.k * self.c_in;
        self.cols.resize(&[l, kc]);
        kernels::im2col_into(self.cols.data_mut(), x.data(), l, self.c_in, self.k);
        out.resize(&[l, self.c_out]);
        for t in 0..l {
            out.row_mut(t).copy_from_slice(self.b.w.data());
        }
        let mut wt = ws.acquire(kc * self.c_out);
        kernels::transpose_into(&mut wt, self.w.w.data(), self.c_out, kc);
        S::gemm_acc(out.data_mut(), self.cols.data(), &wt, l, kc, self.c_out);
        ws.release(wt);
    }

    /// Forward pass: `(L × C_in) → (L × C_out)`.
    pub fn forward(&mut self, x: &Tensor<S>) -> Tensor<S> {
        let mut ws = Workspace::new();
        let mut out = Tensor::zeros(&[0, 0]);
        self.forward_into(x, &mut out, &mut ws);
        out
    }
}

impl Conv1d {
    /// Backward pass into a caller-owned `dx`: accumulates kernel/bias
    /// grads.
    pub fn backward_into(&mut self, dy: &Tensor, dx: &mut Tensor, ws: &mut Workspace) {
        let l = self.cols.rows();
        let kc = self.k * self.c_in;
        let kco = self.k * self.c_out;
        assert_eq!(dy.rows(), l);
        assert_eq!(dy.cols(), self.c_out);
        // Bias: per channel, positions in ascending order, zeros skipped —
        // the original loop's accumulation order.
        {
            let bg = self.b.g.data_mut();
            for t in 0..l {
                for (g, &v) in bg.iter_mut().zip(dy.row(t)) {
                    if v != 0.0 {
                        *g += v;
                    }
                }
            }
        }
        // dW += dyᵀ · cols: the GEMM's k-dimension is t ascending with the
        // dy == 0 skip, matching the original loop per kernel element.
        let mut dyt = ws.acquire(self.c_out * l);
        kernels::transpose_into(&mut dyt, dy.data(), l, self.c_out);
        kernels::gemm_acc(
            self.w.g.data_mut(),
            &dyt,
            self.cols.data(),
            self.c_out,
            l,
            kc,
        );
        ws.release(dyt);
        // dx = im2col(dy) · W_flip, where W_flip row (jr·C_out + co) is the
        // kernel tap j = k−1−jr of output channel co. Ascending
        // (jr, co) visits exactly the (source position, channel) pairs of
        // the original scatter loop in the same order, with the same skips.
        let mut ycols = ws.acquire(l * kco);
        kernels::im2col_into(&mut ycols, dy.data(), l, self.c_out, self.k);
        let mut wflip = ws.acquire(kco * self.c_in);
        for jr in 0..self.k {
            let j = self.k - 1 - jr;
            for co in 0..self.c_out {
                let src = &self.w.w.data()[co * kc + j * self.c_in..co * kc + (j + 1) * self.c_in];
                wflip[(jr * self.c_out + co) * self.c_in..(jr * self.c_out + co + 1) * self.c_in]
                    .copy_from_slice(src);
            }
        }
        dx.resize(&[l, self.c_in]);
        dx.fill_zero();
        kernels::gemm_acc(dx.data_mut(), &ycols, &wflip, l, kco, self.c_in);
        ws.release(wflip);
        ws.release(ycols);
    }

    /// Backward pass: accumulates kernel/bias grads, returns `dx`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut ws = Workspace::new();
        let mut dx = Tensor::zeros(&[0, 0]);
        self.backward_into(dy, &mut dx, &mut ws);
        dx
    }

    /// The layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Spatial pyramid pooling over a `(L × C)` map.
///
/// The length axis is divided into `bins` segments per level (the paper uses
/// 4, 2, 1); each segment is max-pooled per channel and the results are
/// concatenated into a fixed `(Σbins) × C` vector — independent of `L`, which
/// is what frees the network from fixed-length inputs.
#[derive(Debug, Clone)]
pub struct Spp {
    /// Pyramid levels (segments per level).
    pub bins: Vec<usize>,
    argmax: Vec<usize>,
    in_shape: [usize; 2],
}

impl Spp {
    /// Creates an SPP layer with the paper's 4/2/1 pyramid.
    pub fn paper() -> Spp {
        Spp::new(vec![4, 2, 1])
    }

    /// Creates an SPP layer with custom levels.
    pub fn new(bins: Vec<usize>) -> Spp {
        assert!(!bins.is_empty());
        Spp {
            bins,
            argmax: Vec::new(),
            in_shape: [0, 0],
        }
    }

    /// Output length: `(Σ bins) × C`.
    pub fn out_len(&self, channels: usize) -> usize {
        self.bins.iter().sum::<usize>() * channels
    }

    /// Forward pass into a caller-owned buffer: `(L × C) → flat vector`.
    ///
    /// An empty input (a degenerate gadget that normalized to zero tokens)
    /// pools to an all-zero vector instead of panicking; `backward` then
    /// routes no gradient.
    pub fn forward_into<S: Scalar>(&mut self, x: &Tensor<S>, out: &mut Vec<S>) {
        let (l, c) = (x.rows(), x.cols());
        self.in_shape = [l, c];
        let total: usize = self.bins.iter().sum();
        out.clear();
        out.resize(total * c, S::ZERO);
        self.argmax.clear();
        if l == 0 {
            return;
        }
        self.argmax.resize(total * c, 0);
        let mut slot = 0;
        for &b in &self.bins {
            for seg in 0..b {
                // Segment [start, end): ceil-split so every segment is
                // non-empty even when L < b (segments then overlap-free by
                // clamping, duplicating the last position when needed).
                let start = (seg * l) / b;
                let mut end = ((seg + 1) * l) / b;
                if end <= start {
                    end = (start + 1).min(l);
                }
                let start = start.min(l - 1);
                // Row by row, every channel's running max sees its values
                // in ascending `t`, as a per-channel scan would.
                let best = &mut out[slot * c..(slot + 1) * c];
                let best_t = &mut self.argmax[slot * c..(slot + 1) * c];
                best.fill(S::NEG_INFINITY);
                best_t.fill(start);
                for t in start..end.max(start + 1) {
                    for ((b, bt), &v) in best.iter_mut().zip(best_t.iter_mut()).zip(x.row(t)) {
                        if v > *b {
                            *b = v;
                            *bt = t;
                        }
                    }
                }
                slot += 1;
            }
        }
    }

    /// Forward pass: `(L × C) → flat vector`.
    pub fn forward<S: Scalar>(&mut self, x: &Tensor<S>) -> Vec<S> {
        let mut out = Vec::new();
        self.forward_into(x, &mut out);
        out
    }

    /// Backward pass into a caller-owned `dx`: routes gradients to the
    /// argmax positions.
    pub fn backward_into(&self, dy: &[f64], dx: &mut Tensor) {
        let [l, c] = self.in_shape;
        dx.resize(&[l, c]);
        dx.fill_zero();
        if l == 0 {
            return;
        }
        for (i, &g) in dy.iter().enumerate() {
            let ch = i % c;
            let t = self.argmax[i];
            dx.add_at(t, ch, g);
        }
    }

    /// Backward pass: routes gradients to the argmax positions.
    pub fn backward(&self, dy: &[f64]) -> Tensor {
        let mut dx = Tensor::zeros(&[0, 0]);
        self.backward_into(dy, &mut dx);
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_input_grad_vec, check_param_grads};
    use crate::kernels::reference;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_known() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(2, 2, &mut rng);
        d.w.w = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        d.b.w = Tensor::vector(&[0.5, -0.5]);
        assert_eq!(d.forward(&[1., 1.]), vec![3.5, 6.5]);
    }

    #[test]
    fn dense_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = vec![0.3, -0.7, 1.1];
        check_param_grads(
            &mut d,
            |l| l.params_mut(),
            |l| {
                let y = l.forward(&x);
                y.iter().sum()
            },
            |l| {
                l.forward(&x);
                l.backward(&[1.0, 1.0]);
            },
        );
        check_input_grad_vec(
            &x,
            |xs| {
                let mut d2 = d.clone();
                d2.forward(xs).iter().sum()
            },
            {
                let mut d2 = d.clone();
                d2.forward(&x);
                d2.backward(&[1.0, 1.0])
            },
        );
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::vector(&[-1.0, 2.0]));
        assert_eq!(y.data(), &[0.0, 2.0]);
        let dx = r.backward(&Tensor::vector(&[5.0, 5.0]));
        assert_eq!(dx.data(), &[0.0, 5.0]);
    }

    #[test]
    fn dropout_eval_is_identity_and_train_scales() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dropout::new(0.5);
        let x = vec![1.0; 1000];
        let mut y = x.clone();
        d.forward_inplace(&mut y, None);
        assert_eq!(y, x);
        let mut y = x.clone();
        d.forward_inplace(&mut y, Some(&mut rng));
        let mean = y.iter().sum::<f64>() / 1000.0;
        assert!(
            (mean - 1.0).abs() < 0.15,
            "inverted dropout keeps scale, mean={mean}"
        );
        let mut dy = vec![1.0; 1000];
        d.backward_inplace(&mut dy);
        assert_eq!(dy, d.mask);
    }

    #[test]
    fn embedding_lookup_and_grad() {
        let table = Tensor::from_vec(&[3, 2], vec![0., 0., 1., 2., 3., 4.]);
        let mut e = Embedding::from_table(table);
        let out = e.forward(&[2, 1, 2]);
        assert_eq!(out.row(0), &[3., 4.]);
        assert_eq!(out.row(1), &[1., 2.]);
        let mut dy = Tensor::zeros(&[3, 2]);
        dy.row_mut(0).copy_from_slice(&[1.0, 1.0]);
        dy.row_mut(2).copy_from_slice(&[1.0, 1.0]);
        e.backward(&dy);
        assert_eq!(e.table.g.row(2), &[2.0, 2.0]);
        assert_eq!(e.table.g.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn embedding_out_of_range_maps_to_zero_row() {
        let table = Tensor::from_vec(&[2, 1], vec![9., 5.]);
        let mut e = Embedding::from_table(table);
        let out = e.forward(&[7]);
        assert_eq!(out.row(0), &[9.0]);
    }

    #[test]
    fn conv1d_same_padding_shape_and_known_value() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = Conv1d::new(1, 1, 3, &mut rng);
        c.w.w = Tensor::from_vec(&[1, 3], vec![1.0, 1.0, 1.0]);
        c.b.w = Tensor::vector(&[0.0]);
        let x = Tensor::from_vec(&[4, 1], vec![1., 2., 3., 4.]);
        let y = c.forward(&x);
        assert_eq!(y.shape(), &[4, 1]);
        // moving sum with zero pads: [1+2, 1+2+3, 2+3+4, 3+4]
        assert_eq!(y.data(), &[3., 6., 9., 7.]);
    }

    #[test]
    fn conv1d_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = Conv1d::new(2, 3, 3, &mut rng);
        let x = Tensor::from_vec(&[5, 2], (0..10).map(|i| (i as f64) * 0.1 - 0.4).collect());
        check_param_grads(
            &mut c,
            |l| l.params_mut(),
            |l| l.forward(&x).sum(),
            |l| {
                let y = l.forward(&x);
                l.backward(&Tensor::full(y.shape(), 1.0));
            },
        );
        let mut c2 = c.clone();
        let y = c2.forward(&x);
        let dx = c2.backward(&Tensor::full(y.shape(), 1.0));
        // Finite-difference on input.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += 1e-5;
            let mut xm = x.clone();
            xm.data_mut()[i] -= 1e-5;
            let fp = c.clone().forward(&xp).sum();
            let fm = c.clone().forward(&xm).sum();
            let num = (fp - fm) / 2e-5;
            assert!(
                (num - dx.data()[i]).abs() < 1e-6,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    /// The full layer (not just the raw kernels) against the frozen naive
    /// loops: forward, weight/bias/input grads, all `to_bits`-identical,
    /// across lengths including the L=0 and L=1 edges.
    #[test]
    fn conv1d_bit_identical_to_frozen_naive_loops() {
        for (l, c_in, c_out, k) in [(0, 2, 3, 3), (1, 1, 1, 1), (1, 2, 3, 5), (7, 3, 4, 3)] {
            let mut rng = StdRng::seed_from_u64(42 + l as u64);
            let mut conv = Conv1d::new(c_in, c_out, k, &mut rng);
            let x = Tensor::from_vec(
                &[l, c_in],
                (0..l * c_in)
                    .map(|i| ((i * 7 + 3) % 11) as f64 * 0.25 - 1.0)
                    .collect(),
            );
            let dy = Tensor::from_vec(
                &[l, c_out],
                (0..l * c_out)
                    .map(|i| {
                        if i % 4 == 0 {
                            0.0
                        } else {
                            (i % 5) as f64 * 0.5 - 1.0
                        }
                    })
                    .collect(),
            );
            let y = conv.forward(&x);
            let dx = conv.backward(&dy);
            let naive_y = reference::conv1d_forward_naive(
                x.data(),
                conv.w.w.data(),
                conv.b.w.data(),
                l,
                c_in,
                c_out,
                k,
            );
            let (ndb, ndw, ndx) = reference::conv1d_backward_naive(
                x.data(),
                conv.w.w.data(),
                dy.data(),
                l,
                c_in,
                c_out,
                k,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y.data()), bits(&naive_y), "forward L={l}");
            assert_eq!(bits(dx.data()), bits(&ndx), "dx L={l}");
            assert_eq!(bits(conv.w.g.data()), bits(&ndw), "dw L={l}");
            assert_eq!(bits(conv.b.g.data()), bits(&ndb), "db L={l}");
        }
    }

    #[test]
    fn spp_output_is_length_independent() {
        let mut spp = Spp::paper();
        for l in [1usize, 3, 7, 50, 500] {
            let x = Tensor::from_vec(&[l, 2], (0..l * 2).map(|i| i as f64).collect());
            let y = spp.forward(&x);
            assert_eq!(y.len(), 7 * 2, "L={l}");
        }
    }

    #[test]
    fn spp_max_pools_each_segment() {
        let mut spp = Spp::new(vec![2]);
        let x = Tensor::from_vec(&[4, 1], vec![1., 9., 2., 3.]);
        let y = spp.forward(&x);
        assert_eq!(y, vec![9., 3.]);
        let dx = spp.backward(&[1.0, 1.0]);
        assert_eq!(dx.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn spp_empty_input_pools_to_zeros() {
        let mut spp = Spp::paper();
        let x = Tensor::<f64>::zeros(&[0, 3]);
        let y = spp.forward(&x);
        assert_eq!(y.len(), 7 * 3);
        assert!(y.iter().all(|&v| v == 0.0));
        let dx = spp.backward(&vec![1.0; y.len()]);
        assert_eq!(dx.shape(), &[0, 3]);
    }

    #[test]
    fn spp_gradient_routes_to_argmax() {
        let mut spp = Spp::paper();
        let x = Tensor::from_vec(&[6, 1], vec![0., 5., 1., 2., 8., 3.]);
        let y = spp.forward(&x);
        let dy = vec![1.0; y.len()];
        let dx = spp.backward(&dy);
        // Gradient mass equals output count; the global max (t=4, value 8)
        // wins its segment at every pyramid level, so it collects at least 3.
        assert_eq!(dx.sum(), y.len() as f64);
        assert!(dx.at(4, 0) >= 3.0);
    }
}
