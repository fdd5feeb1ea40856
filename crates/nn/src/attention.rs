//! The multilayer attention mechanism: token attention (Step IV) and the
//! CBAM channel + spatial attention used during model training (Step V).
//!
//! Both blocks run on the kernel layer: token attention's projection and
//! its weight/input gradients are single GEMMs (dense variants, since the
//! loops they replace never skipped zeros), and every temporary lives in a
//! caller-owned [`Workspace`] so a warmed-up pass allocates nothing. The
//! per-element accumulation orders match the original loops, keeping
//! results bit-identical. Forward passes are generic over the [`Scalar`]
//! (the f32 tier runs them too); backward passes are f64 only.

use crate::kernels::{self, Workspace};
use crate::param::Param;
use crate::scalar::Scalar;
use crate::tensor::{sigmoid, softmax_into, Tensor};
use rand::rngs::StdRng;

/// Token attention (Step IV, equations 1-4).
///
/// For each embedded token `x_i`: `u_i = tanh(W·x_i + b)`, importance
/// `α_i = softmax_i(u_i · u_w)` against a learned context query `u_w`, and
/// the re-weighted embedding `x̂_i = α_i · x_i`.
#[derive(Debug, Clone)]
pub struct TokenAttention<S = f64> {
    /// Projection `(A × D)`.
    pub w: Param<S>,
    /// Projection bias `(A)`.
    pub b: Param<S>,
    /// Context query `(A)` — "a fixed attention query for context
    /// information" trained jointly.
    pub u_w: Param<S>,
    cache: Option<TokenAttCache<S>>,
}

#[derive(Debug, Clone)]
struct TokenAttCache<S> {
    x: Tensor<S>,
    u: Tensor<S>, // (L × A) post-tanh
    scores: Vec<S>,
    alpha: Vec<S>,
}

impl<S: Scalar> TokenAttCache<S> {
    fn empty() -> TokenAttCache<S> {
        TokenAttCache {
            x: Tensor::zeros(&[0, 0]),
            u: Tensor::zeros(&[0, 0]),
            scores: Vec::new(),
            alpha: Vec::new(),
        }
    }
}

/// `out_t = α_t · x_t` for every row `t`.
fn scale_rows_into<S: Scalar>(x: &Tensor<S>, alpha: &[S], out: &mut Tensor<S>) {
    out.resize(x.shape());
    for t in 0..x.rows() {
        for (o, &v) in out.row_mut(t).iter_mut().zip(x.row(t)) {
            *o = alpha[t] * v;
        }
    }
}

/// Token-attention scores computed once per distinct token id of a
/// forward call ([`TokenAttention::fill_memo`]), so a token that occurs
/// many times in a sequence or a batch pays for its projection and `tanh`
/// calls once. A memo is valid only for the weights it was filled with:
/// [`crate::SevulDetCnn`] resets and refills its memo on every call, so
/// there is no cross-call state to invalidate.
#[derive(Debug, Clone)]
pub(crate) struct TokenScoreMemo<S> {
    /// `slot[id]` is the memo row of `id`, or `usize::MAX` when absent.
    slot: Vec<usize>,
    /// Distinct ids in first-seen order (row `r` belongs to `ids[r]`).
    ids: Vec<usize>,
    /// `(R × D)` embedding rows of `ids`.
    x: Tensor<S>,
    /// `(R × A)` post-tanh projections.
    u: Tensor<S>,
    /// `(R)` scores `u_r · u_w`.
    scores: Vec<S>,
}

impl<S: Scalar> TokenScoreMemo<S> {
    pub(crate) fn new() -> TokenScoreMemo<S> {
        TokenScoreMemo {
            slot: Vec::new(),
            ids: Vec::new(),
            x: Tensor::zeros(&[0, 0]),
            u: Tensor::zeros(&[0, 0]),
            scores: Vec::new(),
        }
    }

    /// Empties the memo for a vocabulary of `vocab` ids, keeping its
    /// storage. Ids at or past `vocab` stand for id 0, as in
    /// [`crate::Embedding`].
    pub(crate) fn reset(&mut self, vocab: usize) {
        for &id in &self.ids {
            self.slot[id] = usize::MAX;
        }
        self.ids.clear();
        self.scores.clear();
        self.slot.resize(vocab.max(1), usize::MAX);
    }

    fn clamp(&self, id: usize) -> usize {
        if id < self.slot.len() {
            id
        } else {
            0
        }
    }

    /// Registers the ids of one sequence.
    pub(crate) fn insert(&mut self, ids: &[usize]) {
        for &id in ids {
            let id = self.clamp(id);
            if self.slot[id] == usize::MAX {
                self.slot[id] = self.ids.len();
                self.ids.push(id);
            }
        }
    }

    fn row(&self, id: usize) -> usize {
        let r = self.slot[self.clamp(id)];
        assert!(r < self.scores.len(), "id {id} missing from the score memo");
        r
    }
}

impl TokenAttention {
    /// Creates token attention over embedding dim `d` with attention dim `a`.
    pub fn new(d: usize, a: usize, rng: &mut StdRng) -> TokenAttention {
        TokenAttention {
            w: Param::xavier(&[a, d], d, a, rng),
            b: Param::zeros(&[a]),
            u_w: Param::uniform(&[a], 0.1, rng),
            cache: None,
        }
    }
}

impl<S: Scalar> TokenAttention<S> {
    /// An inference copy at precision `T`.
    pub(crate) fn convert<T: Scalar>(&self) -> TokenAttention<T> {
        TokenAttention {
            w: self.w.convert(),
            b: self.b.convert(),
            u_w: self.u_w.convert(),
            cache: None,
        }
    }

    /// The attention weights of the last forward pass (for Fig. 6-style
    /// visualization).
    pub fn last_weights(&self) -> Option<&[S]> {
        self.cache.as_ref().map(|c| c.alpha.as_slice())
    }

    /// Forward pass into a caller-owned output: `(L × D) → (L × D)`
    /// re-weighted embeddings. This projects every row; [`crate::SevulDetCnn`]
    /// goes through `fill_memo` and `forward_memo_into`
    /// instead, which project each distinct token once and match this bit
    /// for bit.
    pub fn forward_into(&mut self, x: &Tensor<S>, out: &mut Tensor<S>, ws: &mut Workspace<S>) {
        let mut cache = self.cache.take().unwrap_or_else(TokenAttCache::empty);
        cache.x.copy_from(x);
        self.project_into(x, &mut cache.u, &mut cache.scores, ws);
        softmax_into(&cache.scores, &mut cache.alpha);
        scale_rows_into(x, &cache.alpha, out);
        self.cache = Some(cache);
    }

    /// `u_t = tanh(W·x_t + b)` into `u (L × A)` and `score_t = u_t · u_w`
    /// into `scores`, for every row `t` of `x`. Each row's values depend
    /// only on that row of `x`, which is what lets [`Self::fill_memo`]
    /// compute them once per distinct token.
    fn project_into(
        &self,
        x: &Tensor<S>,
        u: &mut Tensor<S>,
        scores: &mut Vec<S>,
        ws: &mut Workspace<S>,
    ) {
        let l = x.rows();
        let d = x.cols();
        let a_dim = self.w.w.rows();
        // U = X·Wᵀ as one GEMM (the old path was a strict per-row matvec,
        // hence the dense variant), then bias + tanh per element.
        let mut wt = ws.acquire(d * a_dim);
        kernels::transpose_into(&mut wt, self.w.w.data(), a_dim, d);
        u.resize(&[l, a_dim]);
        u.fill_zero();
        S::gemm_acc_dense(u.data_mut(), x.data(), &wt, l, d, a_dim);
        ws.release(wt);
        scores.clear();
        scores.resize(l, S::ZERO);
        for t in 0..l {
            let urow = u.row_mut(t);
            for (uo, &bo) in urow.iter_mut().zip(self.b.w.data()) {
                *uo = (*uo + bo).tanh();
            }
            scores[t] = urow
                .iter()
                .zip(self.u_w.w.data())
                .map(|(&a, &b)| a * b)
                .sum();
        }
    }

    /// Scores every id registered in `memo` against the embedding `table`
    /// with the same arithmetic as [`Self::forward_into`] (one projection
    /// row per distinct id instead of one per token).
    pub(crate) fn fill_memo(
        &self,
        memo: &mut TokenScoreMemo<S>,
        table: &Tensor<S>,
        ws: &mut Workspace<S>,
    ) {
        memo.x.resize(&[memo.ids.len(), table.cols()]);
        for (r, &id) in memo.ids.iter().enumerate() {
            memo.x.row_mut(r).copy_from_slice(table.row(id));
        }
        self.project_into(&memo.x, &mut memo.u, &mut memo.scores, ws);
    }

    /// [`Self::forward_into`] for a pass whose token scores were
    /// precomputed by [`Self::fill_memo`]: `ids` are the token ids `x` was
    /// embedded from. The result, the captured weights and the backward
    /// cache are bit-identical to [`Self::forward_into`] on the same `x`.
    pub(crate) fn forward_memo_into(
        &mut self,
        x: &Tensor<S>,
        ids: &[usize],
        memo: &TokenScoreMemo<S>,
        out: &mut Tensor<S>,
    ) {
        assert_eq!(x.rows(), ids.len(), "one id per embedded row");
        let mut cache = self.cache.take().unwrap_or_else(TokenAttCache::empty);
        cache.x.copy_from(x);
        cache.u.resize(&[ids.len(), memo.u.cols()]);
        cache.scores.clear();
        for (t, &id) in ids.iter().enumerate() {
            let r = memo.row(id);
            cache.u.row_mut(t).copy_from_slice(memo.u.row(r));
            cache.scores.push(memo.scores[r]);
        }
        softmax_into(&cache.scores, &mut cache.alpha);
        scale_rows_into(x, &cache.alpha, out);
        self.cache = Some(cache);
    }

    /// Forward pass: `(L × D) → (L × D)` re-weighted embeddings.
    pub fn forward(&mut self, x: &Tensor<S>) -> Tensor<S> {
        let mut ws = Workspace::new();
        let mut out = Tensor::zeros(&[0, 0]);
        self.forward_into(x, &mut out, &mut ws);
        out
    }
}

impl TokenAttention {
    /// Backward pass into a caller-owned `dx`.
    pub fn backward_into(&mut self, dy: &Tensor, dx: &mut Tensor, ws: &mut Workspace) {
        let cache = self.cache.take().expect("forward before backward");
        let l = cache.x.rows();
        let d = cache.x.cols();
        let a_dim = self.w.w.rows();

        // dα_t = Σ_d dy[t,d]·x[t,d];  dx (direct) = dy·α.
        let mut dalpha = ws.acquire(l);
        dx.resize(&[l, d]);
        for t in 0..l {
            let mut s = 0.0;
            let (dyr, xr) = (dy.row(t), cache.x.row(t));
            let dxr = dx.row_mut(t);
            for j in 0..d {
                s += dyr[j] * xr[j];
                dxr[j] = dyr[j] * cache.alpha[t];
            }
            dalpha[t] = s;
        }
        // Softmax backward: ds_t = α_t (dα_t − Σ_k α_k dα_k).
        let dot: f64 = cache.alpha.iter().zip(&*dalpha).map(|(a, g)| a * g).sum();

        // score_t = u_t · u_w with u_t = tanh(W x_t + b): collect the
        // pre-activation gradients dpre into an (L × A) matrix so the W
        // and input gradients become two GEMMs below.
        let mut dp = ws.acquire(l * a_dim);
        for t in 0..l {
            let ds = cache.alpha[t] * (dalpha[t] - dot);
            let ut = cache.u.row(t);
            // du_w += ds_t · u_t
            for (g, &u) in self.u_w.g.data_mut().iter_mut().zip(ut) {
                *g += ds * u;
            }
            // du_t = ds_t · u_w, through tanh: dpre = du·(1−u²)
            let dpr = &mut dp[t * a_dim..(t + 1) * a_dim];
            for ai in 0..a_dim {
                let dpre = ds * self.u_w.w.data()[ai] * (1.0 - ut[ai] * ut[ai]);
                self.b.g.data_mut()[ai] += dpre;
                dpr[ai] = dpre;
            }
        }
        // dW += dpᵀ·X (k-dim = t ascending) and dx += dp·W (k-dim = ai
        // ascending) — the same per-element orders as the original nested
        // loops, which never skipped, hence the dense variants.
        let mut dpt = ws.acquire(a_dim * l);
        kernels::transpose_into(&mut dpt, &dp, l, a_dim);
        kernels::gemm_acc_dense(self.w.g.data_mut(), &dpt, cache.x.data(), a_dim, l, d);
        kernels::gemm_acc_dense(dx.data_mut(), &dp, self.w.w.data(), l, a_dim, d);
        ws.release(dpt);
        ws.release(dp);
        ws.release(dalpha);
        self.cache = Some(cache);
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut ws = Workspace::new();
        let mut dx = Tensor::zeros(&[0, 0]);
        self.backward_into(dy, &mut dx, &mut ws);
        dx
    }

    /// The layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b, &mut self.u_w]
    }
}

/// How the CBAM channel and spatial gates combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CbamOrder {
    /// `F'' = Ms(Mc(F)⊗F) ⊗ (Mc(F)⊗F)` — the paper's choice ("the
    /// sequential alignment of the two modules gives better results").
    Sequential,
    /// Both gates computed from `F` and applied jointly:
    /// `F'' = F ⊗ Mc(F) ⊗ Ms(F)` — the ablation arrangement.
    Parallel,
}

/// CBAM (channel then spatial attention) adapted to `(L × C)` sequence maps
/// — equations 5-8 of the paper. The modules run sequentially by default,
/// which the paper observes works better than a parallel arrangement;
/// [`Cbam::with_order`] builds the parallel ablation.
#[derive(Debug, Clone)]
pub struct Cbam<S = f64> {
    order: CbamOrder,
    /// Shared MLP layer 0 `(C/r × C)`.
    pub w0: Param<S>,
    /// Shared MLP bias 0 `(C/r)`.
    pub b0: Param<S>,
    /// Shared MLP layer 1 `(C × C/r)`.
    pub w1: Param<S>,
    /// Shared MLP bias 1 `(C)`.
    pub b1: Param<S>,
    /// Spatial 7-wide conv kernel `(7 × 2)` + bias.
    pub wc: Param<S>,
    /// Spatial conv bias `(1)`.
    pub bc: Param<S>,
    k: usize,
    cache: Option<CbamCache<S>>,
}

#[derive(Debug, Clone)]
struct CbamCache<S> {
    f: Tensor<S>,    // input
    avg: Vec<S>,     // (C)
    mx: Vec<S>,      // (C)
    amx: Vec<usize>, // argmax over L per channel
    ha_pre: Vec<S>,  // (C/r) pre-relu (avg path)
    hm_pre: Vec<S>,  // (C/r) pre-relu (max path)
    oa: Vec<S>,      // (C) MLP output, avg path
    om: Vec<S>,      // (C) MLP output, max path
    mc: Vec<S>,      // (C) channel gate
    f1: Tensor<S>,   // after channel attention
    sa: Vec<S>,      // (L) spatial mean
    sm: Vec<S>,      // (L) spatial max
    sam: Vec<usize>, // argmax over C per position
    z: Vec<S>,       // (L) conv pre-sigmoid
    ms: Vec<S>,      // (L) spatial gate
}

impl<S: Scalar> CbamCache<S> {
    fn empty() -> CbamCache<S> {
        CbamCache {
            f: Tensor::zeros(&[0, 0]),
            avg: Vec::new(),
            mx: Vec::new(),
            amx: Vec::new(),
            ha_pre: Vec::new(),
            hm_pre: Vec::new(),
            oa: Vec::new(),
            om: Vec::new(),
            mc: Vec::new(),
            f1: Tensor::zeros(&[0, 0]),
            sa: Vec::new(),
            sm: Vec::new(),
            sam: Vec::new(),
            z: Vec::new(),
            ms: Vec::new(),
        }
    }
}

impl Cbam {
    /// Creates a CBAM block for `c` channels with reduction ratio `r` and a
    /// spatial kernel of width `k` (paper: 7), in sequential order.
    pub fn new(c: usize, r: usize, k: usize, rng: &mut StdRng) -> Cbam {
        Cbam::with_order(c, r, k, CbamOrder::Sequential, rng)
    }

    /// Creates a CBAM block with an explicit gate arrangement (the paper's
    /// sequential-vs-parallel ablation).
    pub fn with_order(c: usize, r: usize, k: usize, order: CbamOrder, rng: &mut StdRng) -> Cbam {
        let h = (c / r).max(1);
        assert!(k % 2 == 1);
        Cbam {
            order,
            w0: Param::xavier(&[h, c], c, h, rng),
            b0: Param::zeros(&[h]),
            w1: Param::xavier(&[c, h], h, c, rng),
            b1: Param::zeros(&[c]),
            wc: Param::xavier(&[k, 2], 2 * k, 1, rng),
            bc: Param::zeros(&[1]),
            k,
            cache: None,
        }
    }
}

impl<S: Scalar> Cbam<S> {
    /// An inference copy at precision `T`.
    pub(crate) fn convert<T: Scalar>(&self) -> Cbam<T> {
        Cbam {
            order: self.order,
            w0: self.w0.convert(),
            b0: self.b0.convert(),
            w1: self.w1.convert(),
            b1: self.b1.convert(),
            wc: self.wc.convert(),
            bc: self.bc.convert(),
            k: self.k,
            cache: None,
        }
    }

    /// The configured gate arrangement.
    pub fn order(&self) -> CbamOrder {
        self.order
    }

    /// The spatial gate of the last forward pass (per-position weights,
    /// useful for attention visualization).
    pub fn last_spatial_gate(&self) -> Option<&[S]> {
        self.cache.as_ref().map(|c| c.ms.as_slice())
    }

    /// The channel gate of the last forward pass (per-channel weights,
    /// the other half of the Fig. 6 attention picture).
    pub fn last_channel_gate(&self) -> Option<&[S]> {
        self.cache.as_ref().map(|c| c.mc.as_slice())
    }

    /// The shared MLP: `o = W1·relu(W0·s + b0) + b1`, writing pre-relu and
    /// output into caller buffers.
    fn mlp_into(&self, s: &[S], pre: &mut Vec<S>, o: &mut Vec<S>, ws: &mut Workspace<S>) {
        let h = self.w0.w.rows();
        let c = self.w1.w.rows();
        pre.clear();
        pre.resize(h, S::ZERO);
        S::matvec(pre, self.w0.w.data(), s, h, self.w0.w.cols());
        for (p, &b) in pre.iter_mut().zip(self.b0.w.data()) {
            *p += b;
        }
        let mut h_act = ws.acquire(h);
        for (ha, &p) in h_act.iter_mut().zip(pre.iter()) {
            *ha = p.max(S::ZERO);
        }
        o.clear();
        o.resize(c, S::ZERO);
        S::matvec(o, self.w1.w.data(), &h_act, c, h);
        for (p, &b) in o.iter_mut().zip(self.b1.w.data()) {
            *p += b;
        }
        ws.release(h_act);
    }

    /// Forward pass into a caller-owned output:
    /// `F → F'' = Ms(F') ⊗ F'`, `F' = Mc(F) ⊗ F`.
    pub fn forward_into(&mut self, f: &Tensor<S>, out: &mut Tensor<S>, ws: &mut Workspace<S>) {
        let (l, c) = (f.rows(), f.cols());
        let mut cache = self.cache.take().unwrap_or_else(CbamCache::empty);
        cache.f.copy_from(f);
        // ---- channel attention ----
        cache.avg.clear();
        cache.avg.resize(c, S::ZERO);
        cache.mx.clear();
        cache.mx.resize(c, S::NEG_INFINITY);
        cache.amx.clear();
        cache.amx.resize(c, 0);
        for t in 0..l {
            for (ch, &v) in f.row(t).iter().enumerate() {
                cache.avg[ch] += v;
                if v > cache.mx[ch] {
                    cache.mx[ch] = v;
                    cache.amx[ch] = t;
                }
            }
        }
        for a in cache.avg.iter_mut() {
            *a /= S::from_usize(l);
        }
        let CbamCache {
            avg,
            mx,
            ha_pre,
            hm_pre,
            oa,
            om,
            ..
        } = &mut cache;
        self.mlp_into(avg, ha_pre, oa, ws);
        self.mlp_into(mx, hm_pre, om, ws);
        cache.mc.clear();
        cache.mc.extend(
            cache
                .oa
                .iter()
                .zip(&cache.om)
                .map(|(&a, &m)| sigmoid(a + m)),
        );
        cache.f1.resize(&[l, c]);
        for t in 0..l {
            for ((o, &v), &m) in cache.f1.row_mut(t).iter_mut().zip(f.row(t)).zip(&cache.mc) {
                *o = v * m;
            }
        }
        // ---- spatial attention ----
        // Sequential order pools the channel-gated map F'; the parallel
        // ablation pools the raw input F.
        let spatial_src = if self.order == CbamOrder::Sequential {
            &cache.f1
        } else {
            f
        };
        cache.sa.clear();
        cache.sa.resize(l, S::ZERO);
        cache.sm.clear();
        cache.sm.resize(l, S::NEG_INFINITY);
        cache.sam.clear();
        cache.sam.resize(l, 0);
        for t in 0..l {
            for (ch, &v) in spatial_src.row(t).iter().enumerate() {
                cache.sa[t] += v;
                if v > cache.sm[t] {
                    cache.sm[t] = v;
                    cache.sam[t] = ch;
                }
            }
            cache.sa[t] /= S::from_usize(c);
        }
        let pad = self.k / 2;
        cache.z.clear();
        cache.z.resize(l, S::ZERO);
        for t in 0..l {
            let mut acc = self.bc.w.data()[0];
            for j in 0..self.k {
                let src = t as isize + j as isize - pad as isize;
                if src < 0 || src >= l as isize {
                    continue;
                }
                let s = src as usize;
                acc += self.wc.w.data()[j * 2] * cache.sa[s]
                    + self.wc.w.data()[j * 2 + 1] * cache.sm[s];
            }
            cache.z[t] = acc;
        }
        cache.ms.clear();
        cache.ms.extend(cache.z.iter().map(|&v| sigmoid(v)));
        out.resize(&[l, c]);
        for t in 0..l {
            let ms = cache.ms[t];
            for (o, &v) in out.row_mut(t).iter_mut().zip(cache.f1.row(t)) {
                *o = v * ms;
            }
        }
        self.cache = Some(cache);
    }

    /// Forward pass: `F → F'' = Ms(F') ⊗ F'`, `F' = Mc(F) ⊗ F`.
    pub fn forward(&mut self, f: &Tensor<S>) -> Tensor<S> {
        let mut ws = Workspace::new();
        let mut out = Tensor::zeros(&[0, 0]);
        self.forward_into(f, &mut out, &mut ws);
        out
    }
}

impl Cbam {
    /// Backward pass into a caller-owned `dF`. The cache is borrowed in
    /// place (the old implementation cloned it wholesale every call).
    pub fn backward_into(&mut self, dy: &Tensor, df: &mut Tensor, ws: &mut Workspace) {
        let cache = self.cache.take().expect("forward before backward");
        let (l, c) = (cache.f.rows(), cache.f.cols());
        let pad = self.k / 2;

        // ---- spatial attention backward ----
        let mut dms = ws.acquire(l);
        let mut df1 = ws.acquire(l * c);
        for t in 0..l {
            for ch in 0..c {
                dms[t] += dy.at(t, ch) * cache.f1.at(t, ch);
                df1[t * c + ch] = dy.at(t, ch) * cache.ms[t];
            }
        }
        let mut dz = ws.acquire(l);
        for (d, (&g, &m)) in dz.iter_mut().zip(dms.iter().zip(&cache.ms)) {
            *d = g * m * (1.0 - m);
        }
        let mut dsa = ws.acquire(l);
        let mut dsm = ws.acquire(l);
        for t in 0..l {
            if dz[t] == 0.0 {
                continue;
            }
            self.bc.g.data_mut()[0] += dz[t];
            for j in 0..self.k {
                let src = t as isize + j as isize - pad as isize;
                if src < 0 || src >= l as isize {
                    continue;
                }
                let s = src as usize;
                self.wc.g.data_mut()[j * 2] += dz[t] * cache.sa[s];
                self.wc.g.data_mut()[j * 2 + 1] += dz[t] * cache.sm[s];
                dsa[s] += dz[t] * self.wc.w.data()[j * 2];
                dsm[s] += dz[t] * self.wc.w.data()[j * 2 + 1];
            }
        }
        // The spatial pooling gradient flows into F' (sequential) or
        // straight into F (parallel).
        let mut df_spatial = ws.acquire(l * c);
        {
            let target = if self.order == CbamOrder::Sequential {
                &mut df1
            } else {
                &mut df_spatial
            };
            for t in 0..l {
                for ch in 0..c {
                    target[t * c + ch] += dsa[t] / c as f64;
                }
                target[t * c + cache.sam[t]] += dsm[t];
            }
        }

        // ---- channel attention backward ----
        let mut dmc = ws.acquire(c);
        df.resize(&[l, c]);
        for t in 0..l {
            for ch in 0..c {
                dmc[ch] += df1[t * c + ch] * cache.f.at(t, ch);
                df.set(t, ch, df1[t * c + ch] * cache.mc[ch]);
            }
        }
        let mut dzc = ws.acquire(c);
        for (d, (&g, &m)) in dzc.iter_mut().zip(dmc.iter().zip(&cache.mc)) {
            *d = g * m * (1.0 - m);
        }
        // Two shared-MLP paths (avg & max).
        let h = self.w0.w.rows();
        let mut davg = ws.acquire(c);
        let mut dmx = ws.acquire(c);
        for (pre, pooled, dpool) in [
            (&cache.ha_pre, &cache.avg, &mut davg),
            (&cache.hm_pre, &cache.mx, &mut dmx),
        ] {
            // dO = dzc (shape C) through W1.
            let mut h_act = ws.acquire(h);
            for (ha, p) in h_act.iter_mut().zip(pre.iter()) {
                *ha = p.max(0.0);
            }
            let mut dh = ws.acquire(h);
            for co in 0..c {
                self.b1.g.data_mut()[co] += dzc[co];
                for hi in 0..h {
                    self.w1.g.data_mut()[co * h + hi] += dzc[co] * h_act[hi];
                    dh[hi] += dzc[co] * self.w1.w.data()[co * h + hi];
                }
            }
            for hi in 0..h {
                if pre[hi] <= 0.0 {
                    continue;
                }
                self.b0.g.data_mut()[hi] += dh[hi];
                for ci in 0..c {
                    self.w0.g.data_mut()[hi * c + ci] += dh[hi] * pooled[ci];
                    dpool[ci] += dh[hi] * self.w0.w.data()[hi * c + ci];
                }
            }
            ws.release(dh);
            ws.release(h_act);
        }
        for ch in 0..c {
            for t in 0..l {
                df.add_at(t, ch, davg[ch] / l as f64);
            }
            df.add_at(cache.amx[ch], ch, dmx[ch]);
        }
        // df += df_spatial (the old code's axpy(1.0, ..)).
        for (a, &b) in df.data_mut().iter_mut().zip(df_spatial.iter()) {
            *a += 1.0 * b;
        }
        ws.release(dmx);
        ws.release(davg);
        ws.release(dzc);
        ws.release(dmc);
        ws.release(df_spatial);
        ws.release(dsm);
        ws.release(dsa);
        ws.release(dz);
        ws.release(df1);
        ws.release(dms);
        self.cache = Some(cache);
    }

    /// Backward pass; returns `dF`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut ws = Workspace::new();
        let mut df = Tensor::zeros(&[0, 0]);
        self.backward_into(dy, &mut df, &mut ws);
        df
    }

    /// The block's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.w0,
            &mut self.b0,
            &mut self.w1,
            &mut self.b1,
            &mut self.wc,
            &mut self.bc,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_grads;
    use rand::SeedableRng;

    fn sample_input(l: usize, c: usize, seed: u64) -> Tensor {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            &[l, c],
            (0..l * c).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    #[test]
    fn token_attention_weights_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut att = TokenAttention::new(4, 4, &mut rng);
        let x = sample_input(6, 4, 11);
        let y = att.forward(&x);
        assert_eq!(y.shape(), x.shape());
        let a = att.last_weights().unwrap();
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(a.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn token_attention_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut att = TokenAttention::new(3, 3, &mut rng);
        let x = sample_input(4, 3, 13);
        check_param_grads(
            &mut att,
            |l| l.params_mut(),
            |l| l.forward(&x).sum(),
            |l| {
                let y = l.forward(&x);
                l.backward(&Tensor::full(y.shape(), 1.0));
            },
        );
    }

    #[test]
    fn token_attention_input_gradient() {
        let mut rng = StdRng::seed_from_u64(14);
        let att = TokenAttention::new(3, 3, &mut rng);
        let x = sample_input(4, 3, 15);
        let mut a = att.clone();
        a.forward(&x);
        let dx = a.backward(&Tensor::full(&[4, 3], 1.0));
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += 1e-5;
            let mut xm = x.clone();
            xm.data_mut()[i] -= 1e-5;
            let fp = att.clone().forward(&xp).sum();
            let fm = att.clone().forward(&xm).sum();
            let num = (fp - fm) / 2e-5;
            assert!(
                (num - dx.data()[i]).abs() < 1e-5,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    /// The memo path against the per-token reference, on a sequence with
    /// repeated ids and an id past the vocabulary (read as id 0): output,
    /// weights and every gradient of a following backward, by bits.
    #[test]
    fn memo_forward_matches_per_token_forward() {
        let mut rng = StdRng::seed_from_u64(16);
        let reference = TokenAttention::new(5, 4, &mut rng);
        let table = sample_input(6, 5, 17);
        let ids = [3, 1, 3, 3, 99, 0, 5, 1, 2, 3];
        let mut x = Tensor::zeros(&[ids.len(), 5]);
        for (t, &id) in ids.iter().enumerate() {
            let row = if id < table.rows() { id } else { 0 };
            x.row_mut(t).copy_from_slice(table.row(row));
        }
        let dy = sample_input(ids.len(), 5, 18);
        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let run = |att: &mut TokenAttention, out: &Tensor, ws: &mut Workspace| {
            let alpha = bits(att.last_weights().unwrap());
            let mut dx = Tensor::zeros(&[0, 0]);
            att.backward_into(&dy, &mut dx, ws);
            let grads: Vec<Vec<u64>> = att.params_mut().iter().map(|p| bits(p.g.data())).collect();
            (bits(out.data()), alpha, bits(dx.data()), grads)
        };
        let mut ws = Workspace::new();
        let (mut per_token, mut memo_att) = (reference.clone(), reference);
        let mut out = Tensor::zeros(&[0, 0]);
        per_token.forward_into(&x, &mut out, &mut ws);
        let expect = run(&mut per_token, &out, &mut ws);

        let mut memo = TokenScoreMemo::new();
        memo.reset(table.rows());
        memo.insert(&[5, 2]); // rows from an earlier call must not survive
        memo.reset(table.rows());
        memo.insert(&ids);
        memo_att.fill_memo(&mut memo, &table, &mut ws);
        memo_att.forward_memo_into(&x, &ids, &memo, &mut out);
        assert_eq!(run(&mut memo_att, &out, &mut ws), expect);
    }

    #[test]
    fn cbam_preserves_shape_and_gates_in_unit_range() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut cbam = Cbam::new(8, 4, 7, &mut rng);
        let x = sample_input(10, 8, 21);
        let y = cbam.forward(&x);
        assert_eq!(y.shape(), x.shape());
        let gate = cbam.last_spatial_gate().unwrap();
        assert!(gate.iter().all(|&g| (0.0..=1.0).contains(&g)));
    }

    #[test]
    fn cbam_param_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut cbam = Cbam::new(4, 2, 3, &mut rng);
        let x = sample_input(5, 4, 23);
        check_param_grads(
            &mut cbam,
            |l| l.params_mut(),
            |l| l.forward(&x).sum(),
            |l| {
                let y = l.forward(&x);
                l.backward(&Tensor::full(y.shape(), 1.0));
            },
        );
    }

    #[test]
    fn cbam_parallel_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut cbam = Cbam::with_order(4, 2, 3, CbamOrder::Parallel, &mut rng);
        let x = sample_input(5, 4, 27);
        check_param_grads(
            &mut cbam,
            |l| l.params_mut(),
            |l| l.forward(&x).sum(),
            |l| {
                let y = l.forward(&x);
                l.backward(&Tensor::full(y.shape(), 1.0));
            },
        );
        // Input gradient too.
        let fresh = Cbam::with_order(4, 2, 3, CbamOrder::Parallel, &mut rng);
        let mut c = fresh.clone();
        c.forward(&x);
        let dx = c.backward(&Tensor::full(&[5, 4], 1.0));
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += 1e-5;
            let mut xm = x.clone();
            xm.data_mut()[i] -= 1e-5;
            let fp = fresh.clone().forward(&xp).sum();
            let fm = fresh.clone().forward(&xm).sum();
            let num = (fp - fm) / 2e-5;
            assert!((num - dx.data()[i]).abs() < 1e-5, "dx[{i}]");
        }
    }

    #[test]
    fn sequential_and_parallel_orders_differ() {
        let mut rng = StdRng::seed_from_u64(28);
        let mut seq = Cbam::new(6, 2, 3, &mut rng);
        let mut par = seq.clone();
        par.order = CbamOrder::Parallel;
        let x = sample_input(7, 6, 29);
        let a = seq.forward(&x);
        let b = par.forward(&x);
        assert_ne!(a, b, "the two arrangements must gate differently");
        assert_eq!(seq.order(), CbamOrder::Sequential);
        assert_eq!(par.order(), CbamOrder::Parallel);
    }

    #[test]
    fn cbam_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(24);
        let cbam = Cbam::new(4, 2, 3, &mut rng);
        let x = sample_input(5, 4, 25);
        let mut c = cbam.clone();
        c.forward(&x);
        let dx = c.backward(&Tensor::full(&[5, 4], 1.0));
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += 1e-5;
            let mut xm = x.clone();
            xm.data_mut()[i] -= 1e-5;
            let fp = cbam.clone().forward(&xp).sum();
            let fm = cbam.clone().forward(&xm).sum();
            let num = (fp - fm) / 2e-5;
            assert!(
                (num - dx.data()[i]).abs() < 1e-5,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }
}
