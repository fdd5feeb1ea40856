//! The kernel layer: register-tiled GEMM / matvec, im2col lowering, and a
//! reusable [`Workspace`] scratch-buffer pool.
//!
//! Every routine here is **bit-identical** to the naive loop it replaces.
//! The tiling only regroups the *output* dimensions (which rows/columns are
//! produced together); the k-accumulation of every output element still runs
//! in strictly ascending order with the same skip convention as the loop it
//! replaced, so each element is the same left-to-right chain of `+=` on the
//! same operands. That is what preserves the byte-identical-model
//! determinism guarantee across `--jobs` values (see DESIGN.md).
//!
//! Two GEMM variants exist because the legacy loops had two skip
//! conventions:
//!
//! * [`gemm_acc`] skips `a == 0.0` elements, matching `Tensor::matmul` and
//!   the convolution loops (which skipped zero-padding / zero gradients);
//! * [`gemm_acc_dense`] never skips, matching the `matvec`-based paths
//!   (attention projections, RNN input projections) that always added every
//!   term.
//!
//! Picking the variant that matches the replaced loop keeps the replacement
//! exact even around signed zeros.
//!
//! On x86-64 CPUs with AVX2 the three products run register-tiled SIMD
//! bodies, chosen once at runtime ([`f64_simd_level`]); the scalar bodies
//! ([`gemm_acc_scalar`], [`gemm_acc_dense_scalar`], [`matvec_into_scalar`])
//! run everywhere else. Both produce the same bits: the SIMD bodies use a
//! separate multiply and add per term (never a fused multiply-add, whose
//! single rounding would change results), keep each output's terms in
//! ascending `k`, and apply [`gemm_acc`]'s zero-skip per row by adding only
//! the terms whose `a` element is not `±0.0`, so a skipped term leaves the
//! accumulator untouched — signed zeros included.

use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

use crate::scalar::Scalar;

/// Workspace acquisitions served from the pool (no heap allocation).
static WS_HITS: AtomicU64 = AtomicU64::new(0);
/// Workspace acquisitions that had to allocate or grow a buffer.
static WS_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide workspace reuse counters `(hits, misses)`. A *hit* is an
/// `acquire` served entirely from pooled capacity; a *miss* allocated or
/// grew. In an allocation-free steady state only hits accumulate, so the
/// miss counter is a proxy for heap allocations on the forward path (the
/// serve `/metrics` endpoint exports both).
pub fn workspace_counters() -> (u64, u64) {
    (
        WS_HITS.load(Ordering::Relaxed),
        WS_MISSES.load(Ordering::Relaxed),
    )
}

/// A pool of reusable scratch buffers for forward/backward passes (`f64`,
/// or `f32` for the f32 tier's forward).
///
/// `acquire` hands out a zeroed buffer of the requested length, reusing
/// pooled capacity when possible; `release` returns it. Buffers are reused
/// LIFO, so a fixed acquire/release sequence (one forward pass) settles
/// into an allocation-free steady state after the first call.
#[derive(Debug, Default)]
pub struct Workspace<S = f64> {
    pool: Vec<Vec<S>>,
}

impl<S: Scalar> Workspace<S> {
    /// An empty workspace.
    pub fn new() -> Workspace<S> {
        Workspace { pool: Vec::new() }
    }

    /// A zero-filled buffer of length `len`, reusing pooled capacity.
    pub fn acquire(&mut self, len: usize) -> Vec<S> {
        match self.pool.pop() {
            Some(mut buf) => {
                if buf.capacity() >= len {
                    WS_HITS.fetch_add(1, Ordering::Relaxed);
                } else {
                    WS_MISSES.fetch_add(1, Ordering::Relaxed);
                }
                buf.clear();
                buf.resize(len, S::ZERO);
                buf
            }
            None => {
                WS_MISSES.fetch_add(1, Ordering::Relaxed);
                vec![S::ZERO; len]
            }
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn release(&mut self, buf: Vec<S>) {
        self.pool.push(buf);
    }
}

/// Cloning a workspace yields an *empty* pool: replicas (training workers,
/// serve replicas) warm up their own buffers instead of copying scratch.
impl<S: Scalar> Clone for Workspace<S> {
    fn clone(&self) -> Workspace<S> {
        Workspace::new()
    }
}

/// How many output rows the GEMM/matvec kernels produce per pass over the
/// shared operand. Tiling the *output* rows lets one streamed read of `b`
/// (or `x`) feed several accumulator rows without touching the k-order.
const MR: usize = 4;

/// Whether the AVX2 f64 bodies are active on this machine: `"avx2"` or
/// `"scalar"`. Benches print it so recorded numbers say which body ran.
pub fn f64_simd_level() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "scalar"
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| is_x86_feature_detected!("avx2"))
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2() -> bool {
    false
}

fn check_gemm(out: &[f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(out.len(), m * n, "gemm out {m}x{n}");
    assert_eq!(a.len(), m * k, "gemm a {m}x{k}");
    assert_eq!(b.len(), k * n, "gemm b {k}x{n}");
}

fn check_matvec(y: &[f64], a: &[f64], x: &[f64], m: usize, k: usize) {
    assert_eq!(y.len(), m, "matvec y {m}");
    assert_eq!(a.len(), m * k, "matvec a {m}x{k}");
    assert_eq!(x.len(), k, "matvec x {k}");
}

/// `out += a · b` for row-major `a (m×k)`, `b (k×n)`, `out (m×n)`,
/// skipping `a` elements that are exactly `0.0` — the same convention as
/// the naive `Tensor::matmul` loop this replaces. `out` must be
/// caller-initialized (zeros for a plain product, bias for a fused one).
///
/// Bit-identity: for every `out[i][j]` the terms `a[i][p] * b[p][j]` are
/// added in strictly ascending `p`, exactly like the naive loop; the
/// tiling only changes which outputs share a pass over `b`.
pub fn gemm_acc(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    check_gemm(out, a, b, m, k, n);
    if n == 0 || k == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: avx2 verified at runtime; slice lengths asserted above.
        unsafe { simd::gemm::<true>(out, a, b, m, k, n) };
        return;
    }
    gemm_acc_scalar(out, a, b, m, k, n);
}

/// `out += a · b` with **no** zero-skip: every term is added, matching the
/// paths that were previously built from `Tensor::matvec` per row (which
/// never skipped). Same strict ascending-`p` accumulation as [`gemm_acc`].
pub fn gemm_acc_dense(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    check_gemm(out, a, b, m, k, n);
    if n == 0 || k == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: avx2 verified at runtime; slice lengths asserted above.
        unsafe { simd::gemm::<false>(out, a, b, m, k, n) };
        return;
    }
    gemm_acc_dense_scalar(out, a, b, m, k, n);
}

/// `y = a · x` for row-major `a (m×k)`: each `y[i]` is the strict
/// left-to-right sum of `a[i][p] * x[p]`, bit-identical to the
/// `.zip().map().sum()` it replaces — including the signed zero of the
/// fold's `-0.0` neutral element (`Iterator::sum` for floats starts at
/// `-0.0`, so an all-negative-zero row sums to `-0.0`).
pub fn matvec_into(y: &mut [f64], a: &[f64], x: &[f64], m: usize, k: usize) {
    check_matvec(y, a, x, m, k);
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: avx2 verified at runtime; slice lengths asserted above.
        unsafe { simd::matvec(y, a, x, m, k) };
        return;
    }
    matvec_into_scalar(y, a, x, m, k);
}

/// The portable body of [`gemm_acc`]: MR output rows share each pass over
/// a row of `b`.
pub fn gemm_acc_scalar(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    check_gemm(out, a, b, m, k, n);
    if n == 0 || k == 0 {
        return;
    }
    let mut i = 0;
    while i + MR <= m {
        let (r0, rest) = out[i * n..(i + MR) * n].split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        for p in 0..k {
            let brow = &b[p * n..(p + 1) * n];
            let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
            if v0 != 0.0 {
                for (o, &bv) in r0.iter_mut().zip(brow) {
                    *o += v0 * bv;
                }
            }
            if v1 != 0.0 {
                for (o, &bv) in r1.iter_mut().zip(brow) {
                    *o += v1 * bv;
                }
            }
            if v2 != 0.0 {
                for (o, &bv) in r2.iter_mut().zip(brow) {
                    *o += v2 * bv;
                }
            }
            if v3 != 0.0 {
                for (o, &bv) in r3.iter_mut().zip(brow) {
                    *o += v3 * bv;
                }
            }
        }
        i += MR;
    }
    while i < m {
        let orow = &mut out[i * n..(i + 1) * n];
        let arow = &a[i * k..(i + 1) * k];
        for (p, &v) in arow.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += v * bv;
            }
        }
        i += 1;
    }
}

/// The portable body of [`gemm_acc_dense`].
pub fn gemm_acc_dense_scalar(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    check_gemm(out, a, b, m, k, n);
    if n == 0 || k == 0 {
        return;
    }
    let mut i = 0;
    while i + MR <= m {
        let (r0, rest) = out[i * n..(i + MR) * n].split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        for p in 0..k {
            let brow = &b[p * n..(p + 1) * n];
            let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
            for (j, &bv) in brow.iter().enumerate() {
                r0[j] += v0 * bv;
                r1[j] += v1 * bv;
                r2[j] += v2 * bv;
                r3[j] += v3 * bv;
            }
        }
        i += MR;
    }
    while i < m {
        let orow = &mut out[i * n..(i + 1) * n];
        let arow = &a[i * k..(i + 1) * k];
        for (p, &v) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += v * bv;
            }
        }
        i += 1;
    }
}

/// The portable body of [`matvec_into`]: MR rows share each streamed pass
/// over `x`.
pub fn matvec_into_scalar(y: &mut [f64], a: &[f64], x: &[f64], m: usize, k: usize) {
    check_matvec(y, a, x, m, k);
    let mut i = 0;
    while i + MR <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let (mut s0, mut s1, mut s2, mut s3) = (-0.0, -0.0, -0.0, -0.0);
        for (p, &xv) in x.iter().enumerate() {
            s0 += a0[p] * xv;
            s1 += a1[p] * xv;
            s2 += a2[p] * xv;
            s3 += a3[p] * xv;
        }
        y[i] = s0;
        y[i + 1] = s1;
        y[i + 2] = s2;
        y[i + 3] = s3;
        i += MR;
    }
    while i < m {
        y[i] = a[i * k..(i + 1) * k]
            .iter()
            .zip(x)
            .map(|(a, b)| a * b)
            .sum();
        i += 1;
    }
}

/// The AVX2 bodies of [`gemm_acc`], [`gemm_acc_dense`] and [`matvec_into`].
///
/// Each output element is still one left-to-right chain of `+=` over
/// ascending `p`: a lane holds one output, every term is a `mul` rounded
/// on its own and then an `add` rounded on its own (no FMA), and the
/// lanes only make several outputs advance together.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// How many `p` indices one pass of [`sparse_row`] gathers.
    const CHUNK: usize = 256;

    /// `out += a · b`. Blocks of 4 rows run register tiles of 4 rows × 8
    /// columns (then 4 columns, then a scalar tail). With `SKIP` (the
    /// zero-skip of [`super::gemm_acc`]) a block whose `a` rows hold a
    /// `±0.0` runs [`sparse_row`] per row instead, which adds exactly the
    /// terms the naive loop adds; a block without one runs the dense tiles,
    /// since with nothing to skip the two conventions add the same terms.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `out`, `a`, `b` must hold `m × n`,
    /// `m × k` and `k × n` elements.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm<const SKIP: bool>(
        out: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let (o, b) = (out.as_mut_ptr(), b.as_ptr());
        let mut i = 0;
        while i + 4 <= m {
            let block = &a[i * k..(i + 4) * k];
            if SKIP && block.contains(&0.0) {
                for r in i..i + 4 {
                    sparse_row(o.add(r * n), a.as_ptr().add(r * k), b, k, n);
                }
            } else {
                dense_rows::<4>(o.add(i * n), block.as_ptr(), b, k, n);
            }
            i += 4;
        }
        for r in i..m {
            if SKIP {
                sparse_row(o.add(r * n), a.as_ptr().add(r * k), b, k, n);
            } else {
                dense_rows::<1>(o.add(r * n), a.as_ptr().add(r * k), b, k, n);
            }
        }
    }

    /// `R` output rows starting at `o`, with their `a` rows at `a`, adding
    /// every term.
    ///
    /// # Safety
    ///
    /// AVX2; `o` valid for `R` rows of stride `n`, `a` for `R` rows of
    /// stride `k`, `b` for `k` rows of stride `n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dense_rows<const R: usize>(
        o: *mut f64,
        a: *const f64,
        b: *const f64,
        k: usize,
        n: usize,
    ) {
        let mut j = 0;
        while j + 8 <= n {
            dense_tile::<R, 2>(o.add(j), a, b.add(j), k, n);
            j += 8;
        }
        if j + 4 <= n {
            dense_tile::<R, 1>(o.add(j), a, b.add(j), k, n);
            j += 4;
        }
        for r in 0..R {
            let arow = a.add(r * k);
            for jj in j..n {
                let op = o.add(r * n + jj);
                let mut s = *op;
                for p in 0..k {
                    s += *arow.add(p) * *b.add(p * n + jj);
                }
                *op = s;
            }
        }
    }

    /// One `R × 4V` tile: the accumulators stay in registers for the whole
    /// `k` loop, so `out` is loaded and stored once instead of once per `p`.
    ///
    /// # Safety
    ///
    /// As [`dense_rows`], with `4V` columns readable from `o` and `b`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dense_tile<const R: usize, const V: usize>(
        o: *mut f64,
        a: *const f64,
        b: *const f64,
        k: usize,
        n: usize,
    ) {
        let mut acc = [[_mm256_setzero_pd(); V]; R];
        for r in 0..R {
            for v in 0..V {
                acc[r][v] = _mm256_loadu_pd(o.add(r * n + 4 * v));
            }
        }
        for p in 0..k {
            let mut bv = [_mm256_setzero_pd(); V];
            for v in 0..V {
                bv[v] = _mm256_loadu_pd(b.add(p * n + 4 * v));
            }
            for r in 0..R {
                let av = _mm256_broadcast_sd(&*a.add(r * k + p));
                for v in 0..V {
                    acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(av, bv[v]));
                }
            }
        }
        for r in 0..R {
            for v in 0..V {
                _mm256_storeu_pd(o.add(r * n + 4 * v), acc[r][v]);
            }
        }
    }

    /// One output row with the zero-skip: the `p` whose `a[p] != 0.0` (NaN
    /// included, as in the naive loop) are gathered in ascending order, a
    /// chunk at a time, and only those terms are added — to tiles of 24,
    /// 8 and 4 columns, then a scalar tail. Between chunks the partial sums
    /// go through `out` unchanged, so each output is still one chain.
    ///
    /// # Safety
    ///
    /// AVX2; `o` valid for `n` elements, `a` for `k`, `b` for `k` rows of
    /// stride `n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sparse_row(o: *mut f64, a: *const f64, b: *const f64, k: usize, n: usize) {
        let mut idx = [0usize; CHUNK];
        let mut p0 = 0;
        while p0 < k {
            let end = (p0 + CHUNK).min(k);
            let mut len = 0;
            for p in p0..end {
                idx[len] = p;
                len += usize::from(*a.add(p) != 0.0);
            }
            let nz = &idx[..len];
            let mut j = 0;
            while j + 24 <= n {
                sparse_tile::<6>(o.add(j), a, b.add(j), n, nz);
                j += 24;
            }
            while j + 8 <= n {
                sparse_tile::<2>(o.add(j), a, b.add(j), n, nz);
                j += 8;
            }
            if j + 4 <= n {
                sparse_tile::<1>(o.add(j), a, b.add(j), n, nz);
                j += 4;
            }
            for jj in j..n {
                let mut s = *o.add(jj);
                for &p in nz {
                    s += *a.add(p) * *b.add(p * n + jj);
                }
                *o.add(jj) = s;
            }
            p0 = end;
        }
    }

    /// One `1 × 4V` tile of [`sparse_row`] over the gathered `nz` terms.
    ///
    /// # Safety
    ///
    /// AVX2; `o` valid for `4V` elements, and `a[p]` and `b[p·n .. p·n + 4V]`
    /// readable for every `p` in `nz`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sparse_tile<const V: usize>(
        o: *mut f64,
        a: *const f64,
        b: *const f64,
        n: usize,
        nz: &[usize],
    ) {
        let mut acc = [_mm256_setzero_pd(); V];
        for v in 0..V {
            acc[v] = _mm256_loadu_pd(o.add(4 * v));
        }
        for &p in nz {
            let av = _mm256_broadcast_sd(&*a.add(p));
            for v in 0..V {
                let bv = _mm256_loadu_pd(b.add(p * n + 4 * v));
                acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(av, bv));
            }
        }
        for v in 0..V {
            _mm256_storeu_pd(o.add(4 * v), acc[v]);
        }
    }

    /// `y = a · x`, one lane per output row: blocks of 16 rows (four
    /// independent accumulator chains), then blocks of 4, then scalar rows.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `y`, `a`, `x` must hold `m`, `m × k`
    /// and `k` elements.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matvec(y: &mut [f64], a: &[f64], x: &[f64], m: usize, k: usize) {
        let (yp, ap, xp) = (y.as_mut_ptr(), a.as_ptr(), x.as_ptr());
        let mut i = 0;
        while i + 16 <= m {
            matvec_rows::<4>(yp.add(i), ap.add(i * k), xp, k);
            i += 16;
        }
        while i + 4 <= m {
            matvec_rows::<1>(yp.add(i), ap.add(i * k), xp, k);
            i += 4;
        }
        while i < m {
            let mut s = -0.0;
            for p in 0..k {
                s += *ap.add(i * k + p) * *xp.add(p);
            }
            *yp.add(i) = s;
            i += 1;
        }
    }

    /// `4G` rows from `-0.0`: each step loads a 4-row × 2-column block of
    /// `a` as two 128-bit halves per register and unpacks it into the two
    /// columns, so lane `r` of group `g` sees row `4g + r`'s terms in order.
    ///
    /// # Safety
    ///
    /// AVX2; `y` valid for `4G` elements, `a` for `4G` rows of stride `k`,
    /// `x` for `k`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn matvec_rows<const G: usize>(y: *mut f64, a: *const f64, x: *const f64, k: usize) {
        let mut acc = [_mm256_set1_pd(-0.0); G];
        let mut p = 0;
        while p + 2 <= k {
            let x0 = _mm256_broadcast_sd(&*x.add(p));
            let x1 = _mm256_broadcast_sd(&*x.add(p + 1));
            for (g, acc) in acc.iter_mut().enumerate() {
                let r = a.add(4 * g * k + p);
                // [r0p r0p1 | r2p r2p1] and [r1p r1p1 | r3p r3p1]
                let even = _mm256_insertf128_pd::<1>(
                    _mm256_castpd128_pd256(_mm_loadu_pd(r)),
                    _mm_loadu_pd(r.add(2 * k)),
                );
                let odd = _mm256_insertf128_pd::<1>(
                    _mm256_castpd128_pd256(_mm_loadu_pd(r.add(k))),
                    _mm_loadu_pd(r.add(3 * k)),
                );
                let c0 = _mm256_unpacklo_pd(even, odd);
                let c1 = _mm256_unpackhi_pd(even, odd);
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(c0, x0));
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(c1, x1));
            }
            p += 2;
        }
        if p < k {
            let xv = _mm256_broadcast_sd(&*x.add(p));
            for (g, acc) in acc.iter_mut().enumerate() {
                let r = a.add(4 * g * k + p);
                let c = _mm256_set_pd(*r.add(3 * k), *r.add(2 * k), *r.add(k), *r);
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(c, xv));
            }
        }
        for (g, acc) in acc.iter().enumerate() {
            _mm256_storeu_pd(y.add(4 * g), *acc);
        }
    }
}

/// Lowers a length-`l`, `c`-channel sequence to its im2col matrix for a
/// width-`kw` same-padded 1-D convolution: row `t` holds the `kw`
/// concatenated input rows the kernel window sees at position `t`, with
/// out-of-range positions left at exactly `+0.0`. A pure copy, so one
/// routine serves every precision.
///
/// `cols` must have length `l * kw * c`.
pub fn im2col_into<S: Scalar>(cols: &mut [S], x: &[S], l: usize, c: usize, kw: usize) {
    assert_eq!(cols.len(), l * kw * c, "im2col cols {l}x{}", kw * c);
    assert_eq!(x.len(), l * c, "im2col x {l}x{c}");
    let pad = (kw / 2) as isize;
    cols.fill(S::ZERO);
    for t in 0..l {
        let drow = &mut cols[t * kw * c..(t + 1) * kw * c];
        for j in 0..kw {
            let src = t as isize + j as isize - pad;
            if src < 0 || src >= l as isize {
                continue;
            }
            let s = src as usize;
            drow[j * c..(j + 1) * c].copy_from_slice(&x[s * c..(s + 1) * c]);
        }
    }
}

/// `out (n×m) = transpose(a (m×n))`, for any element type.
pub fn transpose_into<T: Copy>(out: &mut [T], a: &[T], m: usize, n: usize) {
    assert_eq!(out.len(), m * n, "transpose out");
    assert_eq!(a.len(), m * n, "transpose a");
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a[i * n + j];
        }
    }
}

/// The pre-kernel-layer naive loops, frozen verbatim as reference
/// implementations for the bit-identity property tests. Not compiled into
/// release builds.
#[cfg(test)]
pub mod reference {
    /// The original `Tensor::matmul` triple loop (with its `a == 0.0` skip).
    pub fn matmul_naive(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// [`matmul_naive`]'s loop accumulating into a caller-initialized
    /// `out` — the `out +=` contract of `gemm_acc`.
    pub fn gemm_acc_naive(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
    }

    /// [`matmul_dense_naive`]'s loop accumulating into a caller-initialized
    /// `out` — the `out +=` contract of `gemm_acc_dense`.
    pub fn gemm_acc_dense_naive(
        out: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
    }

    /// A dense (never-skipping) matmul built the way the old code built
    /// matrix products out of per-row `matvec` calls.
    pub fn matmul_dense_naive(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    /// The original `Tensor::matvec` (strict left-to-right fold per row).
    pub fn matvec_naive(a: &[f64], x: &[f64], m: usize, k: usize) -> Vec<f64> {
        (0..m)
            .map(|i| {
                a[i * k..(i + 1) * k]
                    .iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// The original `Conv1d::forward` four-deep scalar loop: same padding,
    /// bias-initialized accumulator, out-of-range taps skipped.
    pub fn conv1d_forward_naive(
        x: &[f64],
        w: &[f64],
        bias: &[f64],
        l: usize,
        c_in: usize,
        c_out: usize,
        kw: usize,
    ) -> Vec<f64> {
        let pad = (kw / 2) as isize;
        let mut out = vec![0.0; l * c_out];
        for t in 0..l {
            for co in 0..c_out {
                let mut acc = bias[co];
                for j in 0..kw {
                    let src = t as isize + j as isize - pad;
                    if src < 0 || src >= l as isize {
                        continue;
                    }
                    let s = src as usize;
                    for ci in 0..c_in {
                        acc += x[s * c_in + ci] * w[co * (kw * c_in) + j * c_in + ci];
                    }
                }
                out[t * c_out + co] = acc;
            }
        }
        out
    }

    /// The original `Conv1d::backward` loops: `(db, dw, dx)` with the
    /// `dy == 0.0` skip and out-of-range taps skipped.
    #[allow(clippy::type_complexity)]
    pub fn conv1d_backward_naive(
        x: &[f64],
        w: &[f64],
        dy: &[f64],
        l: usize,
        c_in: usize,
        c_out: usize,
        kw: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let pad = (kw / 2) as isize;
        let mut db = vec![0.0; c_out];
        let mut dw = vec![0.0; c_out * kw * c_in];
        let mut dx = vec![0.0; l * c_in];
        for t in 0..l {
            for co in 0..c_out {
                let g = dy[t * c_out + co];
                if g == 0.0 {
                    continue;
                }
                db[co] += g;
                for j in 0..kw {
                    let src = t as isize + j as isize - pad;
                    if src < 0 || src >= l as isize {
                        continue;
                    }
                    let s = src as usize;
                    let base = co * (kw * c_in) + j * c_in;
                    for ci in 0..c_in {
                        dw[base + ci] += g * x[s * c_in + ci];
                        dx[s * c_in + ci] += g * w[base + ci];
                    }
                }
            }
        }
        (db, dw, dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values with exact zeros mixed in, so the skip conventions are
    /// actually exercised.
    fn value() -> BoxedStrategy<f64> {
        prop_oneof![
            2 => any::<f64>().prop_map(|v| (v - 0.5) * 4.0),
            1 => Just(0.0),
        ]
        .boxed()
    }

    fn matrix(rows: usize, cols: usize) -> BoxedStrategy<Vec<f64>> {
        let n = rows * cols;
        proptest::collection::vec(value(), n..n + 1).boxed()
    }

    /// Values with exact zeros of both signs, for the kernels whose
    /// contract covers signed zeros. (The im2col lowering of the conv
    /// loops matches them only for `+0.0`: the GEMM skips a `-0.0` input
    /// that the direct loop added.)
    fn signed_value() -> BoxedStrategy<f64> {
        prop_oneof![
            6 => any::<f64>().prop_map(|v| (v - 0.5) * 4.0),
            1 => Just(0.0),
            1 => Just(-0.0),
        ]
        .boxed()
    }

    /// A signed-zero matrix with up to three NaN / ±inf entries at random
    /// positions (few, so most outputs stay finite and still pin rounding).
    fn matrix_with_specials(rows: usize, cols: usize, rng: &mut TestRng) -> Vec<f64> {
        let n = rows * cols;
        let mut v = proptest::collection::vec(signed_value(), n..n + 1).generate(rng);
        if !v.is_empty() {
            for _ in 0..rng.below(4) {
                let at = rng.below(v.len());
                v[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
            }
        }
        v
    }

    /// An `out` to accumulate into: mostly `-0.0` (which `+ 0.0` would
    /// flip), some `+0.0` and plain values.
    fn initial_out(len: usize, rng: &mut TestRng) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.below(4) {
                0 | 1 => -0.0,
                2 => 0.0,
                _ => (rng.below(1000) as f64 - 500.0) / 64.0,
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Bit equality, except that any NaN matches any NaN: which NaN an
    /// operation returns is not fixed by IEEE 754, and LLVM may commute
    /// the operands of a scalar add.
    fn same_bits(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if !(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())) {
                return Err(TestCaseError::new(format!("element {i}: {g:?} vs {w:?}")));
            }
        }
        Ok(())
    }

    type Gemm = fn(&mut [f64], &[f64], &[f64], usize, usize, usize);
    type Matvec = fn(&mut [f64], &[f64], &[f64], usize, usize);

    /// Every body of the skipping GEMM: the dispatcher, the scalar body and
    /// (when the CPU has it) the AVX2 body, each called directly.
    fn gemm_bodies() -> Vec<(&'static str, Gemm)> {
        let mut v: Vec<(&'static str, Gemm)> =
            vec![("dispatch", gemm_acc), ("scalar", gemm_acc_scalar)];
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: avx2 verified just above.
            v.push(("avx2", |o, a, b, m, k, n| unsafe {
                simd::gemm::<true>(o, a, b, m, k, n)
            }));
        }
        v
    }

    fn dense_gemm_bodies() -> Vec<(&'static str, Gemm)> {
        let mut v: Vec<(&'static str, Gemm)> = vec![
            ("dispatch", gemm_acc_dense),
            ("scalar", gemm_acc_dense_scalar),
        ];
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: avx2 verified just above.
            v.push(("avx2", |o, a, b, m, k, n| unsafe {
                simd::gemm::<false>(o, a, b, m, k, n)
            }));
        }
        v
    }

    fn matvec_bodies() -> Vec<(&'static str, Matvec)> {
        let mut v: Vec<(&'static str, Matvec)> =
            vec![("dispatch", matvec_into), ("scalar", matvec_into_scalar)];
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: avx2 verified just above.
            v.push(("avx2", |y, a, x, m, k| unsafe {
                simd::matvec(y, a, x, m, k)
            }));
        }
        v
    }

    /// Runs every GEMM body on one random case and compares each with the
    /// frozen naive loop — once as drawn, and once with `a`'s zeros
    /// replaced, so the AVX2 body's zero-free row-block path runs too.
    fn check_gemm_case(
        bodies: &[(&'static str, Gemm)],
        naive: Gemm,
        (m, k, n): (usize, usize, usize),
        rng: &mut TestRng,
    ) -> Result<(), TestCaseError> {
        let a = matrix_with_specials(m, k, rng);
        let no_zeros: Vec<f64> = a.iter().map(|&v| if v == 0.0 { 0.75 } else { v }).collect();
        let b = matrix_with_specials(k, n, rng);
        let init = initial_out(m * n, rng);
        for a in [a, no_zeros] {
            let mut want = init.clone();
            naive(&mut want, &a, &b, m, k, n);
            for (name, body) in bodies {
                let mut out = init.clone();
                body(&mut out, &a, &b, m, k, n);
                same_bits(&out, &want)
                    .map_err(|e| TestCaseError::new(format!("{name} {m}x{k}x{n}: {e:?}")))?;
            }
        }
        Ok(())
    }

    fn check_matvec_case((m, k): (usize, usize), rng: &mut TestRng) -> Result<(), TestCaseError> {
        let a = matrix_with_specials(m, k, rng);
        let x = matrix_with_specials(k, 1, rng);
        let want = reference::matvec_naive(&a, &x, m, k);
        for (name, body) in matvec_bodies() {
            let mut y = initial_out(m, rng);
            body(&mut y, &a, &x, m, k);
            same_bits(&y, &want)
                .map_err(|e| TestCaseError::new(format!("{name} {m}x{k}: {e:?}")))?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Dims cover every tile remainder (rows mod 4, columns mod 8 and 4,
        // odd k) and the scanning model's n = 24, k = 72.
        #[test]
        fn gemm_bit_identical_to_naive(dims in (0usize..41, 0usize..81, 0usize..41)) {
            let (m, k, n) = dims;
            let mut rng = TestRng::for_test(&format!("gemm-{m}-{k}-{n}"));
            check_gemm_case(&gemm_bodies(), reference::gemm_acc_naive, dims, &mut rng)?;
            // The zero-initialized product is the frozen matmul itself.
            let a = matrix(m, k).generate(&mut rng);
            let b = matrix(k, n).generate(&mut rng);
            let mut out = vec![0.0; m * n];
            gemm_acc(&mut out, &a, &b, m, k, n);
            prop_assert_eq!(bits(&out), bits(&reference::matmul_naive(&a, &b, m, k, n)));
        }

        #[test]
        fn dense_gemm_bit_identical_to_naive(dims in (0usize..41, 0usize..81, 0usize..41)) {
            let (m, k, n) = dims;
            let mut rng = TestRng::for_test(&format!("dgemm-{m}-{k}-{n}"));
            check_gemm_case(&dense_gemm_bodies(), reference::gemm_acc_dense_naive, dims, &mut rng)?;
            let a = matrix(m, k).generate(&mut rng);
            let b = matrix(k, n).generate(&mut rng);
            let mut out = vec![0.0; m * n];
            gemm_acc_dense(&mut out, &a, &b, m, k, n);
            prop_assert_eq!(bits(&out), bits(&reference::matmul_dense_naive(&a, &b, m, k, n)));
        }

        #[test]
        fn matvec_bit_identical_to_naive(dims in (0usize..41, 0usize..81)) {
            let (m, k) = dims;
            let mut rng = TestRng::for_test(&format!("matvec-{m}-{k}"));
            check_matvec_case(dims, &mut rng)?;
        }

        #[test]
        fn im2col_gemm_conv_bit_identical_to_naive(
            dims in (0usize..7, 1usize..5, 1usize..5, 0usize..3),
        ) {
            let (l, c_in, c_out, half) = dims;
            let kw = 2 * half + 1; // odd widths, matching Conv1d's contract
            let mut rng = TestRng::for_test(&format!("conv-{l}-{c_in}-{c_out}-{kw}"));
            let x = matrix(l, c_in).generate(&mut rng);
            let w = matrix(c_out, kw * c_in).generate(&mut rng);
            let bias = matrix(c_out, 1).generate(&mut rng);

            // Forward: bias-initialized output + skip-GEMM over the im2col
            // matrix, exactly how Conv1d::forward lowers it.
            let kc = kw * c_in;
            let mut cols = vec![0.0; l * kc];
            im2col_into(&mut cols, &x, l, c_in, kw);
            let mut wt = vec![0.0; kc * c_out];
            transpose_into(&mut wt, &w, c_out, kc);
            let mut out = vec![0.0; l * c_out];
            for t in 0..l {
                out[t * c_out..(t + 1) * c_out].copy_from_slice(&bias);
            }
            gemm_acc(&mut out, &cols, &wt, l, kc, c_out);
            let naive = reference::conv1d_forward_naive(&x, &w, &bias, l, c_in, c_out, kw);
            prop_assert_eq!(bits(&out), bits(&naive));

            // Backward dx: im2col over dy against the tap-reversed weights,
            // exactly how Conv1d::backward lowers it.
            let dy = matrix(l, c_out).generate(&mut rng);
            let kco = kw * c_out;
            let mut ycols = vec![0.0; l * kco];
            im2col_into(&mut ycols, &dy, l, c_out, kw);
            let mut wflip = vec![0.0; kco * c_in];
            for jr in 0..kw {
                let j = kw - 1 - jr;
                for co in 0..c_out {
                    wflip[(jr * c_out + co) * c_in..(jr * c_out + co + 1) * c_in]
                        .copy_from_slice(&w[co * kc + j * c_in..co * kc + (j + 1) * c_in]);
                }
            }
            let mut dx = vec![0.0; l * c_in];
            gemm_acc(&mut dx, &ycols, &wflip, l, kco, c_in);
            // Backward dw: dyᵀ · cols.
            let mut dyt = vec![0.0; c_out * l];
            transpose_into(&mut dyt, &dy, l, c_out);
            let mut dw = vec![0.0; c_out * kc];
            gemm_acc(&mut dw, &dyt, &cols, c_out, l, kc);
            let (_, ndw, ndx) = reference::conv1d_backward_naive(&x, &w, &dy, l, c_in, c_out, kw);
            prop_assert_eq!(bits(&dx), bits(&ndx));
            prop_assert_eq!(bits(&dw), bits(&ndw));
        }
    }

    #[test]
    fn workspace_reuses_capacity() {
        let (h0, m0) = workspace_counters();
        let mut ws = Workspace::<f64>::new();
        let a = ws.acquire(64); // miss: empty pool
        ws.release(a);
        let b = ws.acquire(32); // hit: pooled capacity suffices
        assert!(b.iter().all(|&v| v == 0.0));
        ws.release(b);
        let (h1, m1) = workspace_counters();
        assert!(h1 - h0 >= 1, "expected a pool hit");
        assert!(m1 - m0 >= 1, "expected an initial miss");
    }

    #[test]
    fn workspace_clone_starts_empty() {
        let mut ws = Workspace::<f64>::new();
        let buf = ws.acquire(16);
        ws.release(buf);
        let clone = ws.clone();
        assert!(clone.pool.is_empty());
    }

    #[test]
    fn im2col_zero_pads_edges() {
        // l=2, c=1, kw=3: window at t=0 pads the left tap, t=1 the right.
        let mut cols = vec![f64::NAN; 6];
        im2col_into(&mut cols, &[10.0, 20.0], 2, 1, 3);
        assert_eq!(cols, vec![0.0, 10.0, 20.0, 10.0, 20.0, 0.0]);
    }

    #[test]
    fn empty_shapes_are_safe() {
        gemm_acc(&mut [], &[], &[], 0, 0, 0);
        gemm_acc_dense(&mut [], &[], &[], 0, 3, 0);
        matvec_into(&mut [], &[], &[], 0, 0);
        im2col_into::<f64>(&mut [], &[], 0, 1, 3);
        let mut y = vec![f64::NAN; 2];
        matvec_into(&mut y, &[], &[], 2, 0);
        // k = 0: each row is an empty `.sum()`, which is -0.0 for floats.
        assert_eq!(bits(&y), bits(&[-0.0, -0.0]));
    }

    /// The scanning model's own shapes (conv GEMM, attention GEMM, dense
    /// matvec), which the random dims above only reach in part.
    #[test]
    fn model_shapes_bit_identical_to_naive() {
        let mut rng = TestRng::for_test("model-shapes");
        // (24, 600, 72) is conv2's weight gradient on a 600-token gadget:
        // k spans several gathered chunks of the zero-skip path.
        for dims in [
            (220, 72, 24),
            (220, 24, 24),
            (24, 600, 72),
            (7, 72, 24),
            (5, 257, 30),
        ] {
            check_gemm_case(&gemm_bodies(), reference::gemm_acc_naive, dims, &mut rng).unwrap();
            check_gemm_case(
                &dense_gemm_bodies(),
                reference::gemm_acc_dense_naive,
                dims,
                &mut rng,
            )
            .unwrap();
        }
        for dims in [(256, 168), (64, 256), (1, 64), (6, 24), (19, 7)] {
            check_matvec_case(dims, &mut rng).unwrap();
        }
    }
}
