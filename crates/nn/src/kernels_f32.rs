//! The fast inference tier of the kernel layer: f32 SIMD GEMM / matvec.
//! (The copy-only routines, im2col and transposition, are generic in
//! [`crate::kernels`].)
//!
//! Unlike [`crate::kernels`], nothing here promises bit-identity with the
//! f64 reference loops — these routines trade exact accumulation order for
//! memory traffic (f32 halves it) and for SIMD width. On
//! x86-64 the hot loops dispatch at runtime to AVX2+FMA bodies when the CPU
//! supports them; everywhere else (and on other architectures) a manually
//! 4-wide-unrolled scalar body runs instead. Dispatch is cached in a
//! `OnceLock`, so the feature probe costs one atomic load per call.
//!
//! The AVX2+FMA bodies are register tiles: the GEMM computes blocks of 4
//! output rows × 1–3 eight-column strips, the matvec blocks of 4 rows. The
//! tiles only choose which outputs are computed side by side. Each output
//! element is computed exactly as a one-row-at-a-time body computes it: in
//! the GEMM, one chain over ascending `p` (an FMA per step in a strip, a
//! separate multiply and add per step in the scalar column tail); in the
//! matvec, eight lane chains over `p` in steps of 8, one fixed horizontal
//! sum, then a scalar tail. An element reads only its own row of `a`, its
//! own column of `b` (or `x`) and its own starting value, so its bits do
//! not depend on `m`, on its row's place in a block, or on the other rows
//! of the call — the property the token-score memo and batched inference
//! rely on (DESIGN.md §5d) — and they are the bits of the per-row bodies
//! the tiles replaced (asserted by the `to_bits` proptests below).
//!
//! Accuracy envelope (asserted by the round-trip proptests below and by the
//! `precision_tiers` integration test):
//!
//! * f32: per-element GEMM error is bounded by `k · ε_f32 · max|a|·max|b|`
//!   (≈ 1e-5 relative at the model's `k = 90`); end-to-end sigmoid scores
//!   stay within `1e-3` of the f64 reference.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Whether the AVX2+FMA fast paths are active on this machine. Returns
/// `"avx2+fma"` or `"scalar"`; surfaced in benches and `/metrics` notes so
/// recorded numbers say which body produced them.
pub fn simd_level() -> &'static str {
    if avx2_fma() {
        "avx2+fma"
    } else {
        "scalar"
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_fma() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_fma() -> bool {
    false
}

// ---- f32 kernels ----

/// `out += a · b` for row-major f32 `a (m×k)`, `b (k×n)`, `out (m×n)`.
/// `out` must be caller-initialized (zeros, or bias rows for a fused
/// conv/dense product). No zero-skip: every term is accumulated.
pub fn gemm_f32(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(out.len(), m * n, "gemm_f32 out {m}x{n}");
    assert_eq!(a.len(), m * k, "gemm_f32 a {m}x{k}");
    assert_eq!(b.len(), k * n, "gemm_f32 b {k}x{n}");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: avx2+fma verified at runtime; slice lengths asserted above.
        unsafe { gemm_f32_avx2(out, a, b, m, k, n) };
        return;
    }
    gemm_f32_scalar(out, a, b, m, k, n);
}

/// Scalar body: per output row, broadcast each `a[i][p]` over a 4-wide
/// unrolled pass of `b`'s row `p`.
fn gemm_f32_scalar(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                orow[j] += av * brow[j];
                orow[j + 1] += av * brow[j + 1];
                orow[j + 2] += av * brow[j + 2];
                orow[j + 3] += av * brow[j + 3];
                j += 4;
            }
            while j < n {
                orow[j] += av * brow[j];
                j += 1;
            }
        }
    }
}

/// AVX2+FMA body: register tiles of 4 output rows × 1–3 eight-column
/// strips ([`gemm_f32_rows`]), then a 1-row tile per leftover row. Every
/// output element is one FMA chain over ascending `p`, started from its
/// `out` value, whatever tile it lands in, so the tiling changes no bit of
/// any result; it runs up to 12 such chains side by side, which hides the
/// FMA latency.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and `out`, `a`, `b` must hold
/// `m × n`, `m × k` and `k × n` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_f32_avx2(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let (o, a, b) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 4 <= m {
        gemm_f32_rows::<4>(o.add(i * n), a.add(i * k), b, k, n);
        i += 4;
    }
    for r in i..m {
        gemm_f32_rows::<1>(o.add(r * n), a.add(r * k), b, k, n);
    }
}

/// `R` output rows starting at `o`, with their `a` rows at `a`: tiles of
/// 3 strips while that leaves no lone strip, then the `n % 8` columns as
/// scalar chains (a separate multiply and add per term). 32 columns run as
/// 2 + 2 strips, not 3 + 1: a 4-row × 1-strip tile has only 4 chains, too
/// few to hide the FMA latency.
///
/// # Safety
///
/// AVX2+FMA; `o` valid for `R` rows of stride `n`, `a` for `R` rows of
/// stride `k`, `b` for `k` rows of stride `n`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_f32_rows<const R: usize>(
    o: *mut f32,
    a: *const f32,
    b: *const f32,
    k: usize,
    n: usize,
) {
    let mut j = 0;
    let mut strips = n / 8;
    while strips > 0 {
        let v = match strips {
            1 => 1,
            2 | 4 => 2,
            _ => 3,
        };
        match v {
            1 => gemm_f32_tile::<R, 1>(o.add(j), a, b.add(j), k, n),
            2 => gemm_f32_tile::<R, 2>(o.add(j), a, b.add(j), k, n),
            _ => gemm_f32_tile::<R, 3>(o.add(j), a, b.add(j), k, n),
        }
        j += 8 * v;
        strips -= v;
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

/// One `R × 8V` tile: `R·V` independent accumulators, loaded from `out`
/// once and stored once, each stepping one FMA per `p`.
///
/// # Safety
///
/// As [`gemm_f32_rows`], with `8V` columns readable from `o` and `b`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_f32_tile<const R: usize, const V: usize>(
    o: *mut f32,
    a: *const f32,
    b: *const f32,
    k: usize,
    n: usize,
) {
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    for r in 0..R {
        for v in 0..V {
            acc[r][v] = _mm256_loadu_ps(o.add(r * n + 8 * v));
        }
    }
    for p in 0..k {
        let mut bv = [_mm256_setzero_ps(); V];
        for v in 0..V {
            bv[v] = _mm256_loadu_ps(b.add(p * n + 8 * v));
        }
        for r in 0..R {
            let av = _mm256_broadcast_ss(&*a.add(r * k + p));
            for v in 0..V {
                acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
            }
        }
    }
    for r in 0..R {
        for v in 0..V {
            _mm256_storeu_ps(o.add(r * n + 8 * v), acc[r][v]);
        }
    }
}

/// `y = a · x` for row-major f32 `a (m×k)` and `x (k)`. Overwrites `y`.
pub fn matvec_f32(y: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
    assert_eq!(y.len(), m, "matvec_f32 y {m}");
    assert_eq!(a.len(), m * k, "matvec_f32 a {m}x{k}");
    assert_eq!(x.len(), k, "matvec_f32 x {k}");
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: avx2+fma verified at runtime; slice lengths asserted above.
        unsafe { matvec_f32_avx2(y, a, x, m, k) };
        return;
    }
    matvec_f32_scalar(y, a, x, m, k);
}

/// Scalar body: four independent accumulators per row hide the FP add
/// latency chain; the tail folds in whatever is left.
fn matvec_f32_scalar(y: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let mut p = 0;
        while p + 4 <= k {
            s0 += arow[p] * x[p];
            s1 += arow[p + 1] * x[p + 1];
            s2 += arow[p + 2] * x[p + 2];
            s3 += arow[p + 3] * x[p + 3];
            p += 4;
        }
        let mut s = (s0 + s1) + (s2 + s3);
        while p < k {
            s += arow[p] * x[p];
            p += 1;
        }
        y[i] = s;
    }
}

/// AVX2+FMA body: blocks of 4 rows, then a 1-row block per leftover row
/// ([`matvec_f32_rows`]). Each row keeps its own 8-lane accumulator over
/// `p` in steps of 8, its own horizontal sum and its own scalar tail over
/// the last `k % 8` terms, so it has the bits it had when rows ran one at
/// a time; a block only interleaves 4 independent FMA chains.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and `y`, `a`, `x` must hold `m`,
/// `m × k` and `k` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matvec_f32_avx2(y: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
    let (y, a, x) = (y.as_mut_ptr(), a.as_ptr(), x.as_ptr());
    let mut i = 0;
    while i + 4 <= m {
        matvec_f32_rows::<4>(y.add(i), a.add(i * k), x, k);
        i += 4;
    }
    for r in i..m {
        matvec_f32_rows::<1>(y.add(r), a.add(r * k), x, k);
    }
}

/// `R` rows of [`matvec_f32_avx2`] starting at `y`, with their `a` rows at
/// `a`.
///
/// # Safety
///
/// AVX2+FMA; `y` valid for `R` elements, `a` for `R` rows of stride `k`,
/// `x` for `k` elements.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matvec_f32_rows<const R: usize>(y: *mut f32, a: *const f32, x: *const f32, k: usize) {
    let mut acc = [_mm256_setzero_ps(); R];
    let mut p = 0;
    while p + 8 <= k {
        let xv = _mm256_loadu_ps(x.add(p));
        for r in 0..R {
            acc[r] = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(r * k + p)), xv, acc[r]);
        }
        p += 8;
    }
    for r in 0..R {
        let arow = a.add(r * k);
        let mut s = hsum256_ps(acc[r]);
        for q in p..k {
            s += *arow.add(q) * *x.add(q);
        }
        *y.add(r) = s;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum256_ps(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    _mm_cvtss_f32(s)
}

/// The per-row AVX2+FMA bodies the register tiles replaced, kept verbatim
/// as the bit-identity reference for the tiled kernels.
#[cfg(all(test, target_arch = "x86_64"))]
mod reference {
    use super::hsum256_ps;
    use std::arch::x86_64::*;

    /// One FMA accumulator per (row, 8-column strip), rows one at a time.
    ///
    /// # Safety
    ///
    /// As [`super::gemm_f32_avx2`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_f32_avx2(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            let arow = a.as_ptr().add(i * k);
            let orow = out.as_mut_ptr().add(i * n);
            let mut j = 0;
            while j + 8 <= n {
                let mut acc = _mm256_loadu_ps(orow.add(j));
                let mut bp = b.as_ptr().add(j);
                for p in 0..k {
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(*arow.add(p)), _mm256_loadu_ps(bp), acc);
                    bp = bp.add(n);
                }
                _mm256_storeu_ps(orow.add(j), acc);
                j += 8;
            }
            while j < n {
                let mut s = *orow.add(j);
                for p in 0..k {
                    s += *arow.add(p) * *b.get_unchecked(p * n + j);
                }
                *orow.add(j) = s;
                j += 1;
            }
        }
    }

    /// One 8-lane accumulator per row, rows one at a time.
    ///
    /// # Safety
    ///
    /// As [`super::matvec_f32_avx2`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matvec_f32_avx2(y: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        for i in 0..m {
            let arow = a.as_ptr().add(i * k);
            let mut acc = _mm256_setzero_ps();
            let mut p = 0;
            while p + 8 <= k {
                acc = _mm256_fmadd_ps(
                    _mm256_loadu_ps(arow.add(p)),
                    _mm256_loadu_ps(x.as_ptr().add(p)),
                    acc,
                );
                p += 8;
            }
            let mut s = hsum256_ps(acc);
            while p < k {
                s += *arow.add(p) * *x.get_unchecked(p);
                p += 1;
            }
            *y.get_unchecked_mut(i) = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{im2col_into, transpose_into};
    use proptest::prelude::*;

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

    fn to_f32(v: &[f64]) -> Vec<f32> {
        v.iter().map(|&x| x as f32).collect()
    }

    type Gemm = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);
    type Matvec = fn(&mut [f32], &[f32], &[f32], usize, usize);

    /// f64 dense matmul reference (no zero-skip, like `gemm_f32`).
    fn matmul_f64(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// f32↔f64 round trip: downcast the operands, run the f32 kernel,
        /// and check every element against the f64 product of the *same*
        /// downcast operands within the documented envelope
        /// `k · ε_f32 · max|a| · max|b|` (with a small absolute floor).
        // Dims reach 4-row blocks with a row tail, tiles of 1–3 strips
        // (16 and 24 columns) and an `n % 8` tail.
        #[test]
        fn gemm_f32_within_envelope_of_f64(dims in (0usize..14, 0usize..17, 0usize..42)) {
            let (m, k, n) = dims;
            let mut rng = TestRng::for_test(&format!("gemm-f32-{m}-{k}-{n}"));
            let a = matrix(m, k).generate(&mut rng);
            let b = matrix(k, n).generate(&mut rng);
            let (a32, b32) = (to_f32(&a), to_f32(&b));
            let a64: Vec<f64> = a32.iter().map(|&v| v as f64).collect();
            let b64: Vec<f64> = b32.iter().map(|&v| v as f64).collect();
            let exact = matmul_f64(&a64, &b64, m, k, n);
            let amax = a.iter().fold(0.0f64, |s, &v| s.max(v.abs()));
            let bmax = b.iter().fold(0.0f64, |s, &v| s.max(v.abs()));
            let tol = (k as f64) * (f32::EPSILON as f64) * amax * bmax + 1e-6;
            for (name, body) in [("dispatch", gemm_f32 as Gemm), ("scalar", gemm_f32_scalar)] {
                let mut out = vec![0.0f32; m * n];
                body(&mut out, &a32, &b32, m, k, n);
                for (got, want) in out.iter().zip(&exact) {
                    prop_assert!(
                        ((*got as f64) - want).abs() <= tol,
                        "{name}: got {got}, want {want}, tol {tol}"
                    );
                }
            }
        }

        #[test]
        fn matvec_f32_within_envelope_of_f64(dims in (0usize..11, 0usize..40)) {
            let (m, k) = dims;
            let mut rng = TestRng::for_test(&format!("matvec-f32-{m}-{k}"));
            let a32 = to_f32(&matrix(m, k).generate(&mut rng));
            let x32 = to_f32(&matrix(k, 1).generate(&mut rng));
            let a64: Vec<f64> = a32.iter().map(|&v| v as f64).collect();
            let x64: Vec<f64> = x32.iter().map(|&v| v as f64).collect();
            let amax = a64.iter().fold(0.0f64, |s, &v| s.max(v.abs()));
            let xmax = x64.iter().fold(0.0f64, |s, &v| s.max(v.abs()));
            let tol = (k as f64) * (f32::EPSILON as f64) * amax * xmax + 1e-6;
            for (name, body) in [("dispatch", matvec_f32 as Matvec), ("scalar", matvec_f32_scalar)] {
                let mut y = vec![0.0f32; m];
                body(&mut y, &a32, &x32, m, k);
                for i in 0..m {
                    let want: f64 = (0..k).map(|p| a64[i * k + p] * x64[p]).sum();
                    prop_assert!(
                        ((y[i] as f64) - want).abs() <= tol,
                        "{name} row {i}: got {}, want {want}, tol {tol}", y[i]
                    );
                }
            }
        }
    }

    /// An f32 operand matrix with exact zeros of both signs and up to three
    /// NaN / ±∞ entries at random positions (few, so most outputs stay
    /// finite and still pin rounding).
    #[cfg(target_arch = "x86_64")]
    fn special_matrix(rows: usize, cols: usize, rng: &mut TestRng) -> Vec<f32> {
        let mut v: Vec<f32> = (0..rows * cols)
            .map(|_| match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                _ => ((rng.below(1 << 20) as f64 / (1 << 19) as f64 - 1.0) * 4.0) as f32,
            })
            .collect();
        if !v.is_empty() {
            for _ in 0..rng.below(4) {
                let at = rng.below(v.len());
                v[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.below(3)];
            }
        }
        v
    }

    /// Bit equality, except that any NaN matches any NaN: which NaN an
    /// operation returns is not fixed by IEEE 754, and LLVM may commute
    /// the operands of a scalar add.
    #[cfg(target_arch = "x86_64")]
    fn same_bits(got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if !(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())) {
                return Err(TestCaseError::new(format!("element {i}: {g:?} vs {w:?}")));
            }
        }
        Ok(())
    }

    /// The tiled GEMM (dispatcher and AVX2 body) against the per-row
    /// reference body on one random case, accumulating into an `out` of
    /// signed zeros and plain values.
    #[cfg(target_arch = "x86_64")]
    fn check_tiled_gemm(
        (m, k, n): (usize, usize, usize),
        rng: &mut TestRng,
    ) -> Result<(), TestCaseError> {
        let a = special_matrix(m, k, rng);
        let b = special_matrix(k, n, rng);
        let init = special_matrix(m, n, rng);
        let mut want = init.clone();
        // SAFETY: callers run this only where avx2+fma is present.
        unsafe { reference::gemm_f32_avx2(&mut want, &a, &b, m, k, n) };
        let mut out = init.clone();
        gemm_f32(&mut out, &a, &b, m, k, n);
        same_bits(&out, &want)
            .map_err(|e| TestCaseError::new(format!("dispatch {m}x{k}x{n}: {e:?}")))?;
        let mut out = init;
        // SAFETY: as above; lengths match the shape.
        unsafe { gemm_f32_avx2(&mut out, &a, &b, m, k, n) };
        same_bits(&out, &want).map_err(|e| TestCaseError::new(format!("avx2 {m}x{k}x{n}: {e:?}")))
    }

    #[cfg(target_arch = "x86_64")]
    fn check_tiled_matvec((m, k): (usize, usize), rng: &mut TestRng) -> Result<(), TestCaseError> {
        let a = special_matrix(m, k, rng);
        let x = special_matrix(k, 1, rng);
        let mut want = vec![f32::NAN; m];
        // SAFETY: callers run this only where avx2+fma is present.
        unsafe { reference::matvec_f32_avx2(&mut want, &a, &x, m, k) };
        let mut y = vec![f32::NAN; m];
        matvec_f32(&mut y, &a, &x, m, k);
        same_bits(&y, &want).map_err(|e| TestCaseError::new(format!("dispatch {m}x{k}: {e:?}")))?;
        let mut y = vec![f32::NAN; m];
        // SAFETY: as above; lengths match the shape.
        unsafe { matvec_f32_avx2(&mut y, &a, &x, m, k) };
        same_bits(&y, &want).map_err(|e| TestCaseError::new(format!("avx2 {m}x{k}: {e:?}")))
    }

    #[cfg(target_arch = "x86_64")]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // 4-row blocks with a 1–3-row tail, 1–6 strips (every tile width,
        // and 32 columns as 2 + 2) with an `n % 8` tail, and `k = 0`.
        #[test]
        fn tiled_gemm_f32_bit_identical_to_per_row(dims in (0usize..15, 0usize..40, 0usize..52)) {
            if avx2_fma() {
                let mut rng = TestRng::for_test(&format!("tiled-gemm-f32-{dims:?}"));
                check_tiled_gemm(dims, &mut rng)?;
            }
        }

        // The convolutions' shapes, over gadgets up to 700 tokens: `k` of
        // 72 (24 channels) and 90 (30), `n` of 24 and 32 output channels,
        // and conv2 of the 32-channel default (k = 96).
        #[test]
        fn tiled_gemm_f32_bit_identical_at_model_shapes(
            m in 0usize..701, shape in 0usize..5,
        ) {
            if avx2_fma() {
                let (k, n) = [(72, 24), (72, 32), (90, 24), (90, 32), (96, 32)][shape];
                let mut rng = TestRng::for_test(&format!("tiled-gemm-f32-model-{m}-{k}-{n}"));
                check_tiled_gemm((m, k, n), &mut rng)?;
            }
        }

        // 4-row blocks with a 1–3-row tail; `k` below, at and past several
        // 8-lane steps, with a `k % 8` tail, and `k = 0`.
        #[test]
        fn tiled_matvec_f32_bit_identical_to_per_row(dims in (0usize..15, 0usize..100)) {
            if avx2_fma() {
                let mut rng = TestRng::for_test(&format!("tiled-matvec-f32-{dims:?}"));
                check_tiled_matvec(dims, &mut rng)?;
            }
        }
    }

    #[test]
    fn empty_and_k0_shapes_are_safe() {
        // m = n = k = 0 and k = 0 with live rows: no panic, no writes.
        gemm_f32(&mut [], &[], &[], 0, 0, 0);
        gemm_f32(&mut [], &[], &[], 0, 3, 0);
        let mut out = vec![7.0f32; 4];
        gemm_f32(&mut out, &[], &[], 2, 0, 2);
        assert_eq!(out, vec![7.0; 4], "k=0 leaves the bias-initialized out");
        matvec_f32(&mut [], &[], &[], 0, 0);
        // k = 0 matvec rows are empty sums: exact zero.
        let mut y = vec![f32::NAN; 2];
        matvec_f32(&mut y, &[], &[], 2, 0);
        assert_eq!(y, vec![0.0, 0.0]);
        im2col_into::<f32>(&mut [], &[], 0, 1, 3);
    }

    #[test]
    fn single_element_matvec() {
        let mut y = vec![0.0f32; 1];
        matvec_f32(&mut y, &[3.0], &[-2.0], 1, 1);
        assert_eq!(y, vec![-6.0]);
    }

    /// The generic copy routines the f32 tier's convolution runs on.
    #[test]
    fn im2col_f32_zero_pads_edges() {
        let mut cols = vec![f32::NAN; 6];
        im2col_into(&mut cols, &[10.0f32, 20.0], 2, 1, 3);
        assert_eq!(cols, vec![0.0, 10.0, 20.0, 10.0, 20.0, 0.0]);
    }

    #[test]
    fn transpose_f32_round_trips() {
        let a = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let mut t = vec![0.0f32; 6];
        transpose_into(&mut t, &a, 2, 3);
        assert_eq!(t, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let mut back = vec![0.0f32; 6];
        transpose_into(&mut back, &t, 3, 2);
        assert_eq!(back, a);
    }
}
