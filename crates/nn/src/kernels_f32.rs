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

/// AVX2+FMA body: each 8-column strip of an output row is a register
/// accumulator over the whole k-loop, so `out` is loaded and stored once
/// per strip instead of once per `p` — `b` (k×n ≈ 11 KiB at model shape)
/// streams from L1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_f32_avx2(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matvec_f32_avx2(y: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
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
        #[test]
        fn gemm_f32_within_envelope_of_f64(dims in (0usize..9, 0usize..17, 0usize..12)) {
            let (m, k, n) = dims;
            let mut rng = TestRng::for_test(&format!("gemm-f32-{m}-{k}-{n}"));
            let a = matrix(m, k).generate(&mut rng);
            let b = matrix(k, n).generate(&mut rng);
            let (a32, b32) = (to_f32(&a), to_f32(&b));
            let a64: Vec<f64> = a32.iter().map(|&v| v as f64).collect();
            let b64: Vec<f64> = b32.iter().map(|&v| v as f64).collect();
            let mut out = vec![0.0f32; m * n];
            gemm_f32(&mut out, &a32, &b32, m, k, n);
            let exact = matmul_f64(&a64, &b64, m, k, n);
            let amax = a.iter().fold(0.0f64, |s, &v| s.max(v.abs()));
            let bmax = b.iter().fold(0.0f64, |s, &v| s.max(v.abs()));
            let tol = (k as f64) * (f32::EPSILON as f64) * amax * bmax + 1e-6;
            for (got, want) in out.iter().zip(&exact) {
                prop_assert!(
                    ((*got as f64) - want).abs() <= tol,
                    "got {got}, want {want}, tol {tol}"
                );
            }
        }

        #[test]
        fn matvec_f32_within_envelope_of_f64(dims in (0usize..11, 0usize..40)) {
            let (m, k) = dims;
            let mut rng = TestRng::for_test(&format!("matvec-f32-{m}-{k}"));
            let a32 = to_f32(&matrix(m, k).generate(&mut rng));
            let x32 = to_f32(&matrix(k, 1).generate(&mut rng));
            let mut y = vec![0.0f32; m];
            matvec_f32(&mut y, &a32, &x32, m, k);
            let a64: Vec<f64> = a32.iter().map(|&v| v as f64).collect();
            let x64: Vec<f64> = x32.iter().map(|&v| v as f64).collect();
            let amax = a64.iter().fold(0.0f64, |s, &v| s.max(v.abs()));
            let xmax = x64.iter().fold(0.0f64, |s, &v| s.max(v.abs()));
            let tol = (k as f64) * (f32::EPSILON as f64) * amax * xmax + 1e-6;
            for i in 0..m {
                let want: f64 = (0..k).map(|p| a64[i * k + p] * x64[p]).sum();
                prop_assert!(
                    ((y[i] as f64) - want).abs() <= tol,
                    "row {i}: got {}, want {want}, tol {tol}", y[i]
                );
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
