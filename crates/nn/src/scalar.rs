//! The number types a network computes in.
//!
//! The layers and [`crate::SevulDetCnn`] are written once, generic over a
//! [`Scalar`]: `f64`, the training and reference type, and `f32`, the type
//! of the fast inference tiers. Elementwise code (activations, softmax,
//! CBAM gates, pooling) is the same source at both types; the three kinds
//! of product a forward pass runs go through the trait:
//!
//! * at `f64`, the bit-exact kernels of [`crate::kernels`] (separate
//!   multiply and add, ascending `k`, the convolution's zero-skip);
//! * at `f32`, the AVX2+FMA kernels of [`crate::kernels_f32`].

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub};

use crate::kernels;
use crate::kernels_f32 as kf;

/// A floating-point type the networks compute in: `f64` or `f32`.
pub trait Scalar:
    Copy
    + Default
    + Debug
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// `0.0`.
    const ZERO: Self;
    /// `1.0`.
    const ONE: Self;
    /// `-∞`.
    const NEG_INFINITY: Self;

    /// The nearest value of this type (`as` conversion).
    fn from_f64(v: f64) -> Self;
    /// The value widened (or kept) as `f64`.
    fn to_f64(self) -> f64;
    /// `n` as this type (`as` conversion).
    fn from_usize(n: usize) -> Self;
    /// `eˣ`.
    fn exp(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// The larger of two values (the other one if either is NaN).
    fn max(self, other: Self) -> Self;

    /// `out += a · b` for a convolution: row-major `a (m×k)`, `b (k×n)`.
    /// At `f64`, `a` elements equal to zero are skipped, as in
    /// [`kernels::gemm_acc`].
    fn gemm_acc(out: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize);
    /// `out += a · b` with every term added ([`kernels::gemm_acc_dense`]).
    fn gemm_acc_dense(out: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize);
    /// `y = a · x` for row-major `a (m×k)`.
    fn matvec(y: &mut [Self], a: &[Self], x: &[Self], m: usize, k: usize);
}

/// The parts of [`Scalar`] that `f64` and `f32` implement alike.
macro_rules! float_ops {
    ($t:ident) => {
        const ZERO: $t = 0.0;
        const ONE: $t = 1.0;
        const NEG_INFINITY: $t = $t::NEG_INFINITY;
        fn from_f64(v: f64) -> $t {
            v as $t
        }
        fn to_f64(self) -> f64 {
            self as f64
        }
        fn from_usize(n: usize) -> $t {
            n as $t
        }
        fn exp(self) -> $t {
            $t::exp(self)
        }
        fn tanh(self) -> $t {
            $t::tanh(self)
        }
        fn max(self, other: $t) -> $t {
            $t::max(self, other)
        }
    };
}

impl Scalar for f64 {
    float_ops!(f64);

    fn gemm_acc(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        kernels::gemm_acc(out, a, b, m, k, n);
    }
    fn gemm_acc_dense(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        kernels::gemm_acc_dense(out, a, b, m, k, n);
    }
    fn matvec(y: &mut [f64], a: &[f64], x: &[f64], m: usize, k: usize) {
        kernels::matvec_into(y, a, x, m, k);
    }
}

impl Scalar for f32 {
    float_ops!(f32);

    fn gemm_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        kf::gemm_f32(out, a, b, m, k, n);
    }
    fn gemm_acc_dense(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        kf::gemm_f32(out, a, b, m, k, n);
    }
    fn matvec(y: &mut [f32], a: &[f32], x: &[f32], m: usize, k: usize) {
        kf::matvec_f32(y, a, x, m, k);
    }
}
