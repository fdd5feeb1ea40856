//! A minimal dense tensor (row-major) sized for this project's networks:
//! 1-D/2-D shapes, matmul, transposition, elementwise ops.
//!
//! Training and the reference path use f64, which keeps finite-difference
//! gradient checks tight; at the scale of the paper's models (embedding
//! dim 30, dozens of channels) the cost is negligible next to algorithmic
//! clarity. The f32 inference tier stores its converted weights and
//! activations in `Tensor<f32>`; the arithmetic helpers below stay f64.

use std::fmt;

use crate::scalar::Scalar;

/// A dense row-major tensor of `f64` (or, for the f32 tier, `f32`) values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<S = f64> {
    shape: Vec<usize>,
    data: Vec<S>,
}

impl<S: Scalar> Tensor<S> {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Tensor<S> {
        Tensor {
            shape: shape.to_vec(),
            data: vec![S::ZERO; shape.iter().product()],
        }
    }

    /// Builds a tensor from a shape and data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<S>) -> Tensor<S> {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows of a 2-D tensor.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() needs a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() needs a 2-D tensor");
        self.shape[1]
    }

    /// Immutable view of the raw data.
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// 2-D element access.
    pub fn at(&self, r: usize, c: usize) -> S {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// 2-D element mutation.
    pub fn set(&mut self, r: usize, c: usize, v: S) {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c] = v;
    }

    /// Adds `v` to element `(r, c)`.
    pub fn add_at(&mut self, r: usize, c: usize, v: S) {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c] += v;
    }

    /// A row of a 2-D tensor as a slice.
    pub fn row(&self, r: usize) -> &[S] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    /// A mutable row of a 2-D tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [S] {
        let c = self.cols();
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Sets every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.fill(S::ZERO);
    }

    /// Changes the shape in place, reusing the existing allocation.
    /// Elements past the old length are zero; elements within it keep
    /// whatever they held, so callers must fully overwrite (or
    /// [`fill_zero`](Tensor::fill_zero)) before reading.
    pub fn resize(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        let n = shape.iter().product();
        self.data.resize(n, S::ZERO);
    }

    /// Makes `self` a copy of `other`, reusing the existing allocation.
    pub fn copy_from(&mut self, other: &Tensor<S>) {
        self.shape.clear();
        self.shape.extend_from_slice(&other.shape);
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// The same tensor with every element converted to `T` (`as`).
    pub(crate) fn convert<T: Scalar>(&self) -> Tensor<T> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| T::from_f64(v.to_f64())).collect(),
        }
    }
}

impl Tensor {
    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f64) -> Tensor {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// A 1-D tensor from a slice.
    pub fn vector(data: &[f64]) -> Tensor {
        Tensor::from_vec(&[data.len()], data.to_vec())
    }

    /// Matrix product of two 2-D tensors: `(m×k) · (k×n) → (m×n)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(other.shape.len(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = vec![0.0; m * n];
        crate::kernels::gemm_acc(&mut out, &self.data, &other.data, m, k, n);
        Tensor::from_vec(&[m, n], out)
    }

    /// Matrix-vector product: `(m×k) · (k) → (m)`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.shape.len(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        assert_eq!(k, v.len());
        let mut y = vec![0.0; m];
        crate::kernels::matvec_into(&mut y, &self.data, v, m, k);
        y
    }

    /// Transpose of a 2-D tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(&[n, m], out)
    }

    /// Elementwise sum (shapes must match).
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape);
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Tensor {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest element.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

impl<S: Scalar> fmt::Display for Tensor<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor{:?}{:.4?}",
            self.shape,
            &self.data[..self.data.len().min(8)]
        )
    }
}

/// Numerically stable softmax over a slice.
pub fn softmax<S: Scalar>(xs: &[S]) -> Vec<S> {
    let mut out = Vec::new();
    softmax_into(xs, &mut out);
    out
}

/// [`softmax`] writing into a caller-owned buffer (same operation order,
/// so the results are bit-identical).
pub fn softmax_into<S: Scalar>(xs: &[S], out: &mut Vec<S>) {
    let m = xs.iter().copied().fold(S::NEG_INFINITY, S::max);
    out.clear();
    out.extend(xs.iter().map(|&x| (x - m).exp()));
    let s: S = out.iter().copied().sum();
    for e in out.iter_mut() {
        *e /= s;
    }
}

/// Stable sigmoid.
pub fn sigmoid<S: Scalar>(x: S) -> S {
    if x >= S::ZERO {
        S::ONE / (S::ONE + (-x).exp())
    } else {
        let e = x.exp();
        e / (S::ONE + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let v = vec![1., 0., -1.];
        assert_eq!(a.matvec(&v), vec![-2., -2.]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::vector(&[1., -2., 3.]);
        let b = Tensor::vector(&[2., 2., 2.]);
        assert_eq!(a.add(&b).data(), &[3., 0., 5.]);
        assert_eq!(a.map(f64::abs).data(), &[1., 2., 3.]);
        assert_eq!(a.scale(2.0).data(), &[2., -4., 6.]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::vector(&[1., 1.]);
        a.axpy(0.5, &Tensor::vector(&[2., 4.]));
        assert_eq!(a.data(), &[2., 3.]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0f64, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0f64) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_validates() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn rows_and_row_access() {
        let mut a = Tensor::zeros(&[2, 3]);
        a.row_mut(1).copy_from_slice(&[1., 2., 3.]);
        assert_eq!(a.row(1), &[1., 2., 3.]);
        a.add_at(1, 2, 1.0);
        assert_eq!(a.at(1, 2), 4.0);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
    }
}
