//! Trainable parameters and initialization.

use crate::scalar::Scalar;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param<S = f64> {
    /// Current value.
    pub w: Tensor<S>,
    /// Accumulated gradient (same shape; empty in an inference copy).
    pub g: Tensor<S>,
}

impl<S: Scalar> Param<S> {
    /// An inference copy at precision `T`: the value converted, and an
    /// empty gradient, since only the f64 model trains.
    pub(crate) fn convert<T: Scalar>(&self) -> Param<T> {
        Param {
            w: self.w.convert(),
            g: Tensor::zeros(&[0]),
        }
    }
}

impl Param {
    /// A parameter of zeros.
    pub fn zeros(shape: &[usize]) -> Param {
        Param {
            w: Tensor::zeros(shape),
            g: Tensor::zeros(shape),
        }
    }

    /// Xavier/Glorot-uniform initialization for a parameter with the given
    /// fan-in/fan-out.
    pub fn xavier(shape: &[usize], fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Param {
        let bound = (6.0 / (fan_in + fan_out) as f64).sqrt();
        let data = (0..shape.iter().product::<usize>())
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Param {
            w: Tensor::from_vec(shape, data),
            g: Tensor::zeros(shape),
        }
    }

    /// Uniform initialization in `[-bound, bound]`.
    pub fn uniform(shape: &[usize], bound: f64, rng: &mut StdRng) -> Param {
        let data = (0..shape.iter().product::<usize>())
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Param {
            w: Tensor::from_vec(shape, data),
            g: Tensor::zeros(shape),
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.g.fill_zero();
    }

    /// Moves the accumulated gradient out, leaving zeros behind — the
    /// extraction half of the data-parallel gradient exchange.
    pub fn take_grad(&mut self) -> Tensor {
        std::mem::replace(&mut self.g, Tensor::zeros(self.w.shape()))
    }

    /// Adds `g` into the accumulated gradient — the merge half of the
    /// data-parallel gradient exchange.
    ///
    /// # Panics
    ///
    /// Panics when `g` has a different shape than the parameter.
    pub fn add_grad(&mut self, g: &Tensor) {
        assert_eq!(g.shape(), self.g.shape(), "gradient shape mismatch");
        self.g.axpy(1.0, g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Param::xavier(&[10, 10], 10, 10, &mut rng);
        let bound = (6.0f64 / 20.0).sqrt();
        assert!(p.w.data().iter().all(|x| x.abs() <= bound));
        assert!(p.g.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::zeros(&[2, 2]);
        p.g.data_mut()[0] = 3.0;
        p.zero_grad();
        assert_eq!(p.g.data(), &[0.0; 4]);
    }
}
