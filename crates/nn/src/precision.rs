//! Precision tiers of the SPP-CNN's inference forward.
//!
//! There is one forward ([`crate::SevulDetCnn`], generic over
//! [`crate::Scalar`]). The `f64` tier is the trained model itself. The
//! `f32` tier is the same network converted once
//! ([`crate::SevulDetCnn::to_f32`]).

use std::fmt;
use std::str::FromStr;

/// The compute tier a detector runs its forward pass on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Bit-exact f64 reference path (training and default inference).
    F64,
    /// f32 weights/activations with SIMD kernels.
    F32,
}

impl Precision {
    /// The CLI / metrics-label spelling of the tier.
    pub fn as_str(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a spelling names no precision tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePrecisionError {
    /// The spelling named a tier that no longer exists (`int8`, which was
    /// slower than `f32` and less exact).
    Removed(&'static str),
    /// The spelling never named a tier.
    Unknown(String),
}

impl fmt::Display for ParsePrecisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePrecisionError::Removed(tier) => write!(
                f,
                "precision '{tier}' was removed; use f32 for the fast tier (or f64)"
            ),
            ParsePrecisionError::Unknown(s) => {
                write!(f, "unknown precision '{s}' (expected f64 or f32)")
            }
        }
    }
}

impl std::error::Error for ParsePrecisionError {}

impl FromStr for Precision {
    type Err = ParsePrecisionError;

    fn from_str(s: &str) -> Result<Precision, ParsePrecisionError> {
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            "int8" => Err(ParsePrecisionError::Removed("int8")),
            other => Err(ParsePrecisionError::Unknown(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CnnConfig, SevulDetCnn};
    use crate::tensor::{sigmoid, Tensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_model() -> SevulDetCnn {
        let mut rng = StdRng::seed_from_u64(7);
        let (v, d) = (12, 8);
        let data: Vec<f64> = (0..v * d).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let table = Tensor::from_vec(&[v, d], data);
        let cfg = CnnConfig {
            channels: 8,
            cbam_reduction: 2,
            cbam_kernel: 3,
            spp_bins: vec![2, 1],
            ..CnnConfig::default()
        };
        SevulDetCnn::new(table, cfg, &mut rng)
    }

    fn sequences() -> Vec<Vec<usize>> {
        vec![
            vec![1, 2, 3, 4, 5],
            vec![0, 0, 0],
            vec![7, 7, 2, 9, 1, 4, 3, 8, 11, 6],
            vec![],
            vec![99, 3], // out-of-range id falls back to row 0
        ]
    }

    #[test]
    fn f32_engine_tracks_f64_scores() {
        let mut model = tiny_model();
        let want = model.infer_logits(&sequences());
        let got = model.to_f32().infer_logits(&sequences());
        for (got, w) in got.into_iter().zip(&want) {
            assert!(
                (sigmoid(got) - sigmoid(*w)).abs() < 1e-3,
                "f32 score drifted: got logit {got}, want {w}"
            );
        }
    }

    #[test]
    fn precision_parses_and_prints() {
        assert_eq!("f64".parse::<Precision>().unwrap(), Precision::F64);
        assert_eq!("f32".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!(
            "fp16".parse::<Precision>(),
            Err(ParsePrecisionError::Unknown("fp16".into()))
        );
        assert_eq!(Precision::F32.to_string(), "f32");
    }

    #[test]
    fn removed_int8_spelling_is_a_distinct_error_naming_f32() {
        let err = "int8".parse::<Precision>().unwrap_err();
        assert_eq!(err, ParsePrecisionError::Removed("int8"));
        let msg = err.to_string();
        assert!(msg.contains("removed") && msg.contains("f32"), "{msg}");
    }
}
