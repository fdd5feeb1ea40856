//! Precision tiers of the SPP-CNN's inference forward.
//!
//! There is one forward ([`crate::SevulDetCnn`], generic over
//! [`crate::Scalar`]). The `f64` tier is the trained model itself. The
//! `f32` tier is the same network converted once
//! ([`crate::SevulDetCnn::to_f32`]). The `int8` tier is that `f32` network
//! with an [`Int8Linear`] in place of the product at the five large sites
//! (conv1, conv2, fc1, fc2, fc3); everything in between (attention gates,
//! CBAM, SPP, activations) stays f32, which keeps the tier's error
//! dominated by the two rounding steps of each quantized product.
//! Activation scales come from a calibration batch recorded at export
//! time ([`calibrate`]) and persisted as the optional v3 section of the
//! sealed model format.

use std::fmt;
use std::str::FromStr;

use crate::kernels_f32 as kf;
use crate::models::SevulDetCnn;

/// Number of quantized activation sites: conv1 input columns, conv2 input
/// columns, and the fc1/fc2/fc3 input vectors. A persisted calibration
/// section must carry exactly this many scales.
pub const QUANT_SITES: usize = 5;

/// The compute tier a detector runs its forward pass on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Bit-exact f64 reference path (training and default inference).
    F64,
    /// f32 weights/activations with SIMD kernels.
    F32,
    /// Int8 weights + quantized activations at the five large products.
    Int8,
}

impl Precision {
    /// The CLI / metrics-label spelling of the tier.
    pub fn as_str(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Precision, String> {
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            "int8" => Ok(Precision::Int8),
            other => Err(format!(
                "unknown precision '{other}' (expected f64, f32, or int8)"
            )),
        }
    }
}

/// Why the int8 tier could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalibrationError {
    /// The model carries no calibration scales (saved before the v3
    /// format, or never calibrated) — re-export the model to embed them.
    Missing,
    /// A calibration section was present but had the wrong number of
    /// scales.
    WrongCount {
        /// How many scales the section carried (expected [`QUANT_SITES`]).
        got: usize,
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::Missing => write!(
                f,
                "model has no int8 calibration scales; re-export it with a v3-format save"
            ),
            CalibrationError::WrongCount { got } => write!(
                f,
                "calibration section has {got} scales, expected {QUANT_SITES}"
            ),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// The int8 product of one site: symmetric per-tensor int8 weights,
/// quantized once, and the site's calibrated activation scale. Each call
/// quantizes the live activations, multiplies exactly in i32, and scales
/// the sums back to f32.
#[derive(Debug, Clone)]
pub struct Int8Linear {
    w: Vec<i8>,
    w_scale: f32,
    act_scale: f32,
    qa: Vec<i8>,
    qacc: Vec<i32>,
}

impl Int8Linear {
    /// Quantizes `w` (laid out as the product reads it) for a site whose
    /// calibrated activation scale is `act_scale`.
    pub(crate) fn new(w: &[f32], act_scale: f32) -> Int8Linear {
        let w_scale = kf::max_abs_f32(w) / 127.0;
        let mut q = Vec::new();
        kf::quantize_i8(&mut q, w, w_scale);
        Int8Linear {
            w: q,
            w_scale,
            act_scale,
            qa: Vec::new(),
            qacc: Vec::new(),
        }
    }

    /// Quantizes `a` and returns the scale that maps the i32 sums back.
    fn quantize(&mut self, a: &[f32]) -> f32 {
        let sx = effective_scale(self.act_scale, a);
        kf::quantize_i8(&mut self.qa, a, sx);
        sx * self.w_scale
    }

    /// `out += a · w` for `a (m×k)` and the site's `w (k×n)`: each output
    /// gets `acc·f` added to what it holds (the convolution's bias).
    pub(crate) fn gemm_acc(&mut self, out: &mut [f32], a: &[f32], m: usize, k: usize) {
        let n = self.w.len().checked_div(k).unwrap_or(0);
        let f = self.quantize(a);
        self.qacc.clear();
        self.qacc.resize(m * n, 0);
        kf::gemm_i8(&mut self.qacc, &self.qa, &self.w, m, k, n);
        for (o, &acc) in out.iter_mut().zip(&self.qacc) {
            *o += acc as f32 * f;
        }
    }

    /// `y = w · x` for the site's `w (m×k)`: each output is `acc·f` (the
    /// dense layer adds its bias after).
    pub(crate) fn matvec(&mut self, y: &mut [f32], x: &[f32]) {
        let f = self.quantize(x);
        self.qacc.clear();
        self.qacc.resize(y.len(), 0);
        kf::matvec_i8(&mut self.qacc, &self.w, &self.qa, y.len(), x.len());
        for (o, &acc) in y.iter_mut().zip(&self.qacc) {
            *o = acc as f32 * f;
        }
    }
}

/// The activation scale actually used to quantize one tensor: the persisted
/// calibration scale, widened only when the live tensor's range exceeds
/// what calibration saw. Without this guard an activation outside the
/// calibrated envelope saturates at ±127, which can silently collapse a
/// strongly negative logit to ~0 — a catastrophic, input-dependent error.
/// With it the persisted scale is the common deterministic path and the
/// widening engages only on out-of-envelope inputs.
fn effective_scale(calibrated: f32, live: &[f32]) -> f32 {
    let m = kf::max_abs_f32(live);
    if m > calibrated * 127.0 {
        m / 127.0
    } else {
        calibrated
    }
}

/// Runs a calibration batch through the model's f32 forward and returns
/// the [`QUANT_SITES`] symmetric activation scales (`max|v| / 127` per
/// site; an all-zero site falls back to scale 1.0). Called at export time;
/// the scales ride the sealed v3 model format.
pub fn calibrate(model: &SevulDetCnn, probes: &[Vec<usize>]) -> Vec<f64> {
    let mut fast = model.to_f32();
    let mut maxabs = [0.0f32; QUANT_SITES];
    for p in probes {
        fast.infer_logit(p);
        for (m, site) in maxabs.iter_mut().zip(fast.quant_site_inputs()) {
            *m = m.max(kf::max_abs_f32(site));
        }
    }
    maxabs
        .iter()
        .map(|&m| if m > 0.0 { (m / 127.0) as f64 } else { 1.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CnnConfig, SequenceClassifier};
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

    fn f64_logits(model: &mut SevulDetCnn) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(1);
        sequences()
            .iter()
            .map(|s| model.forward_logit(s, false, &mut rng))
            .collect()
    }

    #[test]
    fn f32_engine_tracks_f64_scores() {
        let mut model = tiny_model();
        let want = f64_logits(&mut model);
        let mut fast = model.to_f32();
        for (s, w) in sequences().iter().zip(&want) {
            let got = fast.infer_logit(s);
            assert!(
                (sigmoid(got) - sigmoid(*w)).abs() < 1e-3,
                "f32 score drifted: got logit {got}, want {w}"
            );
        }
    }

    #[test]
    fn int8_engine_tracks_f64_scores_after_calibration() {
        let mut model = tiny_model();
        let want = f64_logits(&mut model);
        let cal = calibrate(&model, &sequences());
        assert_eq!(cal.len(), QUANT_SITES);
        let mut fast = model.to_f32();
        fast.quantize(Some(&cal)).unwrap();
        for (s, w) in sequences().iter().zip(&want) {
            let got = fast.infer_logit(s);
            assert!(
                (sigmoid(got) - sigmoid(*w)).abs() < 5e-2,
                "int8 score drifted: got logit {got}, want {w}"
            );
        }
    }

    #[test]
    fn int8_without_calibration_is_an_error() {
        let mut fast = tiny_model().to_f32();
        assert_eq!(fast.quantize(None), Err(CalibrationError::Missing));
        assert_eq!(
            fast.quantize(Some(&[1.0; 3])),
            Err(CalibrationError::WrongCount { got: 3 })
        );
    }

    #[test]
    fn precision_parses_and_prints() {
        assert_eq!("f64".parse::<Precision>().unwrap(), Precision::F64);
        assert_eq!("f32".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("int8".parse::<Precision>().unwrap(), Precision::Int8);
        assert!("fp16".parse::<Precision>().is_err());
        assert_eq!(Precision::Int8.to_string(), "int8");
    }
}
