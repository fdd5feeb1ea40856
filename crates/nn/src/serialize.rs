//! Parameter persistence.
//!
//! Models expose their parameters in a stable order via
//! [`crate::SequenceClassifier::params_mut`]; this module writes and reads
//! that flat parameter list in a simple line-oriented text format, so a
//! trained detector can be saved and reloaded without any serde dependency.
//!
//! Format:
//!
//! ```text
//! params <count>
//! param <rank> <dim0> <dim1> ...
//! <value> <value> ...            (one line per parameter, full precision)
//! ```

use crate::param::Param;
use crate::tensor::Tensor;

/// Serializes a parameter list.
pub fn save_params(params: &[&Param]) -> String {
    let mut out = String::new();
    out.push_str(&format!("params {}\n", params.len()));
    for p in params {
        let shape = p.w.shape();
        out.push_str(&format!("param {}", shape.len()));
        for d in shape {
            out.push_str(&format!(" {d}"));
        }
        out.push('\n');
        let values: Vec<String> = p.w.data().iter().map(|v| format!("{v:e}")).collect();
        out.push_str(&values.join(" "));
        out.push('\n');
    }
    out
}

/// Error produced when loading parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError(pub String);

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model load error: {}", self.0)
    }
}

impl std::error::Error for LoadError {}

/// Restores a parameter list written by [`save_params`] into an
/// already-constructed model's parameters (same architecture, same order).
///
/// # Errors
///
/// Returns [`LoadError`] when counts, shapes, or values do not line up.
pub fn load_params(params: &mut [&mut Param], text: &str) -> Result<(), LoadError> {
    let mut lines = text.lines();
    let head = lines
        .next()
        .ok_or_else(|| LoadError("empty input".into()))?;
    let count: usize = head
        .strip_prefix("params ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| LoadError(format!("bad header `{head}`")))?;
    if count != params.len() {
        return Err(LoadError(format!(
            "parameter count mismatch: file has {count}, model has {}",
            params.len()
        )));
    }
    for (i, p) in params.iter_mut().enumerate() {
        let shape_line = lines
            .next()
            .ok_or_else(|| LoadError(format!("missing shape line for param {i}")))?;
        let mut parts = shape_line.split_whitespace();
        if parts.next() != Some("param") {
            return Err(LoadError(format!("bad shape line `{shape_line}`")));
        }
        let rank: usize = parts
            .next()
            .and_then(|r| r.parse().ok())
            .ok_or_else(|| LoadError(format!("bad rank in `{shape_line}`")))?;
        let shape: Vec<usize> = parts
            .take(rank)
            .map(|d| {
                d.parse()
                    .map_err(|_| LoadError(format!("bad dim in `{shape_line}`")))
            })
            .collect::<Result<_, _>>()?;
        if shape != p.w.shape() {
            return Err(LoadError(format!(
                "shape mismatch for param {i}: file {shape:?}, model {:?}",
                p.w.shape()
            )));
        }
        let value_line = lines
            .next()
            .ok_or_else(|| LoadError(format!("missing values for param {i}")))?;
        let values: Vec<f64> = value_line
            .split_whitespace()
            .map(|v| v.parse().map_err(|_| LoadError(format!("bad value `{v}`"))))
            .collect::<Result<_, _>>()?;
        if values.len() != p.w.len() {
            return Err(LoadError(format!(
                "value count mismatch for param {i}: {} vs {}",
                values.len(),
                p.w.len()
            )));
        }
        p.w = Tensor::from_vec(&shape, values);
        p.zero_grad();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CnnConfig, SequenceClassifier, SevulDetCnn};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_values() {
        let mut a = Param::zeros(&[2, 3]);
        a.w.data_mut()
            .copy_from_slice(&[1.5, -2.25, 0.0, 1e-10, 3e8, -0.125]);
        let b = Param::zeros(&[4]);
        let text = save_params(&[&a, &b]);
        let mut a2 = Param::zeros(&[2, 3]);
        let mut b2 = Param::zeros(&[4]);
        load_params(&mut [&mut a2, &mut b2], &text).unwrap();
        assert_eq!(a2.w.data(), a.w.data());
        assert_eq!(b2.w.data(), b.w.data());
    }

    #[test]
    fn whole_model_roundtrip_reproduces_outputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = CnnConfig {
            channels: 6,
            ..CnnConfig::default()
        };
        let table = Tensor::full(&[12, 8], 0.1);
        let mut m1 = SevulDetCnn::new(table.clone(), cfg.clone(), &mut rng);
        let ids = [1usize, 3, 5, 7, 2];
        let y1 = m1.infer_logits(&[ids.to_vec()])[0];

        let text = save_params(&m1.params_mut().iter().map(|p| &**p).collect::<Vec<_>>());
        let mut rng2 = StdRng::seed_from_u64(99); // different init
        let mut m2 = SevulDetCnn::new(table, cfg, &mut rng2);
        load_params(&mut m2.params_mut(), &text).unwrap();
        let y2 = m2.infer_logits(&[ids.to_vec()])[0];
        assert!((y1 - y2).abs() < 1e-12, "{y1} vs {y2}");
    }

    #[test]
    fn mismatches_are_rejected() {
        let a = Param::zeros(&[2]);
        let text = save_params(&[&a]);
        // Wrong count.
        let mut x = Param::zeros(&[2]);
        let mut y = Param::zeros(&[2]);
        assert!(load_params(&mut [&mut x, &mut y], &text).is_err());
        // Wrong shape.
        let mut z = Param::zeros(&[3]);
        assert!(load_params(&mut [&mut z], &text).is_err());
        // Garbage.
        assert!(load_params(&mut [&mut z], "nonsense").is_err());
    }
}
