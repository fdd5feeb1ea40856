//! Detector persistence: a trained [`Detector`] (model weights, vocabulary,
//! and configuration, including the decision threshold) round-trips through
//! a line-oriented text format, so the CLI can train once and scan many
//! times.
//!
//! ## Integrity (formats v2/v3)
//!
//! [`save_detector`] emits format v3: the v1 payload plus a sealed footer
//! (see [`crate::integrity`]) carrying the payload length and a CRC-32.
//! [`load_detector`] verifies the footer before parsing, so truncated or
//! bit-flipped files are rejected with a typed [`PersistError`] instead of
//! being deserialized into a silently-wrong model. Legacy v1 files (no
//! footer) and v2 files still load, but any file whose header claims v2 or
//! v3 **must** carry a valid footer. v3 files may carry an optional
//! `calibration` section between vocabulary and parameters (the scales of
//! a removed int8 tier, written by older builds): it is read, validated
//! and ignored.
//!
//! [`save_detector_file`] / [`load_detector_file`] add crash-safe atomic
//! writes on top (temp file + fsync + rename).

use crate::config::TrainConfig;
use crate::integrity::{self, SealError};
use crate::pipeline::Detector;
use crate::zoo::ModelKind;
use sevuldet_embedding::Vocab;
use std::path::Path;

/// Why a saved detector could not be loaded. Each variant is a distinct
/// failure class so callers (CLI exit codes, the serve reload endpoint) can
/// react differently to corruption vs. format drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The file does not start with a sevuldet detector header at all.
    BadMagic,
    /// A v2 file with no integrity footer — the tail was truncated away.
    MissingFooter,
    /// The integrity footer is present but malformed or inconsistent.
    BadFooter(String),
    /// The payload's CRC-32 disagrees with the footer (bit flip/tamper).
    Checksum {
        /// Checksum the footer claims.
        stated: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A structural error in the payload (bad line, bad field, truncation
    /// inside a legacy v1 file).
    Format(String),
    /// The parameters do not fit the architecture the header declares.
    Model(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "detector load error: bad magic header"),
            PersistError::MissingFooter => write!(
                f,
                "detector load error: integrity footer missing (truncated file?)"
            ),
            PersistError::BadFooter(msg) => {
                write!(f, "detector load error: bad integrity footer: {msg}")
            }
            PersistError::Checksum { stated, computed } => write!(
                f,
                "detector load error: checksum mismatch (footer {stated:08x}, payload {computed:08x}) — file is corrupt"
            ),
            PersistError::Format(msg) => write!(f, "detector load error: {msg}"),
            PersistError::Model(msg) => write!(f, "detector load error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<sevuldet_nn::LoadError> for PersistError {
    fn from(e: sevuldet_nn::LoadError) -> Self {
        PersistError::Model(e.0)
    }
}

impl From<SealError> for PersistError {
    fn from(e: SealError) -> Self {
        match e {
            SealError::MissingFooter => PersistError::MissingFooter,
            SealError::Checksum { stated, computed } => PersistError::Checksum { stated, computed },
            other => PersistError::BadFooter(other.to_string()),
        }
    }
}

/// Loading a detector from disk can fail before the bytes are even parsed.
#[derive(Debug)]
pub enum DetectorFileError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// The bytes were read but are not a valid saved detector.
    Invalid(PersistError),
}

impl std::fmt::Display for DetectorFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorFileError::Io(e) => write!(f, "reading model file: {e}"),
            DetectorFileError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DetectorFileError {}

const MAGIC_V1: &str = "sevuldet-detector v1";
const MAGIC_V2: &str = "sevuldet-detector v2";
const MAGIC_V3: &str = "sevuldet-detector v3";

fn kind_tag(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::SevulDet => "sevuldet",
        ModelKind::SevulDetFixed => "sevuldet-fixed",
        ModelKind::CnnPlain => "cnn-plain",
        ModelKind::CnnTokenAtt => "cnn-tokenatt",
        ModelKind::SevulDetCbamParallel => "sevuldet-parallel-cbam",
        ModelKind::Blstm => "blstm",
        ModelKind::Bgru => "bgru",
    }
}

fn kind_from_tag(tag: &str) -> Option<ModelKind> {
    Some(match tag {
        "sevuldet" => ModelKind::SevulDet,
        "sevuldet-fixed" => ModelKind::SevulDetFixed,
        "cnn-plain" => ModelKind::CnnPlain,
        "cnn-tokenatt" => ModelKind::CnnTokenAtt,
        "sevuldet-parallel-cbam" => ModelKind::SevulDetCbamParallel,
        "blstm" => ModelKind::Blstm,
        "bgru" => ModelKind::Bgru,
        _ => return None,
    })
}

fn hex(s: &str) -> String {
    s.bytes().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Option<String> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let bytes: Option<Vec<u8>> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect();
    String::from_utf8(bytes?).ok()
}

/// Serializes a trained detector (format v3: payload + integrity footer).
pub fn save_detector(detector: &mut Detector) -> String {
    let (kind, cfg, vocab, params_text) = detector.persist_parts();
    let mut out = String::new();
    out.push_str(MAGIC_V3);
    out.push('\n');
    out.push_str(&format!("kind {}\n", kind_tag(kind)));
    out.push_str(&format!(
        "config {} {} {} {} {} {} {} {}\n",
        cfg.embed_dim,
        cfg.cnn_channels,
        cfg.rnn_hidden,
        cfg.rnn_steps,
        cfg.dropout,
        cfg.threshold,
        cfg.seed,
        cfg.lr,
    ));
    out.push_str(&format!("vocab {}\n", vocab.len().saturating_sub(2)));
    for (tok, count) in vocab.entries() {
        out.push_str(&format!("{} {count}\n", hex(tok)));
    }
    out.push_str(&params_text);
    integrity::seal(out)
}

/// Restores a detector saved by [`save_detector`].
///
/// v2 input is checksum-verified before parsing; legacy v1 input (no
/// footer) is parsed structurally, keeping old saved models loadable.
///
/// # Errors
///
/// Returns a typed [`PersistError`]: integrity failures for corrupt v2
/// files, [`PersistError::Format`] for structural mismatches,
/// [`PersistError::Model`] when parameters do not fit the architecture.
pub fn load_detector(text: &str) -> Result<Detector, PersistError> {
    let payload = if integrity::has_footer(text) {
        integrity::unseal(text)?
    } else {
        // No footer: only the legacy v1 format may omit it. A v2/v3 header
        // without a footer means the file lost its tail.
        if matches!(text.lines().next(), Some(MAGIC_V2) | Some(MAGIC_V3)) {
            return Err(PersistError::MissingFooter);
        }
        text
    };
    let mut lines = payload.lines();
    match lines.next() {
        Some(MAGIC_V1) | Some(MAGIC_V2) | Some(MAGIC_V3) => {}
        _ => return Err(PersistError::BadMagic),
    }
    let kind_line = lines
        .next()
        .ok_or_else(|| PersistError::Format("missing kind".into()))?;
    let kind = kind_line
        .strip_prefix("kind ")
        .and_then(kind_from_tag)
        .ok_or_else(|| PersistError::Format(format!("bad kind line `{kind_line}`")))?;
    let cfg_line = lines
        .next()
        .and_then(|l| l.strip_prefix("config "))
        .ok_or_else(|| PersistError::Format("missing config".into()))?;
    let f: Vec<&str> = cfg_line.split_whitespace().collect();
    if f.len() != 8 {
        return Err(PersistError::Format(format!(
            "bad config line `{cfg_line}`"
        )));
    }
    let parse_err = |what: &str| PersistError::Format(format!("bad config field {what}"));
    let cfg = TrainConfig {
        embed_dim: f[0].parse().map_err(|_| parse_err("embed_dim"))?,
        cnn_channels: f[1].parse().map_err(|_| parse_err("cnn_channels"))?,
        rnn_hidden: f[2].parse().map_err(|_| parse_err("rnn_hidden"))?,
        rnn_steps: f[3].parse().map_err(|_| parse_err("rnn_steps"))?,
        dropout: f[4].parse().map_err(|_| parse_err("dropout"))?,
        threshold: f[5].parse().map_err(|_| parse_err("threshold"))?,
        seed: f[6].parse().map_err(|_| parse_err("seed"))?,
        lr: f[7].parse().map_err(|_| parse_err("lr"))?,
        ..TrainConfig::default()
    };
    let vocab_line = lines
        .next()
        .and_then(|l| l.strip_prefix("vocab "))
        .ok_or_else(|| PersistError::Format("missing vocab".into()))?;
    let n: usize = vocab_line
        .parse()
        .map_err(|_| PersistError::Format(format!("bad vocab count `{vocab_line}`")))?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let l = lines
            .next()
            .ok_or_else(|| PersistError::Format("truncated vocab".into()))?;
        let (tok_hex, count) = l
            .split_once(' ')
            .ok_or_else(|| PersistError::Format(format!("bad vocab line `{l}`")))?;
        let tok = unhex(tok_hex)
            .ok_or_else(|| PersistError::Format(format!("bad token hex `{tok_hex}`")))?;
        let count: u64 = count
            .parse()
            .map_err(|_| PersistError::Format(format!("bad count in `{l}`")))?;
        entries.push((tok, count));
    }
    let vocab = Vocab::from_entries(entries);
    // Optional v3 section between vocab and parameters: `calibration N s…`,
    // the activation scales of the removed int8 tier. Older saves carry it,
    // so it is still checked like any other input, then dropped. Tolerated
    // under any header so a hand-downgraded file keeps loading.
    let mut peek = lines.clone();
    if let Some(rest) = peek.next().and_then(|l| l.strip_prefix("calibration ")) {
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let count: usize = fields
            .first()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| PersistError::Format(format!("bad calibration count `{rest}`")))?;
        if fields.len() != count + 1 {
            return Err(PersistError::Format(format!(
                "calibration section claims {count} scales, has {}",
                fields.len().saturating_sub(1)
            )));
        }
        // Each scale must be a positive number that is finite in f32.
        for s in &fields[1..] {
            match s.parse::<f64>() {
                Ok(v) if (v as f32).is_finite() && v as f32 > 0.0 => {}
                _ => {
                    return Err(PersistError::Format(format!(
                        "bad calibration scale `{s}` in `{rest}`"
                    )))
                }
            }
        }
        lines = peek;
    }
    let params_text: String = lines.collect::<Vec<_>>().join("\n");
    Detector::from_persisted(kind, cfg, vocab, &params_text).map_err(PersistError::from)
}

/// Saves a detector to `path` crash-safely ([`integrity::atomic_write`]):
/// a crash mid-save leaves the previous file intact, never a torn one.
///
/// # Errors
///
/// Any underlying I/O error.
pub fn save_detector_file(detector: &mut Detector, path: &Path) -> std::io::Result<()> {
    let text = save_detector(detector);
    integrity::atomic_write(path, text.as_bytes())
}

/// Loads a detector from `path`, distinguishing I/O failures from corrupt
/// or invalid content.
///
/// # Errors
///
/// [`DetectorFileError::Io`] when the file cannot be read,
/// [`DetectorFileError::Invalid`] when its bytes are rejected.
pub fn load_detector_file(path: &Path) -> Result<Detector, DetectorFileError> {
    let text = std::fs::read_to_string(path).map_err(DetectorFileError::Io)?;
    load_detector(&text).map_err(DetectorFileError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GadgetSpec;
    use sevuldet_dataset::{sard, SardConfig};

    fn tiny_detector() -> Detector {
        let samples = sard::generate(&SardConfig {
            per_category: 6,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let cfg = TrainConfig {
            embed_dim: 10,
            w2v_epochs: 1,
            epochs: 2,
            cnn_channels: 8,
            ..TrainConfig::quick()
        };
        Detector::train(&corpus, ModelKind::SevulDet, &cfg)
    }

    #[test]
    fn detector_roundtrips_with_identical_predictions() {
        let samples = sard::generate(&SardConfig {
            per_category: 6,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let cfg = TrainConfig {
            embed_dim: 10,
            w2v_epochs: 1,
            epochs: 2,
            cnn_channels: 8,
            ..TrainConfig::quick()
        };
        let mut det = Detector::train(&corpus, ModelKind::SevulDet, &cfg);
        let saved = save_detector(&mut det);
        let mut restored = load_detector(&saved).expect("roundtrip");
        for item in corpus.items.iter().take(10) {
            let a = det.predict(&item.tokens);
            let b = restored.predict(&item.tokens);
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn tokens_with_spaces_and_quotes_survive() {
        let entries = vec![
            ("\"hello world\"".to_string(), 3u64),
            ("var1".to_string(), 9),
        ];
        let v = Vocab::from_entries(entries.clone());
        assert_eq!(v.id("\"hello world\""), 2);
        let h = hex("\"hello world\"");
        assert_eq!(unhex(&h).unwrap(), "\"hello world\"");
    }

    #[test]
    fn corrupted_input_is_rejected() {
        assert_eq!(
            load_detector("not a model").unwrap_err(),
            PersistError::BadMagic
        );
        assert!(matches!(
            load_detector(&format!("{MAGIC_V1}\nkind unknown\n")).unwrap_err(),
            PersistError::Format(_)
        ));
        assert!(matches!(
            load_detector(&format!("{MAGIC_V1}\nkind sevuldet\nconfig 1 2\n")).unwrap_err(),
            PersistError::Format(_)
        ));
    }

    #[test]
    fn truncated_v2_file_is_rejected_with_typed_error() {
        let saved = save_detector(&mut tiny_detector());
        // Truncating anywhere loses the footer: MissingFooter, not garbage.
        for frac in [0.2, 0.5, 0.9] {
            let cut = &saved[..(saved.len() as f64 * frac) as usize];
            assert_eq!(
                load_detector(cut).unwrap_err(),
                PersistError::MissingFooter,
                "truncated at {frac}"
            );
        }
    }

    #[test]
    fn bitflipped_v2_file_is_rejected_with_checksum_error() {
        let saved = save_detector(&mut tiny_detector());
        let mut bytes = saved.clone().into_bytes();
        // Flip a bit in the middle of the payload (an ASCII digit of some
        // weight), keeping the text valid UTF-8.
        let i = bytes.len() / 2;
        bytes[i] ^= 0x01;
        let flipped = String::from_utf8(bytes).expect("still UTF-8");
        if flipped == saved {
            panic!("flip was a no-op");
        }
        assert!(matches!(
            load_detector(&flipped).unwrap_err(),
            PersistError::Checksum { .. }
        ));
    }

    #[test]
    fn legacy_v1_file_without_footer_still_loads() {
        let mut det = tiny_detector();
        let v2 = save_detector(&mut det);
        let payload = integrity::unseal(&v2).expect("sealed");
        // Rewrite the header to v1 and drop the footer — exactly what a
        // pre-footer save looked like.
        let legacy = payload.replacen(MAGIC_V3, MAGIC_V1, 1);
        let mut restored = load_detector(&legacy).expect("legacy load");
        let tokens = vec!["strcpy".to_string()];
        assert!((det.predict(&tokens) - restored.predict(&tokens)).abs() < 1e-12);
        // But a current header with its footer stripped is a truncation error.
        assert_eq!(
            load_detector(payload).unwrap_err(),
            PersistError::MissingFooter
        );
    }

    /// `saved` as builds with the int8 tier wrote it: a `calibration` line
    /// between the vocabulary and the parameters, resealed.
    fn with_calibration_line(saved: &str) -> String {
        let payload = integrity::unseal(saved).expect("sealed");
        let vocab: usize = payload
            .lines()
            .nth(3)
            .and_then(|l| l.strip_prefix("vocab "))
            .and_then(|n| n.parse().ok())
            .expect("vocab line");
        // Header, kind, config and vocab count, then the vocab entries.
        let at: usize = payload
            .split_inclusive('\n')
            .take(4 + vocab)
            .map(str::len)
            .sum();
        integrity::seal(format!(
            "{}calibration 5 3.2e-3 1.7e-3 1.6e-3 4.0e-3 1.1e-2\n{}",
            &payload[..at],
            &payload[at..]
        ))
    }

    #[test]
    fn calibration_line_of_older_v3_saves_is_read_and_dropped() {
        use sevuldet_nn::Precision;
        let saved = save_detector(&mut tiny_detector());
        assert!(!saved.contains("calibration"), "saves carry no calibration");
        let older = with_calibration_line(&saved);
        let streams = [
            vec!["strcpy".to_string(), "buf".to_string()],
            vec!["memcpy".to_string(), "VAR1".to_string(), "n".to_string()],
        ];
        for precision in [Precision::F64, Precision::F32] {
            let mut plain = load_detector(&saved).expect("fresh save loads");
            let mut old = load_detector(&older).expect("older v3 save loads");
            plain.set_precision(precision).unwrap();
            old.set_precision(precision).unwrap();
            for tokens in &streams {
                assert_eq!(
                    old.predict(tokens).to_bits(),
                    plain.predict(tokens).to_bits(),
                    "{precision}: the calibration line changed a score"
                );
            }
        }
        // Saving the loaded model drops the line: the fresh save's bytes.
        let resaved = save_detector(&mut load_detector(&older).unwrap());
        assert_eq!(resaved, saved);
    }

    #[test]
    fn non_finite_or_non_positive_calibration_scales_are_rejected() {
        let saved = with_calibration_line(&save_detector(&mut tiny_detector()));
        let payload = integrity::unseal(&saved).expect("sealed");
        let line = payload
            .lines()
            .find(|l| l.starts_with("calibration "))
            .expect("v3 carries calibration");
        // 1e39 and 1e-50 are finite f64 values that become inf and 0 in f32.
        for bad in ["inf", "NaN", "-inf", "0", "-1e-3", "1e39", "1e-50"] {
            let mut fields: Vec<&str> = line.split(' ').collect();
            fields[3] = bad;
            let resealed = integrity::seal(payload.replacen(line, &fields.join(" "), 1));
            match load_detector(&resealed) {
                Err(PersistError::Format(msg)) => assert!(msg.contains(bad), "{msg}"),
                other => panic!("scale {bad} loaded: {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip_is_atomic_and_typed() {
        let dir = std::env::temp_dir().join(format!("svd-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.svd");
        let mut det = tiny_detector();
        save_detector_file(&mut det, &path).expect("save");
        let mut restored = load_detector_file(&path).expect("load");
        let tokens = vec!["strcpy".to_string()];
        assert!((det.predict(&tokens) - restored.predict(&tokens)).abs() < 1e-12);
        // Missing file: Io, not Invalid.
        assert!(matches!(
            load_detector_file(&dir.join("nope.svd")).unwrap_err(),
            DetectorFileError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
