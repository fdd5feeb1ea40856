//! # sevuldet
//!
//! The end-to-end SEVulDet pipeline (DSN 2022, Tang et al.): program corpus
//! → special tokens → inter-procedural slices → **path-sensitive code
//! gadgets** (Algorithm 1) → labeling & normalization → word2vec embedding →
//! the **CNN with spatial pyramid pooling and multilayer attention** → the
//! five paper metrics. The module layout follows the paper's Fig. 2:
//!
//! * [`pipeline::GadgetSpec`] — Step I variants (SEVulDet / SySeVR-style /
//!   VulDeePecker-style gadget generation);
//! * [`corpus`] — Steps II-III (labeling, normalization) + Step IV's
//!   word2vec encoding;
//! * [`zoo`] — every network of the evaluation (SEVulDet and ablations,
//!   BLSTM, BGRU);
//! * [`train`] — Step V training loops, stratified splits, k-fold CV;
//! * [`par`] — the deterministic data-parallel execution layer beneath
//!   them (bit-identical results for every `jobs` count);
//! * [`metrics`] — FPR/FNR/A/P/F1 exactly as §IV-A defines them;
//! * [`explain`] — the Fig. 6 attention-weight ranking.
//!
//! ## Example
//!
//! ```no_run
//! use sevuldet::{Detector, GadgetSpec, ModelKind, TrainConfig};
//! use sevuldet_dataset::{sard, SardConfig};
//!
//! let samples = sard::generate(&SardConfig::default());
//! let corpus = GadgetSpec::path_sensitive().extract(&samples);
//! let mut detector = Detector::train(&corpus, ModelKind::SevulDet,
//!                                    &TrainConfig::quick());
//! let verdict = detector.is_vulnerable(&corpus.items[0].tokens);
//! println!("vulnerable: {verdict}");
//! ```

pub mod checkpoint;
pub mod config;
pub mod corpus;
pub mod explain;
pub mod faults;
pub mod integrity;
pub mod json;
pub mod metrics;
pub mod par;
pub mod persist;
pub mod pipeline;
#[deny(missing_docs)]
pub mod scan;
pub mod train;
pub mod zoo;

/// Span/event tracing for the whole pipeline — re-exported so `sevuldet`
/// users reach it as `sevuldet::trace` (it lives in its own bottom-of-stack
/// crate, `sevuldet-trace`, so every layer below `core` can emit spans too).
pub use sevuldet_trace as trace;

pub use checkpoint::{CheckpointError, CheckpointSpec};
pub use config::{global_seed, scale_factor, TrainConfig};
pub use corpus::{
    encode, extract_gadgets, extract_gadgets_jobs, Encoded, GadgetCorpus, GadgetItem,
};
pub use explain::{
    explain_tokens, CbamSummary, ExplainStatus, Explanation, GateSummary, RankedToken,
};
pub use integrity::{atomic_write, crc32, sha256_hex};
pub use json::{Json, JsonError};
pub use metrics::Confusion;
pub use par::{effective_jobs, parallel_map, parallel_map_with_state, sample_seed};
pub use persist::{
    load_detector, load_detector_file, save_detector, save_detector_file, DetectorFileError,
    PersistError,
};
pub use pipeline::{cross_validate, run_split, Detector, GadgetSpec, PrecisionError};
pub use scan::{
    attach_explanations, combine_ensemble, error_json, prepare_source, score_prepared_mut,
    score_source, Finding, FindingStatus, MemberScore, PreparedGadget, PreparedSource, ScanError,
    ScanReport, EXPLAIN_TOP_K,
};
pub use sevuldet_nn::{simd_level, workspace_counters, Precision};
pub use train::{
    evaluate_model, k_folds, stratified_split, subsample, train_model, train_model_checkpointed,
};
pub use zoo::{build_model, AnyModel, ModelKind};
