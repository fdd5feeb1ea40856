//! # sevuldet-gadget
//!
//! Code-gadget extraction for the SEVulDet reproduction: special-token
//! identification (Step I.2), inter-procedural forward/backward slicing over
//! PDGs (Step I.3), **path-sensitive gadget assembly — Algorithm 1** (Step
//! I.4), manifest-driven labeling (Step II), and identifier normalization
//! (Step III).
//!
//! The headline property (the paper's Fig. 1): a guarded and an unguarded
//! sink can slice to byte-identical *classic* gadgets, while the
//! *path-sensitive* gadgets differ because Algorithm 1 inserts the control
//! ranges' delimiters.
//!
//! ## Example
//!
//! ```
//! use sevuldet_gadget::{find_special_tokens, build_gadget, GadgetKind, SliceConfig};
//! use sevuldet_analysis::ProgramAnalysis;
//!
//! let src = r#"
//! void f(char *dest, char *data, int n) {
//!     if (n < 16) {
//!         strncpy(dest, data, n);
//!     }
//! }
//! "#;
//! let program = sevuldet_lang::parse(src).unwrap();
//! let analysis = ProgramAnalysis::analyze(&program);
//! let tokens = find_special_tokens(&program, &analysis);
//! let strncpy = tokens.iter().find(|t| t.name == "strncpy").unwrap();
//! let gadget = build_gadget(&program, &analysis, strncpy,
//!                           GadgetKind::PathSensitive, &SliceConfig::default());
//! assert!(gadget.to_text().contains("strncpy"));
//! ```

pub mod algorithm1;
pub mod label;
pub mod normalize;
pub mod slice;
pub mod special;
pub mod types;

pub use algorithm1::{assemble, build_gadget, build_gadget_from_slice, generate_all};
pub use label::{covers_flaw, label_all, label_gadget};
pub use normalize::Normalizer;
pub use slice::{backward_slice, forward_slice, two_way_slice, Slice, SliceConfig};
pub use special::{find_special_tokens, SpecialToken};
pub use types::{
    Category, CodeGadget, GadgetKind, GadgetLine, GadgetView, LabeledGadget, LineOrigin,
    LineTokens, LineView,
};
