//! Fuzz-smoke property tests: hostile inputs through the scanning pipeline
//! and the persistence loader must produce typed errors (or clean reports),
//! never panics, aborts, or stack overflows.
//!
//! Four input families:
//! * arbitrary byte soup (any bytes, control characters, unbalanced
//!   punctuation) through [`prepare_source`] and [`score_source`];
//! * syntactically plausible C truncated at an arbitrary character;
//! * pathologically nested sources (braces, parens, unary chains) deep
//!   enough to overflow the parser's stack without its recursion cap;
//! * saved detector files with bytes flipped, tails cut, or replaced by
//!   garbage, through [`load_detector`].

use proptest::prelude::*;
use sevuldet::{
    load_detector, prepare_source, save_detector, score_source, Detector, GadgetSpec, ModelKind,
    TrainConfig,
};
use sevuldet_dataset::{sard, SardConfig};
use std::sync::OnceLock;

/// A tiny trained detector, shared across cases (training dominates cost).
/// A copy of one tiny detector, trained once; scoring needs it owned.
fn detector() -> Detector {
    static CELL: OnceLock<Detector> = OnceLock::new();
    CELL.get_or_init(|| {
        let samples = sard::generate(&SardConfig {
            per_category: 3,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let cfg = TrainConfig {
            embed_dim: 8,
            w2v_epochs: 1,
            epochs: 1,
            cnn_channels: 6,
            ..TrainConfig::quick()
        };
        Detector::train(&corpus, ModelKind::SevulDet, &cfg)
    })
    .clone()
}

fn saved_model() -> &'static str {
    static CELL: OnceLock<String> = OnceLock::new();
    CELL.get_or_init(|| save_detector(&mut detector()))
}

/// Arbitrary byte soup decoded leniently — exercises non-ASCII, control
/// characters, and every unbalanced token the lexer can meet.
fn byte_soup(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..max)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A plausible-but-hostile C fragment: a valid skeleton with fuzzed name,
/// type, constant, and a printable noise string inside a literal.
fn c_ish_source() -> impl Strategy<Value = String> {
    (
        0usize..4,
        any::<u16>(),
        proptest::collection::vec(any::<u8>(), 0..40),
    )
        .prop_map(|(ty, n, noise)| {
            let ty = ["int", "char *", "void", "long"][ty];
            let noise: String = noise
                .into_iter()
                .map(|b| (b' ' + (b % 94)) as char)
                .filter(|&c| c != '"' && c != '\\')
                .collect();
            format!(
                "{ty} fuzzed(char *p) {{\n  int x = {n};\n  if (x > 0) {{ strcpy(p, \"{noise}\"); }}\n  return x;\n}}",
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_panic_the_scanner(input in byte_soup(200)) {
        // Any outcome is fine; any panic is the bug.
        let _ = prepare_source(&input, 1);
        let _ = score_source(&mut detector(), &input, 1);
    }

    #[test]
    fn truncated_c_never_panics(src in c_ish_source(), cut in 0usize..200) {
        let boundaries: Vec<usize> = src
            .char_indices()
            .map(|(i, _)| i)
            .chain([src.len()])
            .collect();
        let cut = boundaries[cut % boundaries.len()];
        let _ = score_source(&mut detector(), &src[..cut], 1);
    }

    #[test]
    fn deep_nesting_is_rejected_not_fatal(depth in 1usize..12, kind in 0usize..3) {
        // Exponential depths up to 2^11 = 2048, past the parser's cap of
        // 300: without the recursion guard these would overflow the stack
        // (an abort no test harness can catch).
        let n = 1usize << depth;
        let src = match kind {
            0 => format!("void f() {{ {} {} }}", "{".repeat(n), "}".repeat(n)),
            1 => format!("int g() {{ return {}1{}; }}", "(".repeat(n), ")".repeat(n)),
            _ => format!("int h(int x) {{ return {}x; }}", "!".repeat(n)),
        };
        match score_source(&mut detector(), &src, 1) {
            Ok(_) => prop_assert!(n <= 300, "depth {n} should exceed the cap"),
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(msg.contains("parse error"), "unexpected error: {msg}");
            }
        }
    }

    #[test]
    fn mutated_model_files_never_panic_the_loader(
        flip in 0usize..10_000,
        truncate in any::<bool>(),
        cut in 0usize..10_000,
    ) {
        let good = saved_model();
        let mut bytes = good.as_bytes().to_vec();
        bytes[flip % good.len()] ^= 0x20;
        if truncate {
            bytes.truncate(cut % good.len());
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        // Almost always an error; on the rare no-op mutation a clean load
        // is fine. Either way: no panic.
        let _ = load_detector(&mutated);
    }

    #[test]
    fn garbage_model_bytes_are_rejected(input in byte_soup(300)) {
        prop_assert!(load_detector(&input).is_err());
    }
}
