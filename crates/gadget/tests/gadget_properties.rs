//! Property-based tests for the gadget pipeline (slicing, Algorithm 1,
//! normalization) on randomly shaped guard/sink programs.

use proptest::prelude::*;
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_gadget::{
    build_gadget, find_special_tokens, two_way_slice, GadgetKind, LineOrigin, Normalizer,
    SliceConfig,
};

/// Builds a program with a configurable guard/sink arrangement.
fn program(guarded: bool, extra_chain: usize, second_guard: bool) -> String {
    let mut src = String::from("void f(char *dest, char *data) {\n");
    src.push_str("    char buf[32];\n");
    src.push_str("    int n = atoi(data);\n");
    let mut var = "n".to_string();
    for i in 0..extra_chain {
        src.push_str(&format!("    int c{i} = {var} + {};\n", i + 1));
        var = format!("c{i}");
    }
    if second_guard {
        src.push_str(&format!("    if ({var} > 100) {{\n"));
        src.push_str(&format!("        {var} = 100;\n"));
        src.push_str("    }\n");
    }
    if guarded {
        src.push_str(&format!("    if ({var} < 32) {{\n"));
        src.push_str(&format!("        strncpy(buf, data, {var});\n"));
        src.push_str("    }\n");
    } else {
        src.push_str(&format!("    strncpy(buf, data, {var});\n"));
    }
    src.push_str("    puts(buf);\n}\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The seed statement always appears in its own gadget, and delimiters
    /// are balanced (every RangeOpen's group eventually closes or reaches
    /// the end).
    #[test]
    fn gadget_contains_seed_and_orders_lines(
        guarded in any::<bool>(),
        chain in 0usize..6,
        second in any::<bool>(),
    ) {
        let src = program(guarded, chain, second);
        let p = sevuldet_lang::parse(&src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let toks = find_special_tokens(&p, &a);
        let seed = toks.iter().find(|t| t.name == "strncpy").expect("strncpy");
        let g = build_gadget(&p, &a, seed, GadgetKind::PathSensitive, &SliceConfig::default());
        prop_assert!(g
            .lines
            .iter()
            .any(|l| l.tokens.first().map(String::as_str) == Some("strncpy")));
        // Lines sorted per function.
        let mut prev = 0;
        for l in &g.lines {
            prop_assert!(l.line >= prev);
            prev = l.line;
        }
        // The dependent chain is fully captured.
        for i in 0..chain {
            let name = format!("c{i}");
            prop_assert!(
                g.lines.iter().any(|l| l.tokens.contains(&name)),
                "chain var {name} missing from {:?}",
                g.to_text()
            );
        }
    }

    /// Slices are monotone in their configuration: enabling control
    /// dependence never shrinks the slice; the two-way slice contains the
    /// backward slice.
    #[test]
    fn slice_monotonicity(
        guarded in any::<bool>(),
        chain in 0usize..5,
        second in any::<bool>(),
    ) {
        let src = program(guarded, chain, second);
        let p = sevuldet_lang::parse(&src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let toks = find_special_tokens(&p, &a);
        let seed = toks.iter().find(|t| t.name == "strncpy").expect("strncpy");
        let with_cd = two_way_slice(&a, &seed.func, seed.node, &SliceConfig::default());
        let data_only = two_way_slice(&a, &seed.func, seed.node, &SliceConfig::data_only());
        prop_assert!(data_only.is_subset(&with_cd));
        let backward =
            sevuldet_gadget::backward_slice(&a, &seed.func, seed.node, &SliceConfig::default());
        prop_assert!(backward.is_subset(&with_cd));
    }

    /// Normalization is idempotent and never changes line counts or token
    /// counts.
    #[test]
    fn normalization_idempotent(
        guarded in any::<bool>(),
        chain in 0usize..5,
        second in any::<bool>(),
    ) {
        let src = program(guarded, chain, second);
        let p = sevuldet_lang::parse(&src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let toks = find_special_tokens(&p, &a);
        for seed in toks.iter().take(6) {
            let g = build_gadget(&p, &a, seed, GadgetKind::PathSensitive, &SliceConfig::default());
            let n1 = Normalizer::normalize_gadget(&g);
            let n2 = Normalizer::normalize_gadget(&n1);
            prop_assert_eq!(n1.to_text(), n2.to_text());
            prop_assert_eq!(n1.token_len(), g.token_len());
        }
    }

    /// When the sink sits inside the guard, the gadget places the closing
    /// delimiter after it; when outside, before it.
    #[test]
    fn delimiter_placement_tracks_guard(
        chain in 0usize..4,
    ) {
        for guarded in [true, false] {
            let src = program(guarded, chain, false);
            let p = sevuldet_lang::parse(&src).unwrap();
            let a = ProgramAnalysis::analyze(&p);
            let toks = find_special_tokens(&p, &a);
            let seed = toks.iter().find(|t| t.name == "strncpy").expect("strncpy");
            let g = build_gadget(&p, &a, seed, GadgetKind::PathSensitive, &SliceConfig::default());
            let sink = g
                .lines
                .iter()
                .position(|l| l.tokens.first().map(String::as_str) == Some("strncpy"))
                .expect("sink in gadget");
            let close = g.lines.iter().position(|l| l.origin == LineOrigin::RangeClose);
            if let Some(close) = close {
                if guarded {
                    prop_assert!(sink < close, "guarded sink precedes close\n{}", g.to_text());
                } else {
                    prop_assert!(sink > close, "unguarded sink follows close\n{}", g.to_text());
                }
            }
        }
    }
}
