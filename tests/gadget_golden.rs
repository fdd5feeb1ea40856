//! Golden pin of the front half (Steps I–III) across code versions: for a
//! fixed corpus, every gadget's program id, key line, category, normalized
//! text, label and statement locations must hash to the constants below,
//! for each of the three gadget specs the experiments use.
//!
//! `tests/f64_golden.rs` pins path-sensitive gadgets only through the
//! model's scores; this test pins the gadgets themselves, and also the
//! classic (SySeVR-style) and data-only (VulDeePecker-style) gadgets the
//! comparison tables train on. A change to slicing, Algorithm-1 assembly,
//! labeling or normalization that moves one token, one line choice or one
//! label fails here. Nothing here touches floating point, so the constants
//! hold on every platform. Update them only with a change that means to
//! alter gadgets, and say so in its changelog entry.

use sevuldet::{sha256_hex, GadgetSpec};
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_dataset::{sard, xen, ProgramSample, SardConfig, XenConfig};
use sevuldet_gadget::{build_gadget, find_special_tokens, label_gadget, Normalizer};

/// sha256 of the path-sensitive gadget records of [`corpus`].
const PATH_SENSITIVE_SHA256: &str =
    "52ce8d6a7b4f75051ba5fefb005cfdd209a959f9500ffeb1213b16bbcad83951";
/// sha256 of the classic (data + control dependence) gadget records.
const CLASSIC_SHA256: &str = "794fbdb40c902bb28039eacf9b143a59769b715d29893443173681f5431ff6ce";
/// sha256 of the data-only gadget records.
const DATA_ONLY_SHA256: &str = "f6298918b3c4cb21b12538fd57925b154fc3dfdd7610afffce60831c2125513b";

/// SARD-sim programs of which half carry the 70-statement filler chain and
/// half route taint through a helper, then the Xen-sim CVE pairs and a few
/// Xen-sim distractors (always inter-procedural, 10–39 filler statements).
fn corpus() -> Vec<ProgramSample> {
    let mut samples = sard::generate(&SardConfig {
        per_category: 4,
        long_fraction: 0.5,
        long_filler: 70,
        interproc_fraction: 0.5,
        seed: 1601,
        ..SardConfig::default()
    });
    samples.extend(xen::generate(&XenConfig {
        distractors: 8,
        seed: 1602,
        ..XenConfig::default()
    }));
    samples
}

/// One text record per gadget of every program, in extraction order.
fn records(samples: &[ProgramSample], spec: GadgetSpec) -> (usize, String) {
    let slice = spec.slice_config();
    let mut out = String::new();
    let mut count = 0;
    for sample in samples {
        let program = sevuldet_lang::parse(&sample.source).expect("generated sources parse");
        let analysis = ProgramAnalysis::analyze(&program);
        for st in &find_special_tokens(&program, &analysis) {
            let gadget = build_gadget(&program, &analysis, st, spec.kind, &slice);
            let label = label_gadget(&gadget, &sample.flaw_lines).vulnerable;
            let locations: Vec<String> = gadget
                .stmt_locations()
                .map(|(f, l)| format!("{f}:{l}"))
                .collect();
            let text = Normalizer::normalize_gadget(&gadget).to_text();
            out.push_str(&format!(
                "{}|{}|{}|{}|{}|{}\n{}\n",
                sample.id,
                st.line,
                st.category.abbrev(),
                st.name,
                label,
                locations.join(","),
                text
            ));
            count += 1;
        }
    }
    (count, out)
}

#[test]
fn gadgets_match_golden_sha256() {
    let samples = corpus();
    let mut got = Vec::new();
    for spec in [
        GadgetSpec::path_sensitive(),
        GadgetSpec::classic(),
        GadgetSpec::data_only(),
    ] {
        let (count, text) = records(&samples, spec);
        assert!(count > 200, "the corpus must produce enough gadgets to pin");
        got.push(sha256_hex(text.as_bytes()));
    }
    assert_eq!(
        (got[0].as_str(), got[1].as_str(), got[2].as_str()),
        (PATH_SENSITIVE_SHA256, CLASSIC_SHA256, DATA_ONLY_SHA256),
        "gadget bytes changed: (path-sensitive, classic, data-only) sha256"
    );
}
