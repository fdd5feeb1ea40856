//! Hunting the Xen CVE analogues (the paper's §IV-F workflow): train
//! SEVulDet on the SARD-style corpus, then scan the three real-world-style
//! CVE programs — printing each verdict and, for the CVE-2016-9776 gadget,
//! the Fig.-6-style attention ranking. An AFL-style fuzzing campaign runs
//! alongside for the Table VII comparison.
//!
//! Run with: `cargo run --example xen_hunt`

use sevuldet::{explain_tokens, Detector, GadgetSpec, ModelKind, TrainConfig};
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_dataset::{sard, xen, SardConfig};
use sevuldet_gadget::{build_gadget, find_special_tokens, GadgetKind, Normalizer};
use sevuldet_interp::{fuzz, FuzzConfig, FuzzTarget};

fn main() {
    // Train on the synthetic SARD-style corpus.
    let samples = sard::generate(&SardConfig {
        per_category: 50,
        ..SardConfig::default()
    });
    let spec = GadgetSpec::path_sensitive();
    let corpus = spec.extract(&samples);
    println!("training SEVulDet on {} gadgets ...", corpus.len());
    let cfg = TrainConfig::quick();
    let mut detector = Detector::train(&corpus, ModelKind::SevulDet, &cfg);

    for case in xen::cve_cases() {
        println!(
            "\n=== {} ({}, {}) ===",
            case.cve, case.file, case.xen_version
        );

        // Static/learned detection: classify every gadget of the program.
        let program = sevuldet_lang::parse(&case.vulnerable.source).expect("parses");
        let analysis = ProgramAnalysis::analyze(&program);
        let specials = find_special_tokens(&program, &analysis);
        let mut flagged = 0usize;
        let mut flagged_on_flaw = false;
        for st in &specials {
            let gadget = build_gadget(
                &program,
                &analysis,
                st,
                GadgetKind::PathSensitive,
                &spec.slice_config(),
            );
            let tokens = Normalizer::normalize_gadget(&gadget).into_tokens();
            if detector.is_vulnerable(&tokens) {
                flagged += 1;
                if case.vulnerable.flaw_lines.contains(&st.line) {
                    flagged_on_flaw = true;
                }
            }
        }
        println!(
            "SEVulDet: {flagged}/{} gadgets flagged; flaw-line gadget flagged: {flagged_on_flaw}",
            specials.len()
        );

        // AFL-style fuzzing on the harness.
        let campaign = fuzz(
            &program,
            &FuzzTarget::Harness(case.harness.to_string()),
            &FuzzConfig {
                iterations: 3000,
                seed: 7,
                ..FuzzConfig::default()
            },
        );
        match campaign.crashes.first() {
            Some(c) => println!(
                "AFL-sim: crash after ≤{} execs: {} (input {:?})",
                campaign.execs,
                c.fault,
                String::from_utf8_lossy(&c.input)
            ),
            None => println!(
                "AFL-sim: no crash in {} execs ({} edges covered)",
                campaign.execs, campaign.edges
            ),
        }
    }

    // Fig. 6: attention over the CVE-2016-9776 gadget.
    let case = xen::cve_2016_9776();
    let program = sevuldet_lang::parse(&case.vulnerable.source).expect("parses");
    let analysis = ProgramAnalysis::analyze(&program);
    let specials = find_special_tokens(&program, &analysis);
    let seed = specials
        .iter()
        .find(|t| t.func == "fec_receive" && case.vulnerable.flaw_lines.contains(&t.line))
        .expect("stride token");
    let gadget = build_gadget(
        &program,
        &analysis,
        seed,
        GadgetKind::PathSensitive,
        &spec.slice_config(),
    );
    let tokens = Normalizer::normalize_gadget(&gadget).into_tokens();
    println!("\n=== Fig. 6: top attention tokens for the 9776 gadget ===");
    for r in explain_tokens(&mut detector, &tokens, 10).tokens {
        println!(
            "{:>8}  {:>6.1}%  {}",
            r.token,
            r.percent,
            "#".repeat((r.percent / 5.0) as usize)
        );
    }
}
