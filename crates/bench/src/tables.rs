//! One function per table/figure of the paper. Each prints measured values
//! next to the paper's and returns the measured data so integration tests
//! can assert the reproduction *shape*.

use crate::{apf_row, metric_row, paper, sizing, title};
use sevuldet::{
    run_split, stratified_split, subsample, Confusion, Detector, GadgetCorpus, GadgetSpec,
    ModelKind,
};
use sevuldet_dataset::{sard, xen, ProgramSample};
use sevuldet_gadget::Category;
use sevuldet_interp::{fuzz, Fault, FuzzConfig, FuzzTarget};
use std::collections::HashMap;

/// A framework under comparison = gadget generation + network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// Data-dependence-only gadgets (FC seeds) + BLSTM.
    VulDeePecker,
    /// Classic gadgets (data + control dependence) + BGRU.
    SySeVr,
    /// Path-sensitive gadgets + CNN-SPP-MultiATT.
    SevulDet,
}

impl Framework {
    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            Framework::VulDeePecker => "VulDeePecker",
            Framework::SySeVr => "SySeVR",
            Framework::SevulDet => "SEVulDet",
        }
    }

    /// Gadget generation spec of the framework.
    pub fn gadget_spec(&self) -> GadgetSpec {
        match self {
            Framework::VulDeePecker => GadgetSpec::data_only(),
            Framework::SySeVr => GadgetSpec::classic(),
            Framework::SevulDet => GadgetSpec::path_sensitive(),
        }
    }

    /// Network of the framework.
    pub fn model(&self) -> ModelKind {
        match self {
            Framework::VulDeePecker => ModelKind::Blstm,
            Framework::SySeVr => ModelKind::Bgru,
            Framework::SevulDet => ModelKind::SevulDet,
        }
    }

    /// VulDeePecker only handles library/API-call gadgets.
    pub fn category_filter(&self) -> Option<Category> {
        match self {
            Framework::VulDeePecker => Some(Category::Fc),
            _ => None,
        }
    }
}

fn restrict(corpus: &GadgetCorpus, cat: Option<Category>) -> GadgetCorpus {
    match cat {
        None => corpus.clone(),
        Some(c) => GadgetCorpus {
            items: corpus
                .items
                .iter()
                .filter(|i| i.category == c)
                .cloned()
                .collect(),
        },
    }
}

// ---------------------------------------------------------------- Table I

/// Table I: gadget counts per category. Returns `(category, vuln, total)`.
pub fn table1() -> Vec<(Category, usize, usize)> {
    let s = sizing();
    let mut samples = sard::generate(&s.sard);
    samples.extend(sard::generate_nvd(&s.nvd));
    let corpus = GadgetSpec::path_sensitive().extract(&samples);

    title("Table I: path-sensitive code gadgets per category");
    println!("programs: {} (paper: 127,821)", samples.len());
    println!(
        "{:<28}{:>12} {:>15} {:>10} {:>8}",
        "Category", "Vulnerable", "Non-vulnerable", "Total", "Vuln%"
    );
    println!("{}", "-".repeat(78));
    let mut out = Vec::new();
    let mut total = (0usize, 0usize);
    for (i, cat) in Category::ALL.iter().enumerate() {
        let idx = corpus.indices_of(Some(*cat));
        let vuln = idx.iter().filter(|&&j| corpus.items[j].label).count();
        total.0 += vuln;
        total.1 += idx.len() - vuln;
        let p = paper::TABLE1[i];
        println!(
            "{:<28}{:>12} {:>15} {:>10} {:>7.1}%",
            cat.long_name(),
            vuln,
            idx.len() - vuln,
            idx.len(),
            pct(vuln, idx.len())
        );
        println!(
            "{:<28}{:>12} {:>15} {:>10} {:>7.1}%",
            "  (paper)",
            p.1,
            p.2,
            p.3,
            pct(p.1 as usize, p.3 as usize)
        );
        out.push((*cat, vuln, idx.len()));
    }
    println!("{}", "-".repeat(78));
    println!(
        "{:<28}{:>12} {:>15} {:>10} {:>7.1}%",
        "All",
        total.0,
        total.1,
        total.0 + total.1,
        pct(total.0, total.0 + total.1)
    );
    let all = paper::TABLE1[4];
    println!(
        "{:<28}{:>12} {:>15} {:>10} {:>7.1}%",
        "  (paper)",
        all.1,
        all.2,
        all.3,
        pct(all.1 as usize, all.3 as usize)
    );
    out
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64 * 100.0
    }
}

// --------------------------------------------------------------- Table II

/// Table II: CG vs PS-CG × {BLSTM, BGRU, SEVulDet}. Returns rows of
/// `(model, kind-name, confusion)`.
pub fn table2() -> Vec<(ModelKind, &'static str, Confusion)> {
    let s = sizing();
    let samples = sard::generate(&s.sard);
    let specs = [
        ("CG", GadgetSpec::classic()),
        ("PS-CG", GadgetSpec::path_sensitive()),
    ];
    let models = [ModelKind::Blstm, ModelKind::Bgru, ModelKind::SevulDet];

    title("Table II: CG vs PS-CG x {BLSTM, BGRU, SEVulDet}");
    println!(
        "{:<34}{:>9} {:>9} {:>9}",
        "Network / Kind", "A(%)", "P(%)", "F1(%)"
    );
    println!("{}", "-".repeat(64));
    let mut out = Vec::new();
    for model in models {
        for (kname, spec) in &specs {
            let corpus = subsample(&spec.extract(&samples), 1200, s.train.seed);
            let idx = corpus.indices_of(None);
            let (train, test) = stratified_split(&corpus, &idx, 0.2, s.train.seed);
            let c = run_split(&corpus, model, &s.train, &train, &test);
            let flexible = model == ModelKind::SevulDet;
            let label = format!(
                "{model} ({}) - {kname}",
                if flexible { "flexible" } else { "fixed" }
            );
            let paper_vals = paper::TABLE2
                .iter()
                .find(|(m, _, k, ..)| {
                    *k == *kname
                        && ((model == ModelKind::Blstm && *m == "BLSTM")
                            || (model == ModelKind::Bgru && *m == "BGRU")
                            || (model == ModelKind::SevulDet && *m == "SEVulDet"))
                })
                .map(|&(_, _, _, a, p, f1)| [a, p, f1]);
            apf_row(&label, &c, paper_vals);
            out.push((model, *kname, c));
        }
    }
    out
}

// -------------------------------------------------------------- Table III

/// Table III: attention ablation. Returns `(model, confusion)` rows.
pub fn table3() -> Vec<(ModelKind, Confusion)> {
    let s = sizing();
    let samples = sard::generate(&s.sard);
    let corpus = subsample(
        &GadgetSpec::path_sensitive().extract(&samples),
        1200,
        s.train.seed,
    );
    let idx = corpus.indices_of(None);
    let (train, test) = stratified_split(&corpus, &idx, 0.2, s.train.seed);

    title("Table III: multilayer-attention ablation");
    println!(
        "{:<34}{:>9} {:>9} {:>9}",
        "Neural network", "A(%)", "P(%)", "F1(%)"
    );
    println!("{}", "-".repeat(64));
    let rows = [
        (ModelKind::CnnPlain, paper::TABLE3[0]),
        (ModelKind::CnnTokenAtt, paper::TABLE3[1]),
        (ModelKind::SevulDet, paper::TABLE3[2]),
    ];
    let mut out = Vec::new();
    for (model, (_, a, p, f1)) in rows {
        let c = run_split(&corpus, model, &s.train, &train, &test);
        let label = if model == ModelKind::SevulDet {
            "CNN-MultiATT (SEVulDet)".to_string()
        } else {
            model.label().to_string()
        };
        apf_row(&label, &c, Some([a, p, f1]));
        out.push((model, c));
    }
    println!(
        "\ncorpus: {} path-sensitive gadgets ({} vulnerable)",
        corpus.len(),
        corpus.vulnerable()
    );
    out
}

// --------------------------------------------------------------- Table IV

/// Table IV: hyper-parameters (static print).
pub fn table4() {
    let s = sizing();
    title("Table IV: hyper-parameters");
    println!(
        "{:<18}{:>14} {:>10} {:>22}",
        "Parameter", "VulDeePecker", "SySeVR", "SEVulDet (paper/ours)"
    );
    println!("{}", "-".repeat(68));
    let rows: [(&str, &str, &str, String); 6] = [
        (
            "Dimension",
            "50",
            "30",
            format!("30 / {}", s.train.embed_dim),
        ),
        ("Flexible-length", "no", "no", "yes / yes".to_string()),
        ("Batch size", "64", "16", format!("16 / {}", s.train.batch)),
        (
            "Learning rate",
            "0.001",
            "0.002",
            format!("0.0001 / {}", s.train.lr),
        ),
        (
            "Dropout",
            "0.5",
            "0.2",
            format!("0.2 / {}", s.train.dropout),
        ),
        ("Epochs", "4", "20", format!("20 / {}", s.train.epochs)),
    ];
    for (p, v, sy, se) in rows {
        println!("{p:<18}{v:>14} {sy:>10} {se:>22}");
    }
    println!(
        "\nRNN baselines use {} predefined time steps (paper: 500); decision threshold {}.",
        s.train.rnn_steps, s.train.threshold
    );
}

// ---------------------------------------------------------------- Table V

/// Table V: VulDeePecker / SySeVR / SEVulDet per category and on All.
/// Returns `(row label, confusion)`.
pub fn table5() -> Vec<(String, Confusion)> {
    let s = sizing();
    let samples = sard::generate(&s.sard);
    title("Table V: deep-learning frameworks per gadget category");
    println!(
        "{:<28}{:>9} {:>9} {:>9} {:>9} {:>9}",
        "Work - Kind", "FPR(%)", "FNR(%)", "A(%)", "P(%)", "F1(%)"
    );
    println!("{}", "-".repeat(80));
    let mut out = Vec::new();
    let runs: Vec<(Framework, Option<Category>)> = vec![
        (Framework::VulDeePecker, Some(Category::Fc)),
        (Framework::SySeVr, Some(Category::Fc)),
        (Framework::SevulDet, Some(Category::Fc)),
        (Framework::SySeVr, Some(Category::Au)),
        (Framework::SevulDet, Some(Category::Au)),
        (Framework::SySeVr, Some(Category::Pu)),
        (Framework::SevulDet, Some(Category::Pu)),
        (Framework::SySeVr, Some(Category::Ae)),
        (Framework::SevulDet, Some(Category::Ae)),
        (Framework::SySeVr, None),
        (Framework::SevulDet, None),
    ];
    for (fw, cat) in runs {
        let full = fw.gadget_spec().extract(&samples);
        let corpus = subsample(&restrict(&full, cat), 1200, s.train.seed);
        let idx: Vec<usize> = (0..corpus.len()).collect();
        let (train, test) = stratified_split(&corpus, &idx, 0.2, s.train.seed);
        let c = run_split(&corpus, fw.model(), &s.train, &train, &test);
        let label = format!(
            "{}-{}",
            fw.label(),
            cat.map(|c| c.abbrev()).unwrap_or("All")
        );
        let paper_vals = paper::TABLE5
            .iter()
            .find(|(n, ..)| *n == label)
            .map(|&(_, fpr, fnr, a, p, f1)| [fpr, fnr, a, p, f1]);
        metric_row(&label, &c, paper_vals);
        out.push((label, c));
    }
    out
}

// --------------------------------------------------------------- Table VI

/// Table VI: train on SARD-sim, detect on the Xen-like corpus. Returns
/// `(framework, confusion)`.
pub fn table6() -> Vec<(Framework, Confusion)> {
    let s = sizing();
    let train_samples = sard::generate(&s.sard);
    let xen_samples = xen::generate(&s.xen);
    title("Table VI: real-world-software (Xen-sim) transfer");
    println!(
        "{:<28}{:>9} {:>9} {:>9} {:>9} {:>9}",
        "Work", "FPR(%)", "FNR(%)", "A(%)", "P(%)", "F1(%)"
    );
    println!("{}", "-".repeat(80));
    let mut out = Vec::new();
    for (i, fw) in [
        Framework::VulDeePecker,
        Framework::SySeVr,
        Framework::SevulDet,
    ]
    .into_iter()
    .enumerate()
    {
        let train_corpus = subsample(
            &restrict(
                &fw.gadget_spec().extract(&train_samples),
                fw.category_filter(),
            ),
            1200,
            s.train.seed,
        );
        let xen_corpus = restrict(
            &fw.gadget_spec().extract(&xen_samples),
            fw.category_filter(),
        );
        let mut det = Detector::train(&train_corpus, fw.model(), &s.train);
        let c = det.evaluate_corpus(&xen_corpus);
        let p = paper::TABLE6[i];
        metric_row(fw.label(), &c, Some([p.1, p.2, p.3, p.4, p.5]));
        out.push((fw, c));
    }
    out
}

// -------------------------------------------------------------- Table VII

/// One CVE row of Table VII.
#[derive(Debug, Clone)]
pub struct CveDetection {
    /// CVE id.
    pub cve: &'static str,
    /// Detectors that found it in this reproduction.
    pub detected_by: Vec<&'static str>,
    /// The paper's detector list.
    pub paper: &'static str,
}

/// Table VII: which systems detect the three CVE analogues — an AFL-style
/// fuzzing campaign vs the three trained frameworks.
pub fn table7() -> Vec<CveDetection> {
    table7_with(&FuzzConfig {
        iterations: 6000,
        seed: sevuldet::global_seed(),
        ..FuzzConfig::default()
    })
}

/// Table VII with an explicit fuzzing budget (tests use a smaller one).
pub fn table7_with(fuzz_cfg: &FuzzConfig) -> Vec<CveDetection> {
    let s = sizing();
    let train_samples = sard::generate(&s.sard);
    let mut detectors: HashMap<Framework, (Detector, GadgetSpec, Option<Category>)> =
        HashMap::new();
    for fw in [
        Framework::VulDeePecker,
        Framework::SySeVr,
        Framework::SevulDet,
    ] {
        let train_corpus = restrict(
            &fw.gadget_spec().extract(&train_samples),
            fw.category_filter(),
        );
        let det = Detector::train(&train_corpus, fw.model(), &s.train);
        detectors.insert(fw, (det, fw.gadget_spec(), fw.category_filter()));
    }

    title("Table VII: the three CVE analogues");
    let mut out = Vec::new();
    for case in xen::cve_cases() {
        let mut found: Vec<&'static str> = Vec::new();
        // --- AFL-style fuzzing on the vulnerable analogue ---
        let program = sevuldet_lang::parse(&case.vulnerable.source).expect("analogue parses");
        let result = fuzz(
            &program,
            &FuzzTarget::Harness(case.harness.to_string()),
            fuzz_cfg,
        );
        let crashed = result.found(|f| {
            matches!(
                f,
                Fault::LoopBudget | Fault::OutOfBounds { .. } | Fault::UseAfterFree
            )
        });
        if crashed {
            found.push("AFL");
        }
        // --- the three learned frameworks ---
        for fw in [
            Framework::VulDeePecker,
            Framework::SySeVr,
            Framework::SevulDet,
        ] {
            let (det, spec, cat) = detectors.get_mut(&fw).expect("trained above");
            let corpus = restrict(&spec.extract(std::slice::from_ref(&case.vulnerable)), *cat);
            // A framework detects the CVE when one of its gadgets that
            // covers a flaw line (label = true by Step-II construction) is
            // classified vulnerable.
            let hit = corpus
                .items
                .iter()
                .any(|item| item.label && det.is_vulnerable(&item.tokens));
            if hit {
                found.push(fw.label());
            }
        }
        let paper_row = paper::TABLE7
            .iter()
            .find(|(c, ..)| *c == case.cve)
            .expect("known CVE");
        println!(
            "{:<16} {:<24} {:<12}",
            case.cve, case.file, case.xen_version
        );
        println!("    detected by (ours):  {}", found.join(", "));
        println!("    detected by (paper): {}", paper_row.3);
        out.push(CveDetection {
            cve: case.cve,
            detected_by: found,
            paper: paper_row.3,
        });
    }
    out
}

// ----------------------------------------------------------------- Fig. 5

/// Fig. 5: classical static tools vs SEVulDet, program-level. Returns
/// `(tool, confusion)`.
pub fn fig5() -> Vec<(&'static str, Confusion)> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use sevuldet_static::{Checkmarx, Flawfinder, Rats, StaticDetector, Vuddy};
    let s = sizing();
    let mut samples = sard::generate(&s.sard);
    // Program-level split — shuffled, or the head of the list would be a
    // single category (the generator emits categories in order).
    let mut rng = rand::rngs::StdRng::seed_from_u64(s.train.seed ^ 0xf195);
    samples.shuffle(&mut rng);
    let n_test = samples.len() / 5;
    let (test_programs, train_programs) = samples.split_at(n_test);

    title("Fig. 5: classical static detectors vs SEVulDet (program level)");
    println!(
        "{:<28}{:>9} {:>9} {:>9} {:>9} {:>9}",
        "Tool", "FPR(%)", "FNR(%)", "A(%)", "P(%)", "F1(%)"
    );
    println!("{}", "-".repeat(80));
    let mut out = Vec::new();

    let eval_static = |flagger: &dyn Fn(&ProgramSample) -> bool| -> Confusion {
        let mut c = Confusion::default();
        for p in test_programs {
            c.record(flagger(p), p.vulnerable);
        }
        c
    };

    let ff = Flawfinder;
    let c = eval_static(&|p| ff.flags(&p.source, 4));
    metric_row("Flawfinder", &c, Some(row5(paper::FIG5[0])));
    out.push(("Flawfinder", c));

    let rats = Rats;
    let c = eval_static(&|p| rats.flags(&p.source, 3));
    metric_row("RATS", &c, Some(row5(paper::FIG5[1])));
    out.push(("RATS", c));

    let cm = Checkmarx;
    let c = eval_static(&|p| cm.flags(&p.source, 4));
    metric_row("Checkmarx", &c, Some(row5(paper::FIG5[2])));
    out.push(("Checkmarx", c));

    let mut vuddy = Vuddy::new();
    for p in train_programs.iter().filter(|p| p.vulnerable) {
        vuddy.fit_vulnerable_functions(&p.source, &p.flaw_lines);
    }
    let c = eval_static(&|p| vuddy.flags(&p.source));
    metric_row("VUDDY", &c, Some(row5(paper::FIG5[3])));
    out.push(("VUDDY", c));

    // SEVulDet at program level: a program is flagged when its most
    // suspicious gadget clears the paper's 0.8 confidence threshold (a bare
    // 0.5 any-gadget rule would compound per-gadget false positives).
    let spec = GadgetSpec::path_sensitive();
    let train_corpus = spec.extract(train_programs);
    let mut det = Detector::train(&train_corpus, ModelKind::SevulDet, &s.train);
    let mut c = Confusion::default();
    for p in test_programs {
        let corpus = spec.extract(std::slice::from_ref(p));
        let max_p = corpus
            .items
            .iter()
            .map(|item| det.predict(&item.tokens))
            .fold(0.0f64, f64::max);
        c.record(max_p > 0.8, p.vulnerable);
    }
    metric_row("SEVulDet", &c, Some(row5(paper::FIG5[4])));
    out.push(("SEVulDet", c));
    println!("\n(paper values are approximate read-offs from the Fig. 5 bars)");
    out
}

fn row5(r: (&str, f64, f64, f64, f64, f64)) -> [f64; 5] {
    [r.1, r.2, r.3, r.4, r.5]
}

// ----------------------------------------------------------------- Fig. 6

/// Fig. 6: attention-weight visualization for the CVE-2016-9776 analogue.
/// Returns the ranked tokens.
pub fn fig6() -> Vec<sevuldet::RankedToken> {
    let s = sizing();
    let train_samples = sard::generate(&s.sard);
    let spec = GadgetSpec::path_sensitive();
    let corpus = spec.extract(&train_samples);
    let mut det = Detector::train(&corpus, ModelKind::SevulDet, &s.train);

    let case = xen::cve_2016_9776();
    let program = sevuldet_lang::parse(&case.vulnerable.source).expect("analogue parses");
    let analysis = sevuldet_analysis::ProgramAnalysis::analyze(&program);
    let tokens = sevuldet_gadget::find_special_tokens(&program, &analysis);
    let seed = tokens
        .iter()
        .find(|t| t.func == "fec_receive" && case.vulnerable.flaw_lines.contains(&t.line))
        .expect("special token at the stride subtraction");
    let gadget = sevuldet_gadget::build_gadget(
        &program,
        &analysis,
        seed,
        sevuldet_gadget::GadgetKind::PathSensitive,
        &spec.slice_config(),
    );
    let toks = sevuldet_gadget::Normalizer::normalize_gadget(&gadget).into_tokens();

    title("Fig. 6: top-10 attention tokens of the CVE-2016-9776 gadget");
    println!("path-sensitive gadget ({} tokens):", toks.len());
    for line in gadget.to_text().lines() {
        println!("    {line}");
    }
    println!();
    let ranked = sevuldet::top_tokens(&mut det, &toks, 10);
    for r in &ranked {
        let bar = "#".repeat((r.percent / 4.0).round() as usize);
        println!("{:>10}  {:>6.1}%  {}", r.token, r.percent, bar);
    }
    println!("\n(the paper's top tokens cluster on the loop head and the stride line)");
    ranked
}

// ------------------------------------------------------- CBAM-order ablation

/// The sequential-vs-parallel CBAM arrangement ablation the paper alludes to
/// ("the sequential alignment of the two modules gives better results").
/// Returns `(order label, confusion)`.
pub fn ablation_cbam() -> Vec<(&'static str, Confusion)> {
    let s = sizing();
    let samples = sard::generate(&s.sard);
    let corpus = subsample(
        &GadgetSpec::path_sensitive().extract(&samples),
        1200,
        s.train.seed,
    );
    let idx = corpus.indices_of(None);
    let (train, test) = stratified_split(&corpus, &idx, 0.2, s.train.seed);

    title("Ablation: CBAM gate arrangement (paper: sequential wins)");
    println!(
        "{:<34}{:>9} {:>9} {:>9}",
        "Arrangement", "A(%)", "P(%)", "F1(%)"
    );
    println!("{}", "-".repeat(64));
    let mut out = Vec::new();
    for (name, model) in [
        ("sequential (paper)", ModelKind::SevulDet),
        ("parallel", ModelKind::SevulDetCbamParallel),
    ] {
        let c = run_split(&corpus, model, &s.train, &train, &test);
        apf_row(name, &c, None);
        out.push((name, c));
    }
    out
}
