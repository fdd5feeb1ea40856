//! The scan phases: a tree scanned the way `sevuldet scan` runs at its
//! defaults (f64, jobs 1), cold, after a ~5% edit, and from a restored
//! on-disk cache — plus the traced decomposition of the front half.

use crate::alloc;
use crate::inputs::Program;
use crate::stats::{ms_since, Samples, Tracer};
use sevuldet::{
    prepare_source, score_prepared_mut, Confusion, Detector, GadgetSpec, Json, PreparedGadget,
    PreparedSource, ScanReport,
};
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_gadget::{build_gadget, find_special_tokens, label_gadget, Normalizer};
use sevuldet_query::{ArtifactStore, QueryConfig, QueryEngine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Everything a scan phase needs, built during set-up.
pub struct Tree {
    pub dir: PathBuf,
    /// File names exactly as `sevuldet scan <dir>` reports them.
    pub names: Vec<String>,
    pub programs: Vec<Program>,
    /// The edited tree's sources.
    pub edited: Vec<String>,
    pub edited_idx: Vec<usize>,
    pub store_dir: PathBuf,
}

impl Tree {
    pub fn sources(&self) -> Vec<&str> {
        self.programs.iter().map(|p| p.source.as_str()).collect()
    }
}

/// Writes the tree under `root` and returns it with the names the CLI's
/// directory walk produces for it.
pub fn write_tree(root: &Path, programs: Vec<Program>, edits: Vec<(usize, String)>) -> Tree {
    let dir = root.join("tree");
    std::fs::create_dir_all(&dir).expect("create tree dir");
    for p in &programs {
        std::fs::write(dir.join(&p.name), &p.source).expect("write tree file");
    }
    let names: Vec<String> = sevuldet_query::expand_paths(&[dir.display().to_string()])
        .expect("walk tree")
        .into_iter()
        .map(|p| p.display().to_string())
        .collect();
    assert_eq!(names.len(), programs.len(), "walk found every file");
    let mut edited: Vec<String> = programs.iter().map(|p| p.source.clone()).collect();
    let edited_idx = edits.iter().map(|(i, _)| *i).collect();
    for (i, src) in edits {
        edited[i] = src;
    }
    Tree {
        dir,
        names,
        programs,
        edited,
        edited_idx,
        store_dir: root.join("store"),
    }
}

/// Fills the on-disk store (every entry is fsync'd) — set-up work.
pub fn populate_store(tree: &Tree) {
    let engine = QueryEngine::open(&QueryConfig {
        cache_dir: Some(tree.store_dir.clone()),
        ..QueryConfig::default()
    })
    .expect("open store");
    for p in &tree.programs {
        engine.prepare(&p.source, 1).expect("tree file parses");
    }
}

/// One scan: the timed work of every scan phase. Returns the reports and
/// the JSON document `sevuldet scan --json` prints for them.
pub fn scan(
    engine: &QueryEngine,
    det: &mut Detector,
    names: &[String],
    sources: &[&str],
    jobs: usize,
) -> (Vec<ScanReport>, String) {
    let prepared: Vec<PreparedSource> = sources
        .iter()
        .map(|s| engine.prepare(s, jobs).expect("tree file parses"))
        .collect();
    let reports = score_prepared_mut(det, &prepared, jobs).expect("scoring succeeds");
    let doc = Json::Arr(
        reports
            .iter()
            .zip(names)
            .map(|(r, n)| r.to_json(n))
            .collect(),
    );
    (reports, doc.to_string())
}

pub fn disk_engine(tree: &Tree) -> QueryEngine {
    QueryEngine::open(&QueryConfig {
        cache_dir: Some(tree.store_dir.clone()),
        ..QueryConfig::default()
    })
    .expect("open store")
}

/// Per-file report JSON, for comparing phases file by file.
pub fn per_file(reports: &[ScanReport], names: &[String]) -> Vec<String> {
    reports
        .iter()
        .zip(names)
        .map(|(r, n)| r.to_json(n).to_string())
        .collect()
}

/// The ground truth of each of a program's findings, in report order: a
/// gadget is vulnerable when one of its statement lines is a flaw line —
/// the labelling the detector was trained with. `None` without ground
/// truth.
fn labels(p: &Program) -> Option<Vec<bool>> {
    let flaws = p.flaws.as_ref()?;
    let program = sevuldet_lang::parse(&p.source).expect("tree file parses");
    let analysis = ProgramAnalysis::analyze(&program);
    let spec = GadgetSpec::path_sensitive();
    let slice = spec.slice_config();
    let labels = find_special_tokens(&program, &analysis)
        .iter()
        .map(|st| {
            let g = build_gadget(&program, &analysis, st, spec.kind, &slice);
            label_gadget(&g, flaws).vulnerable
        })
        .collect();
    Some(labels)
}

/// F1 of flagged findings against their labels; sources without ground
/// truth are left out.
pub fn f1<'a>(
    reports: impl Iterator<Item = &'a ScanReport>,
    programs: impl Iterator<Item = &'a Program>,
) -> f64 {
    let mut c = Confusion::default();
    for (r, p) in reports.zip(programs) {
        if let Some(l) = labels(p) {
            assert_eq!(l.len(), r.findings.len(), "one label per finding");
            for (f, vulnerable) in r.findings.iter().zip(l) {
                c.record(f.flagged, vulnerable);
            }
        }
    }
    c.f1()
}

/// Runs the release CLI on the tree (once per run, outside any timing) and
/// returns its stdout.
pub fn cli_scan(cli: &str, tree: &Tree, model: &Path, jobs: usize) -> Vec<u8> {
    let out = std::process::Command::new(cli)
        .args(["scan", &tree.dir.display().to_string(), "--model"])
        .arg(model)
        .args(["--json", "--jobs", &jobs.to_string()])
        .env_remove("SEVULDET_CACHE_DIR")
        .env_remove("SEVULDET_TRACE")
        .output()
        .expect("run the sevuldet CLI");
    assert!(
        out.status.success(),
        "sevuldet scan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The front half decomposed into its layers' public calls — the same steps
/// `prepare_source` takes — with a span around each call.
pub fn prepare_traced(tr: &mut Tracer, group: u64, source: &str) -> PreparedSource {
    let program = tr.span("lang.parse", group, |_| {
        sevuldet_lang::parse(source).expect("tree file parses")
    });
    let analysis = tr.span("analysis.analyze", group, |_| {
        ProgramAnalysis::analyze(&program)
    });
    let specials = tr.span("gadget.specials", group, |_| {
        find_special_tokens(&program, &analysis)
    });
    let spec = GadgetSpec::path_sensitive();
    let slice = spec.slice_config();
    let gadgets = specials
        .iter()
        .map(|st| {
            let gadget = tr.span("gadget.build", group, |_| {
                build_gadget(&program, &analysis, st, spec.kind, &slice)
            });
            let tokens = tr.span("gadget.normalize", group, |_| {
                Normalizer::normalize_gadget(&gadget).tokens()
            });
            PreparedGadget {
                line: st.line,
                category: st.category.abbrev(),
                name: st.name.clone(),
                tokens,
            }
        })
        .collect();
    PreparedSource { gadgets }
}

fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..n {
        let t = Instant::now();
        let r = f();
        best = best.min(ms_since(t));
        out = Some(r);
    }
    (best, out.expect("n > 0"))
}

/// The per-layer numbers of the scan path. `cold_doc` is the untraced cold
/// scan's document, which every traced variant must reproduce.
pub fn layers(
    tr: &mut Tracer,
    tree: &Tree,
    det: &mut Detector,
    model_path: &Path,
    cold_doc: &str,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let sources = tree.sources();
    let files = sources.len() as f64;

    // Untraced and traced cold scans, alternating, best of three each. The
    // traced one makes the same calls as `scan` with a span around each.
    let (mut untraced_ms, mut traced_ms) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..3 {
        let t = Instant::now();
        std::hint::black_box(scan(
            &QueryEngine::in_memory(),
            det,
            &tree.names,
            &sources,
            1,
        ));
        untraced_ms = untraced_ms.min(ms_since(t));
        let t = Instant::now();
        let (reports, doc) = tr.span("scan_cold", rep, |tr| {
            let engine = QueryEngine::in_memory();
            let prepared: Vec<PreparedSource> = sources
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    tr.span("query.prepare", i as u64, |_| {
                        engine.prepare(s, 1).expect("tree file parses")
                    })
                })
                .collect();
            let reports = tr.span("core.score", rep, |_| {
                score_prepared_mut(det, &prepared, 1).expect("scoring succeeds")
            });
            let docs = reports
                .iter()
                .zip(&tree.names)
                .enumerate()
                .map(|(i, (r, n))| tr.span("core.report_json", i as u64, |_| r.to_json(n)))
                .collect();
            let doc = tr.span("core.serialize", rep, |_| Json::Arr(docs).to_string());
            // Freeing the prepared gadgets is real work the scan pays for.
            tr.span("scan.free", rep, |_| drop((prepared, engine)));
            (reports, doc)
        });
        traced_ms = traced_ms.min(ms_since(t));
        drop(reports);
        assert_eq!(doc, cold_doc, "traced scan differs from the untraced one");
    }
    m.insert(
        "trace.overhead_pct.scan",
        (traced_ms / untraced_ms - 1.0) * 100.0,
    );
    m.insert("trace.coverage.scan", tr.coverage("scan_cold"));
    m.insert(
        "core.report_json_us_per_file",
        tr.mean_us("core.report_json"),
    );

    // The front half, one layer call at a time.
    let engine = QueryEngine::in_memory();
    let decomposed: Vec<PreparedSource> = tr.span("prepare_decomposed", 0, |tr| {
        sources
            .iter()
            .enumerate()
            .map(|(i, s)| prepare_traced(tr, i as u64, s))
            .collect()
    });
    for (d, s) in decomposed.iter().zip(&sources) {
        assert_eq!(
            d,
            &engine.prepare(s, 1).expect("parses"),
            "decomposed prepare differs"
        );
    }
    m.insert("lang.parse_us_per_file", tr.mean_us("lang.parse"));
    m.insert(
        "analysis.analyze_us_per_file",
        tr.mean_us("analysis.analyze"),
    );
    m.insert("gadget.specials_us_per_file", tr.mean_us("gadget.specials"));
    m.insert("gadget.build_us_per_gadget", tr.mean_us("gadget.build"));
    m.insert(
        "gadget.normalize_us_per_gadget",
        tr.mean_us("gadget.normalize"),
    );
    let mut lens: Vec<f64> = decomposed
        .iter()
        .flat_map(|p| p.gadgets.iter().map(|g| g.tokens.len() as f64))
        .collect();
    lens.sort_by(f64::total_cmp);
    let gadgets = lens.len() as f64;
    m.insert("gadget.per_file", gadgets / files);
    m.insert("gadget.tokens_mean", lens.iter().sum::<f64>() / gadgets);
    m.insert(
        "gadget.tokens_p90",
        lens[((0.9 * gadgets).ceil() as usize).clamp(1, lens.len()) - 1],
    );

    // Query tiers: misses on a fresh engine, then hits on the same engine.
    let engine = QueryEngine::in_memory();
    for (phase, name) in [(0, "query.prepare.miss"), (1, "query.prepare.hit")] {
        tr.span(name, phase, |tr| {
            for (i, s) in sources.iter().enumerate() {
                tr.span("query.prepare.file", i as u64, |_| {
                    engine.prepare(s, 1).expect("parses")
                });
            }
        });
    }
    m.insert(
        "query.miss_us_per_file",
        tr.total("query.prepare.miss").0 / 1e3 / files,
    );
    m.insert(
        "query.hit_us_per_file",
        tr.total("query.prepare.hit").0 / 1e3 / files,
    );

    // The store on its own: loads from the populated store, saves into a
    // fresh one (each save is fsync'd).
    let store = ArtifactStore::open(&tree.store_dir, 0).expect("open store");
    let fp = engine.fingerprint().to_string();
    let keys: Vec<String> = sources.iter().map(|s| ArtifactStore::key(s, &fp)).collect();
    let loaded: Vec<PreparedSource> = tr.span("query.store_load", 0, |_| {
        keys.iter()
            .map(|k| store.load(k, &fp).expect("populated entry loads"))
            .collect()
    });
    m.insert("query.store_load_ms", tr.total("query.store_load").0 / 1e6);
    m.insert("query.store_bytes", store.stats().bytes as f64);
    let scratch = tree.store_dir.with_file_name("store-save");
    let fresh = ArtifactStore::open(&scratch, 0).expect("open scratch store");
    tr.span("query.store_save", 0, |_| {
        for ((k, s), p) in keys.iter().zip(&sources).zip(&loaded) {
            fresh.save(k, &fp, s, p);
        }
    });
    m.insert("query.store_save_ms", tr.total("query.store_save").0 / 1e6);
    let _ = std::fs::remove_dir_all(&scratch);
    tr.span("query.walk", 0, |_| {
        sevuldet_query::expand_paths(&[tree.dir.display().to_string()]).expect("walk tree")
    });
    m.insert("query.walk_ms", tr.total("query.walk").0 / 1e6);

    // The f64 forward pass on its own, and allocation counts. The counts
    // come from a warm detector so they repeat exactly.
    let streams: Vec<Vec<String>> = decomposed
        .iter()
        .flat_map(|p| p.gadgets.iter().map(|g| g.tokens.clone()))
        .collect();
    det.predict_batch_mut(&streams, 1);
    tr.span("nn.forward.f64", 0, |_| det.predict_batch_mut(&streams, 1));
    m.insert(
        "nn.forward_us_per_gadget.f64",
        tr.total("nn.forward.f64").0 / 1e3 / gadgets,
    );
    let (_, allocs) = alloc::count(|| det.predict_batch_mut(&streams, 1));
    m.insert("nn.allocs_per_gadget", allocs as f64 / gadgets);
    // The front half's count is the median of five passes: its maps use
    // std's randomly keyed hasher, and the iteration order changes the work
    // it does by a few hundredths of a percent from pass to pass.
    let passes = Samples(
        (0..5)
            .map(|_| {
                let (_, allocs) = alloc::count(|| {
                    for s in &sources {
                        prepare_source(s, 1).expect("parses");
                    }
                });
                allocs as f64
            })
            .collect(),
    );
    m.insert("prepare.allocs_per_file", passes.median() / files);

    // Model persistence.
    let copy = model_path.with_extension("copy.svd");
    tr.span("persist.save_model", 0, |_| {
        sevuldet::save_detector_file(det, &copy).expect("save model")
    });
    tr.span("persist.load_model", 0, |_| {
        sevuldet::load_detector_file(&copy).expect("load model")
    });
    let _ = std::fs::remove_file(&copy);
    m.insert(
        "persist.save_model_ms",
        tr.total("persist.save_model").0 / 1e6,
    );
    m.insert(
        "persist.load_model_ms",
        tr.total("persist.load_model").0 / 1e6,
    );

    // Two jobs against one, in-process; the report bytes must not change.
    let (j1, _) = best_of(3, || {
        scan(&QueryEngine::in_memory(), det, &tree.names, &sources, 1)
    });
    let (j2, (_, doc2)) = best_of(3, || {
        scan(&QueryEngine::in_memory(), det, &tree.names, &sources, 2)
    });
    assert_eq!(doc2, cold_doc, "jobs 2 changed the report");
    m.insert("par.scan_jobs2_speedup", j1 / j2);
}
