//! The `sevuldet` command-line tool: train a detector on the synthetic
//! corpus, save/load it, scan C files for vulnerabilities (one warm model,
//! many files, one batched forward pass), and serve scans over HTTP.
//!
//! ```text
//! sevuldet train --out model.svd [--per-category 60] [--epochs 24] [--seed 42] [--jobs N]
//!                [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//!                [--profile] [--trace-out trace.json]
//! sevuldet scan <file-or-dir> [...] --model [NAME=]model.svd [--model NAME=other.svd ...]
//!                [--model-name NAME|ensemble:a,b] [--explain] [--top 5] [--jobs N] [--json]
//!                [--precision f64|f32] [--cache-dir DIR | --no-cache]
//!                [--cache-max-bytes N] [--profile] [--trace-out trace.json]
//! sevuldet serve --model [NAME=]model.svd [--model NAME=other.svd ...]
//!                [--split NAME=90,NAME=10] [--addr 127.0.0.1:8080] [--workers N]
//!                [--max-batch N] [--queue-cap N] [--deadline-ms N]
//!                [--precision f64|f32] [--cache-dir DIR | --no-cache]
//!                [--cache-max-bytes N]
//! sevuldet cache <stats|clear|verify> --cache-dir DIR
//! sevuldet gadgets <file.c> [--classic]
//! ```
//!
//! Scan positionals may be directories: each is walked recursively for
//! `*.c` files in sorted order, and the combined list is deduplicated by
//! canonical path so overlapping arguments cannot duplicate findings.
//! `--cache-dir` (or the `SEVULDET_CACHE_DIR` environment variable) turns
//! on the incremental artifact cache; reports are byte-identical with the
//! cache on, off, or damaged.
//!
//! ## Exit codes
//!
//! Failure classes map to distinct process exit codes so supervisors and
//! scripts can react without parsing stderr: `0` success, `1` scan findings
//! failed / generic failure, `2` usage (bad flags or arguments), `3` I/O
//! (unreadable or unwritable files), `4` corrupt or mismatched data (failed
//! checksum, bad model file, checkpoint from a different run), `5` network
//! bind failure.

use sevuldet::checkpoint::CheckpointSpec;
use sevuldet::{
    attach_explanations, combine_ensemble, explain_tokens, load_detector_file, save_detector_file,
    score_prepared_mut, CheckpointError, Detector, DetectorFileError, GadgetSpec, Json, ModelKind,
    Precision, PreparedSource, ScanError, ScanReport, TrainConfig,
};
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_dataset::{sard, SardConfig};
use sevuldet_gadget::{build_gadget, find_special_tokens, GadgetKind};
use sevuldet_query::{ArtifactStore, EntryStatus, QueryConfig, QueryEngine};
use sevuldet_serve::{
    registry::{parse_model_choice, ModelChoice, MultiRegistry, RegistryError},
    signal,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// A CLI failure, classified for its exit code.
enum CliError {
    /// Bad flags or arguments (exit 2).
    Usage(String),
    /// File I/O failure (exit 3).
    Io(String),
    /// Corrupt or mismatched data: failed checksum, invalid model or
    /// checkpoint, wrong-run resume (exit 4).
    Corrupt(String),
    /// Could not bind the serve address (exit 5).
    Bind(String),
    /// Everything else, e.g. some scanned files failed (exit 1).
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Corrupt(_) => 4,
            CliError::Bind(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::Corrupt(m)
            | CliError::Bind(m)
            | CliError::Other(m) => m,
        }
    }
}

impl From<DetectorFileError> for CliError {
    fn from(e: DetectorFileError) -> Self {
        match e {
            DetectorFileError::Io(_) => CliError::Io(e.to_string()),
            DetectorFileError::Invalid(_) => CliError::Corrupt(e.to_string()),
        }
    }
}

impl From<CheckpointError> for CliError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(_) => CliError::Io(e.to_string()),
            CheckpointError::Invalid(_) | CheckpointError::Mismatch { .. } => {
                CliError::Corrupt(e.to_string())
            }
        }
    }
}

impl From<RegistryError> for CliError {
    fn from(e: RegistryError) -> Self {
        match e {
            RegistryError::Io(_) => CliError::Io(e.to_string()),
            RegistryError::Invalid(_)
            | RegistryError::SmokeTest(_)
            | RegistryError::Precision(_) => CliError::Corrupt(e.to_string()),
            // Bad registry configuration (duplicate names, unknown split
            // member) is an argument mistake, not a damaged model file.
            RegistryError::Config(_) => CliError::Usage(e.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("scan") => cmd_scan(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("balance") => cmd_balance(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("gadgets") => cmd_gadgets(&args[1..]),
        _ => {
            eprintln!("usage:");
            eprintln!(
                "  sevuldet train --out <model> [--per-category N] [--epochs N] [--seed N] [--jobs N] [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--profile] [--trace-out FILE]"
            );
            eprintln!(
                "  sevuldet scan <file-or-dir> [...] --model [NAME=]<model> [--model NAME=<model> ...] [--model-name NAME|ensemble:a,b] [--explain] [--top N] [--jobs N] [--json] [--precision f64|f32] [--cache-dir DIR | --no-cache] [--cache-max-bytes N] [--profile] [--trace-out FILE]"
            );
            eprintln!(
                "  sevuldet serve --model [NAME=]<model> [--model NAME=<model> ...] [--split NAME=W,NAME=W] [--addr host:port] [--workers N] [--max-batch N] [--queue-cap N] [--deadline-ms N] [--precision f64|f32] [--cache-dir DIR | --no-cache] [--cache-max-bytes N] [--shard i/N] [--max-conns N] [--header-deadline-ms N] [--degraded-queue-pct N]"
            );
            eprintln!(
                "  sevuldet balance --shards a:p1,b:p2,... [--addr host:port] [--health-interval-ms N] [--fail-after N] [--recover-after N] [--forwarders N] [--connect-timeout-ms N] [--backend-timeout-ms N] [--max-conns N] [--header-deadline-ms N] [--hedge-after ms|pXX] [--shed-inflight N] [--retry-backoff-ms N]"
            );
            eprintln!("  sevuldet cache <stats|clear|verify> --cache-dir <dir>");
            eprintln!("  sevuldet gadgets <file.c> [--classic]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

/// One command-line flag: its name and whether a value follows it. The
/// single table drives [`flag`], [`has_flag`], [`positionals`], and
/// [`check_args`], so a flag added here is automatically parsed, skipped
/// when hunting for positionals, and accepted by validation.
struct FlagSpec {
    name: &'static str,
    takes_value: bool,
}

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--out",
        takes_value: true,
    },
    FlagSpec {
        name: "--per-category",
        takes_value: true,
    },
    FlagSpec {
        name: "--epochs",
        takes_value: true,
    },
    FlagSpec {
        name: "--seed",
        takes_value: true,
    },
    FlagSpec {
        name: "--jobs",
        takes_value: true,
    },
    FlagSpec {
        name: "--model",
        takes_value: true,
    },
    FlagSpec {
        name: "--model-name",
        takes_value: true,
    },
    FlagSpec {
        name: "--split",
        takes_value: true,
    },
    FlagSpec {
        name: "--explain",
        takes_value: false,
    },
    FlagSpec {
        name: "--top",
        takes_value: true,
    },
    FlagSpec {
        name: "--classic",
        takes_value: false,
    },
    FlagSpec {
        name: "--json",
        takes_value: false,
    },
    FlagSpec {
        name: "--addr",
        takes_value: true,
    },
    FlagSpec {
        name: "--workers",
        takes_value: true,
    },
    FlagSpec {
        name: "--max-batch",
        takes_value: true,
    },
    FlagSpec {
        name: "--queue-cap",
        takes_value: true,
    },
    FlagSpec {
        name: "--deadline-ms",
        takes_value: true,
    },
    FlagSpec {
        name: "--checkpoint-dir",
        takes_value: true,
    },
    FlagSpec {
        name: "--checkpoint-every",
        takes_value: true,
    },
    FlagSpec {
        name: "--resume",
        takes_value: false,
    },
    FlagSpec {
        name: "--profile",
        takes_value: false,
    },
    FlagSpec {
        name: "--trace-out",
        takes_value: true,
    },
    FlagSpec {
        name: "--precision",
        takes_value: true,
    },
    FlagSpec {
        name: "--cache-dir",
        takes_value: true,
    },
    FlagSpec {
        name: "--no-cache",
        takes_value: false,
    },
    FlagSpec {
        name: "--cache-max-bytes",
        takes_value: true,
    },
    FlagSpec {
        name: "--shard",
        takes_value: true,
    },
    FlagSpec {
        name: "--max-conns",
        takes_value: true,
    },
    FlagSpec {
        name: "--header-deadline-ms",
        takes_value: true,
    },
    FlagSpec {
        name: "--shards",
        takes_value: true,
    },
    FlagSpec {
        name: "--health-interval-ms",
        takes_value: true,
    },
    FlagSpec {
        name: "--fail-after",
        takes_value: true,
    },
    FlagSpec {
        name: "--recover-after",
        takes_value: true,
    },
    FlagSpec {
        name: "--forwarders",
        takes_value: true,
    },
    FlagSpec {
        name: "--connect-timeout-ms",
        takes_value: true,
    },
    FlagSpec {
        name: "--backend-timeout-ms",
        takes_value: true,
    },
    FlagSpec {
        name: "--hedge-after",
        takes_value: true,
    },
    FlagSpec {
        name: "--shed-inflight",
        takes_value: true,
    },
    FlagSpec {
        name: "--retry-backoff-ms",
        takes_value: true,
    },
    FlagSpec {
        name: "--degraded-queue-pct",
        takes_value: true,
    },
];

fn spec(name: &str) -> Option<&'static FlagSpec> {
    FLAGS.iter().find(|s| s.name == name)
}

/// Rejects undeclared `--flags` and value-taking flags with no value.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            let s = spec(a).ok_or_else(|| format!("unknown flag `{a}`"))?;
            if s.takes_value {
                if i + 1 >= args.len() {
                    return Err(format!("flag `{a}` needs a value"));
                }
                i += 1;
            }
        }
        i += 1;
    }
    Ok(())
}

fn flag(args: &[String], name: &str) -> Option<String> {
    debug_assert!(
        spec(name).is_some_and(|s| s.takes_value),
        "{name} not declared as value flag"
    );
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Every value of a repeatable flag, in order of appearance.
fn flags_all(args: &[String], name: &str) -> Vec<String> {
    debug_assert!(
        spec(name).is_some_and(|s| s.takes_value),
        "{name} not declared as value flag"
    );
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Collects every `--model` occurrence. `NAME=PATH` names a registry slot;
/// a bare `PATH` gets the name `default`. The first model listed is the
/// default one.
fn model_specs(args: &[String]) -> Result<Vec<(String, String)>, CliError> {
    let mut specs: Vec<(String, String)> = Vec::new();
    for v in flags_all(args, "--model") {
        let (name, path) = match v.split_once('=') {
            Some((n, p)) if !n.is_empty() && !p.is_empty() => (n.to_string(), p.to_string()),
            Some(_) => {
                return Err(CliError::Usage(format!(
                    "bad --model `{v}` (expected PATH or NAME=PATH)"
                )))
            }
            None => ("default".to_string(), v),
        };
        if specs.iter().any(|(n, _)| *n == name) {
            return Err(CliError::Usage(format!("duplicate model name `{name}`")));
        }
        specs.push((name, path));
    }
    Ok(specs)
}

/// Parses `--split name=weight,name=weight` A/B traffic weights.
fn split_flag(args: &[String]) -> Result<Option<Vec<(String, u32)>>, CliError> {
    let Some(v) = flag(args, "--split") else {
        return Ok(None);
    };
    let bad = |why: &str| CliError::Usage(format!("bad --split `{v}` ({why})"));
    let mut entries = Vec::new();
    for part in v.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, weight) = part
            .split_once('=')
            .ok_or_else(|| bad("expected NAME=WEIGHT,NAME=WEIGHT,..."))?;
        let weight: u32 = weight
            .trim()
            .parse()
            .map_err(|_| bad("weights are non-negative integers"))?;
        entries.push((name.trim().to_string(), weight));
    }
    if entries.is_empty() {
        return Err(bad("no entries"));
    }
    Ok(Some(entries))
}

fn has_flag(args: &[String], name: &str) -> bool {
    debug_assert!(spec(name).is_some(), "{name} not declared");
    args.iter().any(|a| a == name)
}

/// Every non-flag argument, in order.
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = spec(a).is_none_or(|s| s.takes_value);
            continue;
        }
        out.push(a);
    }
    out
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("bad {name} `{v}`")),
        None => Ok(default),
    }
}

/// Parses `--precision` (default: the bit-exact f64 reference tier).
fn precision_flag(args: &[String]) -> Result<Precision, CliError> {
    match flag(args, "--precision") {
        None => Ok(Precision::F64),
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(format!("bad --precision: {e}"))),
    }
}

/// Reads the shared tracing flags and turns span recording on when either
/// is present. Returns `(--profile, --trace-out path)`.
fn trace_flags(args: &[String]) -> (bool, Option<String>) {
    let profile = has_flag(args, "--profile");
    let trace_out = flag(args, "--trace-out");
    if profile || trace_out.is_some() {
        sevuldet::trace::set_recording(true);
    }
    (profile, trace_out)
}

/// Collects the recording and emits the requested sinks: the per-stage
/// self/total table on stderr (`--profile`) and/or a Chrome `trace_event`
/// JSON file (`--trace-out`, loadable in `chrome://tracing` or Perfetto).
fn emit_trace(profile: bool, trace_out: Option<&str>) -> Result<(), CliError> {
    if !profile && trace_out.is_none() {
        return Ok(());
    }
    let tr = sevuldet::trace::take();
    sevuldet::trace::set_recording(false);
    if profile {
        eprint!("{}", tr.profile_table());
    }
    if let Some(path) = trace_out {
        std::fs::write(path, tr.chrome_json())
            .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
        eprintln!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), CliError> {
    check_args(args).map_err(CliError::Usage)?;
    let (profile, trace_out) = trace_flags(args);
    let out =
        flag(args, "--out").ok_or_else(|| CliError::Usage("train needs --out <path>".into()))?;
    let per_category: usize = parse_flag(args, "--per-category", 60).map_err(CliError::Usage)?;
    let seed: u64 = parse_flag(args, "--seed", 42).map_err(CliError::Usage)?;
    let epochs: usize = parse_flag(args, "--epochs", 24).map_err(CliError::Usage)?;
    let jobs: usize = parse_flag(args, "--jobs", 1).map_err(CliError::Usage)?;
    let checkpoint_every: usize =
        parse_flag(args, "--checkpoint-every", 0).map_err(CliError::Usage)?;
    let resume = has_flag(args, "--resume");
    let ckpt = match flag(args, "--checkpoint-dir") {
        Some(dir) => Some(CheckpointSpec {
            dir: PathBuf::from(dir),
            every: checkpoint_every,
            resume,
        }),
        None if resume || checkpoint_every > 0 => {
            return Err(CliError::Usage(
                "--resume/--checkpoint-every need --checkpoint-dir <dir>".into(),
            ))
        }
        None => None,
    };

    let samples = sard::generate(&SardConfig {
        per_category,
        seed,
        ..SardConfig::default()
    });
    let gadget_spec = GadgetSpec::path_sensitive();
    let corpus = gadget_spec.extract_jobs(&samples, jobs);
    eprintln!(
        "training SEVulDet on {} path-sensitive gadgets ({} vulnerable), {} epochs, {} job(s) ...",
        corpus.len(),
        corpus.vulnerable(),
        epochs,
        jobs
    );
    let cfg = TrainConfig {
        seed,
        epochs,
        jobs,
        ..TrainConfig::quick()
    };
    let mut detector =
        Detector::train_with_checkpoints(&corpus, ModelKind::SevulDet, &cfg, ckpt.as_ref())?;
    save_detector_file(&mut detector, std::path::Path::new(&out))
        .map_err(|e| CliError::Io(format!("writing {out}: {e}")))?;
    eprintln!("saved model to {out}");
    emit_trace(profile, trace_out.as_deref())?;
    Ok(())
}

/// The per-file outcome of a multi-file scan.
enum FileScan {
    /// The report and the prepared source it was scored from (`--top` ranks
    /// its gadget tokens).
    Scanned(ScanReport, PreparedSource),
    Failed(ScanError),
    Unreadable(String),
}

/// Resolves the cache directory from `--cache-dir`, falling back to the
/// `SEVULDET_CACHE_DIR` environment variable. `--no-cache` wins over both
/// (and conflicts with an explicit `--cache-dir`).
fn cache_dir_setting(args: &[String]) -> Result<Option<PathBuf>, CliError> {
    let explicit = flag(args, "--cache-dir").map(PathBuf::from);
    if has_flag(args, "--no-cache") {
        if explicit.is_some() {
            return Err(CliError::Usage(
                "--no-cache conflicts with --cache-dir".into(),
            ));
        }
        return Ok(None);
    }
    Ok(explicit.or_else(|| {
        std::env::var_os("SEVULDET_CACHE_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    }))
}

/// Builds the scan's query engine: persistent when a cache directory is
/// configured, in-memory otherwise (`--no-cache`, or no directory set).
/// Every scan prepares through it, so there is one prepare path.
fn scan_engine(args: &[String]) -> Result<QueryEngine, CliError> {
    let Some(dir) = cache_dir_setting(args)? else {
        return Ok(QueryEngine::in_memory());
    };
    let max_bytes: u64 = parse_flag(args, "--cache-max-bytes", 0).map_err(CliError::Usage)?;
    let config = QueryConfig {
        cache_dir: Some(dir.clone()),
        max_bytes,
        ..QueryConfig::default()
    };
    QueryEngine::open(&config)
        .map_err(|e| CliError::Io(format!("opening cache dir {}: {e}", dir.display())))
}

/// One-line cache summary for `--profile`.
fn profile_cache_summary() {
    let c = sevuldet_query::counters();
    eprintln!(
        "cache: {} hit(s) ({} mem, {} disk, {} fn-reuse), {} miss(es), {} eviction(s), {} bytes on disk",
        c.hits(),
        c.hits_mem,
        c.hits_disk,
        c.hits_func,
        c.misses,
        c.evictions,
        c.size_bytes
    );
}

fn cmd_scan(args: &[String]) -> Result<(), CliError> {
    check_args(args).map_err(CliError::Usage)?;
    let (profile, trace_out) = trace_flags(args);
    let raw: Vec<String> = positionals(args).into_iter().cloned().collect();
    if raw.is_empty() {
        return Err(CliError::Usage(
            "scan needs at least one <file-or-dir>".into(),
        ));
    }
    // Expand directories (recursive, sorted) and collapse overlapping
    // arguments by canonical path, so findings are deterministic however
    // the inputs are spelled.
    let files: Vec<String> = sevuldet_query::expand_paths(&raw)
        .map_err(|e| CliError::Io(e.to_string()))?
        .into_iter()
        .map(|p| p.display().to_string())
        .collect();
    if files.is_empty() {
        return Err(CliError::Other(
            "no .c files found under the given paths".into(),
        ));
    }
    let specs = model_specs(args)?;
    if specs.is_empty() {
        return Err(CliError::Usage(
            "scan needs --model <path> (repeatable as --model NAME=PATH)".into(),
        ));
    }
    let top: usize = parse_flag(args, "--top", 0).map_err(CliError::Usage)?;
    let jobs: usize = parse_flag(args, "--jobs", 1).map_err(CliError::Usage)?;
    let as_json = has_flag(args, "--json");
    let explain = has_flag(args, "--explain");
    let precision = precision_flag(args)?;
    let engine = scan_engine(args)?;

    // Resolve `--model-name` against the configured names: a single name
    // selects one model, `ensemble:a,b,c` votes across several. Without it
    // the first `--model` is used, and the report keeps its original
    // single-model shape (no `model` field).
    let (member_idxs, model_label): (Vec<usize>, Option<String>) = match flag(args, "--model-name")
    {
        None => (vec![0], None),
        Some(spec) => {
            let choice =
                parse_model_choice(&spec, |name| specs.iter().position(|(n, _)| n == name))
                    .map_err(|name| {
                        let names: Vec<&str> = specs.iter().map(|(n, _)| n.as_str()).collect();
                        CliError::Usage(format!(
                            "unknown model `{name}` (available: {})",
                            names.join(", ")
                        ))
                    })?;
            let idxs = match choice {
                ModelChoice::Single(i) => vec![i],
                ModelChoice::Ensemble(members) => members,
            };
            (idxs, Some(spec))
        }
    };

    // Load every selected member once and score every file in a single
    // batched forward pass per member — the same
    // `QueryEngine::prepare`/`score_prepared_mut` path the server's batch
    // workers use, so CLI and server output cannot drift. An unreadable
    // file and a corrupt one exit with different codes.
    let mut detectors: Vec<(String, Detector)> = Vec::with_capacity(member_idxs.len());
    for &i in &member_idxs {
        let (name, path) = &specs[i];
        let mut d = load_detector_file(std::path::Path::new(path))?;
        d.set_precision(precision)
            .map_err(|e| CliError::Corrupt(format!("--precision {precision}: {e}")))?;
        detectors.push((name.clone(), d));
    }

    let mut outcomes: Vec<Option<FileScan>> = Vec::with_capacity(files.len());
    let mut prepared: Vec<PreparedSource> = Vec::new();
    for file in &files {
        match std::fs::read_to_string(file) {
            Err(e) => outcomes.push(Some(FileScan::Unreadable(format!("reading {file}: {e}")))),
            Ok(source) => match engine.prepare(&source, jobs) {
                Ok(p) => {
                    prepared.push(p);
                    outcomes.push(None);
                }
                Err(e) => outcomes.push(Some(FileScan::Failed(e))),
            },
        }
    }
    if profile {
        profile_cache_summary();
    }
    // A typed internal scoring error marks every prepared file failed
    // instead of panicking the process.
    let mut scored: Vec<Vec<ScanReport>> = Vec::with_capacity(detectors.len());
    let mut scoring_err: Option<ScanError> = None;
    for (_, det) in detectors.iter_mut() {
        match score_prepared_mut(det, &prepared, jobs) {
            Ok(reports) => scored.push(reports),
            Err(e) => {
                scoring_err = Some(e);
                break;
            }
        }
    }
    if let Some(e) = scoring_err {
        let outcomes: Vec<FileScan> = outcomes
            .into_iter()
            .map(|o| o.unwrap_or(FileScan::Failed(e.clone())))
            .collect();
        return finish_scan(
            &files,
            &outcomes,
            &mut detectors[0].1,
            as_json,
            top,
            profile,
            trace_out.as_deref(),
        );
    }
    // Per prepared file: a lone member's report passes straight through; an
    // ensemble combines the members' reports into one vote. The model label
    // and explanations attach afterwards, identically on both paths (the
    // ensemble explains through its first member, like the server).
    let mut per_file: Vec<Result<ScanReport, ScanError>> = Vec::with_capacity(prepared.len());
    if detectors.len() == 1 {
        per_file.extend(scored.remove(0).into_iter().map(Ok));
    } else {
        for pi in 0..prepared.len() {
            let members: Vec<(String, ScanReport)> = detectors
                .iter()
                .zip(&scored)
                .map(|((name, _), reports)| (name.clone(), reports[pi].clone()))
                .collect();
            per_file.push(combine_ensemble(&members));
        }
    }
    for (report, p) in per_file.iter_mut().zip(&prepared) {
        let Ok(report) = report else { continue };
        report.model = model_label.clone();
        if explain {
            attach_explanations(&mut detectors[0].1, report, p);
        }
    }
    let mut reports = per_file.into_iter().zip(prepared);
    let outcomes: Vec<FileScan> = outcomes
        .into_iter()
        .map(|o| {
            o.unwrap_or_else(|| match reports.next() {
                Some((Ok(report), p)) => FileScan::Scanned(report, p),
                Some((Err(e), _)) => FileScan::Failed(e),
                None => FileScan::Failed(ScanError::Internal(
                    "no report produced for prepared file".into(),
                )),
            })
        })
        .collect();
    finish_scan(
        &files,
        &outcomes,
        &mut detectors[0].1,
        as_json,
        top,
        profile,
        trace_out.as_deref(),
    )
}

/// Prints scan outcomes (JSON or human), emits traces, and maps failures to
/// the exit code.
fn finish_scan(
    files: &[String],
    outcomes: &[FileScan],
    detector: &mut Detector,
    as_json: bool,
    top: usize,
    profile: bool,
    trace_out: Option<&str>,
) -> Result<(), CliError> {
    if as_json {
        // One JSON array, one element per file, same report schema as the
        // server; "clean" (scanned, no findings) is distinct from "error".
        let docs: Vec<Json> = files
            .iter()
            .zip(outcomes)
            .map(|(file, outcome)| match outcome {
                FileScan::Scanned(report, _) => report.to_json(file),
                FileScan::Failed(e) => sevuldet::error_json(file, e),
                FileScan::Unreadable(msg) => Json::obj(vec![
                    ("name", Json::str(file.as_str())),
                    ("status", Json::str("error")),
                    ("error", Json::str(msg.as_str())),
                ]),
            })
            .collect();
        println!("{}", Json::Arr(docs));
    } else {
        for (file, outcome) in files.iter().zip(outcomes) {
            match outcome {
                FileScan::Unreadable(msg) => eprintln!("{file}: not scanned: {msg}"),
                FileScan::Failed(e) => eprintln!("{file}: not scanned: {e}"),
                FileScan::Scanned(report, p) => print_human_report(file, report, p, detector, top),
            }
        }
    }

    emit_trace(profile, trace_out)?;
    let failures = outcomes
        .iter()
        .filter(|o| !matches!(o, FileScan::Scanned(..)))
        .count();
    if failures > 0 {
        return Err(CliError::Other(format!(
            "{failures}/{} file(s) could not be scanned",
            files.len()
        )));
    }
    Ok(())
}

fn print_human_report(
    file: &str,
    report: &ScanReport,
    prepared: &PreparedSource,
    detector: &mut Detector,
    top: usize,
) {
    if report.findings.is_empty() {
        // "Clean" is a scan result, not an error: keep the machine-greppable
        // `gadgets flagged` summary line even with nothing to report.
        println!("{file}: clean — no special tokens");
        println!(
            "\n0/0 gadgets flagged in {file} (threshold {})",
            report.threshold
        );
        return;
    }
    for (f, g) in report.findings.iter().zip(&prepared.gadgets) {
        if f.flagged {
            println!(
                "{file}:{}: [{}] `{}` p={:.3}  ** potentially vulnerable **",
                f.line, f.category, f.name, f.score
            );
            if top > 0 {
                for r in explain_tokens(detector, &g.tokens, top).tokens {
                    println!("      attention {:>6.1}%  {}", r.percent, r.token);
                }
            }
        } else {
            println!(
                "{file}:{}: [{}] `{}` p={:.3}",
                f.line, f.category, f.name, f.score
            );
        }
    }
    println!(
        "\n{}/{} gadgets flagged in {file} (threshold {})",
        report.flagged(),
        report.gadgets(),
        report.threshold
    );
}

/// Parses `--shard i/N` fleet identity (0-based index, total count).
fn shard_flag(args: &[String]) -> Result<Option<(u32, u32)>, CliError> {
    let Some(v) = flag(args, "--shard") else {
        return Ok(None);
    };
    let bad = || CliError::Usage(format!("bad --shard `{v}` (expected i/N with 0 <= i < N)"));
    let (i, n) = v.split_once('/').ok_or_else(bad)?;
    let i: u32 = i.parse().map_err(|_| bad())?;
    let n: u32 = n.parse().map_err(|_| bad())?;
    if i >= n || n == 0 {
        return Err(bad());
    }
    Ok(Some((i, n)))
}

#[cfg(target_os = "linux")]
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    use sevuldet_serve::{server, ServeConfig};
    check_args(args).map_err(CliError::Usage)?;
    // The flag table is shared by every subcommand, so `--jobs` parses
    // here; refuse it rather than silently ignore it.
    if has_flag(args, "--jobs") {
        return Err(CliError::Usage(
            "serve has no --jobs: each batch scores on one thread; scale a shard with --workers N"
                .into(),
        ));
    }
    let specs = model_specs(args)?;
    if specs.is_empty() {
        return Err(CliError::Usage(
            "serve needs --model <path> (repeatable as --model NAME=PATH)".into(),
        ));
    }
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        workers: parse_flag(args, "--workers", 2).map_err(CliError::Usage)?,
        max_batch: parse_flag(args, "--max-batch", 8).map_err(CliError::Usage)?,
        queue_cap: parse_flag(args, "--queue-cap", 64).map_err(CliError::Usage)?,
        deadline: Duration::from_millis(
            parse_flag(args, "--deadline-ms", 10_000).map_err(CliError::Usage)?,
        ),
        cache_dir: cache_dir_setting(args)?,
        cache_max_bytes: parse_flag(args, "--cache-max-bytes", 0).map_err(CliError::Usage)?,
        shard: shard_flag(args)?,
        max_connections: parse_flag(args, "--max-conns", defaults.max_connections)
            .map_err(CliError::Usage)?,
        header_deadline: Duration::from_millis(
            parse_flag(
                args,
                "--header-deadline-ms",
                defaults.header_deadline.as_millis() as u64,
            )
            .map_err(CliError::Usage)?,
        ),
        degraded_queue_pct: parse_flag(args, "--degraded-queue-pct", defaults.degraded_queue_pct)
            .map_err(CliError::Usage)?,
        ..defaults
    };
    let precision = precision_flag(args)?;
    let spec_paths: Vec<(String, PathBuf)> = specs
        .iter()
        .map(|(n, p)| (n.clone(), PathBuf::from(p)))
        .collect();
    let mut registry = MultiRegistry::open(&spec_paths, precision)?;
    if let Some(entries) = split_flag(args)? {
        registry.set_split(&entries)?;
    }
    let model_list = specs
        .iter()
        .map(|(n, p)| format!("{n}={p}"))
        .collect::<Vec<_>>()
        .join(", ");
    let handle =
        server::start(cfg, registry).map_err(|e| CliError::Bind(format!("binding server: {e}")))?;
    signal::install();
    eprintln!(
        "sevuldet-serve listening on http://{} (models {model_list}, precision {precision}; POST /scan, POST /reload, GET /metrics, GET /healthz)",
        handle.addr()
    );
    while !signal::termination_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("shutdown requested — draining scan queue ...");
    handle.shutdown();
    eprintln!("drained; bye");
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn cmd_serve(_args: &[String]) -> Result<(), CliError> {
    Err(CliError::Usage(
        "serve requires Linux (the server fronts clients with the epoll event loop)".into(),
    ))
}

/// `sevuldet balance --shards a,b,c` — the fleet front end: consistent-hash
/// routes `/scan` by source digest (keeping each shard's artifact cache
/// hot), round-robins everything else, broadcasts `/reload`, and ejects
/// shards whose `/healthz` stops answering.
#[cfg(target_os = "linux")]
fn cmd_balance(args: &[String]) -> Result<(), CliError> {
    use sevuldet_serve::balancer::{self, BalancerConfig};
    check_args(args).map_err(CliError::Usage)?;
    let shards: Vec<String> = flag(args, "--shards")
        .ok_or_else(|| CliError::Usage("balance needs --shards addr1,addr2,...".into()))?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if shards.is_empty() {
        return Err(CliError::Usage("balance needs at least one shard".into()));
    }
    let defaults = BalancerConfig::default();
    let cfg = BalancerConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        shards,
        health_interval: Duration::from_millis(
            parse_flag(args, "--health-interval-ms", 500).map_err(CliError::Usage)?,
        ),
        fail_after: parse_flag(args, "--fail-after", defaults.fail_after)
            .map_err(CliError::Usage)?,
        recover_after: parse_flag(args, "--recover-after", defaults.recover_after)
            .map_err(CliError::Usage)?,
        forwarders: parse_flag(args, "--forwarders", defaults.forwarders)
            .map_err(CliError::Usage)?,
        connect_timeout: Duration::from_millis(
            parse_flag(args, "--connect-timeout-ms", 1_000).map_err(CliError::Usage)?,
        ),
        backend_timeout: Duration::from_millis(
            parse_flag(args, "--backend-timeout-ms", 30_000).map_err(CliError::Usage)?,
        ),
        header_deadline: Duration::from_millis(
            parse_flag(
                args,
                "--header-deadline-ms",
                defaults.header_deadline.as_millis() as u64,
            )
            .map_err(CliError::Usage)?,
        ),
        max_connections: parse_flag(args, "--max-conns", defaults.max_connections)
            .map_err(CliError::Usage)?,
        hedge_after: match flag(args, "--hedge-after") {
            Some(spec) => Some(spec.parse().map_err(CliError::Usage)?),
            None => defaults.hedge_after,
        },
        shed_inflight: parse_flag(args, "--shed-inflight", defaults.shed_inflight)
            .map_err(CliError::Usage)?,
        retry_backoff: Duration::from_millis(
            parse_flag(
                args,
                "--retry-backoff-ms",
                defaults.retry_backoff.as_millis() as u64,
            )
            .map_err(CliError::Usage)?,
        ),
    };
    let n = cfg.shards.len();
    let handle =
        balancer::start(cfg).map_err(|e| CliError::Bind(format!("starting balancer: {e}")))?;
    signal::install();
    eprintln!(
        "sevuldet-balance listening on http://{} fronting {n} shard(s) (hash-routed POST /scan, broadcast POST /reload, GET /metrics, GET /healthz)",
        handle.addr()
    );
    while !signal::termination_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("shutdown requested — draining ...");
    handle.shutdown();
    eprintln!("drained; bye");
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn cmd_balance(_args: &[String]) -> Result<(), CliError> {
    Err(CliError::Usage(
        "balance requires Linux (the balancer fronts clients with the epoll event loop)".into(),
    ))
}

/// `sevuldet cache <stats|clear|verify> --cache-dir DIR` — inspect and
/// maintain the persistent artifact store. Exit codes follow the global
/// scheme: `2` for usage mistakes, `3` for I/O failures, and `verify`
/// exits `4` when any entry is damaged (after listing every one).
fn cmd_cache(args: &[String]) -> Result<(), CliError> {
    check_args(args).map_err(CliError::Usage)?;
    let subs = positionals(args);
    let sub = subs
        .first()
        .ok_or_else(|| CliError::Usage("cache needs a subcommand: stats, clear, or verify".into()))?
        .as_str();
    let dir = cache_dir_setting(args)?.ok_or_else(|| {
        CliError::Usage("cache needs --cache-dir <dir> (or SEVULDET_CACHE_DIR)".into())
    })?;
    let store = ArtifactStore::open(&dir, 0)
        .map_err(|e| CliError::Io(format!("opening cache dir {}: {e}", dir.display())))?;
    match sub {
        "stats" => {
            let s = store.stats();
            println!(
                "{}: {} entr{}, {} bytes",
                dir.display(),
                s.entries,
                if s.entries == 1 { "y" } else { "ies" },
                s.bytes
            );
            Ok(())
        }
        "clear" => {
            let s = store
                .clear()
                .map_err(|e| CliError::Io(format!("clearing {}: {e}", dir.display())))?;
            println!(
                "removed {} entr{} ({} bytes)",
                s.entries,
                if s.entries == 1 { "y" } else { "ies" },
                s.bytes
            );
            Ok(())
        }
        "verify" => {
            let results = store.verify();
            let mut bad = 0usize;
            for (name, status) in &results {
                match status {
                    EntryStatus::Ok => println!("{name}: ok"),
                    EntryStatus::Stale(why) => {
                        bad += 1;
                        println!("{name}: stale ({why})");
                    }
                    EntryStatus::Corrupt(why) => {
                        bad += 1;
                        println!("{name}: corrupt ({why})");
                    }
                    EntryStatus::Unreadable(why) => {
                        bad += 1;
                        println!("{name}: unreadable ({why})");
                    }
                }
            }
            println!(
                "{} entr{} checked, {bad} bad",
                results.len(),
                if results.len() == 1 { "y" } else { "ies" }
            );
            if bad > 0 {
                // Damaged entries are self-healing on the scan path (they
                // recompute); verify still reports them loudly.
                return Err(CliError::Corrupt(format!(
                    "{bad} damaged cache entr{} under {}",
                    if bad == 1 { "y" } else { "ies" },
                    dir.display()
                )));
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown cache subcommand `{other}` (expected stats, clear, or verify)"
        ))),
    }
}

fn cmd_gadgets(args: &[String]) -> Result<(), CliError> {
    check_args(args).map_err(CliError::Usage)?;
    let files = positionals(args);
    let file = files
        .first()
        .ok_or_else(|| CliError::Usage("gadgets needs a <file.c>".into()))?
        .to_string();
    let kind = if has_flag(args, "--classic") {
        GadgetKind::Classic
    } else {
        GadgetKind::PathSensitive
    };
    let source =
        std::fs::read_to_string(&file).map_err(|e| CliError::Io(format!("reading {file}: {e}")))?;
    let program = sevuldet_lang::parse(&source).map_err(|e| CliError::Other(e.to_string()))?;
    let analysis = ProgramAnalysis::analyze(&program);
    let specials = find_special_tokens(&program, &analysis);
    let gadget_spec = GadgetSpec::path_sensitive();
    for st in &specials {
        let gadget = build_gadget(&program, &analysis, st, kind, &gadget_spec.slice_config());
        println!("{gadget}\n");
    }
    println!("{} gadgets ({kind:?})", specials.len());
    Ok(())
}
