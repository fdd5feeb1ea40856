//! `perfledger` — the repository's benchmark. See README.md.
//!
//! ```text
//! perfledger --workload long_chains|short_funcs --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up its seeded inputs (three times, reporting the median
//! as `setup_s`), then runs as many rounds as fit in `--seconds` at the
//! nominal round length. A round runs the interference probes, the three
//! scan phases, one fleet (closed loop, then open loop) and the two
//! training phases, so every metric's repetitions are spread across the
//! whole run. Timings are calibrated against a fixed reference kernel (see
//! `host::Probes::calib` and README.md). The last stdout
//! line is the JSON result; with `--trace 1` it carries the per-layer
//! metrics instead of the end-to-end ones.

mod alloc;
mod client;
mod fleet;
mod host;
mod inputs;
mod scan;
mod stats;
mod train;

use inputs::{Pool, Stream, Workload};
use sevuldet::{
    score_prepared_mut, Detector, Encoded, GadgetCorpus, GadgetSpec, Json, Precision, TrainConfig,
};
use sevuldet_dataset::ProgramSample;
use stats::{ms_since, Phase, Samples, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest rounds a run makes, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Nominal seconds per round on a 2-vCPU host (either workload);
/// `--seconds` divided by it gives the number of rounds.
const ROUND_S: f64 = 4.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let num = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|_| format!("bad {name}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("bad --trace `{v}`")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

/// Everything the rounds use, built by one set-up.
struct Setup {
    tree: scan::Tree,
    /// The timed training phase's seeded corpus in chunks, its
    /// configuration, and each chunk extracted and encoded once for the
    /// epoch-phase measurement.
    train_chunks: Vec<Vec<ProgramSample>>,
    cfg: TrainConfig,
    encoded: Vec<(GadgetCorpus, Encoded)>,
    model_path: PathBuf,
    /// The scanning model loaded back from its file, as the CLI loads it,
    /// at f64 and at f32.
    det: Detector,
    det32: Detector,
    pools: [Pool; 2],
    chunk: usize,
    requests: [Vec<Vec<u8>>; 2],
    expected: [Vec<String>; 2],
}

/// Generates the inputs, trains and saves the scanning model, fills the
/// disk store, computes the fleet's expected answers and starts (and
/// stops) one fleet.
fn setup(w: Workload, seed: u64, dir: &Path) -> Setup {
    std::fs::create_dir_all(dir).expect("create work dir");
    let programs = inputs::tree(w, seed);
    let edits = inputs::edits(&programs, seed);
    let tree = scan::write_tree(dir, programs, edits);
    let (_, mut model) = train::train(&inputs::model_corpus(w), &train::model_config());
    let model_path = dir.join("model.svd");
    sevuldet::save_detector_file(&mut model, &model_path).expect("save model");
    scan::populate_store(&tree);
    let det = sevuldet::load_detector_file(&model_path).expect("load model");
    let mut det32 = sevuldet::load_detector_file(&model_path).expect("load model");
    det32.set_precision(Precision::F32).expect("f32 tier");
    let pools = [
        inputs::pool(w, seed, Stream::FleetClosed),
        inputs::pool(w, seed, Stream::FleetOpen),
    ];
    let requests = [fleet::requests(&pools[0]), fleet::requests(&pools[1])];
    let expected = [
        fleet::expected(&pools[0], &mut det32),
        fleet::expected(&pools[1], &mut det32),
    ];
    let train_chunks = inputs::train_chunks(w, seed);
    let cfg = train::config(seed);
    let encoded = train_chunks
        .iter()
        .map(|c| {
            let corpus = GadgetSpec::path_sensitive().extract_jobs(c, 1);
            let encoded = sevuldet::encode(&corpus, &cfg);
            (corpus, encoded)
        })
        .collect();
    fleet::Fleet::start(&model_path).shutdown();
    Setup {
        tree,
        train_chunks,
        cfg,
        encoded,
        model_path,
        det,
        det32,
        pools,
        chunk: w.sizes().chunk,
        requests,
        expected,
    }
}

/// Failed correctness checks, by name.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.0.push(what.to_string());
        }
    }
}

#[derive(Default)]
struct Record {
    /// The set-ups, as one chunk.
    setup: Phase,
    /// Per-chunk repetitions of each scan phase, of training and of its
    /// epoch phase.
    cold: Phase,
    edit: Phase,
    disk: Phase,
    train: Phase,
    epoch: Phase,
    /// Every calibration-kernel reading of the run.
    calib_ms: Samples,
    /// Closed-loop `(succeeded, seconds)` per round.
    closed: Vec<(u64, f64)>,
    /// Open-loop latencies, one list per round.
    open_ms: Vec<Vec<f64>>,
    lateness_ms: Samples,
    /// Share of CPU time stolen by the hypervisor during each round, in %.
    steal_pct: Vec<f64>,
    alu_ms: Samples,
    mem_ms: Samples,
    tally: fleet::Tally,
    memo_hits: (u64, u64),
    disk_hits: (u64, u64),
    fleet_memo: (u64, u64),
    /// Summed shard and balancer counters over every round.
    serve: BTreeMap<&'static str, f64>,
    attempted: u64,
    /// Per chunk, the first training repetition's model hash; the first
    /// chunk's first and latest models.
    train_sha: Vec<String>,
    trained: Vec<Detector>,
}

/// `(hits, lookups)` of a counter delta; `tier` picks memory or disk hits.
fn hits(before: sevuldet_query::CacheCounters, disk_tier: bool) -> (u64, u64) {
    let after = sevuldet_query::counters();
    let h = if disk_tier {
        after.hits_disk - before.hits_disk
    } else {
        after.hits_mem - before.hits_mem
    };
    let lookups = after.hits() + after.misses - before.hits() - before.misses;
    (h, lookups)
}

impl Record {
    /// Runs `f` between two runs of the calibration kernel; returns its
    /// result and `(wall, calibrated)` milliseconds, the calibrated time
    /// scaled by the kernel's nominal over its mean measured time.
    fn timed<R>(&mut self, probes: &host::Probes, f: impl FnOnce() -> R) -> (R, (f64, f64)) {
        let before = probes.calib();
        let t = Instant::now();
        let out = f();
        let wall = ms_since(t);
        let after = probes.calib();
        self.calib_ms.push(before);
        self.calib_ms.push(after);
        let cal = wall * host::CALIB_NOMINAL_MS / ((before + after) / 2.0);
        (out, (wall, cal))
    }

    /// The run's calibration factor for statistics that are not per
    /// repetition (the fleet's): nominal over the median kernel time.
    fn calib_factor(&self) -> f64 {
        host::CALIB_NOMINAL_MS / self.calib_ms.median()
    }
}

fn add(acc: &mut (u64, u64), v: (u64, u64)) {
    acc.0 += v.0;
    acc.1 += v.1;
}

/// One round; returns the seconds its scan, fleet and train parts took.
fn round(
    s: &mut Setup,
    r: &mut Record,
    checks: &mut Checks,
    cold_files: &[String],
    probes: &host::Probes,
) -> [f64; 3] {
    let start = Instant::now();
    let steal_before = host::steal_jiffies();
    let (alu, mem) = probes.run();
    r.alu_ms.push(alu);
    r.mem_ms.push(mem);

    // Scan, chunk by chunk: cold on a fresh engine, then the edited chunk
    // on that now-warm engine, then a fresh engine on the restored disk
    // store. Each repetition is timed between two runs of the calibration
    // kernel; each metric is the sum over chunks of each chunk's median
    // calibrated repetition (see README: with a repetition per round, the
    // fastest one moved between runs twice as much as the median).
    let chunk = s.chunk;
    let names = &s.tree.names;
    let sources = s.tree.sources();
    let edited: Vec<&str> = s.tree.edited.iter().map(String::as_str).collect();
    for (c, lo) in (0..names.len()).step_by(chunk).enumerate() {
        let hi = (lo + chunk).min(names.len());
        let files = &names[lo..hi];
        let engine = sevuldet_query::QueryEngine::in_memory();
        let ((reports, _), t) = r.timed(probes, || {
            scan::scan(&engine, &mut s.det, files, &sources[lo..hi], 1)
        });
        r.cold.push(c, t);
        checks.expect(
            scan::per_file(&reports, files) == cold_files[lo..hi],
            "cold scan repeats its report",
        );
        let before = sevuldet_query::counters();
        let ((reports, _), t) = r.timed(probes, || {
            scan::scan(&engine, &mut s.det, files, &edited[lo..hi], 1)
        });
        r.edit.push(c, t);
        add(&mut r.memo_hits, hits(before, false));
        let unedited_same = scan::per_file(&reports, files)
            .iter()
            .zip(lo..hi)
            .all(|(doc, i)| s.tree.edited_idx.contains(&i) || *doc == cold_files[i]);
        checks.expect(
            unedited_same,
            "unedited files report the same after the edit",
        );
        let before = sevuldet_query::counters();
        let ((_disk, (reports, _)), t) = r.timed(probes, || {
            let disk = scan::disk_engine(&s.tree);
            let out = scan::scan(&disk, &mut s.det, files, &sources[lo..hi], 1);
            (disk, out)
        });
        r.disk.push(c, t);
        add(&mut r.disk_hits, hits(before, true));
        checks.expect(
            scan::per_file(&reports, files) == cold_files[lo..hi],
            "disk-tier scan reports the same as cold",
        );
        r.attempted += 3;
    }
    let scan_s = start.elapsed().as_secs_f64();

    // Fleet: a fresh fleet per round, so every round sees the same mix of
    // cache hits and misses.
    let start = Instant::now();
    let fl = fleet::Fleet::start(&s.model_path);
    let before = sevuldet_query::counters();
    let closed = client::run(fl.addr(), &s.requests[0], 2, None);
    let open = client::run(fl.addr(), &s.requests[1], 2, Some(inputs::RATE));
    add(&mut r.fleet_memo, hits(before, false));
    let shard_metrics: Vec<String> = fl
        .shards
        .iter()
        .map(|sh| fleet::scrape(sh.addr()))
        .collect();
    let bal_metrics = fleet::scrape(fl.addr());
    fl.shutdown();
    let shards =
        |name: &str| -> f64 { shard_metrics.iter().map(|t| fleet::prom(t, name, "")).sum() };
    // Every in-process shard observes every span, so one shard's stage
    // histogram already covers the whole fleet.
    let stage = |name: &str| fleet::prom(&shard_metrics[0], name, "serve.queue_wait");
    for (key, v) in [
        ("batch_sum", shards("sevuldet_batch_size_sum")),
        ("batch_count", shards("sevuldet_batch_size_count")),
        (
            "forward_sum",
            shards("sevuldet_forward_duration_seconds_sum"),
        ),
        (
            "forward_count",
            shards("sevuldet_forward_duration_seconds_count"),
        ),
        ("queue_sum", stage("sevuldet_stage_duration_seconds_sum")),
        (
            "queue_count",
            stage("sevuldet_stage_duration_seconds_count"),
        ),
        (
            "routed",
            fleet::prom(
                &bal_metrics,
                "sevuldet_balancer_routed_total",
                "mode=\"hash\"",
            ),
        ),
        (
            "retries",
            fleet::prom(&bal_metrics, "sevuldet_balancer_retries_total", ""),
        ),
        (
            "failovers",
            fleet::prom(&bal_metrics, "sevuldet_balancer_failovers_total", ""),
        ),
    ] {
        *r.serve.entry(key).or_default() += v;
    }
    for (phase, result) in [(0, &closed), (1, &open)] {
        let t = fleet::check(result, &s.pools[phase], &s.expected[phase]);
        checks.expect(
            t.mismatched == 0,
            "every 200 body equals the in-process f32 report",
        );
        r.tally.sent += t.sent;
        r.tally.succeeded += t.succeeded;
        r.tally.failed += t.failed;
        r.attempted += t.sent;
        if phase == 0 {
            r.closed.push((t.succeeded, result.elapsed.as_secs_f64()));
        }
    }
    let ok = open.replies.iter().flatten().filter(|x| x.status == 200);
    r.open_ms.push(ok.clone().map(|x| x.latency_ms).collect());
    for reply in ok {
        r.lateness_ms.push(reply.lateness_ms);
    }

    let fleet_s = start.elapsed().as_secs_f64();

    // Training, chunk by chunk: corpus to trained model, then the epoch
    // phase alone, timed and summed over chunks like the scan.
    let start = Instant::now();
    for (c, samples) in s.train_chunks.iter().enumerate() {
        let ((_, mut det), t) = r.timed(probes, || train::train(samples, &s.cfg));
        r.train.push(c, t);
        let sha = train::sha(&mut det);
        if r.train_sha.len() <= c {
            r.train_sha.push(sha);
        } else {
            checks.expect(
                r.train_sha[c] == sha,
                "every training repetition yields the same model",
            );
        }
        if c == 0 {
            if r.trained.len() == 2 {
                r.trained.pop();
            }
            r.trained.push(det);
        }
        let (corpus, encoded) = &s.encoded[c];
        let mut model = train::epoch_model(encoded, &s.cfg);
        let ((), t) = r.timed(probes, || {
            train::epochs(&mut model, corpus, encoded, &s.cfg)
        });
        r.epoch.push(c, t);
        r.attempted += 2;
    }
    let steal_after = host::steal_jiffies();
    r.steal_pct.push(
        100.0 * (steal_after.0 - steal_before.0) as f64
            / (steal_after.1 - steal_before.1).max(1) as f64,
    );
    [scan_s, fleet_s, start.elapsed().as_secs_f64()]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfledger: {e}\nusage: perfledger --workload long_chains|short_funcs --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Ok(cli) = std::env::var("PERFLEDGER_CLI") else {
        eprintln!("perfledger: PERFLEDGER_CLI must name the release sevuldet binary (run it through run.sh)");
        return ExitCode::from(2);
    };
    let wname = match args.workload {
        Workload::LongChains => "long_chains",
        Workload::ShortFuncs => "short_funcs",
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{wname}-{}-{}", args.seed, std::process::id()));
    let probes = host::Probes::new(args.seed);

    // Set-up, several times; the last one is used.
    let mut rec = Record::default();
    let mut s = None;
    for k in 0..SETUPS {
        let dir = work.join(format!("setup{k}"));
        let (built, t) = rec.timed(&probes, || setup(args.workload, args.seed, &dir));
        rec.setup.push(0, t);
        if let Some(old) = s.replace(built) {
            let _ = std::fs::remove_dir_all(old.tree.dir.parent().expect("setup dir"));
        }
    }
    let mut s = s.expect("at least one set-up");
    let epoch_samples: f64 = s
        .encoded
        .iter()
        .map(|(corpus, _)| (corpus.len() * s.cfg.epochs) as f64)
        .sum();
    let mut checks = Checks::default();

    // The reference cold document every scan must reproduce.
    let names = s.tree.names.clone();
    let sources: Vec<String> = s.tree.programs.iter().map(|p| p.source.clone()).collect();
    let srcs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let (cold_reports, cold_doc) = scan::scan(
        &sevuldet_query::QueryEngine::in_memory(),
        &mut s.det,
        &names,
        &srcs,
        1,
    );
    let cold_files = scan::per_file(&cold_reports, &names);

    // The round count follows from `--seconds` and the nominal round
    // length, not from the clock, so every run takes the same number
    // of samples and a tail percentile always sits at the same rank.
    let planned = ((args.seconds as f64 / ROUND_S).round() as usize).max(MIN_ROUNDS);
    let mut rounds = 0usize;
    while rounds < planned {
        let [scan_s, fleet_s, train_s] = round(&mut s, &mut rec, &mut checks, &cold_files, &probes);
        rounds += 1;
        let open = Samples(rec.open_ms[rounds - 1].clone());
        eprintln!(
            "round {rounds}: scan {scan_s:.2} s, fleet {fleet_s:.2} s (p50 {:.1} ms, {:.0}/s), train {train_s:.2} s ({:.2} s, {:.0}/s), calibration kernel {:.3} ms",
            open.median(),
            rec.closed[rounds - 1].0 as f64 / rec.closed[rounds - 1].1,
            rec.train.round_wall(rounds - 1) / 1e3,
            epoch_samples * 1e3 / rec.epoch.round_wall(rounds - 1),
            rec.calib_ms.median()
        );
    }

    // The held-out split, prepared once: scored by the first training
    // chunk's models, and for F1 by the scanning model.
    let held = inputs::held_out(args.workload, args.seed);
    let held_names: Vec<String> = held.iter().map(|p| p.name.clone()).collect();
    let engine = sevuldet_query::QueryEngine::in_memory();
    let held_prepared: Vec<_> = held
        .iter()
        .map(|p| {
            engine
                .prepare(&p.source, 1)
                .expect("held-out program parses")
        })
        .collect();
    drop(engine);
    let score_held = |det: &mut Detector| {
        let reports = score_prepared_mut(det, &held_prepared, 1).expect("scoring succeeds");
        let docs = scan::per_file(&reports, &held_names);
        (reports, docs)
    };
    // Training repeats itself: the first chunk's first and latest models
    // score the held-out split identically.
    let [first, last] = &mut rec.trained[..] else {
        panic!("at least two rounds");
    };
    checks.expect(
        score_held(first).1 == score_held(last).1,
        "held-out reports repeat across training repetitions",
    );
    // F1 of the scanning model over the tree and the held-out split.
    let held_reports = score_held(&mut s.det).0;
    let f1 = scan::f1(
        cold_reports.iter().chain(&held_reports),
        s.tree.programs.iter().chain(&held),
    );

    let cli_out = scan::cli_scan(&cli, &s.tree, &s.model_path, 1);
    checks.expect(
        cli_out == format!("{cold_doc}\n").as_bytes(),
        "in-process report equals `sevuldet scan --json --jobs 1`",
    );
    checks.expect(rec.tally.failed == 0, "no request failed");

    // Fleet latency: the rounds whose median was lowest (the best fifth,
    // short windows in which the host was quiet), pooled. Steal time comes
    // in stretches that cover most rounds of a run, and every round it
    // touches has its tail doubled (see README, rule f).
    let mut by_median: Vec<&Vec<f64>> = rec.open_ms.iter().collect();
    by_median.sort_by(|a, b| {
        Samples((*a).clone())
            .median()
            .total_cmp(&Samples((*b).clone()).median())
    });
    let best = Samples(
        by_median[..by_median.len().div_ceil(5)]
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect(),
    );
    let (p99_pct, p99) = best.deep_tail();
    // Closed-loop throughput: the median round.
    let rps = Samples(rec.closed.iter().map(|c| c.0 as f64 / c.1).collect()).median();
    // The fleet's figures span many threads and whole phases, so they are
    // calibrated by the run's median kernel time rather than per request.
    let k = rec.calib_factor();
    let mut e2e: Vec<(&str, f64, &str, usize)> = vec![
        ("setup_s", rec.setup.gated() / 1e3, "s", SETUPS),
        ("peak_rss_mb", host::peak_rss_mb(), "MB", 1),
        ("scan_cold_ms", rec.cold.gated(), "ms", rounds),
        ("scan_edit_ms", rec.edit.gated(), "ms", rounds),
        ("scan_disk_ms", rec.disk.gated(), "ms", rounds),
        ("f1", f1, "ratio", 1),
        ("fleet_p50_ms", best.median() * k, "ms", best.len()),
        ("fleet_p99_ms", p99 * k, "ms", best.len()),
        ("fleet_rps", rps / k, "1/s", rec.closed.len()),
        ("train_s", rec.train.gated() / 1e3, "s", rounds),
        (
            "train_samples_per_s",
            epoch_samples * 1e3 / rec.epoch.gated(),
            "1/s",
            rounds,
        ),
    ];
    // The same figures in wall time, for the detail line.
    let wall = [
        ("setup_s", rec.setup.wall_median() / 1e3),
        ("scan_cold_ms", rec.cold.wall_median()),
        ("scan_edit_ms", rec.edit.wall_median()),
        ("scan_disk_ms", rec.disk.wall_median()),
        ("fleet_p50_ms", best.median()),
        ("fleet_p99_ms", p99),
        ("fleet_rps", rps),
        ("train_s", rec.train.wall_median() / 1e3),
        (
            "train_samples_per_s",
            epoch_samples * 1e3 / rec.epoch.wall_median(),
        ),
    ];
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    if args.trace {
        let mut tr = Tracer::new();
        scan::layers(
            &mut tr,
            &s.tree,
            &mut s.det,
            &s.model_path,
            &cold_doc,
            &mut layer,
        );
        train::layers(&mut tr, &s.train_chunks, &s.cfg, &mut layer);
        for (root, name) in [
            ("scan", "trace.coverage.scan"),
            ("train", "trace.coverage.train"),
        ] {
            checks.expect(
                layer[name] >= 0.95,
                &format!("spans cover at least 95% of {root} wall time"),
            );
        }
        serve_layers(&mut s, &rec, best.median(), &mut layer, &mut checks);
        let spans = work.with_file_name(format!("spans-{wname}-seed{}.json", args.seed));
        std::fs::write(&spans, tr.to_json()).expect("write spans");
        eprintln!("wrote {} spans to {}", tr.spans.len(), spans.display());
        // The spread of the calibrated repetitions around the gated median:
        // each chunk's fastest (p90) repetition, summed.
        for (min, p90, phase, unit) in [
            ("scan_cold.min_ms", "scan_cold.p90_ms", &rec.cold, 1.0),
            ("scan_edit.min_ms", "scan_edit.p90_ms", &rec.edit, 1.0),
            ("scan_disk.min_ms", "scan_disk.p90_ms", &rec.disk, 1.0),
            ("train.min_s", "train.p90_s", &rec.train, 1e3),
        ] {
            layer.insert(min, phase.quantile_sum(0.0) / unit);
            layer.insert(p90, phase.quantile_sum(0.9) / unit);
        }
        layer.insert("host.alu_probe_ms", rec.alu_ms.median());
        layer.insert("host.mem_probe_ms", rec.mem_ms.median());
        layer.insert("host.calib_kernel_ms", rec.calib_ms.median());
        layer.insert(
            "query.memo_hit_ratio",
            rec.memo_hits.0 as f64 / rec.memo_hits.1 as f64,
        );
        layer.insert(
            "query.disk_hit_ratio",
            rec.disk_hits.0 as f64 / rec.disk_hits.1 as f64,
        );
        layer.insert(
            "fleet.memo_hit_ratio",
            rec.fleet_memo.0 as f64 / rec.fleet_memo.1 as f64,
        );
        layer.insert("fleet.sent", rec.tally.sent as f64);
        layer.insert("fleet.succeeded", rec.tally.succeeded as f64);
        layer.insert("fleet.failed", rec.tally.failed as f64);
        layer.insert("loadgen.lateness_p99_ms", rec.lateness_ms.quantile(0.99));
        // Whole-phase figures, which the gated ones replace (see README).
        let closed_ok: u64 = rec.closed.iter().map(|c| c.0).sum();
        let closed_s: f64 = rec.closed.iter().map(|c| c.1).sum();
        let all = Samples(rec.open_ms.iter().flatten().copied().collect());
        layer.insert("fleet.whole_phase_rps", closed_ok as f64 / closed_s);
        layer.insert("fleet.whole_phase_p50_ms", all.median());
    }
    let _ = std::fs::remove_dir_all(&work);

    let (cpus, model) = host::facts();
    let commit = std::env::var("PERFLEDGER_COMMIT").unwrap_or_else(|_| "unknown".into());
    let detail = Json::obj(vec![
        ("workload", Json::str(wname)),
        ("seed", Json::Num(args.seed as f64)),
        ("rounds", Json::Num(rounds as f64)),
        ("cpus", Json::Num(cpus as f64)),
        ("cpu_model", Json::str(model)),
        ("simd_level", Json::str(sevuldet::simd_level())),
        ("commit", Json::str(commit)),
        ("fleet_p99_percentile", Json::Num(p99_pct as f64)),
        ("alu_probe_ms", nums(&rec.alu_ms.0)),
        ("mem_probe_ms", nums(&rec.mem_ms.0)),
        ("steal_pct", nums(&rec.steal_pct)),
        ("calib_kernel_ms_median", Json::Num(rec.calib_ms.median())),
        (
            "wall",
            Json::obj(wall.iter().map(|(n, v)| (*n, Json::Num(*v))).collect()),
        ),
        (
            "samples",
            Json::obj(
                e2e.iter()
                    .map(|(n, _, _, k)| (*n, Json::Num(*k as f64)))
                    .collect(),
            ),
        ),
        (
            "failed_checks",
            Json::Arr(checks.0.iter().map(|c| Json::str(c.as_str())).collect()),
        ),
    ]);
    println!("{detail}");

    let metrics: Vec<(&str, Json)> = if args.trace {
        layer
            .iter()
            .map(|(k, v)| (*k, metric(*v, unit_of(k))))
            .collect()
    } else {
        e2e.drain(..)
            .map(|(n, v, u, _)| (n, metric(v, u)))
            .collect()
    };
    let result = Json::obj(vec![
        ("correct", Json::Bool(checks.0.is_empty())),
        ("attempted", Json::Num(rec.attempted as f64)),
        ("failed", Json::Num(rec.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The unit a per-layer metric's name implies.
fn unit_of(name: &str) -> &'static str {
    if name.starts_with("trace.overhead_pct") {
        return "%";
    }
    if name.starts_with("trace.coverage") {
        return "ratio";
    }
    let suffixes = [
        ("_us_per_file", "us"),
        ("_us_per_gadget", "us"),
        ("_us_per_gadget.f64", "us"),
        ("_us_per_gadget.f32", "us"),
        ("_us_per_sample", "us"),
        ("_us", "us"),
        ("_ms", "ms"),
        ("_ms_mean", "ms"),
        ("_s", "s"),
        ("_ratio", "ratio"),
        ("_speedup", "ratio"),
        ("_bytes", "bytes"),
        ("_rps", "1/s"),
    ];
    suffixes
        .iter()
        .find(|(suf, _)| name.ends_with(suf))
        .map_or("count", |(_, u)| u)
}

/// Fleet-side per-layer numbers: the in-process baseline, one shard without
/// the balancer on the same schedule, request parsing, a reload, and the
/// counters summed over every round.
fn serve_layers(
    s: &mut Setup,
    rec: &Record,
    fleet_p50: f64,
    m: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    let pool = &s.pools[1];
    let inproc = Samples(fleet::inproc_ms(pool, &mut s.det32));
    let direct = fleet::Fleet::single(&s.model_path);
    let result = client::run(direct.addr(), &s.requests[1], 2, Some(inputs::RATE));
    let t = Instant::now();
    let (status, _) = client::request(direct.addr(), "POST", "/reload", "");
    m.insert("registry.reload_ms", ms_since(t));
    checks.expect(status == 200, "reload answers 200");
    direct.shutdown();
    let tally = fleet::check(&result, pool, &s.expected[1]);
    checks.expect(
        tally.mismatched == 0 && tally.failed == 0,
        "direct shard answers every request correctly",
    );
    let direct_p50 = Samples(
        result
            .replies
            .iter()
            .flatten()
            .map(|r| r.latency_ms)
            .collect(),
    )
    .median();
    m.insert("serve.inproc_ms", inproc.median());
    m.insert("serve.direct_p50_ms", direct_p50);
    m.insert("serve.http_overhead_ms", direct_p50 - inproc.median());
    m.insert("balancer.added_p50_ms", fleet_p50 - direct_p50);

    let t = Instant::now();
    let mut n = 0usize;
    for req in &s.requests[1] {
        let parsed = sevuldet_serve::http::parse_request_buffer(req).expect("request parses");
        std::hint::black_box(parsed);
        n += 1;
    }
    m.insert("http.parse_request_us", ms_since(t) * 1e3 / n as f64);

    let streams: Vec<Vec<String>> = pool
        .sources
        .iter()
        .flat_map(|p| {
            sevuldet::prepare_source(&p.source, 1)
                .expect("parses")
                .gadgets
                .into_iter()
                .map(|g| g.tokens)
        })
        .collect();
    s.det32.predict_batch_mut(&streams, 1);
    let t = Instant::now();
    s.det32.predict_batch_mut(&streams, 1);
    m.insert(
        "nn.forward_us_per_gadget.f32",
        ms_since(t) * 1e3 / streams.len() as f64,
    );

    let v = |k: &str| rec.serve.get(k).copied().unwrap_or(0.0);
    m.insert(
        "serve.queue_wait_ms_mean",
        v("queue_sum") * 1e3 / v("queue_count"),
    );
    m.insert("serve.batch_size_mean", v("batch_sum") / v("batch_count"));
    m.insert(
        "serve.forward_ms_mean",
        v("forward_sum") * 1e3 / v("forward_count"),
    );
    m.insert("balancer.first_try_ratio", 1.0 - v("retries") / v("routed"));
    m.insert("balancer.failovers", v("failovers"));
}
