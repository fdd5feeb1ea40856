//! Seeded inputs. Each workload is a program family that every phase
//! (scan, fleet, train) draws from. The composition of a family (how many
//! programs of each category, filler length, inter-procedural flow and
//! flaw) is fixed by position, and the seed varies only the template draws
//! (identifiers, constants, operators). That keeps the amount of work, and
//! so the timings, nearly independent of the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sevuldet::{GadgetSpec, Json};
use sevuldet_dataset::{case_for, xen, CaseOpts, Origin, ProgramSample};
use sevuldet_gadget::Category;
use std::collections::HashSet;

/// Statements in a long-filler chain, as in the generator's long cases.
const LONG_FILLER: usize = 70;

/// Distinct sources per fleet phase; each phase sends twice as many
/// requests.
const DISTINCT: usize = 48;

/// Open-loop arrival rate in requests per second: a constant of the
/// benchmark, never derived from capacity measured in the same run, and well
/// below the fleet's closed-loop capacity on a 2-vCPU host so a slow-host
/// episode does not build a backlog.
pub const RATE: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SARD-sim programs with the generator's long-filler cases (gadgets up
    /// to ~70-statement chains), inter-procedural flow and Xen-sim device
    /// code: the front half and the forward pass on long inputs dominate.
    LongChains,
    /// Short single-function SARD-sim programs, and for the fleet the short
    /// sources `loadgen` sends: per-file and per-request overheads dominate.
    ShortFuncs,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "long_chains" => Some(Workload::LongChains),
            "short_funcs" => Some(Workload::ShortFuncs),
            _ => None,
        }
    }

    pub fn sizes(self) -> Sizes {
        match self {
            Workload::LongChains => Sizes {
                tree: 12,
                xen: 2,
                train: 16,
                train_chunk: 4,
                model: 24,
                held_out: 48,
                chunk: 4,
            },
            Workload::ShortFuncs => Sizes {
                tree: 48,
                xen: 0,
                train: 32,
                train_chunk: 8,
                model: 32,
                held_out: 96,
                chunk: 8,
            },
        }
    }
}

/// How much of each input a workload generates.
pub struct Sizes {
    /// SARD-sim programs in the scan tree.
    pub tree: usize,
    /// Xen-sim distractors in the scan tree (the three CVE pairs come with
    /// any nonzero count).
    pub xen: usize,
    /// Programs in the training corpus of the timed training phase.
    pub train: usize,
    /// Programs per timed training repetition: the corpus is trained in
    /// chunks of this many programs, one model per chunk.
    pub train_chunk: usize,
    /// Programs in the fixed corpus the scanning model is trained on.
    pub model: usize,
    /// Extra programs `f1` is measured on besides the tree.
    pub held_out: usize,
    /// Files per timed scan repetition.
    pub chunk: usize,
}

/// One scannable program; `flaws` is `None` for sources without ground
/// truth (the `loadgen`-style snippets).
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub flaws: Option<HashSet<u32>>,
}

impl Program {
    /// The position prefix keeps names unique and makes sorted path order
    /// (the order `sevuldet scan` walks a directory in) the generation order.
    fn from_sample(i: usize, s: ProgramSample) -> Program {
        Program {
            name: format!("{i:04}-{}.c", s.id),
            source: s.source,
            flaws: Some(s.flaw_lines),
        }
    }
}

/// Distinct seeds for the independent streams drawn from one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Tree = 1,
    Train = 2,
    FleetClosed = 3,
    FleetOpen = 4,
    Edits = 5,
    HeldOut = 6,
    /// The training corpus's second and third candidate draws.
    TrainAlt1 = 7,
    TrainAlt2 = 8,
}

fn stream_rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (stream as u64) << 56)
}

/// `count` SARD-sim programs of the workload's family. The i-th program's
/// category and axes follow from i alone: categories cycle, 40% carry a
/// flaw, and in the long family one program in three routes its taint
/// through a helper and, outside fleet traffic, two in twelve have a long
/// filler chain.
pub fn sard(workload: Workload, seed: u64, stream: Stream, count: usize) -> Vec<ProgramSample> {
    let mut rng = stream_rng(seed, stream);
    (0..count)
        .map(|i| {
            let long = workload == Workload::LongChains;
            // Fleet traffic leaves out the 70-statement chains: a request
            // that long holds one of the two client connections for ~100 ms,
            // and the open loop would measure the client's queue instead of
            // the fleet.
            let fleet = matches!(stream, Stream::FleetClosed | Stream::FleetOpen);
            let opts = CaseOpts {
                vulnerable: i % 5 < 2,
                displaced_guard: i % 5 == 2,
                filler: if long && !fleet && matches!(i % 12, 0 | 7) {
                    LONG_FILLER
                } else {
                    i % 6
                },
                interproc: long && i % 3 == 1,
                origin: Origin::SardSim,
            };
            let mut case_rng = StdRng::seed_from_u64(rng.gen());
            case_for(Category::ALL[i % 4], &mut case_rng, &opts, i)
        })
        .collect()
}

/// Xen-sim device code: the three CVE analogues (vulnerable and patched)
/// plus `count` distractors, always inter-procedural with 10-39 filler
/// statements, like `sevuldet_dataset::xen::generate`.
fn xen_programs(seed: u64, count: usize) -> Vec<ProgramSample> {
    let mut rng = stream_rng(seed, Stream::Tree);
    let mut out: Vec<ProgramSample> = xen::cve_cases()
        .into_iter()
        .flat_map(|c| [c.vulnerable, c.patched])
        .collect();
    for i in 0..count {
        let opts = CaseOpts {
            vulnerable: i % 6 == 0,
            displaced_guard: i % 3 == 0,
            filler: 10 + (i * 7) % 30,
            interproc: true,
            origin: Origin::XenSim,
        };
        let mut case_rng = StdRng::seed_from_u64(rng.gen::<u64>() ^ 0x5eed);
        let mut s = case_for(Category::ALL[i % 4], &mut case_rng, &opts, i);
        s.id = format!("xen-dev-{i:04}");
        out.push(s);
    }
    out
}

/// The scan tree: SARD-sim programs, plus Xen-sim programs for the long
/// family.
pub fn tree(workload: Workload, seed: u64) -> Vec<Program> {
    let sizes = workload.sizes();
    let mut samples = sard(workload, seed, Stream::Tree, sizes.tree);
    if sizes.xen > 0 {
        samples.extend(xen_programs(seed, sizes.xen));
    }
    samples
        .into_iter()
        .enumerate()
        .map(|(i, s)| Program::from_sample(i, s))
        .collect()
}

/// Gadget tokens the path-sensitive extraction yields for one program: the
/// amount of work it adds to training.
fn gadget_tokens(sample: &ProgramSample) -> usize {
    GadgetSpec::path_sensitive()
        .extract_jobs(std::slice::from_ref(sample), 1)
        .items
        .iter()
        .map(|g| g.tokens.len())
        .sum()
}

/// The training corpus of the timed training phase, in chunks of
/// `train_chunk` programs. Each position is drawn three times and keeps
/// the draw with the median gadget-token count: training time follows the
/// corpus's token count almost exactly (26–29 us per token over ten
/// `long_chains` seeds), and with a single draw that count moved by up to
/// 29% from seed to seed (20 900–26 900 tokens), which would make `train_s`
/// measure the draw rather than the program.
pub fn train_chunks(workload: Workload, seed: u64) -> Vec<Vec<ProgramSample>> {
    let sizes = workload.sizes();
    let [a, b, c] = [Stream::Train, Stream::TrainAlt1, Stream::TrainAlt2]
        .map(|stream| sard(workload, seed, stream, sizes.train));
    let corpus: Vec<ProgramSample> = a
        .into_iter()
        .zip(b)
        .zip(c)
        .map(|((a, b), c)| {
            let mut draws = [a, b, c].map(|s| (gadget_tokens(&s), s));
            draws.sort_by_key(|(tokens, _)| *tokens);
            let [_, (_, median), _] = draws;
            median
        })
        .collect();
    corpus
        .chunks(sizes.train_chunk)
        .map(<[ProgramSample]>::to_vec)
        .collect()
}

/// The corpus the scanning model is trained on. It does not depend on the
/// seed: a briefly trained model's decisions swing with its training data,
/// and `f1` should move with the program, not with the draw.
pub fn model_corpus(workload: Workload) -> Vec<ProgramSample> {
    sard(workload, 0, Stream::Train, workload.sizes().model)
}

/// The held-out programs `f1` is measured on besides the tree.
pub fn held_out(workload: Workload, seed: u64) -> Vec<Program> {
    sard(workload, seed, Stream::HeldOut, workload.sizes().held_out)
        .into_iter()
        .enumerate()
        .map(|(i, s)| Program::from_sample(i, s))
        .collect()
}

/// The short single-function source `loadgen` sends, varied by `i`.
fn snippet(i: u64) -> String {
    format!(
        "void process_{i}(char *dest, char *data) {{\n    int n = atoi(data) + {i};\n    if (n < 16) {{\n        puts(\"small\");\n    }}\n    strncpy(dest, data, n);\n}}"
    )
}

/// One fleet phase's traffic: `distinct` sources and a request order in
/// which every other request repeats an earlier source.
pub struct Pool {
    pub sources: Vec<Program>,
    /// Index into `sources` for each request, in send order.
    pub order: Vec<usize>,
}

/// A phase's traffic. Every third source is a snippet, the rest are
/// programs of the family; request `2i` sends source `i` for the first
/// time and request `2i + 1` repeats an earlier one. The pattern is fixed
/// by position, so latency percentiles fall at the same place in the mix
/// for every seed: the median among repeated programs (cache hits), the
/// tail among first sends of the longest programs.
pub fn pool(workload: Workload, seed: u64, stream: Stream) -> Pool {
    let mut rng = stream_rng(seed, stream);
    let base: u64 = rng.gen_range(0..1_000_000);
    let mut programs = sard(workload, seed, stream, DISTINCT).into_iter();
    let sources: Vec<Program> = (0..DISTINCT)
        .map(|j| {
            if j % 3 == 2 {
                let n = base + j as u64;
                Program {
                    name: format!("{j:04}-snippet-{n}.c"),
                    source: snippet(n),
                    flaws: None,
                }
            } else {
                Program::from_sample(j, programs.next().expect("enough programs"))
            }
        })
        .collect();
    let order = (0..DISTINCT)
        .flat_map(|i| [i, (i * 5 + 3) % (i + 1)])
        .collect();
    Pool { sources, order }
}

/// The `POST /scan` body for one source.
pub fn scan_body(p: &Program) -> String {
    Json::obj(vec![
        ("source", Json::str(p.source.as_str())),
        ("name", Json::str(p.name.as_str())),
    ])
    .to_string()
}

/// The line every SARD-sim `main` reads its input with. Editing its length
/// constant changes the file's bytes without moving a line or touching a
/// flaw, so the ground truth holds.
const EDIT_FROM: &str = "fgets(input, 256, stdin);";
const EDIT_TO: &str = "fgets(input, 255, stdin);";

/// Indices of a seeded ~5% of the tree's files, each edited in place.
pub fn edits(tree: &[Program], seed: u64) -> Vec<(usize, String)> {
    let eligible: Vec<usize> = (0..tree.len())
        .filter(|&i| tree[i].source.contains(EDIT_FROM))
        .collect();
    let want = tree.len().div_ceil(20).min(eligible.len());
    let mut rng = stream_rng(seed, Stream::Edits);
    let mut picked: Vec<usize> = Vec::with_capacity(want);
    while picked.len() < want {
        let i = eligible[rng.gen_range(0..eligible.len())];
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
        .into_iter()
        .map(|i| (i, tree[i].source.replacen(EDIT_FROM, EDIT_TO, 1)))
        .collect()
}
