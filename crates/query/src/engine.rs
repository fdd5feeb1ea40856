//! The demand-driven incremental engine: memoized `prepare` over the front
//! half of the pipeline (lex → parse → CFG/PDG → Algorithm-1 slice →
//! normalize), keyed by content hash, with salsa-style dependency-tracked
//! reuse at function granularity.
//!
//! ## Three tiers, from cheapest to most general
//!
//! 1. **In-memory file memo** — `sha256(source)` → the file's prepared
//!    gadgets, whose token streams are shared (`Arc<[String]>`) with the
//!    function-level memo below. A repeated scan of unchanged content
//!    inside one process is a clone.
//! 2. **Persistent artifact store** — the same key, sealed on disk
//!    ([`crate::store`]), shared across processes and with the serve
//!    workers. Damage is silently recomputed.
//! 3. **Function-level gadget memo** — when a *file* changes, its parse,
//!    analysis, and special tokens are recomputed (cheap), but each
//!    gadget's expensive slice+normalize step is reused if its recorded
//!    dependency set still holds. A gadget's dependencies are:
//!
//!    * the text hash of every function its slice touched
//!      (`slice.functions()`), seed included;
//!    * a *call-edge signature* over every call edge incident to those
//!      functions (catching new callers extending a backward slice and
//!      callees gaining a definition);
//!    * a *globals signature* over every non-function top-level item
//!      (globals and structs feed the analysis of every function).
//!
//!    Any mismatch recomputes the gadget — invalidation errs conservative,
//!    never stale. The memo is content-addressed (seed function hash +
//!    special-token ordinal), so it survives line-shifting edits elsewhere
//!    in the file and is even shared between files with identical
//!    functions.
//!
//! The engine's output contract is strict: for any input, `prepare`
//! returns **byte-for-byte** what [`sevuldet::prepare_source`] returns —
//! hits, misses, and partial function-level reuse are all invisible in the
//! report. The incremental tests pin this across edit scenarios, and the
//! fault-injection suite pins it across cache damage.

use crate::stats;
use crate::store::ArtifactStore;
use sevuldet::integrity::sha256_hex;
use sevuldet::par::parallel_map;
use sevuldet::{prepare_gadget, GadgetSpec, PreparedGadget, PreparedSource, ScanError};
use sevuldet_analysis::{FuncId, ProgramAnalysis};
use sevuldet_gadget::{find_special_tokens, SpecialToken};
use sevuldet_lang::ast::{Item, Program};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// How a [`QueryEngine`] is set up.
#[derive(Debug, Clone, Default)]
pub struct QueryConfig {
    /// Directory for the persistent artifact store; `None` keeps the cache
    /// purely in-memory (still useful to a long-lived server).
    pub cache_dir: Option<PathBuf>,
    /// Soft on-disk size budget in bytes (oldest entries evicted past it);
    /// 0 = unbounded.
    pub max_bytes: u64,
    /// Bound on in-memory whole-file memo entries; 0 = the default (4096).
    pub mem_entries: usize,
}

const DEFAULT_MEM_ENTRIES: usize = 4096;
/// Bound on function-level gadget memos; the table is cleared wholesale
/// when it fills (simple, and 64k slices is far beyond any real repo's
/// working set).
const GADGET_MEMO_CAP: usize = 1 << 16;

/// A prepared gadget as the engine keeps it: its token stream is one shared
/// copy, referenced by both the file memo and the gadget memo.
#[derive(Debug)]
struct MemoGadget {
    line: u32,
    category: &'static str,
    name: String,
    tokens: Arc<[String]>,
}

impl MemoGadget {
    fn new(g: PreparedGadget) -> MemoGadget {
        MemoGadget {
            line: g.line,
            category: g.category,
            name: g.name,
            tokens: g.tokens.into(),
        }
    }

    fn to_prepared(&self) -> PreparedGadget {
        PreparedGadget {
            line: self.line,
            category: self.category,
            name: self.name.clone(),
            tokens: self.tokens.to_vec(),
        }
    }
}

/// The owned [`PreparedSource`] of a memoized file.
fn to_prepared(gadgets: &[MemoGadget]) -> PreparedSource {
    PreparedSource {
        gadgets: gadgets.iter().map(MemoGadget::to_prepared).collect(),
    }
}

/// In-memory whole-file memo with FIFO eviction.
#[derive(Debug, Default)]
struct FileMemo {
    map: HashMap<String, Arc<[MemoGadget]>>,
    order: VecDeque<String>,
}

/// Identity of one memoized gadget: the seed function's text hash plus the
/// special token's ordinal *within that function* (both stable under edits
/// anywhere else in the file).
type GadgetKey = (String, u32);

/// One memoized slice+normalize result and the facts it depends on.
#[derive(Debug)]
struct GadgetMemo {
    /// The normalized token stream (line numbers live outside it, so it is
    /// invariant under line-shifting edits elsewhere), shared with the file
    /// memo.
    tokens: Arc<[String]>,
    /// `(function name, text hash)` for every function the slice touched.
    deps: Vec<(String, String)>,
    /// Signature over call edges incident to `deps` (see module docs).
    callers_sig: String,
    /// Signature over non-function top-level items.
    globals_sig: String,
}

/// Per-file facts the validator compares memo dependencies against.
struct FileFacts {
    /// Function name → text hash (duplicate definitions fold together).
    fn_hashes: HashMap<String, String>,
    globals_sig: String,
}

impl FileFacts {
    fn extract(source: &str, program: &Program) -> FileFacts {
        let lines: Vec<&str> = source.lines().collect();
        let span_text = |span: sevuldet_lang::span::Span| -> String {
            let start = (span.start.line.max(1) as usize - 1).min(lines.len());
            let end = (span.end.line as usize).min(lines.len()).max(start);
            lines[start..end].join("\n")
        };
        let mut fn_hashes: HashMap<String, String> = HashMap::new();
        let mut globals = String::new();
        for item in &program.items {
            match item {
                Item::Function(f) => {
                    let h = sha256_hex(span_text(f.span).as_bytes());
                    // A redefined name folds both bodies into one hash, so
                    // either definition changing invalidates dependents.
                    fn_hashes
                        .entry(f.name.clone())
                        .and_modify(|prev| *prev = sha256_hex(format!("{prev}{h}").as_bytes()))
                        .or_insert(h);
                }
                Item::Global(d) => {
                    globals.push_str(&span_text(d.span));
                    globals.push('\n');
                }
                Item::Struct(s) => {
                    globals.push_str(&span_text(s.span));
                    globals.push('\n');
                }
            }
        }
        FileFacts {
            fn_hashes,
            globals_sig: sha256_hex(globals.as_bytes()),
        }
    }
}

/// The call-edge signature for an involved-function set: every
/// `caller→callee` edge touching the set, tagged with whether the callee
/// is *defined* in this file (an edge into a newly-defined callee must
/// invalidate, because the slice can now descend into it).
fn callers_signature(
    program: &Program,
    analysis: &ProgramAnalysis,
    involved: &BTreeSet<&str>,
) -> String {
    let mut edges: BTreeSet<String> = BTreeSet::new();
    for site in analysis.callgraph.sites() {
        if involved.contains(site.caller.as_str()) || involved.contains(site.callee.as_str()) {
            let defined = program.function(&site.callee).is_some();
            edges.insert(format!("{}>{}:{}", site.caller, site.callee, defined as u8));
        }
    }
    let joined: String = edges.into_iter().map(|e| e + "\n").collect();
    sha256_hex(joined.as_bytes())
}

/// The call-edge signatures of one file, computed once per distinct
/// involved-function set (most gadgets of a function share one).
struct Signatures<'p> {
    program: &'p Program,
    analysis: &'p ProgramAnalysis,
    done: BTreeMap<Vec<FuncId>, String>,
}

impl<'p> Signatures<'p> {
    fn new(program: &'p Program, analysis: &'p ProgramAnalysis) -> Signatures<'p> {
        Signatures {
            program,
            analysis,
            done: BTreeMap::new(),
        }
    }

    /// The signature of a set of functions of this file (`None` when one of
    /// them is not defined in it).
    fn of<'n>(&mut self, names: impl Iterator<Item = &'n str>) -> Option<&str> {
        let mut ids = names
            .map(|n| self.analysis.func_id(n))
            .collect::<Option<Vec<FuncId>>>()?;
        ids.sort_unstable();
        ids.dedup();
        let (program, analysis) = (self.program, self.analysis);
        let sig = self.done.entry(ids).or_insert_with_key(|ids| {
            let involved: BTreeSet<&str> = ids
                .iter()
                .map(|&f| analysis.func(f).name.as_str())
                .collect();
            callers_signature(program, analysis, &involved)
        });
        Some(sig)
    }
}

impl GadgetMemo {
    /// Whether this memo is still valid under the current file facts.
    fn valid_for(&self, facts: &FileFacts, sigs: &mut Signatures<'_>) -> bool {
        if self.globals_sig != facts.globals_sig {
            return false;
        }
        for (name, hash) in &self.deps {
            if facts.fn_hashes.get(name) != Some(hash) {
                return false;
            }
        }
        sigs.of(self.deps.iter().map(|(n, _)| n.as_str())) == Some(self.callers_sig.as_str())
    }
}

/// The incremental query engine. `&self` methods only — internal state
/// lives behind mutexes, so one engine can be shared by every serve worker
/// (an `Arc<QueryEngine>`), with the expensive compute path running outside
/// any lock.
#[derive(Debug)]
pub struct QueryEngine {
    spec: GadgetSpec,
    fingerprint: String,
    store: Option<ArtifactStore>,
    mem_entries: usize,
    files: Mutex<FileMemo>,
    gadgets: Mutex<HashMap<GadgetKey, Arc<GadgetMemo>>>,
}

impl QueryEngine {
    /// Opens an engine for the scan pipeline's configuration
    /// ([`GadgetSpec::path_sensitive`] — the one `sevuldet scan` and the
    /// server use).
    ///
    /// # Errors
    ///
    /// Propagates a cache-dir creation failure; everything after open
    /// degrades gracefully instead of erroring.
    pub fn open(config: &QueryConfig) -> io::Result<QueryEngine> {
        let spec = GadgetSpec::path_sensitive();
        let slice_cfg = spec.slice_config();
        // The fingerprint pins every knob that shapes a prepared artifact;
        // a change in any of them keys a disjoint cache namespace.
        let fingerprint = format!(
            "kind={:?} control_dep={} slice={:?}",
            spec.kind, spec.control_dep, slice_cfg
        );
        let store = match &config.cache_dir {
            Some(dir) => Some(ArtifactStore::open(dir, config.max_bytes)?),
            None => None,
        };
        Ok(QueryEngine {
            spec,
            fingerprint,
            store,
            mem_entries: if config.mem_entries == 0 {
                DEFAULT_MEM_ENTRIES
            } else {
                config.mem_entries
            },
            files: Mutex::new(FileMemo::default()),
            gadgets: Mutex::new(HashMap::new()),
        })
    }

    /// An engine with no persistent store (in-memory memoization only).
    pub fn in_memory() -> QueryEngine {
        QueryEngine::open(&QueryConfig::default()).expect("no cache dir, cannot fail")
    }

    /// The persistent store, when one is open.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// The pipeline fingerprint that namespaces this engine's artifacts.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The memoized equivalent of [`sevuldet::prepare_source`]: identical
    /// output for every input, served from the cheapest valid tier.
    ///
    /// # Errors
    ///
    /// [`ScanError::Parse`] when the source is not valid mini-C (parse
    /// failures are never cached — they carry no sliced artifact).
    pub fn prepare(&self, source: &str, jobs: usize) -> Result<PreparedSource, ScanError> {
        let _t = sevuldet_trace::span!("query.prepare");
        let key = ArtifactStore::key(source, &self.fingerprint);
        if let Some(hit) = self
            .files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .get(&key)
        {
            stats::hit_mem();
            sevuldet_trace::counter("query.cache.hit", 1.0);
            return Ok(to_prepared(hit));
        }
        if let Some(store) = &self.store {
            if let Some(prepared) = store.load(&key, &self.fingerprint) {
                stats::hit_disk();
                sevuldet_trace::counter("query.cache.hit", 1.0);
                let memo = prepared
                    .gadgets
                    .iter()
                    .cloned()
                    .map(MemoGadget::new)
                    .collect();
                self.remember(key, memo);
                return Ok(prepared);
            }
        }
        stats::miss();
        sevuldet_trace::counter("query.cache.miss", 1.0);
        let memo = self.compute(source, jobs)?;
        let prepared = to_prepared(&memo);
        if let Some(store) = &self.store {
            store.save(&key, &self.fingerprint, source, &prepared);
        }
        self.remember(key, memo);
        Ok(prepared)
    }

    /// Inserts into the bounded in-memory file memo.
    fn remember(&self, key: String, gadgets: Arc<[MemoGadget]>) {
        let mut memo = self.files.lock().unwrap_or_else(|e| e.into_inner());
        if memo.map.contains_key(&key) {
            return;
        }
        while memo.map.len() >= self.mem_entries {
            match memo.order.pop_front() {
                Some(old) => {
                    if memo.map.remove(&old).is_some() {
                        stats::evicted(1);
                    }
                }
                None => break,
            }
        }
        memo.order.push_back(key.clone());
        memo.map.insert(key, gadgets);
    }

    /// The recompute path: parse, analyze, and find special tokens fresh,
    /// then build each gadget — reusing any function-level memo whose
    /// dependency set still holds, slicing only what actually changed.
    fn compute(&self, source: &str, jobs: usize) -> Result<Arc<[MemoGadget]>, ScanError> {
        // Same stage span as `prepare_source`, so per-stage dashboards and
        // `--profile` keep one name for "prepare cost" either way.
        let _t = sevuldet_trace::span!("scan.prepare");
        let program = sevuldet_lang::parse(source).map_err(|e| ScanError::Parse(e.to_string()))?;
        let analysis = ProgramAnalysis::analyze(&program);
        let specials = find_special_tokens(&program, &analysis);
        let facts = FileFacts::extract(source, &program);
        let ordinals = per_function_ordinals(&specials);
        let mut sigs = Signatures::new(&program, &analysis);

        // Partition into memo-served and to-be-sliced, preserving order.
        let mut gadgets: Vec<Option<MemoGadget>> = Vec::with_capacity(specials.len());
        gadgets.resize_with(specials.len(), || None);
        let mut missing: Vec<usize> = Vec::new();
        {
            let memo = self.gadgets.lock().unwrap_or_else(|e| e.into_inner());
            for (i, st) in specials.iter().enumerate() {
                let reused = facts.fn_hashes.get(&st.func).and_then(|seed_hash| {
                    let m = memo.get(&(seed_hash.clone(), ordinals[i]))?;
                    m.valid_for(&facts, &mut sigs).then(|| m.tokens.clone())
                });
                match reused {
                    Some(tokens) => {
                        stats::hit_func();
                        gadgets[i] = Some(MemoGadget {
                            line: st.line,
                            category: st.category.abbrev(),
                            name: st.name.clone(),
                            tokens,
                        });
                    }
                    None => missing.push(i),
                }
            }
        }

        // Slice + assemble + normalize the rest through the same routine as
        // `prepare_source`, sharded like it (parallel_map preserves order).
        let computed = parallel_map(&missing, jobs, |_, &i| {
            prepare_gadget(&analysis, &specials[i], &self.spec)
        });

        {
            let mut memo = self.gadgets.lock().unwrap_or_else(|e| e.into_inner());
            if memo.len() + computed.len() > GADGET_MEMO_CAP {
                stats::evicted(memo.len() as u64);
                memo.clear();
            }
            for (&i, (prepared, functions)) in missing.iter().zip(computed) {
                let st = &specials[i];
                let gadget = MemoGadget::new(prepared);
                if let Some(seed_hash) = facts.fn_hashes.get(&st.func) {
                    let deps: Vec<(String, String)> = functions
                        .into_iter()
                        .chain(std::iter::once(st.func.as_str()))
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .map(|f| {
                            let hash = facts.fn_hashes.get(f).cloned().unwrap_or_default();
                            (f.to_string(), hash)
                        })
                        .collect();
                    let callers_sig = sigs
                        .of(deps.iter().map(|(n, _)| n.as_str()))
                        .unwrap_or_default()
                        .to_string();
                    let m = GadgetMemo {
                        tokens: gadget.tokens.clone(),
                        deps,
                        callers_sig,
                        globals_sig: facts.globals_sig.clone(),
                    };
                    memo.insert((seed_hash.clone(), ordinals[i]), Arc::new(m));
                }
                gadgets[i] = Some(gadget);
            }
        }

        let gadgets: Arc<[MemoGadget]> = gadgets
            .into_iter()
            .map(|g| g.expect("every special token produced a gadget"))
            .collect();
        sevuldet_trace::counter("scan.gadgets", gadgets.len() as f64);
        Ok(gadgets)
    }
}

/// For each special token, its 0-based ordinal among the specials of the
/// *same function* — the stable half of a gadget memo key.
fn per_function_ordinals(specials: &[SpecialToken]) -> Vec<u32> {
    let mut seen: HashMap<&str, u32> = HashMap::new();
    specials
        .iter()
        .map(|st| {
            let n = seen.entry(st.func.as_str()).or_insert(0);
            let ord = *n;
            *n += 1;
            ord
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinals_are_per_function() {
        let st = |func: &str| SpecialToken {
            category: sevuldet_gadget::Category::Fc,
            func: func.into(),
            node: sevuldet_analysis::NodeId(0),
            line: 1,
            name: "x".into(),
        };
        let specials = vec![st("a"), st("a"), st("b"), st("a"), st("b")];
        assert_eq!(per_function_ordinals(&specials), vec![0, 1, 0, 2, 1]);
    }
}
