//! Forward/backward program slicing over PDGs (Step I.3).
//!
//! Backward slices follow data *and* control dependence (finding the
//! statements an attack flows through and the guards that enrich semantics);
//! forward slices follow data dependence (where the value goes). Both are
//! inter-procedural: backward slicing ascends from function entries to call
//! sites and descends into callees through return values; forward slicing
//! descends into callees through arguments and ascends through returns.

use sevuldet_analysis::{FuncId, NodeId, ProgramAnalysis};
use std::collections::VecDeque;

/// Slicing options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceConfig {
    /// Follow control dependence in the backward direction (SySeVR-style).
    /// Disable for VulDeePecker-style data-dependence-only slices.
    pub control_dep: bool,
    /// Cross function boundaries via the call graph.
    pub interprocedural: bool,
    /// Hard cap on slice size (defense against pathological programs).
    pub max_nodes: usize,
}

impl Default for SliceConfig {
    fn default() -> Self {
        SliceConfig {
            control_dep: true,
            interprocedural: true,
            max_nodes: 4096,
        }
    }
}

impl SliceConfig {
    /// VulDeePecker-style: data dependence only.
    pub fn data_only() -> Self {
        SliceConfig {
            control_dep: false,
            ..SliceConfig::default()
        }
    }
}

/// A program slice: the set of `(function, node)` pairs it covers, as one
/// bitset over the program's nodes (bit `node_base + node` of each
/// function, see [`ProgramAnalysis::node_count`]).
#[derive(Clone)]
pub struct Slice<'a> {
    /// Seed function.
    pub func: String,
    /// Seed node.
    pub seed: NodeId,
    analysis: &'a ProgramAnalysis,
    bits: Vec<u64>,
    len: usize,
}

impl<'a> Slice<'a> {
    fn new(analysis: &'a ProgramAnalysis, func: &str, seed: NodeId) -> Slice<'a> {
        Slice {
            func: func.to_string(),
            seed,
            analysis,
            bits: vec![0; analysis.node_count().div_ceil(64)],
            len: 0,
        }
    }

    fn bit(&self, f: FuncId, n: NodeId) -> usize {
        (self.analysis.func(f).node_base + n.0) as usize
    }

    /// Adds `(f, n)`; false when it was already covered.
    fn insert(&mut self, f: FuncId, n: NodeId) -> bool {
        let b = self.bit(f, n);
        let (w, m) = (b / 64, 1u64 << (b % 64));
        if self.bits[w] & m != 0 {
            return false;
        }
        self.bits[w] |= m;
        self.len += 1;
        true
    }

    fn has(&self, b: usize) -> bool {
        self.bits[b / 64] & (1 << (b % 64)) != 0
    }

    /// Whether `(f, n)` is in the slice.
    pub fn contains(&self, f: FuncId, n: NodeId) -> bool {
        self.has(self.bit(f, n))
    }

    /// Number of nodes in the slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice covers nothing but the seed.
    pub fn is_empty(&self) -> bool {
        self.len <= 1
    }

    /// Every covered `(function, node)`, by function id and then ascending
    /// node id.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, NodeId)> + '_ {
        self.analysis
            .funcs()
            .iter()
            .enumerate()
            .flat_map(move |(i, fa)| {
                let f = FuncId(i as u32);
                fa.pdg
                    .cfg
                    .node_ids()
                    .filter(move |&n| self.contains(f, n))
                    .map(move |n| (f, n))
            })
    }

    /// Whether every node of `self` is also in `other` (slices of one
    /// analysis).
    pub fn is_subset(&self, other: &Slice<'_>) -> bool {
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// The names of the functions the slice touches, sorted.
    #[cfg(test)]
    pub fn functions(&self) -> Vec<&'a str> {
        let analysis = self.analysis;
        let mut v: Vec<&'a str> = analysis
            .funcs()
            .iter()
            .filter(|fa| {
                let lo = fa.node_base as usize;
                (lo..lo + fa.pdg.cfg.len()).any(|b| self.has(b))
            })
            .map(|fa| fa.name.as_str())
            .collect();
        v.sort_unstable();
        v
    }
}

impl std::fmt::Debug for Slice<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slice")
            .field("func", &self.func)
            .field("seed", &self.seed)
            .field("nodes", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// The worklist and visited set one slice computation reuses across its
/// backward and forward passes.
struct Walker<'s, 'a> {
    analysis: &'a ProgramAnalysis,
    config: &'s SliceConfig,
    out: &'s mut Slice<'a>,
    work: VecDeque<(FuncId, NodeId)>,
    visited: Vec<u64>,
}

impl Walker<'_, '_> {
    /// Backward closure from `(f, seed)` over data dependence, control
    /// dependence (when configured), call sites of a reached entry, and the
    /// `return` nodes of user functions a node calls. Breadth-first, so the
    /// `max_nodes` cap keeps the nodes nearest the seed.
    fn backward(&mut self, f: FuncId, seed: NodeId) {
        let analysis = self.analysis;
        self.work.clear();
        self.work.push_back((f, seed));
        while let Some((f, n)) = self.work.pop_front() {
            if self.out.len() >= self.config.max_nodes {
                return;
            }
            if !self.out.insert(f, n) {
                continue;
            }
            let fa = analysis.func(f);
            let pdg = &fa.pdg;
            self.work.extend(pdg.data_preds(n).map(|d| (f, d.from)));
            if self.config.control_dep {
                self.work
                    .extend(pdg.control_preds(n).iter().map(|&m| (f, m)));
            }
            if self.config.interprocedural {
                // Reached the function entry: values came from call sites.
                if n == pdg.cfg.entry() {
                    self.work.extend(fa.callers.iter().copied());
                }
                // Calls whose return value feeds this node: descend into
                // callee returns.
                for &callee in fa.callees_of(n) {
                    let returns = &analysis.func(callee).returns;
                    self.work.extend(returns.iter().map(|&r| (callee, r)));
                }
            }
        }
    }

    /// Forward closure from `(f, seed)` over data dependence, callee entries
    /// of a node's calls, and call sites of a reached `return`.
    fn forward(&mut self, f: FuncId, seed: NodeId) {
        let analysis = self.analysis;
        self.work.clear();
        self.work.push_back((f, seed));
        self.visited.fill(0);
        while let Some((f, n)) = self.work.pop_front() {
            if self.out.len() >= self.config.max_nodes {
                return;
            }
            let fa = analysis.func(f);
            let b = (fa.node_base + n.0) as usize;
            let (w, m) = (b / 64, 1u64 << (b % 64));
            if self.visited[w] & m != 0 {
                continue;
            }
            self.visited[w] |= m;
            self.out.insert(f, n);
            let pdg = &fa.pdg;
            self.work
                .extend(pdg.data_succs(n).iter().map(|d| (f, d.to)));
            if self.config.interprocedural {
                // Values passed into callees: continue from the callee entry.
                for &callee in fa.callees_of(n) {
                    self.work
                        .push_back((callee, analysis.func(callee).pdg.cfg.entry()));
                }
                // Returned values: continue at every call site of this
                // function.
                if pdg.cfg.node(n).tokens.first().map(String::as_str) == Some("return") {
                    self.work.extend(fa.callers.iter().copied());
                }
            }
        }
    }
}

/// Runs `walk` on a fresh slice of `func` (an empty slice when the function
/// does not exist).
fn slice_with<'a>(
    analysis: &'a ProgramAnalysis,
    func: &str,
    seed: NodeId,
    config: &SliceConfig,
    walk: impl FnOnce(&mut Walker<'_, 'a>, FuncId),
) -> Slice<'a> {
    let mut out = Slice::new(analysis, func, seed);
    if let Some(f) = analysis.func_id(func) {
        let visited = vec![0; out.bits.len()];
        let mut w = Walker {
            analysis,
            config,
            out: &mut out,
            work: VecDeque::new(),
            visited,
        };
        walk(&mut w, f);
    }
    out
}

/// Computes the combined forward+backward slice used for gadget generation:
/// backward from the seed, forward from the seed, and forward from each node
/// that directly feeds the seed (so guards that *consume* the same values as
/// the seed are captured — the property the motivating example hinges on).
pub fn two_way_slice<'a>(
    analysis: &'a ProgramAnalysis,
    func: &str,
    seed: NodeId,
    config: &SliceConfig,
) -> Slice<'a> {
    let _t = sevuldet_trace::span!("gadget.slice");
    slice_with(analysis, func, seed, config, |w, f| {
        w.backward(f, seed);
        w.forward(f, seed);
        for d in analysis.func(f).pdg.data_preds(seed) {
            w.forward(f, d.from);
        }
    })
}

/// Backward slice only (exposed for tests and ablation).
pub fn backward_slice<'a>(
    analysis: &'a ProgramAnalysis,
    func: &str,
    seed: NodeId,
    config: &SliceConfig,
) -> Slice<'a> {
    slice_with(analysis, func, seed, config, |w, f| w.backward(f, seed))
}

/// Forward slice only (exposed for tests and ablation).
pub fn forward_slice<'a>(
    analysis: &'a ProgramAnalysis,
    func: &str,
    seed: NodeId,
    config: &SliceConfig,
) -> Slice<'a> {
    slice_with(analysis, func, seed, config, |w, f| w.forward(f, seed))
}

/// The string-keyed slicer the bitset one replaced, kept as the oracle its
/// property tests compare against: worklists and result sets of
/// `(function name, node)`, and a scan of every callee node for `return`.
#[cfg(test)]
pub(crate) mod reference {
    use super::SliceConfig;
    use sevuldet_analysis::{NodeId, ProgramAnalysis};
    use std::collections::{BTreeSet, VecDeque};

    /// The two-way slice as a sorted `(function, node)` set.
    pub(crate) fn two_way_slice(
        analysis: &ProgramAnalysis,
        func: &str,
        seed: NodeId,
        config: &SliceConfig,
    ) -> BTreeSet<(String, NodeId)> {
        let mut nodes = BTreeSet::new();
        backward(analysis, func, seed, config, &mut nodes);
        forward(analysis, func, seed, config, &mut nodes);
        if let Some(pdg) = analysis.pdg(func) {
            let feeders: Vec<NodeId> = pdg.data_preds(seed).map(|d| d.from).collect();
            for f in feeders {
                forward(analysis, func, f, config, &mut nodes);
            }
        }
        nodes
    }

    fn backward(
        analysis: &ProgramAnalysis,
        func: &str,
        seed: NodeId,
        config: &SliceConfig,
        out: &mut BTreeSet<(String, NodeId)>,
    ) {
        let mut work: VecDeque<(String, NodeId)> = VecDeque::new();
        work.push_back((func.to_string(), seed));
        while let Some((f, n)) = work.pop_front() {
            if out.len() >= config.max_nodes {
                return;
            }
            if !out.insert((f.clone(), n)) {
                continue;
            }
            let Some(pdg) = analysis.pdg(&f) else {
                continue;
            };
            for d in pdg.data_preds(n) {
                work.push_back((f.clone(), d.from));
            }
            if config.control_dep {
                for &m in pdg.control_preds(n) {
                    work.push_back((f.clone(), m));
                }
            }
            if config.interprocedural {
                if n == pdg.cfg.entry() {
                    for site in analysis.callgraph.calls_to(&f) {
                        work.push_back((site.caller.clone(), site.node));
                    }
                }
                for call in &pdg.cfg.node(n).calls {
                    if analysis.callgraph.is_user_func(&call.callee) {
                        if let Some(callee_pdg) = analysis.pdg(&call.callee) {
                            for rid in callee_pdg.cfg.node_ids() {
                                let nd = callee_pdg.cfg.node(rid);
                                if nd.tokens.first().map(String::as_str) == Some("return") {
                                    work.push_back((call.callee.clone(), rid));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn forward(
        analysis: &ProgramAnalysis,
        func: &str,
        seed: NodeId,
        config: &SliceConfig,
        out: &mut BTreeSet<(String, NodeId)>,
    ) {
        let mut work: VecDeque<(String, NodeId)> = VecDeque::new();
        work.push_back((func.to_string(), seed));
        let mut visited: BTreeSet<(String, NodeId)> = BTreeSet::new();
        while let Some((f, n)) = work.pop_front() {
            if out.len() >= config.max_nodes {
                return;
            }
            if !visited.insert((f.clone(), n)) {
                continue;
            }
            out.insert((f.clone(), n));
            let Some(pdg) = analysis.pdg(&f) else {
                continue;
            };
            for d in pdg.data_succs(n) {
                work.push_back((f.clone(), d.to));
            }
            if config.interprocedural {
                for call in &pdg.cfg.node(n).calls {
                    if analysis.callgraph.is_user_func(&call.callee) {
                        if let Some(callee_pdg) = analysis.pdg(&call.callee) {
                            work.push_back((call.callee.clone(), callee_pdg.cfg.entry()));
                        }
                    }
                }
                if pdg.cfg.node(n).tokens.first().map(String::as_str) == Some("return") {
                    for site in analysis.callgraph.calls_to(&f) {
                        work.push_back((site.caller.clone(), site.node));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevuldet_lang::parse;

    fn setup(src: &str) -> ProgramAnalysis {
        let p = parse(src).unwrap();
        ProgramAnalysis::analyze(&p)
    }

    fn node_with(analysis: &ProgramAnalysis, func: &str, tok: &str) -> NodeId {
        let pdg = analysis.pdg(func).unwrap();
        pdg.cfg
            .node_ids()
            .find(|id| pdg.cfg.node(*id).tokens.first().map(String::as_str) == Some(tok))
            .unwrap_or_else(|| panic!("no node starting with {tok} in {func}"))
    }

    fn lines_of(analysis: &ProgramAnalysis, slice: &Slice) -> Vec<(String, u32)> {
        slice
            .iter()
            .map(|(f, n)| {
                let fa = analysis.func(f);
                (fa.name.clone(), fa.pdg.cfg.node(n).line)
            })
            .collect()
    }

    #[test]
    fn backward_includes_guard_and_sources() {
        let src = r#"void f(char *dest, char *data, int n) {
    int len = n;
    if (len < 16) {
        strncpy(dest, data, len);
    }
}"#;
        let a = setup(src);
        let seed = node_with(&a, "f", "strncpy");
        let s = backward_slice(&a, "f", seed, &SliceConfig::default());
        let lines: Vec<u32> = lines_of(&a, &s).iter().map(|(_, l)| *l).collect();
        assert!(lines.contains(&2), "len source in slice");
        assert!(lines.contains(&3), "guard in slice (control dep)");
        assert!(lines.contains(&4), "seed in slice");
    }

    #[test]
    fn data_only_backward_excludes_pure_guard() {
        // The guard tests a *different* variable, so without control
        // dependence it must not enter the slice.
        let src = r#"void f(char *dest, char *data, int n, int mode) {
    if (mode) {
        strncpy(dest, data, n);
    }
}"#;
        let a = setup(src);
        let seed = node_with(&a, "f", "strncpy");
        let full = backward_slice(&a, "f", seed, &SliceConfig::default());
        let data = backward_slice(&a, "f", seed, &SliceConfig::data_only());
        let full_lines: Vec<u32> = lines_of(&a, &full).iter().map(|(_, l)| *l).collect();
        let data_lines: Vec<u32> = lines_of(&a, &data).iter().map(|(_, l)| *l).collect();
        assert!(full_lines.contains(&2));
        assert!(!data_lines.contains(&2));
    }

    #[test]
    fn two_way_slice_captures_post_seed_guard() {
        // The motivating example's program B: the guard appears *after* being
        // fed by the same def that feeds the (unguarded) strncpy. Forward
        // slicing from the feeder must capture the guard.
        let src = r#"void f(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        ;
    }
    strncpy(dest, data, n);
}"#;
        // (empty statement `;` is not mini-C; use a harmless call)
        let src = src.replace(";\n    }", "puts(\"ok\");\n    }");
        let a = setup(&src);
        let seed = node_with(&a, "f", "strncpy");
        let s = two_way_slice(&a, "f", seed, &SliceConfig::default());
        let lines: Vec<u32> = lines_of(&a, &s).iter().map(|(_, l)| *l).collect();
        assert!(
            lines.contains(&3),
            "post-def guard captured via forward slice"
        );
    }

    #[test]
    fn interprocedural_backward_ascends_to_caller() {
        let src = r#"void sink(char *d, char *s, int n) {
    strncpy(d, s, n);
}
void caller(char *d, char *s) {
    int n = strlen(s);
    sink(d, s, n);
}"#;
        let a = setup(src);
        let seed = node_with(&a, "sink", "strncpy");
        let s = two_way_slice(&a, "sink", seed, &SliceConfig::default());
        assert!(
            s.functions().contains(&"caller"),
            "slice must ascend into caller"
        );
        let lines = lines_of(&a, &s);
        assert!(
            lines.contains(&("caller".to_string(), 5)),
            "n source in caller"
        );
    }

    #[test]
    fn intraprocedural_config_stays_local() {
        let src = r#"void sink(char *d, char *s, int n) {
    strncpy(d, s, n);
}
void caller(char *d, char *s) {
    sink(d, s, 4);
}"#;
        let a = setup(src);
        let seed = node_with(&a, "sink", "strncpy");
        let cfg = SliceConfig {
            interprocedural: false,
            ..SliceConfig::default()
        };
        let s = two_way_slice(&a, "sink", seed, &cfg);
        assert_eq!(s.functions(), vec!["sink"]);
    }

    #[test]
    fn forward_descends_into_callee() {
        let src = r#"void use(int n) {
    int a[4];
    a[n] = 1;
}
void src_fn(char *s) {
    int n = atoi(s);
    use(n);
}"#;
        let a = setup(src);
        let seed = node_with(&a, "src_fn", "int");
        let s = forward_slice(&a, "src_fn", seed, &SliceConfig::default());
        assert!(s.functions().contains(&"use"));
    }

    #[test]
    fn max_nodes_caps_slice() {
        let src = r#"void f(int n) {
    int a = n;
    int b = a;
    int c = b;
    int d = c;
    g(d);
}"#;
        let a = setup(src);
        let seed = node_with(&a, "f", "g");
        let cfg = SliceConfig {
            max_nodes: 2,
            ..SliceConfig::default()
        };
        let s = backward_slice(&a, "f", seed, &cfg);
        assert!(s.len() <= 2);
    }

    /// Renders one generated statement over `x0..x2`: plain updates, calls
    /// into user functions (`h1` may call itself), loops whose condition
    /// variable the body redefines, guarded library calls, and a `return`
    /// followed by code that can never run.
    fn render(stmts: &[(u8, u8, u8)]) -> String {
        let mut out = String::new();
        for &(kind, a, b) in stmts {
            let line = match kind {
                0 => format!("x{a} = x{b} + 1;"),
                1 => format!("x{a} = h1(x{a}, x{b});"),
                2 => format!("while (x{a} > 0) {{ x{a} = x{a} - 1; x{b} = x{b} + x{a}; }}"),
                3 => format!("if (x{a} > x{b}) {{ memcpy(p, p, x{a}); }}"),
                4 => format!("return x{a};\n    x{b} = x{a} * 2;"),
                _ => format!("for (x{a} = 0; x{a} < 4; x{a}++) {{ x{b} = x{b} + x{a}; }}"),
            };
            out.push_str("    ");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Slices every special token of `src` with the bitset slicer and the
    /// reference under each configuration; both must give the same set.
    fn check_against_reference(src: &str, cap: usize) -> Result<(), String> {
        use std::collections::BTreeSet;
        let p = parse(src).map_err(|e| format!("{e}\n{src}"))?;
        let a = ProgramAnalysis::analyze(&p);
        let configs = [
            SliceConfig::default(),
            SliceConfig::data_only(),
            SliceConfig {
                interprocedural: false,
                ..SliceConfig::default()
            },
            SliceConfig {
                max_nodes: cap,
                ..SliceConfig::default()
            },
            SliceConfig {
                max_nodes: cap,
                ..SliceConfig::data_only()
            },
        ];
        for st in crate::find_special_tokens(&p, &a) {
            for cfg in &configs {
                let got: BTreeSet<(String, NodeId)> = two_way_slice(&a, &st.func, st.node, cfg)
                    .iter()
                    .map(|(f, n)| (a.func(f).name.clone(), n))
                    .collect();
                let want = reference::two_way_slice(&a, &st.func, st.node, cfg);
                if got != want {
                    return Err(format!("{cfg:?} at {}:{}\n{src}", st.func, st.line));
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Generated corpus programs under random case options, and a
        /// generated three-function program, slice identically with the
        /// bitset slicer and the string-keyed reference — including under a
        /// small `max_nodes` that cuts the breadth-first walk.
        #[test]
        fn bitset_slicer_matches_the_reference(
            seed in 0u64..1 << 40,
            fractions in (0u8..101, 0u8..101, 0u8..101, 0u8..101),
            filler in 0usize..24,
            cap in 1usize..40,
            h1_body in proptest::collection::vec((0u8..6, 0u8..3, 0u8..3), 0..8),
            top_body in proptest::collection::vec((0u8..6, 0u8..3, 0u8..3), 0..8),
        ) {
            let (vuln, displaced, long, interproc) = fractions;
            let samples = sevuldet_dataset::sard::generate(&sevuldet_dataset::SardConfig {
                per_category: 1,
                vuln_fraction: vuln as f64 / 100.0,
                displaced_fraction: displaced as f64 / 100.0,
                long_fraction: long as f64 / 100.0,
                long_filler: filler,
                interproc_fraction: interproc as f64 / 100.0,
                seed,
            });
            for s in &samples {
                let checked = check_against_reference(&s.source, cap);
                proptest::prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
            }
            let src = format!(
                "int h1(int x0, int x1) {{\n    int x2 = 0;\n    char *p = 0;\n{}    return x0;\n}}\n\
                 int h2(int x0) {{\n    while (x0 > 0) {{ x0 = x0 - 1; }}\n    return h1(x0, x0);\n}}\n\
                 void top(char *p, int x0) {{\n    int x1 = h2(x0);\n    int x2 = h1(x0, x1);\n{}    memcpy(p, p, x2);\n}}\n",
                render(&h1_body),
                render(&top_body)
            );
            let checked = check_against_reference(&src, cap);
            proptest::prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}
