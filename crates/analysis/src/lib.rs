//! # sevuldet-analysis
//!
//! Static-analysis substrate for the SEVulDet reproduction: per-function
//! control-flow graphs, post-dominators, control dependence
//! (Ferrante-Ottenstein-Warren), reaching definitions / data dependence,
//! program dependence graphs ([`Pdg`], Definition 6 of the paper), call
//! graphs, and the control-range table that Algorithm 1's path-sensitive
//! slicing consumes.
//!
//! The paper obtains PDGs from Joern; this crate is the from-scratch
//! replacement built directly on `sevuldet-lang`'s AST.
//!
//! ## Example
//!
//! ```
//! use sevuldet_analysis::{Pdg, ranges::control_ranges};
//!
//! let src = r#"
//! void copy(char *dest, char *data, int n) {
//!     if (n < 10) {
//!         strncpy(dest, data, n);
//!     }
//! }
//! "#;
//! let program = sevuldet_lang::parse(src).unwrap();
//! let f = program.function("copy").unwrap();
//! let pdg = Pdg::build(f);
//! assert!(pdg.data.len() > 0);
//! let ranges = control_ranges(f);
//! assert_eq!(ranges.len(), 1); // the `if`
//! ```

pub mod callgraph;
pub mod cfg;
pub mod control_dep;
pub mod defuse;
pub mod libmodel;
pub mod pdg;
pub mod postdom;
pub mod ranges;
pub mod reaching;

pub use callgraph::CallGraph;
pub use cfg::{Cfg, EdgeKind, Node, NodeId, NodeRole};
pub use control_dep::ControlDeps;
pub use defuse::DefUse;
pub use pdg::Pdg;
pub use postdom::PostDom;
pub use ranges::{control_ranges, ControlRange, RangeKind};
pub use reaching::{data_deps, DataDep};

use sevuldet_lang::ast::Program;
use std::collections::HashMap;

/// Dense id of a function within one [`ProgramAnalysis`]: functions are
/// numbered by first appearance of their name in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Everything the slicer and Algorithm 1 read about one function,
/// precomputed once per program so gadget construction does no string
/// lookups.
#[derive(Debug, Clone)]
pub struct FuncAnalysis {
    /// The function's name.
    pub name: String,
    /// Its PDG (of the last definition when the name is defined twice).
    pub pdg: Pdg,
    /// Its control ranges, sorted by `(start_line, end_line)` — what
    /// [`control_ranges`] returns for `program.function(name)` (the first
    /// definition).
    pub ranges: Vec<ControlRange>,
    /// Nodes whose first token is `return`, ascending.
    pub returns: Vec<NodeId>,
    /// Call sites of this function as `(caller, node)`, in call-graph site
    /// order.
    pub callers: Vec<(FuncId, NodeId)>,
    /// Index of this function's node 0 in [`ProgramAnalysis::node_count`]'s
    /// numbering of every node of the program.
    pub node_base: u32,
    /// `(line, node)` for the first node (smallest id) with tokens on each
    /// line, sorted by line.
    line_nodes: Vec<(u32, NodeId)>,
    /// `callees[callee_start[n]..callee_start[n + 1]]` are the user-defined
    /// functions node `n` calls, in call order.
    callee_start: Vec<u32>,
    callees: Vec<FuncId>,
}

impl FuncAnalysis {
    /// The first node (smallest id) with tokens on `line`.
    pub fn first_node_on_line(&self, line: u32) -> Option<NodeId> {
        self.line_nodes
            .binary_search_by_key(&line, |&(l, _)| l)
            .ok()
            .map(|i| self.line_nodes[i].1)
    }

    /// The user-defined functions node `n` calls, in call order.
    pub fn callees_of(&self, n: NodeId) -> &[FuncId] {
        let (a, b) = (
            self.callee_start[n.index()],
            self.callee_start[n.index() + 1],
        );
        &self.callees[a as usize..b as usize]
    }
}

/// Whole-program analysis bundle: one [`Pdg`] (with its control ranges and
/// call links) per function plus the [`CallGraph`].
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    funcs: Vec<FuncAnalysis>,
    by_name: HashMap<String, FuncId>,
    /// `(caller, callee)` of every call-graph site between two user-defined
    /// functions, in site order.
    call_edges: Vec<(FuncId, FuncId)>,
    node_count: u32,
    /// The program's call graph.
    pub callgraph: CallGraph,
}

impl ProgramAnalysis {
    /// Analyzes every function of a program.
    pub fn analyze(program: &Program) -> ProgramAnalysis {
        let _t = sevuldet_trace::span!("analysis");
        let cfgs = {
            let _t = sevuldet_trace::span!("analysis.cfg");
            cfg::build_all(program)
        };
        let callgraph = {
            let _t = sevuldet_trace::span!("analysis.callgraph");
            CallGraph::build(program, &cfgs)
        };
        let by_name: HashMap<String, FuncId> = cfgs
            .iter()
            .enumerate()
            .map(|(i, c)| (c.func.clone(), FuncId(i as u32)))
            .collect();
        let mut funcs: Vec<FuncAnalysis> = {
            let _t = sevuldet_trace::span!("analysis.pdg");
            let mut node_base = 0u32;
            cfgs.into_iter()
                .map(|cfg| {
                    let base = node_base;
                    node_base += cfg.len() as u32;
                    func_analysis(program, &by_name, Pdg::from_cfg(cfg), base)
                })
                .collect()
        };
        let mut call_edges = Vec::new();
        for site in callgraph.sites() {
            let (Some(&caller), Some(&callee)) =
                (by_name.get(&site.caller), by_name.get(&site.callee))
            else {
                continue;
            };
            funcs[callee.index()].callers.push((caller, site.node));
            call_edges.push((caller, callee));
        }
        let node_count = funcs
            .last()
            .map_or(0, |f| f.node_base + f.pdg.cfg.len() as u32);
        ProgramAnalysis {
            funcs,
            by_name,
            call_edges,
            node_count,
            callgraph,
        }
    }

    /// The PDG of `func`, if the function exists.
    pub fn pdg(&self, func: &str) -> Option<&Pdg> {
        self.func_id(func).map(|f| &self.funcs[f.index()].pdg)
    }

    /// The id of `func`, if the function exists.
    pub fn func_id(&self, func: &str) -> Option<FuncId> {
        self.by_name.get(func).copied()
    }

    /// The analysis of one function.
    pub fn func(&self, id: FuncId) -> &FuncAnalysis {
        &self.funcs[id.index()]
    }

    /// Every function, in [`FuncId`] order.
    pub fn funcs(&self) -> &[FuncAnalysis] {
        &self.funcs
    }

    /// `(caller, callee)` of every call site between two user-defined
    /// functions, in call-graph site order.
    pub fn call_edges(&self) -> &[(FuncId, FuncId)] {
        &self.call_edges
    }

    /// The number of CFG nodes over all functions (the size of a bitset
    /// indexed by `node_base + node`).
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }
}

fn func_analysis(
    program: &Program,
    by_name: &HashMap<String, FuncId>,
    pdg: Pdg,
    node_base: u32,
) -> FuncAnalysis {
    let cfg = &pdg.cfg;
    let ranges = program
        .function(&cfg.func)
        .map(control_ranges)
        .unwrap_or_default();
    let mut line_nodes: Vec<(u32, NodeId)> = cfg
        .node_ids()
        .filter(|&id| !cfg.node(id).tokens.is_empty())
        .map(|id| (cfg.node(id).line, id))
        .collect();
    // Stable: the smallest id stays first among equal lines.
    line_nodes.sort_by_key(|&(line, _)| line);
    line_nodes.dedup_by_key(|&mut (line, _)| line);
    let returns = cfg
        .node_ids()
        .filter(|&id| cfg.node(id).tokens.first().map(String::as_str) == Some("return"))
        .collect();
    let mut callee_start = Vec::with_capacity(cfg.len() + 1);
    let mut callees = Vec::new();
    for id in cfg.node_ids() {
        callee_start.push(callees.len() as u32);
        callees.extend(
            cfg.node(id)
                .calls
                .iter()
                .filter_map(|c| by_name.get(&c.callee).copied()),
        );
    }
    callee_start.push(callees.len() as u32);
    FuncAnalysis {
        name: cfg.func.clone(),
        ranges,
        returns,
        callers: Vec::new(),
        node_base,
        line_nodes,
        callee_start,
        callees,
        pdg,
    }
}
