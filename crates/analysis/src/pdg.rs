//! Program Dependence Graphs (Definition 6 of the paper).
//!
//! A [`Pdg`] packages a function's CFG with its data-dependence edges and
//! control-dependence relation — the standard Ferrante-Ottenstein-Warren
//! construction the paper obtains from Joern.

use crate::cfg::{Cfg, NodeId};
use crate::control_dep::ControlDeps;
use crate::postdom::PostDom;
use crate::reaching::{data_deps, DataDep};
use sevuldet_lang::ast::Function;

/// The program dependence graph of one function.
#[derive(Debug, Clone)]
pub struct Pdg {
    /// The underlying CFG (owns node text, lines, def/use sets, calls).
    pub cfg: Cfg,
    /// All data-dependence edges, sorted by `(from, to, var)`.
    pub data: Vec<DataDep>,
    /// The control-dependence relation.
    pub control: ControlDeps,
    /// `data[succ_start[n]..succ_start[n + 1]]` are the edges out of `n`
    /// (contiguous, because `data` is sorted by `from`).
    succ_start: Vec<u32>,
    /// Indices into `data` of the edges into each node, grouped by `to`
    /// and in `data` order within a group; node `n`'s group is
    /// `pred_edges[pred_start[n]..pred_start[n + 1]]`.
    pred_edges: Vec<u32>,
    pred_start: Vec<u32>,
}

impl Pdg {
    /// Builds the PDG of a function: CFG → post-dominators → control deps →
    /// reaching definitions.
    pub fn build(f: &Function) -> Pdg {
        let cfg = Cfg::build(f);
        Self::from_cfg(cfg)
    }

    /// Builds a PDG from an already-constructed CFG.
    pub fn from_cfg(cfg: Cfg) -> Pdg {
        let pd = PostDom::compute(&cfg);
        let control = ControlDeps::compute(&cfg, &pd);
        let data = data_deps(&cfg);
        let n = cfg.len();
        let mut succ_start = vec![0u32; n + 1];
        let mut pred_start = vec![0u32; n + 1];
        for d in &data {
            succ_start[d.from.index() + 1] += 1;
            pred_start[d.to.index() + 1] += 1;
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
            pred_start[i + 1] += pred_start[i];
        }
        let mut pred_edges = vec![0u32; data.len()];
        let mut fill = pred_start.clone();
        for (i, d) in data.iter().enumerate() {
            pred_edges[fill[d.to.index()] as usize] = i as u32;
            fill[d.to.index()] += 1;
        }
        Pdg {
            cfg,
            data,
            control,
            succ_start,
            pred_edges,
            pred_start,
        }
    }

    /// Edges whose value flows *from* `n` (forward data dependence), by
    /// `(to, var)`.
    pub fn data_succs(&self, n: NodeId) -> &[DataDep] {
        let (a, b) = (self.succ_start[n.index()], self.succ_start[n.index() + 1]);
        &self.data[a as usize..b as usize]
    }

    /// Edges whose value flows *into* `n` (backward data dependence), by
    /// `(from, var)`.
    pub fn data_preds(&self, n: NodeId) -> impl ExactSizeIterator<Item = &DataDep> + '_ {
        let (a, b) = (self.pred_start[n.index()], self.pred_start[n.index() + 1]);
        self.pred_edges[a as usize..b as usize]
            .iter()
            .map(|&i| &self.data[i as usize])
    }

    /// The branch nodes `n` is control dependent on.
    pub fn control_preds(&self, n: NodeId) -> &[NodeId] {
        self.control.dep_nodes(n)
    }

    /// Nodes control dependent on `n`.
    pub fn control_succs(&self, n: NodeId) -> Vec<NodeId> {
        self.cfg
            .node_ids()
            .filter(|m| self.control.depends(*m, n))
            .collect()
    }

    /// All dependence successors (data + control) of `n`.
    #[cfg(test)]
    pub fn succs_all(&self, n: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.data_succs(n).iter().map(|d| d.to).collect();
        v.extend(self.control_succs(n));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// All dependence predecessors (data + control) of `n`.
    #[cfg(test)]
    pub fn preds_all(&self, n: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.data_preds(n).map(|d| d.from).collect();
        v.extend_from_slice(self.control_preds(n));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Whether branch `a` guards `b` and with which branch kinds.
    #[cfg(test)]
    pub fn control_edge_kinds(&self, b: NodeId, a: NodeId) -> Vec<crate::cfg::EdgeKind> {
        self.control
            .deps_of(b)
            .iter()
            .filter(|(n, _)| *n == a)
            .map(|(_, k)| *k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::EdgeKind;
    use sevuldet_lang::parse;

    fn pdg_of(src: &str) -> Pdg {
        let p = parse(src).unwrap();
        let pdg = Pdg::build(p.functions().next().unwrap());
        pdg
    }

    fn node_with(pdg: &Pdg, tok: &str) -> NodeId {
        pdg.cfg
            .node_ids()
            .find(|id| pdg.cfg.node(*id).tokens.first().map(String::as_str) == Some(tok))
            .unwrap_or_else(|| panic!("no node starting with {tok}"))
    }

    #[test]
    fn fig1_guarded_strncpy_pdg_shape() {
        // The motivating example: strncpy guarded by `if (n < 10)`.
        let src = r#"
void copy(char *dest, char *data, int n) {
    if (n < 10) {
        strncpy(dest, data, n);
    }
}
"#;
        let pdg = pdg_of(src);
        let guard = node_with(&pdg, "if");
        let copy = node_with(&pdg, "strncpy");
        // strncpy is control dependent on the guard...
        assert!(pdg.control_preds(copy).contains(&guard));
        // ...and data dependent on the parameters (entry).
        assert!(pdg
            .data_preds(copy)
            .any(|d| d.from == pdg.cfg.entry() && d.var == "n"));
    }

    #[test]
    fn succs_and_preds_are_inverse() {
        let src = "void f(int n) { int x = n; if (x > 0) { g(x); } }";
        let pdg = pdg_of(src);
        for a in pdg.cfg.node_ids() {
            for b in pdg.succs_all(a) {
                assert!(pdg.preds_all(b).contains(&a), "succ/pred must be symmetric");
            }
        }
    }

    #[test]
    fn control_edge_kind_of_else_arm() {
        let pdg = pdg_of("void f(int n) { if (n) { a(); } else { b(); } }");
        let head = node_with(&pdg, "if");
        let b = node_with(&pdg, "b");
        assert_eq!(pdg.control_edge_kinds(b, head), vec![EdgeKind::False]);
    }
}
