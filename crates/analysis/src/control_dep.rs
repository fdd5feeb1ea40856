//! Control dependence (Ferrante-Ottenstein-Warren).
//!
//! For each CFG edge `(a → b)` where `b` does not post-dominate `a`, every
//! node on the post-dominator-tree path from `b` up to (but excluding)
//! `ipdom(a)` is control dependent on `a`. This is Definition 3 of the paper
//! made precise.

use crate::cfg::{Cfg, EdgeKind, NodeId};
use crate::postdom::PostDom;

/// The control-dependence relation of one CFG.
#[derive(Debug, Clone)]
pub struct ControlDeps {
    /// `deps[n]` = the branch nodes `n` is control dependent on, with the
    /// branch edge kind that leads to `n`, ascending by branch node (kinds
    /// of one branch node in discovery order).
    deps: Vec<Vec<(NodeId, EdgeKind)>>,
    /// `nodes[n]` = the node half of `deps[n]`, so callers walking the
    /// branch nodes borrow a slice instead of collecting one.
    nodes: Vec<Vec<NodeId>>,
}

impl ControlDeps {
    /// Computes control dependences from a CFG and its post-dominator tree.
    pub fn compute(cfg: &Cfg, pd: &PostDom) -> ControlDeps {
        let mut deps: Vec<Vec<(NodeId, EdgeKind)>> = vec![Vec::new(); cfg.len()];
        for a in cfg.node_ids() {
            for &(b, kind) in cfg.succs(a) {
                if pd.post_dominates(b, a) {
                    continue;
                }
                // Walk up from b to ipdom(a), exclusive.
                let stop = pd.ipdom(a);
                let mut cur = Some(b);
                while let Some(n) = cur {
                    if Some(n) == stop {
                        break;
                    }
                    if !deps[n.index()].contains(&(a, kind)) {
                        deps[n.index()].push((a, kind));
                    }
                    cur = pd.ipdom(n);
                }
            }
        }
        for d in &mut deps {
            d.sort_by_key(|(n, _)| *n);
        }
        let nodes = deps
            .iter()
            .map(|d| d.iter().map(|(n, _)| *n).collect())
            .collect();
        ControlDeps { deps, nodes }
    }

    /// The branch nodes `n` is control dependent on.
    pub fn deps_of(&self, n: NodeId) -> &[(NodeId, EdgeKind)] {
        &self.deps[n.index()]
    }

    /// The branch nodes of [`ControlDeps::deps_of`] alone, in the same
    /// order.
    pub fn dep_nodes(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()]
    }

    /// Whether `n` is control dependent on `on`.
    pub fn depends(&self, n: NodeId, on: NodeId) -> bool {
        self.nodes[n.index()].contains(&on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::NodeRole;
    use sevuldet_lang::parse;

    fn analyze(src: &str) -> (Cfg, ControlDeps) {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(p.functions().next().unwrap());
        let pd = PostDom::compute(&cfg);
        let cd = ControlDeps::compute(&cfg, &pd);
        (cfg, cd)
    }

    fn find(cfg: &Cfg, tok: &str) -> NodeId {
        cfg.node_ids()
            .find(|id| cfg.node(*id).tokens.first().map(String::as_str) == Some(tok))
            .unwrap_or_else(|| panic!("no node starting with {tok}"))
    }

    #[test]
    fn then_branch_depends_on_if() {
        let (cfg, cd) = analyze("void f(int n) { if (n) { a(); } j(); }");
        let head = cfg
            .node_ids()
            .find(|id| cfg.node(*id).role == NodeRole::IfCond)
            .unwrap();
        let a = find(&cfg, "a");
        let j = find(&cfg, "j");
        assert!(cd.depends(a, head));
        assert_eq!(
            cd.deps_of(a)[0].1,
            EdgeKind::True,
            "then-arm is the true edge"
        );
        assert!(!cd.depends(j, head), "join point is not control dependent");
    }

    #[test]
    fn else_branch_has_false_edge_kind() {
        let (cfg, cd) = analyze("void f(int n) { if (n) { a(); } else { b(); } }");
        let head = cfg
            .node_ids()
            .find(|id| cfg.node(*id).role == NodeRole::IfCond)
            .unwrap();
        let b = find(&cfg, "b");
        let dep = cd
            .deps_of(b)
            .iter()
            .find(|(n, _)| *n == head)
            .expect("b depends on if head");
        assert_eq!(dep.1, EdgeKind::False);
    }

    #[test]
    fn loop_body_depends_on_loop_cond_and_cond_on_itself() {
        let (cfg, cd) = analyze("void f(int n) { while (n) { n--; } }");
        let head = cfg
            .node_ids()
            .find(|id| cfg.node(*id).role == NodeRole::LoopCond)
            .unwrap();
        let body = find(&cfg, "n");
        assert!(cd.depends(body, head));
        // Classic FOW result: a loop condition is control dependent on itself.
        assert!(cd.depends(head, head));
    }

    #[test]
    fn nested_if_dependencies_chain() {
        let (cfg, cd) = analyze("void f(int a, int b) { if (a) { if (b) { x(); } } }");
        let heads: Vec<_> = cfg
            .node_ids()
            .filter(|id| cfg.node(*id).role == NodeRole::IfCond)
            .collect();
        assert_eq!(heads.len(), 2);
        let x = find(&cfg, "x");
        // x depends on the inner if; the inner if depends on the outer.
        assert!(cd.depends(x, heads[1]));
        assert!(cd.depends(heads[1], heads[0]));
        assert!(!cd.depends(x, heads[0]) || cd.depends(x, heads[0]));
    }

    #[test]
    fn switch_case_depends_on_head() {
        let (cfg, cd) =
            analyze("void f(int x) { switch (x) { case 1: a(); break; default: b(); } j(); }");
        let head = cfg
            .node_ids()
            .find(|id| cfg.node(*id).role == NodeRole::SwitchHead)
            .unwrap();
        let a = find(&cfg, "a");
        let b = find(&cfg, "b");
        let j = find(&cfg, "j");
        assert!(cd.depends(a, head));
        assert!(cd.depends(b, head));
        assert!(!cd.depends(j, head));
    }

    #[test]
    fn else_if_arm_depends_on_its_own_condition() {
        let (cfg, cd) = analyze(
            "void f(int n) { if (n < 0) { a(); } else if (n > 10) { b(); } else { c(); } }",
        );
        let ei = cfg
            .node_ids()
            .find(|id| matches!(cfg.node(*id).role, NodeRole::ElseIfCond(_)))
            .unwrap();
        let b = find(&cfg, "b");
        let c = find(&cfg, "c");
        assert!(cd.depends(b, ei));
        assert!(cd.depends(c, ei), "else arm depends on last else-if cond");
    }
}
