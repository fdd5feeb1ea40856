//! Per-function control-flow graph construction.
//!
//! Statement-level CFG with synthetic `Entry`/`Exit` nodes. Control
//! statements contribute one node per *decision point* — the `if` condition,
//! every `else if` condition, loop conditions, `for` steps, and `switch`
//! heads — each with its own source line, so the PDG built on top has the
//! same line-keyed granularity as the paper's Fig. 3.

use crate::defuse::{CallInfo, DefUse};
use crate::libmodel::is_noreturn;
use sevuldet_lang::ast::*;
use sevuldet_lang::printer::{expr_tokens, stmt_tokens};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Index of a CFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What role a CFG node plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// Synthetic function entry (defines the parameters).
    Entry,
    /// Synthetic function exit.
    Exit,
    /// A plain statement (declaration, expression, return, break, continue).
    Plain,
    /// An `if` condition.
    IfCond,
    /// The `i`-th `else if` condition of an if chain.
    ElseIfCond(u16),
    /// A `while` / `do while` / `for` condition.
    LoopCond,
    /// A `for` step expression.
    ForStep,
    /// A `switch` head.
    SwitchHead,
}

impl NodeRole {
    /// Whether the node is a branch point (has labelled out-edges).
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            NodeRole::IfCond | NodeRole::ElseIfCond(_) | NodeRole::LoopCond | NodeRole::SwitchHead
        )
    }
}

/// Kind of CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Unconditional fallthrough.
    Seq,
    /// Branch taken.
    True,
    /// Branch not taken.
    False,
    /// `switch` dispatch to the `i`-th case arm.
    Case(u16),
    /// `switch` dispatch to `default` (or past the switch when absent).
    Default,
    /// Pseudo edge added so every node reaches `Exit` (infinite loops).
    Pseudo,
}

/// A CFG node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The node's role.
    pub role: NodeRole,
    /// The statement the node belongs to, if any.
    pub stmt: Option<StmtId>,
    /// 1-based source line of the decision point / statement start.
    pub line: u32,
    /// Surface tokens of the node, as rendered into gadgets.
    pub tokens: Vec<String>,
    /// Variables the node writes.
    pub defs: Vec<String>,
    /// Variables the node reads.
    pub uses: Vec<String>,
    /// Calls made by the node.
    pub calls: Vec<CallInfo>,
}

/// A per-function control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Name of the function this CFG belongs to.
    pub func: String,
    nodes: Vec<Node>,
    succs: Vec<Vec<(NodeId, EdgeKind)>>,
    preds: Vec<Vec<(NodeId, EdgeKind)>>,
    entry: NodeId,
    exit: NodeId,
}

impl Cfg {
    /// Builds the CFG of a function.
    pub fn build(f: &Function) -> Cfg {
        let mut b = Builder {
            nodes: Vec::new(),
            edges: Vec::new(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
        };
        let entry = b.push(Node {
            role: NodeRole::Entry,
            stmt: None,
            line: f.span.start.line,
            tokens: entry_tokens(f),
            defs: f.params.iter().map(|p| p.name.clone()).collect(),
            uses: Vec::new(),
            calls: Vec::new(),
        });
        let exit = b.push(Node {
            role: NodeRole::Exit,
            stmt: None,
            line: f.span.end.line,
            tokens: vec!["}".into()],
            defs: Vec::new(),
            uses: Vec::new(),
            calls: Vec::new(),
        });
        let (_, frontier) = b.block(&f.body, vec![(entry, EdgeKind::Seq)], exit);
        for (n, k) in frontier {
            b.edges.push((n, exit, k));
        }
        let mut cfg = b.finish(f.name.clone(), entry, exit);
        cfg.ensure_exit_reachability();
        cfg
    }

    /// Number of nodes (including entry/exit).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no statement nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// Synthetic entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// Synthetic exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// The node data for `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Successors of `id` with edge kinds.
    pub fn succs(&self, id: NodeId) -> &[(NodeId, EdgeKind)] {
        &self.succs[id.index()]
    }

    /// Predecessors of `id` with edge kinds.
    pub fn preds(&self, id: NodeId) -> &[(NodeId, EdgeKind)] {
        &self.preds[id.index()]
    }

    /// The first node (smallest id) on a given source line, if any.
    #[cfg(test)]
    pub fn node_on_line(&self, line: u32) -> Option<NodeId> {
        self.node_ids().find(|id| self.node(*id).line == line)
    }

    /// Nodes in reverse post-order from entry (a topological-ish order good
    /// for forward dataflow).
    pub fn reverse_postorder(&self) -> Vec<NodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut post = Vec::with_capacity(self.nodes.len());
        // Iterative DFS to avoid recursion limits on long functions.
        let mut stack: Vec<(NodeId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some(&mut (n, ref mut i)) = stack.last_mut() {
            if *i < self.succs[n.index()].len() {
                let (m, _) = self.succs[n.index()][*i];
                *i += 1;
                if !visited[m.index()] {
                    visited[m.index()] = true;
                    stack.push((m, 0));
                }
            } else {
                post.push(n);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Adds pseudo edges to `exit` from loop conditions trapped in infinite
    /// loops so post-dominance is well-defined everywhere.
    fn ensure_exit_reachability(&mut self) {
        loop {
            let reaches = self.reaches_exit();
            let offender = self
                .node_ids()
                .find(|id| !reaches[id.index()] && self.reachable_from_entry()[id.index()]);
            match offender {
                None => return,
                Some(first) => {
                    // Prefer a loop condition in the trapped region.
                    let trapped: Vec<NodeId> = self
                        .node_ids()
                        .filter(|id| {
                            !reaches[id.index()] && self.reachable_from_entry()[id.index()]
                        })
                        .collect();
                    let pick = trapped
                        .iter()
                        .copied()
                        .find(|id| self.node(*id).role == NodeRole::LoopCond)
                        .unwrap_or(first);
                    self.add_edge(pick, self.exit, EdgeKind::Pseudo);
                }
            }
        }
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        self.succs[from.index()].push((to, kind));
        self.preds[to.index()].push((from, kind));
    }

    fn reaches_exit(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut q = VecDeque::new();
        seen[self.exit.index()] = true;
        q.push_back(self.exit);
        while let Some(n) = q.pop_front() {
            for &(p, _) in &self.preds[n.index()] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    q.push_back(p);
                }
            }
        }
        seen
    }

    fn reachable_from_entry(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut q = VecDeque::new();
        seen[self.entry.index()] = true;
        q.push_back(self.entry);
        while let Some(n) = q.pop_front() {
            for &(s, _) in &self.succs[n.index()] {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    q.push_back(s);
                }
            }
        }
        seen
    }
}

fn entry_tokens(f: &Function) -> Vec<String> {
    let mut toks = vec![f.ret.to_string(), f.name.clone(), "(".into()];
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            toks.push(",".into());
        }
        toks.push(p.ty.to_string());
        toks.push(p.name.clone());
        for d in &p.array_dims {
            toks.push("[".into());
            if let Some(n) = d {
                toks.push(n.to_string());
            }
            toks.push("]".into());
        }
    }
    toks.push(")".into());
    toks.push("{".into());
    toks
}

struct Builder {
    nodes: Vec<Node>,
    edges: Vec<(NodeId, NodeId, EdgeKind)>,
    break_stack: Vec<Vec<NodeId>>,
    continue_stack: Vec<NodeId>,
}

/// Incoming dangling edges waiting for their destination node.
type Frontier = Vec<(NodeId, EdgeKind)>;

impl Builder {
    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    fn connect(&mut self, frontier: Frontier, to: NodeId) {
        for (from, kind) in frontier {
            self.edges.push((from, to, kind));
        }
    }

    /// Builds a block. Returns `(entry, frontier)`: `entry` is the first node
    /// created (None when the block contributed no nodes, in which case the
    /// incoming frontier is passed through as the outgoing frontier).
    fn block(&mut self, b: &Block, frontier: Frontier, exit: NodeId) -> (Option<NodeId>, Frontier) {
        let mut entry = None;
        let mut frontier = frontier;
        for s in &b.stmts {
            let (e, f) = self.stmt(s, frontier, exit);
            if entry.is_none() {
                entry = e;
            }
            frontier = f;
        }
        (entry, frontier)
    }

    fn plain_node(&mut self, s: &Stmt, du: DefUse) -> NodeId {
        self.push(Node {
            role: NodeRole::Plain,
            stmt: Some(s.id),
            line: s.span.start.line,
            tokens: stmt_tokens(s),
            defs: du.defs,
            uses: du.uses,
            calls: du.calls,
        })
    }

    fn cond_node(
        &mut self,
        role: NodeRole,
        stmt: StmtId,
        line: u32,
        tokens: Vec<String>,
        cond: Option<&Expr>,
    ) -> NodeId {
        let du = cond.map(DefUse::of_expr).unwrap_or_default();
        self.push(Node {
            role,
            stmt: Some(stmt),
            line,
            tokens,
            defs: du.defs,
            uses: du.uses,
            calls: du.calls,
        })
    }

    fn stmt(&mut self, s: &Stmt, frontier: Frontier, exit: NodeId) -> (Option<NodeId>, Frontier) {
        match &s.kind {
            StmtKind::Decl(d) => {
                let n = self.plain_node(s, DefUse::of_decl(d));
                self.connect(frontier, n);
                (Some(n), vec![(n, EdgeKind::Seq)])
            }
            StmtKind::Expr(e) => {
                let du = DefUse::of_expr(e);
                let noreturn = du.calls.iter().any(|c| is_noreturn(&c.callee));
                let n = self.plain_node(s, du);
                self.connect(frontier, n);
                if noreturn {
                    self.edges.push((n, exit, EdgeKind::Seq));
                    (Some(n), Vec::new())
                } else {
                    (Some(n), vec![(n, EdgeKind::Seq)])
                }
            }
            StmtKind::Block(b) => self.block(b, frontier, exit),
            StmtKind::Return(e) => {
                let du = e.as_ref().map(DefUse::of_expr).unwrap_or_default();
                let n = self.plain_node(s, du);
                self.connect(frontier, n);
                self.edges.push((n, exit, EdgeKind::Seq));
                (Some(n), Vec::new())
            }
            StmtKind::Break => {
                let n = self.plain_node(s, DefUse::default());
                self.connect(frontier, n);
                if let Some(top) = self.break_stack.last_mut() {
                    top.push(n);
                } else {
                    // Stray break: treat as return.
                    self.edges.push((n, exit, EdgeKind::Seq));
                }
                (Some(n), Vec::new())
            }
            StmtKind::Continue => {
                let n = self.plain_node(s, DefUse::default());
                self.connect(frontier, n);
                if let Some(&target) = self.continue_stack.last() {
                    self.edges.push((n, target, EdgeKind::Seq));
                } else {
                    self.edges.push((n, exit, EdgeKind::Seq));
                }
                (Some(n), Vec::new())
            }
            StmtKind::If {
                cond,
                then,
                else_ifs,
                else_block,
            } => {
                let head = self.cond_node(
                    NodeRole::IfCond,
                    s.id,
                    s.span.start.line,
                    stmt_tokens(s),
                    Some(cond),
                );
                self.connect(frontier, head);
                let mut out = Frontier::new();
                let (then_entry, then_out) = self.block(then, Vec::new(), exit);
                match then_entry {
                    Some(e) => {
                        self.edges.push((head, e, EdgeKind::True));
                        out.extend(then_out);
                    }
                    None => out.push((head, EdgeKind::True)),
                }
                let mut false_edge = (head, EdgeKind::False);
                for (i, ei) in else_ifs.iter().enumerate() {
                    let mut toks = vec!["}".into(), "else".into(), "if".into(), "(".into()];
                    expr_tokens(&ei.cond, &mut toks);
                    toks.push(")".into());
                    toks.push("{".into());
                    let c = self.cond_node(
                        NodeRole::ElseIfCond(i as u16),
                        s.id,
                        ei.span.start.line,
                        toks,
                        Some(&ei.cond),
                    );
                    self.edges.push((false_edge.0, c, false_edge.1));
                    let (arm_entry, arm_out) = self.block(&ei.body, Vec::new(), exit);
                    match arm_entry {
                        Some(e) => {
                            self.edges.push((c, e, EdgeKind::True));
                            out.extend(arm_out);
                        }
                        None => out.push((c, EdgeKind::True)),
                    }
                    false_edge = (c, EdgeKind::False);
                }
                match else_block {
                    Some(eb) => {
                        let (else_entry, else_out) = self.block(&eb.body, Vec::new(), exit);
                        match else_entry {
                            Some(e) => {
                                self.edges.push((false_edge.0, e, false_edge.1));
                                out.extend(else_out);
                            }
                            None => out.push(false_edge),
                        }
                    }
                    None => out.push(false_edge),
                }
                (Some(head), out)
            }
            StmtKind::While { cond, body } => {
                let head = self.cond_node(
                    NodeRole::LoopCond,
                    s.id,
                    s.span.start.line,
                    stmt_tokens(s),
                    Some(cond),
                );
                self.connect(frontier, head);
                self.break_stack.push(Vec::new());
                self.continue_stack.push(head);
                let (body_entry, body_out) = self.block(body, Vec::new(), exit);
                match body_entry {
                    Some(e) => self.edges.push((head, e, EdgeKind::True)),
                    None => self.edges.push((head, head, EdgeKind::True)),
                }
                self.connect(body_out, head);
                self.continue_stack.pop();
                let breaks = self.break_stack.pop().expect("pushed above");
                let mut out = vec![(head, EdgeKind::False)];
                out.extend(breaks.into_iter().map(|n| (n, EdgeKind::Seq)));
                (Some(head), out)
            }
            StmtKind::DoWhile { body, cond } => {
                let head = self.cond_node(
                    NodeRole::LoopCond,
                    s.id,
                    cond.span.start.line,
                    {
                        let mut toks = vec!["}".into(), "while".into(), "(".into()];
                        expr_tokens(cond, &mut toks);
                        toks.push(")".into());
                        toks.push(";".into());
                        toks
                    },
                    Some(cond),
                );
                self.break_stack.push(Vec::new());
                self.continue_stack.push(head);
                let (body_entry, body_out) = self.block(body, Vec::new(), exit);
                let body_target = body_entry.unwrap_or(head);
                self.connect(frontier, body_target);
                self.connect(body_out, head);
                self.edges.push((head, body_target, EdgeKind::True));
                self.continue_stack.pop();
                let breaks = self.break_stack.pop().expect("pushed above");
                let mut out = vec![(head, EdgeKind::False)];
                out.extend(breaks.into_iter().map(|n| (n, EdgeKind::Seq)));
                (Some(body_target), out)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut frontier = frontier;
                let mut first: Option<NodeId> = None;
                if let Some(init) = init {
                    let (e, f) = self.stmt(init, frontier, exit);
                    first = e;
                    frontier = f;
                }
                let head = self.cond_node(
                    NodeRole::LoopCond,
                    s.id,
                    s.span.start.line,
                    stmt_tokens(s),
                    cond.as_ref(),
                );
                self.connect(frontier, head);
                if first.is_none() {
                    first = Some(head);
                }
                let step_node = step.as_ref().map(|st| {
                    let mut toks = Vec::new();
                    expr_tokens(st, &mut toks);
                    toks.push(";".into());
                    let du = DefUse::of_expr(st);
                    self.push(Node {
                        role: NodeRole::ForStep,
                        stmt: Some(s.id),
                        line: st.span.start.line,
                        tokens: toks,
                        defs: du.defs,
                        uses: du.uses,
                        calls: du.calls,
                    })
                });
                let continue_target = step_node.unwrap_or(head);
                self.break_stack.push(Vec::new());
                self.continue_stack.push(continue_target);
                let (body_entry, body_out) = self.block(body, Vec::new(), exit);
                match body_entry {
                    Some(e) => self.edges.push((head, e, EdgeKind::True)),
                    None => self.edges.push((head, continue_target, EdgeKind::True)),
                }
                match step_node {
                    Some(sn) => {
                        self.connect(body_out, sn);
                        self.edges.push((sn, head, EdgeKind::Seq));
                    }
                    None => self.connect(body_out, head),
                }
                self.continue_stack.pop();
                let breaks = self.break_stack.pop().expect("pushed above");
                let mut out = vec![(head, EdgeKind::False)];
                out.extend(breaks.into_iter().map(|n| (n, EdgeKind::Seq)));
                (first, out)
            }
            StmtKind::Switch { scrutinee, cases } => {
                let head = self.cond_node(
                    NodeRole::SwitchHead,
                    s.id,
                    s.span.start.line,
                    stmt_tokens(s),
                    Some(scrutinee),
                );
                self.connect(frontier, head);
                self.break_stack.push(Vec::new());
                let mut pending: Frontier = Vec::new();
                let mut has_default = false;
                for (i, case) in cases.iter().enumerate() {
                    let dispatch = match case.label {
                        CaseLabel::Case(_) => EdgeKind::Case(i as u16),
                        CaseLabel::Default => {
                            has_default = true;
                            EdgeKind::Default
                        }
                    };
                    let mut incoming = pending;
                    incoming.push((head, dispatch));
                    let mut entry = None;
                    let mut f = incoming;
                    let mut produced = false;
                    for st in &case.body {
                        let (e, nf) = self.stmt(st, f, exit);
                        if entry.is_none() {
                            entry = e;
                        }
                        if e.is_some() {
                            produced = true;
                        }
                        f = nf;
                    }
                    let _ = produced;
                    let _ = entry;
                    pending = f;
                }
                let mut out = pending;
                if !has_default {
                    out.push((head, EdgeKind::Default));
                }
                let breaks = self.break_stack.pop().expect("pushed above");
                out.extend(breaks.into_iter().map(|n| (n, EdgeKind::Seq)));
                (Some(head), out)
            }
        }
    }

    fn finish(self, func: String, entry: NodeId, exit: NodeId) -> Cfg {
        let n = self.nodes.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        let mut seen = HashSet::new();
        for (a, b, k) in self.edges {
            if seen.insert((a, b, k)) {
                succs[a.index()].push((b, k));
                preds[b.index()].push((a, k));
            }
        }
        Cfg {
            func,
            nodes: self.nodes,
            succs,
            preds,
            entry,
            exit,
        }
    }
}

/// Builds the CFG of every function in a program, one per distinct name in
/// order of first appearance. A name defined twice gets the CFG of its
/// *last* definition (a later definition replaces an earlier one).
pub fn build_all(p: &Program) -> Vec<Cfg> {
    let mut cfgs: Vec<Cfg> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for f in p.functions() {
        let cfg = Cfg::build(f);
        match index.get(f.name.as_str()) {
            Some(&i) => cfgs[i] = cfg,
            None => {
                index.insert(&f.name, cfgs.len());
                cfgs.push(cfg);
            }
        }
    }
    cfgs
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevuldet_lang::parse;

    fn cfg_of(src: &str, name: &str) -> Cfg {
        let p = parse(src).unwrap();
        Cfg::build(p.function(name).unwrap())
    }

    #[test]
    fn straight_line_chain() {
        let c = cfg_of("void f() { int a = 1; int b = a; g(b); }", "f");
        // entry, exit, 3 statements
        assert_eq!(c.len(), 5);
        // entry has one successor; chain ends at exit.
        assert_eq!(c.succs(c.entry()).len(), 1);
        let rpo = c.reverse_postorder();
        assert_eq!(rpo.first(), Some(&c.entry()));
        assert_eq!(rpo.last(), Some(&c.exit()));
    }

    #[test]
    fn if_has_true_and_false_edges() {
        let c = cfg_of("void f(int n) { if (n > 0) { g(); } h(); }", "f");
        let head = c
            .node_ids()
            .find(|id| c.node(*id).role == NodeRole::IfCond)
            .unwrap();
        let kinds: Vec<_> = c.succs(head).iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&EdgeKind::True));
        assert!(kinds.contains(&EdgeKind::False));
    }

    #[test]
    fn else_if_chain_creates_separate_cond_nodes() {
        let src = "void f(int n) {\n  if (n < 0) { a(); }\n  else if (n < 10) { b(); }\n  else { c(); }\n}";
        let c = cfg_of(src, "f");
        let roles: Vec<_> = c.node_ids().map(|id| c.node(id).role).collect();
        assert!(roles.contains(&NodeRole::IfCond));
        assert!(roles.contains(&NodeRole::ElseIfCond(0)));
        let ei = c
            .node_ids()
            .find(|id| c.node(*id).role == NodeRole::ElseIfCond(0))
            .unwrap();
        assert_eq!(c.node(ei).line, 3);
        assert_eq!(c.node(ei).tokens[0], "}");
    }

    #[test]
    fn while_loop_has_back_edge() {
        let c = cfg_of("void f(int n) { while (n > 0) { n--; } }", "f");
        let head = c
            .node_ids()
            .find(|id| c.node(*id).role == NodeRole::LoopCond)
            .unwrap();
        let body = c
            .succs(head)
            .iter()
            .find(|(_, k)| *k == EdgeKind::True)
            .unwrap()
            .0;
        assert!(c.succs(body).iter().any(|(t, _)| *t == head));
    }

    #[test]
    fn for_loop_step_node_in_cycle() {
        let c = cfg_of(
            "void f(int n) { for (int i = 0; i < n; i++) { g(i); } }",
            "f",
        );
        let step = c
            .node_ids()
            .find(|id| c.node(*id).role == NodeRole::ForStep)
            .unwrap();
        let head = c
            .node_ids()
            .find(|id| c.node(*id).role == NodeRole::LoopCond)
            .unwrap();
        assert!(c.succs(step).iter().any(|(t, _)| *t == head));
        assert_eq!(c.node(step).defs, vec!["i"]);
    }

    #[test]
    fn do_while_executes_body_first() {
        let c = cfg_of("void f(int n) { do { n--; } while (n > 0); }", "f");
        // Entry's successor should be the body statement, not the condition.
        let (first, _) = c.succs(c.entry())[0];
        assert_eq!(c.node(first).role, NodeRole::Plain);
    }

    #[test]
    fn switch_dispatches_to_cases_with_fallthrough() {
        let src =
            "void f(int x) { switch (x) { case 1: a(); case 2: b(); break; default: d(); } e(); }";
        let c = cfg_of(src, "f");
        let head = c
            .node_ids()
            .find(|id| c.node(*id).role == NodeRole::SwitchHead)
            .unwrap();
        // head dispatches to case 0, case 1, and default.
        let kinds: HashSet<_> = c.succs(head).iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&EdgeKind::Case(0)));
        assert!(kinds.contains(&EdgeKind::Case(1)));
        assert!(kinds.contains(&EdgeKind::Default));
        // a() falls through to b().
        c.node_on_line(1).map(|_| ()).and(Some(())).unwrap();
        let a_node = c
            .node_ids()
            .find(|id| c.node(*id).tokens.first().map(String::as_str) == Some("a"))
            .unwrap();
        let b_node = c
            .node_ids()
            .find(|id| c.node(*id).tokens.first().map(String::as_str) == Some("b"))
            .unwrap();
        assert!(c.succs(a_node).iter().any(|(t, _)| *t == b_node));
    }

    #[test]
    fn return_goes_to_exit() {
        let c = cfg_of("int f(int n) { if (n) { return 1; } return 0; }", "f");
        let rets: Vec<_> = c
            .node_ids()
            .filter(|id| c.node(*id).tokens.first().map(String::as_str) == Some("return"))
            .collect();
        assert_eq!(rets.len(), 2);
        for r in rets {
            assert!(c.succs(r).iter().any(|(t, _)| *t == c.exit()));
        }
    }

    #[test]
    fn break_leaves_loop() {
        let c = cfg_of(
            "void f(int n) { while (1) { if (n == 0) { break; } n--; } g(); }",
            "f",
        );
        let brk = c
            .node_ids()
            .find(|id| c.node(*id).tokens.first().map(String::as_str) == Some("break"))
            .unwrap();
        let g = c
            .node_ids()
            .find(|id| c.node(*id).tokens.first().map(String::as_str) == Some("g"))
            .unwrap();
        assert!(c.succs(brk).iter().any(|(t, _)| *t == g));
    }

    #[test]
    fn infinite_loop_still_reaches_exit() {
        // `while (1)` keeps its False edge (conditions are not folded), so
        // exit stays reachable without pseudo edges; the pseudo-edge
        // machinery is a backstop for graphs that lose that property.
        let c = cfg_of("void f() { while (1) { g(); } }", "f");
        let reaches = |start: NodeId| -> bool {
            let mut seen = vec![false; c.len()];
            let mut stack = vec![start];
            while let Some(n) = stack.pop() {
                if n == c.exit() {
                    return true;
                }
                if seen[n.index()] {
                    continue;
                }
                seen[n.index()] = true;
                stack.extend(c.succs(n).iter().map(|(t, _)| *t));
            }
            false
        };
        for id in c.node_ids() {
            assert!(reaches(id), "{id} must reach exit");
        }
        let rpo = c.reverse_postorder();
        assert!(rpo.contains(&c.exit()));
    }

    #[test]
    fn exit_call_has_no_fallthrough() {
        let c = cfg_of("void f(int n) { if (n) { exit(1); } g(); }", "f");
        let ex = c
            .node_ids()
            .find(|id| c.node(*id).tokens.first().map(String::as_str) == Some("exit"))
            .unwrap();
        assert_eq!(c.succs(ex).len(), 1);
        assert_eq!(c.succs(ex)[0].0, c.exit());
    }

    #[test]
    fn entry_defines_params() {
        let c = cfg_of("void f(char *dest, int n) { g(dest, n); }", "f");
        assert_eq!(c.node(c.entry()).defs, vec!["dest", "n"]);
    }

    #[test]
    fn continue_jumps_to_step_in_for() {
        let c = cfg_of(
            "void f(int n) { for (int i = 0; i < n; i++) { if (i == 2) { continue; } g(); } }",
            "f",
        );
        let cont = c
            .node_ids()
            .find(|id| c.node(*id).tokens.first().map(String::as_str) == Some("continue"))
            .unwrap();
        let step = c
            .node_ids()
            .find(|id| c.node(*id).role == NodeRole::ForStep)
            .unwrap();
        assert!(c.succs(cont).iter().any(|(t, _)| *t == step));
    }
}
