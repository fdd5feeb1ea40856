//! Reaching definitions and data dependence (Definition 2 of the paper).
//!
//! A statement `s_b` is data dependent on `s_a` when a definition of some
//! variable at `s_a` reaches a use of that variable at `s_b`. Computed with a
//! classic forward may-analysis over the CFG.

use crate::cfg::{Cfg, NodeId};
use std::collections::HashMap;

/// A data-dependence edge: `from` defines `var`, which `to` uses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataDep {
    /// Defining node.
    pub from: NodeId,
    /// Using node.
    pub to: NodeId,
    /// The variable carried by the dependence.
    pub var: String,
}

/// Computes all data-dependence edges of a CFG, sorted by
/// `(from, to, var)`.
///
/// Reaching definitions as gen/kill bitsets over *definition sites* (one
/// site per `(node, variable)` the node writes), with variables interned to
/// dense ids per CFG. Nodes unreachable from the entry keep an empty OUT
/// set, so no definition flows out of or into dead code. A node's own
/// definition never feeds its own use (no self edges).
pub fn data_deps(cfg: &Cfg) -> Vec<DataDep> {
    let n = cfg.len();
    // Intern the defined variables and number the definition sites in node
    // order; `var_sites[v]` lists the sites of variable `v`.
    let mut var_ids: HashMap<&str, usize> = HashMap::new();
    let mut var_sites: Vec<Vec<u32>> = Vec::new();
    let mut site_node: Vec<NodeId> = Vec::new();
    let mut node_sites: Vec<u32> = Vec::with_capacity(n + 1);
    for node in cfg.node_ids() {
        node_sites.push(site_node.len() as u32);
        for d in &cfg.node(node).defs {
            let v = *var_ids.entry(d.as_str()).or_insert_with(|| {
                var_sites.push(Vec::new());
                var_sites.len() - 1
            });
            // A name defined twice by one node (a repeated parameter) is
            // one site.
            if var_sites[v]
                .last()
                .is_some_and(|&s| site_node[s as usize] == node)
            {
                continue;
            }
            var_sites[v].push(site_node.len() as u32);
            site_node.push(node);
        }
    }
    node_sites.push(site_node.len() as u32);
    let words = site_node.len().div_ceil(64);
    if words == 0 {
        return Vec::new();
    }

    // kill[node] = every site of every variable the node defines; gen[node]
    // = the node's own sites (a subset of its kill set).
    let mut kill = vec![0u64; n * words];
    let mut gen = vec![0u64; n * words];
    for node in cfg.node_ids() {
        let row = node.index() * words;
        for d in &cfg.node(node).defs {
            for &s in &var_sites[var_ids[d.as_str()]] {
                set_bit(&mut kill[row..][..words], s);
            }
        }
        for s in node_sites[node.index()]..node_sites[node.index() + 1] {
            set_bit(&mut gen[row..][..words], s);
        }
    }

    let order = cfg.reverse_postorder();
    let mut out = vec![0u64; n * words];
    let mut input = vec![0u64; words];
    let meet = |out: &[u64], node: NodeId, input: &mut [u64]| {
        input.fill(0);
        for &(p, _) in cfg.preds(node) {
            for (i, w) in out[p.index() * words..][..words].iter().enumerate() {
                input[i] |= w;
            }
        }
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &node in &order {
            meet(&out, node, &mut input);
            let at = node.index() * words;
            let (k, g) = (&kill[at..][..words], &gen[at..][..words]);
            let row = &mut out[at..][..words];
            for i in 0..words {
                let w = (input[i] & !k[i]) | g[i];
                if row[i] != w {
                    row[i] = w;
                    changed = true;
                }
            }
        }
    }

    // Edges: for each node's uses, the sites of that variable reaching its
    // input.
    let mut edges = Vec::new();
    for node in cfg.node_ids() {
        let data = cfg.node(node);
        if data.uses.is_empty() {
            continue;
        }
        meet(&out, node, &mut input);
        for u in &data.uses {
            let Some(&v) = var_ids.get(u.as_str()) else {
                continue;
            };
            for &s in &var_sites[v] {
                let d = site_node[s as usize];
                if d != node && input[s as usize / 64] & (1 << (s % 64)) != 0 {
                    edges.push(DataDep {
                        from: d,
                        to: node,
                        var: u.clone(),
                    });
                }
            }
        }
    }
    edges.sort_by(|a, b| (a.from, a.to, &a.var).cmp(&(b.from, b.to, &b.var)));
    edges.dedup();
    edges
}

fn set_bit(words: &mut [u64], bit: u32) {
    words[bit as usize / 64] |= 1 << (bit % 64);
}

/// The string-keyed reaching-definitions analysis [`data_deps`] replaced,
/// kept as the oracle its property tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::DataDep;
    use crate::cfg::{Cfg, NodeId};
    use std::collections::{HashMap, HashSet};

    /// All data-dependence edges of a CFG, by a map-of-sets fixpoint.
    pub(crate) fn data_deps(cfg: &Cfg) -> Vec<DataDep> {
        // IN/OUT: var -> set of defining nodes.
        type Defs = HashMap<String, HashSet<NodeId>>;
        let n = cfg.len();
        let mut out: Vec<Defs> = vec![Defs::new(); n];
        let order = cfg.reverse_postorder();

        let transfer = |cfg: &Cfg, node: NodeId, input: &Defs| -> Defs {
            let data = cfg.node(node);
            let mut o = input.clone();
            for d in &data.defs {
                let e = o.entry(d.clone()).or_default();
                e.clear();
                e.insert(node);
            }
            o
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &node in &order {
                // Meet: union of predecessor OUTs.
                let mut input = Defs::new();
                for &(p, _) in cfg.preds(node) {
                    for (var, defs) in &out[p.index()] {
                        input.entry(var.clone()).or_default().extend(defs.iter());
                    }
                }
                let new_out = transfer(cfg, node, &input);
                if new_out != out[node.index()] {
                    out[node.index()] = new_out;
                    changed = true;
                }
            }
        }

        // Edges: for each node's uses, the defs reaching its input.
        let mut edges = HashSet::new();
        for node in cfg.node_ids() {
            let data = cfg.node(node);
            if data.uses.is_empty() {
                continue;
            }
            let mut input = Defs::new();
            for &(p, _) in cfg.preds(node) {
                for (var, defs) in &out[p.index()] {
                    input.entry(var.clone()).or_default().extend(defs.iter());
                }
            }
            for u in &data.uses {
                if let Some(defs) = input.get(u) {
                    for &d in defs {
                        if d != node {
                            edges.insert(DataDep {
                                from: d,
                                to: node,
                                var: u.clone(),
                            });
                        }
                    }
                }
            }
        }
        let mut v: Vec<_> = edges.into_iter().collect();
        v.sort_by_key(|e| (e.from, e.to, e.var.clone()));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevuldet_lang::parse;

    fn analyze(src: &str) -> (Cfg, Vec<DataDep>) {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(p.functions().next().unwrap());
        let deps = data_deps(&cfg);
        (cfg, deps)
    }

    fn node_with(cfg: &Cfg, tok: &str) -> NodeId {
        cfg.node_ids()
            .find(|id| cfg.node(*id).tokens.first().map(String::as_str) == Some(tok))
            .unwrap_or_else(|| panic!("no node starting with {tok}"))
    }

    #[test]
    fn def_reaches_use() {
        let (cfg, deps) = analyze("void f() { int x = 1; g(x); }");
        let def = node_with(&cfg, "int");
        let use_ = node_with(&cfg, "g");
        assert!(deps.contains(&DataDep {
            from: def,
            to: use_,
            var: "x".into()
        }));
    }

    #[test]
    fn redefinition_kills() {
        let (cfg, deps) = analyze("void f() { int x = 1; x = 2; g(x); }");
        let first = node_with(&cfg, "int");
        let use_ = node_with(&cfg, "g");
        assert!(
            !deps.iter().any(|d| d.from == first && d.to == use_),
            "killed def must not reach"
        );
    }

    #[test]
    fn both_branches_reach_join() {
        let (cfg, deps) =
            analyze("void f(int c) { int x; if (c) { x = 1; } else { x = 2; } g(x); }");
        let use_ = node_with(&cfg, "g");
        let sources: Vec<_> = deps
            .iter()
            .filter(|d| d.to == use_ && d.var == "x")
            .collect();
        assert_eq!(sources.len(), 2, "defs from both arms reach the join use");
    }

    #[test]
    fn param_def_flows_from_entry() {
        let (cfg, deps) = analyze("void f(int n) { g(n); }");
        let use_ = node_with(&cfg, "g");
        assert!(deps
            .iter()
            .any(|d| d.from == cfg.entry() && d.to == use_ && d.var == "n"));
    }

    #[test]
    fn loop_carried_dependence() {
        let (cfg, deps) = analyze("void f(int n) { while (n > 0) { n = n - 1; } g(n); }");
        let dec = node_with(&cfg, "n");
        let head = cfg
            .node_ids()
            .find(|id| cfg.node(*id).tokens.first().map(String::as_str) == Some("while"))
            .unwrap();
        // The decrement feeds the loop condition around the back edge.
        assert!(deps
            .iter()
            .any(|d| d.from == dec && d.to == head && d.var == "n"));
    }

    #[test]
    fn strncpy_def_feeds_return() {
        let (cfg, deps) = analyze(
            "char *f(char *dest, char *data, int n) { strncpy(dest, data, n); return dest; }",
        );
        let cp = node_with(&cfg, "strncpy");
        let ret = node_with(&cfg, "return");
        assert!(deps
            .iter()
            .any(|d| d.from == cp && d.to == ret && d.var == "dest"));
    }

    /// A structured-program generator for the oracle comparison: nested
    /// if/while/for blocks over four variables, with loops whose condition
    /// variable is redefined in the body, `v++` steps, compound updates,
    /// and statements after a `return` (unreachable code).
    #[derive(Debug, Clone)]
    enum Gen {
        Assign(u8, u8, u8),
        Bump(u8),
        Call(u8, u8),
        Return(u8),
        If(u8, Vec<Gen>, Vec<Gen>),
        While(u8, Vec<Gen>),
        For(u8, Vec<Gen>),
    }

    fn gen(depth: u32) -> proptest::prelude::BoxedStrategy<Gen> {
        use proptest::prelude::*;
        let leaf = prop_oneof![
            (0u8..4, 0u8..4, 0u8..4).prop_map(|(a, b, c)| Gen::Assign(a, b, c)),
            (0u8..4).prop_map(Gen::Bump),
            (0u8..4, 0u8..4).prop_map(|(a, b)| Gen::Call(a, b)),
            (0u8..4).prop_map(Gen::Return),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let body = || proptest::collection::vec(gen(depth - 1), 0..4);
        prop_oneof![
            3 => leaf,
            1 => (0u8..4, body(), body()).prop_map(|(v, t, e)| Gen::If(v, t, e)),
            1 => (0u8..4, body()).prop_map(|(v, b)| Gen::While(v, b)),
            1 => (0u8..4, body()).prop_map(|(v, b)| Gen::For(v, b)),
        ]
        .boxed()
    }

    fn render(stmts: &[Gen], out: &mut String) {
        for s in stmts {
            match s {
                Gen::Assign(a, b, c) => out.push_str(&format!("v{a} = v{b} + v{c};\n")),
                Gen::Bump(a) => out.push_str(&format!("v{a} += 1;\n")),
                Gen::Call(a, b) => out.push_str(&format!("memcpy(v{a}, v{b}, 4);\n")),
                Gen::Return(a) => out.push_str(&format!("return v{a};\n")),
                Gen::If(v, t, e) => {
                    out.push_str(&format!("if (v{v} > 2) {{\n"));
                    render(t, out);
                    out.push_str("} else {\n");
                    render(e, out);
                    out.push_str("}\n");
                }
                Gen::While(v, b) => {
                    out.push_str(&format!("while (v{v} > 0) {{\nv{v} = v{v} - 1;\n"));
                    render(b, out);
                    out.push_str("}\n");
                }
                Gen::For(v, b) => {
                    out.push_str(&format!("for (v{v} = 0; v{v} < 8; v{v}++) {{\n"));
                    render(b, out);
                    out.push_str("}\n");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn bitset_reaching_definitions_match_the_reference(
            body in proptest::collection::vec(gen(3), 1..10),
            tail in proptest::collection::vec(gen(1), 0..3),
        ) {
            let mut src = String::from("int f(int v0, int v1, int v2) {\nint v3 = v0;\n");
            render(&body, &mut src);
            render(&tail, &mut src);
            src.push_str("return v3;\n}\n");
            let p = parse(&src).unwrap();
            let cfg = Cfg::build(p.functions().next().unwrap());
            proptest::prop_assert_eq!(data_deps(&cfg), reference::data_deps(&cfg), "{}", src);
        }
    }
}
