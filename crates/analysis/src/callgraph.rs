//! Call graph over a mini-C program.
//!
//! Used by inter-procedural slicing (Step I.3/I.4): when a sliced statement
//! calls a user-defined function, the slicer descends into the callee; when a
//! function's parameter is in a slice, the slicer ascends to call sites.

use crate::cfg::{Cfg, NodeId};
use sevuldet_lang::ast::Program;
use std::collections::HashMap;

/// One call site in the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Calling function's name.
    pub caller: String,
    /// Called function's name.
    pub callee: String,
    /// CFG node of the calling statement (within the caller's CFG).
    pub node: NodeId,
    /// Identifiers appearing in each argument.
    pub arg_idents: Vec<Vec<String>>,
    /// 1-based source line of the call.
    pub line: u32,
}

/// Call graph: all call sites plus caller/callee indices.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    sites: Vec<CallSite>,
    by_caller: HashMap<String, Vec<usize>>,
    by_callee: HashMap<String, Vec<usize>>,
    params: HashMap<String, Vec<String>>,
}

impl CallGraph {
    /// Builds the call graph from a program and its per-function CFGs. Sites
    /// are numbered in the order of `cfgs`, then by node, then by call.
    pub fn build(program: &Program, cfgs: &[Cfg]) -> CallGraph {
        let mut g = CallGraph::default();
        for f in program.functions() {
            g.params.insert(
                f.name.clone(),
                f.params.iter().map(|p| p.name.clone()).collect(),
            );
        }
        for cfg in cfgs {
            let fname = &cfg.func;
            for id in cfg.node_ids() {
                for call in &cfg.node(id).calls {
                    let idx = g.sites.len();
                    g.sites.push(CallSite {
                        caller: fname.clone(),
                        callee: call.callee.clone(),
                        node: id,
                        arg_idents: call.arg_idents.clone(),
                        line: call.line,
                    });
                    g.by_caller.entry(fname.clone()).or_default().push(idx);
                    g.by_callee
                        .entry(call.callee.clone())
                        .or_default()
                        .push(idx);
                }
            }
        }
        g
    }

    /// All call sites.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// Call sites within `caller`.
    pub fn calls_from(&self, caller: &str) -> impl Iterator<Item = &CallSite> {
        self.by_caller
            .get(caller)
            .into_iter()
            .flatten()
            .map(move |&i| &self.sites[i])
    }

    /// Call sites that invoke `callee`.
    pub fn calls_to(&self, callee: &str) -> impl Iterator<Item = &CallSite> {
        self.by_callee
            .get(callee)
            .into_iter()
            .flatten()
            .map(move |&i| &self.sites[i])
    }

    /// Parameter names of a user-defined function, if it exists.
    #[cfg(test)]
    pub fn params_of(&self, func: &str) -> Option<&[String]> {
        self.params.get(func).map(Vec::as_slice)
    }

    /// Whether `name` is a user-defined function in this program.
    pub fn is_user_func(&self, name: &str) -> bool {
        self.params.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_all;
    use sevuldet_lang::parse;

    #[test]
    fn builds_sites_and_indices() {
        let src = r#"
void leaf(char *buf, int n) { memset(buf, 0, n); }
void mid(char *buf, int n) { leaf(buf, n); leaf(buf, n + 1); }
int main() { char b[8]; mid(b, 8); return 0; }
"#;
        let p = parse(src).unwrap();
        let cfgs = build_all(&p);
        let g = CallGraph::build(&p, &cfgs);
        assert_eq!(g.calls_to("leaf").count(), 2);
        assert_eq!(g.calls_from("mid").count(), 2);
        assert_eq!(g.calls_to("mid").count(), 1);
        assert_eq!(g.params_of("leaf").unwrap(), &["buf", "n"]);
        assert!(g.is_user_func("mid"));
        assert!(!g.is_user_func("memset"));
        // Library calls are still recorded as sites.
        assert_eq!(g.calls_to("memset").count(), 1);
        let site = g.calls_to("mid").next().unwrap();
        assert_eq!(site.caller, "main");
        assert_eq!(site.arg_idents[0], vec!["b"]);
    }
}
