//! Special-token identification (Step I.2).
//!
//! Following SySeVR's four syntax characteristics, a statement contains a
//! special token when it exhibits: a library/API function call (FC), an array
//! usage (AU), a pointer usage (PU), or an arithmetic expression over
//! variables (AE). Each occurrence seeds one code gadget.

use crate::types::Category;
use sevuldet_analysis::cfg::NodeRole;
use sevuldet_analysis::libmodel::is_lib_func;
use sevuldet_analysis::{NodeId, ProgramAnalysis};
use sevuldet_lang::ast::{Expr, ExprKind, Function, Program, UnaryOp};
use sevuldet_lang::visit::{walk_expr, Visitor};
use std::collections::HashSet;

/// A special token found in a program: the seed of one code gadget.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpecialToken {
    /// FC / AU / PU / AE.
    pub category: Category,
    /// Function containing the token.
    pub func: String,
    /// The PDG node the token occurs in.
    pub node: NodeId,
    /// 1-based source line.
    pub line: u32,
    /// The token itself (callee name, array name, pointer name, or the
    /// variable at the root of the arithmetic expression).
    pub name: String,
}

/// Scans a whole program for special tokens, using the PDGs in `analysis` to
/// locate the CFG node of each occurrence.
pub fn find_special_tokens(program: &Program, analysis: &ProgramAnalysis) -> Vec<SpecialToken> {
    let _t = sevuldet_trace::span!("gadget.specials");
    let mut out = Vec::new();
    for f in program.functions() {
        let Some(pdg) = analysis.pdg(&f.name) else {
            continue;
        };
        // Pointer-typed names in scope (params + locals) for PU detection.
        let ptr_vars = pointer_vars(f);
        let array_vars = array_vars(f);
        for node_id in pdg.cfg.node_ids() {
            let node = pdg.cfg.node(node_id);
            if matches!(node.role, NodeRole::Entry | NodeRole::Exit) {
                continue;
            }
            let mut seen: HashSet<(Category, String)> = HashSet::new();
            // FC: library/API calls recorded on the node.
            for call in &node.calls {
                if is_lib_func(&call.callee) && seen.insert((Category::Fc, call.callee.clone())) {
                    out.push(SpecialToken {
                        category: Category::Fc,
                        func: f.name.clone(),
                        node: node_id,
                        line: node.line,
                        name: call.callee.clone(),
                    });
                }
            }
            // AU / PU / AE: inspect the tokens and def/use sets.
            for t in token_level_hits(node.tokens.as_slice(), &ptr_vars, &array_vars) {
                if seen.insert((t.0, t.1.clone())) {
                    out.push(SpecialToken {
                        category: t.0,
                        func: f.name.clone(),
                        node: node_id,
                        line: node.line,
                        name: t.1,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| {
        (a.func.as_str(), a.line, a.category, a.name.as_str()).cmp(&(
            b.func.as_str(),
            b.line,
            b.category,
            b.name.as_str(),
        ))
    });
    out
}

/// Token-level AU/PU/AE detection over a node's surface tokens.
///
/// * AU: `name [` where `name` is an identifier (or a declared array name);
/// * PU: deref `* name` at expression position, `name ->`, or a
///   pointer-typed variable occurrence;
/// * AE: an identifier adjacent to an arithmetic operator that also has a
///   neighbouring identifier (constant-only expressions are skipped).
fn token_level_hits(
    tokens: &[String],
    ptr_vars: &HashSet<String>,
    array_vars: &HashSet<String>,
) -> Vec<(Category, String)> {
    let mut hits = Vec::new();
    let is_ident = |s: &str| {
        s.chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
            && !is_keyword(s)
    };
    for i in 0..tokens.len() {
        let t = tokens[i].as_str();
        // AU: `x [`
        if is_ident(t) && tokens.get(i + 1).map(String::as_str) == Some("[") {
            hits.push((Category::Au, t.to_string()));
        }
        // AU: declared array names.
        if is_ident(t) && array_vars.contains(t) {
            hits.push((Category::Au, t.to_string()));
        }
        // PU: `x ->`
        if is_ident(t) && tokens.get(i + 1).map(String::as_str) == Some("->") {
            hits.push((Category::Pu, t.to_string()));
        }
        // PU: pointer-typed variable used.
        if is_ident(t) && ptr_vars.contains(t) {
            hits.push((Category::Pu, t.to_string()));
        }
        // PU: unary deref `* x` (after an operator or start — a crude but
        // effective disambiguation from multiplication).
        if t == "*" {
            let prev_is_operand = i > 0
                && (is_ident(&tokens[i - 1])
                    || tokens[i - 1].parse::<i64>().is_ok()
                    || tokens[i - 1] == ")"
                    || tokens[i - 1] == "]");
            if !prev_is_operand {
                if let Some(next) = tokens.get(i + 1) {
                    if is_ident(next) {
                        hits.push((Category::Pu, next.clone()));
                    }
                }
            }
        }
        // AE: ident next to an arithmetic operator with an identifier on the
        // other side (pure-constant arithmetic is ignored).
        if matches!(t, "+" | "-" | "*" | "/" | "%") && i > 0 {
            let prev = tokens[i - 1].as_str();
            let next = tokens.get(i + 1).map(String::as_str).unwrap_or("");
            let prev_is_operand =
                is_ident(prev) || prev.parse::<i64>().is_ok() || prev == ")" || prev == "]";
            if t == "*" && !prev_is_operand {
                continue; // deref, handled above
            }
            if is_ident(prev) {
                hits.push((Category::Ae, prev.to_string()));
            } else if is_ident(next) && prev_is_operand {
                hits.push((Category::Ae, next.to_string()));
            }
        }
    }
    hits
}

fn is_keyword(s: &str) -> bool {
    sevuldet_lang::token::Keyword::from_word(s).is_some()
}

/// Names of pointer-typed params and locals of a function.
fn pointer_vars(f: &Function) -> HashSet<String> {
    let mut set: HashSet<String> = f
        .params
        .iter()
        .filter(|p| p.ty.is_pointer())
        .map(|p| p.name.clone())
        .collect();
    struct C<'a>(&'a mut HashSet<String>);
    impl Visitor for C<'_> {
        fn visit_decl(&mut self, d: &sevuldet_lang::ast::Decl) {
            if d.ty.is_pointer() {
                self.0.insert(d.name.clone());
            }
            sevuldet_lang::visit::walk_decl(self, d);
        }
    }
    let mut c = C(&mut set);
    sevuldet_lang::visit::walk_function(&mut c, f);
    set
}

/// Names of array-typed params and locals of a function.
fn array_vars(f: &Function) -> HashSet<String> {
    let mut set: HashSet<String> = f
        .params
        .iter()
        .filter(|p| !p.array_dims.is_empty())
        .map(|p| p.name.clone())
        .collect();
    struct C<'a>(&'a mut HashSet<String>);
    impl Visitor for C<'_> {
        fn visit_decl(&mut self, d: &sevuldet_lang::ast::Decl) {
            if d.is_array() {
                self.0.insert(d.name.clone());
            }
            sevuldet_lang::visit::walk_decl(self, d);
        }
    }
    let mut c = C(&mut set);
    sevuldet_lang::visit::walk_function(&mut c, f);
    set
}

/// AST-level helper retained for tests and the static detectors: whether an
/// expression contains variable arithmetic.
pub fn has_var_arithmetic(e: &Expr) -> bool {
    struct C(bool);
    impl Visitor for C {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Binary { op, lhs, rhs } = &e.kind {
                if op.is_arithmetic() {
                    let var_side = |x: &Expr| {
                        matches!(
                            x.kind,
                            ExprKind::Ident(_)
                                | ExprKind::Index { .. }
                                | ExprKind::Member { .. }
                                | ExprKind::Unary {
                                    op: UnaryOp::Deref,
                                    ..
                                }
                        )
                    };
                    if var_side(lhs) || var_side(rhs) {
                        self.0 = true;
                    }
                }
            }
            walk_expr(self, e);
        }
    }
    let mut c = C(false);
    c.visit_expr(e);
    c.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevuldet_lang::ast::StmtKind;
    use sevuldet_lang::parse;

    fn tokens_of(src: &str) -> Vec<SpecialToken> {
        let p = parse(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        find_special_tokens(&p, &a)
    }

    #[test]
    fn finds_library_call() {
        let ts = tokens_of("void f(char *d, char *s, int n) { strncpy(d, s, n); }");
        assert!(ts
            .iter()
            .any(|t| t.category == Category::Fc && t.name == "strncpy"));
    }

    #[test]
    fn user_function_call_is_not_fc() {
        let ts = tokens_of("void g(int x) { } void f() { g(1); }");
        assert!(!ts.iter().any(|t| t.category == Category::Fc));
    }

    #[test]
    fn finds_array_usage() {
        let ts = tokens_of("void f(int i) { int a[4]; a[i] = 1; }");
        let au: Vec<_> = ts.iter().filter(|t| t.category == Category::Au).collect();
        assert!(au.iter().any(|t| t.name == "a"));
    }

    #[test]
    fn finds_pointer_usage() {
        let ts = tokens_of("void f(char *p) { *p = 'x'; }");
        assert!(ts
            .iter()
            .any(|t| t.category == Category::Pu && t.name == "p"));
        let ts = tokens_of("struct s { int len; }; void f(struct s *q) { q->len = 1; }");
        assert!(ts
            .iter()
            .any(|t| t.category == Category::Pu && t.name == "q"));
    }

    #[test]
    fn finds_arithmetic_expression() {
        let ts = tokens_of("void f(int n, int m) { int x = n * m + 2; }");
        assert!(ts.iter().any(|t| t.category == Category::Ae));
    }

    #[test]
    fn constant_arithmetic_is_not_ae() {
        let ts = tokens_of("void f() { int x = 2 + 3; }");
        assert!(!ts.iter().any(|t| t.category == Category::Ae));
    }

    #[test]
    fn deref_in_multiplication_position_not_confused() {
        // `a * b` is AE on a, not PU on b.
        let ts = tokens_of("void f(int a, int b) { int x = a * b; }");
        assert!(ts.iter().any(|t| t.category == Category::Ae));
        assert!(!ts
            .iter()
            .any(|t| t.category == Category::Pu && t.name == "b"));
    }

    #[test]
    fn has_var_arithmetic_ast_helper() {
        let p = parse("void f(int n) { int x = n + 1; int y = 2 + 3; }").unwrap();
        let f = p.function("f").unwrap();
        let inits: Vec<_> = f
            .body
            .stmts
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::Decl(d) => d.init.as_ref(),
                _ => None,
            })
            .collect();
        assert!(has_var_arithmetic(inits[0]));
        assert!(!has_var_arithmetic(inits[1]));
    }

    #[test]
    fn special_tokens_are_deterministic() {
        let src = "void f(char *p, int n) { int a[4]; a[n] = *p + n; memcpy(a, p, n); }";
        assert_eq!(tokens_of(src), tokens_of(src));
    }
}
