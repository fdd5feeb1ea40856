//! AST printing.
//!
//! Two consumers with different needs share this module:
//!
//! * the gadget pipeline needs a **token list** per statement (the paper's
//!   Definition 1: a statement is an ordered sequence of tokens), produced by
//!   [`stmt_tokens`] / [`expr_tokens`];
//! * tests, examples, and the VUDDY baseline need whole-program **source
//!   text**, produced by [`program_to_string`].

use crate::ast::*;

/// Appends the surface tokens of an expression to `out`.
pub fn expr_tokens(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::IntLit(v) => out.push(v.to_string()),
        ExprKind::CharLit(v) => out.push(format!("'{}'", char::from_u32(*v as u32).unwrap_or('?'))),
        ExprKind::StrLit(s) => out.push(format!("{s:?}")),
        ExprKind::Ident(n) => out.push(n.clone()),
        ExprKind::Unary { op, expr } => {
            out.push(op.as_str().to_string());
            expr_tokens(expr, out);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            expr_tokens(lhs, out);
            out.push(op.as_str().to_string());
            expr_tokens(rhs, out);
        }
        ExprKind::Assign { op, target, value } => {
            expr_tokens(target, out);
            out.push(op.as_str().to_string());
            expr_tokens(value, out);
        }
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            expr_tokens(cond, out);
            out.push("?".into());
            expr_tokens(then_expr, out);
            out.push(":".into());
            expr_tokens(else_expr, out);
        }
        ExprKind::Call { callee, args } => {
            out.push(callee.clone());
            out.push("(".into());
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push(",".into());
                }
                expr_tokens(a, out);
            }
            out.push(")".into());
        }
        ExprKind::Index { base, index } => {
            expr_tokens(base, out);
            out.push("[".into());
            expr_tokens(index, out);
            out.push("]".into());
        }
        ExprKind::Member { base, field, arrow } => {
            expr_tokens(base, out);
            out.push(if *arrow { "->" } else { "." }.into());
            out.push(field.clone());
        }
        ExprKind::Cast { ty, expr } => {
            out.push("(".into());
            out.push(ty.to_string());
            out.push(")".into());
            expr_tokens(expr, out);
        }
        ExprKind::Sizeof(arg) => {
            out.push("sizeof".into());
            out.push("(".into());
            match arg {
                SizeofArg::Type(t) => out.push(t.to_string()),
                SizeofArg::Expr(e) => expr_tokens(e, out),
            }
            out.push(")".into());
        }
        ExprKind::PreIncDec { expr, inc } => {
            out.push(if *inc { "++" } else { "--" }.into());
            expr_tokens(expr, out);
        }
        ExprKind::PostIncDec { expr, inc } => {
            expr_tokens(expr, out);
            out.push(if *inc { "++" } else { "--" }.into());
        }
        ExprKind::Comma { lhs, rhs } => {
            expr_tokens(lhs, out);
            out.push(",".into());
            expr_tokens(rhs, out);
        }
    }
}

fn decl_tokens(d: &Decl, out: &mut Vec<String>) {
    out.push(d.ty.name.clone());
    for _ in 0..d.ty.ptr_depth {
        out.push("*".into());
    }
    out.push(d.name.clone());
    for dim in &d.array_dims {
        out.push("[".into());
        if let Some(n) = dim {
            out.push(n.to_string());
        }
        out.push("]".into());
    }
    if let Some(init) = &d.init {
        out.push("=".into());
        expr_tokens(init, out);
    }
}

/// The *header* tokens of a statement — what appears on the statement's own
/// line in a code gadget. Control-statement bodies are **not** included:
/// gadget lines are per-statement, and Algorithm 1 inserts block-delimiting
/// statements separately.
pub fn stmt_tokens(s: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    match &s.kind {
        StmtKind::Decl(d) => {
            decl_tokens(d, &mut out);
            out.push(";".into());
        }
        StmtKind::Expr(e) => {
            expr_tokens(e, &mut out);
            out.push(";".into());
        }
        StmtKind::Block(_) => {
            out.push("{".into());
        }
        StmtKind::If { cond, .. } => {
            out.push("if".into());
            out.push("(".into());
            expr_tokens(cond, &mut out);
            out.push(")".into());
            out.push("{".into());
        }
        StmtKind::While { cond, .. } => {
            out.push("while".into());
            out.push("(".into());
            expr_tokens(cond, &mut out);
            out.push(")".into());
            out.push("{".into());
        }
        StmtKind::DoWhile { .. } => {
            out.push("do".into());
            out.push("{".into());
        }
        StmtKind::For {
            init, cond, step, ..
        } => {
            out.push("for".into());
            out.push("(".into());
            if let Some(i) = init {
                match &i.kind {
                    StmtKind::Decl(d) => decl_tokens(d, &mut out),
                    StmtKind::Expr(e) => expr_tokens(e, &mut out),
                    _ => {}
                }
            }
            out.push(";".into());
            if let Some(c) = cond {
                expr_tokens(c, &mut out);
            }
            out.push(";".into());
            if let Some(st) = step {
                expr_tokens(st, &mut out);
            }
            out.push(")".into());
            out.push("{".into());
        }
        StmtKind::Switch { scrutinee, .. } => {
            out.push("switch".into());
            out.push("(".into());
            expr_tokens(scrutinee, &mut out);
            out.push(")".into());
            out.push("{".into());
        }
        StmtKind::Break => {
            out.push("break".into());
            out.push(";".into());
        }
        StmtKind::Continue => {
            out.push("continue".into());
            out.push(";".into());
        }
        StmtKind::Return(e) => {
            out.push("return".into());
            if let Some(e) = e {
                expr_tokens(e, &mut out);
            }
            out.push(";".into());
        }
    }
    out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn expr(&self, e: &Expr) -> String {
        let mut toks = Vec::new();
        expr_tokens(e, &mut toks);
        join_tokens(&toks)
    }

    fn block(&mut self, b: &Block) {
        self.indent += 1;
        for s in &b.stmts {
            self.stmt(s);
        }
        self.indent -= 1;
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => {
                let mut toks = Vec::new();
                decl_tokens(d, &mut toks);
                self.line(&format!("{};", join_tokens(&toks)));
            }
            StmtKind::Expr(e) => {
                let t = self.expr(e);
                self.line(&format!("{t};"));
            }
            StmtKind::Block(b) => {
                self.line("{");
                self.block(b);
                self.line("}");
            }
            StmtKind::If {
                cond,
                then,
                else_ifs,
                else_block,
            } => {
                let c = self.expr(cond);
                self.line(&format!("if ({c}) {{"));
                self.block(then);
                for ei in else_ifs {
                    let c = self.expr(&ei.cond);
                    self.line(&format!("}} else if ({c}) {{"));
                    self.block(&ei.body);
                }
                if let Some(eb) = else_block {
                    self.line("} else {");
                    self.block(&eb.body);
                }
                self.line("}");
            }
            StmtKind::While { cond, body } => {
                let c = self.expr(cond);
                self.line(&format!("while ({c}) {{"));
                self.block(body);
                self.line("}");
            }
            StmtKind::DoWhile { body, cond } => {
                self.line("do {");
                self.block(body);
                let c = self.expr(cond);
                self.line(&format!("}} while ({c});"));
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let i = match init.as_deref().map(|s| &s.kind) {
                    Some(StmtKind::Decl(d)) => {
                        let mut t = Vec::new();
                        decl_tokens(d, &mut t);
                        join_tokens(&t)
                    }
                    Some(StmtKind::Expr(e)) => self.expr(e),
                    _ => String::new(),
                };
                let c = cond.as_ref().map(|c| self.expr(c)).unwrap_or_default();
                let st = step.as_ref().map(|s| self.expr(s)).unwrap_or_default();
                self.line(&format!("for ({i}; {c}; {st}) {{"));
                self.block(body);
                self.line("}");
            }
            StmtKind::Switch { scrutinee, cases } => {
                let sc = self.expr(scrutinee);
                self.line(&format!("switch ({sc}) {{"));
                for case in cases {
                    match &case.label {
                        CaseLabel::Case(e) => {
                            let v = self.expr(e);
                            self.line(&format!("case {v}:"));
                        }
                        CaseLabel::Default => self.line("default:"),
                    }
                    self.indent += 1;
                    for s in &case.body {
                        self.stmt(s);
                    }
                    self.indent -= 1;
                }
                self.line("}");
            }
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Return(e) => match e {
                Some(e) => {
                    let t = self.expr(e);
                    self.line(&format!("return {t};"));
                }
                None => self.line("return;"),
            },
        }
    }
}

/// Joins surface tokens with C-ish spacing (no space before `;,)]`, none
/// after `([`).
fn join_tokens(toks: &[String]) -> String {
    let mut out = String::new();
    for (i, t) in toks.iter().enumerate() {
        let glue_left = matches!(t.as_str(), ";" | "," | ")" | "]" | "++" | "--");
        let prev_glues = i > 0 && matches!(toks[i - 1].as_str(), "(" | "[" | "!" | "~");
        if i > 0 && !glue_left && !prev_glues {
            out.push(' ');
        }
        out.push_str(t);
    }
    out
}

/// Pretty-prints a whole program back to compilable mini-C text.
///
/// The output is *not* byte-identical to the input (line numbers change), but
/// re-parsing it yields a structurally equal AST modulo spans and statement
/// ids — a property the test suite checks.
pub fn program_to_string(p: &Program) -> String {
    let mut pr = Printer {
        out: String::new(),
        indent: 0,
    };
    for item in &p.items {
        match item {
            Item::Function(f) => {
                let params = f
                    .params
                    .iter()
                    .map(|p| {
                        let mut s = format!("{} {}", p.ty, p.name);
                        for d in &p.array_dims {
                            match d {
                                Some(n) => s.push_str(&format!("[{n}]")),
                                None => s.push_str("[]"),
                            }
                        }
                        s
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                pr.line(&format!("{} {}({params}) {{", f.ret, f.name));
                pr.block(&f.body);
                pr.line("}");
            }
            Item::Global(d) => {
                let mut toks = Vec::new();
                decl_tokens(d, &mut toks);
                pr.line(&format!("{};", join_tokens(&toks)));
            }
            Item::Struct(s) => {
                pr.line(&format!("struct {} {{", s.name));
                pr.indent += 1;
                for f in &s.fields {
                    let mut toks = Vec::new();
                    decl_tokens(f, &mut toks);
                    pr.line(&format!("{};", join_tokens(&toks)));
                }
                pr.indent -= 1;
                pr.line("};");
            }
        }
    }
    pr.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn stmt_tokens_for_if_header_only() {
        let p = parse("void f(int n) { if (n > 5) { g(); } }").unwrap();
        let f = p.function("f").unwrap();
        let toks = stmt_tokens(&f.body.stmts[0]);
        assert_eq!(toks, vec!["if", "(", "n", ">", "5", ")", "{"]);
    }

    #[test]
    fn stmt_tokens_for_call() {
        let p = parse("void f() { strncpy(dest, data, n); }").unwrap();
        let f = p.function("f").unwrap();
        let toks = stmt_tokens(&f.body.stmts[0]);
        assert_eq!(
            toks,
            vec!["strncpy", "(", "dest", ",", "data", ",", "n", ")", ";"]
        );
    }

    #[test]
    fn roundtrip_structural_equality() {
        let src = r#"
struct pkt { int len; char data[16]; };
int limit = 100;
int clamp(int n) {
    if (n < 0) { return 0; }
    else if (n > limit) { return limit; }
    else { return n; }
}
void f(struct pkt *p, int n) {
    char buf[8];
    for (int i = 0; i < n; i++) {
        switch (i % 3) {
        case 0:
            buf[i] = 'a';
            break;
        default:
            buf[i] = (char)(i + 48);
        }
    }
    do { n--; } while (n > 0 && p->len < 16);
    memcpy(p->data, buf, sizeof buf);
}
"#;
        let p1 = parse(src).unwrap();
        let text = program_to_string(&p1);
        let p2 = parse(&text).expect("printed program must re-parse");
        // Compare shapes: same functions, same statement token streams.
        for (f1, f2) in p1.functions().zip(p2.functions()) {
            assert_eq!(f1.name, f2.name);
            let t1: Vec<_> = f1.body.stmts.iter().map(stmt_tokens).collect();
            let t2: Vec<_> = f2.body.stmts.iter().map(stmt_tokens).collect();
            assert_eq!(t1, t2);
        }
    }
}
