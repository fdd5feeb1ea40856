//! A Checkmarx-like rule-based AST/dataflow analyzer.
//!
//! Commercial engines like Checkmarx beat pure lexical scanners by checking
//! whether a *sanitizer* (a validating condition) dominates the dangerous
//! operation — but the check is heuristic: the mere *existence* of a guard
//! over the right variable is accepted, without path sensitivity. That makes
//! it better than Flawfinder/RATS in Fig. 5 yet still blind to displaced
//! guards (vulnerable twin: miss) and still noisy on unrelated guards
//! (safe code with an unmatched guard: false positive).

use crate::report::{Finding, StaticDetector};
use sevuldet_analysis::cfg::NodeRole;
use sevuldet_analysis::libmodel::lib_func;
use sevuldet_analysis::{NodeId, Pdg, ProgramAnalysis};
use sevuldet_lang::parse;

/// The Checkmarx analogue.
#[derive(Debug, Clone, Default)]
pub struct Checkmarx;

impl StaticDetector for Checkmarx {
    fn name(&self) -> &'static str {
        "Checkmarx"
    }

    fn scan(&self, source: &str) -> Vec<Finding> {
        let Ok(program) = parse(source) else {
            return Vec::new();
        };
        let analysis = ProgramAnalysis::analyze(&program);
        let mut out = Vec::new();
        for f in analysis.funcs() {
            scan_function(&f.pdg, &mut out);
        }
        out.sort_by_key(|f| f.line);
        out.dedup();
        out
    }
}

fn scan_function(pdg: &Pdg, out: &mut Vec<Finding>) {
    let cfg = &pdg.cfg;
    for id in cfg.node_ids() {
        let node = cfg.node(id);
        // Rule 1: dangerous copy whose length operand is never guarded.
        for call in &node.calls {
            let Some(model) = lib_func(&call.callee) else {
                continue;
            };
            if model.risk >= 5 {
                // gets/strcpy/sprintf: unconditionally dangerous.
                out.push(Finding {
                    line: node.line,
                    rule: format!("dangerous-api:{}", call.callee),
                    risk: 5,
                });
                continue;
            }
            if matches!(
                call.callee.as_str(),
                "strncpy" | "memcpy" | "strncat" | "memmove"
            ) {
                let len_vars = call.arg_idents.get(2).cloned().unwrap_or_default();
                if !len_vars.is_empty() && !guarded_by_any(pdg, id, &len_vars) {
                    out.push(Finding {
                        line: node.line,
                        rule: format!("unchecked-length:{}", call.callee),
                        risk: 4,
                    });
                }
            }
        }
        // Rule 2: use after free / double free — a `free(p)` reaching a
        // later use of `p` in line order.
        for call in &node.calls {
            if call.callee == "free" {
                let Some(ptr) = call.arg_idents.first().and_then(|v| v.first()) else {
                    continue;
                };
                // Nodes created after this one — creation order matches
                // execution order for straight-line code.
                let later_nodes: Vec<NodeId> = cfg.node_ids().filter(|m| *m > id).collect();
                for later in later_nodes {
                    let ln = cfg.node(later);
                    if ln.calls.iter().any(|c| {
                        c.callee == "free"
                            && c.arg_idents.first().and_then(|v| v.first()) == Some(ptr)
                    }) {
                        out.push(Finding {
                            line: ln.line,
                            rule: "double-free".into(),
                            risk: 4,
                        });
                        break;
                    }
                    if ln.uses.contains(ptr) {
                        out.push(Finding {
                            line: ln.line,
                            rule: "use-after-free".into(),
                            risk: 4,
                        });
                        break;
                    }
                    // A pure re-assignment (`p = NULL`, `p = malloc(..)`)
                    // ends the freed lifetime.
                    if ln.defs.contains(ptr) {
                        break;
                    }
                }
            }
        }
        // Rule 3: division whose divisor variable is never guarded.
        if node.role == NodeRole::Plain {
            let toks = &node.tokens;
            for w in toks.windows(2) {
                if w[0] == "/" {
                    let divisor = &w[1];
                    if is_ident(divisor) && !guarded_by_any(pdg, id, std::slice::from_ref(divisor))
                    {
                        out.push(Finding {
                            line: node.line,
                            rule: "unchecked-division".into(),
                            risk: 3,
                        });
                    }
                }
            }
        }
        // Rule 4: loop bound `<=` over a literal (classic off-by-one smell).
        if node.role == NodeRole::LoopCond && node.tokens.contains(&"<=".to_string()) {
            out.push(Finding {
                line: node.line,
                rule: "suspicious-loop-bound".into(),
                risk: 3,
            });
        }
        // Rule 5: unchecked malloc result dereference.
        if node.calls.iter().any(|c| c.callee == "malloc") {
            let target = node.defs.first().cloned();
            if let Some(p) = target {
                let guarded = cfg.node_ids().any(|m| {
                    let nm = cfg.node(m);
                    nm.role.is_branch() && nm.uses.contains(&p)
                });
                let used_later = cfg.node_ids().any(|m| {
                    let nm = cfg.node(m);
                    nm.line > node.line && nm.uses.contains(&p) && nm.role == NodeRole::Plain
                });
                if !guarded && used_later {
                    out.push(Finding {
                        line: node.line,
                        rule: "unchecked-allocation".into(),
                        risk: 3,
                    });
                }
            }
        }
    }
}

/// Whether any branch node *anywhere in the function* tests one of `vars` —
/// deliberately path-insensitive (guard existence, not guard placement).
fn guarded_by_any(pdg: &Pdg, _use_site: NodeId, vars: &[String]) -> bool {
    pdg.cfg.node_ids().any(|id| {
        let n = pdg.cfg.node(id);
        n.role.is_branch() && vars.iter().any(|v| n.uses.contains(v))
    })
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .map(|c| c.is_ascii_alphabetic() || c == '_')
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unguarded_copy_flagged_guarded_not() {
        let vuln = r#"void f(char *d, char *s, int n) {
    char buf[16];
    strncpy(buf, s, n);
}"#;
        let safe = r#"void f(char *d, char *s, int n) {
    char buf[16];
    if (n < 16) {
        strncpy(buf, s, n);
    }
}"#;
        assert!(Checkmarx.flags(vuln, 4));
        assert!(!Checkmarx.flags(safe, 4));
    }

    #[test]
    fn displaced_guard_fools_checkmarx() {
        // The Fig.-1 vulnerable twin: the guard exists, the copy is outside
        // it. Guard-existence heuristics miss this — the reason learned
        // path-sensitive detection wins.
        let displaced = r#"void f(char *d, char *s, int n) {
    char buf[16];
    if (n < 16) {
        puts("ok");
    }
    strncpy(buf, s, n);
}"#;
        assert!(
            !Checkmarx.flags(displaced, 4),
            "heuristic is path-insensitive"
        );
    }

    #[test]
    fn uaf_and_double_free_found() {
        let uaf = r#"void f(int n) {
    char *p = malloc(n);
    if (p != NULL) {
        p[0] = 1;
    }
    free(p);
    p[0] = 2;
}"#;
        let findings = Checkmarx.scan(uaf);
        assert!(findings.iter().any(|f| f.rule == "use-after-free"));
        let df = "void f() { char *p = malloc(4); free(p); free(p); }";
        assert!(Checkmarx.scan(df).iter().any(|f| f.rule == "double-free"));
    }

    #[test]
    fn division_and_loop_rules() {
        let div = "void f(int n) { int x = 10 / n; }";
        assert!(Checkmarx
            .scan(div)
            .iter()
            .any(|f| f.rule == "unchecked-division"));
        let divg = "void f(int n) { if (n != 0) { int x = 10 / n; } }";
        assert!(!Checkmarx
            .scan(divg)
            .iter()
            .any(|f| f.rule == "unchecked-division"));
        let lp = "void f() { int a[4]; for (int i = 0; i <= 4; i++) { a[i] = 0; } }";
        assert!(Checkmarx
            .scan(lp)
            .iter()
            .any(|f| f.rule == "suspicious-loop-bound"));
    }

    #[test]
    fn gets_always_flagged() {
        let src = "void f() { char b[4]; gets(b); }";
        assert!(Checkmarx.flags(src, 5));
    }

    #[test]
    fn unparseable_source_yields_nothing() {
        assert!(Checkmarx.scan("not c at all {{{").is_empty());
    }
}
