//! Integration tests of the dependence analyses on realistic shapes:
//! loops with guards, switch dispatch, interprocedural call graphs, and the
//! control-range table Algorithm 1 consumes.

use sevuldet_analysis::ranges::{control_ranges, reconcile, symbolic_ranges, RangeKind};
use sevuldet_analysis::{NodeId, Pdg, ProgramAnalysis};

fn pdg(src: &str, func: &str) -> Pdg {
    let p = sevuldet_lang::parse(src).unwrap();
    let built = Pdg::build(p.function(func).unwrap());
    built
}

fn node(pdg: &Pdg, first_token: &str) -> NodeId {
    pdg.cfg
        .node_ids()
        .find(|id| pdg.cfg.node(*id).tokens.first().map(String::as_str) == Some(first_token))
        .unwrap_or_else(|| panic!("no node starting with {first_token}"))
}

#[test]
fn guard_chain_controls_exactly_its_arms() {
    let src = r#"void f(int n) {
    if (n < 0) {
        a();
    } else if (n < 10) {
        b();
    } else {
        c();
    }
    d();
}"#;
    let pdg = pdg(src, "f");
    let d = node(&pdg, "d");
    assert!(
        pdg.control_preds(d).is_empty(),
        "post-chain statement is unconditional"
    );
    for arm in ["a", "b", "c"] {
        let n = node(&pdg, arm);
        assert!(!pdg.control_preds(n).is_empty(), "{arm} is guarded");
    }
}

#[test]
fn loop_carried_and_guard_dependences_compose() {
    let src = r#"void f(int n) {
    int sum = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) {
            sum = sum + i;
        }
    }
    g(sum);
}"#;
    let pdg = pdg(src, "f");
    let update = node(&pdg, "sum");
    let use_ = node(&pdg, "g");
    // The accumulated value reaches the final use...
    assert!(pdg
        .data_preds(use_)
        .any(|d| d.from == update && d.var == "sum"));
    // ...and the guarding is *chained* (FOW control dependence is direct,
    // not transitive): the update depends on the parity test, which in turn
    // depends on the loop condition.
    let guards = pdg.control_preds(update);
    assert_eq!(guards.len(), 1, "direct guard only");
    let parity = guards[0];
    assert!(pdg.cfg.node(parity).tokens.contains(&"if".to_string()));
    let outer = pdg.control_preds(parity);
    assert!(outer
        .iter()
        .any(|&n| pdg.cfg.node(n).tokens.first().map(String::as_str) == Some("for")));
}

#[test]
fn interprocedural_call_graph_shape() {
    let src = r#"
int parse_len(char *s) { return atoi(s); }
void copy_out(char *d, char *s, int n) { memcpy(d, s, n); }
void route(char *d, char *s) {
    int n = parse_len(s);
    copy_out(d, s, n);
}
int main() { char d[8]; char s[8]; route(d, s); return 0; }
"#;
    let p = sevuldet_lang::parse(src).unwrap();
    let a = ProgramAnalysis::analyze(&p);
    assert_eq!(a.callgraph.calls_to("parse_len").count(), 1);
    assert_eq!(a.callgraph.calls_to("copy_out").count(), 1);
    assert_eq!(a.callgraph.calls_from("route").count(), 2);
    assert!(a.pdg("route").is_some());
    assert!(a.pdg("missing").is_none());
    let site = a.callgraph.calls_to("route").next().unwrap();
    assert_eq!(site.caller, "main");
}

#[test]
fn do_while_range_covers_cond_line() {
    let src = "void f(int n) {\n    do {\n        n--;\n    } while (n > 0);\n}";
    let p = sevuldet_lang::parse(src).unwrap();
    let rs = control_ranges(p.function("f").unwrap());
    let dw = rs.iter().find(|r| r.kind == RangeKind::DoWhile).unwrap();
    assert_eq!(dw.start_line, 2);
    assert_eq!(dw.end_line, 4, "the `}} while (...)` line closes the range");
}

#[test]
fn symbolic_reconcile_is_idempotent_on_correct_ranges() {
    let src = r#"void f(int n) {
    while (n > 0) {
        if (n == 3) {
            n = 0;
        }
        n--;
    }
}"#;
    let p = sevuldet_lang::parse(src).unwrap();
    let mut rs = control_ranges(p.function("f").unwrap());
    let before = rs.clone();
    let sym = symbolic_ranges(src);
    reconcile(&mut rs, &sym);
    assert_eq!(rs, before, "correct ranges unchanged by reconciliation");
}

#[test]
fn switch_head_guards_every_case_body() {
    let src = r#"void f(int x) {
    switch (x) {
    case 1:
        a();
        break;
    case 2:
        b();
        break;
    }
    after();
}"#;
    let pdg = pdg(src, "f");
    for arm in ["a", "b"] {
        let n = node(&pdg, arm);
        assert!(!pdg.control_preds(n).is_empty());
    }
    let after = node(&pdg, "after");
    assert!(pdg.control_preds(after).is_empty());
}

#[test]
fn entry_parameters_feed_first_uses_only_until_redefined() {
    let src = r#"void f(int n) {
    g(n);
    n = 5;
    h(n);
}"#;
    let pdg = pdg(src, "f");
    let g = node(&pdg, "g");
    let h = node(&pdg, "h");
    let entry = pdg.cfg.entry();
    assert!(pdg.data_preds(g).any(|d| d.from == entry));
    assert!(
        !pdg.data_preds(h).any(|d| d.from == entry),
        "redefinition kills the parameter def"
    );
}
