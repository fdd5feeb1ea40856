//! Gadget assembly — Algorithm 1 (Step I.4).
//!
//! Turns a two-way slice into an ordered code gadget. For *classic* gadgets
//! the sliced statements are simply stacked in line order per function
//! (Definition 5). For *path-sensitive* gadgets the control ranges crossed by
//! the slice are selected, ranges bound to the same `if`-chain or `switch`
//! group are kept together, and the ranges' opening/closing delimiters are
//! inserted so no two control scopes overlap vaguely (Definition 7).

use crate::slice::{two_way_slice, Slice, SliceConfig};
use crate::special::SpecialToken;
use crate::types::{CodeGadget, GadgetKind, GadgetView, LineOrigin, LineTokens, LineView};
use sevuldet_analysis::ranges::RangeKind;
use sevuldet_analysis::{FuncAnalysis, FuncId, ProgramAnalysis};
use sevuldet_lang::ast::Program;
use std::collections::BTreeMap;

/// Builds one gadget from one special token.
pub fn build_gadget(
    program: &Program,
    analysis: &ProgramAnalysis,
    token: &SpecialToken,
    kind: GadgetKind,
    slice_cfg: &SliceConfig,
) -> CodeGadget {
    let slice = two_way_slice(analysis, &token.func, token.node, slice_cfg);
    build_gadget_from_slice(program, analysis, token, kind, &slice)
}

/// Assembles a gadget from an already-computed slice: [`assemble`] made
/// owned. `_program` is the program `analysis` was computed from; the
/// control ranges Algorithm 1 needs are precomputed in `analysis`.
pub fn build_gadget_from_slice(
    _program: &Program,
    analysis: &ProgramAnalysis,
    token: &SpecialToken,
    kind: GadgetKind,
    slice: &Slice<'_>,
) -> CodeGadget {
    assemble(analysis, token, kind, slice).to_gadget()
}

/// Assembles the gadget of a slice, borrowing every name and token from
/// `analysis` (which also holds each function's control ranges).
pub fn assemble<'a>(
    analysis: &'a ProgramAnalysis,
    token: &'a SpecialToken,
    kind: GadgetKind,
    slice: &Slice<'_>,
) -> GadgetView<'a> {
    let _t = sevuldet_trace::span!("gadget.assemble");

    // Group slice nodes per function; one gadget line per source line. The
    // slice yields each function's nodes by ascending id, so the first node
    // on a line wins (a `for` header beats its step on the same line).
    let mut per_func: Vec<(FuncId, BTreeMap<u32, LineView<'a>>)> = Vec::new();
    for (f, n) in slice.iter() {
        let fa = analysis.func(f);
        let node = fa.pdg.cfg.node(n);
        if node.tokens.is_empty() {
            continue;
        }
        if per_func.last().map(|(g, _)| *g) != Some(f) {
            per_func.push((f, BTreeMap::new()));
        }
        let lines = &mut per_func.last_mut().expect("pushed above").1;
        lines.entry(node.line).or_insert(LineView {
            func: &fa.name,
            line: node.line,
            tokens: LineTokens::Node(&node.tokens),
            origin: LineOrigin::Stmt,
        });
    }

    if kind == GadgetKind::PathSensitive {
        for (f, lines) in &mut per_func {
            insert_control_ranges(analysis.func(*f), lines);
        }
    }

    let involved: Vec<FuncId> = per_func.iter().map(|(f, _)| *f).collect();
    let mut lines = Vec::new();
    for f in function_order(analysis, &involved) {
        let i = involved.binary_search(&f).expect("ordered from involved");
        lines.extend(std::mem::take(&mut per_func[i].1).into_values());
    }

    GadgetView {
        kind,
        category: token.category,
        key_func: &token.func,
        key_line: token.line,
        key_name: &token.name,
        lines,
    }
}

/// Generates gadgets for every special token of a program.
pub fn generate_all(
    program: &Program,
    analysis: &ProgramAnalysis,
    tokens: &[SpecialToken],
    kind: GadgetKind,
    slice_cfg: &SliceConfig,
) -> Vec<CodeGadget> {
    tokens
        .iter()
        .map(|t| build_gadget(program, analysis, t, kind, slice_cfg))
        .collect()
}

/// The path-sensitive step: select every control range that contains a slice
/// statement, pull in the ranges bound to the same group, and insert their
/// delimiters. `lines` holds statement lines only on entry.
fn insert_control_ranges<'a>(fa: &'a FuncAnalysis, lines: &mut BTreeMap<u32, LineView<'a>>) {
    // Ranges containing a slice statement; then close over groups.
    let mut included_groups: Vec<u32> = Vec::new();
    for r in &fa.ranges {
        if r.start_line <= r.end_line
            && lines.range(r.start_line..=r.end_line).next().is_some()
            && !included_groups.contains(&r.group)
        {
            included_groups.push(r.group);
        }
    }
    if included_groups.is_empty() {
        return;
    }
    let included = || {
        fa.ranges
            .iter()
            .filter(|r| included_groups.contains(&r.group))
    };

    // Opening delimiters first: a range's header (e.g. `} else {`) beats
    // another range's bare closing `}` on the same line.
    for r in included() {
        let occupied_by_stmt = lines
            .get(&r.header_line)
            .is_some_and(|l| l.origin == LineOrigin::Stmt);
        if !occupied_by_stmt {
            let tokens = match fa.first_node_on_line(r.header_line) {
                Some(n) => LineTokens::Node(&fa.pdg.cfg.node(n).tokens),
                None => LineTokens::Fixed(match r.kind {
                    RangeKind::Else => &["}", "else", "{"],
                    RangeKind::Case => &["case", ":"],
                    RangeKind::DoWhile => &["do", "{"],
                    _ => &["{"],
                }),
            };
            lines.insert(
                r.header_line,
                LineView {
                    func: &fa.name,
                    line: r.header_line,
                    tokens,
                    origin: LineOrigin::RangeOpen,
                },
            );
        }
    }
    // Closing delimiters fill remaining gaps (cases have no brace of
    // their own; the switch's closing brace delimits them).
    for r in included() {
        if r.kind != RangeKind::Case && r.end_line > r.header_line {
            lines.entry(r.end_line).or_insert(LineView {
                func: &fa.name,
                line: r.end_line,
                tokens: LineTokens::Fixed(&["}"]),
                origin: LineOrigin::RangeClose,
            });
        }
    }
}

/// Orders the functions of a gadget (`involved`, ascending ids): callers
/// before callees (Algorithm 1 lines 32-36), by Kahn's algorithm on the
/// caller→callee subgraph; among ready functions the greatest name goes
/// first, and functions left on a cycle (mutual recursion) follow by
/// ascending name.
fn function_order(analysis: &ProgramAnalysis, involved: &[FuncId]) -> Vec<FuncId> {
    if involved.len() <= 1 {
        return involved.to_vec();
    }
    let name = |f: FuncId| analysis.func(f).name.as_str();
    let pos = |f: FuncId| involved.binary_search(&f).ok();
    let mut indeg = vec![0usize; involved.len()];
    let mut edges: Vec<Vec<FuncId>> = vec![Vec::new(); involved.len()];
    for &(caller, callee) in analysis.call_edges() {
        if let (Some(a), Some(b)) = (pos(caller), pos(callee)) {
            if a != b && !edges[a].contains(&callee) {
                edges[a].push(callee);
                indeg[b] += 1;
            }
        }
    }
    let by_name = |v: &mut Vec<FuncId>| v.sort_unstable_by(|&a, &b| name(a).cmp(name(b)));
    let mut ready: Vec<FuncId> = involved
        .iter()
        .zip(&indeg)
        .filter(|(_, &d)| d == 0)
        .map(|(&f, _)| f)
        .collect();
    by_name(&mut ready);
    let mut out = Vec::with_capacity(involved.len());
    while let Some(f) = ready.pop() {
        out.push(f);
        for &d in &edges[pos(f).expect("involved")] {
            let e = &mut indeg[pos(d).expect("involved")];
            *e -= 1;
            if *e == 0 {
                ready.push(d);
                by_name(&mut ready);
            }
        }
    }
    if out.len() < involved.len() {
        let mut rest: Vec<FuncId> = involved
            .iter()
            .copied()
            .filter(|f| !out.contains(f))
            .collect();
        by_name(&mut rest);
        out.extend(rest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::find_special_tokens;
    use crate::types::Category;
    use sevuldet_lang::parse;

    fn gadget_for(src: &str, pick: impl Fn(&SpecialToken) -> bool, kind: GadgetKind) -> CodeGadget {
        let p = parse(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let toks = find_special_tokens(&p, &a);
        let t = toks.iter().find(|t| pick(t)).expect("special token");
        build_gadget(&p, &a, t, kind, &SliceConfig::default())
    }

    /// The motivating example (Fig. 1): a guarded strncpy (safe) and an
    /// unguarded strncpy after the same guard (vulnerable) must yield the
    /// SAME classic gadget text but DIFFERENT path-sensitive gadget text.
    #[test]
    fn fig1_classic_identical_path_sensitive_distinct() {
        let safe = r#"void f(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        strncpy(dest, data, n);
    }
}"#;
        let vuln = r#"void f(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        puts("small");
    }
    strncpy(dest, data, n);
}"#;
        let is_strncpy = |t: &SpecialToken| t.category == Category::Fc && t.name == "strncpy";

        let cg_safe = gadget_for(safe, is_strncpy, GadgetKind::Classic);
        let cg_vuln = gadget_for(vuln, is_strncpy, GadgetKind::Classic);
        // Compare statement text streams, dropping lines unique to one slice
        // (the `puts` is not dependent on anything strncpy touches).
        let text = |g: &CodeGadget| {
            g.lines
                .iter()
                .map(|l| l.tokens.join(" "))
                .filter(|t| !t.contains("puts"))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            text(&cg_safe),
            text(&cg_vuln),
            "classic gadgets are indistinguishable"
        );

        let ps_safe = gadget_for(safe, is_strncpy, GadgetKind::PathSensitive);
        let ps_vuln = gadget_for(vuln, is_strncpy, GadgetKind::PathSensitive);
        assert_ne!(
            text(&ps_safe),
            text(&ps_vuln),
            "path-sensitive gadgets must differ"
        );
        // The safe gadget has strncpy BEFORE the closing `}`, the vulnerable
        // one AFTER it.
        let pos = |g: &CodeGadget, needle: &str| {
            g.lines
                .iter()
                .position(|l| l.tokens.contains(&needle.to_string()))
                .unwrap()
        };
        let close_pos = |g: &CodeGadget| {
            g.lines
                .iter()
                .position(|l| l.origin == LineOrigin::RangeClose)
                .unwrap()
        };
        assert!(pos(&ps_safe, "strncpy") < close_pos(&ps_safe));
        assert!(pos(&ps_vuln, "strncpy") > close_pos(&ps_vuln));
    }

    #[test]
    fn else_chain_keeps_bound_delimiters() {
        // Fig. 3 shape: strncpy in the else arm; the if and else-if ranges
        // are bound into the gadget for logical integrity.
        let src = r#"void f(char *dest, char *data, int n) {
    if (n < 0) {
        n = 0;
    } else if (n > 16) {
        n = 16;
    } else {
        strncpy(dest, data, n);
    }
}"#;
        let g = gadget_for(
            src,
            |t| t.category == Category::Fc && t.name == "strncpy",
            GadgetKind::PathSensitive,
        );
        let text = g.to_text();
        assert!(text.contains("if ( n < 0 ) {"));
        assert!(text.contains("} else if ( n > 16 ) {"));
        assert!(text.contains("} else {"));
        assert!(text.ends_with("}"), "closing delimiter retained: {text}");
    }

    #[test]
    fn classic_gadget_has_no_delimiters() {
        let src = r#"void f(char *dest, char *data, int n) {
    if (n < 16) {
        strncpy(dest, data, n);
    }
}"#;
        let g = gadget_for(src, |t| t.category == Category::Fc, GadgetKind::Classic);
        assert!(g.lines.iter().all(|l| l.origin == LineOrigin::Stmt));
    }

    #[test]
    fn interprocedural_gadget_orders_caller_first() {
        let src = r#"void sink(char *d, char *s, int n) {
    memcpy(d, s, n);
}
void top(char *d, char *s) {
    int n = strlen(s);
    sink(d, s, n);
}"#;
        let g = gadget_for(
            src,
            |t| t.category == Category::Fc && t.name == "memcpy",
            GadgetKind::PathSensitive,
        );
        let funcs: Vec<&str> = g.lines.iter().map(|l| l.func.as_str()).collect();
        let first_top = funcs.iter().position(|f| *f == "top").unwrap();
        let first_sink = funcs.iter().position(|f| *f == "sink").unwrap();
        assert!(first_top < first_sink, "caller lines precede callee lines");
    }

    #[test]
    fn loop_range_delimits_gadget() {
        let src = r#"void f(int n) {
    int total = 0;
    while (n > 0) {
        total = total + n;
        n--;
    }
    g(total);
}"#;
        let g = gadget_for(
            src,
            |t| t.category == Category::Ae && t.name == "total",
            GadgetKind::PathSensitive,
        );
        let text = g.to_text();
        assert!(text.contains("while ( n > 0 ) {"));
        assert!(
            g.lines.iter().any(|l| l.origin == LineOrigin::RangeClose),
            "loop close delimiter present: {text}"
        );
    }

    #[test]
    fn gadget_lines_sorted_by_line_within_function() {
        let src = r#"void f(char *dest, char *data, int n) {
    int m = n + 1;
    if (m < 16) {
        strncpy(dest, data, m);
    }
}"#;
        let g = gadget_for(src, |t| t.name == "strncpy", GadgetKind::PathSensitive);
        let lines: Vec<u32> = g.lines.iter().map(|l| l.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
