//! Gadget normalization (Step III).
//!
//! User-defined variable and function names carry no vulnerability semantics
//! and inflate the vocabulary, so they are mapped to ordered placeholder
//! names (`var1`, `var2`, ... and `fun1`, `fun2`, ...) in first-appearance
//! order. Keywords, library/API function names, literals, and operators are
//! kept intact; non-ASCII characters are stripped.

use crate::types::{CodeGadget, GadgetLine, GadgetView, LineTokens};
use sevuldet_analysis::libmodel::is_lib_func;
use sevuldet_lang::token::Keyword;
use std::borrow::Cow;
use std::collections::HashMap;

/// Maps user identifiers to placeholder names, one gadget at a time. Keys
/// borrow the gadget's tokens (`'a`); a placeholder's number is its map's
/// size when the name was first seen.
#[derive(Debug, Default)]
pub struct Normalizer<'a> {
    vars: HashMap<Cow<'a, str>, u32>,
    funs: HashMap<Cow<'a, str>, u32>,
}

impl<'a> Normalizer<'a> {
    /// Creates an empty normalizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalizes a whole gadget, producing a fresh mapping (two gadgets
    /// never share placeholder assignments, mirroring the paper).
    pub fn normalize_gadget(gadget: &CodeGadget) -> CodeGadget {
        let _t = sevuldet_trace::span!("gadget.normalize");
        let mut n = Normalizer::new();
        let lines = gadget
            .lines
            .iter()
            .map(|l| GadgetLine {
                func: l.func.clone(),
                line: l.line,
                tokens: n.normalize_tokens(&l.tokens),
                origin: l.origin,
            })
            .collect();
        CodeGadget {
            kind: gadget.kind,
            category: gadget.category,
            key_func: gadget.key_func.clone(),
            key_line: gadget.key_line,
            key_name: n.lookup_name(&gadget.key_name),
            lines,
        }
    }

    /// The normalized token stream of an assembled gadget, straight from its
    /// borrowed lines: `normalize_gadget(&view.to_gadget()).tokens()`
    /// without the copies.
    pub fn normalize_view(view: &GadgetView<'a>) -> Vec<String> {
        let _t = sevuldet_trace::span!("gadget.normalize");
        let mut n = Normalizer::new();
        let mut out = Vec::with_capacity(view.token_len());
        for l in &view.lines {
            match l.tokens {
                LineTokens::Node(t) => n.push_normalized(t, &mut out),
                LineTokens::Fixed(t) => n.push_normalized(t, &mut out),
            }
        }
        out
    }

    /// Normalizes one token sequence in place-order.
    pub fn normalize_tokens(&mut self, tokens: &'a [String]) -> Vec<String> {
        let mut out = Vec::with_capacity(tokens.len());
        self.push_normalized(tokens, &mut out);
        out
    }

    /// Appends the normalized form of one line's tokens to `out`. An
    /// identifier followed by `(` on the same line is a function name.
    fn push_normalized<S: AsRef<str>>(&mut self, tokens: &'a [S], out: &mut Vec<String>) {
        for (i, t) in tokens.iter().enumerate() {
            let ascii = ascii_only(t.as_ref());
            if !is_identifier(&ascii) || keep_verbatim(&ascii) {
                out.push(ascii.into_owned());
                continue;
            }
            let is_call = tokens.get(i + 1).map(AsRef::as_ref) == Some("(");
            let (map, prefix) = if is_call {
                (&mut self.funs, "fun")
            } else {
                (&mut self.vars, "var")
            };
            let next = map.len() as u32 + 1;
            out.push(placeholder(prefix, *map.entry(ascii).or_insert(next)));
        }
    }

    fn lookup_name(&self, name: &str) -> String {
        match self.funs.get(name) {
            Some(&n) => placeholder("fun", n),
            None => match self.vars.get(name) {
                Some(&n) => placeholder("var", n),
                None => name.to_string(),
            },
        }
    }
}

/// `prefix` followed by the decimal digits of `n` (`var12`), in one
/// allocation.
fn placeholder(prefix: &str, n: u32) -> String {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let mut s = String::with_capacity(prefix.len() + digits.len() - at);
    s.push_str(prefix);
    s.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    s
}

/// `s` without its non-ASCII characters, borrowed when it has none.
fn ascii_only(s: &str) -> Cow<'_, str> {
    if s.is_ascii() {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(s.chars().filter(char::is_ascii).collect())
    }
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Tokens kept verbatim: keywords, library/API function names, `main`, and
/// type-ish words that survived tokenization.
fn keep_verbatim(s: &str) -> bool {
    Keyword::from_word(s).is_some() || is_lib_func(s) || s == "main" || s == "NULL"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Category, GadgetKind, LineOrigin};

    fn gadget(lines: Vec<Vec<&str>>) -> CodeGadget {
        CodeGadget {
            kind: GadgetKind::PathSensitive,
            category: Category::Fc,
            key_func: "f".into(),
            key_line: 1,
            key_name: "strncpy".into(),
            lines: lines
                .into_iter()
                .enumerate()
                .map(|(i, toks)| GadgetLine {
                    func: "f".into(),
                    line: i as u32 + 1,
                    tokens: toks.into_iter().map(String::from).collect(),
                    origin: LineOrigin::Stmt,
                })
                .collect(),
        }
    }

    #[test]
    fn variables_renamed_in_first_appearance_order() {
        let g = gadget(vec![
            vec!["int", "count", "=", "limit", ";"],
            vec!["count", "=", "count", "+", "1", ";"],
        ]);
        let n = Normalizer::normalize_gadget(&g);
        assert_eq!(n.lines[0].tokens, vec!["int", "var1", "=", "var2", ";"]);
        assert_eq!(n.lines[1].tokens, vec!["var1", "=", "var1", "+", "1", ";"]);
    }

    #[test]
    fn library_functions_and_keywords_kept() {
        let g = gadget(vec![
            vec!["if", "(", "n", "<", "16", ")", "{"],
            vec!["strncpy", "(", "dest", ",", "data", ",", "n", ")", ";"],
        ]);
        let n = Normalizer::normalize_gadget(&g);
        assert_eq!(n.lines[0].tokens[0], "if");
        assert_eq!(n.lines[1].tokens[0], "strncpy");
        // dest/data/n got var names; n consistent across lines.
        assert_eq!(n.lines[0].tokens[2], "var1"); // n first appears in line 0
        assert_eq!(n.lines[1].tokens[6], "var1");
    }

    #[test]
    fn user_functions_renamed_separately_from_vars() {
        let g = gadget(vec![vec!["helper", "(", "helper_result", ")", ";"]]);
        let n = Normalizer::normalize_gadget(&g);
        assert_eq!(n.lines[0].tokens[0], "fun1");
        assert_eq!(n.lines[0].tokens[2], "var1");
    }

    #[test]
    fn main_and_literals_survive() {
        let g = gadget(vec![vec!["main", "(", ")", ";"], vec!["x", "=", "42", ";"]]);
        let n = Normalizer::normalize_gadget(&g);
        assert_eq!(n.lines[0].tokens[0], "main");
        assert_eq!(n.lines[1].tokens[2], "42");
    }

    #[test]
    fn non_ascii_stripped() {
        let g = gadget(vec![vec!["x\u{00e9}", "=", "1", ";"]]);
        let n = Normalizer::normalize_gadget(&g);
        assert_eq!(n.lines[0].tokens[0], "var1"); // "xé" -> "x" -> var1
    }

    #[test]
    fn placeholders_count_past_nine() {
        let names: Vec<String> = (0..12).map(|i| format!("v{i}")).collect();
        let line: Vec<&str> = names.iter().map(String::as_str).collect();
        let n = Normalizer::normalize_gadget(&gadget(vec![line]));
        assert_eq!(n.lines[0].tokens[0], "var1");
        assert_eq!(n.lines[0].tokens[9], "var10");
        assert_eq!(n.lines[0].tokens[11], "var12");
        assert_eq!(placeholder("fun", 4_000_000_000), "fun4000000000");
    }

    #[test]
    fn identical_structure_normalizes_identically() {
        // Different user names, same shape → same normalized text. This is
        // what lets the detector generalise across naming conventions.
        let a = gadget(vec![vec![
            "strncpy", "(", "dst", ",", "src", ",", "len", ")", ";",
        ]]);
        let b = gadget(vec![vec![
            "strncpy", "(", "out", ",", "in_", ",", "cnt", ")", ";",
        ]]);
        assert_eq!(
            Normalizer::normalize_gadget(&a).to_text(),
            Normalizer::normalize_gadget(&b).to_text()
        );
    }
}
