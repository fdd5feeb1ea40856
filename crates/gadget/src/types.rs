//! Core gadget types (Definitions 5 and 7 of the paper).

use std::fmt;

/// The four special-token categories of Step I.2 (following SySeVR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Library/API function call.
    Fc,
    /// Array usage.
    Au,
    /// Pointer usage.
    Pu,
    /// Arithmetic expression.
    Ae,
}

impl Category {
    /// All categories, in the paper's order.
    pub const ALL: [Category; 4] = [Category::Fc, Category::Au, Category::Pu, Category::Ae];

    /// The paper's abbreviation (FC/AU/PU/AE).
    pub fn abbrev(&self) -> &'static str {
        match self {
            Category::Fc => "FC",
            Category::Au => "AU",
            Category::Pu => "PU",
            Category::Ae => "AE",
        }
    }

    /// The paper's long name.
    pub fn long_name(&self) -> &'static str {
        match self {
            Category::Fc => "Library/API function call",
            Category::Au => "Array usage",
            Category::Pu => "Pointer usage",
            Category::Ae => "Arithmetic expression",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// How a gadget was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GadgetKind {
    /// Classic code gadget (Definition 5): stacked dependent statements.
    Classic,
    /// Path-sensitive code gadget (Definition 7): slice plus control-range
    /// delimiters inserted by Algorithm 1.
    PathSensitive,
}

/// Where a gadget line came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineOrigin {
    /// A sliced program statement.
    Stmt,
    /// A control-range *opening* delimiter inserted by Algorithm 1
    /// (e.g. `} else {`).
    RangeOpen,
    /// A control-range *closing* delimiter inserted by Algorithm 1 (`}`).
    RangeClose,
}

/// One line of a code gadget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GadgetLine {
    /// Function the line belongs to.
    pub func: String,
    /// 1-based line in the original source.
    pub line: u32,
    /// Surface tokens.
    pub tokens: Vec<String>,
    /// Provenance of the line.
    pub origin: LineOrigin,
}

/// A code gadget: an ordered sequence of statements (and, when
/// path-sensitive, scope delimiters) generated from one special token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeGadget {
    /// Classic or path-sensitive.
    pub kind: GadgetKind,
    /// The special-token category that seeded the gadget.
    pub category: Category,
    /// Function containing the special token.
    pub key_func: String,
    /// Line of the special token.
    pub key_line: u32,
    /// The special token's name (callee / array / pointer / expression var).
    pub key_name: String,
    /// Ordered gadget lines.
    pub lines: Vec<GadgetLine>,
}

impl CodeGadget {
    /// The flattened token stream of the gadget (what gets embedded).
    pub fn tokens(&self) -> Vec<String> {
        self.lines.iter().flat_map(|l| l.tokens.clone()).collect()
    }

    /// [`CodeGadget::tokens`] for an owner: moves the tokens out instead of
    /// copying them.
    pub fn into_tokens(self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.token_len());
        for l in self.lines {
            out.extend(l.tokens);
        }
        out
    }

    /// Total number of tokens.
    pub fn token_len(&self) -> usize {
        self.lines.iter().map(|l| l.tokens.len()).sum()
    }

    /// The `(func, line)` pairs of the *statement* lines (used for
    /// manifest-driven labeling — delimiters never carry a flaw).
    pub fn stmt_locations(&self) -> impl Iterator<Item = (&str, u32)> {
        self.lines
            .iter()
            .filter(|l| l.origin == LineOrigin::Stmt)
            .map(|l| (l.func.as_str(), l.line))
    }

    /// Renders the gadget as text, one line per gadget line.
    pub fn to_text(&self) -> String {
        self.lines
            .iter()
            .map(|l| l.tokens.join(" "))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for CodeGadget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{} {:?} gadget @ {}:{} `{}`]",
            self.category, self.kind, self.key_func, self.key_line, self.key_name
        )?;
        f.write_str(&self.to_text())
    }
}

/// The tokens of a [`LineView`]: a CFG node's own tokens, or a fixed
/// delimiter Algorithm 1 inserts where no node has a token on the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineTokens<'a> {
    /// The tokens of the CFG node the line comes from.
    Node(&'a [String]),
    /// A delimiter such as `} else {`.
    Fixed(&'static [&'static str]),
}

impl LineTokens<'_> {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        match self {
            LineTokens::Node(t) => t.len(),
            LineTokens::Fixed(t) => t.len(),
        }
    }

    /// Whether the line has no tokens.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tokens as owned strings.
    pub fn to_vec(&self) -> Vec<String> {
        match self {
            LineTokens::Node(t) => t.to_vec(),
            LineTokens::Fixed(t) => t.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// One line of a [`GadgetView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineView<'a> {
    /// Function the line belongs to.
    pub func: &'a str,
    /// 1-based line in the original source.
    pub line: u32,
    /// Surface tokens, borrowed.
    pub tokens: LineTokens<'a>,
    /// Provenance of the line.
    pub origin: LineOrigin,
}

/// A code gadget as Algorithm 1 assembles it: the same lines as a
/// [`CodeGadget`], borrowing names and tokens from the program analysis
/// instead of copying them. [`GadgetView::to_gadget`] makes the owned
/// gadget; the normalizer reads a view directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GadgetView<'a> {
    /// Classic or path-sensitive.
    pub kind: GadgetKind,
    /// The special-token category that seeded the gadget.
    pub category: Category,
    /// Function containing the special token.
    pub key_func: &'a str,
    /// Line of the special token.
    pub key_line: u32,
    /// The special token's name.
    pub key_name: &'a str,
    /// Ordered gadget lines.
    pub lines: Vec<LineView<'a>>,
}

impl<'a> GadgetView<'a> {
    /// Total number of tokens.
    pub fn token_len(&self) -> usize {
        self.lines.iter().map(|l| l.tokens.len()).sum()
    }

    /// The `(func, line)` pairs of the *statement* lines, as
    /// [`CodeGadget::stmt_locations`].
    pub fn stmt_locations(&self) -> impl Iterator<Item = (&'a str, u32)> + '_ {
        self.lines
            .iter()
            .filter(|l| l.origin == LineOrigin::Stmt)
            .map(|l| (l.func, l.line))
    }

    /// The owned gadget.
    pub fn to_gadget(&self) -> CodeGadget {
        CodeGadget {
            kind: self.kind,
            category: self.category,
            key_func: self.key_func.to_string(),
            key_line: self.key_line,
            key_name: self.key_name.to_string(),
            lines: self
                .lines
                .iter()
                .map(|l| GadgetLine {
                    func: l.func.to_string(),
                    line: l.line,
                    tokens: l.tokens.to_vec(),
                    origin: l.origin,
                })
                .collect(),
        }
    }
}

/// A gadget paired with its ground-truth label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledGadget {
    /// The gadget.
    pub gadget: CodeGadget,
    /// `true` when the gadget covers a vulnerable statement.
    pub vulnerable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(tokens: &[&str], origin: LineOrigin) -> GadgetLine {
        GadgetLine {
            func: "f".into(),
            line: 1,
            tokens: tokens.iter().map(|s| s.to_string()).collect(),
            origin,
        }
    }

    #[test]
    fn token_stream_flattens_lines() {
        let g = CodeGadget {
            kind: GadgetKind::PathSensitive,
            category: Category::Fc,
            key_func: "f".into(),
            key_line: 2,
            key_name: "strncpy".into(),
            lines: vec![
                line(&["if", "(", "n", ")", "{"], LineOrigin::Stmt),
                line(&["strncpy", "(", "d", ")", ";"], LineOrigin::Stmt),
                line(&["}"], LineOrigin::RangeClose),
            ],
        };
        assert_eq!(g.token_len(), 11);
        assert_eq!(g.tokens()[5], "strncpy");
        assert_eq!(g.stmt_locations().count(), 2);
        assert!(g.to_text().contains("strncpy ( d ) ;"));
    }

    #[test]
    fn category_metadata() {
        assert_eq!(Category::Fc.abbrev(), "FC");
        assert_eq!(Category::ALL.len(), 4);
        assert_eq!(Category::Ae.long_name(), "Arithmetic expression");
    }
}
