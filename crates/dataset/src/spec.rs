//! Corpus sample types and the source-text builder used by templates.

use sevuldet_gadget::Category;
use std::collections::HashSet;
use std::fmt;

/// CWE-style vulnerability classes seeded by the generators (the subset the
/// paper's four categories exercise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cwe {
    /// CWE-121/787: stack buffer overflow via unchecked copy length.
    BufferOverflow,
    /// CWE-125/787: array index out of bounds.
    OutOfBounds,
    /// CWE-416: use after free.
    UseAfterFree,
    /// CWE-415: double free.
    DoubleFree,
    /// CWE-476: NULL-pointer dereference.
    NullDeref,
    /// CWE-190: integer overflow in arithmetic feeding a sensitive sink.
    IntegerOverflow,
    /// CWE-369: division by zero.
    DivByZero,
    /// CWE-835: loop with unreachable exit condition.
    InfiniteLoop,
}

impl Cwe {
    /// CWE identifier string.
    pub fn id(&self) -> &'static str {
        match self {
            Cwe::BufferOverflow => "CWE-121",
            Cwe::OutOfBounds => "CWE-125",
            Cwe::UseAfterFree => "CWE-416",
            Cwe::DoubleFree => "CWE-415",
            Cwe::NullDeref => "CWE-476",
            Cwe::IntegerOverflow => "CWE-190",
            Cwe::DivByZero => "CWE-369",
            Cwe::InfiniteLoop => "CWE-835",
        }
    }
}

impl fmt::Display for Cwe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Which simulated corpus a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Synthetic SARD-style test case.
    SardSim,
    /// Synthetic NVD-style (more complex, multi-function) case.
    NvdSim,
    /// Xen-like real-world-style code.
    XenSim,
}

/// One generated program with ground truth.
#[derive(Debug, Clone)]
pub struct ProgramSample {
    /// Stable identifier (`sard-fc-00042` style).
    pub id: String,
    /// Mini-C source text.
    pub source: String,
    /// Lines of the vulnerable statements (empty for good programs).
    pub flaw_lines: HashSet<u32>,
    /// Vulnerability class (also set on the *good* twin of a pair).
    pub cwe: Cwe,
    /// Corpus of origin.
    pub origin: Origin,
    /// Whether the program contains the flaw.
    pub vulnerable: bool,
    /// The special-token category the case was designed around.
    pub category: Category,
}

/// Line-tracking source builder used by all templates.
#[derive(Debug, Default)]
pub struct SrcBuilder {
    lines: Vec<String>,
    flaws: HashSet<u32>,
}

impl SrcBuilder {
    /// Creates an empty builder.
    pub fn new() -> SrcBuilder {
        SrcBuilder::default()
    }

    /// Emits a line at the given indent level; returns its 1-based number.
    pub fn line(&mut self, indent: usize, text: &str) -> u32 {
        self.lines
            .push(format!("{}{}", "    ".repeat(indent), text));
        self.lines.len() as u32
    }

    /// Emits a line and marks it as a flaw.
    pub fn flaw(&mut self, indent: usize, text: &str) -> u32 {
        let n = self.line(indent, text);
        self.flaws.insert(n);
        n
    }

    /// Finalizes into `(source, flaw_lines)`.
    pub fn finish(self) -> (String, HashSet<u32>) {
        (self.lines.join("\n") + "\n", self.flaws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_lines_and_flaws() {
        let mut b = SrcBuilder::new();
        assert_eq!(b.line(0, "void f() {"), 1);
        assert_eq!(b.flaw(1, "gets(buf);"), 2);
        assert_eq!(b.line(0, "}"), 3);
        let (src, flaws) = b.finish();
        assert_eq!(src, "void f() {\n    gets(buf);\n}\n");
        assert!(flaws.contains(&2));
        assert_eq!(flaws.len(), 1);
    }

    #[test]
    fn cwe_ids() {
        assert_eq!(Cwe::UseAfterFree.id(), "CWE-416");
        assert_eq!(Cwe::InfiniteLoop.to_string(), "CWE-835");
    }
}
