//! Source positions and spans.
//!
//! SEVulDet's path-sensitive gadget generation (Algorithm 1) reasons about
//! *line numbers*: a control range is the `[min line, max line]` interval of
//! the AST subtree rooted at a key node. Every token and AST node therefore
//! carries a [`Span`] with 1-based line/column information.

use std::fmt;

/// A 1-based line/column position in a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Pos {
    /// Creates a position from 1-based line and column numbers.
    pub fn new(line: u32, col: u32) -> Self {
        Pos { line, col }
    }
}

impl Default for Pos {
    fn default() -> Self {
        Pos { line: 1, col: 1 }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A half-open region of source text, identified by its start and end
/// positions (inclusive start, inclusive end — both positions are inside the
/// spanned text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Position of the first character.
    pub start: Pos,
    /// Position of the last character.
    pub end: Pos,
}

impl Span {
    /// Creates a span from a start and end position.
    pub fn new(start: Pos, end: Pos) -> Self {
        Span { start, end }
    }

    /// A degenerate span covering a single position.
    pub fn point(pos: Pos) -> Self {
        Span {
            start: pos,
            end: pos,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// First line covered by this span (1-based).
    pub fn start_line(&self) -> u32 {
        self.start.line
    }

    /// Last line covered by this span (1-based).
    pub fn end_line(&self) -> u32 {
        self.end.line
    }

    /// Whether `line` falls inside the line range of this span.
    #[cfg(test)]
    pub fn contains_line(&self, line: u32) -> bool {
        self.start.line <= line && line <= self.end.line
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.start == self.end {
            write!(f, "{}", self.start)
        } else {
            write!(f, "{}-{}", self.start, self.end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_takes_extremes() {
        let a = Span::new(Pos::new(2, 5), Pos::new(3, 1));
        let b = Span::new(Pos::new(1, 9), Pos::new(2, 7));
        let m = a.merge(b);
        assert_eq!(m.start, Pos::new(1, 9));
        assert_eq!(m.end, Pos::new(3, 1));
    }

    #[test]
    fn contains_line_is_inclusive() {
        let s = Span::new(Pos::new(4, 1), Pos::new(7, 2));
        assert!(s.contains_line(4));
        assert!(s.contains_line(7));
        assert!(!s.contains_line(3));
        assert!(!s.contains_line(8));
    }

    #[test]
    fn display_formats() {
        let s = Span::new(Pos::new(1, 2), Pos::new(1, 2));
        assert_eq!(s.to_string(), "1:2");
        let s = Span::new(Pos::new(1, 2), Pos::new(3, 4));
        assert_eq!(s.to_string(), "1:2-3:4");
    }
}
