//! Abstract syntax tree for mini-C.
//!
//! Every node carries a [`Span`]; statements additionally carry a [`StmtId`]
//! assigned in parse order. Line numbers are the currency of SEVulDet's
//! Algorithm 1 (control ranges are `[min line, max line]` intervals of AST
//! subtrees), so the tree is deliberately designed to make per-statement line
//! lookup trivial.

use crate::span::Span;
use std::fmt;

/// Unique identifier of a statement within one parsed [`Program`].
///
/// Ids are assigned in parse order and are dense (0..n), so analyses can use
/// them as vector indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

impl StmtId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// Iterates over the function definitions in the program.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|i| match i {
            Item::Function(f) => Some(f),
            _ => None,
        })
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function definition.
    Function(Function),
    /// A global variable declaration.
    Global(Decl),
    /// A struct definition (field types are kept, but mini-C performs no
    /// layout or type checking).
    Struct(StructDef),
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Struct tag name.
    pub name: String,
    /// Field declarations.
    pub fields: Vec<Decl>,
    /// Source span of the whole definition.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: TypeSpec,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Function body.
    pub body: Block,
    /// Source span of the whole definition.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: TypeSpec,
    /// `Some(dims)` when declared with array syntax (`int a[]`).
    pub array_dims: Vec<Option<i64>>,
    /// Source span.
    pub span: Span,
}

/// A (simplified) type: a base name plus pointer depth. Arrays live on the
/// declarator ([`Decl::array_dims`]), as in C.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TypeSpec {
    /// Base type name, e.g. `"int"`, `"unsigned int"`, `"struct buf"`.
    pub name: String,
    /// Number of `*`s.
    pub ptr_depth: u8,
}

impl TypeSpec {
    /// Creates a non-pointer type.
    pub fn named(name: impl Into<String>) -> Self {
        TypeSpec {
            name: name.into(),
            ptr_depth: 0,
        }
    }

    /// Creates a pointer type of the given depth.
    pub fn pointer(name: impl Into<String>, depth: u8) -> Self {
        TypeSpec {
            name: name.into(),
            ptr_depth: depth,
        }
    }

    /// Whether the type is a pointer.
    pub fn is_pointer(&self) -> bool {
        self.ptr_depth > 0
    }
}

impl fmt::Display for TypeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, "*".repeat(self.ptr_depth as usize))
    }
}

/// A variable declaration (local, global, or struct field).
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Declared name.
    pub name: String,
    /// Declared type.
    pub ty: TypeSpec,
    /// Array dimensions; `None` entries are unsized (`[]`).
    pub array_dims: Vec<Option<i64>>,
    /// Optional initializer.
    pub init: Option<Expr>,
    /// Source span.
    pub span: Span,
}

impl Decl {
    /// Whether this declaration declares an array.
    pub fn is_array(&self) -> bool {
        !self.array_dims.is_empty()
    }
}

/// A statement: id + kind + span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Dense per-program id in parse order.
    pub id: StmtId,
    /// What the statement is.
    pub kind: StmtKind,
    /// Source span of the whole statement (for control statements this spans
    /// the entire construct including its body — exactly the "control range"
    /// of Algorithm 1).
    pub span: Span,
}

impl Stmt {
    /// The line the statement *starts* on — the key used to identify it in
    /// code gadgets.
    pub fn line(&self) -> u32 {
        self.span.start.line
    }
}

/// An `else if` arm of an [`StmtKind::If`] chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ElseIf {
    /// The arm's condition.
    pub cond: Expr,
    /// The arm's body.
    pub body: Block,
    /// Span from the `else if` keywords to the end of the body.
    pub span: Span,
}

/// The trailing `else` of an [`StmtKind::If`] chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ElseBlock {
    /// The else body.
    pub body: Block,
    /// Span from the `else` keyword to the end of the body.
    pub span: Span,
}

/// A `case`/`default` arm of a switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// The label (`case expr` or `default`).
    pub label: CaseLabel,
    /// Statements until the next label or the closing brace.
    pub body: Vec<Stmt>,
    /// Span from the label to the last statement of the arm.
    pub span: Span,
}

/// Switch case label.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseLabel {
    /// `case <const-expr>:`
    Case(Expr),
    /// `default:`
    Default,
}

/// Statement kinds. The eight *key node* kinds of Algorithm 1 map to:
/// `If` (if / else-if / else), `While`, `DoWhile`, `For`, `Switch` (switch /
/// case).
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// A local declaration.
    Decl(Decl),
    /// An expression statement.
    Expr(Expr),
    /// A free-standing block.
    Block(Block),
    /// An `if` chain with flattened `else if` arms, mirroring how Algorithm 1
    /// treats `if` / `elseif` / `else` as three distinct key-node kinds.
    If {
        /// The `if` condition.
        cond: Expr,
        /// The `if` body.
        then: Block,
        /// Flattened `else if` arms.
        else_ifs: Vec<ElseIf>,
        /// Trailing `else`, if present.
        else_block: Option<ElseBlock>,
    },
    /// A `while` loop.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// A `do { } while (cond);` loop.
    DoWhile {
        /// Loop body.
        body: Block,
        /// Loop condition (evaluated after the body).
        cond: Expr,
    },
    /// A `for` loop. `init` may be a declaration or expression statement.
    For {
        /// Optional init clause.
        init: Option<Box<Stmt>>,
        /// Optional condition.
        cond: Option<Expr>,
        /// Optional step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// A `switch` statement.
    Switch {
        /// The switched-on expression.
        scrutinee: Expr,
        /// Case arms in source order.
        cases: Vec<SwitchCase>,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return;` / `return expr;`
    Return(Option<Expr>),
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Span from `{` to `}`.
    pub span: Span,
}

/// An expression: kind + span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

/// Unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `+x`
    Plus,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `*p`
    Deref,
    /// `&x`
    AddrOf,
}

impl UnaryOp {
    /// Surface spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Plus => "+",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::Deref => "*",
            UnaryOp::AddrOf => "&",
        }
    }
}

/// Binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `^`
    BitXor,
    /// `|`
    BitOr,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl BinaryOp {
    /// Surface spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::Lt => "<",
            BinaryOp::Gt => ">",
            BinaryOp::Le => "<=",
            BinaryOp::Ge => ">=",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::BitAnd => "&",
            BinaryOp::BitXor => "^",
            BinaryOp::BitOr => "|",
            BinaryOp::LogAnd => "&&",
            BinaryOp::LogOr => "||",
        }
    }

    /// Whether the operator is arithmetic (used by the AE special-token
    /// detector).
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem
        )
    }
}

/// Compound-assignment operator (`=` is `AssignOp::Assign`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
    /// `<<=`
    Shl,
    /// `>>=`
    Shr,
    /// `&=`
    And,
    /// `|=`
    Or,
    /// `^=`
    Xor,
}

impl AssignOp {
    /// Surface spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
            AssignOp::Shl => "<<=",
            AssignOp::Shr => ">>=",
            AssignOp::And => "&=",
            AssignOp::Or => "|=",
            AssignOp::Xor => "^=",
        }
    }

    /// The binary operator a compound assignment desugars to, if any.
    pub fn binary_op(&self) -> Option<BinaryOp> {
        Some(match self {
            AssignOp::Assign => return None,
            AssignOp::Add => BinaryOp::Add,
            AssignOp::Sub => BinaryOp::Sub,
            AssignOp::Mul => BinaryOp::Mul,
            AssignOp::Div => BinaryOp::Div,
            AssignOp::Rem => BinaryOp::Rem,
            AssignOp::Shl => BinaryOp::Shl,
            AssignOp::Shr => BinaryOp::Shr,
            AssignOp::And => BinaryOp::BitAnd,
            AssignOp::Or => BinaryOp::BitOr,
            AssignOp::Xor => BinaryOp::BitXor,
        })
    }
}

/// Argument of `sizeof`.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeofArg {
    /// `sizeof(int)`
    Type(TypeSpec),
    /// `sizeof expr`
    Expr(Box<Expr>),
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Character literal (value).
    CharLit(i64),
    /// String literal.
    StrLit(String),
    /// Variable reference.
    Ident(String),
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Assignment (simple or compound).
    Assign {
        /// The operator.
        op: AssignOp,
        /// Assignment target (lvalue).
        target: Box<Expr>,
        /// Assigned value.
        value: Box<Expr>,
    },
    /// `cond ? a : b`
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
    },
    /// A direct function call (mini-C has no function pointers).
    Call {
        /// Called function name.
        callee: String,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// `base[index]`
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `base.field` / `base->field`
    Member {
        /// Accessed expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// Whether the access used `->`.
        arrow: bool,
    },
    /// `(type)expr`
    Cast {
        /// Target type.
        ty: TypeSpec,
        /// Casted expression.
        expr: Box<Expr>,
    },
    /// `sizeof(...)`
    Sizeof(SizeofArg),
    /// `++x` / `--x`
    PreIncDec {
        /// Operand (lvalue).
        expr: Box<Expr>,
        /// `true` for `++`.
        inc: bool,
    },
    /// `x++` / `x--`
    PostIncDec {
        /// Operand (lvalue).
        expr: Box<Expr>,
        /// `true` for `++`.
        inc: bool,
    },
    /// `lhs, rhs`
    Comma {
        /// First (discarded) expression.
        lhs: Box<Expr>,
        /// Second (result) expression.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// The *root variable* of an lvalue expression: `a` for `a`, `a[i]`,
    /// `*a`, `a->f`, `a.f`, and nestings thereof. `None` for non-lvalues.
    pub fn root_var(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(n) => Some(n),
            ExprKind::Index { base, .. } => base.root_var(),
            ExprKind::Member { base, .. } => base.root_var(),
            ExprKind::Unary {
                op: UnaryOp::Deref, ..
            } => match &self.kind {
                ExprKind::Unary { expr, .. } => expr.root_var(),
                _ => unreachable!(),
            },
            ExprKind::Cast { expr, .. } => expr.root_var(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Pos, Span};

    fn e(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::point(Pos::new(1, 1)),
        }
    }

    #[test]
    fn root_var_walks_through_projections() {
        let base = e(ExprKind::Ident("buf".into()));
        let idx = e(ExprKind::Index {
            base: Box::new(base),
            index: Box::new(e(ExprKind::IntLit(0))),
        });
        let memb = e(ExprKind::Member {
            base: Box::new(idx),
            field: "len".into(),
            arrow: true,
        });
        assert_eq!(memb.root_var(), Some("buf"));
        let deref = e(ExprKind::Unary {
            op: UnaryOp::Deref,
            expr: Box::new(e(ExprKind::Ident("p".into()))),
        });
        assert_eq!(deref.root_var(), Some("p"));
        assert_eq!(e(ExprKind::IntLit(3)).root_var(), None);
    }

    #[test]
    fn assign_op_desugars() {
        assert_eq!(AssignOp::Add.binary_op(), Some(BinaryOp::Add));
        assert_eq!(AssignOp::Assign.binary_op(), None);
    }

    #[test]
    fn typespec_display() {
        assert_eq!(TypeSpec::pointer("char", 2).to_string(), "char**");
        assert!(TypeSpec::pointer("int", 1).is_pointer());
        assert!(!TypeSpec::named("int").is_pointer());
    }
}
