//! Cpf abstract syntax tree.

/// Binary operators (C semantics on unsigned 64-bit values, except the
/// comparisons which yield 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `+`
    Add,
    /// `-`
    Sub,
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

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `~`
    BitNot,
}

/// The two builtin pointer objects field paths hang off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// The packet under adjudication (`pkt->...`).
    Pkt,
    /// The endpoint info block (`info->...`).
    Info,
}

/// Expressions. Each node carries the source position of its head token
/// for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int {
        /// Value.
        value: u64,
        /// Position.
        pos: (usize, usize),
    },
    /// Variable reference (global, local, or parameter).
    Var {
        /// Name.
        name: String,
        /// Position.
        pos: (usize, usize),
    },
    /// Builtin field access, e.g. `pkt->ip.proto` or `info->addr.ip`.
    Field {
        /// Which object.
        base: Base,
        /// Dotted path after the arrow.
        path: String,
        /// Position.
        pos: (usize, usize),
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Position.
        pos: (usize, usize),
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Position.
        pos: (usize, usize),
    },
    /// Function call — parsed so sema can reject it with a clear message.
    Call {
        /// Callee name.
        name: String,
        /// Position.
        pos: (usize, usize),
    },
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Local declaration `type name = expr;` (initializer required — C
    /// would allow uninitialized locals, but monitors have no reason to).
    Decl {
        /// Variable name.
        name: String,
        /// Initializer.
        init: Expr,
        /// Position.
        pos: (usize, usize),
    },
    /// Assignment `name = expr;` to a local, parameter, or global.
    Assign {
        /// Target variable.
        name: String,
        /// Value.
        value: Expr,
        /// Position.
        pos: (usize, usize),
    },
    /// `if (cond) then [else els]`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
    },
    /// `while (cond) body`.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; step) body`. `continue` jumps to `step`.
    For {
        /// Loop initializer (declaration or assignment), if any.
        init: Option<Box<Stmt>>,
        /// Condition (absent = always true).
        cond: Option<Expr>,
        /// Step statement (assignment), if any.
        step: Option<Box<Stmt>>,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `return expr;` (or `return;` which returns 0).
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Position.
        pos: (usize, usize),
    },
    /// `break;`
    Break {
        /// Position.
        pos: (usize, usize),
    },
    /// `continue;`
    Continue {
        /// Position.
        pos: (usize, usize),
    },
}

/// A global variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Constant initializer value.
    pub init: u64,
    /// Position.
    pub pos: (usize, usize),
}

/// A function definition. In Cpf every function is a monitor entry point;
/// the conventional signature is `(const union packet *pkt, uint32_t len)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Func {
    /// Function name (becomes the PFVM entry-point name).
    pub name: String,
    /// Name bound to the packet object, if declared (e.g. `pkt`).
    pub pkt_param: Option<String>,
    /// Name bound to the packet length, if declared (e.g. `len`).
    pub len_param: Option<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Position.
    pub pos: (usize, usize),
}

/// A whole translation unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Unit {
    /// Global variables in declaration order.
    pub globals: Vec<Global>,
    /// Functions in declaration order.
    pub funcs: Vec<Func>,
}
