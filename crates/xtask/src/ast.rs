//! A pragmatic Rust AST built on top of [`crate::lexer`].
//!
//! The token-window checks pattern-match flat token streams, which is
//! sound for needle-shaped invariants (`.unwrap()`, `f64::` comparisons)
//! but cannot answer expression-shaped questions: *do the two sides of this
//! `+` carry the same unit*, *is this closure the body of a rayon adapter*,
//! *which function does this call land in*. Those need a tree.
//!
//! The workspace is fully offline (every external dependency is a vendored
//! stub), so `syn` is not available; this module is a hand-rolled
//! recursive-descent parser over the existing token stream instead. It is
//! *not* a full Rust grammar — it parses the item/statement/expression
//! subset this workspace actually uses, and on anything it cannot parse it
//! degrades to an [`ExprKind::Opaque`] node rather than failing, so checks
//! degrade to "no finding", never to a crash or a false parse. The checks in
//! [`crate::semantic`] are written against this guarantee.
//!
//! Every parsing loop consumes at least one token per iteration and
//! recursion is depth-limited, so the parser terminates on arbitrary input.

use crate::lexer::{Tok, Token};

/// Maximum expression nesting depth before the parser bails to
/// [`ExprKind::Opaque`]; real code in this workspace nests < 40 deep.
const MAX_DEPTH: u32 = 200;

/// A parsed source file: the flat list of its top-level items.
#[derive(Debug, Default)]
pub struct File {
    pub items: Vec<Item>,
}

/// One item. Only the kinds the checks reason about are represented
/// structurally; everything else (`use`, `struct`, `const`, …) is skipped.
#[derive(Debug)]
pub enum Item {
    Fn(FnItem),
    /// `impl [Trait for] Type { items }` — `self_ty` is the type text and
    /// `of_trait` distinguishes `impl Trait for Type` (and `trait` bodies,
    /// whose default methods are likewise obligations rather than API) from
    /// inherent impls.
    Impl {
        self_ty: String,
        of_trait: bool,
        items: Vec<Item>,
    },
    Mod {
        name: String,
        items: Vec<Item>,
    },
}

/// A function (free, impl method, or trait default method).
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// `pub`/`pub(…)` present on the item.
    pub is_pub: bool,
    /// Return type text (`Result < Inserted , InsertError >`), `None` when
    /// the function returns `()`.
    pub ret: Option<String>,
    /// `None` for bodyless trait method declarations.
    pub body: Option<Block>,
    pub line: u32,
}

/// `{ stmts }` — the tail expression, if any, is the final
/// [`Stmt::Expr`] with `semi == false`.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let <pat>[: ty] = init;` — `pat` is the raw pattern text.
    Let {
        pat: String,
        init: Option<Expr>,
        line: u32,
    },
    /// Expression statement; `semi` distinguishes `f();` from a tail `f()`.
    Expr { expr: Expr, semi: bool },
    /// A nested item (fn-in-fn, use-in-fn, …).
    Item(Box<Item>),
}

/// An expression with the 1-based line it starts on.
#[derive(Debug)]
pub struct Expr {
    pub kind: ExprKind,
    pub line: u32,
}

/// Expression shapes. Text fields hold space-joined token text — enough for
/// the checks, which only ever compare names, never re-parse.
#[derive(Debug)]
pub enum ExprKind {
    /// Path or lone identifier: `x`, `Timestamp::from_days`, `f64::MAX`.
    Path(String),
    Int(String),
    Float(String),
    Str,
    Char,
    Bool(bool),
    /// `callee(args)`.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    /// `recv.name(args)`, with any `::<..>` turbofish skipped.
    Method {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
    },
    /// `base.name` — includes tuple fields (`name` = `"0"`).
    Field {
        base: Box<Expr>,
        name: String,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    Unary {
        op: &'static str,
        operand: Box<Expr>,
    },
    Binary {
        op: &'static str,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `lhs = rhs`, `lhs += rhs`, ….
    Assign {
        op: &'static str,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `operand as ty` — `ty` is the type text, e.g. `"f64"`.
    Cast {
        operand: Box<Expr>,
        ty: String,
    },
    /// `operand?`.
    Try(Box<Expr>),
    /// `&operand` / `&mut operand`.
    Ref(Box<Expr>),
    /// `|params| body` / `move |params| body`.
    Closure {
        body: Box<Expr>,
    },
    Block(Block),
    /// `if [let <pat> =] cond { then } [else els]` (pattern skipped).
    If {
        cond: Box<Expr>,
        then: Block,
        els: Option<Box<Expr>>,
    },
    /// Arms are `(pattern text, arm expression)`.
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<(String, Expr)>,
    },
    /// `while [let <pat> =] cond { body }` (pattern skipped).
    While {
        cond: Box<Expr>,
        body: Block,
    },
    /// `for <pat> in iter { body }` (pattern skipped).
    ForLoop {
        iter: Box<Expr>,
        body: Block,
    },
    Loop {
        body: Block,
    },
    Tuple(Vec<Expr>),
    Array(Vec<Expr>),
    /// `Path { field: expr, .. }` — field exprs only, names dropped.
    StructLit {
        path: String,
        fields: Vec<Expr>,
    },
    /// `name!(…)` — `args` is the best-effort parse of the interior as a
    /// comma-separated expression list (so casts inside `format!`/`assert!`
    /// bodies are still visible); unparseable interiors yield `Opaque`.
    MacroCall {
        name: String,
        args: Vec<Expr>,
    },
    Range {
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
    },
    Return(Option<Box<Expr>>),
    Break,
    Continue,
    /// Anything the parser does not understand. Checks must treat this as
    /// "unknown", never as evidence.
    Opaque,
}

/// Parse a (test-stripped) token stream into a [`File`]. Infallible by
/// design: malformed regions become `Opaque` nodes.
pub fn parse_file(tokens: &[Token]) -> File {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
    };
    File {
        items: p.parse_items(None),
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

const ASSIGN_OPS: [&str; 9] = ["=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|="];
const CMP_OPS: [&str; 6] = ["==", "!=", "<", ">", "<=", ">="];

/// Keywords that can never begin an operand, so a `<` after them is not a
/// comparison (irrelevant here) and an ident equal to one is not a path.
const EXPR_KEYWORDS: [&str; 12] = [
    "if", "match", "while", "for", "loop", "return", "break", "continue", "let", "else", "move",
    "unsafe",
];

impl<'a> Parser<'a> {
    fn tok(&self, k: usize) -> Option<&Tok> {
        self.toks.get(self.pos + k).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |t| t.line)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.tok(0), Some(Tok::Punct(s)) if *s == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_ident(&self, name: &str) -> bool {
        matches!(self.tok(0), Some(Tok::Ident(s)) if s == name)
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.at_ident(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident_text(&self) -> Option<String> {
        match self.tok(0) {
            Some(Tok::Ident(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Skip a balanced `open … close` group starting at the current token.
    /// Robust to truncation: stops at end of input.
    fn skip_group(&mut self, open: &str, close: &str) {
        if !self.eat_punct(open) {
            return;
        }
        let mut depth = 1u32;
        while !self.at_end() && depth > 0 {
            if self.at_punct(open) {
                depth += 1;
            } else if self.at_punct(close) {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Skip balanced angle brackets (`<…>`), treating `>>` as two closers.
    fn skip_angles(&mut self) {
        if !self.eat_punct("<") {
            return;
        }
        let mut depth = 1i32;
        while !self.at_end() && depth > 0 {
            if self.at_punct("<") || self.at_punct("<<") {
                depth += if self.at_punct("<<") { 2 } else { 1 };
            } else if self.at_punct(">") {
                depth -= 1;
            } else if self.at_punct(">>") {
                depth -= 2;
            } else if self.at_punct("->") || self.at_punct("=>") {
                // `->`/`=>` close nothing but contain `>`; plain skip.
            } else if self.at_punct("(") {
                self.skip_group("(", ")");
                continue;
            } else if self.at_punct("[") {
                self.skip_group("[", "]");
                continue;
            }
            self.bump();
        }
    }

    /// Skip one `#[…]` or `#![…]` attribute.
    fn skip_attr(&mut self) {
        self.bump(); // '#'
        self.eat_punct("!");
        if self.at_punct("[") {
            self.skip_group("[", "]");
        }
    }

    // -- items --------------------------------------------------------------

    /// Parse items until `closer` (or end of input). `closer` is `}` inside
    /// `mod`/`impl` bodies and `None` at top level.
    fn parse_items(&mut self, closer: Option<&str>) -> Vec<Item> {
        let mut items = Vec::new();
        let mut is_pub = false;
        while !self.at_end() {
            if let Some(c) = closer {
                if self.at_punct(c) {
                    self.bump();
                    break;
                }
            }
            if self.at_punct("#") {
                self.skip_attr();
                continue;
            }
            // Visibility qualifiers: remembered for the next `fn` item.
            if self.at_ident("pub") {
                self.bump();
                if self.at_punct("(") {
                    self.skip_group("(", ")");
                }
                is_pub = true;
                continue;
            }
            if self.at_ident("const") && matches!(self.tok(1), Some(Tok::Ident(s)) if s == "fn") {
                self.bump(); // `const fn` — fall through to `fn`
                continue;
            }
            if self.at_ident("async") || self.at_ident("unsafe") || self.at_ident("extern") {
                self.bump();
                continue;
            }
            if self.at_ident("fn") {
                items.push(Item::Fn(self.parse_fn(std::mem::take(&mut is_pub))));
                continue;
            }
            if self.at_ident("impl") {
                is_pub = false;
                items.push(self.parse_impl());
                continue;
            }
            if self.at_ident("mod") && matches!(self.tok(1), Some(Tok::Ident(_))) {
                is_pub = false;
                self.bump();
                let name = self.ident_text().unwrap_or_default();
                self.bump();
                if self.at_punct("{") {
                    self.bump();
                    let inner = self.parse_items(Some("}"));
                    items.push(Item::Mod { name, items: inner });
                } else {
                    self.eat_punct(";");
                }
                continue;
            }
            if self.at_ident("trait") {
                // Default method bodies inside traits are call-graph nodes
                // too; parse the trait body as an item list.
                is_pub = false;
                self.bump();
                while !self.at_end() && !self.at_punct("{") && !self.at_punct(";") {
                    if self.at_punct("<") {
                        self.skip_angles();
                    } else {
                        self.bump();
                    }
                }
                if self.at_punct("{") {
                    self.bump();
                    let inner = self.parse_items(Some("}"));
                    items.push(Item::Impl {
                        self_ty: String::new(),
                        of_trait: true,
                        items: inner,
                    });
                } else {
                    self.eat_punct(";");
                }
                continue;
            }
            // Anything else (`use`, `struct`, `enum`, `type`, `static`,
            // `const NAME`, `macro_rules!`, stray tokens): skip to the end of
            // the item — a `;` at depth 0 or a balanced `{…}` block. A stray
            // `}` with no enclosing body must still be consumed, or the loop
            // would stall on it.
            is_pub = false;
            if self.at_punct("}") {
                self.bump();
                continue;
            }
            self.skip_unknown_item();
        }
        items
    }

    fn skip_unknown_item(&mut self) {
        while !self.at_end() {
            if self.at_punct(";") {
                self.bump();
                return;
            }
            if self.at_punct("{") {
                self.skip_group("{", "}");
                return;
            }
            if self.at_punct("(") {
                self.skip_group("(", ")");
                continue;
            }
            if self.at_punct("[") {
                self.skip_group("[", "]");
                continue;
            }
            if self.at_punct("<") {
                self.skip_angles();
                continue;
            }
            if self.at_punct("}") {
                // Do not swallow the closer of an enclosing body.
                return;
            }
            self.bump();
        }
    }

    fn parse_fn(&mut self, is_pub: bool) -> FnItem {
        let line = self.line();
        self.bump(); // `fn`
        let name = self.ident_text().unwrap_or_default();
        if !name.is_empty() {
            self.bump();
        }
        if self.at_punct("<") {
            self.skip_angles();
        }
        if self.at_punct("(") {
            self.skip_group("(", ")");
        }
        let mut ret = None;
        if self.eat_punct("->") {
            ret = Some(self.capture_type_text(&["{", ";"], true));
        }
        if self.at_ident("where") {
            while !self.at_end() && !self.at_punct("{") && !self.at_punct(";") {
                if self.at_punct("<") {
                    self.skip_angles();
                } else {
                    self.bump();
                }
            }
        }
        let body = if self.at_punct("{") {
            self.bump();
            Some(self.parse_block_body())
        } else {
            self.eat_punct(";");
            None
        };
        FnItem {
            name,
            is_pub,
            ret,
            body,
            line,
        }
    }

    fn parse_impl(&mut self) -> Item {
        self.bump(); // `impl`
        if self.at_punct("<") {
            self.skip_angles();
        }
        let mut ty = self.capture_type_text(&["{", "for", "where"], false);
        let mut of_trait = false;
        if self.eat_ident("for") {
            of_trait = true;
            ty = self.capture_type_text(&["{", "where"], false);
        }
        if self.at_ident("where") {
            while !self.at_end() && !self.at_punct("{") {
                if self.at_punct("<") {
                    self.skip_angles();
                } else {
                    self.bump();
                }
            }
        }
        let items = if self.at_punct("{") {
            self.bump();
            self.parse_items(Some("}"))
        } else {
            Vec::new()
        };
        Item::Impl {
            self_ty: ty,
            of_trait,
            items,
        }
    }

    /// Capture type text up to (not including) any of `stops` at bracket
    /// depth 0. `stops` entries are matched against punct text and, when
    /// alphabetic, against ident text.
    fn capture_type_text(&mut self, stops: &[&str], stop_at_where: bool) -> String {
        let mut out: Vec<String> = Vec::new();
        while !self.at_end() {
            if let Some(Tok::Punct(p)) = self.tok(0) {
                if stops.contains(p) {
                    break;
                }
                if *p == "<" {
                    let start = self.pos;
                    self.skip_angles();
                    out.push(self.slice_text(start, self.pos));
                    continue;
                }
                if *p == "(" {
                    let start = self.pos;
                    self.skip_group("(", ")");
                    out.push(self.slice_text(start, self.pos));
                    continue;
                }
                if *p == "[" {
                    let start = self.pos;
                    self.skip_group("[", "]");
                    out.push(self.slice_text(start, self.pos));
                    continue;
                }
                out.push((*p).to_string());
                self.bump();
                continue;
            }
            if let Some(Tok::Ident(s)) = self.tok(0) {
                if stops.contains(&s.as_str()) || (stop_at_where && s == "where") {
                    break;
                }
                out.push(s.clone());
                self.bump();
                continue;
            }
            // Lifetimes, literals in const generics, …
            let start = self.pos;
            self.bump();
            out.push(self.slice_text(start, self.pos));
        }
        out.join(" ")
    }

    /// Space-joined text of tokens in `[start, end)` — display/compare only.
    fn slice_text(&self, start: usize, end: usize) -> String {
        let mut out: Vec<&str> = Vec::new();
        let mut owned: Vec<String> = Vec::new();
        for t in self.toks.get(start..end).unwrap_or_default() {
            match &t.tok {
                Tok::Ident(s) | Tok::Int(s) | Tok::Float(s) => owned.push(s.clone()),
                Tok::Punct(p) => out.push(p),
                Tok::Str => out.push("\"…\""),
                Tok::Char => out.push("'…'"),
                Tok::Lifetime => out.push("'_"),
            }
        }
        // Interleave in original order: rebuild simply.
        let mut pieces: Vec<String> = Vec::new();
        let mut oi = 0usize;
        let mut pi = 0usize;
        for t in self.toks.get(start..end).unwrap_or_default() {
            match &t.tok {
                Tok::Ident(_) | Tok::Int(_) | Tok::Float(_) => {
                    if let Some(s) = owned.get(oi) {
                        pieces.push(s.clone());
                    }
                    oi += 1;
                }
                _ => {
                    if let Some(s) = out.get(pi) {
                        pieces.push((*s).to_string());
                    }
                    pi += 1;
                }
            }
        }
        pieces.join(" ")
    }

    // -- statements ---------------------------------------------------------

    /// Parse statements after an already-consumed `{`, up to and including
    /// the matching `}`.
    fn parse_block_body(&mut self) -> Block {
        let mut stmts = Vec::new();
        while !self.at_end() {
            if self.eat_punct("}") {
                break;
            }
            if self.eat_punct(";") {
                continue;
            }
            if self.at_punct("#") {
                self.skip_attr();
                continue;
            }
            if self.at_ident("let") {
                stmts.push(self.parse_let());
                continue;
            }
            // Nested items inside a function body.
            if self.at_ident("fn")
                || self.at_ident("use")
                || self.at_ident("struct")
                || self.at_ident("enum")
                || self.at_ident("impl")
                || (self.at_ident("mod") && matches!(self.tok(1), Some(Tok::Ident(_))))
            {
                if self.at_ident("fn") {
                    stmts.push(Stmt::Item(Box::new(Item::Fn(self.parse_fn(false)))));
                } else if self.at_ident("impl") {
                    stmts.push(Stmt::Item(Box::new(self.parse_impl())));
                } else {
                    self.skip_unknown_item();
                }
                continue;
            }
            let start = self.pos;
            let expr = self.parse_expr(0, false);
            if self.pos == start {
                // No progress: consume one token so the loop terminates.
                self.bump();
                continue;
            }
            let semi = self.eat_punct(";");
            stmts.push(Stmt::Expr { expr, semi });
        }
        Block { stmts }
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // `let`
                     // Capture the pattern (and optional type ascription) up to `=` or
                     // `;` at bracket depth 0. `==` cannot appear in pattern position.
        let start = self.pos;
        let mut depth = 0i32;
        while !self.at_end() {
            match self.tok(0) {
                Some(Tok::Punct(p)) => match *p {
                    "(" | "[" | "{" => {
                        depth += 1;
                        self.bump();
                    }
                    ")" | "]" | "}" => {
                        depth -= 1;
                        self.bump();
                    }
                    "<" => {
                        self.skip_angles();
                    }
                    "=" if depth == 0 => break,
                    ";" if depth == 0 => break,
                    _ => self.bump(),
                },
                Some(_) => self.bump(),
                None => break,
            }
        }
        let pat = self.slice_text(start, self.pos);
        let mut init = None;
        if self.eat_punct("=") {
            init = Some(self.parse_expr(0, false));
            // let-else: `let Some(x) = f() else { … };`
            if self.eat_ident("else") && self.at_punct("{") {
                self.bump();
                self.parse_block_body();
            }
        }
        self.eat_punct(";");
        Stmt::Let { pat, init, line }
    }

    // -- expressions ---------------------------------------------------------
    //
    // Precedence climbing. `min_bp` is the minimum binding power the next
    // operator must have; `no_struct` suppresses struct-literal parsing in
    // condition position (`if x { … }`).

    fn parse_expr(&mut self, depth: u32, no_struct: bool) -> Expr {
        if depth > MAX_DEPTH {
            let line = self.line();
            self.bump();
            return Expr {
                kind: ExprKind::Opaque,
                line,
            };
        }
        self.parse_assign(depth, no_struct)
    }

    fn parse_assign(&mut self, depth: u32, no_struct: bool) -> Expr {
        let lhs = self.parse_range(depth, no_struct);
        for op in ASSIGN_OPS {
            if self.at_punct(op) {
                let line = lhs.line;
                self.bump();
                let rhs = self.parse_expr(depth + 1, no_struct);
                return Expr {
                    kind: ExprKind::Assign {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                    line,
                };
            }
        }
        lhs
    }

    fn parse_range(&mut self, depth: u32, no_struct: bool) -> Expr {
        if self.at_punct("..") || self.at_punct("..=") {
            let line = self.line();
            self.bump();
            let hi = if self.range_rhs_follows() {
                Some(Box::new(self.parse_binary(depth + 1, 0, no_struct)))
            } else {
                None
            };
            return Expr {
                kind: ExprKind::Range { lo: None, hi },
                line,
            };
        }
        let lo = self.parse_binary(depth, 0, no_struct);
        if self.at_punct("..") || self.at_punct("..=") {
            let line = lo.line;
            self.bump();
            let hi = if self.range_rhs_follows() {
                Some(Box::new(self.parse_binary(depth + 1, 0, no_struct)))
            } else {
                None
            };
            return Expr {
                kind: ExprKind::Range {
                    lo: Some(Box::new(lo)),
                    hi,
                },
                line,
            };
        }
        lo
    }

    fn range_rhs_follows(&self) -> bool {
        !matches!(
            self.tok(0),
            None | Some(Tok::Punct(")" | "]" | "}" | "," | ";" | "=>" | "{"))
        )
    }

    /// Binary operators by binding power (higher binds tighter).
    fn bin_power(&self, no_struct: bool) -> Option<(&'static str, u8)> {
        let p = match self.tok(0) {
            Some(Tok::Punct(p)) => *p,
            _ => return None,
        };
        let bp = match p {
            "||" => 1,
            "&&" => 2,
            _ if CMP_OPS.contains(&p) => 3,
            "|" => 4,
            "^" => 5,
            "&" => 6,
            "<<" | ">>" => 7,
            "+" | "-" => 8,
            "*" | "/" | "%" => 9,
            _ => return None,
        };
        // In no-struct position `<`/`>` are genuinely comparisons (we never
        // parse generic arguments at expression level except via `::<`).
        let _ = no_struct;
        Some((p, bp))
    }

    fn parse_binary(&mut self, depth: u32, min_bp: u8, no_struct: bool) -> Expr {
        let mut lhs = self.parse_unary(depth, no_struct);
        while let Some((op, bp)) = self.bin_power(no_struct) {
            if bp < min_bp {
                break;
            }
            self.bump();
            let rhs = self.parse_unary_then_binary(depth + 1, bp + 1, no_struct);
            let line = lhs.line;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            };
        }
        lhs
    }

    fn parse_unary_then_binary(&mut self, depth: u32, min_bp: u8, no_struct: bool) -> Expr {
        if depth > MAX_DEPTH {
            let line = self.line();
            self.bump();
            return Expr {
                kind: ExprKind::Opaque,
                line,
            };
        }
        self.parse_binary(depth, min_bp, no_struct)
    }

    fn parse_unary(&mut self, depth: u32, no_struct: bool) -> Expr {
        if depth > MAX_DEPTH {
            let line = self.line();
            self.bump();
            return Expr {
                kind: ExprKind::Opaque,
                line,
            };
        }
        let line = self.line();
        if self.at_punct("&") || self.at_punct("&&") {
            let double = self.at_punct("&&");
            self.bump();
            self.eat_ident("mut");
            let mut inner = self.parse_unary(depth + 1, no_struct);
            if double {
                inner = Expr {
                    kind: ExprKind::Ref(Box::new(inner)),
                    line,
                };
            }
            return Expr {
                kind: ExprKind::Ref(Box::new(inner)),
                line,
            };
        }
        for op in ["!", "-", "*"] {
            if self.at_punct(op) {
                self.bump();
                let operand = self.parse_unary(depth + 1, no_struct);
                return Expr {
                    kind: ExprKind::Unary {
                        op,
                        operand: Box::new(operand),
                    },
                    line,
                };
            }
        }
        let mut expr = self.parse_primary(depth, no_struct);
        // Postfix: calls, method calls, field access, indexing, `?`, `as`.
        loop {
            if self.at_punct("(") {
                let args = self.parse_paren_args();
                let line = expr.line;
                expr = Expr {
                    kind: ExprKind::Call {
                        callee: Box::new(expr),
                        args,
                    },
                    line,
                };
                continue;
            }
            if self.at_punct("[") {
                self.bump();
                let index = self.parse_expr(depth + 1, false);
                self.eat_punct("]");
                let line = expr.line;
                expr = Expr {
                    kind: ExprKind::Index {
                        base: Box::new(expr),
                        index: Box::new(index),
                    },
                    line,
                };
                continue;
            }
            if self.at_punct("?") {
                self.bump();
                let line = expr.line;
                expr = Expr {
                    kind: ExprKind::Try(Box::new(expr)),
                    line,
                };
                continue;
            }
            if self.at_ident("as") {
                self.bump();
                let ty = self.capture_cast_type();
                let line = expr.line;
                expr = Expr {
                    kind: ExprKind::Cast {
                        operand: Box::new(expr),
                        ty,
                    },
                    line,
                };
                continue;
            }
            if self.at_punct(".") {
                let fline = self.toks.get(self.pos + 1).map_or(expr.line, |t| t.line);
                match self.tok(1) {
                    Some(Tok::Ident(name)) => {
                        let name = name.clone();
                        if name == "await" {
                            self.bump();
                            self.bump();
                            continue;
                        }
                        self.bump(); // '.'
                        self.bump(); // name
                        if self.at_punct("::") && matches!(self.tok(1), Some(Tok::Punct("<"))) {
                            self.bump(); // '::'
                            self.skip_angles();
                        }
                        if self.at_punct("(") {
                            let args = self.parse_paren_args();
                            expr = Expr {
                                kind: ExprKind::Method {
                                    recv: Box::new(expr),
                                    name,
                                    args,
                                },
                                line: fline,
                            };
                        } else {
                            expr = Expr {
                                kind: ExprKind::Field {
                                    base: Box::new(expr),
                                    name,
                                },
                                line: fline,
                            };
                        }
                        continue;
                    }
                    Some(Tok::Int(n)) => {
                        let name = n.clone();
                        self.bump();
                        self.bump();
                        expr = Expr {
                            kind: ExprKind::Field {
                                base: Box::new(expr),
                                name,
                            },
                            line: fline,
                        };
                        continue;
                    }
                    Some(Tok::Float(n)) => {
                        // `x.0.1` lexes the trailing `0.1` as a float; split
                        // it into two tuple-field accesses.
                        let name = n.clone();
                        self.bump();
                        self.bump();
                        for part in name.split('.') {
                            expr = Expr {
                                kind: ExprKind::Field {
                                    base: Box::new(expr),
                                    name: part.to_string(),
                                },
                                line: fline,
                            };
                        }
                        continue;
                    }
                    _ => break,
                }
            }
            break;
        }
        expr
    }

    /// Comma-separated expressions inside an already-present `( … )`.
    fn parse_paren_args(&mut self) -> Vec<Expr> {
        self.bump(); // '('
        let mut args = Vec::new();
        while !self.at_end() && !self.at_punct(")") {
            let start = self.pos;
            args.push(self.parse_expr(0, false));
            if self.pos == start {
                self.bump();
            }
            if !self.eat_punct(",") && !self.at_punct(")") {
                // Lost sync inside the argument list: skip to `,` or `)`.
                let mut depth = 0i32;
                while !self.at_end() {
                    match self.tok(0) {
                        Some(Tok::Punct("(" | "[" | "{")) => depth += 1,
                        Some(Tok::Punct(")" | "]" | "}")) if depth == 0 => break,
                        Some(Tok::Punct(")" | "]" | "}")) => depth -= 1,
                        Some(Tok::Punct(",")) if depth == 0 => break,
                        _ => {}
                    }
                    self.bump();
                }
                self.eat_punct(",");
            }
        }
        self.eat_punct(")");
        args
    }

    /// The type after `as` in a cast: a path with optional generic args.
    fn capture_cast_type(&mut self) -> String {
        let mut out: Vec<String> = Vec::new();
        while let Some(Tok::Ident(s)) = self.tok(0) {
            out.push(s.clone());
            self.bump();
            if self.at_punct("<") {
                let start = self.pos;
                self.skip_angles();
                out.push(self.slice_text(start, self.pos));
            }
            if self.at_punct("::") {
                out.push("::".to_string());
                self.bump();
                continue;
            }
            break;
        }
        out.join("")
    }

    fn parse_primary(&mut self, depth: u32, no_struct: bool) -> Expr {
        let line = self.line();
        let kind = 'k: {
            match self.tok(0) {
                Some(Tok::Int(n)) => {
                    let n = n.clone();
                    self.bump();
                    break 'k ExprKind::Int(n);
                }
                Some(Tok::Float(n)) => {
                    let n = n.clone();
                    self.bump();
                    break 'k ExprKind::Float(n);
                }
                Some(Tok::Str) => {
                    self.bump();
                    break 'k ExprKind::Str;
                }
                Some(Tok::Char) => {
                    self.bump();
                    break 'k ExprKind::Char;
                }
                Some(Tok::Lifetime) => {
                    // Loop label: `'a: loop { … }` — skip label and colon.
                    self.bump();
                    self.eat_punct(":");
                    return self.parse_primary(depth, no_struct);
                }
                _ => {}
            }

            if self.at_punct("(") {
                self.bump();
                let mut items = Vec::new();
                let mut trailing_comma = false;
                while !self.at_end() && !self.at_punct(")") {
                    let start = self.pos;
                    items.push(self.parse_expr(depth + 1, false));
                    if self.pos == start {
                        self.bump();
                    }
                    trailing_comma = self.eat_punct(",");
                }
                self.eat_punct(")");
                break 'k if items.len() == 1 && !trailing_comma {
                    match items.pop() {
                        Some(e) => e.kind,
                        None => ExprKind::Opaque,
                    }
                } else {
                    ExprKind::Tuple(items)
                };
            }
            if self.at_punct("[") {
                self.bump();
                let mut items = Vec::new();
                while !self.at_end() && !self.at_punct("]") {
                    let start = self.pos;
                    items.push(self.parse_expr(depth + 1, false));
                    if self.pos == start {
                        self.bump();
                    }
                    if !self.eat_punct(",") {
                        self.eat_punct(";"); // `[expr; len]`
                    }
                }
                self.eat_punct("]");
                break 'k ExprKind::Array(items);
            }
            if self.at_punct("{") {
                self.bump();
                break 'k ExprKind::Block(self.parse_block_body());
            }
            if self.at_punct("|") || self.at_punct("||") {
                break 'k self.parse_closure(depth);
            }
            if self.at_ident("move") {
                self.bump();
                if self.at_punct("|") || self.at_punct("||") {
                    break 'k self.parse_closure(depth);
                }
                if self.at_punct("{") {
                    self.bump();
                    break 'k ExprKind::Block(self.parse_block_body());
                }
                break 'k ExprKind::Opaque;
            }
            if self.at_punct("<") {
                // Qualified path `<T as Trait>::method`: skip the qualifier,
                // parse the rest as a path expression.
                self.skip_angles();
                if self.at_punct("::") {
                    self.bump();
                    break 'k self.parse_path_or_struct(depth, no_struct, "<_>".to_string());
                }
                break 'k ExprKind::Opaque;
            }
            if self.at_ident("if") {
                self.bump();
                break 'k self.parse_if(depth);
            }
            if self.at_ident("match") {
                self.bump();
                break 'k self.parse_match(depth);
            }
            if self.at_ident("while") {
                self.bump();
                if self.eat_ident("let") {
                    self.skip_pattern_until_eq();
                    self.eat_punct("=");
                }
                let cond = self.parse_expr(depth + 1, true);
                let body = if self.eat_punct("{") {
                    self.parse_block_body()
                } else {
                    Block::default()
                };
                break 'k ExprKind::While {
                    cond: Box::new(cond),
                    body,
                };
            }
            if self.at_ident("for") {
                self.bump();
                // Pattern up to `in` at depth 0.
                while !self.at_end() && !self.at_ident("in") {
                    match self.tok(0) {
                        Some(Tok::Punct("(")) => self.skip_group("(", ")"),
                        Some(Tok::Punct("[")) => self.skip_group("[", "]"),
                        _ => self.bump(),
                    }
                }
                self.eat_ident("in");
                let iter = self.parse_expr(depth + 1, true);
                let body = if self.eat_punct("{") {
                    self.parse_block_body()
                } else {
                    Block::default()
                };
                break 'k ExprKind::ForLoop {
                    iter: Box::new(iter),
                    body,
                };
            }
            if self.at_ident("loop") {
                self.bump();
                let body = if self.eat_punct("{") {
                    self.parse_block_body()
                } else {
                    Block::default()
                };
                break 'k ExprKind::Loop { body };
            }
            if self.at_ident("unsafe") {
                self.bump();
                if self.eat_punct("{") {
                    break 'k ExprKind::Block(self.parse_block_body());
                }
                break 'k ExprKind::Opaque;
            }
            if self.at_ident("return") {
                self.bump();
                let value = if self.expr_follows() {
                    Some(Box::new(self.parse_expr(depth + 1, no_struct)))
                } else {
                    None
                };
                break 'k ExprKind::Return(value);
            }
            if self.at_ident("break") {
                self.bump();
                if matches!(self.tok(0), Some(Tok::Lifetime)) {
                    self.bump();
                }
                if self.expr_follows() {
                    let _ = self.parse_expr(depth + 1, no_struct);
                }
                break 'k ExprKind::Break;
            }
            if self.at_ident("continue") {
                self.bump();
                if matches!(self.tok(0), Some(Tok::Lifetime)) {
                    self.bump();
                }
                break 'k ExprKind::Continue;
            }
            if self.at_ident("true") || self.at_ident("false") {
                let v = self.at_ident("true");
                self.bump();
                break 'k ExprKind::Bool(v);
            }
            if let Some(name) = self.ident_text() {
                if EXPR_KEYWORDS.contains(&name.as_str()) {
                    // A keyword we failed to handle above: opaque, consume.
                    self.bump();
                    break 'k ExprKind::Opaque;
                }
                self.bump();
                break 'k self.parse_path_or_struct(depth, no_struct, name);
            }
            // Unknown token: consume it so the caller makes progress.
            self.bump();
            ExprKind::Opaque
        };
        Expr { kind, line }
    }

    fn expr_follows(&self) -> bool {
        !matches!(
            self.tok(0),
            None | Some(Tok::Punct(";" | "," | ")" | "]" | "}"))
        )
    }

    /// Continue a path that began with `first`; decide macro call, struct
    /// literal, or plain path.
    fn parse_path_or_struct(&mut self, depth: u32, no_struct: bool, first: String) -> ExprKind {
        let mut path = first;
        loop {
            if self.at_punct("::") {
                match self.tok(1) {
                    Some(Tok::Ident(seg)) => {
                        path.push_str("::");
                        path.push_str(&seg.clone());
                        self.bump();
                        self.bump();
                        continue;
                    }
                    Some(Tok::Punct("<")) => {
                        self.bump();
                        self.skip_angles();
                        continue;
                    }
                    _ => break,
                }
            }
            break;
        }
        if self.at_punct("!") {
            // Macro call: `name!(…)` / `name![…]` / `name!{…}`. Parse the
            // interior as a best-effort comma/semicolon-separated expression
            // list so casts inside macro bodies stay visible.
            self.bump();
            let (open, close) = if self.at_punct("(") {
                ("(", ")")
            } else if self.at_punct("[") {
                ("[", "]")
            } else if self.at_punct("{") {
                ("{", "}")
            } else {
                return ExprKind::MacroCall {
                    name: path,
                    args: Vec::new(),
                };
            };
            self.bump();
            let mut args = Vec::new();
            while !self.at_end() && !self.at_punct(close) {
                let start = self.pos;
                args.push(self.parse_expr(depth + 1, false));
                if self.pos == start {
                    self.bump();
                }
                if !self.eat_punct(",") && !self.eat_punct(";") && !self.at_punct(close) {
                    // Token soup (e.g. `matches!` patterns): skip to the next
                    // separator at depth 0.
                    let mut d = 0i32;
                    while !self.at_end() {
                        match self.tok(0) {
                            Some(Tok::Punct(p)) if *p == open || matches!(*p, "(" | "[" | "{") => {
                                d += 1;
                            }
                            Some(Tok::Punct(p)) if matches!(*p, ")" | "]" | "}") => {
                                if d == 0 {
                                    break;
                                }
                                d -= 1;
                            }
                            Some(Tok::Punct("," | ";")) if d == 0 => break,
                            _ => {}
                        }
                        self.bump();
                    }
                    self.eat_punct(",");
                    self.eat_punct(";");
                }
            }
            self.eat_punct(close);
            return ExprKind::MacroCall { name: path, args };
        }
        if self.at_punct("{") && !no_struct && self.looks_like_struct_lit() {
            self.bump();
            let mut fields = Vec::new();
            while !self.at_end() && !self.at_punct("}") {
                if self.at_punct("..") {
                    self.bump();
                    let start = self.pos;
                    fields.push(self.parse_expr(depth + 1, false));
                    if self.pos == start {
                        self.bump();
                    }
                    break;
                }
                // `name: expr` or shorthand `name`.
                if matches!(self.tok(0), Some(Tok::Ident(_)))
                    && matches!(self.tok(1), Some(Tok::Punct(":")))
                {
                    self.bump();
                    self.bump();
                    let start = self.pos;
                    fields.push(self.parse_expr(depth + 1, false));
                    if self.pos == start {
                        self.bump();
                    }
                } else {
                    let start = self.pos;
                    fields.push(self.parse_expr(depth + 1, false));
                    if self.pos == start {
                        self.bump();
                    }
                }
                self.eat_punct(",");
            }
            self.eat_punct("}");
            return ExprKind::StructLit { path, fields };
        }
        ExprKind::Path(path)
    }

    /// Distinguish `Path { field: …, }` struct literals from a path followed
    /// by a block: a struct literal's first tokens are `}`/`ident :`/
    /// `ident ,`/`ident }`/`..`.
    fn looks_like_struct_lit(&self) -> bool {
        matches!(
            (self.tok(1), self.tok(2)),
            (Some(Tok::Punct("}" | "..")), _)
                | (Some(Tok::Ident(_)), Some(Tok::Punct(":" | "," | "}")))
        )
    }

    fn parse_closure(&mut self, depth: u32) -> ExprKind {
        if self.eat_punct("||") {
            // zero-parameter closure
        } else {
            self.bump(); // opening '|'
            let mut d = 0i32;
            while !self.at_end() {
                match self.tok(0) {
                    Some(Tok::Punct("(" | "[" | "<")) => {
                        if self.at_punct("<") {
                            self.skip_angles();
                            continue;
                        }
                        d += 1;
                        self.bump();
                    }
                    Some(Tok::Punct(")" | "]")) => {
                        d -= 1;
                        self.bump();
                    }
                    Some(Tok::Punct("|")) if d == 0 => {
                        self.bump();
                        break;
                    }
                    Some(_) => self.bump(),
                    None => break,
                }
            }
        }
        if self.eat_punct("->") {
            let _ = self.capture_type_text(&["{"], false);
        }
        let body = self.parse_expr(depth + 1, false);
        ExprKind::Closure {
            body: Box::new(body),
        }
    }

    fn parse_if(&mut self, depth: u32) -> ExprKind {
        if self.eat_ident("let") {
            self.skip_pattern_until_eq();
            self.eat_punct("=");
        }
        let cond = self.parse_expr(depth + 1, true);
        let then = if self.eat_punct("{") {
            self.parse_block_body()
        } else {
            Block::default()
        };
        let els = if self.eat_ident("else") {
            if self.at_ident("if") {
                let line = self.line();
                self.bump();
                Some(Box::new(Expr {
                    kind: self.parse_if(depth + 1),
                    line,
                }))
            } else if self.eat_punct("{") {
                let line = self.line();
                Some(Box::new(Expr {
                    kind: ExprKind::Block(self.parse_block_body()),
                    line,
                }))
            } else {
                None
            }
        } else {
            None
        };
        ExprKind::If {
            cond: Box::new(cond),
            then,
            els,
        }
    }

    fn parse_match(&mut self, depth: u32) -> ExprKind {
        let scrutinee = self.parse_expr(depth + 1, true);
        let mut arms = Vec::new();
        if self.eat_punct("{") {
            while !self.at_end() && !self.at_punct("}") {
                // Pattern (with optional guard) up to `=>` at depth 0.
                let start = self.pos;
                let mut d = 0i32;
                while !self.at_end() {
                    match self.tok(0) {
                        Some(Tok::Punct("(" | "[" | "{")) => {
                            d += 1;
                            self.bump();
                        }
                        Some(Tok::Punct(")" | "]" | "}")) => {
                            if d == 0 {
                                break;
                            }
                            d -= 1;
                            self.bump();
                        }
                        Some(Tok::Punct("=>")) if d == 0 => break,
                        Some(_) => self.bump(),
                        None => break,
                    }
                }
                let pat = self.slice_text(start, self.pos);
                if !self.eat_punct("=>") {
                    break;
                }
                let pstart = self.pos;
                let value = self.parse_expr(depth + 1, false);
                if self.pos == pstart {
                    self.bump();
                }
                arms.push((pat, value));
                self.eat_punct(",");
            }
            self.eat_punct("}");
        }
        ExprKind::Match {
            scrutinee: Box::new(scrutinee),
            arms,
        }
    }

    /// Inside `if let` / `while let`: skip the pattern up to the `=`.
    fn skip_pattern_until_eq(&mut self) {
        let mut d = 0i32;
        while !self.at_end() {
            match self.tok(0) {
                Some(Tok::Punct("(" | "[" | "{")) => {
                    d += 1;
                    self.bump();
                }
                Some(Tok::Punct(")" | "]" | "}")) => {
                    d -= 1;
                    self.bump();
                }
                Some(Tok::Punct("=")) if d == 0 => break,
                Some(_) => self.bump(),
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> File {
        parse_file(&lex(src))
    }

    fn first_fn(file: &File) -> &FnItem {
        for item in &file.items {
            if let Item::Fn(f) = item {
                return f;
            }
        }
        panic!("no fn item parsed");
    }

    fn casts(src: &str) -> Vec<String> {
        let file = parse(src);
        let mut out = Vec::new();
        crate::visit::visit_file(&file, &mut |e| {
            if let ExprKind::Cast { ty, .. } = &e.kind {
                out.push(ty.clone());
            }
        });
        out
    }

    #[test]
    fn fn_signature_is_captured() {
        let file = parse("#[must_use]\npub fn f(x: u32) -> Result<u32, Error> { Ok(x) }");
        let f = first_fn(&file);
        assert_eq!(f.name, "f");
        assert!(f.is_pub);
        assert!(f.ret.as_deref().unwrap_or("").starts_with("Result"));
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_methods_are_nested_items() {
        let file = parse("impl Foo { fn m(&self) -> Result<(), E> { Ok(()) } }");
        let Some(Item::Impl {
            self_ty,
            of_trait,
            items,
        }) = file.items.first()
        else {
            panic!("expected impl item");
        };
        assert_eq!(self_ty, "Foo");
        assert!(!of_trait);
        assert!(matches!(items.first(), Some(Item::Fn(f)) if f.name == "m"));
    }

    #[test]
    fn casts_are_found_in_plain_and_macro_context() {
        assert_eq!(casts("fn f(x: i64) -> f64 { x as f64 }"), vec!["f64"]);
        assert_eq!(
            casts("fn f(n: usize) { println!(\"{}\", n as u64); }"),
            vec!["u64"]
        );
        assert_eq!(
            casts("fn f(a: u8, b: u8) -> u32 { (a as u32) << (b as u32) }"),
            vec!["u32", "u32"]
        );
    }

    #[test]
    fn cast_binds_tighter_than_arithmetic() {
        let file = parse("fn f(x: i64, y: i64) -> f64 { x as f64 / y as f64 }");
        let f = first_fn(&file);
        let Some(Stmt::Expr { expr, semi: false }) = f.body.as_ref().and_then(|b| b.stmts.first())
        else {
            panic!("expected tail expr");
        };
        let ExprKind::Binary { op, lhs, rhs } = &expr.kind else {
            panic!("expected binary, got {:?}", expr.kind);
        };
        assert_eq!(*op, "/");
        assert!(matches!(lhs.kind, ExprKind::Cast { .. }));
        assert!(matches!(rhs.kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn let_underscore_and_method_chains() {
        let file = parse("fn f(fs: &mut Vfs) { let _ = fs.create(1); }");
        let f = first_fn(&file);
        let Some(Stmt::Let { pat, init, .. }) = f.body.as_ref().and_then(|b| b.stmts.first())
        else {
            panic!("expected let");
        };
        assert_eq!(pat, "_");
        let Some(Expr {
            kind: ExprKind::Method { name, .. },
            ..
        }) = init.as_ref()
        else {
            panic!("expected method call init");
        };
        assert_eq!(name, "create");
    }

    #[test]
    fn struct_literal_vs_condition_block() {
        // `if x { 1 } else { 2 }` must not parse `x { 1 }` as a struct lit.
        let file = parse("fn f(x: bool) -> u32 { if x { 1 } else { 2 } }");
        let f = first_fn(&file);
        let Some(Stmt::Expr { expr, .. }) = f.body.as_ref().and_then(|b| b.stmts.first()) else {
            panic!("expected expr");
        };
        assert!(matches!(expr.kind, ExprKind::If { .. }));

        let file = parse("fn g() -> P { P { x: 1, y: 2 } }");
        let g = first_fn(&file);
        let Some(Stmt::Expr { expr, .. }) = g.body.as_ref().and_then(|b| b.stmts.first()) else {
            panic!("expected expr");
        };
        assert!(matches!(expr.kind, ExprKind::StructLit { .. }));
    }

    #[test]
    fn closures_and_turbofish() {
        let file = parse("fn f(v: Vec<f64>) -> f64 { v.iter().map(|x| x * 2.0).sum::<f64>() }");
        let f = first_fn(&file);
        let Some(Stmt::Expr { expr, .. }) = f.body.as_ref().and_then(|b| b.stmts.first()) else {
            panic!("expected expr");
        };
        let ExprKind::Method { name, args, .. } = &expr.kind else {
            panic!("expected method");
        };
        assert_eq!(name, "sum");
        assert!(args.is_empty());
    }

    #[test]
    fn match_arms_parse() {
        let src = "fn f(k: K) -> u32 { match k { K::A => 1, K::B { x } => x, _ => 0 } }";
        let file = parse(src);
        let f = first_fn(&file);
        let Some(Stmt::Expr { expr, .. }) = f.body.as_ref().and_then(|b| b.stmts.first()) else {
            panic!("expected expr");
        };
        let ExprKind::Match { arms, .. } = &expr.kind else {
            panic!("expected match");
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms.get(2).map(|(p, _)| p.as_str()), Some("_"));
    }

    #[test]
    fn malformed_input_degrades_to_opaque_not_panic() {
        // Nothing here is valid Rust; the parser must terminate quietly.
        for src in [
            "fn f( { ) } ] =>",
            "fn f() { let = ; }",
            "impl { fn }",
            "fn f() { x. }",
            "@@@@ fn g() {} @@@@",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn deep_nesting_terminates() {
        let mut src = String::from("fn f() -> u32 { ");
        for _ in 0..500 {
            src.push('(');
        }
        src.push('1');
        for _ in 0..500 {
            src.push(')');
        }
        src.push_str(" }");
        let _ = parse(&src);
    }
}
