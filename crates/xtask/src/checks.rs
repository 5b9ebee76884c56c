//! The four token-window invariant checks.
//!
//! Every check is a pure function from a (test-stripped) token stream to a
//! list of findings. File-level scoping — which crates a check covers, which
//! files are exempt — lives in [`crate::runner`]; the functions here only
//! look at tokens. That split keeps each check unit-testable against fixture
//! files without touching the real tree.

use crate::lexer::{Tok, Token};

/// One finding of a file-local check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub line: u32,
    pub message: String,
    /// Category used by the panic-freedom baseline; empty for other checks.
    pub category: &'static str,
}

impl Finding {
    fn new(line: u32, category: &'static str, message: String) -> Self {
        Finding {
            line,
            message,
            category,
        }
    }
}

/// Names of the checks as used on the command line. The first four are the
/// token-window checks in this module; the next is the AST-based check in
/// [`crate::semantic`]; the last four are the interprocedural
/// checks in [`crate::interproc`], which run over the workspace call graph
/// rather than one file at a time.
pub const CHECK_NAMES: [&str; 9] = [
    "panic-freedom",
    "newtype",
    "dispatch",
    "float-cmp",
    "unit-safety",
    "determinism-taint",
    "changelog-completeness",
    "panic-reachability",
    "dead-api",
];

fn tok_at(tokens: &[Token], i: usize) -> Option<&Tok> {
    tokens.get(i).map(|t| &t.tok)
}

fn is_ident(tokens: &[Token], i: usize, name: &str) -> bool {
    matches!(tok_at(tokens, i), Some(Tok::Ident(s)) if s == name)
}

fn is_punct(tokens: &[Token], i: usize, p: &str) -> bool {
    matches!(tok_at(tokens, i), Some(Tok::Punct(s)) if *s == p)
}

fn line_of(tokens: &[Token], i: usize) -> u32 {
    tokens.get(i).map_or(0, |t| t.line)
}

// ---------------------------------------------------------------------------
// 1. panic-freedom
// ---------------------------------------------------------------------------

/// Can the token at `i` end an expression (so a following `[` indexes it)?
fn ends_expression(tokens: &[Token], i: usize) -> bool {
    match tok_at(tokens, i) {
        Some(Tok::Ident(name)) => {
            // Keywords that precede a `[` without forming an index
            // expression: `return [..]`, `in [..]`, `as [T; N]` etc. are
            // not possible for `as`, but be conservative about the common
            // statement keywords.
            !matches!(
                name.as_str(),
                "return"
                    | "break"
                    | "in"
                    | "if"
                    | "else"
                    | "match"
                    | "mut"
                    | "ref"
                    | "box"
                    | "move"
                    | "static"
                    | "const"
                    | "dyn"
                    | "impl"
                    | "where"
                    | "let"
            )
        }
        Some(Tok::Punct(")") | Tok::Punct("]")) => true,
        _ => false,
    }
}

/// Potentially panicking constructs: `.unwrap()`, `.expect(…)`, the
/// panicking macros, and index expressions `base[…]`. Slice/array *types*
/// and macro brackets (`vec![…]`) are not flagged; the distinction is made
/// from the preceding token.
pub fn check_panic_freedom(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if is_punct(tokens, i, ".") && is_punct(tokens, i + 2, "(") {
            if is_ident(tokens, i + 1, "unwrap") {
                out.push(Finding::new(
                    line_of(tokens, i + 1),
                    "unwrap",
                    "call to .unwrap() in non-test code".to_string(),
                ));
            } else if is_ident(tokens, i + 1, "expect") {
                out.push(Finding::new(
                    line_of(tokens, i + 1),
                    "expect",
                    "call to .expect() in non-test code".to_string(),
                ));
            }
        }
        if is_punct(tokens, i + 1, "!") {
            for (name, cat) in [
                ("panic", "panic"),
                ("unreachable", "unreachable"),
                ("todo", "todo"),
                ("unimplemented", "unimplemented"),
            ] {
                if is_ident(tokens, i, name) {
                    out.push(Finding::new(
                        line_of(tokens, i),
                        cat,
                        format!("{name}! macro in non-test code"),
                    ));
                }
            }
        }
        if is_punct(tokens, i, "[") && i > 0 && ends_expression(tokens, i - 1) {
            out.push(Finding::new(
                line_of(tokens, i),
                "index",
                "index expression (can panic on out-of-bounds) in non-test code".to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// 2. newtype discipline
// ---------------------------------------------------------------------------

const ARITH_OPS: [&str; 10] = ["+", "-", "*", "/", "%", "+=", "-=", "*=", "/=", "%="];

fn is_arith(tok: Option<&Tok>) -> bool {
    matches!(tok, Some(Tok::Punct(p)) if ARITH_OPS.contains(p))
}

/// Raw representation arithmetic on newtypes: a tuple-field access `x.0`
/// (or `.1`) with an arithmetic operator directly on either side, optionally
/// through an `as` cast and closing parentheses. Arithmetic on the raw field
/// belongs in the newtype's own module (`Timestamp`/`TimeDelta` ops in
/// `core::time`, `UserId::index` in `core::user`, …); everywhere else the
/// wrapper's methods must be used so unit errors stay impossible.
pub fn check_newtype(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        // Tuple-field access: <expr-end> . <0|1>
        let field_ok = matches!(tok_at(tokens, i + 2), Some(Tok::Int(n)) if n == "0" || n == "1");
        if !(is_punct(tokens, i + 1, ".") && field_ok && ends_expression(tokens, i)) {
            continue;
        }
        let line = line_of(tokens, i + 2);
        // Walk past an optional `as <ty>` cast and closing parens.
        let mut j = i + 3;
        if is_ident(tokens, j, "as") && matches!(tok_at(tokens, j + 1), Some(Tok::Ident(_))) {
            j += 2;
        }
        while is_punct(tokens, j, ")") {
            j += 1;
        }
        let after = is_arith(tok_at(tokens, j));
        // The token before the accessed expression: only meaningful when the
        // base is a single identifier (for `)`/`]` bases the real expression
        // start is further left; skip the before-check there).
        let before = matches!(tok_at(tokens, i), Some(Tok::Ident(_)))
            && i > 0
            && is_arith(tok_at(tokens, i - 1));
        if after || before {
            out.push(Finding::new(
                line,
                "",
                "arithmetic on raw newtype field (.0/.1) outside the type's own module".to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// 3. exhaustive policy dispatch
// ---------------------------------------------------------------------------

/// A `match` that names a monitored enum in a pattern must not also have a
/// `_` wildcard arm: when a new policy kind or activity class is added, every
/// dispatch site has to be revisited, and wildcards silently swallow the new
/// variant. Returns the enums matched wildcard-ly, one finding per match.
pub fn check_dispatch(tokens: &[Token], monitored: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_ident(tokens, i, "match") {
            i += 1;
            continue;
        }
        let match_line = line_of(tokens, i);
        // Find the arm block: first `{` outside any parens/brackets opened
        // by the scrutinee expression.
        let mut j = i + 1;
        let mut paren = 0i32;
        while j < tokens.len() {
            match tok_at(tokens, j) {
                Some(Tok::Punct("(") | Tok::Punct("[")) => paren += 1,
                Some(Tok::Punct(")") | Tok::Punct("]")) => paren -= 1,
                Some(Tok::Punct("{")) if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= tokens.len() {
            break;
        }
        // Walk the arms: pattern position is depth 1, patterns end at `=>`.
        let mut depth = 1i32;
        let mut k = j + 1;
        let mut in_pattern = true;
        let mut pattern_start = k;
        let mut mentioned: Vec<String> = Vec::new();
        let mut wildcard_line: Option<u32> = None;
        while k < tokens.len() && depth > 0 {
            match tok_at(tokens, k) {
                Some(Tok::Punct("{") | Tok::Punct("(") | Tok::Punct("[")) => depth += 1,
                Some(Tok::Punct("}") | Tok::Punct(")") | Tok::Punct("]")) => depth -= 1,
                Some(Tok::Punct("=>")) if depth == 1 && in_pattern => {
                    // Analyse the pattern tokens [pattern_start, k).
                    for p in pattern_start..k {
                        if let Some(Tok::Ident(name)) = tok_at(tokens, p) {
                            if monitored.contains(&name.as_str())
                                && is_punct(tokens, p + 1, "::")
                                && !mentioned.contains(name)
                            {
                                mentioned.push(name.clone());
                            }
                        }
                    }
                    let first = tok_at(tokens, pattern_start);
                    let is_wild = matches!(first, Some(Tok::Ident(s)) if s == "_")
                        && (pattern_start + 1 == k || is_ident(tokens, pattern_start + 1, "if"));
                    if is_wild {
                        wildcard_line = Some(line_of(tokens, pattern_start));
                    }
                    in_pattern = false;
                }
                Some(Tok::Punct(",")) if depth == 1 && !in_pattern => {
                    in_pattern = true;
                    pattern_start = k + 1;
                }
                _ => {}
            }
            // A braced arm body returning to depth 1 also ends the arm.
            if depth == 1 && !in_pattern && matches!(tok_at(tokens, k), Some(Tok::Punct("}"))) {
                in_pattern = true;
                pattern_start = k + 1;
            }
            k += 1;
        }
        if let (Some(line), false) = (wildcard_line, mentioned.is_empty()) {
            out.push(Finding::new(
                line,
                "",
                format!(
                    "wildcard `_` arm in a match dispatching on {} (match at line {match_line}); \
                     spell out every variant so new ones cannot be silently swallowed",
                    mentioned.join(", ")
                ),
            ));
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// 4. float comparison
// ---------------------------------------------------------------------------

/// Direct `==`/`!=` involving a float: a float literal on either side, or an
/// `f64::`/`f32::` constant path on the right. Exact float equality belongs
/// in the designated helper module (`core::approx`) where each comparison
/// documents why exactness is correct.
pub fn check_float_cmp(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let op = match tok_at(tokens, i) {
            Some(Tok::Punct(p)) if *p == "==" || *p == "!=" => *p,
            _ => continue,
        };
        let float_left = matches!(tok_at(tokens, i.wrapping_sub(1)), Some(Tok::Float(_)))
            || (i >= 3
                && matches!(tok_at(tokens, i - 3), Some(Tok::Ident(s)) if s == "f64" || s == "f32")
                && is_punct(tokens, i - 2, "::"));
        let float_right = matches!(tok_at(tokens, i + 1), Some(Tok::Float(_)))
            || (matches!(tok_at(tokens, i + 1), Some(Tok::Ident(s)) if s == "f64" || s == "f32")
                && is_punct(tokens, i + 2, "::"));
        if float_left || float_right {
            out.push(Finding::new(
                line_of(tokens, i),
                "",
                format!("`{op}` on floating-point values outside core::approx"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_regions};

    fn run(check: fn(&[Token]) -> Vec<Finding>, src: &str) -> Vec<Finding> {
        check(&strip_test_regions(lex(src)))
    }

    #[test]
    fn panic_freedom_distinguishes_macro_brackets_from_indexing() {
        let f = run(check_panic_freedom, "let v = vec![1, 2]; let x = v[0];");
        assert_eq!(f.len(), 1);
        assert_eq!(f.first().map(|f| f.category), Some("index"));
    }

    #[test]
    fn panic_freedom_ignores_strings_and_tests() {
        let src = r#"
            fn a() { let m = "don't .unwrap() here"; }
            #[cfg(test)]
            mod tests { fn b(x: Option<u8>) { x.unwrap(); } }
        "#;
        assert!(run(check_panic_freedom, src).is_empty());
    }

    #[test]
    fn newtype_flags_cast_then_modulo() {
        let f = run(check_newtype, "let shard = (u.0 as usize) % shards;");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn newtype_ignores_plain_reads_and_float_literals() {
        let src = "let id = p.id.0; let x = 1.0 + 2.0; let t = (a.0, b.1);";
        assert!(run(check_newtype, src).is_empty());
    }

    #[test]
    fn dispatch_needs_both_enum_and_wildcard() {
        let with_wild = "match k { PolicyKind::Flt => 1, _ => 0 }";
        let exhaustive = "match k { PolicyKind::Flt => 1, PolicyKind::ActiveDr => 0 }";
        let other_enum = "match k { Other::A => 1, _ => 0 }";
        let monitored = ["PolicyKind"];
        assert_eq!(check_dispatch(&lex(with_wild), &monitored).len(), 1);
        assert!(check_dispatch(&lex(exhaustive), &monitored).is_empty());
        assert!(check_dispatch(&lex(other_enum), &monitored).is_empty());
    }

    #[test]
    fn dispatch_handles_struct_variant_patterns_and_guards() {
        let src = "match k { AccessKind::Write { size } => size, _ if cold => 0, _ => 1 }";
        let f = check_dispatch(&lex(src), &["AccessKind"]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn float_cmp_flags_literals_and_const_paths() {
        assert_eq!(run(check_float_cmp, "if x == 0.0 {}").len(), 1);
        assert_eq!(run(check_float_cmp, "a != f64::NEG_INFINITY").len(), 1);
        assert!(run(check_float_cmp, "if n == 0 {}").is_empty());
        assert!(run(check_float_cmp, "(a - b).abs() < 1e-9").is_empty());
    }
}
