//! A small hand-rolled Rust lexer.
//!
//! The invariant checks need to reason about *tokens*, not text: a regex
//! cannot tell the float literal `1.0` from the tuple-field access `x.0`,
//! or an `unwrap` inside a string literal from a call. The lexer handles
//! exactly the constructs that distinction requires — comments (nested),
//! string/char/lifetime literals, raw strings, numeric literals with
//! suffixes — and deliberately nothing more. It is not a full Rust lexer;
//! it only needs to be faithful enough that token-level pattern matching
//! over this workspace's sources is sound.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal (including suffixed forms like `7u64`).
    Int(String),
    /// Float literal (including suffixed forms like `1.0f64`).
    Float(String),
    /// Any string-like literal (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation, greedily matched (`::`, `==`, `..=`, …).
    Punct(&'static str),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// Multi-character punctuation, longest first so matching can be greedy.
const PUNCTS: &[&str] = &[
    "..=", "<<=", ">>=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..", "+", "-", "*", "/", "%", "^", "!", "&",
    "|", "<", ">", "=", ".", ",", ";", ":", "#", "?", "@", "(", ")", "[", "]", "{", "}", "$", "'",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src`. Unrecognised bytes are skipped rather than failed on: the
/// checks degrade to "no finding" on exotic input, never to a crash.
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < chars.len() {
        let c = chars.get(i).copied().unwrap_or('\0');
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Line comments.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars.get(i) != Some(&'\n') {
                i += 1;
            }
            continue;
        }

        // Block comments, which nest in Rust.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            i += 2;
            while i < chars.len() && depth > 0 {
                match (chars.get(i), chars.get(i + 1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        i += 2;
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        i += 2;
                    }
                    (Some('\n'), _) => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            continue;
        }

        // Raw / byte string prefixes: r"…", r#"…"#, b"…", br#"…"#.
        if (c == 'r' || c == 'b') && looks_like_string_prefix(&chars, i) {
            let start_line = line;
            i = skip_prefixed_string(&chars, i, &mut line);
            out.push(Token {
                tok: Tok::Str,
                line: start_line,
            });
            continue;
        }

        // Byte char literal `b'x'` — one Char token, not Ident("b") + char.
        if c == 'b' && chars.get(i + 1) == Some(&'\'') {
            let start_line = line;
            i = skip_quoted(&chars, i + 2, '\'', &mut line);
            out.push(Token {
                tok: Tok::Char,
                line: start_line,
            });
            continue;
        }

        // Raw identifier `r#ident` — lexes as the bare identifier, the way
        // rustc resolves it (`r#type` names `type`). The raw-string branch
        // above already claimed `r#"…"#`, so a `#` here followed by an
        // identifier start can only be a raw identifier.
        if c == 'r'
            && chars.get(i + 1) == Some(&'#')
            && chars.get(i + 2).is_some_and(|c| is_ident_start(*c))
        {
            let start = i + 2;
            i = start;
            while i < chars.len() && chars.get(i).is_some_and(|c| is_ident_continue(*c)) {
                i += 1;
            }
            let text: String = chars.get(start..i).unwrap_or_default().iter().collect();
            out.push(Token {
                tok: Tok::Ident(text),
                line,
            });
            continue;
        }

        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && chars.get(i).is_some_and(|c| is_ident_continue(*c)) {
                i += 1;
            }
            let text: String = chars.get(start..i).unwrap_or_default().iter().collect();
            out.push(Token {
                tok: Tok::Ident(text),
                line,
            });
            continue;
        }

        if c.is_ascii_digit() {
            let start_line = line;
            let (tok, next) = lex_number(&chars, i, &out);
            i = next;
            out.push(Token {
                tok,
                line: start_line,
            });
            continue;
        }

        if c == '"' {
            let start_line = line;
            i = skip_quoted(&chars, i + 1, '"', &mut line);
            out.push(Token {
                tok: Tok::Str,
                line: start_line,
            });
            continue;
        }

        if c == '\'' {
            // Lifetime (`'a` not closed by a quote) vs char literal (`'a'`,
            // `'\n'`, `'\''`).
            let is_lifetime = chars.get(i + 1).is_some_and(|c| is_ident_start(*c))
                && chars.get(i + 2) != Some(&'\'');
            if is_lifetime {
                i += 1;
                while i < chars.len() && chars.get(i).is_some_and(|c| is_ident_continue(*c)) {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Lifetime,
                    line,
                });
            } else {
                let start_line = line;
                i = skip_quoted(&chars, i + 1, '\'', &mut line);
                out.push(Token {
                    tok: Tok::Char,
                    line: start_line,
                });
            }
            continue;
        }

        // Punctuation, longest match first.
        let mut matched = false;
        for p in PUNCTS {
            if src_matches(&chars, i, p) {
                // `.` before a digit is only a float start when it cannot be
                // a tuple-field access (no expression to the left).
                out.push(Token {
                    tok: Tok::Punct(p),
                    line,
                });
                i += p.chars().count();
                matched = true;
                break;
            }
        }
        if !matched {
            i += 1; // unknown byte: skip, stay robust
        }
    }
    out
}

fn src_matches(chars: &[char], i: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, pc)| chars.get(i + k) == Some(&pc))
}

fn looks_like_string_prefix(chars: &[char], i: usize) -> bool {
    // r", r#", br", b", b'…' is a byte char (handled as char, not here).
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
        return chars.get(j) == Some(&'"');
    }
    chars.get(j) == Some(&'"') && j > i
}

/// Skip a possibly raw, possibly byte string starting at the prefix.
fn skip_prefixed_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    if chars.get(i) == Some(&'b') {
        i += 1;
    }
    let mut hashes = 0usize;
    let raw = chars.get(i) == Some(&'r');
    if raw {
        i += 1;
        while chars.get(i) == Some(&'#') {
            hashes += 1;
            i += 1;
        }
    }
    i += 1; // opening quote
    if raw {
        // Scan for `"` followed by `hashes` hashes; no escapes in raw strings.
        while i < chars.len() {
            if chars.get(i) == Some(&'\n') {
                *line += 1;
            }
            if chars.get(i) == Some(&'"') {
                let closed = (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                if closed {
                    return i + 1 + hashes;
                }
            }
            i += 1;
        }
        i
    } else {
        skip_quoted(chars, i, '"', line)
    }
}

/// Skip to the closing `delim`, honouring backslash escapes. Returns the
/// index just past the delimiter.
fn skip_quoted(chars: &[char], mut i: usize, delim: char, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars.get(i) {
            Some('\\') => i += 2,
            Some(c) if *c == delim => return i + 1,
            Some('\n') => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Lex a numeric literal starting at a digit. Decides int vs float the way
/// rustc does: a `.` continues the number only when followed by a digit or
/// by nothing identifier-like (so `1.0` is a float but `x.0` never reaches
/// here, and `0.wrapping_add(…)` stays an int followed by a method call).
fn lex_number(chars: &[char], mut i: usize, _prev: &[Token]) -> (Tok, usize) {
    let start = i;
    let mut is_float = false;

    // Radix prefixes.
    if chars.get(i) == Some(&'0')
        && matches!(chars.get(i + 1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'))
    {
        i += 2;
        while i < chars.len()
            && chars
                .get(i)
                .is_some_and(|c| c.is_alphanumeric() || *c == '_')
        {
            i += 1;
        }
        let text: String = chars.get(start..i).unwrap_or_default().iter().collect();
        return (Tok::Int(text), i);
    }

    while i < chars.len()
        && chars
            .get(i)
            .is_some_and(|c| c.is_ascii_digit() || *c == '_')
    {
        i += 1;
    }
    if chars.get(i) == Some(&'.') {
        let after = chars.get(i + 1);
        let continues = match after {
            Some(c) if c.is_ascii_digit() => true,
            // `1.` at end of expression (e.g. `1. ` or `1.)`) is a float;
            // `1.method()` / `1..n` are not.
            Some(c) if is_ident_start(*c) => false,
            Some('.') => false,
            _ => true,
        };
        if continues {
            is_float = true;
            i += 1;
            while i < chars.len()
                && chars
                    .get(i)
                    .is_some_and(|c| c.is_ascii_digit() || *c == '_')
            {
                i += 1;
            }
        }
    }
    // Exponent.
    if matches!(chars.get(i), Some('e' | 'E')) {
        let mut j = i + 1;
        if matches!(chars.get(j), Some('+' | '-')) {
            j += 1;
        }
        if chars.get(j).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            i = j;
            while i < chars.len()
                && chars
                    .get(i)
                    .is_some_and(|c| c.is_ascii_digit() || *c == '_')
            {
                i += 1;
            }
        }
    }
    // Type suffix (`u64`, `f64`, …) — `f` suffixes force float-ness.
    if chars.get(i).is_some_and(|c| is_ident_start(*c)) {
        let suffix_start = i;
        while i < chars.len() && chars.get(i).is_some_and(|c| is_ident_continue(*c)) {
            i += 1;
        }
        if chars.get(suffix_start) == Some(&'f') {
            is_float = true;
        }
    }
    let text: String = chars.get(start..i).unwrap_or_default().iter().collect();
    if is_float {
        (Tok::Float(text), i)
    } else {
        (Tok::Int(text), i)
    }
}

/// Remove test-only regions from a token stream: any item annotated
/// `#[cfg(test)]` or `#[test]` is dropped, brace-matched. The checks audit
/// shipping code; tests are free to `unwrap` and wall-clock all they like.
pub fn strip_test_regions(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if is_test_attr(&tokens, i) {
            // Skip the attribute itself.
            i = skip_attr(&tokens, i);
            // Skip any further attributes on the same item.
            while matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct("#"))) {
                i = skip_attr(&tokens, i);
            }
            // Skip the annotated item: everything up to and including the
            // matching `{…}` block, or a `;` at depth zero (for
            // `#[cfg(test)] use …;` style items).
            let mut depth = 0i32;
            while i < tokens.len() {
                match tokens.get(i).map(|t| &t.tok) {
                    Some(Tok::Punct("{")) => {
                        depth += 1;
                        i += 1;
                    }
                    Some(Tok::Punct("}")) => {
                        depth -= 1;
                        i += 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    Some(Tok::Punct(";")) if depth == 0 => {
                        i += 1;
                        break;
                    }
                    Some(_) => i += 1,
                    None => break,
                }
            }
            continue;
        }
        if let Some(t) = tokens.get(i) {
            out.push(t.clone());
        }
        i += 1;
    }
    out
}

/// Is `tokens[i..]` the start of `#[cfg(test)]` or `#[test]`?
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    let tok = |k: usize| tokens.get(i + k).map(|t| &t.tok);
    if tok(0) != Some(&Tok::Punct("#")) || tok(1) != Some(&Tok::Punct("[")) {
        return false;
    }
    match tok(2) {
        Some(Tok::Ident(name)) if name == "test" => true,
        Some(Tok::Ident(name)) if name == "cfg" => {
            tok(3) == Some(&Tok::Punct("("))
                && matches!(tok(4), Some(Tok::Ident(arg)) if arg == "test")
        }
        _ => false,
    }
}

/// Skip a `#[…]` attribute, returning the index just past the closing `]`.
fn skip_attr(tokens: &[Token], mut i: usize) -> usize {
    debug_assert!(matches!(
        tokens.get(i).map(|t| &t.tok),
        Some(Tok::Punct("#"))
    ));
    i += 1; // '#'
    let mut depth = 0i32;
    while i < tokens.len() {
        match tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Punct("[")) => depth += 1,
            Some(Tok::Punct("]")) => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn float_vs_tuple_access() {
        let lexed = lex("let a = x.0 + 1.0;");
        let kinds: Vec<&Tok> = lexed.iter().map(|t| &t.tok).collect();
        assert!(kinds.contains(&&Tok::Int("0".to_string())), "{kinds:?}");
        assert!(kinds.contains(&&Tok::Float("1.0".to_string())), "{kinds:?}");
    }

    #[test]
    fn int_method_call_is_not_float() {
        let lexed = lex("0.wrapping_add(1)");
        assert_eq!(
            lexed.first().map(|t| t.tok.clone()),
            Some(Tok::Int("0".to_string()))
        );
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        assert!(idents("\"x.unwrap()\" // .unwrap()\n/* .unwrap() */ real")
            .contains(&"real".to_string()));
        assert!(!idents("\"unwrap\"").contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_strings_skip_quotes() {
        let lexed = lex(r###"let s = r#"a "quoted" b"#; tail"###);
        assert!(idents(r###"let s = r#"a "quoted" b"#; tail"###).contains(&"tail".to_string()));
        assert_eq!(lexed.iter().filter(|t| t.tok == Tok::Str).count(), 1);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert_eq!(lexed.iter().filter(|t| t.tok == Tok::Lifetime).count(), 2);
        assert_eq!(lexed.iter().filter(|t| t.tok == Tok::Char).count(), 1);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let lexed = lex("let s = \"a\nb\nc\";\nlet t = 9;");
        let nine = lexed
            .iter()
            .find(|t| t.tok == Tok::Int("9".to_string()))
            .map(|t| t.line);
        assert_eq!(nine, Some(4));
    }

    #[test]
    fn test_regions_are_stripped() {
        let src =
            "fn keep() {} #[cfg(test)] mod tests { fn gone() { x.unwrap(); } } fn also_kept() {}";
        let toks = strip_test_regions(lex(src));
        let names: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"keep".to_string()));
        assert!(names.contains(&"also_kept".to_string()));
        assert!(!names.contains(&"gone".to_string()));
        assert!(!names.contains(&"unwrap".to_string()));
    }

    #[test]
    fn test_attr_on_fn_is_stripped() {
        let src = "#[test]\nfn probe() { body(); }\nfn stays() {}";
        let toks = strip_test_regions(lex(src));
        let names: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(!names.contains(&"probe".to_string()));
        assert!(names.contains(&"stays".to_string()));
    }

    #[test]
    fn raw_identifiers_lex_as_their_bare_name() {
        let names = idents("fn r#type(r#match: u32) -> u32 { r#match }");
        assert_eq!(names, vec!["fn", "type", "match", "u32", "u32", "match"]);
        assert!(!names.contains(&"r".to_string()));
    }

    #[test]
    fn raw_identifier_does_not_swallow_raw_strings() {
        let lexed = lex(r###"let s = r#"raw"#; r#fn"###);
        assert_eq!(lexed.iter().filter(|t| t.tok == Tok::Str).count(), 1);
        assert!(idents(r###"let s = r#"raw"#; r#fn"###).contains(&"fn".to_string()));
    }

    #[test]
    fn byte_char_is_a_single_char_token() {
        for src in ["b'x'", "b'\\''", "b'\\n'"] {
            let lexed = lex(src);
            let toks: Vec<&Tok> = lexed.iter().map(|t| &t.tok).collect();
            assert_eq!(toks, vec![&Tok::Char], "{src}");
        }
        // A following token is not eaten by the literal.
        assert!(idents("b'x' tail").contains(&"tail".to_string()));
    }

    #[test]
    fn byte_and_raw_byte_strings_are_single_tokens() {
        for src in ["b\"bytes\"", "br#\"raw bytes\"#", "br\"plain\""] {
            let lexed = lex(src);
            assert_eq!(
                lexed.iter().filter(|t| t.tok == Tok::Str).count(),
                1,
                "{src}"
            );
            assert!(idents(src).is_empty(), "{src}");
        }
    }

    #[test]
    fn nested_block_comments_hide_everything() {
        let names = idents("/* outer /* inner .unwrap() */ still comment */ real");
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn nested_block_comments_keep_line_numbers() {
        let lexed = lex("/* a\n/* b\n*/\nc */\nlet t = 9;");
        let nine = lexed
            .iter()
            .find(|t| t.tok == Tok::Int("9".to_string()))
            .map(|t| t.line);
        assert_eq!(nine, Some(5));
    }

    #[test]
    fn doc_comments_hide_their_text() {
        let names = idents("/// call .unwrap() freely\n//! inner docs panic!\nfn real() {}");
        assert_eq!(names, vec!["fn", "real"]);
        let block = idents("/** block doc .unwrap() */ fn real() {}");
        assert_eq!(block, vec!["fn", "real"]);
    }

    #[test]
    fn static_and_anonymous_lifetimes() {
        let lexed = lex("fn f(x: &'static str, y: &'_ u32) -> char { '\\n' }");
        assert_eq!(lexed.iter().filter(|t| t.tok == Tok::Lifetime).count(), 2);
        assert_eq!(lexed.iter().filter(|t| t.tok == Tok::Char).count(), 1);
    }

    #[test]
    fn multiline_raw_strings_keep_line_numbers() {
        let lexed = lex("let s = r#\"a\nb\nc\"#;\nlet t = 9;");
        let nine = lexed
            .iter()
            .find(|t| t.tok == Tok::Int("9".to_string()))
            .map(|t| t.line);
        assert_eq!(nine, Some(4));
    }

    #[test]
    fn exponent_and_suffix_literals() {
        let lexed = lex("1e9 2.5e-3 7u64 3f64");
        let toks: Vec<&Tok> = lexed.iter().map(|t| &t.tok).collect();
        assert_eq!(
            toks,
            vec![
                &Tok::Float("1e9".to_string()),
                &Tok::Float("2.5e-3".to_string()),
                &Tok::Int("7u64".to_string()),
                &Tok::Float("3f64".to_string()),
            ]
        );
    }
}
