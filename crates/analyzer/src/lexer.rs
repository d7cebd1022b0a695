//! A small Rust lexer producing line-spanned tokens.
//!
//! Every lint in this crate works on token streams, never on raw text, so a
//! `unwrap()` inside a string literal, a `HashMap` in a doc comment, or a
//! `panic!` in a `#[should_panic]` test name can never trip a pass. The lexer
//! handles the constructs that defeat grep:
//!
//! * line comments (`//`, `///`, `//!`) and block comments (`/* .. */`) with
//!   arbitrary nesting — doc comments carry doctests, so code inside *any*
//!   comment is invisible to the lints;
//! * string literals with escapes, raw strings with any number of `#` guards
//!   (`r#".."#`), byte strings (`b".."`, `br#".."#`) and C strings (`c".."`);
//! * char and byte-char literals (`'x'`, `'\''`, `b'u'`) disambiguated from
//!   lifetimes (`'a`, `'static`, `'_`);
//! * identifiers, numeric literals and single-character punctuation.
//!
//! After tokenization, `mark_test_regions` walks the stream
//! for `#[cfg(test)]` attributes and marks the brace-balanced item that
//! follows (a `mod tests { .. }` block, a shim `fn`/`impl`, …) so passes can
//! distinguish library code from in-file test code.

/// The flavor of a literal token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lit {
    /// `"…"` (escapes resolved lexically, content not interpreted).
    Str,
    /// `r"…"` / `r#"…"#` with any guard depth, including `br`/`cr` forms.
    RawStr,
    /// `'x'` or `'\n'`.
    Char,
    /// `b'x'`.
    Byte,
    /// `b"…"` (non-raw).
    ByteStr,
    /// Integer or float literal (prefix/suffix kept verbatim).
    Num,
}

/// A token kind. Whitespace and comments never produce tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'_`).
    Lifetime,
    /// A literal; see [`Lit`].
    Literal(Lit),
    /// A single punctuation character.
    Punct(char),
}

/// One spanned token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// The token text. For punctuation this is the single character; for
    /// literals it is the source spelling including quotes and prefixes.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is a (possibly raw, possibly byte) string literal —
    /// the accepted argument form for a documented `expect("…")`.
    pub fn is_string_literal(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Literal(Lit::Str | Lit::RawStr | Lit::ByteStr)
        )
    }
}

/// A lexed file: the token vector plus a parallel `in_test` mask.
#[derive(Debug, Clone)]
pub struct TokenStream {
    /// The tokens in source order.
    pub tokens: Vec<Token>,
    /// `in_test[i]` is true when token `i` sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl TokenStream {
    /// Lexes `source` and marks `#[cfg(test)]` regions.
    pub fn lex(source: &str) -> TokenStream {
        let tokens = lex_tokens(source);
        let in_test = mark_test_regions(&tokens);
        TokenStream { tokens, in_test }
    }

    /// The number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the stream holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Lexes a whole source file into tokens.
fn lex_tokens(source: &str) -> Vec<Token> {
    let b = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment: track depth, count newlines.
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start = i;
                let start_line = line;
                i = skip_quoted(b, i, &mut line);
                tokens.push(token(
                    TokenKind::Literal(Lit::Str),
                    source,
                    start,
                    i,
                    start_line,
                ));
            }
            b'\'' => {
                let start = i;
                let start_line = line;
                // Lifetime: `'` + identifier start, where the char after the
                // identifier start is NOT a closing quote ('a' is a char
                // literal, 'a  is a lifetime, '_' is a char, '_ a lifetime).
                let next = b.get(i + 1).copied();
                let after = b.get(i + 2).copied();
                let is_lifetime =
                    matches!(next, Some(n) if is_ident_start(n)) && after != Some(b'\'');
                if is_lifetime {
                    i += 2;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    tokens.push(token(TokenKind::Lifetime, source, start, i, start_line));
                } else {
                    i = skip_char_literal(b, i, &mut line);
                    tokens.push(token(
                        TokenKind::Literal(Lit::Char),
                        source,
                        start,
                        i,
                        start_line,
                    ));
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < b.len() && (is_ident_continue(b[i]) || is_float_dot(b, i)) {
                    i += 1;
                }
                tokens.push(token(TokenKind::Literal(Lit::Num), source, start, i, line));
            }
            _ if is_ident_start(c) => {
                let start = i;
                i += 1;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let text = &source[start..i];
                // String-literal prefixes: r".."/r#".."#, b"..", br".., c"..,
                // cr".., and the byte-char b'x'.
                let next = b.get(i).copied();
                let raw_capable = matches!(text, "r" | "br" | "cr");
                let str_capable = raw_capable || matches!(text, "b" | "c");
                if str_capable && next == Some(b'"') || raw_capable && next == Some(b'#') {
                    let start_line = line;
                    let lit = if raw_capable {
                        i = skip_raw_string(b, i, &mut line);
                        Lit::RawStr
                    } else {
                        i = skip_quoted(b, i, &mut line);
                        if text == "b" {
                            Lit::ByteStr
                        } else {
                            Lit::Str
                        }
                    };
                    tokens.push(token(TokenKind::Literal(lit), source, start, i, start_line));
                } else if text == "b" && next == Some(b'\'') {
                    let start_line = line;
                    i = skip_char_literal(b, i + 1, &mut line);
                    tokens.push(token(
                        TokenKind::Literal(Lit::Byte),
                        source,
                        start,
                        i,
                        start_line,
                    ));
                } else {
                    tokens.push(token(TokenKind::Ident, source, start, i, line));
                }
            }
            _ if c.is_ascii() => {
                tokens.push(Token {
                    kind: TokenKind::Punct(c as char),
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
            _ => {
                // Non-ASCII outside a string/comment (e.g. a Unicode ident):
                // skip the full UTF-8 sequence without splitting it.
                i += 1;
                while i < b.len() && (b[i] & 0xC0) == 0x80 {
                    i += 1;
                }
            }
        }
    }
    tokens
}

fn token(kind: TokenKind, source: &str, start: usize, end: usize, line: u32) -> Token {
    Token {
        kind,
        text: source[start..end].to_string(),
        line,
    }
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Whether the `.` at `i` continues a float literal (`1.5`) rather than
/// starting a range (`1..5`) or a method call (`1.max(2)`).
fn is_float_dot(b: &[u8], i: usize) -> bool {
    b[i] == b'.' && matches!(b.get(i + 1), Some(n) if n.is_ascii_digit())
}

/// Skips a `"…"` literal starting at the opening quote; returns the index
/// one past the closing quote.
fn skip_quoted(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string starting at the `#`s or quote after the `r`/`br`/`cr`
/// prefix; returns the index one past the closing delimiter.
fn skip_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut guards = 0usize;
    while i < b.len() && b[i] == b'#' {
        guards += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
    }
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"'
            && b[i + 1..]
                .iter()
                .take(guards)
                .filter(|c| **c == b'#')
                .count()
                == guards
        {
            return i + 1 + guards;
        } else {
            i += 1;
        }
    }
    i
}

/// Skips a char (or byte-char) literal starting at the opening `'`; returns
/// the index one past the closing quote.
fn skip_char_literal(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => {
                // Unterminated char literal; bail at the newline so the rest
                // of the file still lexes.
                *line += 1;
                return i;
            }
            _ => i += 1,
        }
    }
    i
}

/// Marks the tokens belonging to `#[cfg(test)]` items.
///
/// On each exact `# [ cfg ( test ) ]` sequence, any further attribute groups
/// are skipped, then the following item is marked: everything up to its
/// terminating `;` for declarations, or through its brace-balanced `{ … }`
/// block for `mod`/`fn`/`impl`/`struct` items.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_at(tokens, i) {
            let mut j = i + 7; // one past the closing `]`
                               // Skip any further attributes stacked on the same item.
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attribute(tokens, j);
            }
            // Mark through the item's block (or to its `;` for block-less
            // items such as `#[cfg(test)] use …;` / `mod tests;`).
            let mut depth = 0usize;
            while j < tokens.len() {
                mask[j] = true;
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tokens[j].is_punct(';') && depth == 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Whether the exact token sequence `# [ cfg ( test ) ]` starts at `i`.
fn is_cfg_test_at(tokens: &[Token], i: usize) -> bool {
    tokens.len() > i + 6
        && tokens[i].is_punct('#')
        && tokens[i + 1].is_punct('[')
        && tokens[i + 2].is_ident("cfg")
        && tokens[i + 3].is_punct('(')
        && tokens[i + 4].is_ident("test")
        && tokens[i + 5].is_punct(')')
        && tokens[i + 6].is_punct(']')
}

/// Skips one `#[…]` attribute group starting at the `#`; returns the index
/// one past its closing `]`.
fn skip_attribute(tokens: &[Token], mut i: usize) -> usize {
    i += 1; // `#`
    if i < tokens.len() && tokens[i].is_punct('!') {
        i += 1;
    }
    if i >= tokens.len() || !tokens[i].is_punct('[') {
        return i;
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('[') {
            depth += 1;
        } else if tokens[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        TokenStream::lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_hide_code() {
        let src = "// unwrap()\n/* panic! /* nested unwrap() */ still */ real";
        assert_eq!(idents(src), vec!["real"]);
    }

    #[test]
    fn nested_block_comments_track_lines() {
        let src = "/* a\n/* b\n*/\n*/ after";
        let ts = TokenStream::lex(src);
        assert_eq!(ts.tokens.len(), 1);
        assert_eq!(ts.tokens[0].line, 4);
    }

    #[test]
    fn strings_hide_code_and_raw_guards_are_respected() {
        let src = r####"let a = "unwrap()"; let b = r#"x " unwrap() "#; done"####;
        assert_eq!(idents(src), vec!["let", "a", "let", "b", "done"]);
    }

    #[test]
    fn char_byte_and_lifetime_disambiguation() {
        let src = "fn f<'a>(x: &'a str) { let c = '\\''; let d = 'z'; let e = b'u'; let f = '_'; }";
        let ts = TokenStream::lex(src);
        let lifetimes: Vec<&Token> = ts
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars = ts
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Literal(Lit::Char)))
            .count();
        assert_eq!(chars, 3, "'\\'' , 'z' and '_' are char literals");
        let bytes = ts
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Literal(Lit::Byte)))
            .count();
        assert_eq!(bytes, 1);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let src = "for i in 0..16 { let x = 1.5e3; let y = 0x1f_u32; }";
        let ts = TokenStream::lex(src);
        let nums: Vec<String> = ts
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Literal(Lit::Num)))
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "16", "1.5e3", "0x1f_u32"]);
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }";
        let ts = TokenStream::lex(src);
        let unwraps: Vec<bool> = ts
            .tokens
            .iter()
            .zip(&ts.in_test)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, m)| *m)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn cfg_test_with_stacked_attributes_and_semicolon_items() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn shim() { a.unwrap() }\n#[cfg(test)]\nuse std::x;\nfn real() { b.unwrap() }";
        let ts = TokenStream::lex(src);
        let flagged: Vec<(String, bool)> = ts
            .tokens
            .iter()
            .zip(&ts.in_test)
            .filter(|(t, _)| t.is_ident("unwrap") || t.is_ident("x"))
            .map(|(t, m)| (t.text.clone(), *m))
            .collect();
        assert_eq!(
            flagged,
            vec![
                ("unwrap".to_string(), true),
                ("x".to_string(), true),
                ("unwrap".to_string(), false)
            ]
        );
    }
}
