//! Byte-level lexer for the textual IR.
//!
//! One pass over the raw bytes produces a flat [`TokenStream`]: 12-byte
//! `Copy` tokens whose payloads are indices into side tables (an
//! [`Interner`] for identifier-like lexemes, one table each for integer
//! and string literals). Tokens carry their byte offset; line/column are
//! derived on demand only when an error is rendered, so the hot path never
//! tracks line state.
//!
//! A [`prescan`] counts newlines and top-level items first, so the token
//! vector, the interner, and the parser's pending-item vectors are sized
//! once and never reallocate on well-formed input.

use crate::intern::{Interner, Symbol};
use crate::parser::ParseError;

/// Token kind. Payload-carrying kinds index a [`TokenStream`] side table
/// via [`Token::val`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TokKind {
    /// Bare identifier; `val` is a [`Symbol`] index.
    Ident,
    /// `%N` local reference; `val` is `N`.
    Local,
    /// `@name` function reference; `val` is a [`Symbol`] index.
    At,
    /// `$name` global reference; `val` is a [`Symbol`] index.
    Dollar,
    /// Integer literal; `val` indexes [`TokenStream::ints`].
    Int,
    /// String literal; `val` indexes [`TokenStream::strs`].
    Str,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:` (also `;`, the `[T; n]` separator, which reuses this slot)
    Colon,
    /// `*`
    Star,
    /// `->`
    Arrow,
    /// `=`
    Eq,
    /// `?`
    Question,
}

/// One lexed token: kind, payload, and byte offset into the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Payload (symbol index, literal-table index, or local index).
    pub val: u32,
    /// Byte offset of the token's first character in the source.
    pub offset: u32,
}

impl Token {
    /// The payload as a [`Symbol`] (for `Ident`/`At`/`Dollar` tokens).
    #[inline]
    pub fn sym(&self) -> Symbol {
        Symbol(self.val)
    }
}

/// The output of [`lex`]: tokens plus the side tables their payloads
/// index. Shared read-only across parallel body parses.
#[derive(Debug)]
pub struct TokenStream {
    /// The tokens, in source order.
    pub toks: Vec<Token>,
    /// Integer literal values, indexed by `Int` token payloads.
    pub ints: Vec<i64>,
    /// String literal values, indexed by `Str` token payloads.
    pub strs: Vec<String>,
    /// Identifier arena, indexed by `Ident`/`At`/`Dollar` payloads.
    pub interner: Interner,
}

impl TokenStream {
    /// Render a token for an error message, matching the grammar's
    /// concrete spelling (`` `name` ``, `%3`, `@f`, punctuation as-is).
    pub fn describe(&self, t: &Token) -> String {
        match t.kind {
            TokKind::Ident => format!("`{}`", self.interner.resolve(t.sym())),
            TokKind::Local => format!("%{}", t.val),
            TokKind::At => format!("@{}", self.interner.resolve(t.sym())),
            TokKind::Dollar => format!("${}", self.interner.resolve(t.sym())),
            TokKind::Int => format!("{}", self.ints[t.val as usize]),
            TokKind::Str => format!("\"{}\"", self.strs[t.val as usize]),
            other => describe_kind(other).to_string(),
        }
    }
}

/// The fixed spelling of a non-payload token kind.
pub fn describe_kind(kind: TokKind) -> &'static str {
    match kind {
        TokKind::Ident => "identifier",
        TokKind::Local => "`%N`",
        TokKind::At => "`@name`",
        TokKind::Dollar => "`$name`",
        TokKind::Int => "integer",
        TokKind::Str => "string",
        TokKind::LBrace => "{",
        TokKind::RBrace => "}",
        TokKind::LParen => "(",
        TokKind::RParen => ")",
        TokKind::LBracket => "[",
        TokKind::RBracket => "]",
        TokKind::Comma => ",",
        TokKind::Colon => ":",
        TokKind::Star => "*",
        TokKind::Arrow => "->",
        TokKind::Eq => "=",
        TokKind::Question => "?",
    }
}

/// Cheap pre-scan counts used to pre-size the lexer's and parser's
/// vectors. One branch-light pass over the bytes; no allocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct PreScan {
    /// Number of `\n` bytes.
    pub lines: usize,
    /// Lines whose first non-space token is `func`.
    pub funcs: usize,
    /// Lines whose first non-space token is `struct`.
    pub structs: usize,
    /// Lines whose first non-space token is `global`.
    pub globals: usize,
    /// Upper-bound estimate of the token count.
    pub approx_tokens: usize,
}

/// Count lines and top-level items without lexing.
pub fn prescan(src: &str) -> PreScan {
    let bytes = src.as_bytes();
    let mut p = PreScan::default();
    let mut at_line_start = true;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            p.lines += 1;
            at_line_start = true;
            i += 1;
            continue;
        }
        if at_line_start && b != b' ' && b != b'\t' {
            at_line_start = false;
            let rest = &bytes[i..];
            if rest.starts_with(b"func ") {
                p.funcs += 1;
            } else if rest.starts_with(b"struct ") {
                p.structs += 1;
            } else if rest.starts_with(b"global ") {
                p.globals += 1;
            }
        }
        i += 1;
    }
    // The canonical printer averages well under one token per 3 bytes;
    // this bound keeps the token vector from ever growing.
    p.approx_tokens = src.len() / 3 + 16;
    p
}

/// 1-based `(line, col)` of a byte offset, derived on demand.
pub fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(src.len());
    let before = &src.as_bytes()[..offset];
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    let col = offset
        - before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1)
        + 1;
    (line, col)
}

fn lex_err(src: &str, offset: usize, msg: impl Into<String>) -> ParseError {
    let (line, col) = line_col(src, offset);
    ParseError {
        line,
        col,
        offset,
        msg: msg.into(),
    }
}

#[inline]
fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scan an identifier tail starting at `i` (ASCII fast path, Unicode
/// alphanumerics accepted as in the previous char-based lexer). Returns
/// the end offset.
fn ident_end(src: &str, mut i: usize) -> usize {
    let bytes = src.as_bytes();
    loop {
        while i < bytes.len() && is_ident_continue(bytes[i]) {
            i += 1;
        }
        if i < bytes.len() && bytes[i] >= 0x80 {
            let c = src[i..].chars().next().unwrap();
            if c.is_alphanumeric() {
                i += c.len_utf8();
                continue;
            }
        }
        return i;
    }
}

/// Lex the whole source into a [`TokenStream`].
///
/// # Errors
///
/// Returns the first lexical error (unterminated string, stray `-`/`/`,
/// malformed number, unexpected character) with its byte offset.
pub fn lex(src: &str) -> Result<TokenStream, ParseError> {
    let pre = prescan(src);
    lex_with(src, &pre)
}

/// [`lex`] with an already-computed [`PreScan`].
pub fn lex_with(src: &str, pre: &PreScan) -> Result<TokenStream, ParseError> {
    let bytes = src.as_bytes();
    let mut toks: Vec<Token> = Vec::with_capacity(pre.approx_tokens);
    let mut ints: Vec<i64> = Vec::new();
    let mut strs: Vec<String> = Vec::new();
    // Distinct names are a small fraction of tokens; items each introduce
    // one name and bodies mostly repeat keywords and a few locals.
    let mut interner = Interner::with_capacity(64 + pre.funcs * 4 + pre.structs + pre.globals);
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    return Err(lex_err(src, start, "stray `/`"));
                }
            }
            b'"' => {
                i += 1;
                let s0 = i;
                loop {
                    match bytes.get(i) {
                        Some(&b'"') => break,
                        Some(&b'\n') | None => {
                            return Err(lex_err(src, start, "unterminated string"))
                        }
                        Some(_) => i += 1,
                    }
                }
                let val = strs.len() as u32;
                strs.push(src[s0..i].to_string());
                i += 1;
                toks.push(Token {
                    kind: TokKind::Str,
                    val,
                    offset: start as u32,
                });
            }
            b'%' => {
                i += 1;
                let n0 = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let v: u32 = src[n0..i]
                    .parse()
                    .map_err(|_| lex_err(src, start, "bad local index after `%`"))?;
                toks.push(Token {
                    kind: TokKind::Local,
                    val: v,
                    offset: start as u32,
                });
            }
            b'@' | b'$' => {
                i += 1;
                let n0 = i;
                i = ident_end(src, i);
                if i == n0 {
                    return Err(lex_err(
                        src,
                        start,
                        format!("empty name after `{}`", b as char),
                    ));
                }
                let sym = interner.intern(&src[n0..i]);
                toks.push(Token {
                    kind: if b == b'@' {
                        TokKind::At
                    } else {
                        TokKind::Dollar
                    },
                    val: sym.0,
                    offset: start as u32,
                });
            }
            b'-' => {
                i += 1;
                match bytes.get(i) {
                    Some(&b'>') => {
                        i += 1;
                        toks.push(Token {
                            kind: TokKind::Arrow,
                            val: 0,
                            offset: start as u32,
                        });
                    }
                    Some(&d) if d.is_ascii_digit() => {
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                        let v: i64 = src[start..i]
                            .parse()
                            .map_err(|_| lex_err(src, start, "bad integer"))?;
                        let val = ints.len() as u32;
                        ints.push(v);
                        toks.push(Token {
                            kind: TokKind::Int,
                            val,
                            offset: start as u32,
                        });
                    }
                    _ => return Err(lex_err(src, start, "stray `-`")),
                }
            }
            b'0'..=b'9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let v: i64 = src[start..i]
                    .parse()
                    .map_err(|_| lex_err(src, start, "bad integer"))?;
                let val = ints.len() as u32;
                ints.push(v);
                toks.push(Token {
                    kind: TokKind::Int,
                    val,
                    offset: start as u32,
                });
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                i = ident_end(src, i + 1);
                let sym = interner.intern(&src[start..i]);
                toks.push(Token {
                    kind: TokKind::Ident,
                    val: sym.0,
                    offset: start as u32,
                });
            }
            _ => {
                let kind = match b {
                    b'{' => TokKind::LBrace,
                    b'}' => TokKind::RBrace,
                    b'(' => TokKind::LParen,
                    b')' => TokKind::RParen,
                    b'[' => TokKind::LBracket,
                    b']' => TokKind::RBracket,
                    b',' => TokKind::Comma,
                    b':' => TokKind::Colon,
                    b'*' => TokKind::Star,
                    b'=' => TokKind::Eq,
                    b'?' => TokKind::Question,
                    b';' => TokKind::Colon, // `[T; n]` separator reuses Colon slot
                    _ => {
                        // Multi-byte chars may still open a Unicode ident
                        // (the char-based lexer accepted those).
                        if b >= 0x80 {
                            let c = src[start..].chars().next().unwrap();
                            if c.is_alphabetic() {
                                i = ident_end(src, start + c.len_utf8());
                                let sym = interner.intern(&src[start..i]);
                                toks.push(Token {
                                    kind: TokKind::Ident,
                                    val: sym.0,
                                    offset: start as u32,
                                });
                                continue;
                            }
                            return Err(lex_err(src, start, format!("unexpected character `{c}`")));
                        }
                        return Err(lex_err(
                            src,
                            start,
                            format!("unexpected character `{}`", b as char),
                        ));
                    }
                };
                i += 1;
                toks.push(Token {
                    kind,
                    val: 0,
                    offset: start as u32,
                });
            }
        }
    }
    Ok(TokenStream {
        toks,
        ints,
        strs,
        interner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_full_token_vocabulary() {
        let src = "module \"m\" func f(%0 x: int) -> [int; 4]* { @g $h -3 ? = , }";
        let ts = lex(src).unwrap();
        let kinds: Vec<TokKind> = ts.toks.iter().map(|t| t.kind).collect();
        assert_eq!(kinds[0], TokKind::Ident);
        assert_eq!(kinds[1], TokKind::Str);
        assert!(kinds.contains(&TokKind::Arrow));
        assert!(kinds.contains(&TokKind::Question));
        assert_eq!(ts.ints, vec![4, -3]);
        assert_eq!(ts.strs, vec!["m".to_string()]);
    }

    #[test]
    fn offsets_resolve_to_line_and_col() {
        let src = "module \"m\"\nfunc f() -> void {\n}\n";
        let ts = lex(src).unwrap();
        let func = ts
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Ident && ts.interner.resolve(t.sym()) == "func")
            .unwrap();
        assert_eq!(line_col(src, func.offset as usize), (2, 1));
    }

    #[test]
    fn comments_and_whitespace_are_skipped() {
        let src = "# comment\n  // also\nmodule \"m\"";
        let ts = lex(src).unwrap();
        assert_eq!(ts.toks.len(), 2);
    }

    #[test]
    fn lex_errors_carry_offsets() {
        let e = lex("module \"m\"\n\"unterminated").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("unterminated string"));
        let e = lex("a - b").unwrap_err();
        assert!(e.msg.contains("stray `-`"));
        let e = lex("a / b").unwrap_err();
        assert!(e.msg.contains("stray `/`"));
    }

    #[test]
    fn prescan_counts_items() {
        let src = "module \"m\"\nstruct s { int }\nglobal g: int\nfunc f() -> void {\n}\n";
        let p = prescan(src);
        assert_eq!(p.funcs, 1);
        assert_eq!(p.structs, 1);
        assert_eq!(p.globals, 1);
        assert_eq!(p.lines, 5);
    }

    #[test]
    fn interned_repeats_share_symbols() {
        let ts = lex("copy copy copy %1 %1").unwrap();
        assert_eq!(ts.interner.len(), 1);
        assert_eq!(ts.toks[0].val, ts.toks[2].val);
    }
}
