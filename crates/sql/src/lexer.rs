//! SQL lexer.
//!
//! Tokens borrow the source text. An identifier is a slice of it, and so
//! is a keyword: keywords are recognized in place by the parser, so `ID`,
//! `FROM` and `TO` can also be names. A string literal is a slice too,
//! unless it contained a `''` escape, the one case that needs an owned
//! copy. Number literals are parsed into their values as they are lexed.
//! Nothing else allocates: the parser copies a name into an owned `String`
//! only where the AST keeps it.
//!
//! [`Lexer`] hands out one token at a time, so the parser holds a window of
//! two and never a token vector.

use std::borrow::Cow;

use grfusion_common::{Error, Result};

/// A lexical token with its source position (1-based line/column, counted
/// in characters) for error messages.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'src> {
    pub kind: TokenKind<'src>,
    pub line: u32,
    pub col: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'src> {
    /// Identifier or keyword (original case preserved).
    Ident(&'src str),
    /// Single- or double-quoted string literal: quotes stripped, and `''`
    /// unescaped, which is the only case that owns its text.
    StringLit(Cow<'src, str>),
    /// Integer literal. The lexer emits no negative number, so
    /// `Integer(i64::MIN)` stands for the magnitude 2^63, and only right
    /// after a `-`: the parser folds the two into `i64::MIN` and rejects
    /// the magnitude anywhere else.
    Integer(i64),
    /// Floating-point literal.
    Double(f64),
    // punctuation / operators
    Comma,
    Dot,
    DotDot,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Semicolon,
    /// Positional parameter placeholder `?` (prepared statements).
    Question,
    /// End of input.
    Eof,
}

impl<'src> TokenKind<'src> {
    /// The identifier text if this is an identifier.
    pub fn ident(&self) -> Option<&'src str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// The magnitude of `i64::MIN`, which is only a literal after a minus.
const MIN_MAGNITUDE: &str = "9223372036854775808";

/// A cursor over SQL text that yields one token per call.
pub struct Lexer<'src> {
    src: &'src str,
    i: usize,
    line: u32,
    col: u32,
    /// Whether the last token was `-` (see [`TokenKind::Integer`]).
    after_minus: bool,
}

impl<'src> Lexer<'src> {
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            i: 0,
            line: 1,
            col: 1,
            after_minus: false,
        }
    }

    /// The next token; `Eof` at the end of the input, and on every call
    /// after that.
    pub fn next_token(&mut self) -> Result<Token<'src>> {
        use TokenKind::*;
        let bytes = self.src.as_bytes();
        // Whitespace and `--` line comments.
        while let Some(&b) = bytes.get(self.i) {
            match b {
                b' ' | b'\t' | b'\r' => {
                    self.i += 1;
                    self.col += 1;
                }
                b'\n' => {
                    self.i += 1;
                    self.line += 1;
                    self.col = 1;
                }
                b'-' if bytes.get(self.i + 1) == Some(&b'-') => {
                    self.i += bytes[self.i..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .unwrap_or(bytes.len() - self.i);
                }
                _ => break,
            }
        }
        let (start, line, col) = (self.i, self.line, self.col);
        let Some(&first) = bytes.get(start) else {
            return Ok(Token {
                kind: Eof,
                line,
                col,
            });
        };
        let second = bytes.get(start + 1).copied();
        let (kind, len) = match first {
            b',' => (Comma, 1),
            b'(' => (LParen, 1),
            b')' => (RParen, 1),
            b'[' => (LBracket, 1),
            b']' => (RBracket, 1),
            b'*' => (Star, 1),
            b'+' => (Plus, 1),
            b'-' => (Minus, 1),
            b'/' => (Slash, 1),
            b'%' => (Percent, 1),
            b';' => (Semicolon, 1),
            b'?' => (Question, 1),
            b'=' => (Eq, 1),
            b'!' if second == Some(b'=') => (NotEq, 2),
            b'<' => match second {
                Some(b'=') => (LtEq, 2),
                Some(b'>') => (NotEq, 2),
                _ => (Lt, 1),
            },
            b'>' => match second {
                Some(b'=') => (GtEq, 2),
                _ => (Gt, 1),
            },
            b'.' => match second {
                Some(b'.') => (DotDot, 2),
                // .5 style float
                Some(b) if b.is_ascii_digit() => self.number(line, col)?,
                _ => (Dot, 1),
            },
            b'0'..=b'9' => self.number(line, col)?,
            b'\'' | b'"' => {
                let text = self.quoted(first, line, col)?;
                self.after_minus = false;
                return Ok(Token {
                    kind: StringLit(text),
                    line,
                    col,
                });
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let len = bytes[start..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .unwrap_or(bytes.len() - start);
                (Ident(&self.src[start..start + len]), len)
            }
            _ => return Err(unexpected_character(&self.src[start..], line, col)),
        };
        // Every token but a string literal is ASCII: one column per byte.
        self.i += len;
        self.col += len as u32;
        self.after_minus = kind == Minus;
        Ok(Token { kind, line, col })
    }

    /// Lex the number at the cursor. Returns the token and its length.
    fn number(&self, line: u32, col: u32) -> Result<(TokenKind<'src>, usize)> {
        let bytes = &self.src.as_bytes()[self.i..];
        let digits = |from: usize| {
            bytes[from..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .map_or(bytes.len(), |n| from + n)
        };
        let mut i = digits(0);
        let mut is_float = false;
        // Careful: `1..5` must lex as Integer(1) DotDot Integer(5), not 1. .5
        if bytes.get(i) == Some(&b'.') {
            match bytes.get(i + 1) {
                Some(b) if b.is_ascii_digit() => {
                    is_float = true;
                    i = digits(i + 1);
                }
                // a trailing dot like `1.` (not `1..`)
                Some(b'.') => {}
                _ => {
                    is_float = true;
                    i += 1;
                }
            }
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            let mut j = i + 1;
            if matches!(bytes.get(j), Some(b'+' | b'-')) {
                j += 1;
            }
            if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                is_float = true;
                i = digits(j);
            }
        }
        let text = &self.src[self.i..self.i + i];
        let kind = if is_float {
            TokenKind::Double(
                text.parse::<f64>()
                    .map_err(|_| bad_number("number", text, line, col))?,
            )
        } else {
            match text.parse::<i64>() {
                Ok(n) => TokenKind::Integer(n),
                Err(_) if self.after_minus && text == MIN_MAGNITUDE => TokenKind::Integer(i64::MIN),
                Err(_) => return Err(bad_number("integer", text, line, col)),
            }
        };
        Ok((kind, i))
    }

    /// Lex the string literal at the cursor, quoted by `quote`, and step
    /// past it. Inside single quotes `''` escapes a quote; a double-quoted
    /// string (paper Listing 6 writes "Address 1") has no escape.
    fn quoted(&mut self, quote: u8, line: u32, col: u32) -> Result<Cow<'src, str>> {
        let s = &self.src[self.i..];
        let bytes = s.as_bytes();
        // Built only once a `''` escape is met: the text before it, then
        // each unescaped run.
        let mut owned: Option<String> = None;
        let mut run = 1usize;
        let (mut i, mut end_line, mut end_col) = (1usize, line, col + 1);
        while let Some(&b) = bytes.get(i) {
            if b == quote && quote == b'\'' && bytes.get(i + 1) == Some(&b'\'') {
                let out = owned.get_or_insert_with(String::new); // alloc-ok: unescaping `''` needs an owned copy
                out.push_str(&s[run..=i]);
                i += 2;
                end_col += 2;
                run = i;
            } else if b == quote {
                let text = match owned {
                    Some(mut out) => {
                        out.push_str(&s[run..i]);
                        Cow::Owned(out)
                    }
                    None => Cow::Borrowed(&s[1..i]),
                };
                self.i += i + 1;
                self.line = end_line;
                self.col = end_col + 1;
                return Ok(text);
            } else if b == b'\n' {
                i += 1;
                end_line += 1;
                end_col = 1;
            } else {
                i += utf8_len(b);
                end_col += 1;
            }
        }
        Err(unterminated(line, col))
    }
}

fn unexpected_character(rest: &str, line: u32, col: u32) -> Error {
    let c = rest.chars().next().unwrap_or_default();
    Error::parse(format!("unexpected character `{c}` at {line}:{col}"))
}

fn bad_number(what: &str, text: &str, line: u32, col: u32) -> Error {
    Error::parse(format!("bad {what} `{text}` at {line}:{col}"))
}

fn unterminated(line: u32, col: u32) -> Error {
    Error::parse(format!(
        "unterminated string literal starting at {line}:{col}"
    ))
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `input`'s tokens, ending with `Eof`.
    fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.next_token()?;
            let end = token.kind == TokenKind::Eof;
            tokens.push(token);
            if end {
                return Ok(tokens);
            }
        }
    }

    fn kinds(s: &str) -> Vec<TokenKind<'_>> {
        tokenize(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        use TokenKind::*;
        assert_eq!(
            kinds("SELECT a, b FROM t WHERE x = 1;"),
            vec![
                Ident("SELECT"),
                Ident("a"),
                Comma,
                Ident("b"),
                Ident("FROM"),
                Ident("t"),
                Ident("WHERE"),
                Ident("x"),
                Eq,
                Integer(1),
                Semicolon,
                Eof
            ]
        );
    }

    #[test]
    fn range_syntax_lexes_as_dotdot() {
        use TokenKind::*;
        // The tricky case from the paper: PS.Edges[0..*].StartDate
        assert_eq!(
            kinds("Edges[0..*].X"),
            vec![
                Ident("Edges"),
                LBracket,
                Integer(0),
                DotDot,
                Star,
                RBracket,
                Dot,
                Ident("X"),
                Eof
            ]
        );
        // 1..5 must not lex a float
        assert_eq!(
            kinds("[1..5]"),
            vec![LBracket, Integer(1), DotDot, Integer(5), RBracket, Eof]
        );
    }

    #[test]
    fn numbers() {
        use TokenKind::*;
        assert_eq!(kinds("42"), vec![Integer(42), Eof]);
        assert_eq!(kinds("4.5"), vec![Double(4.5), Eof]);
        assert_eq!(kinds(".5"), vec![Double(0.5), Eof]);
        assert_eq!(kinds("1."), vec![Double(1.0), Eof]);
        assert_eq!(kinds("1e3"), vec![Double(1000.0), Eof]);
        assert_eq!(kinds("2.5e-1"), vec![Double(0.25), Eof]);
    }

    #[test]
    fn the_magnitude_of_i64_min_lexes_only_after_a_minus() {
        use TokenKind::*;
        assert_eq!(
            kinds("- 9223372036854775808"),
            vec![Minus, Integer(i64::MIN), Eof]
        );
        assert!(tokenize("9223372036854775808").is_err());
        assert!(tokenize("-9223372036854775809").is_err());
        assert!(tokenize("- (9223372036854775808)").is_err());
    }

    #[test]
    fn strings_and_escapes() {
        use TokenKind::*;
        assert_eq!(kinds("'abc'"), vec![StringLit("abc".into()), Eof]);
        assert_eq!(kinds("'it''s'"), vec![StringLit("it's".into()), Eof]);
        assert_eq!(kinds("''''"), vec![StringLit("'".into()), Eof]);
        assert_eq!(kinds("\"Address 1\""), vec![StringLit("Address 1".into()), Eof]);
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn only_an_escape_owns_its_text() {
        let owned = |s: &str| {
            matches!(
                tokenize(s).as_deref(),
                Ok([
                    Token {
                        kind: TokenKind::StringLit(Cow::Owned(_)),
                        ..
                    },
                    ..
                ])
            )
        };
        assert!(!owned("'plain'"));
        assert!(!owned("\"it''s\""));
        assert!(owned("'it''s'"));
    }

    #[test]
    fn comparison_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("< <= > >= = != <>"),
            vec![Lt, LtEq, Gt, GtEq, Eq, NotEq, NotEq, Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        use TokenKind::*;
        assert_eq!(kinds("a -- comment\n b"), vec![Ident("a"), Ident("b"), Eof]);
        assert_eq!(kinds("a -- comment"), vec![Ident("a"), Eof]);
    }

    #[test]
    fn positions_track_lines() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn columns_count_characters_after_a_string() {
        let second = |sql: &str| tokenize(sql).ok().map(|t| (t[1].line, t[1].col));
        assert_eq!(second("'é' x"), Some((1, 5)));
        assert_eq!(second("\"é\" x"), Some((1, 5)));
        assert_eq!(second("'a\nbé' x"), Some((2, 5)));
        assert_eq!(second("\"a\nbé\" x"), Some((2, 5)));
    }

    #[test]
    fn rejects_unknown_chars() {
        assert!(tokenize("a @ b").is_err());
        assert_eq!(kinds("a ? b")[1], TokenKind::Question);
        assert_eq!(
            tokenize("a é").err().map(|e| e.to_string()),
            Some("parse error: unexpected character `é` at 1:3".into())
        );
    }

    #[test]
    fn date_style_literals_pass_through_as_strings() {
        // The paper writes dates as '//2000'-style strings; they are just
        // text to the lexer.
        use TokenKind::*;
        assert_eq!(kinds("'1/1/2000'"), vec![StringLit("1/1/2000".into()), Eof]);
    }
}
