//! Tokenizer for the fusion-query SQL dialect.

use fusion_types::error::{FusionError, Result};
use fusion_types::CmpOp;

/// A lexical token with its byte offset in the input.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the token's first character.
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (keywords are recognized by the parser,
    /// case-insensitively).
    Ident(String),
    /// String literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Comparison operator.
    Cmp(CmpOp),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `-` (unary minus before a numeric literal).
    Minus,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// True if this is the identifier `word`, case-insensitively.
    pub(crate) fn is_kw(&self, word: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(word))
    }
}

/// Tokenizes `input`.
///
/// # Errors
/// Fails on unterminated strings, malformed numbers, and unexpected
/// characters, reporting the byte offset.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        let kind = match c {
            ',' => {
                i += 1;
                TokenKind::Comma
            }
            '.' => {
                i += 1;
                TokenKind::Dot
            }
            '(' => {
                i += 1;
                TokenKind::LParen
            }
            ')' => {
                i += 1;
                TokenKind::RParen
            }
            '-' => {
                i += 1;
                TokenKind::Minus
            }
            '=' => {
                i += 1;
                TokenKind::Cmp(CmpOp::Eq)
            }
            '<' => {
                i += 1;
                match bytes.get(i).map(|b| *b as char) {
                    Some('=') => {
                        i += 1;
                        TokenKind::Cmp(CmpOp::Le)
                    }
                    Some('>') => {
                        i += 1;
                        TokenKind::Cmp(CmpOp::Ne)
                    }
                    _ => TokenKind::Cmp(CmpOp::Lt),
                }
            }
            '>' => {
                i += 1;
                if bytes.get(i) == Some(&b'=') {
                    i += 1;
                    TokenKind::Cmp(CmpOp::Ge)
                } else {
                    TokenKind::Cmp(CmpOp::Gt)
                }
            }
            '!' => {
                i += 1;
                if bytes.get(i) == Some(&b'=') {
                    i += 1;
                    TokenKind::Cmp(CmpOp::Ne)
                } else {
                    return Err(FusionError::Parse {
                        detail: "expected `=` after `!`".into(),
                        offset: Some(start),
                    });
                }
            }
            '\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(FusionError::Parse {
                                detail: "unterminated string literal".into(),
                                offset: Some(start),
                            });
                        }
                        Some(b'\'') => {
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                TokenKind::Str(s)
            }
            c if c.is_ascii_digit() => {
                let mut is_float = false;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_digit() {
                        i += 1;
                    } else if b == '.'
                        && !is_float
                        && bytes
                            .get(i + 1)
                            .is_some_and(|n| (*n as char).is_ascii_digit())
                    {
                        is_float = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[start..i];
                if is_float {
                    TokenKind::Float(text.parse().map_err(|_| FusionError::Parse {
                        detail: format!("bad float literal `{text}`"),
                        offset: Some(start),
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| FusionError::Parse {
                        detail: format!("bad integer literal `{text}`"),
                        offset: Some(start),
                    })?)
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_alphanumeric() || b == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                TokenKind::Ident(input[start..i].to_string())
            }
            other => {
                return Err(FusionError::Parse {
                    detail: format!("unexpected character `{other}`"),
                    offset: Some(start),
                });
            }
        };
        out.push(Token {
            kind,
            offset: start,
        });
    }
    out.push(Token {
        kind: TokenKind::Eof,
        offset: input.len(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT u1.M, 42 3.5 'ab''c' <= <> != ( ) -"),
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Ident("u1".into()),
                TokenKind::Dot,
                TokenKind::Ident("M".into()),
                TokenKind::Comma,
                TokenKind::Int(42),
                TokenKind::Float(3.5),
                TokenKind::Str("ab'c".into()),
                TokenKind::Cmp(CmpOp::Le),
                TokenKind::Cmp(CmpOp::Ne),
                TokenKind::Cmp(CmpOp::Ne),
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Minus,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comparison_disambiguation() {
        assert_eq!(
            kinds("< <= <> > >= ="),
            vec![
                TokenKind::Cmp(CmpOp::Lt),
                TokenKind::Cmp(CmpOp::Le),
                TokenKind::Cmp(CmpOp::Ne),
                TokenKind::Cmp(CmpOp::Gt),
                TokenKind::Cmp(CmpOp::Ge),
                TokenKind::Cmp(CmpOp::Eq),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn offsets_are_recorded() {
        let toks = tokenize("ab  cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 4);
    }

    #[test]
    fn errors_carry_offsets() {
        match tokenize("a # b").unwrap_err() {
            FusionError::Parse { offset, .. } => assert_eq!(offset, Some(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn number_edge_cases() {
        assert_eq!(
            kinds("1.x"),
            vec![
                TokenKind::Int(1),
                TokenKind::Dot,
                TokenKind::Ident("x".into()),
                TokenKind::Eof,
            ]
        );
        assert_eq!(
            kinds("10.25"),
            vec![TokenKind::Float(10.25), TokenKind::Eof]
        );
    }

    #[test]
    fn keyword_check_is_case_insensitive() {
        assert!(TokenKind::Ident("select".into()).is_kw("SELECT"));
        assert!(TokenKind::Ident("WHERE".into()).is_kw("where"));
        assert!(!TokenKind::Ident("sel".into()).is_kw("SELECT"));
    }
}
