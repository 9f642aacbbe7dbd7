//! SQL lexer.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords are matched later).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Semi => write!(f, ";"),
        }
    }
}

/// A lexing error with byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes SQL text. Identifiers keep their original case; keyword
/// recognition is case-insensitive and happens in the parser.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => pos += 1,
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                // Line comment.
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'(' => {
                out.push(Token::LParen);
                pos += 1;
            }
            b')' => {
                out.push(Token::RParen);
                pos += 1;
            }
            b',' => {
                out.push(Token::Comma);
                pos += 1;
            }
            b'.' if !bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) => {
                out.push(Token::Dot);
                pos += 1;
            }
            b'*' => {
                out.push(Token::Star);
                pos += 1;
            }
            b'+' => {
                out.push(Token::Plus);
                pos += 1;
            }
            b'-' => {
                out.push(Token::Minus);
                pos += 1;
            }
            b'/' => {
                out.push(Token::Slash);
                pos += 1;
            }
            b'%' => {
                out.push(Token::Percent);
                pos += 1;
            }
            b';' => {
                out.push(Token::Semi);
                pos += 1;
            }
            b'=' => {
                out.push(Token::Eq);
                pos += 1;
            }
            b'!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    pos += 2;
                } else {
                    return Err(LexError {
                        offset: pos,
                        message: "unexpected '!'".into(),
                    });
                }
            }
            b'<' => match bytes.get(pos + 1) {
                Some(b'=') => {
                    out.push(Token::Le);
                    pos += 2;
                }
                Some(b'>') => {
                    out.push(Token::Ne);
                    pos += 2;
                }
                _ => {
                    out.push(Token::Lt);
                    pos += 1;
                }
            },
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    pos += 2;
                } else {
                    out.push(Token::Gt);
                    pos += 1;
                }
            }
            b'\'' => {
                let start = pos;
                pos += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(pos) {
                        Some(b'\'') if bytes.get(pos + 1) == Some(&b'\'') => {
                            s.push('\'');
                            pos += 2;
                        }
                        Some(b'\'') => {
                            pos += 1;
                            break;
                        }
                        // Collect one UTF-8 character, if any is left.
                        _ => match input[pos..].chars().next() {
                            Some(c) => {
                                s.push(c);
                                pos += c.len_utf8();
                            }
                            None => {
                                return Err(LexError {
                                    offset: start,
                                    message: "unterminated string literal".into(),
                                })
                            }
                        },
                    }
                }
                out.push(Token::Str(s));
            }
            b'0'..=b'9' | b'.' => {
                let start = pos;
                let mut is_float = false;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_digit()
                        || bytes[pos] == b'.'
                        || bytes[pos] == b'e'
                        || bytes[pos] == b'E'
                        || ((bytes[pos] == b'+' || bytes[pos] == b'-')
                            && matches!(bytes.get(pos - 1), Some(b'e' | b'E'))))
                {
                    if bytes[pos] == b'.' || bytes[pos] == b'e' || bytes[pos] == b'E' {
                        is_float = true;
                    }
                    pos += 1;
                }
                let text = &input[start..pos];
                if is_float {
                    let v: f64 = text.parse().map_err(|_| LexError {
                        offset: start,
                        message: format!("invalid number '{text}'"),
                    })?;
                    out.push(Token::Float(v));
                } else {
                    let v: i64 = text.parse().map_err(|_| LexError {
                        offset: start,
                        message: format!("invalid integer '{text}'"),
                    })?;
                    out.push(Token::Int(v));
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                out.push(Token::Ident(input[start..pos].to_string()));
            }
            other => {
                return Err(LexError {
                    offset: pos,
                    message: format!("unexpected character '{}'", other as char),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_select() {
        let toks = tokenize("SELECT title, year FROM films WHERE year >= 1990").unwrap();
        assert_eq!(toks.len(), 10);
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[8], Token::Ge);
        assert_eq!(toks[9], Token::Int(1990));
    }

    #[test]
    fn string_escapes_doubled_quotes() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn numbers_int_and_float() {
        let toks = tokenize("1 2.5 0.7 1e3").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Float(0.7),
                Token::Float(1000.0)
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("< <= > >= = <> !=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("SELECT @x").is_err());
        assert!(tokenize("'unterminated").is_err());
    }
}
