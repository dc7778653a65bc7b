//! Cpf lexer.

use crate::CompileError;

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or type name.
    Ident(String),
    /// Integer literal (decimal, hex, octal, char constant).
    Int(u64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `+`
    Plus,
    /// `-`
    Minus,
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
    EqEq,
    /// `!=`
    Ne,
    /// `&`
    Amp,
    /// `^`
    Caret,
    /// `|`
    Pipe,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `~`
    Tilde,
    /// `=`
    Assign,
    /// `+=` `-=` `*=` `/=` `%=` `&=` `|=` `^=` `<<=` `>>=` — the operator
    /// char(s) are carried as payload.
    CompoundAssign(char),
    /// `<<=`
    ShlAssign,
    /// `>>=`
    ShrAssign,
    /// `for`
    For,
    /// `->`
    Arrow,
    /// `.`
    Dot,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `const`
    Const,
    /// `union`
    Union,
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind and payload.
    pub tok: Tok,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

fn e(line: usize, col: usize, msg: impl Into<String>) -> CompileError {
    CompileError {
        line,
        col,
        msg: msg.into(),
    }
}

/// Tokenize Cpf source.
pub fn lex(src: &str) -> Result<Vec<Token>, CompileError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;

    macro_rules! push {
        ($t:expr, $l:expr, $c:expr) => {
            out.push(Token {
                tok: $t,
                line: $l,
                col: $c,
            })
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        let (tl, tc) = (line, col);
        let advance = |i: &mut usize, col: &mut usize, n: usize| {
            *i += n;
            *col += n;
        };
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => advance(&mut i, &mut col, 1),
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                i += 2;
                col += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(e(tl, tc, "unterminated block comment"));
                    }
                    if bytes[i] == '*' && bytes[i + 1] == '/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == '\n' {
                        line += 1;
                        col = 1;
                        i += 1;
                    } else {
                        i += 1;
                        col += 1;
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                    col += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                let tok = match word.as_str() {
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "for" => Tok::For,
                    "return" => Tok::Return,
                    "break" => Tok::Break,
                    "continue" => Tok::Continue,
                    "const" => Tok::Const,
                    "union" => Tok::Union,
                    _ => Tok::Ident(word),
                };
                push!(tok, tl, tc);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                    col += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                let v = if let Some(hex) = word.strip_prefix("0x").or(word.strip_prefix("0X")) {
                    u64::from_str_radix(hex, 16)
                } else if word.len() > 1 && word.starts_with('0') {
                    u64::from_str_radix(&word[1..], 8)
                } else {
                    word.parse::<u64>()
                }
                .map_err(|_| e(tl, tc, format!("bad integer literal `{word}`")))?;
                push!(Tok::Int(v), tl, tc);
            }
            _ => {
                // Three-character operators first.
                let three: String = bytes[i..(i + 3).min(bytes.len())].iter().collect();
                let tok3 = match three.as_str() {
                    "<<=" => Some(Tok::ShlAssign),
                    ">>=" => Some(Tok::ShrAssign),
                    _ => None,
                };
                if let Some(t) = tok3 {
                    push!(t, tl, tc);
                    advance(&mut i, &mut col, 3);
                    continue;
                }
                // Multi-character operators next.
                let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                let tok2 = match two.as_str() {
                    "+=" => Some(Tok::CompoundAssign('+')),
                    "-=" => Some(Tok::CompoundAssign('-')),
                    "*=" => Some(Tok::CompoundAssign('*')),
                    "/=" => Some(Tok::CompoundAssign('/')),
                    "%=" => Some(Tok::CompoundAssign('%')),
                    "&=" => Some(Tok::CompoundAssign('&')),
                    "|=" => Some(Tok::CompoundAssign('|')),
                    "^=" => Some(Tok::CompoundAssign('^')),
                    "<<" => Some(Tok::Shl),
                    ">>" => Some(Tok::Shr),
                    "<=" => Some(Tok::Le),
                    ">=" => Some(Tok::Ge),
                    "==" => Some(Tok::EqEq),
                    "!=" => Some(Tok::Ne),
                    "&&" => Some(Tok::AndAnd),
                    "||" => Some(Tok::OrOr),
                    "->" => Some(Tok::Arrow),
                    _ => None,
                };
                if let Some(t) = tok2 {
                    push!(t, tl, tc);
                    advance(&mut i, &mut col, 2);
                    continue;
                }
                let tok1 = match c {
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    ';' => Tok::Semi,
                    ',' => Tok::Comma,
                    '*' => Tok::Star,
                    '/' => Tok::Slash,
                    '%' => Tok::Percent,
                    '+' => Tok::Plus,
                    '-' => Tok::Minus,
                    '<' => Tok::Lt,
                    '>' => Tok::Gt,
                    '&' => Tok::Amp,
                    '^' => Tok::Caret,
                    '|' => Tok::Pipe,
                    '!' => Tok::Bang,
                    '~' => Tok::Tilde,
                    '=' => Tok::Assign,
                    '.' => Tok::Dot,
                    other => return Err(e(tl, tc, format!("unexpected character `{other}`"))),
                };
                push!(tok1, tl, tc);
                advance(&mut i, &mut col, 1);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("if else while return break continue const union foo"),
            vec![
                Tok::If,
                Tok::Else,
                Tok::While,
                Tok::Return,
                Tok::Break,
                Tok::Continue,
                Tok::Const,
                Tok::Union,
                Tok::Ident("foo".into())
            ]
        );
    }

    #[test]
    fn integer_bases() {
        assert_eq!(
            kinds("42 0x2a 052 0"),
            vec![Tok::Int(42), Tok::Int(42), Tok::Int(42), Tok::Int(0)]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a << b >> c <= d >= e == f != g && h || i -> j"),
            vec![
                Tok::Ident("a".into()),
                Tok::Shl,
                Tok::Ident("b".into()),
                Tok::Shr,
                Tok::Ident("c".into()),
                Tok::Le,
                Tok::Ident("d".into()),
                Tok::Ge,
                Tok::Ident("e".into()),
                Tok::EqEq,
                Tok::Ident("f".into()),
                Tok::Ne,
                Tok::Ident("g".into()),
                Tok::AndAnd,
                Tok::Ident("h".into()),
                Tok::OrOr,
                Tok::Ident("i".into()),
                Tok::Arrow,
                Tok::Ident("j".into()),
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a // line comment\n b /* block\ncomment */ c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into())
            ]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn bad_char_errors() {
        let e = lex("a $ b").unwrap_err();
        assert!(e.msg.contains('$'));
    }

    #[test]
    fn bad_integer_errors() {
        assert!(lex("0xzz").is_err());
        assert!(lex("123abc").is_err());
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(
            kinds("a->b a-b a - >"),
            vec![
                Tok::Ident("a".into()),
                Tok::Arrow,
                Tok::Ident("b".into()),
                Tok::Ident("a".into()),
                Tok::Minus,
                Tok::Ident("b".into()),
                Tok::Ident("a".into()),
                Tok::Minus,
                Tok::Gt,
            ]
        );
    }
}
