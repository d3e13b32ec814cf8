//! Lexer for the design-file language.
//!
//! Tokens are parentheses, string literals, and atoms. An atom may carry a
//! trailing `.` to signal that a parenthesized index expression follows
//! (the `c.(- i 1)` syntax of indexed variables). Comments run from `;` to
//! end of line.

use crate::LangError;

/// One token with its source line (1-based) for diagnostics. Texts are
/// slices of the source, so lexing copies no string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `(`
    LParen {
        /// Source line.
        line: usize,
    },
    /// `)`
    RParen {
        /// Source line.
        line: usize,
    },
    /// A bare atom: symbol, number, or dotted indexed-variable head.
    /// `trailing_dot` is set for atoms like `c.` in `c.(- i 1)`.
    Atom {
        /// The atom text (without any trailing dot).
        text: &'a str,
        /// Whether a `(`-index expression follows.
        trailing_dot: bool,
        /// Source line.
        line: usize,
    },
    /// A double-quoted string literal.
    Str {
        /// The unquoted contents.
        text: &'a str,
        /// Source line.
        line: usize,
    },
}

impl Token<'_> {
    /// The source line of the token.
    pub fn line(&self) -> usize {
        match self {
            Token::LParen { line }
            | Token::RParen { line }
            | Token::Atom { line, .. }
            | Token::Str { line, .. } => *line,
        }
    }
}

/// Splits design-file source into tokens.
///
/// # Errors
///
/// Returns [`LangError::Parse`] on unterminated strings.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LangError> {
    let mut tokens = Vec::new();
    let mut chars = src.char_indices().peekable();
    let mut line = 1usize;

    while let Some(&(at, c)) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            ';' => {
                for (_, c) in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen { line });
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen { line });
            }
            '"' => {
                chars.next();
                let unterminated = || LangError::Parse {
                    line,
                    message: "unterminated string literal".into(),
                };
                let end = loop {
                    match chars.next() {
                        Some((end, '"')) => break end,
                        Some((_, '\n')) | None => return Err(unterminated()),
                        Some(_) => {}
                    }
                };
                tokens.push(Token::Str {
                    text: &src[at + 1..end],
                    line,
                });
            }
            _ => {
                let mut end = src.len();
                let mut trailing_dot = false;
                while let Some(&(i, ch)) = chars.peek() {
                    if ch.is_whitespace() || ch == '(' || ch == ')' || ch == ';' || ch == '"' {
                        end = i;
                        break;
                    }
                    chars.next();
                    // A dot directly before `(` terminates the atom and
                    // announces an index expression. Otherwise it is part
                    // of a dotted name like `l.i`.
                    if ch == '.' && matches!(chars.peek(), Some((_, '('))) {
                        end = i;
                        trailing_dot = true;
                        break;
                    }
                }
                tokens.push(Token::Atom {
                    text: &src[at..end],
                    trailing_dot,
                    line,
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms(src: &str) -> Vec<(String, bool)> {
        lex(src)
            .unwrap()
            .into_iter()
            .filter_map(|t| match t {
                Token::Atom {
                    text, trailing_dot, ..
                } => Some((text.to_owned(), trailing_dot)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn plain_atoms_and_parens() {
        let toks = lex("(+ a 12)").unwrap();
        assert_eq!(toks.len(), 5);
        assert!(matches!(&toks[1], Token::Atom { text, .. } if *text == "+"));
        assert!(matches!(&toks[3], Token::Atom { text, .. } if *text == "12"));
    }

    #[test]
    fn dotted_names_kept_whole() {
        assert_eq!(
            atoms("l.i c.1 phi2_2"),
            vec![
                ("l.i".to_owned(), false),
                ("c.1".to_owned(), false),
                ("phi2_2".to_owned(), false),
            ]
        );
    }

    #[test]
    fn trailing_dot_before_expression() {
        let got = atoms("c.(- i 1)");
        assert_eq!(got[0], ("c".to_owned(), true));
        assert_eq!(got[1], ("-".to_owned(), false));
    }

    #[test]
    fn strings_and_comments() {
        let toks = lex("(mk_cell \"the whole thing\" x) ; trailing comment\n(y)").unwrap();
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::Str { text, .. } if *text == "the whole thing")));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::Atom { text, .. } if *text == "y")));
        assert!(!toks
            .iter()
            .any(|t| matches!(t, Token::Atom { text, .. } if text.contains("comment"))));
    }

    #[test]
    fn line_numbers() {
        let toks = lex("(a\n b\n c)").unwrap();
        let lines: Vec<usize> = toks.iter().map(Token::line).collect();
        assert_eq!(lines, vec![1, 1, 2, 3, 3]);
    }

    #[test]
    fn unterminated_string() {
        assert!(matches!(
            lex("\"abc"),
            Err(LangError::Parse { line: 1, .. })
        ));
        assert!(matches!(lex("\"ab\nc\""), Err(LangError::Parse { .. })));
    }

    #[test]
    fn negative_numbers_are_atoms() {
        assert_eq!(atoms("-42")[0].0, "-42");
    }
}
