//! Parser: tokens → s-expressions → [`Ast`] per the Appendix-A BNF.

use crate::ast::{Ast, ProcDef, TopLevel, VarRef};
use crate::lexer::{lex, Token};
use crate::LangError;

/// Intermediate s-expression form; texts borrow from the source.
#[derive(Debug, Clone, PartialEq)]
enum Sexp<'a> {
    Atom {
        text: &'a str,
        line: usize,
    },
    Str {
        text: &'a str,
        line: usize,
    },
    /// An atom immediately followed by `.(expr)` index expressions.
    Indexed {
        base: &'a str,
        indices: Vec<Sexp<'a>>,
        line: usize,
    },
    List {
        items: Vec<Sexp<'a>>,
        line: usize,
    },
}

impl Sexp<'_> {
    fn line(&self) -> usize {
        match self {
            Sexp::Atom { line, .. }
            | Sexp::Str { line, .. }
            | Sexp::Indexed { line, .. }
            | Sexp::List { line, .. } => *line,
        }
    }
}

fn perr(line: usize, message: impl Into<String>) -> LangError {
    LangError::Parse {
        line,
        message: message.into(),
    }
}

/// Parses a full design file into top-level forms.
///
/// # Errors
///
/// Returns [`LangError::Parse`] with a line number on malformed input.
pub fn parse_program(src: &str) -> Result<Vec<TopLevel>, LangError> {
    let tokens = lex(src)?;
    let mut pos = 0usize;
    let mut sexps = Vec::new();
    while pos < tokens.len() {
        let (s, next) = parse_sexp(&tokens, pos)?;
        sexps.push(s);
        pos = next;
    }
    sexps.into_iter().map(lower_toplevel).collect()
}

fn parse_sexp<'a>(tokens: &[Token<'a>], pos: usize) -> Result<(Sexp<'a>, usize), LangError> {
    match tokens.get(pos) {
        None => Err(perr(
            tokens.last().map_or(1, Token::line),
            "unexpected end of input",
        )),
        Some(Token::RParen { line }) => Err(perr(*line, "unexpected `)`")),
        Some(Token::Str { text, line }) => Ok((Sexp::Str { text, line: *line }, pos + 1)),
        Some(Token::Atom {
            text,
            trailing_dot,
            line,
        }) => {
            if *trailing_dot {
                // base.(expr) — possibly chained: base.(e1).(e2) is not
                // supported; a second literal index may follow as part of
                // the base text already.
                let (index, next) = parse_sexp(tokens, pos + 1)?;
                Ok((
                    Sexp::Indexed {
                        base: text,
                        indices: vec![index],
                        line: *line,
                    },
                    next,
                ))
            } else {
                Ok((Sexp::Atom { text, line: *line }, pos + 1))
            }
        }
        Some(Token::LParen { line }) => {
            let mut items = Vec::new();
            let mut p = pos + 1;
            loop {
                match tokens.get(p) {
                    None => return Err(perr(*line, "unclosed `(`")),
                    Some(Token::RParen { .. }) => {
                        return Ok((Sexp::List { items, line: *line }, p + 1))
                    }
                    _ => {
                        let (s, next) = parse_sexp(tokens, p)?;
                        items.push(s);
                        p = next;
                    }
                }
            }
        }
    }
}

fn lower_toplevel(s: Sexp) -> Result<TopLevel, LangError> {
    if let Sexp::List { items, line } = &s {
        if let Some(Sexp::Atom { text, .. }) = items.first() {
            if *text == "defun" || *text == "macro" {
                return lower_procdef(items, *line, *text == "macro").map(TopLevel::Proc);
            }
        }
    }
    lower_stmt(&s).map(TopLevel::Stmt)
}

fn lower_procdef(items: &[Sexp], line: usize, is_macro: bool) -> Result<ProcDef, LangError> {
    let kw = if is_macro { "macro" } else { "defun" };
    if items.len() < 3 {
        return Err(perr(
            line,
            format!("`{kw}` needs a name and a formals list"),
        ));
    }
    let name = atom_text(&items[1])
        .ok_or_else(|| perr(line, format!("`{kw}` name must be an atom")))?
        .to_owned();
    if is_macro && !name.starts_with('m') {
        return Err(perr(
            line,
            format!("macro name `{name}` must begin with `m` (paper §4.2)"),
        ));
    }
    if !is_macro && name.starts_with('m') {
        return Err(perr(
            line,
            format!("function name `{name}` may not begin with `m` (reserved for macros)"),
        ));
    }
    let formals = name_list(&items[2])
        .ok_or_else(|| perr(items[2].line(), "formals must be a list of names"))?;

    // Optional (locals ...) as the next form.
    let mut body_start = 3;
    let mut locals = Vec::new();
    if let Some(Sexp::List { items: l, .. }) = items.get(3) {
        if matches!(l.first(), Some(Sexp::Atom { text, .. }) if *text == "locals" || *text == "local")
        {
            locals = l[1..]
                .iter()
                .map(|s| {
                    atom_text(s)
                        .map(|t| t.trim_end_matches('.').to_owned())
                        .ok_or_else(|| perr(s.line(), "locals must be names"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            body_start = 4;
        }
    }
    let body = items[body_start..]
        .iter()
        .map(lower_stmt)
        .collect::<Result<Vec<_>, LangError>>()?;
    Ok(ProcDef {
        name,
        formals,
        locals,
        body,
        is_macro,
        line,
    })
}

fn atom_text<'a>(s: &Sexp<'a>) -> Option<&'a str> {
    match s {
        Sexp::Atom { text, .. } => Some(text),
        _ => None,
    }
}

fn name_list(s: &Sexp) -> Option<Vec<String>> {
    match s {
        Sexp::List { items, .. } => items
            .iter()
            .map(|i| atom_text(i).map(str::to_owned))
            .collect(),
        _ => None,
    }
}

/// Lowers an atom to a literal or a (possibly dotted) variable reference.
fn lower_atom(text: &str, line: usize) -> Result<Ast, LangError> {
    if let Ok(n) = text.parse::<i64>() {
        return Ok(Ast::Int(n));
    }
    match text {
        "true" => return Ok(Ast::Bool(true)),
        "false" => return Ok(Ast::Bool(false)),
        _ => {}
    }
    Ok(Ast::Var(lower_dotted_name(text, line)?))
}

/// Splits `l.i`, `c.1`, `grid.i.j` into base + literal/symbol indices.
fn lower_dotted_name(text: &str, line: usize) -> Result<VarRef, LangError> {
    let mut parts = text.split('.');
    let base = parts.next().unwrap_or("");
    if base.is_empty() {
        return Err(perr(line, format!("bad variable name `{text}`")));
    }
    let mut indices = Vec::new();
    for p in parts {
        if p.is_empty() {
            continue; // trailing dot in a locals declaration like `l.`
        }
        let idx = if let Ok(n) = p.parse::<i64>() {
            Ast::Int(n)
        } else {
            Ast::Var(VarRef::plain(p))
        };
        indices.push(idx);
    }
    if indices.len() > 2 {
        return Err(perr(
            line,
            format!("variable `{text}` has more than two indices"),
        ));
    }
    Ok(VarRef {
        base: base.to_owned(),
        indices,
    })
}

fn lower_varref(s: &Sexp) -> Result<VarRef, LangError> {
    match s {
        Sexp::Atom { text, line } => lower_dotted_name(text, *line),
        Sexp::Indexed {
            base,
            indices,
            line,
        } => {
            let mut vr = lower_dotted_name(base, *line)?;
            for i in indices {
                vr.indices.push(lower_stmt(i)?);
            }
            if vr.indices.len() > 2 {
                return Err(perr(
                    *line,
                    format!("variable `{base}` has more than two indices"),
                ));
            }
            Ok(vr)
        }
        other => Err(perr(other.line(), "expected a variable")),
    }
}

fn lower_stmt(s: &Sexp) -> Result<Ast, LangError> {
    match s {
        Sexp::Atom { text, line } => lower_atom(text, *line),
        Sexp::Str { text, .. } => Ok(Ast::Str((*text).to_owned())),
        Sexp::Indexed { .. } => Ok(Ast::Var(lower_varref(s)?)),
        Sexp::List { items, line } => {
            let line = *line;
            let head = match items.first() {
                Some(h) => h,
                None => return Err(perr(line, "empty form `()`")),
            };
            let Some(kw) = atom_text(head) else {
                return Err(perr(line, "form must start with a name"));
            };
            match kw {
                "cond" => {
                    let mut arms = Vec::new();
                    for arm in &items[1..] {
                        let Sexp::List { items: a, line: al } = arm else {
                            return Err(perr(arm.line(), "cond arm must be a list"));
                        };
                        if a.is_empty() {
                            return Err(perr(*al, "empty cond arm"));
                        }
                        let test = lower_stmt(&a[0])?;
                        let body = a[1..]
                            .iter()
                            .map(lower_stmt)
                            .collect::<Result<Vec<_>, LangError>>()?;
                        arms.push((test, body));
                    }
                    Ok(Ast::Cond(arms))
                }
                "do" => {
                    let hdr = items
                        .get(1)
                        .ok_or_else(|| perr(line, "do needs a (var init next exit) header"))?;
                    let Sexp::List { items: h, line: hl } = hdr else {
                        return Err(perr(hdr.line(), "do header must be a list"));
                    };
                    if h.len() != 4 {
                        return Err(perr(*hl, "do header must be (var init next exit)"));
                    }
                    let var = atom_text(&h[0])
                        .ok_or_else(|| perr(*hl, "do variable must be a name"))?
                        .to_owned();
                    let init = Box::new(lower_stmt(&h[1])?);
                    let next = Box::new(lower_stmt(&h[2])?);
                    let exit = Box::new(lower_stmt(&h[3])?);
                    let body = items[2..]
                        .iter()
                        .map(lower_stmt)
                        .collect::<Result<Vec<_>, LangError>>()?;
                    Ok(Ast::Do {
                        var,
                        init,
                        next,
                        exit,
                        body,
                    })
                }
                "assign" | "setq" => {
                    if items.len() != 3 {
                        return Err(perr(line, format!("{kw} needs a variable and a value")));
                    }
                    Ok(Ast::Assign(
                        lower_varref(&items[1])?,
                        Box::new(lower_stmt(&items[2])?),
                    ))
                }
                "prog" => {
                    let body = items[1..]
                        .iter()
                        .map(lower_stmt)
                        .collect::<Result<Vec<_>, LangError>>()?;
                    Ok(Ast::Prog(body))
                }
                "print" => {
                    if items.len() != 2 {
                        return Err(perr(line, "print takes one argument"));
                    }
                    Ok(Ast::Print(Box::new(lower_stmt(&items[1])?)))
                }
                "read" => {
                    if items.len() != 1 {
                        return Err(perr(line, "read takes no arguments"));
                    }
                    Ok(Ast::Read)
                }
                "mk_instance" | "mkinstance" => {
                    if items.len() != 3 {
                        return Err(perr(line, "mk_instance needs a variable and a cell"));
                    }
                    Ok(Ast::MkInstance(
                        lower_varref(&items[1])?,
                        Box::new(lower_stmt(&items[2])?),
                    ))
                }
                "connect" => {
                    if items.len() != 4 {
                        return Err(perr(line, "connect needs two nodes and an interface index"));
                    }
                    Ok(Ast::Connect(
                        Box::new(lower_stmt(&items[1])?),
                        Box::new(lower_stmt(&items[2])?),
                        Box::new(lower_stmt(&items[3])?),
                    ))
                }
                "subcell" => {
                    if items.len() != 3 {
                        return Err(perr(line, "subcell needs an environment and a variable"));
                    }
                    Ok(Ast::Subcell(
                        Box::new(lower_stmt(&items[1])?),
                        lower_varref(&items[2])?,
                    ))
                }
                "mk_cell" | "mkcell" => {
                    if items.len() != 3 {
                        return Err(perr(line, "mk_cell needs a name and a root node"));
                    }
                    Ok(Ast::MkCell(
                        Box::new(lower_stmt(&items[1])?),
                        Box::new(lower_stmt(&items[2])?),
                    ))
                }
                "declare_interface" | "declareinterface" => {
                    if items.len() != 7 {
                        return Err(perr(
                            line,
                            "declare_interface needs (cellC cellD newinum nodeA nodeB existinginum)",
                        ));
                    }
                    Ok(Ast::DeclareInterface {
                        cell_c: Box::new(lower_stmt(&items[1])?),
                        cell_d: Box::new(lower_stmt(&items[2])?),
                        new_index: Box::new(lower_stmt(&items[3])?),
                        node_a: Box::new(lower_stmt(&items[4])?),
                        node_b: Box::new(lower_stmt(&items[5])?),
                        existing_index: Box::new(lower_stmt(&items[6])?),
                    })
                }
                "defun" | "macro" => {
                    Err(perr(line, format!("`{kw}` is only allowed at top level")))
                }
                _ => {
                    let args = items[1..]
                        .iter()
                        .map(lower_stmt)
                        .collect::<Result<Vec<_>, LangError>>()?;
                    Ok(Ast::Call {
                        name: kw.to_owned(),
                        args,
                        line,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_stmt(src: &str) -> Ast {
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 1);
        match prog.into_iter().next().unwrap() {
            TopLevel::Stmt(a) => a,
            TopLevel::Proc(_) => panic!("expected statement"),
        }
    }

    #[test]
    fn literals_and_vars() {
        assert_eq!(one_stmt("42"), Ast::Int(42));
        assert_eq!(one_stmt("true"), Ast::Bool(true));
        assert_eq!(one_stmt("\"hi\""), Ast::Str("hi".into()));
        assert_eq!(one_stmt("xyz"), Ast::Var(VarRef::plain("xyz")));
    }

    #[test]
    fn dotted_variables() {
        let v = one_stmt("l.i");
        let Ast::Var(vr) = v else { panic!() };
        assert_eq!(vr.base, "l");
        assert_eq!(vr.indices, vec![Ast::Var(VarRef::plain("i"))]);

        let v = one_stmt("c.3");
        let Ast::Var(vr) = v else { panic!() };
        assert_eq!(vr.indices, vec![Ast::Int(3)]);
    }

    #[test]
    fn expression_indexed_variable() {
        let v = one_stmt("c.(- i 1)");
        let Ast::Var(vr) = v else { panic!() };
        assert_eq!(vr.base, "c");
        assert_eq!(vr.indices.len(), 1);
        assert!(matches!(&vr.indices[0], Ast::Call { name, .. } if name == "-"));
    }

    #[test]
    fn cond_and_do() {
        let c = one_stmt("(cond ((= x 1) 10) (true 20))");
        let Ast::Cond(arms) = c else { panic!() };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[1].0, Ast::Bool(true));

        let d = one_stmt("(do (i 2 (+ i 1) (> i n)) (print i))");
        let Ast::Do { var, .. } = d else { panic!() };
        assert_eq!(var, "i");
    }

    #[test]
    fn proc_definitions() {
        let prog = parse_program(
            "(defun fadd (a b) (locals t) (+ a b))\n(macro mrow (n) (locals c) (mk_instance c x))",
        )
        .unwrap();
        let TopLevel::Proc(f) = &prog[0] else {
            panic!()
        };
        assert!(!f.is_macro);
        assert_eq!(f.formals, vec!["a", "b"]);
        assert_eq!(f.locals, vec!["t"]);
        let TopLevel::Proc(m) = &prog[1] else {
            panic!()
        };
        assert!(m.is_macro);
    }

    #[test]
    fn macro_name_must_start_with_m() {
        let err = parse_program("(macro row (n) (locals) 1)").unwrap_err();
        assert!(err.to_string().contains("begin with `m`"));
        let err2 = parse_program("(defun mrow (n) (locals) 1)").unwrap_err();
        assert!(err2.to_string().contains("reserved for macros"));
    }

    #[test]
    fn rsg_primitives_parse() {
        assert!(matches!(
            one_stmt("(mk_instance c corecell)"),
            Ast::MkInstance(..)
        ));
        assert!(matches!(one_stmt("(connect a b 1)"), Ast::Connect(..)));
        assert!(matches!(one_stmt("(subcell tregs ref)"), Ast::Subcell(..)));
        assert!(matches!(one_stmt("(mk_cell \"row\" c)"), Ast::MkCell(..)));
        assert!(matches!(
            one_stmt("(declare_interface a b 1 x y 2)"),
            Ast::DeclareInterface { .. }
        ));
    }

    #[test]
    fn subcell_with_indexed_env() {
        let s = one_stmt("(subcell l.(- i 1) c.1)");
        let Ast::Subcell(env, var) = s else { panic!() };
        assert!(matches!(*env, Ast::Var(ref vr) if vr.base == "l"));
        assert_eq!(var.base, "c");
        assert_eq!(var.indices, vec![Ast::Int(1)]);
    }

    #[test]
    fn errors_have_lines() {
        assert!(matches!(
            parse_program("(a\n(b)"),
            Err(LangError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_program(")"),
            Err(LangError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_program("(cond x)"),
            Err(LangError::Parse { .. })
        ));
        assert!(matches!(parse_program("()"), Err(LangError::Parse { .. })));
        assert!(matches!(
            parse_program("(do (i 1 2) x)"),
            Err(LangError::Parse { .. })
        ));
    }

    #[test]
    fn nested_defun_rejected() {
        assert!(parse_program("(prog (defun fx () 1))").is_err());
    }

    #[test]
    fn plain_call() {
        let c = one_stmt("(mall xsize ysize)");
        assert!(
            matches!(c, Ast::Call { ref name, ref args, .. } if name == "mall" && args.len() == 2)
        );
    }
}
