//! Concrete syntax for formulas.
//!
//! ```text
//! formula ::= implies ('<->' implies)*
//! implies ::= or ('->' implies)?
//! or      ::= and ('|' and)*
//! and     ::= unary ('&' unary)*
//! unary   ::= '!' unary | quantifier | primary
//! quantifier ::= ('exists'|'forall') ('A'|'P'|'L')? IDENT '.' formula
//! primary ::= '(' formula ')' | 'true' | 'false' | atom
//! atom    ::= PRED '(' args ')'            named predicates (below)
//!           | IDENT '(' terms ')'          database relation
//!           | term ('=' | '<=' | '<' | '<1') term
//! term    ::= IDENT | '"' chars '"'
//!           | 'append' '(' term ',' CHAR ')'
//!           | 'prepend' '(' CHAR ',' term ')'
//!           | 'trim' '(' CHAR ',' term ')'
//! ```
//!
//! Named predicates: `last(t,'a')`, `first(t,'a')`, `fa(x,y,'a')`
//! (`y = a·x`), `el(x,y)`, `shorteq(x,y)`, `shorter(x,y)`, `lex(x,y)`,
//! `in(t, /regex/)`, `pl(x, y, /regex/)`, `concat(x,y,z)` (`z = x·y`).
//! Comparison operators follow the paper: `<=` is prefix `⪯`, `<` is
//! strict prefix `≺`, `<1` is "extends by one symbol".
//!
//! The quantifier suffixes select the paper's restricted ranges:
//! `existsA` = `∃x ∈ adom`, `existsP` = `∃x ∈ dom↓` (Proposition 2),
//! `existsL` = `∃|x| ≤ adom` (Theorem 2); likewise `forallA/P/L`.
//!
//! Nesting is capped at [`MAX_NESTING_DEPTH`], the cap of the regex
//! parser too: deeper input, a regex literal's groups included, is
//! refused with [`LogicError::NestingTooDeep`] instead of exhausting the
//! stack of this recursive-descent parser (or of the recursive passes
//! after it).
//! The cap fits an 8 MiB stack — a main thread's usual size — even in
//! unoptimized builds; optimized builds need a fraction of that.

use strcalc_alphabet::Alphabet;
use strcalc_automata::{AutomataError, Regex};

use crate::formula::{Formula, Lang, Restrict, Term};
use crate::LogicError;

pub use strcalc_automata::MAX_NESTING_DEPTH;

/// Parses a formula over the given alphabet.
pub fn parse_formula(alphabet: &Alphabet, text: &str) -> Result<Formula, LogicError> {
    let tokens = tokenize(alphabet, text)?;
    let mut p = P {
        tokens: &tokens,
        pos: 0,
        depth: 0,
    };
    let f = p.formula()?;
    if p.pos != p.tokens.len() {
        return Err(LogicError::Parse {
            pos: p.peek_pos(),
            msg: format!("unexpected {:?}", p.tokens[p.pos].1),
        });
    }
    Ok(f)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    StrLit(strcalc_alphabet::Str),
    CharLit(strcalc_alphabet::Sym),
    Regex(Regex),
    LParen,
    RParen,
    Comma,
    Dot,
    Bang,
    Amp,
    Pipe,
    Arrow,
    DArrow,
    Eq,
    PrefixLe,
    PrefixLt,
    CoverOp,
}

fn tokenize(alphabet: &Alphabet, text: &str) -> Result<Vec<(usize, Tok)>, LogicError> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '(' => {
                out.push((start, Tok::LParen));
                i += 1;
            }
            ')' => {
                out.push((start, Tok::RParen));
                i += 1;
            }
            ',' => {
                out.push((start, Tok::Comma));
                i += 1;
            }
            '.' => {
                out.push((start, Tok::Dot));
                i += 1;
            }
            '!' => {
                out.push((start, Tok::Bang));
                i += 1;
            }
            '&' => {
                out.push((start, Tok::Amp));
                i += 1;
            }
            '|' => {
                out.push((start, Tok::Pipe));
                i += 1;
            }
            '-' => {
                if chars.get(i + 1) == Some(&'>') {
                    out.push((start, Tok::Arrow));
                    i += 2;
                } else {
                    return Err(LogicError::Parse {
                        pos: i,
                        msg: "expected '->'".into(),
                    });
                }
            }
            '=' => {
                out.push((start, Tok::Eq));
                i += 1;
            }
            '<' => {
                if chars.get(i + 1) == Some(&'-') && chars.get(i + 2) == Some(&'>') {
                    out.push((start, Tok::DArrow));
                    i += 3;
                } else if chars.get(i + 1) == Some(&'=') {
                    out.push((start, Tok::PrefixLe));
                    i += 2;
                } else if chars.get(i + 1) == Some(&'1') {
                    out.push((start, Tok::CoverOp));
                    i += 2;
                } else {
                    out.push((start, Tok::PrefixLt));
                    i += 1;
                }
            }
            '"' => {
                i += 1;
                let lit_start = i;
                while i < chars.len() && chars[i] != '"' {
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(LogicError::Parse {
                        pos: start,
                        msg: "unterminated string literal".into(),
                    });
                }
                let text: String = chars[lit_start..i].iter().collect();
                let s = alphabet.parse(&text).map_err(|e| LogicError::Parse {
                    pos: lit_start,
                    msg: e.to_string(),
                })?;
                out.push((start, Tok::StrLit(s)));
                i += 1;
            }
            '\'' => {
                let Some(&lc) = chars.get(i + 1) else {
                    return Err(LogicError::Parse {
                        pos: i,
                        msg: "unterminated char literal".into(),
                    });
                };
                if chars.get(i + 2) != Some(&'\'') {
                    return Err(LogicError::Parse {
                        pos: i,
                        msg: "char literal must be one character".into(),
                    });
                }
                let s = alphabet.sym_of(lc).map_err(|e| LogicError::Parse {
                    pos: i + 1,
                    msg: e.to_string(),
                })?;
                out.push((start, Tok::CharLit(s)));
                i += 3;
            }
            '/' => {
                i += 1;
                let lit_start = i;
                while i < chars.len() && chars[i] != '/' {
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(LogicError::Parse {
                        pos: start,
                        msg: "unterminated regex literal".into(),
                    });
                }
                let text: String = chars[lit_start..i].iter().collect();
                let r = Regex::parse(alphabet, &text).map_err(|e| match e {
                    AutomataError::NestingTooDeep { pos, limit } => LogicError::NestingTooDeep {
                        pos: lit_start + pos,
                        limit,
                    },
                    e => LogicError::Parse {
                        pos: lit_start,
                        msg: e.to_string(),
                    },
                })?;
                out.push((start, Tok::Regex(r)));
                i += 1;
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                out.push((start, Tok::Ident(word)));
                i = j;
            }
            other => {
                return Err(LogicError::Parse {
                    pos: i,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

struct P<'a> {
    tokens: &'a [(usize, Tok)],
    pos: usize,
    /// Levels currently open; see [`MAX_NESTING_DEPTH`].
    depth: usize,
}

impl<'a> P<'a> {
    /// Runs `f` one nesting level deeper. The level is closed again
    /// whatever `f` returns, so the count stays balanced on error paths.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, LogicError>,
    ) -> Result<T, LogicError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(LogicError::NestingTooDeep {
                pos: self.peek_pos(),
                limit: MAX_NESTING_DEPTH,
            });
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn peek_pos(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(p, _)| *p)
            .unwrap_or(usize::MAX)
    }

    fn err(&self, msg: impl Into<String>) -> LogicError {
        LogicError::Parse {
            pos: self.peek_pos(),
            msg: msg.into(),
        }
    }

    fn eat(&mut self, t: &Tok) -> Result<(), LogicError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn formula(&mut self) -> Result<Formula, LogicError> {
        self.chain(&Tok::DArrow, Self::implies, Formula::iff)
    }

    fn implies(&mut self) -> Result<Formula, LogicError> {
        let f = self.or()?;
        if self.peek() == Some(&Tok::Arrow) {
            self.pos += 1;
            return Ok(f.implies(self.nested(Self::implies)?));
        }
        Ok(f)
    }

    fn or(&mut self) -> Result<Formula, LogicError> {
        self.chain(&Tok::Pipe, Self::and, Formula::or)
    }

    fn and(&mut self) -> Result<Formula, LogicError> {
        self.chain(&Tok::Amp, Self::unary, Formula::and)
    }

    /// A left-deep chain `operand (sep operand)*`. Each link nests the
    /// chain so far one level deeper in the tree the passes after the
    /// parser recurse into, so the `n`-th link counts as `n` open levels
    /// at the chain's position. The operands parse at the chain's own
    /// level.
    fn chain(
        &mut self,
        sep: &Tok,
        operand: fn(&mut Self) -> Result<Formula, LogicError>,
        join: fn(Formula, Formula) -> Formula,
    ) -> Result<Formula, LogicError> {
        let mut f = operand(self)?;
        let mut links = 0;
        while self.peek() == Some(sep) {
            links += 1;
            if self.depth + links > MAX_NESTING_DEPTH {
                return Err(LogicError::NestingTooDeep {
                    pos: self.peek_pos(),
                    limit: MAX_NESTING_DEPTH,
                });
            }
            self.pos += 1;
            f = join(f, operand(self)?);
        }
        Ok(f)
    }

    fn unary(&mut self) -> Result<Formula, LogicError> {
        match self.peek() {
            Some(Tok::Bang) => {
                self.pos += 1;
                Ok(self.nested(Self::unary)?.not())
            }
            Some(Tok::Ident(w)) if is_quantifier(w) => {
                let word = w.clone();
                self.pos += 1;
                let var = match self.peek() {
                    Some(Tok::Ident(v)) => v.clone(),
                    _ => return Err(self.err("expected a variable after quantifier")),
                };
                self.pos += 1;
                self.eat(&Tok::Dot)?;
                let body = self.nested(Self::unary_or_formula)?;
                Ok(build_quantifier(&word, var, body))
            }
            _ => self.primary(),
        }
    }

    /// After `Q x.` the body extends as far right as possible.
    fn unary_or_formula(&mut self) -> Result<Formula, LogicError> {
        self.formula()
    }

    fn primary(&mut self) -> Result<Formula, LogicError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                self.pos += 1;
                let f = self.nested(Self::formula)?;
                self.eat(&Tok::RParen)?;
                Ok(f)
            }
            Some(Tok::Ident(w)) if w == "true" => {
                self.pos += 1;
                Ok(Formula::True)
            }
            Some(Tok::Ident(w)) if w == "false" => {
                self.pos += 1;
                Ok(Formula::False)
            }
            Some(Tok::Ident(w))
                if self.tokens.get(self.pos + 1).map(|(_, t)| t) == Some(&Tok::LParen)
                    && !is_term_function(&w) =>
            {
                self.pos += 2; // ident + lparen
                self.named_or_relation(&w)
            }
            _ => {
                // Term comparison.
                let lhs = self.term()?;
                let op = self
                    .peek()
                    .cloned()
                    .ok_or_else(|| self.err("expected a comparison operator"))?;
                self.pos += 1;
                let rhs = self.term()?;
                match op {
                    Tok::Eq => Ok(Formula::eq(lhs, rhs)),
                    Tok::PrefixLe => Ok(Formula::prefix(lhs, rhs)),
                    Tok::PrefixLt => Ok(Formula::strict_prefix(lhs, rhs)),
                    Tok::CoverOp => Ok(Formula::cover(lhs, rhs)),
                    other => {
                        Err(self.err(format!("expected '=', '<=', '<' or '<1', found {other:?}")))
                    }
                }
            }
        }
    }

    /// Parses the arguments of `name(...)` where `(` is consumed.
    fn named_or_relation(&mut self, name: &str) -> Result<Formula, LogicError> {
        let f = match name {
            "last" | "first" => {
                let t = self.term()?;
                self.eat(&Tok::Comma)?;
                let c = self.char_lit()?;
                if name == "last" {
                    Formula::last_sym(t, c)
                } else {
                    Formula::first_sym(t, c)
                }
            }
            "fa" => {
                let x = self.term()?;
                self.eat(&Tok::Comma)?;
                let y = self.term()?;
                self.eat(&Tok::Comma)?;
                let c = self.char_lit()?;
                Formula::prepends(x, y, c)
            }
            "el" | "shorteq" | "shorter" | "lex" => {
                let x = self.term()?;
                self.eat(&Tok::Comma)?;
                let y = self.term()?;
                match name {
                    "el" => Formula::eq_len(x, y),
                    "shorteq" => Formula::shorter_eq(x, y),
                    "shorter" => Formula::shorter(x, y),
                    _ => Formula::lex_leq(x, y),
                }
            }
            "in" => {
                let t = self.term()?;
                self.eat(&Tok::Comma)?;
                let r = self.regex_lit()?;
                Formula::in_lang(t, Lang::new(r))
            }
            "pl" => {
                let x = self.term()?;
                self.eat(&Tok::Comma)?;
                let y = self.term()?;
                self.eat(&Tok::Comma)?;
                let r = self.regex_lit()?;
                Formula::p_l(x, y, Lang::new(r))
            }
            "concat" => {
                let x = self.term()?;
                self.eat(&Tok::Comma)?;
                let y = self.term()?;
                self.eat(&Tok::Comma)?;
                let z = self.term()?;
                Formula::concat_eq(x, y, z)
            }
            "ins" => {
                let x = self.term()?;
                self.eat(&Tok::Comma)?;
                let p = self.term()?;
                self.eat(&Tok::Comma)?;
                let y = self.term()?;
                self.eat(&Tok::Comma)?;
                let c = self.char_lit()?;
                Formula::insert_after(x, p, y, c)
            }
            rel => {
                // Database relation.
                let mut terms = Vec::new();
                if self.peek() != Some(&Tok::RParen) {
                    terms.push(self.term()?);
                    while self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                        terms.push(self.term()?);
                    }
                }
                self.eat(&Tok::RParen)?;
                return Ok(Formula::rel(rel, terms));
            }
        };
        self.eat(&Tok::RParen)?;
        Ok(f)
    }

    fn term(&mut self) -> Result<Term, LogicError> {
        match self.peek().cloned() {
            Some(Tok::Ident(w)) if is_term_function(&w) => {
                self.pos += 1;
                self.eat(&Tok::LParen)?;
                self.nested(|p| p.term_function(&w))
            }
            Some(Tok::Ident(w)) => {
                self.pos += 1;
                Ok(Term::Var(w))
            }
            Some(Tok::StrLit(s)) => {
                self.pos += 1;
                Ok(Term::Const(s))
            }
            other => Err(self.err(format!("expected a term, found {other:?}"))),
        }
    }

    /// The arguments and closing parenthesis of term function `w`, whose
    /// `(` is consumed.
    fn term_function(&mut self, w: &str) -> Result<Term, LogicError> {
        let t = match w {
            "append" => {
                let inner = self.term()?;
                self.eat(&Tok::Comma)?;
                let c = self.char_lit()?;
                inner.append(c)
            }
            "prepend" => {
                let c = self.char_lit()?;
                self.eat(&Tok::Comma)?;
                let inner = self.term()?;
                inner.prepend(c)
            }
            _ => {
                // trim
                let c = self.char_lit()?;
                self.eat(&Tok::Comma)?;
                let inner = self.term()?;
                inner.trim_leading(c)
            }
        };
        self.eat(&Tok::RParen)?;
        Ok(t)
    }

    fn char_lit(&mut self) -> Result<strcalc_alphabet::Sym, LogicError> {
        match self.peek().cloned() {
            Some(Tok::CharLit(c)) => {
                self.pos += 1;
                Ok(c)
            }
            other => Err(self.err(format!("expected a char literal, found {other:?}"))),
        }
    }

    fn regex_lit(&mut self) -> Result<Regex, LogicError> {
        match self.peek().cloned() {
            Some(Tok::Regex(r)) => {
                self.pos += 1;
                Ok(r)
            }
            other => Err(self.err(format!("expected /regex/, found {other:?}"))),
        }
    }
}

fn is_quantifier(w: &str) -> bool {
    matches!(
        w,
        "exists" | "forall" | "existsA" | "forallA" | "existsP" | "forallP" | "existsL" | "forallL"
    )
}

fn is_term_function(w: &str) -> bool {
    matches!(w, "append" | "prepend" | "trim")
}

fn build_quantifier(word: &str, var: String, body: Formula) -> Formula {
    match word {
        "exists" => Formula::exists(var, body),
        "forall" => Formula::forall(var, body),
        "existsA" => Formula::exists_r(Restrict::Active, var, body),
        "forallA" => Formula::forall_r(Restrict::Active, var, body),
        "existsP" => Formula::exists_r(Restrict::PrefixDom, var, body),
        "forallP" => Formula::forall_r(Restrict::PrefixDom, var, body),
        "existsL" => Formula::exists_r(Restrict::LengthDom, var, body),
        "forallL" => Formula::forall_r(Restrict::LengthDom, var, body),
        _ => unreachable!("guarded by is_quantifier"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Atom;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn parse(t: &str) -> Formula {
        parse_formula(&ab(), t).unwrap()
    }

    #[test]
    fn parses_paper_example() {
        // The "ends with 10" query from Section 2 of the paper, over {a,b}:
        // ∃x R(x) ∧ L_b(x) ∧ ∃y (y <1 x ∧ L_a(y) ∧ ¬∃z (y <1 z & z <1 x))
        let f = parse(
            "exists x. R(x) & last(x,'b') & \
             exists y. (y <1 x & last(y,'a') & !exists z. (y <1 z & z <1 x))",
        );
        assert_eq!(f.num_quantifiers(), 3);
        assert!(f.free_vars().is_empty());
    }

    #[test]
    fn parses_comparisons() {
        assert!(matches!(parse("x <= y"), Formula::Atom(Atom::Prefix(..))));
        assert!(matches!(
            parse("x < y"),
            Formula::Atom(Atom::StrictPrefix(..))
        ));
        assert!(matches!(parse("x <1 y"), Formula::Atom(Atom::Cover(..))));
        assert!(matches!(parse("x = \"ab\""), Formula::Atom(Atom::Eq(..))));
    }

    #[test]
    fn parses_named_predicates() {
        assert!(matches!(parse("el(x,y)"), Formula::Atom(Atom::EqLen(..))));
        assert!(matches!(
            parse("fa(x,y,'a')"),
            Formula::Atom(Atom::Prepends(..))
        ));
        assert!(matches!(
            parse("in(x, /a(a|b)*/)"),
            Formula::Atom(Atom::InLang(..))
        ));
        assert!(matches!(
            parse("pl(x, y, /(ab)*/)"),
            Formula::Atom(Atom::PL(..))
        ));
        assert!(matches!(
            parse("concat(x,y,z)"),
            Formula::Atom(Atom::ConcatEq(..))
        ));
        assert!(matches!(parse("lex(x,y)"), Formula::Atom(Atom::LexLeq(..))));
    }

    #[test]
    fn parses_terms_with_functions() {
        let f = parse("append(x,'a') = y");
        if let Formula::Atom(Atom::Eq(lhs, _)) = &f {
            assert!(matches!(lhs, Term::Append(..)));
        } else {
            panic!("expected equality");
        }
        let f = parse("trim('a', x) = prepend('b', y)");
        assert!(matches!(f, Formula::Atom(Atom::Eq(..))));
    }

    #[test]
    fn parses_restricted_quantifiers() {
        assert!(matches!(
            parse("existsA x. R(x)"),
            Formula::ExistsR(Restrict::Active, ..)
        ));
        assert!(matches!(
            parse("forallP x. x <= x"),
            Formula::ForallR(Restrict::PrefixDom, ..)
        ));
        assert!(matches!(
            parse("existsL x. el(x,x)"),
            Formula::ExistsR(Restrict::LengthDom, ..)
        ));
    }

    #[test]
    fn precedence() {
        // a & b | c parses as (a & b) | c.
        let f = parse("last(x,'a') & last(x,'b') | first(x,'a')");
        assert!(matches!(f, Formula::Or(..)));
        // -> binds weaker than |, right-assoc.
        let f = parse("true -> false -> true");
        if let Formula::Implies(_, rhs) = &f {
            assert!(matches!(**rhs, Formula::Implies(..)));
        } else {
            panic!("expected implication");
        }
    }

    #[test]
    fn round_trips_through_render() {
        for src in [
            "exists y. (R(x,y) & x <= y & last(y,'a'))",
            "forall z. (el(x,z) -> !shorter(z,x))",
            "in(x, /(ab)*/) | pl(x,y,/b*/)",
            "existsP u. (u < x & lex(u, y))",
        ] {
            let f = parse(src);
            let rendered = f.render(&ab());
            let f2 = parse(&rendered);
            assert_eq!(f, f2, "render round-trip failed:\n{src}\n{rendered}");
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_formula(&ab(), "exists . R(x)").is_err());
        assert!(parse_formula(&ab(), "R(x").is_err());
        assert!(parse_formula(&ab(), "x <=").is_err());
        assert!(parse_formula(&ab(), "in(x, /c/)").is_err());
        assert!(parse_formula(&ab(), "last(x,'z')").is_err());
        assert!(parse_formula(&ab(), "x @ y").is_err());
    }

    fn too_deep(text: &str) -> bool {
        matches!(
            parse_formula(&ab(), text),
            Err(LogicError::NestingTooDeep {
                limit: MAX_NESTING_DEPTH,
                ..
            })
        )
    }

    /// Runs `f` on a thread with the 8 MiB stack a main thread usually
    /// gets: the cap is sized for it, and unoptimized builds overflow the
    /// test harness's 2 MiB worker threads before reaching it.
    pub(crate) fn with_main_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("no panic");
    }

    #[test]
    fn nesting_is_capped_at_every_recursive_form() {
        with_main_stack(nesting_cap);
    }

    fn nesting_cap() {
        let n = 10_000;
        let wrap = |open: &str, inner: &str, close: &str, n: usize| {
            format!("{}{inner}{}", open.repeat(n), close.repeat(n))
        };
        assert!(too_deep(&wrap("(", "R(x)", ")", n)));
        assert!(too_deep(&wrap("!", "R(x)", "", n)));
        assert!(too_deep(&wrap("exists y. ", "R(x)", "", n)));
        assert!(too_deep(&wrap("R(x) -> ", "R(x)", "", n)));
        assert!(too_deep(
            &wrap("R(", "x", ")", 1).replace("x", &wrap("append(", "x", ", 'a')", n))
        ));
        // Exactly at the cap parses; one level more does not.
        let cap = MAX_NESTING_DEPTH;
        assert_eq!(parse(&wrap("(", "R(x)", ")", cap)), parse("R(x)"));
        assert!(too_deep(&wrap("(", "R(x)", ")", cap + 1)));
        assert!(parse_formula(&ab(), &wrap("!", "R(x)", "", cap)).is_ok());
        assert!(too_deep(&wrap("!", "R(x)", "", cap + 1)));
        // A regex literal's groups count against the same cap.
        let regex = |n: usize| format!("in(x, /{}/)", wrap("(", "a", ")", n));
        assert!(parse_formula(&ab(), &regex(cap)).is_ok());
        assert!(too_deep(&regex(cap + 1)));
        assert!(too_deep(&regex(20_000)));
    }

    #[test]
    fn the_depth_count_is_balanced_after_errors_and_siblings() {
        // Sibling groups close their levels: 500 groups of two levels
        // each stay within the cap. Only the chain's links add up, so
        // 2 000 of them are too deep.
        let siblings = |n: usize| vec!["((R(x)))"; n].join(" & ");
        assert!(parse_formula(&ab(), &siblings(500)).is_ok());
        assert!(too_deep(&siblings(2_000)));
        // A group that fails inside still closes its level: the error
        // is the syntax error, not a depth error.
        let err = parse_formula(&ab(), &format!("{}(x @ y)", "(".repeat(10))).unwrap_err();
        assert!(matches!(err, LogicError::Parse { .. }), "{err:?}");
    }
}
