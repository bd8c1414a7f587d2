//! Regular expressions over a symbol alphabet.
//!
//! The AST is the classical one (`∅`, `ε`, `a`, `·`, `|`, `*`) with the
//! common derived forms (`+`, `?`, `.`). Patterns used in the paper's SQL
//! fragments (`LIKE`, `SIMILAR`) compile into this AST (see [`crate::like`]
//! and [`crate::similar`]).

use std::fmt;

use strcalc_alphabet::{Alphabet, Sym};

use crate::{AutomataError, MAX_NESTING_DEPTH, MAX_PATTERN_NODES};

/// A regular expression over symbol indices `0..k`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// The empty language `∅`.
    Empty,
    /// The language `{ε}`.
    Epsilon,
    /// A single symbol.
    Sym(Sym),
    /// Any single symbol (SQL `_`, regex `.`). Kept primitive so the AST
    /// does not depend on the alphabet size until compilation.
    Any,
    /// Concatenation `r · s`.
    Concat(Box<Regex>, Box<Regex>),
    /// Union `r | s`.
    Union(Box<Regex>, Box<Regex>),
    /// Kleene star `r*`.
    Star(Box<Regex>),
}

impl Regex {
    /// `r · s`, with the obvious simplifications for `∅` and `ε`.
    pub fn concat(self, other: Regex) -> Regex {
        match (self, other) {
            (Regex::Empty, _) | (_, Regex::Empty) => Regex::Empty,
            (Regex::Epsilon, r) | (r, Regex::Epsilon) => r,
            (a, b) => Regex::Concat(Box::new(a), Box::new(b)),
        }
    }

    /// `r | s`, simplifying `∅`.
    pub fn union(self, other: Regex) -> Regex {
        match (self, other) {
            (Regex::Empty, r) | (r, Regex::Empty) => r,
            (a, b) => {
                if a == b {
                    a
                } else {
                    Regex::Union(Box::new(a), Box::new(b))
                }
            }
        }
    }

    /// `r*`, simplifying `∅* = ε* = ε` and `(r*)* = r*`.
    pub fn star(self) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            r @ Regex::Star(_) => r,
            r => Regex::Star(Box::new(r)),
        }
    }

    /// `r+ = r · r*`.
    pub fn plus(self) -> Regex {
        self.clone().concat(self.star())
    }

    /// `r? = r | ε`.
    pub fn opt(self) -> Regex {
        Regex::Epsilon.union(self)
    }

    /// `Σ*`: any string.
    pub fn any_string() -> Regex {
        Regex::Any.star()
    }

    /// The literal string `w` as a regex.
    pub fn literal(w: &[Sym]) -> Regex {
        w.iter()
            .fold(Regex::Epsilon, |acc, &s| acc.concat(Regex::Sym(s)))
    }

    /// Union of several alternatives.
    pub fn union_all<I: IntoIterator<Item = Regex>>(items: I) -> Regex {
        items.into_iter().fold(Regex::Empty, Regex::union)
    }

    /// Concatenation of several factors.
    pub fn concat_all<I: IntoIterator<Item = Regex>>(items: I) -> Regex {
        items.into_iter().fold(Regex::Epsilon, Regex::concat)
    }

    /// `r^n` (n-fold concatenation).
    pub fn repeat(self, n: usize) -> Regex {
        let mut out = Regex::Epsilon;
        for _ in 0..n {
            out = out.concat(self.clone());
        }
        out
    }

    /// `r^{lo} · (r?)^{hi−lo}` — between `lo` and `hi` copies.
    pub fn repeat_range(self, lo: usize, hi: usize) -> Regex {
        assert!(lo <= hi, "repeat_range requires lo <= hi");
        let mut out = self.clone().repeat(lo);
        for _ in lo..hi {
            out = out.concat(self.clone().opt());
        }
        out
    }

    /// Does `ε` belong to the language? (Standard nullability.)
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Sym(_) | Regex::Any => false,
            Regex::Epsilon | Regex::Star(_) => true,
            Regex::Concat(a, b) => a.nullable() && b.nullable(),
            Regex::Union(a, b) => a.nullable() || b.nullable(),
        }
    }

    /// Syntactic size (number of AST nodes).
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) | Regex::Any => 1,
            Regex::Concat(a, b) | Regex::Union(a, b) => 1 + a.size() + b.size(),
            Regex::Star(a) => 1 + a.size(),
        }
    }

    /// Parses the textual syntax over a concrete alphabet.
    ///
    /// Grammar (lowest to highest precedence):
    ///
    /// ```text
    /// union  ::= concat ('|' concat)*
    /// concat ::= factor*
    /// factor ::= base ('*' | '+' | '?')*
    /// base   ::= '(' union ')' | '.' | '∅' | 'ε' | char-from-alphabet
    /// ```
    ///
    /// An empty concatenation denotes `ε`, so `()` and the empty pattern
    /// both denote `{ε}`. Each group and each postfix operator opens one
    /// nesting level; past [`MAX_NESTING_DEPTH`] the pattern is refused
    /// with [`AutomataError::NestingTooDeep`]. A pattern that builds more
    /// than [`MAX_PATTERN_NODES`] nodes is refused with
    /// [`AutomataError::PatternTooLarge`].
    pub fn parse(alphabet: &Alphabet, text: &str) -> Result<Regex, AutomataError> {
        let chars: Vec<char> = text.chars().collect();
        let mut p = Parser {
            alphabet,
            chars: &chars,
            pos: 0,
            depth: 0,
            nodes: 0,
        };
        let r = p.union()?;
        if p.pos != p.chars.len() {
            return Err(AutomataError::Parse {
                pos: p.pos,
                msg: format!("unexpected {:?}", p.chars[p.pos]),
            });
        }
        Ok(r)
    }

    /// Renders using the textual syntax, given the alphabet for symbol
    /// names.
    pub fn render(&self, alphabet: &Alphabet) -> String {
        fn go(r: &Regex, alphabet: &Alphabet, prec: u8, out: &mut String) {
            match r {
                Regex::Empty => out.push('∅'),
                Regex::Epsilon => out.push('ε'),
                Regex::Sym(s) => out.push(alphabet.char_of(*s).unwrap_or('?')),
                Regex::Any => out.push('.'),
                Regex::Union(a, b) => {
                    let open = prec > 0;
                    if open {
                        out.push('(');
                    }
                    go(a, alphabet, 0, out);
                    out.push('|');
                    go(b, alphabet, 0, out);
                    if open {
                        out.push(')');
                    }
                }
                Regex::Concat(a, b) => {
                    let open = prec > 1;
                    if open {
                        out.push('(');
                    }
                    go(a, alphabet, 1, out);
                    go(b, alphabet, 1, out);
                    if open {
                        out.push(')');
                    }
                }
                Regex::Star(a) => {
                    go(a, alphabet, 2, out);
                    out.push('*');
                }
            }
        }
        let mut out = String::new();
        go(self, alphabet, 0, &mut out);
        out
    }
}

impl fmt::Display for Regex {
    /// Debug-ish rendering with symbol indices.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Empty => write!(f, "∅"),
            Regex::Epsilon => write!(f, "ε"),
            Regex::Sym(s) => write!(f, "{s}"),
            Regex::Any => write!(f, "."),
            Regex::Concat(a, b) => write!(f, "({a}{b})"),
            Regex::Union(a, b) => write!(f, "({a}|{b})"),
            Regex::Star(a) => write!(f, "{a}*"),
        }
    }
}

struct Parser<'a> {
    alphabet: &'a Alphabet,
    chars: &'a [char],
    pos: usize,
    /// Levels currently open; see [`MAX_NESTING_DEPTH`].
    depth: usize,
    /// Nodes built so far; see [`MAX_PATTERN_NODES`].
    nodes: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    /// Opens one more nesting level, or refuses the pattern when that
    /// would pass [`MAX_NESTING_DEPTH`].
    fn open(&mut self) -> Result<(), AutomataError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(AutomataError::NestingTooDeep {
                pos: self.pos,
                limit: MAX_NESTING_DEPTH,
            });
        }
        self.depth += 1;
        Ok(())
    }

    /// Counts `n` more nodes, or refuses the pattern when that would
    /// pass [`MAX_PATTERN_NODES`].
    fn grow(&mut self, n: usize) -> Result<(), AutomataError> {
        self.nodes = self.nodes.saturating_add(n);
        if self.nodes > MAX_PATTERN_NODES {
            return Err(AutomataError::PatternTooLarge {
                pos: self.pos,
                limit: MAX_PATTERN_NODES,
            });
        }
        Ok(())
    }

    fn union(&mut self) -> Result<Regex, AutomataError> {
        let mut r = self.concat()?;
        while self.peek() == Some('|') {
            self.pos += 1;
            let branch = self.concat()?;
            self.grow(1)?;
            r = r.union(branch);
        }
        Ok(r)
    }

    fn concat(&mut self) -> Result<Regex, AutomataError> {
        let mut r = Regex::Epsilon;
        let mut factors = 0;
        while let Some(c) = self.peek() {
            if c == ')' || c == '|' {
                break;
            }
            let factor = self.factor()?;
            // The first factor needs no `·` node; an empty concatenation
            // is one `ε`.
            self.grow(usize::from(factors > 0))?;
            factors += 1;
            r = r.concat(factor);
        }
        if factors == 0 {
            self.grow(1)?;
        }
        Ok(r)
    }

    fn factor(&mut self) -> Result<Regex, AutomataError> {
        let mut r = self.base()?;
        let mut ops = 0;
        while let Some(c) = self.peek() {
            let (op, added): (fn(Regex) -> Regex, usize) = match c {
                '*' => (Regex::star, 1),
                // `r+ = r·r*` copies `r`.
                '+' => (Regex::plus, r.size() + 2),
                '?' => (Regex::opt, 2),
                _ => break,
            };
            // Each operator wraps `r` one level deeper.
            self.open()?;
            self.grow(added)?;
            ops += 1;
            self.pos += 1;
            r = op(r);
        }
        self.depth -= ops;
        Ok(r)
    }

    fn base(&mut self) -> Result<Regex, AutomataError> {
        let c = self.peek().ok_or(AutomataError::Parse {
            pos: self.pos,
            msg: "unexpected end of pattern".into(),
        })?;
        match c {
            '(' => {
                self.open()?;
                self.pos += 1;
                let r = self.union()?;
                self.depth -= 1;
                if self.peek() != Some(')') {
                    return Err(AutomataError::Parse {
                        pos: self.pos,
                        msg: "expected ')'".into(),
                    });
                }
                self.pos += 1;
                Ok(r)
            }
            '.' => {
                self.grow(1)?;
                self.pos += 1;
                Ok(Regex::Any)
            }
            '∅' => {
                self.grow(1)?;
                self.pos += 1;
                Ok(Regex::Empty)
            }
            'ε' => {
                self.grow(1)?;
                self.pos += 1;
                Ok(Regex::Epsilon)
            }
            '*' | '+' | '?' | ')' | '|' => Err(AutomataError::Parse {
                pos: self.pos,
                msg: format!("unexpected {c:?}"),
            }),
            _ => {
                let s = self.alphabet.sym_of(c).map_err(|_| AutomataError::Parse {
                    pos: self.pos,
                    msg: format!("{c:?} is not in the alphabet"),
                })?;
                self.grow(1)?;
                self.pos += 1;
                Ok(Regex::Sym(s))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_constructors_simplify() {
        assert_eq!(Regex::Empty.concat(Regex::Sym(0)), Regex::Empty);
        assert_eq!(Regex::Epsilon.concat(Regex::Sym(0)), Regex::Sym(0));
        assert_eq!(Regex::Empty.union(Regex::Sym(1)), Regex::Sym(1));
        assert_eq!(Regex::Empty.star(), Regex::Epsilon);
        assert_eq!(Regex::Sym(0).star().star(), Regex::Sym(0).star());
    }

    #[test]
    fn nullability() {
        assert!(Regex::Epsilon.nullable());
        assert!(!Regex::Sym(0).nullable());
        assert!(Regex::Sym(0).star().nullable());
        assert!(Regex::Sym(0).opt().nullable());
        assert!(!Regex::Sym(0).plus().nullable());
    }

    #[test]
    fn parse_round_trip() {
        let a = Alphabet::ab();
        for src in ["a", "ab", "a|b", "(a|b)*", "a*b+a?", "a(b|a)*b", ""] {
            let r = Regex::parse(&a, src).unwrap();
            let rendered = r.render(&a);
            let r2 = Regex::parse(&a, &rendered).unwrap();
            // Associativity of concatenation may differ after a round
            // trip; compare languages, not ASTs.
            let d1 = crate::dfa::Dfa::from_regex(2, &r);
            let d2 = crate::dfa::Dfa::from_regex(2, &r2);
            assert!(d1.equivalent(&d2), "round trip changed language of {src}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let a = Alphabet::ab();
        assert!(Regex::parse(&a, "c").is_err());
        assert!(Regex::parse(&a, "(a").is_err());
        assert!(Regex::parse(&a, "*a").is_err());
        assert!(Regex::parse(&a, "a)").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        crate::with_main_stack(|| {
            let a = Alphabet::ab();
            let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
            let too_deep = |r: Result<Regex, AutomataError>| {
                matches!(
                    r,
                    Err(AutomataError::NestingTooDeep {
                        limit: MAX_NESTING_DEPTH,
                        ..
                    })
                )
            };
            assert_eq!(
                Regex::parse(&a, &parens(MAX_NESTING_DEPTH)),
                Ok(Regex::Sym(0))
            );
            assert!(too_deep(Regex::parse(&a, &parens(MAX_NESTING_DEPTH + 1))));
            assert!(too_deep(Regex::parse(&a, &parens(20_000))));
            // Postfix operators nest too, inside groups as well.
            let opts = |n: usize| format!("(a{})", "?".repeat(n));
            assert!(Regex::parse(&a, &opts(MAX_NESTING_DEPTH - 1)).is_ok());
            assert!(too_deep(Regex::parse(&a, &opts(MAX_NESTING_DEPTH))));
            // Levels close again: siblings do not add up.
            let siblings = parens(MAX_NESTING_DEPTH).repeat(3);
            assert!(Regex::parse(&a, &siblings).is_ok());
        });
    }

    #[test]
    fn pattern_size_is_capped() {
        crate::with_main_stack(|| {
            let a = Alphabet::ab();
            let too_large = |r: Result<Regex, AutomataError>| {
                matches!(
                    r,
                    Err(AutomataError::PatternTooLarge {
                        limit: MAX_PATTERN_NODES,
                        ..
                    })
                )
            };
            // `n` symbols and their `n − 1` concatenations, then a
            // starred (2 nodes) or optional (3 nodes) last factor.
            let n = MAX_PATTERN_NODES / 2 - 1;
            let at_cap = Regex::parse(&a, &format!("{}b*", "a".repeat(n))).unwrap();
            assert_eq!(at_cap.size(), MAX_PATTERN_NODES);
            assert!(too_large(Regex::parse(&a, &format!("{}b?", "a".repeat(n)))));
            // Each `+` doubles its operand: refused long before 2^30.
            assert!(Regex::parse(&a, &format!("a{}", "+".repeat(10))).is_ok());
            assert!(too_large(Regex::parse(&a, &format!("a{}", "+".repeat(30)))));
        });
    }

    #[test]
    fn repeat_forms() {
        let a = Regex::Sym(0);
        assert_eq!(a.clone().repeat(0), Regex::Epsilon);
        assert_eq!(a.clone().repeat(2).size(), 3);
        // a{1,3} accepts between 1 and 3 copies; structural smoke test only
        let r = a.repeat_range(1, 3);
        assert!(r.size() > 1);
    }
}
