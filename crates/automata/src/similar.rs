//! SQL3 `SIMILAR` patterns.
//!
//! Section 4 of the paper notes that `S_len` "covers the SIMILAR pattern
//! matching of the SQL3 standard (which is essentially grep)", and
//! Section 7 adds the same power to `S` directly via the `P_L` predicates
//! of `S_reg`. `SIMILAR` patterns are full regular expressions in SQL
//! clothing:
//!
//! ```text
//! pattern  ::= alt
//! alt      ::= seq ('|' seq)*
//! seq      ::= item*
//! item     ::= base ('*' | '+' | '?' | '{' n (',' m?)? '}')*
//! base     ::= '%' | '_' | '(' alt ')' | '[' '^'? chars ']' | literal
//! ```
//!
//! `%` matches any string, `_` any single character (as in `LIKE`);
//! the rest is standard POSIX-ish syntax. `{n,}` is rendered as
//! `r^n · r*`.

use strcalc_alphabet::Alphabet;

use crate::regex::Regex;
use crate::{AutomataError, MAX_NESTING_DEPTH, MAX_PATTERN_NODES};

/// Compiles a `SIMILAR` pattern into a [`Regex`]. Each group and each
/// postfix operator opens one nesting level; past [`MAX_NESTING_DEPTH`]
/// the pattern is refused with [`AutomataError::NestingTooDeep`]. A
/// pattern that builds more than [`MAX_PATTERN_NODES`] nodes (a
/// repetition counts its copies) is refused with
/// [`AutomataError::PatternTooLarge`].
pub fn compile_similar(alphabet: &Alphabet, pattern: &str) -> Result<Regex, AutomataError> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut p = SimilarParser {
        alphabet,
        chars: &chars,
        pos: 0,
        depth: 0,
        nodes: 0,
    };
    let r = p.alt()?;
    if p.pos != p.chars.len() {
        return Err(AutomataError::Parse {
            pos: p.pos,
            msg: format!("unexpected {:?}", p.chars[p.pos]),
        });
    }
    Ok(r)
}

struct SimilarParser<'a> {
    alphabet: &'a Alphabet,
    chars: &'a [char],
    pos: usize,
    /// Levels currently open; see [`MAX_NESTING_DEPTH`].
    depth: usize,
    /// Nodes built so far; see [`MAX_PATTERN_NODES`].
    nodes: usize,
}

impl<'a> SimilarParser<'a> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn err(&self, msg: impl Into<String>) -> AutomataError {
        AutomataError::Parse {
            pos: self.pos,
            msg: msg.into(),
        }
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

    fn alt(&mut self) -> Result<Regex, AutomataError> {
        let start = self.pos;
        let mut r = self.seq()?;
        let mut last_was_empty = self.pos == start;
        while self.peek() == Some('|') {
            // `a|`, `|a`, `a||b`: SQL rejects empty alternation branches
            // (`''` and `()` without a `|` remain ε).
            if last_was_empty {
                return Err(self.err("empty alternation branch"));
            }
            self.pos += 1;
            let branch_start = self.pos;
            let branch = self.seq()?;
            last_was_empty = self.pos == branch_start;
            if last_was_empty {
                return Err(self.err("empty alternation branch"));
            }
            self.grow(1)?;
            r = r.union(branch);
        }
        Ok(r)
    }

    fn seq(&mut self) -> Result<Regex, AutomataError> {
        let mut r = Regex::Epsilon;
        let mut items = 0;
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            let item = self.item()?;
            // The first item needs no `·` node; an empty sequence is one
            // `ε`.
            self.grow(usize::from(items > 0))?;
            items += 1;
            r = r.concat(item);
        }
        if items == 0 {
            self.grow(1)?;
        }
        Ok(r)
    }

    fn item(&mut self) -> Result<Regex, AutomataError> {
        let mut r = self.base()?;
        let mut ops = 0;
        while let Some(c) = self.peek() {
            if matches!(c, '*' | '+' | '?' | '{') {
                // Each operator wraps `r` one level deeper.
                self.open()?;
                ops += 1;
            }
            match c {
                '*' => {
                    self.grow(1)?;
                    self.pos += 1;
                    r = r.star();
                }
                '+' => {
                    // `r+ = r·r*` copies `r`.
                    self.grow(r.size() + 2)?;
                    self.pos += 1;
                    r = r.plus();
                }
                '?' => {
                    self.grow(2)?;
                    self.pos += 1;
                    r = r.opt();
                }
                '{' => {
                    self.pos += 1;
                    let lo = self.number()?;
                    let size = r.size();
                    r = match self.peek() {
                        Some('}') => {
                            // `n − 1` more copies and `n − 1` `·` nodes;
                            // `r{0}` is one `ε`.
                            self.grow(lo.saturating_sub(1).saturating_mul(size + 1).max(1))?;
                            self.pos += 1;
                            r.repeat(lo)
                        }
                        Some(',') => {
                            self.pos += 1;
                            match self.peek() {
                                Some('}') => {
                                    // {n,} = r^n r*: `n` more copies,
                                    // `n` `·` nodes and a `*`.
                                    self.grow(lo.saturating_mul(size + 1).saturating_add(1))?;
                                    self.pos += 1;
                                    r.clone().repeat(lo).concat(r.star())
                                }
                                _ => {
                                    let hi = self.number()?;
                                    if self.peek() != Some('}') {
                                        return Err(self.err("expected '}'"));
                                    }
                                    self.pos += 1;
                                    if lo > hi {
                                        return Err(
                                            self.err(format!("bad repetition range {{{lo},{hi}}}"))
                                        );
                                    }
                                    // At most `hi` copies, each with a
                                    // `?` (2 nodes) and a `·`.
                                    self.grow(hi.saturating_mul(size + 3))?;
                                    r.repeat_range(lo, hi)
                                }
                            }
                        }
                        _ => return Err(self.err("expected '}' or ','")),
                    };
                }
                _ => break,
            }
        }
        self.depth -= ops;
        Ok(r)
    }

    fn number(&mut self) -> Result<usize, AutomataError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse()
            .map_err(|_| self.err(format!("bad number {text:?}")))
    }

    fn base(&mut self) -> Result<Regex, AutomataError> {
        let c = self.peek().ok_or_else(|| self.err("unexpected end"))?;
        match c {
            '%' => {
                self.grow(2)?;
                self.pos += 1;
                Ok(Regex::any_string())
            }
            '_' => {
                self.grow(1)?;
                self.pos += 1;
                Ok(Regex::Any)
            }
            '(' => {
                self.open()?;
                self.pos += 1;
                let r = self.alt()?;
                self.depth -= 1;
                if self.peek() != Some(')') {
                    return Err(self.err("expected ')'"));
                }
                self.pos += 1;
                Ok(r)
            }
            '[' => {
                self.pos += 1;
                let negate = self.peek() == Some('^');
                if negate {
                    self.pos += 1;
                }
                let mut members = vec![false; self.alphabet.len()];
                // Distinct from "any member set": `[x-z]` over {a,b,c}
                // has a spec but no members (it denotes ∅), while `[]`
                // and `[^]` have no spec at all and are errors.
                let mut saw_spec = false;
                while let Some(c) = self.peek() {
                    if c == ']' {
                        break;
                    }
                    // `c1-c2` is a range only when `-` sits between two
                    // spec characters; at either class edge it is a
                    // literal member.
                    let is_range = self.chars.get(self.pos + 1) == Some(&'-')
                        && !matches!(self.chars.get(self.pos + 2), None | Some(']'));
                    if is_range {
                        let (lo, hi) = (c, self.chars[self.pos + 2]);
                        if lo > hi {
                            return Err(self.err(format!("bad character range {lo:?}-{hi:?}")));
                        }
                        // Endpoints need not be alphabet characters: the
                        // range selects by code point, and only the
                        // alphabet characters inside it become members.
                        for s in self.alphabet.syms() {
                            let ch = self
                                .alphabet
                                .char_of(s)
                                .expect("alphabet enumerates its own symbols");
                            if lo <= ch && ch <= hi {
                                members[s as usize] = true;
                            }
                        }
                        saw_spec = true;
                        self.pos += 3;
                    } else {
                        let s = self
                            .alphabet
                            .sym_of(c)
                            .map_err(|_| self.err(format!("{c:?} is not in the alphabet")))?;
                        members[s as usize] = true;
                        saw_spec = true;
                        self.pos += 1;
                    }
                }
                if self.peek() != Some(']') {
                    return Err(self.err("expected ']'"));
                }
                self.pos += 1;
                if !saw_spec {
                    // `[]` and — regression — `[^]`, which used to slip
                    // through and match *every* character.
                    return Err(self.err("empty character class"));
                }
                let r = Regex::union_all(
                    members
                        .iter()
                        .enumerate()
                        .filter(|(_, &m)| m != negate)
                        .map(|(s, _)| Regex::Sym(s as u8)),
                );
                self.grow(r.size())?;
                Ok(r)
            }
            '*' | '+' | '?' | '{' | '}' | ']' | ')' | '|' => {
                Err(self.err(format!("unexpected {c:?}")))
            }
            lit => {
                let s = self
                    .alphabet
                    .sym_of(lit)
                    .map_err(|_| self.err(format!("{lit:?} is not in the alphabet")))?;
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
    use crate::dfa::Dfa;
    use strcalc_alphabet::Str;

    fn abc() -> Alphabet {
        Alphabet::abc()
    }

    fn s(t: &str) -> Str {
        abc().parse(t).unwrap()
    }

    fn dfa(pat: &str) -> Dfa {
        Dfa::from_regex(3, &compile_similar(&abc(), pat).unwrap())
    }

    #[test]
    fn percent_and_underscore() {
        let d = dfa("a%b");
        assert!(d.accepts(&s("ab")));
        assert!(d.accepts(&s("acccb")));
        assert!(!d.accepts(&s("a")));

        let d = dfa("_b");
        assert!(d.accepts(&s("ab")) && d.accepts(&s("cb")) && !d.accepts(&s("b")));
    }

    #[test]
    fn alternation_and_groups() {
        let d = dfa("(ab|ba)*");
        assert!(d.accepts(&s("")));
        assert!(d.accepts(&s("abba")));
        assert!(!d.accepts(&s("aab")));
    }

    #[test]
    fn char_classes() {
        let d = dfa("[ab]+");
        assert!(d.accepts(&s("abba")));
        assert!(!d.accepts(&s("abc")));
        let d = dfa("[^a]*");
        assert!(d.accepts(&s("bcb")));
        assert!(!d.accepts(&s("ba")));
    }

    #[test]
    fn bounded_repetition() {
        let d = dfa("a{2,3}");
        assert!(!d.accepts(&s("a")));
        assert!(d.accepts(&s("aa")));
        assert!(d.accepts(&s("aaa")));
        assert!(!d.accepts(&s("aaaa")));

        let d = dfa("(ab){2}");
        assert!(d.accepts(&s("abab")));
        assert!(!d.accepts(&s("ab")));

        let d = dfa("b{1,}");
        assert!(d.accepts(&s("b")) && d.accepts(&s("bbb")) && !d.accepts(&s("")));
    }

    #[test]
    fn nesting_is_capped() {
        crate::with_main_stack(|| {
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
                compile_similar(&abc(), &parens(MAX_NESTING_DEPTH)),
                Ok(Regex::Sym(0))
            );
            assert!(too_deep(compile_similar(
                &abc(),
                &parens(MAX_NESTING_DEPTH + 1)
            )));
            assert!(too_deep(compile_similar(&abc(), &parens(20_000))));
            let opts = |n: usize| format!("(a{})", "?".repeat(n));
            assert!(compile_similar(&abc(), &opts(MAX_NESTING_DEPTH - 1)).is_ok());
            assert!(too_deep(compile_similar(&abc(), &opts(MAX_NESTING_DEPTH))));
        });
    }

    #[test]
    fn pattern_size_is_capped() {
        crate::with_main_stack(|| {
            let too_large = |r: Result<Regex, AutomataError>| {
                matches!(
                    r,
                    Err(AutomataError::PatternTooLarge {
                        limit: MAX_PATTERN_NODES,
                        ..
                    })
                )
            };
            // `a{n}` is `n` symbols and `n − 1` concatenations; a `*` on
            // it adds one node, a `?` two.
            let n = MAX_PATTERN_NODES / 2;
            let at_cap = compile_similar(&abc(), &format!("a{{{n}}}*")).unwrap();
            assert_eq!(at_cap.size(), MAX_PATTERN_NODES);
            assert!(too_large(compile_similar(&abc(), &format!("a{{{n}}}?"))));
            for huge in [
                "a{1000000}",
                "a{1000000,}",
                "a{0,1000000}",
                "(ab){99999999999}",
            ] {
                assert!(too_large(compile_similar(&abc(), huge)), "{huge}");
            }
            assert!(too_large(compile_similar(
                &abc(),
                &format!("a{}", "+".repeat(30))
            )));
        });
    }

    #[test]
    fn errors() {
        assert!(compile_similar(&abc(), "a{3,2}").is_err());
        assert!(compile_similar(&abc(), "[").is_err());
        assert!(compile_similar(&abc(), "a)").is_err());
        assert!(compile_similar(&abc(), "x").is_err());
        assert!(compile_similar(&abc(), "a{").is_err());
    }

    #[test]
    fn char_class_ranges() {
        let d = dfa("[a-c]+");
        assert!(d.accepts(&s("abc")));
        assert!(d.accepts(&s("cab")));
        assert!(!d.accepts(&s("")));
        let d = dfa("[a-b]*c");
        assert!(d.accepts(&s("abbac")));
        assert!(!d.accepts(&s("abcc")), "c is outside [a-b]");
        // Negated range.
        let d = dfa("[^a-b]+");
        assert!(d.accepts(&s("ccc")));
        assert!(!d.accepts(&s("ca")));
        // Endpoints outside the alphabet select by code point: [a-z]
        // over {a,b,c} is just [abc]; [x-z] selects nothing → ∅.
        let d = dfa("[a-z]+");
        assert!(d.accepts(&s("cba")));
        assert_eq!(compile_similar(&abc(), "[x-z]").unwrap(), Regex::Empty);
    }

    #[test]
    fn dash_at_class_edges_is_literal() {
        // `-` first or last in the class is a literal member, not a
        // range operator. Regression: the parser used to reject every
        // `-` because it only knew literal members.
        let sigma = Alphabet::new("-ab").unwrap();
        let w = |t: &str| sigma.parse(t).unwrap();
        for pat in ["[-a]+", "[a-]+"] {
            let d = Dfa::from_regex(3, &compile_similar(&sigma, pat).unwrap());
            assert!(d.accepts(&w("-a-")), "{pat}");
            assert!(!d.accepts(&w("b")), "{pat}");
        }
        // `[a-]` must not mean "range from a to ]".
        let d = Dfa::from_regex(3, &compile_similar(&sigma, "[a-]").unwrap());
        assert!(!d.accepts(&w("b")));
    }

    #[test]
    fn reversed_range_is_an_error() {
        let err = compile_similar(&abc(), "[c-a]").unwrap_err();
        assert!(err.to_string().contains("bad character range"), "{err}");
    }

    #[test]
    fn empty_negated_class_is_an_error() {
        // Regression: `[^]` used to parse as "negation of nothing" and
        // match every character; it is as malformed as `[]`.
        for pat in ["[]", "[^]"] {
            let err = compile_similar(&abc(), pat).unwrap_err();
            assert!(
                err.to_string().contains("empty character class"),
                "{pat}: {err}"
            );
        }
    }

    #[test]
    fn empty_alternation_branch_is_an_error() {
        for pat in ["a|", "|a", "(a|)", "(|a)", "a||b", "a|b|"] {
            let err = compile_similar(&abc(), pat).unwrap_err();
            assert!(
                err.to_string().contains("empty alternation branch"),
                "{pat}: {err}"
            );
        }
        // The empty pattern and the empty group stay ε.
        let d = dfa("");
        assert!(d.accepts(&s("")) && !d.accepts(&s("a")));
        let d = dfa("()");
        assert!(d.accepts(&s("")) && !d.accepts(&s("a")));
    }

    #[test]
    fn agrees_with_derivative_matcher() {
        // Differential check: the compiled regex, run through the DFA
        // pipeline, agrees with the independent Brzozowski-derivative
        // matcher on every pattern and every short string.
        use crate::derivative;
        let patterns = [
            "%",
            "a%b",
            "_b",
            "(ab|ba)*",
            "[ab]+",
            "[^a]*",
            "[a-c]+",
            "[^a-b]+",
            "[a-z]{2}",
            "a{2,3}",
            "(a|b|c)*c",
            "([a-b]c)+",
            "%[b-c]",
        ];
        for pat in patterns {
            let r = compile_similar(&abc(), pat).unwrap();
            let d = Dfa::from_regex(3, &r);
            for w in abc().strings_up_to(4) {
                assert_eq!(
                    derivative::matches(&r, &w),
                    d.accepts(&w),
                    "pattern {pat:?} diverges on {w}"
                );
            }
        }
    }

    #[test]
    fn similar_can_exceed_star_free() {
        // (aa)* via SIMILAR — the Figure 1 separation witness.
        use crate::starfree::is_star_free;
        let d = dfa("(aa)*");
        assert!(!is_star_free(&d).unwrap());
    }
}
