//! SQL `LIKE` patterns.
//!
//! `LIKE` patterns are built from literal characters, `%` ("zero or more
//! characters") and `_` ("exactly one character"). Section 4 of the paper
//! observes that `LIKE` matching is expressible in first-order logic over
//! `(Σ*, ≺, (L_a))` and that `LIKE` patterns denote **star-free**
//! languages; the test [`crate::starfree::is_star_free`] confirms this for
//! every compiled pattern (see the unit tests).

use strcalc_alphabet::{Alphabet, Str, Sym};

use crate::regex::Regex;
use crate::AutomataError;

/// One element of a `LIKE` pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LikeItem {
    /// `%` — matches any string (including `ε`).
    Percent,
    /// `_` — matches exactly one symbol.
    Underscore,
    /// A literal symbol.
    Lit(Sym),
    /// An escaped literal outside the alphabet (e.g. `\%` over `{a,b}`).
    /// Well-formed SQL, but no string over `Σ` contains the character, so
    /// the whole pattern denotes `∅`.
    Unmatchable(char),
}

/// A parsed `LIKE` pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikePattern {
    pub items: Vec<LikeItem>,
}

impl LikePattern {
    /// Parses a `LIKE` pattern over the given alphabet, following SQL
    /// semantics:
    ///
    /// * a backslash escapes the next character, turning `%`, `_` and
    ///   `\` into literals (`\%` matches a literal `%`, `\\` a literal
    ///   backslash);
    /// * an escaped metacharacter outside the alphabet is **not** an
    ///   error — it is a well-formed literal no `Σ`-string can contain,
    ///   so the pattern denotes `∅` ([`LikeItem::Unmatchable`]);
    /// * a pattern ending in a bare escape is invalid (the SQL standard
    ///   rejects it), as is an *unescaped* character outside the
    ///   alphabet (almost certainly a typo — `∅` semantics are reserved
    ///   for the explicit escaped form).
    pub fn parse(alphabet: &Alphabet, pattern: &str) -> Result<LikePattern, AutomataError> {
        let mut items = Vec::new();
        let mut chars = pattern.chars().enumerate().peekable();
        while let Some((pos, c)) = chars.next() {
            let item = match c {
                '%' => LikeItem::Percent,
                '_' => LikeItem::Underscore,
                '\\' => {
                    let (pos2, lit) = chars.next().ok_or(AutomataError::Parse {
                        pos,
                        msg: "pattern must not end with the escape character".into(),
                    })?;
                    match alphabet.sym_of(lit) {
                        Ok(s) => LikeItem::Lit(s),
                        // `\%`, `\_`, `\\`: a literal metacharacter. Out
                        // of the alphabet it matches nothing, but the
                        // pattern itself is well-formed.
                        Err(_) if matches!(lit, '%' | '_' | '\\') => LikeItem::Unmatchable(lit),
                        Err(_) => {
                            return Err(AutomataError::Parse {
                                pos: pos2,
                                msg: format!("{lit:?} is not in the alphabet"),
                            })
                        }
                    }
                }
                other => {
                    LikeItem::Lit(alphabet.sym_of(other).map_err(|_| AutomataError::Parse {
                        pos,
                        msg: format!("{other:?} is not in the alphabet"),
                    })?)
                }
            };
            items.push(item);
        }
        Ok(LikePattern { items })
    }

    /// Compiles to a regex (always star-free as a language).
    pub fn to_regex(&self) -> Regex {
        Regex::concat_all(self.items.iter().map(|item| match item {
            LikeItem::Percent => Regex::any_string(),
            LikeItem::Underscore => Regex::Any,
            LikeItem::Lit(s) => Regex::Sym(*s),
            // One unmatchable literal empties the whole concatenation.
            LikeItem::Unmatchable(_) => Regex::Empty,
        }))
    }

    /// Direct matcher (dynamic programming over the pattern), used to
    /// cross-check the automaton pipeline.
    pub fn matches(&self, w: &Str) -> bool {
        // reachable[i] == true: items[..i] can match some prefix boundary.
        let n = self.items.len();
        let mut reach = vec![false; n + 1];
        reach[0] = true;
        // Percent items absorb ε immediately.
        for i in 0..n {
            if reach[i] && self.items[i] == LikeItem::Percent {
                reach[i + 1] = true;
            }
        }
        for &c in w.syms() {
            let mut next = vec![false; n + 1];
            for i in 0..n {
                if !reach[i] {
                    continue;
                }
                match self.items[i] {
                    LikeItem::Percent => {
                        next[i] = true; // stay and absorb c
                    }
                    LikeItem::Underscore => next[i + 1] = true,
                    LikeItem::Lit(s) => {
                        if s == c {
                            next[i + 1] = true;
                        }
                    }
                    // Never matches any symbol of Σ.
                    LikeItem::Unmatchable(_) => {}
                }
            }
            // ε-moves over Percent.
            for i in 0..n {
                if next[i] && self.items[i] == LikeItem::Percent {
                    next[i + 1] = true;
                }
            }
            reach = next;
        }
        reach[n]
    }

    /// Renders back to the textual pattern. Literal metacharacters are
    /// re-escaped, so `parse(render(p)) == p` for every parsed pattern.
    pub fn render(&self, alphabet: &Alphabet) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                LikeItem::Percent => out.push('%'),
                LikeItem::Underscore => out.push('_'),
                LikeItem::Lit(s) => {
                    let c = alphabet.char_of(*s).unwrap_or('?');
                    if matches!(c, '%' | '_' | '\\') {
                        out.push('\\');
                    }
                    out.push(c);
                }
                LikeItem::Unmatchable(c) => {
                    out.push('\\');
                    out.push(*c);
                }
            }
        }
        out
    }
}

/// Convenience: parse and compile a `LIKE` pattern to a regex.
pub fn compile_like(alphabet: &Alphabet, pattern: &str) -> Result<Regex, AutomataError> {
    Ok(LikePattern::parse(alphabet, pattern)?.to_regex())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::Dfa;
    use crate::starfree::is_star_free;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn s(t: &str) -> Str {
        ab().parse(t).unwrap()
    }

    #[test]
    fn parse_and_render() {
        let p = LikePattern::parse(&ab(), "a%_b").unwrap();
        assert_eq!(p.render(&ab()), "a%_b");
        assert!(LikePattern::parse(&ab(), "a%z").is_err());
    }

    #[test]
    fn matcher_agrees_with_automaton() {
        let patterns = [
            "", "%", "_", "a", "a%", "%a", "a%b", "_%_", "%ab%", "a_b", "a\\%", "\\_%", "a%\\\\",
        ];
        for pat in patterns {
            let p = LikePattern::parse(&ab(), pat).unwrap();
            let d = Dfa::from_regex(2, &p.to_regex());
            for w in ab().strings_up_to(5) {
                assert_eq!(
                    p.matches(&w),
                    d.accepts(&w),
                    "pattern {pat:?} disagrees on {w}"
                );
            }
        }
    }

    #[test]
    fn trailing_escape_is_an_invalid_pattern() {
        // SQL rejects a pattern ending in the escape character.
        for pat in ["\\", "a%\\", "ab\\"] {
            let err = LikePattern::parse(&ab(), pat).unwrap_err();
            assert!(
                err.to_string().contains("must not end with the escape"),
                "{pat:?}: {err}"
            );
        }
    }

    #[test]
    fn empty_pattern_matches_only_the_empty_string() {
        let p = LikePattern::parse(&ab(), "").unwrap();
        assert!(p.matches(&Str::epsilon()));
        for w in ab().strings_up_to(3) {
            assert_eq!(p.matches(&w), w.is_empty(), "on {w}");
        }
        assert_eq!(p.render(&ab()), "");
    }

    #[test]
    fn escaped_metachar_at_end_of_pattern_is_a_literal() {
        // `%` and `_` are in this alphabet, so `\%` / `\_` at the end
        // must match the literal character — not act as a wildcard and
        // not error. Regression for the parser rejecting these outright.
        let sigma = Alphabet::new("ab%_").unwrap();
        let w = |t: &str| sigma.parse(t).unwrap();
        let p = LikePattern::parse(&sigma, "a\\%").unwrap();
        assert_eq!(p.items, vec![LikeItem::Lit(0), LikeItem::Lit(2)]);
        assert!(p.matches(&w("a%")));
        assert!(!p.matches(&w("ab")), "escaped % is not a wildcard");
        assert!(!p.matches(&w("a")));
        let q = LikePattern::parse(&sigma, "b\\_").unwrap();
        assert!(q.matches(&w("b_")));
        assert!(!q.matches(&w("ba")), "escaped _ is not a wildcard");
    }

    #[test]
    fn backslash_self_escape_is_a_literal_backslash() {
        let sigma = Alphabet::new("ab\\").unwrap();
        let w = |t: &str| sigma.parse(t).unwrap();
        let p = LikePattern::parse(&sigma, "a\\\\b").unwrap();
        assert_eq!(
            p.items,
            vec![LikeItem::Lit(0), LikeItem::Lit(2), LikeItem::Lit(1)]
        );
        assert!(p.matches(&w("a\\b")));
        assert!(!p.matches(&w("ab")));
    }

    #[test]
    fn escaped_metachar_outside_alphabet_denotes_the_empty_language() {
        // `\%` over {a,b} is well-formed SQL: a literal `%` no string
        // over the alphabet contains. The pattern parses and matches
        // nothing. Regression for "not in the alphabet" parse errors.
        for pat in ["a\\%", "\\_", "\\\\", "%\\%%"] {
            let p = LikePattern::parse(&ab(), pat)
                .unwrap_or_else(|e| panic!("{pat:?} must parse: {e}"));
            assert!(p
                .items
                .iter()
                .any(|i| matches!(i, LikeItem::Unmatchable(_))));
            assert_eq!(p.to_regex(), Regex::Empty, "{pat:?}");
            for w in ab().strings_up_to(4) {
                assert!(!p.matches(&w), "{pat:?} must not match {w}");
            }
        }
        // Unescaped out-of-alphabet characters are still errors.
        assert!(LikePattern::parse(&ab(), "a%z").is_err());
    }

    #[test]
    fn render_reescapes_literal_metacharacters() {
        let sigma = Alphabet::new("ab%_\\").unwrap();
        for pat in ["a\\%b", "\\_%", "\\\\", "a%_"] {
            let p = LikePattern::parse(&sigma, pat).unwrap();
            let rendered = p.render(&sigma);
            assert_eq!(rendered, pat, "render is the identity on escaped input");
            let reparsed = LikePattern::parse(&sigma, &rendered).unwrap();
            assert_eq!(reparsed, p, "{pat:?} round-trips");
        }
        // Unmatchable literals round-trip too.
        let p = LikePattern::parse(&ab(), "a\\%").unwrap();
        assert_eq!(p.render(&ab()), "a\\%");
        assert_eq!(LikePattern::parse(&ab(), &p.render(&ab())).unwrap(), p);
    }

    #[test]
    fn semantics_spot_checks() {
        let p = LikePattern::parse(&ab(), "a%b").unwrap();
        assert!(p.matches(&s("ab")));
        assert!(p.matches(&s("aab")));
        assert!(p.matches(&s("abab")));
        assert!(!p.matches(&s("a")));
        assert!(!p.matches(&s("ba")));

        let q = LikePattern::parse(&ab(), "_a%").unwrap();
        assert!(q.matches(&s("aa")));
        assert!(q.matches(&s("bab")));
        assert!(!q.matches(&s("a")));
    }

    #[test]
    fn like_languages_are_star_free() {
        // The paper's claim: LIKE patterns denote star-free languages.
        for pat in ["%", "a%b", "_%_", "%ab%", "a_b", ""] {
            let p = LikePattern::parse(&ab(), pat).unwrap();
            let d = Dfa::from_regex(2, &p.to_regex());
            assert!(is_star_free(&d).unwrap(), "pattern {pat:?}");
        }
    }
}
