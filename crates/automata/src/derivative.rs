//! Brzozowski derivatives: a direct, automaton-free regex matcher, and a
//! derivative-based DFA construction — an independent implementation of
//! regex semantics used to cross-check the Thompson/subset pipeline.
//!
//! The left derivative `∂_a r` denotes `{ w : a·w ∈ L(r) }`; matching is
//! iterated derivation plus a final nullability test. With light
//! normalization the set of derivatives of a regex is finite, giving the
//! classical derivative DFA.

use std::collections::HashMap;

use strcalc_alphabet::{Str, Sym};

use crate::dfa::Dfa;
use crate::regex::Regex;

/// The Brzozowski derivative `∂_a r` (with smart-constructor
/// normalization, which is enough to keep derivative sets small for the
/// sizes this crate handles).
pub fn derivative(r: &Regex, a: Sym) -> Regex {
    match r {
        Regex::Empty | Regex::Epsilon => Regex::Empty,
        Regex::Sym(s) => {
            if *s == a {
                Regex::Epsilon
            } else {
                Regex::Empty
            }
        }
        Regex::Any => Regex::Epsilon,
        Regex::Union(x, y) => derivative(x, a).union(derivative(y, a)),
        Regex::Concat(x, y) => {
            let left = derivative(x, a).concat((**y).clone());
            if x.nullable() {
                left.union(derivative(y, a))
            } else {
                left
            }
        }
        Regex::Star(x) => derivative(x, a).concat(r.clone()),
    }
}

/// Matches by iterated derivation — no automaton, no preprocessing.
pub fn matches(r: &Regex, w: &Str) -> bool {
    let mut cur = r.clone();
    for &a in w.syms() {
        cur = derivative(&cur, a);
        if cur == Regex::Empty {
            return false;
        }
    }
    cur.nullable()
}

/// The derivative DFA: states are (normalized) derivatives. `cap` bounds
/// the number of states explored; smart-constructor normalization does
/// not canonicalize ACI, so pathological regexes can exceed it — `None`
/// is returned in that case.
pub fn derivative_dfa(k: Sym, r: &Regex, cap: usize) -> Option<Dfa> {
    let mut index: HashMap<Regex, u32> = HashMap::new();
    let mut states: Vec<Regex> = Vec::new();
    let mut trans: Vec<Vec<Option<u32>>> = Vec::new();
    index.insert(r.clone(), 0);
    states.push(r.clone());
    trans.push(vec![None; k as usize]);
    let mut i = 0;
    while i < states.len() {
        for a in 0..k {
            let d = derivative(&states[i].clone(), a);
            if d == Regex::Empty {
                continue;
            }
            let id = match index.get(&d) {
                Some(&id) => id,
                None => {
                    if states.len() >= cap {
                        return None;
                    }
                    let id = states.len() as u32;
                    index.insert(d.clone(), id);
                    states.push(d);
                    trans.push(vec![None; k as usize]);
                    id
                }
            };
            trans[i][a as usize] = Some(id);
        }
        i += 1;
    }
    let accepting = states.iter().map(Regex::nullable).collect();
    Some(Dfa {
        k,
        trans,
        start: 0,
        accepting,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use strcalc_alphabet::Alphabet;

    fn re(t: &str) -> Regex {
        Regex::parse(&Alphabet::ab(), t).unwrap()
    }

    /// Raw regex trees over symbols `0..k` (no smart constructors, so
    /// unnormalized shapes such as `(r*)*` and `r|r` occur).
    fn arb_regex(k: Sym) -> impl Strategy<Value = Regex> {
        let leaf = prop_oneof![(0..k).prop_map(Regex::Sym), Just(Regex::Any)];
        leaf.prop_recursive(4, 24, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Regex::Union(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Regex::Concat(Box::new(a), Box::new(b))),
                inner.prop_map(|a| Regex::Star(Box::new(a))),
            ]
        })
    }

    /// The derivative matcher and the Thompson → subset → minimize DFA
    /// accept the same words of length ≤ 6.
    fn matchers_agree(alphabet: &Alphabet, r: &Regex) {
        let d = Dfa::from_regex(alphabet.len() as Sym, r);
        for w in alphabet.strings_up_to(6) {
            assert_eq!(matches(r, &w), d.accepts(&w), "{r:?} on {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn derivative_matcher_agrees_with_dfa_over_two_symbols(r in arb_regex(2)) {
            matchers_agree(&Alphabet::ab(), &r);
        }

        #[test]
        fn derivative_matcher_agrees_with_dfa_over_three_symbols(r in arb_regex(3)) {
            matchers_agree(&Alphabet::new("abc").unwrap(), &r);
        }
    }

    #[test]
    fn derivative_dfa_language() {
        let alphabet = Alphabet::ab();
        for src in ["a(b|a)*b", "(aa)*", "a*|b*"] {
            let r = re(src);
            let via_derivatives = derivative_dfa(2, &r, 10_000).expect("small regex");
            let via_thompson = Dfa::from_regex(2, &r);
            for w in alphabet.strings_up_to(6) {
                assert_eq!(
                    via_derivatives.accepts(&w),
                    via_thompson.accepts(&w),
                    "{src} on {w}"
                );
            }
        }
    }

    #[test]
    fn basic_derivative_laws() {
        let a = Regex::Sym(0);
        assert_eq!(derivative(&a, 0), Regex::Epsilon);
        assert_eq!(derivative(&a, 1), Regex::Empty);
        // ∂_a (a*) = a*.
        let astar = a.clone().star();
        assert_eq!(derivative(&astar, 0), astar);
    }
}
