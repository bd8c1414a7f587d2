//! Property-based tests: the automata pipeline (Thompson → subset →
//! minimize → boolean ops) preserves languages under every composition.

use proptest::prelude::*;
use strcalc_alphabet::{Alphabet, Str};
use strcalc_automata::{Dfa, Nfa, Regex};

/// A random regex over a 2-symbol alphabet, sized.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Empty),
        Just(Regex::Epsilon),
        Just(Regex::Sym(0)),
        Just(Regex::Sym(1)),
        Just(Regex::Any),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Regex::Concat(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Regex::Union(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Regex::Star(Box::new(a))),
        ]
    })
}

fn arb_str() -> impl Strategy<Value = Str> {
    prop::collection::vec(0u8..2, 0..=7).prop_map(Str::from_syms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nfa_dfa_minimized_agree(re in arb_regex(), w in arb_str()) {
        let nfa = Nfa::from_regex(2, &re);
        let dfa = nfa.determinize();
        let min = dfa.minimize();
        let by_nfa = nfa.accepts(&w);
        prop_assert_eq!(by_nfa, dfa.accepts(&w));
        prop_assert_eq!(by_nfa, min.accepts(&w));
    }

    #[test]
    fn complement_flips_membership(re in arb_regex(), w in arb_str()) {
        let d = Dfa::from_regex(2, &re);
        prop_assert_eq!(d.accepts(&w), !d.complement().accepts(&w));
    }

    #[test]
    fn boolean_ops_are_pointwise(a in arb_regex(), b in arb_regex(), w in arb_str()) {
        let da = Dfa::from_regex(2, &a);
        let db = Dfa::from_regex(2, &b);
        let (ma, mb) = (da.accepts(&w), db.accepts(&w));
        prop_assert_eq!(da.intersect(&db).accepts(&w), ma && mb);
        prop_assert_eq!(da.union(&db).accepts(&w), ma || mb);
        prop_assert_eq!(da.difference(&db).accepts(&w), ma && !mb);
        prop_assert_eq!(da.sym_diff(&db).accepts(&w), ma != mb);
    }

    #[test]
    fn minimization_is_canonical(re in arb_regex()) {
        let m1 = Dfa::from_regex(2, &re);
        let m2 = m1.minimize();
        prop_assert!(m1.equivalent(&m2));
        prop_assert_eq!(m2.len(), m2.minimize().len());
    }

    #[test]
    fn finiteness_counts_match_enumeration(re in arb_regex()) {
        use strcalc_automata::dfa::Finiteness;
        let d = Dfa::from_regex(2, &re);
        match d.finiteness() {
            Finiteness::Empty => prop_assert!(d.is_empty()),
            Finiteness::Finite(n) => {
                let words = d.enumerate_finite();
                prop_assert_eq!(words.len() as u64, n);
                for w in &words {
                    prop_assert!(d.accepts(w));
                }
            }
            Finiteness::Infinite { u, v, w } => {
                prop_assert!(!v.is_empty());
                for pumps in 0..4 {
                    let mut word = u.clone();
                    for _ in 0..pumps {
                        word = word.concat(&v);
                    }
                    prop_assert!(d.accepts(&word.concat(&w)));
                }
            }
        }
    }

    #[test]
    fn counting_matches_enumeration(re in arb_regex(), n in 0usize..5) {
        let d = Dfa::from_regex(2, &re);
        let alphabet = Alphabet::ab();
        let by_enum = alphabet
            .strings_exactly(n)
            .filter(|w| d.accepts(w))
            .count() as u64;
        prop_assert_eq!(d.count_words_of_len(n), by_enum);
    }

    #[test]
    fn quotient_correctness(re in arb_regex(), p in arb_str(), w in arb_str()) {
        let d = Dfa::from_regex(2, &re);
        let q = d.left_quotient(&p);
        prop_assert_eq!(q.accepts(&w), d.accepts(&p.concat(&w)));
    }

    // ---- metamorphic properties backing the translation validator ----
    // `strcalc-verify` decides rewrite equivalence through these ops, so
    // each normalization must preserve `equivalent` exactly.

    #[test]
    fn normalizations_preserve_equivalence(re in arb_regex()) {
        let d = Dfa::from_regex(2, &re);
        prop_assert!(d.equivalent(&d.minimize()));
        prop_assert!(d.equivalent(&d.complete()));
        prop_assert!(d.equivalent(&d.trim()));
        prop_assert!(d.equivalent(&d.trim().complete().minimize()));
    }

    #[test]
    fn de_morgan(a in arb_regex(), b in arb_regex()) {
        let da = Dfa::from_regex(2, &a);
        let db = Dfa::from_regex(2, &b);
        prop_assert!(da
            .union(&db)
            .complement()
            .equivalent(&da.complement().intersect(&db.complement())));
        prop_assert!(da
            .intersect(&db)
            .complement()
            .equivalent(&da.complement().union(&db.complement())));
    }

    #[test]
    fn sym_diff_empty_iff_equivalent(a in arb_regex(), b in arb_regex()) {
        let da = Dfa::from_regex(2, &a);
        let db = Dfa::from_regex(2, &b);
        prop_assert_eq!(da.sym_diff(&db).is_empty(), da.equivalent(&db));
        // And against itself the difference is always empty.
        prop_assert!(da.sym_diff(&da).is_empty());
    }

    #[test]
    fn star_free_test_accepts_all_finite_languages(words in prop::collection::vec(arb_str(), 0..5)) {
        // Every finite language is star-free.
        use strcalc_automata::starfree::is_star_free;
        let d = Nfa::from_finite(2, words.iter()).determinize().minimize();
        prop_assert!(is_star_free(&d).unwrap());
    }
}
