//! E1 — Figure 1: all machine-checkable separation evidence holds, and
//! the star-freeness invariant for `S`-definable sets survives a random
//! formula corpus.

use strcalc::automata::starfree::is_star_free;
use strcalc::core::separations::{
    check_s_definable_star_free, definable_set, figure1_report, s_formula_corpus,
    slen_formula_corpus, star_free_profile,
};
use strcalc::prelude::*;
use strcalc::workloads::Workload;

#[test]
fn figure1_edges_hold() {
    let rows = figure1_report(&Alphabet::ab()).unwrap();
    assert_eq!(rows.len(), 4);
    for row in rows {
        assert!(row.holds, "{}: {}", row.edge, row.checked);
    }
}

#[test]
fn fixed_corpus_star_freeness() {
    let sigma = Alphabet::ab();
    assert!(
        check_s_definable_star_free(&sigma, &s_formula_corpus(&sigma))
            .unwrap()
            .is_none()
    );
    let profile = star_free_profile(&sigma, &slen_formula_corpus(&sigma)).unwrap();
    assert!(profile.iter().any(|sf| !sf));
}

#[test]
fn random_s_formulas_define_star_free_sets() {
    // Section 4: "the definable subsets of Σ* in S are precisely the
    // star-free languages" — the ⊆ direction, sampled.
    let sigma = Alphabet::ab();
    let mut tested = 0;
    for seed in 0..40u64 {
        let mut wl = Workload::new(sigma.clone(), seed);
        let f = wl.random_s_formula(2);
        if f.free_vars().len() != 1 {
            continue;
        }
        let dfa = definable_set(&sigma, &f).unwrap();
        assert!(
            is_star_free(&dfa).unwrap(),
            "seed {seed} defined a non-star-free set: {f}"
        );
        tested += 1;
    }
    assert!(tested >= 10, "corpus too small ({tested})");
}

#[test]
fn sreg_definable_sets_are_regular_but_not_always_star_free() {
    let sigma = Alphabet::ab();
    let f = strcalc::logic::parse_formula(&sigma, "in(x, /(ab|ba)(ab|ba)/)").unwrap();
    let dfa = definable_set(&sigma, &f).unwrap();
    // Definable and decidable — and this one happens to be star-free;
    // (aa)* is the non-star-free witness used in figure1_report.
    assert!(dfa.accepts(&sigma.parse("abba").unwrap()));
    assert!(!dfa.accepts(&sigma.parse("ab").unwrap()));
}
