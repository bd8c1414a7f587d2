//! E8 — Section 6.1: the `S_len` finiteness sentence agrees with the
//! direct automata-theoretic finiteness check on query outputs, across
//! random queries and databases. (Proposition 6 says no such sentence
//! exists over `S`; the `S_len` one is the positive counterpart.)

use strcalc::core::safety::finite_by_sentence;
use strcalc::core::{AutomataEngine, Calculus, Query};
use strcalc::prelude::*;
use strcalc::synchro::SyncFiniteness;
use strcalc::workloads::Workload;

fn unary_output_automaton(
    engine: &AutomataEngine,
    q: &Query,
    db: &Database,
) -> strcalc::synchro::SyncNfa {
    let compiled = engine.compile(q, db).unwrap();
    // One free variable, track 0.
    compiled.auto
}

#[test]
fn sentence_matches_automata_on_fixed_queries() {
    let sigma = Alphabet::ab();
    let engine = AutomataEngine::new();
    let mut db = Database::new();
    db.insert_unary_parsed(&sigma, "U", &["ab", "ba", "bab"])
        .unwrap();

    let cases = [
        (Calculus::S, "exists y. (U(y) & x <= y)", true),
        (Calculus::S, "exists y. (U(y) & y <= x)", false),
        (Calculus::S, "!U(x)", false),
        (Calculus::SLen, "exists y. (U(y) & el(x, y))", true),
        (Calculus::SLen, "exists y. (U(y) & shorter(y, x))", false),
        (Calculus::S, "U(x) & last(x, 'b')", true),
    ];
    for (calc, src, expect_finite) in cases {
        let q = Query::parse(calc, sigma.clone(), vec!["x".into()], src).unwrap();
        let auto = unary_output_automaton(&engine, &q, &db);
        // Direct check.
        let direct = !matches!(auto.finiteness(), SyncFiniteness::Infinite);
        // Via the paper's sentence, with the output as a virtual U.
        let via_sentence = finite_by_sentence(&engine, &sigma, auto).unwrap();
        assert_eq!(direct, expect_finite, "direct verdict wrong for {src}");
        assert_eq!(
            via_sentence, expect_finite,
            "sentence verdict wrong for {src}"
        );
    }
}

#[test]
fn sentence_matches_automata_on_random_queries() {
    let sigma = Alphabet::ab();
    let engine = AutomataEngine::new();
    let mut finite_seen = 0;
    let mut infinite_seen = 0;
    for seed in 0..30u64 {
        let mut wl = Workload::new(sigma.clone(), seed);
        let db = wl.unary_db(5, 3);
        let f = wl.random_s_formula(2);
        if f.free_vars().len() != 1 {
            continue;
        }
        let q = Query::infer(sigma.clone(), vec!["x".into()], f).unwrap();
        let auto = unary_output_automaton(&engine, &q, &db);
        let direct = !matches!(auto.finiteness(), SyncFiniteness::Infinite);
        let via_sentence = finite_by_sentence(&engine, &sigma, auto).unwrap();
        assert_eq!(direct, via_sentence, "seed {seed}: {}", q.formula());
        if direct {
            finite_seen += 1;
        } else {
            infinite_seen += 1;
        }
    }
    // The corpus must exercise both verdicts to mean anything.
    assert!(finite_seen > 0, "no finite outputs sampled");
    assert!(infinite_seen > 0, "no infinite outputs sampled");
}
