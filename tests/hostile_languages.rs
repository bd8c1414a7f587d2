//! Languages whose transition monoid is huge: `.*a` followed by `n`
//! symbols remembers the last `n + 1` symbols, so its minimal DFA has
//! `2^(n+1)` states and its monoid more elements still. Star-freeness is
//! decided once per language, in the query's language table: a
//! LIKE-shaped language is star-free by construction and skips the
//! monoid, and any other gives up past `MAX_MONOID_CELLS` and is typed
//! `S_reg`. These tests pin the outcomes; CI runs the analyzer on the
//! same languages under a memory limit.

use strcalc::analyze::{Analyzer, Code};
use strcalc::core::{CoreError, ExecCx};
use strcalc::logic::StructureClass;
use strcalc::prelude::*;
use strcalc::sqlfront::{run_sql, Catalog};

/// `.*a` followed by `n` dots: a LIKE pattern's language.
fn like_window(n: usize) -> String {
    format!("in(x, /.*a{}/)", ".".repeat(n))
}

/// The same language as [`like_window`], spelled without LIKE's shape.
fn regex_window(n: usize) -> String {
    format!("in(x, /(a|b)*a{}/)", "(a|b)".repeat(n))
}

#[test]
fn a_like_pattern_with_many_underscores_answers_in_rc_s() {
    let sigma = Alphabet::ab();
    let mut catalog = Catalog::new();
    catalog.add_table("t", &["w"]);
    let mut db = Database::new();
    db.insert("t", vec![sigma.parse("abba").unwrap()]).unwrap();
    for n in [12, 14] {
        let sql = format!("SELECT t.w FROM t WHERE t.w LIKE '%a{}'", "_".repeat(n));
        let (compiled, out, _) =
            run_sql(&sigma, &catalog, &db, &sql, &ExecCx::production()).unwrap();
        assert_eq!(compiled.calculus(), Calculus::S, "{sql}");
        assert!(out.expect_finite().is_empty(), "{sql}");
    }
}

#[test]
fn a_like_shaped_regex_is_accepted_in_rc_s() {
    let q = Query::parse(
        Calculus::S,
        Alphabet::ab(),
        vec!["x".into()],
        &like_window(14),
    );
    assert_eq!(q.unwrap().calculus(), Calculus::S);
}

#[test]
fn an_undecided_language_is_typed_s_reg_with_one_note() {
    let sigma = Alphabet::ab();
    let f = strcalc::logic::parse_formula(&sigma, &regex_window(12)).unwrap();
    let q = Query::infer(sigma.clone(), vec!["x".into()], f.clone()).unwrap();
    assert_eq!(q.calculus(), Calculus::SReg);
    let analysis = Analyzer::new(StructureClass::SReg).diagnose(q.formula(), q.sheet());
    assert!(!analysis.has_errors());
    let notes = analysis
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::FragmentStarFreeFallback)
        .count();
    assert_eq!(notes, 1);
    match Query::new(Calculus::S, sigma, vec!["x".into()], f) {
        Err(CoreError::FragmentViolation { inferred, .. }) => {
            assert_eq!(inferred, StructureClass::SReg)
        }
        other => panic!("expected a fragment violation, got {other:?}"),
    }
}
