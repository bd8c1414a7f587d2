//! The paper's numbered claims, walked top to bottom as executable
//! assertions — a table of contents for the reproduction. Each test
//! names the claim it exercises; deeper coverage lives in the dedicated
//! suites referenced in `DESIGN.md` §4.

use strcalc::core::mso3col::{three_colorable_via_slen, Graph};
use strcalc::core::safety::{finite_by_sentence, state_safety, RangeRestricted};
use strcalc::core::translate::ra_to_calculus;
use strcalc::core::{
    AutomataEngine, Calculus, ConjunctiveQuery, Domain, DomainEvaluator, Planner, Query,
};
use strcalc::logic::{CompileError, Compiler, Formula, Term};
use strcalc::prelude::*;
use strcalc::relational::{RaEvaluator, RaExpr};

fn ab() -> Alphabet {
    Alphabet::ab()
}

fn db() -> Database {
    let mut db = Database::new();
    db.insert_unary_parsed(&ab(), "U", &["ab", "ba", "bab"])
        .unwrap();
    db
}

/// Section 2's running example: "there is a string in R which ends with
/// 10" (here: ends with "ba"), written exactly as in the paper — via the
/// covering relation and last-symbol tests.
#[test]
fn section2_running_example() {
    let q = Query::parse(
        Calculus::S,
        ab(),
        vec![],
        "exists x. (U(x) & last(x,'a') & \
         exists y. (y <1 x & last(y,'b') & !exists z. (y <1 z & z <1 x)))",
    )
    .unwrap();
    // U = {ab, ba, bab}: "ba" ends with ba ✓.
    assert!(AutomataEngine::new().eval_bool(&q, &db()).unwrap());
}

/// Section 4, formula (1): LIKE patterns are expressible over S — and
/// the compiled pattern language is star-free.
#[test]
fn section4_like_is_s_expressible() {
    use strcalc::automata::starfree::is_star_free;
    use strcalc::automata::{Dfa, LikePattern};
    let p = LikePattern::parse(&ab(), "a%_b").unwrap();
    let d = Dfa::from_regex(2, &p.to_regex());
    assert!(is_star_free(&d).unwrap());
}

/// Section 4, formula (2): the lexicographic order is expressible over S
/// — here checked against the native atom on all small pairs.
#[test]
fn section4_lex_definable() {
    // x ≤lex y ⟺ x ⪯ y ∨ ∃z (z ≺ x ∧ z ≺ y ∧ "next symbols ordered").
    let paper_formula = "x <= y | exists z. (z < x & z < y & \
        exists u. exists v. (z <1 u & u <= x & z <1 v & v <= y & \
        ((last(u,'a') & last(v,'b'))))) ";
    let f = strcalc::logic::parse_formula(&ab(), paper_formula).unwrap();
    let compiled = Compiler::pure(2).compile(&f).unwrap();
    for x in ab().strings_up_to(3) {
        for y in ab().strings_up_to(3) {
            let expect = x.lex_cmp(&y) != std::cmp::Ordering::Greater;
            assert_eq!(
                compiled.auto.accepts(&[&x, &y]),
                expect,
                "formula (2) transcription on ({x}, {y})"
            );
        }
    }
}

/// Proposition 1 / Corollary 1: concatenation escapes the automatic-
/// structure machinery (the engine refuses it), and bounded search is
/// all that remains.
#[test]
fn proposition1_concat_is_not_automatic() {
    let f = strcalc::logic::parse_formula(&ab(), "concat(x, y, z)").unwrap();
    assert!(matches!(
        Compiler::pure(2).compile(&f),
        Err(CompileError::ConcatNotAutomatic)
    ));
    // Bounded search still answers, below its bound, as the naive
    // evaluator over Σ^{≤4} does.
    let ww = strcalc::core::concat::ww_query();
    let head = ["x".to_string()];
    let db = Database::new();
    let plan = Planner::new().with_bound(4).plan_formula(&ab(), &head, &ww);
    let answer = plan.unwrap().execute(&db).unwrap().0.expect_finite();
    let reference = DomainEvaluator::new(&ab(), &db, Domain::UpTo(4))
        .answer(&ww, &head)
        .unwrap();
    assert_eq!(answer, reference);
    assert_eq!(answer.len(), 7);
}

/// Theorem 1 / Theorem 2 (collapse), empirically: exact infinite-domain
/// semantics agrees with the finite collapse domain on Boolean queries.
#[test]
fn theorems1_2_collapse_empirically() {
    use strcalc::core::collapse::engines_agree_on;
    let cases = [
        Query::parse(
            Calculus::S,
            ab(),
            vec![],
            "forall x. (U(x) -> exists y. (y <= x & last(y,'b')))",
        )
        .unwrap(),
        Query::parse(
            Calculus::SLen,
            ab(),
            vec![],
            "exists x. exists y. (U(x) & U(y) & el(x,y) & !(x=y))",
        )
        .unwrap(),
    ];
    for q in cases {
        assert!(engines_agree_on(&q, &db(), 2).unwrap());
    }
}

/// Proposition 5: 3-colorability via a fixed RC(S_len) sentence on a
/// width-1 database.
#[test]
fn proposition5_np_complete_query() {
    let engine = AutomataEngine::new();
    assert!(three_colorable_via_slen(&engine, &ab(), &Graph::cycle(5)).unwrap());
    assert!(!three_colorable_via_slen(&engine, &ab(), &Graph::complete(4)).unwrap());
}

/// Section 6.1: the finiteness sentence for S_len, applied to an actual
/// query output.
#[test]
fn section61_finiteness_sentence() {
    let engine = AutomataEngine::new();
    let q = Query::parse(
        Calculus::S,
        ab(),
        vec!["x".into()],
        "exists y. (U(y) & y <= x)",
    )
    .unwrap();
    let out_auto = engine.compile(&q, &db()).unwrap().auto;
    assert!(!finite_by_sentence(&engine, &ab(), out_auto).unwrap());
}

/// Theorem 3: the range-restricted query (γ_k, φ) recovers φ on safe
/// instances.
#[test]
fn theorem3_range_restriction() {
    let engine = AutomataEngine::new();
    let q = Query::parse(
        Calculus::S,
        ab(),
        vec!["x".into()],
        "exists y. (U(y) & x <= y)",
    )
    .unwrap();
    let rr = RangeRestricted::derive(q);
    rr.eval_checked(&engine, &db()).unwrap();
}

/// Proposition 7: state-safety decided, both ways.
#[test]
fn proposition7_state_safety() {
    let engine = AutomataEngine::new();
    let safe = Query::parse(
        Calculus::S,
        ab(),
        vec!["x".into()],
        "exists y. (U(y) & x <= y)",
    )
    .unwrap();
    let unsafe_q = Query::parse(Calculus::S, ab(), vec!["x".into()], "!U(x)").unwrap();
    assert!(state_safety(&engine, &safe, &db()).unwrap().is_safe());
    assert!(!state_safety(&engine, &unsafe_q, &db()).unwrap().is_safe());
}

/// Theorem 5 / Corollary 6: conjunctive-query safety over all databases.
#[test]
fn theorem5_cq_safety() {
    let cq = ConjunctiveQuery {
        calculus: Calculus::SLen,
        alphabet: ab(),
        head: vec!["x".into()],
        exists: vec!["y".into()],
        atoms: vec![("R".into(), vec![Term::var("y")])],
        constraint: Formula::eq_len(Term::var("x"), Term::var("y")),
    };
    assert!(cq.decide_safety().unwrap().is_safe());
}

/// Theorems 4/8: an algebra expression using every extended operator
/// round-trips through the calculus.
#[test]
fn theorems4_8_algebra_calculus() {
    let database = db();
    let schema = database.schema();
    let e = RaExpr::rel("U")
        .prefix(0)
        .add_right(1, 0)
        .add_left(2, 1)
        .trim_left(3, 1)
        .project(vec![4])
        .union(RaExpr::EpsilonRel);
    let direct = RaEvaluator::new(ab()).eval(&e, &database).unwrap();
    let f = ra_to_calculus(&e, &schema).unwrap();
    let q = Query::infer(ab(), vec!["c0".into()], f).unwrap();
    let via = AutomataEngine::new()
        .eval(&q, &database)
        .unwrap()
        .expect_finite();
    assert_eq!(direct, via);
}

/// Conclusion: the proposed insertion extension, in both the calculus
/// and the algebra, agreeing with each other.
#[test]
fn conclusion_insertion_extension() {
    let database = db();
    let schema = database.schema();
    // Algebra: pair every U string with each prefix, insert 'a'.
    let e = RaExpr::rel("U")
        .prefix(0)
        .insert_at(0, 1, 0)
        .project(vec![2]);
    let direct = RaEvaluator::new(ab()).eval(&e, &database).unwrap();
    let f = ra_to_calculus(&e, &schema).unwrap();
    let q = Query::infer(ab(), vec!["c0".into()], f).unwrap();
    let via = AutomataEngine::new()
        .eval(&q, &database)
        .unwrap()
        .expect_finite();
    assert_eq!(direct, via);
    assert!(!direct.is_empty());
}
