//! E12 — Theorems 4/8: randomized equivalence between the algebras and
//! the calculi, in both translation directions.

use strcalc::core::translate::{adom_calculus_to_algebra, ra_to_calculus};
use strcalc::core::{AutomataEngine, Calculus, Query};
use strcalc::prelude::*;
use strcalc::relational::{RaEvaluator, RaExpr};
use strcalc::workloads::Workload;

fn dbs(seeds: std::ops::Range<u64>) -> Vec<Database> {
    seeds
        .map(|s| {
            let mut wl = Workload::new(Alphabet::ab(), s);
            let mut db = wl.binary_db(6, 3);
            let uni = wl.unary_db(5, 3);
            for t in uni.relation("U").unwrap().iter() {
                db.insert("U", t.to_vec()).unwrap();
            }
            db.declare("U", 1).unwrap();
            db
        })
        .collect()
}

fn algebra_corpus() -> Vec<RaExpr> {
    use strcalc::logic::Formula;
    vec![
        RaExpr::rel("U").prefix(0),
        RaExpr::rel("U").add_right(0, 0).project(vec![1]),
        RaExpr::rel("U").add_left(0, 1).project(vec![1]),
        RaExpr::rel("U").trim_left(0, 0),
        RaExpr::rel("U").down(0).project(vec![1]),
        RaExpr::rel("R")
            .select(Formula::prefix(RaExpr::col(0), RaExpr::col(1)))
            .project(vec![1]),
        RaExpr::rel("R").project(vec![0]).union(RaExpr::rel("U")),
        RaExpr::rel("R").project(vec![1]).diff(RaExpr::rel("U")),
        RaExpr::rel("U")
            .product(RaExpr::rel("U"))
            .select(Formula::lex_leq(RaExpr::col(0), RaExpr::col(1))),
        RaExpr::EpsilonRel.union(RaExpr::rel("U")),
        RaExpr::rel("U")
            .prefix(0)
            .select(Formula::last_sym(RaExpr::col(1), 1))
            .project(vec![1]),
    ]
}

#[test]
fn algebra_to_calculus_equivalence() {
    let sigma = Alphabet::ab();
    let engine = AutomataEngine::new();
    let ra = RaEvaluator::new(sigma.clone());
    for db in dbs(0..5) {
        let schema = db.schema();
        for e in algebra_corpus() {
            let direct = ra.eval(&e, &db).unwrap();
            let f = ra_to_calculus(&e, &schema).unwrap();
            let head: Vec<String> = (0..e.arity(&schema).unwrap())
                .map(|i| format!("c{i}"))
                .collect();
            let q = Query::infer(sigma.clone(), head, f).unwrap();
            let via = engine.eval(&q, &db).unwrap().expect_finite();
            assert_eq!(direct, via, "expression {e}");
        }
    }
}

#[test]
fn calculus_to_algebra_equivalence() {
    let sigma = Alphabet::ab();
    let engine = AutomataEngine::new();
    let ra = RaEvaluator::new(sigma.clone());
    let sources: Vec<(Vec<&str>, &str)> = vec![
        (vec!["x"], "U(x) & last(x,'a')"),
        (vec!["x"], "U(x) & !existsA y. R(x, y)"),
        (vec!["x", "y"], "R(x, y) & lex(x, y)"),
        (vec!["x"], "existsA y. (R(y, x) & y <= x)"),
        (vec!["x"], "U(x) & forallA y. (U(y) -> shorteq(x, y))"),
        (vec!["x"], "U(x) | existsA y. R(x, y)"),
        (vec![], "existsA x. (U(x) & first(x, 'b'))"),
        (vec![], "forallA x. (U(x) -> existsA y. (U(y) & lex(x, y)))"),
        (vec!["x"], "U(x) & el(x, x)"),
    ];
    for db in dbs(20..24) {
        let schema = db.schema();
        for (head, src) in &sources {
            let head: Vec<String> = head.iter().map(|h| h.to_string()).collect();
            let q = Query::parse(Calculus::SLen, sigma.clone(), head.clone(), src).unwrap();
            let expr = adom_calculus_to_algebra(q.formula(), &head, &schema).unwrap();
            let via_algebra = ra.eval(&expr, &db).unwrap();
            if head.is_empty() {
                let exact = engine.eval_bool(&q, &db).unwrap();
                assert_eq!(!via_algebra.is_empty(), exact, "{src}");
            } else {
                let exact = engine.eval(&q, &db).unwrap().expect_finite();
                assert_eq!(exact, via_algebra, "{src}");
            }
        }
    }
}

#[test]
fn full_circle_calculus_algebra_calculus() {
    // calculus → algebra → calculus must still agree with the original.
    let sigma = Alphabet::ab();
    let engine = AutomataEngine::new();
    for db in dbs(30..32) {
        let schema = db.schema();
        let head = vec!["x".to_string()];
        let q = Query::parse(
            Calculus::S,
            sigma.clone(),
            head.clone(),
            "existsA y. (R(x, y) & x <= y)",
        )
        .unwrap();
        let expr = adom_calculus_to_algebra(q.formula(), &head, &schema).unwrap();
        let f2 = ra_to_calculus(&expr, &schema).unwrap();
        let q2 = Query::infer(sigma.clone(), vec!["c0".into()], f2).unwrap();
        let a = engine.eval(&q, &db).unwrap().expect_finite();
        let b = engine.eval(&q2, &db).unwrap().expect_finite();
        assert_eq!(a, b);
    }
}
