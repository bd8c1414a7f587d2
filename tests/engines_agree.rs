//! Differential testing across crates: the exact automata engine and the
//! collapse-based enumeration engine must agree on randomly generated
//! queries and databases — the empirical face of the collapse theorems
//! (Theorem 1 for `S`, Theorem 2 for `S_len`) — and the collapse route
//! must agree with the naive reference evaluator over the same domain.

use strcalc::core::Calculus::{SLen, S};
use strcalc::core::{collapse_domain, AutomataEngine, Calculus, DomainEvaluator, Query, Strategy};
use strcalc::prelude::*;
use strcalc::workloads::Workload;

/// The forced collapse plan's answer to `q` on `db`, at the slack the
/// formula derives.
fn collapse(q: &Query, db: &Database) -> Relation {
    let plan = Planner::new().force(Strategy::ActiveDomainEnum).plan(q);
    plan.unwrap().execute(db).unwrap().0.expect_finite()
}

#[test]
fn random_s_sentences_agree() {
    let sigma = Alphabet::ab();
    let exact = AutomataEngine::new();
    let mut checked = 0usize;
    for seed in 0..40u64 {
        let mut wl = Workload::new(sigma.clone(), seed);
        let db = wl.unary_db(6, 3);
        let f = wl.random_s_formula(2);
        // Close the free variable (if any) with a U-guard to make a
        // sentence whose truth both engines can decide.
        let f = match f.free_vars().into_iter().next() {
            Some(v) => Formula::exists(v.clone(), Formula::rel("U", vec![Term::var(v)]).and(f)),
            None => f,
        };
        let q = Query::infer(sigma.clone(), vec![], f).unwrap();
        let a = exact.eval_bool(&q, &db).unwrap();
        let b = !collapse(&q, &db).is_empty();
        assert_eq!(a, b, "seed {seed} disagreement on {}", q.formula());
        checked += 1;
    }
    assert_eq!(checked, 40);
}

#[test]
fn random_slen_sentences_agree() {
    let sigma = Alphabet::ab();
    let exact = AutomataEngine::new();
    for seed in 100..120u64 {
        let mut wl = Workload::new(sigma.clone(), seed);
        let db = wl.unary_db(4, 2); // keep Σ^{≤maxlen+slack} small
        let f = wl.random_slen_formula(2);
        let f = match f.free_vars().into_iter().next() {
            Some(v) => Formula::exists(v.clone(), Formula::rel("U", vec![Term::var(v)]).and(f)),
            None => f,
        };
        let q = Query::new(Calculus::SLen, sigma.clone(), vec![], f).unwrap();
        let a = exact.eval_bool(&q, &db).unwrap();
        let b = !collapse(&q, &db).is_empty();
        assert_eq!(a, b, "seed {seed} disagreement on {}", q.formula());
    }
}

#[test]
fn open_queries_agree_on_safe_outputs() {
    let sigma = Alphabet::ab();
    let exact = AutomataEngine::new();
    let sources = [
        (Calculus::S, "exists y. (U(y) & x <= y & last(x, 'a'))"),
        (Calculus::S, "U(x) & existsP p. (p < x & last(p, 'b'))"),
        (Calculus::SLeft, "exists y. (U(y) & fa(y, x, 'b'))"),
        (Calculus::SReg, "exists y. (U(y) & pl(x, y, /b*/))"),
        (
            Calculus::SLen,
            "exists y. (U(y) & el(x, y) & first(x, 'b'))",
        ),
    ];
    for seed in 0..6u64 {
        let db = Workload::new(sigma.clone(), seed).unary_db(5, 3);
        for (calc, src) in &sources {
            let q = Query::parse(*calc, sigma.clone(), vec!["x".into()], src).unwrap();
            let a = exact.eval(&q, &db).unwrap().expect_finite();
            let b = collapse(&q, &db);
            assert_eq!(a, b, "seed {seed}: {src}");
        }
    }
}

#[test]
fn three_engines_on_algebra_queries() {
    use strcalc::core::translate::ra_to_calculus;
    use strcalc::relational::{RaEvaluator, RaExpr};
    let sigma = Alphabet::ab();
    let exact = AutomataEngine::new();
    let ra = RaEvaluator::new(sigma.clone());
    for seed in 0..6u64 {
        let db = Workload::new(sigma.clone(), seed).binary_db(8, 4);
        let schema = db.schema();
        let exprs = [
            RaExpr::rel("R").project(vec![0]).prefix(0).project(vec![1]),
            RaExpr::rel("R")
                .select(Formula::lex_leq(RaExpr::col(0), RaExpr::col(1)))
                .project(vec![0]),
            RaExpr::rel("R")
                .project(vec![1])
                .add_right(0, 1)
                .project(vec![1]),
        ];
        for e in &exprs {
            let direct = ra.eval(e, &db).unwrap();
            let f = ra_to_calculus(e, &schema).unwrap();
            let head: Vec<String> = (0..e.arity(&schema).unwrap())
                .map(|i| format!("c{i}"))
                .collect();
            let q = Query::infer(sigma.clone(), head, f).unwrap();
            let via = exact.eval(&q, &db).unwrap().expect_finite();
            assert_eq!(direct, via, "seed {seed}: {e}");
        }
    }
}

/// The answers of the query `head | src` on `db` from the forced
/// collapse plan, from the reference evaluator over the same collapse
/// domain, and from the forced automata plan.
fn collapse_reference_automata(
    calc: Calculus,
    head: &str,
    src: &str,
    db: &Database,
) -> (Relation, Relation, Relation) {
    let head = head.split_whitespace().map(String::from).collect();
    let q = Query::parse(calc, Alphabet::ab(), head, src).unwrap();
    let domain = collapse_domain(&q, db, None);
    let reference = DomainEvaluator::new(q.alphabet(), db, domain)
        .answer(q.formula(), q.head())
        .unwrap();
    let automata = Planner::new()
        .force(Strategy::Automata)
        .plan(&q)
        .unwrap()
        .execute(db)
        .unwrap()
        .0
        .expect_finite();
    (collapse(&q, db), reference, automata)
}

/// `∃y ∈ dom↓` ranges over the prefixes of the active domain and of the
/// *quantified formula's* free variables, and `∃|y| ≤ adom` over the
/// strings no longer than those: a variable bound further out does not
/// widen the range. Regression: the collapse route widened it with every
/// bound variable, so `z = "aaa"` put `"aa"` in the range of `y`.
#[test]
fn restricted_ranges_read_only_the_quantified_formulas_variables() {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "R", &["ab", "ba", "bab"])
        .unwrap();
    for (calc, head, src) in [
        (S, "", r#"exists z. (z = "aaa" & existsP y. y = "aa")"#),
        (
            SLen,
            "",
            r#"exists z. (z = "aaaa" & existsL y. y = "aaaa")"#,
        ),
        (S, "x", r#"x = "aaa" & existsP y. y = "aa""#),
        // The quantifier runs once `z` (`x`) is bound.
        (
            S,
            "",
            r#"exists z. (z = "aaa" & (last(z, 'b') | existsP y. y = "aa"))"#,
        ),
        (
            SLen,
            "",
            r#"exists z. (z = "aaaa" & (last(z, 'b') | existsL y. y = "aaaa"))"#,
        ),
        (
            S,
            "x",
            r#"x = "aaa" & (last(x, 'b') | existsP y. y = "aa")"#,
        ),
    ] {
        let (collapse, reference, automata) = collapse_reference_automata(calc, head, src, &db);
        assert!(automata.is_empty(), "{src}");
        assert_eq!(collapse, automata, "{src}");
        assert_eq!(reference, automata, "{src}");
    }
}

/// The collapse route, the reference evaluator and the automata route
/// agree, restricted quantifiers and their universal forms included.
#[test]
fn collapse_matches_the_reference_and_automata() {
    let sigma = Alphabet::ab();
    for seed in 0..4u64 {
        let mut db = Workload::new(sigma.clone(), seed).unary_db(5, 3);
        db.insert_unary_parsed(&sigma, "U", &["ab"]).unwrap();
        for (calc, head, src) in [
            (S, "x", "exists y. (U(y) & x <= y & last(x, 'a'))"),
            (S, "x", "U(x) & existsP p. (p < x & last(p, 'b'))"),
            (S, "x", "U(x) & forallP p. (p <= x -> !last(p, 'a'))"),
            (
                S,
                "",
                "existsA x. (last(x, 'b') & !(forallA y. (y <= x -> U(y))))",
            ),
            (SLen, "x", "exists y. (U(y) & el(x, y) & first(x, 'b'))"),
            (
                SLen,
                "",
                "existsL z. (last(z, 'a') & forallL w. (el(w, z) -> !U(w)))",
            ),
        ] {
            let (collapse, reference, automata) = collapse_reference_automata(calc, head, src, &db);
            assert_eq!(collapse, reference, "seed {seed}: {src}");
            assert_eq!(collapse, automata, "seed {seed}: {src}");
        }
    }
}
