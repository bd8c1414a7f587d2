//! Differential tests for the shared automaton cache: for random
//! formulas over `S`/`S_len` (including database relations), the cached
//! engine agrees with the uncached one on `eval`, `count` and
//! `contains`, `CacheStats` accounting is exact, and one plan from a
//! cached planner, executed twice, compiles once. Plain tests pin the
//! per-read accounting: one lookup per execution, and a fresh compile
//! after the data it was built from changes.

use std::sync::Arc;

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_core::{
    AutomataEngine, AutomatonCache, Calculus, EvalOutput, Planner, Query, Strategy as PlanStrategy,
};
use strcalc_logic::{Formula, Term};
use strcalc_relational::Database;

/// Random formulas with free variable `x`, over the unary relation `R`
/// and the S/S_len signature.
fn arb_formula() -> impl Strategy<Value = Formula> {
    let x = || Term::var("x");
    let y = || Term::var("y");
    let leaf = prop_oneof![
        Just(Formula::rel("R", vec![x()])),
        Just(Formula::rel("R", vec![y()])),
        Just(Formula::prefix(x(), y())),
        Just(Formula::prefix(y(), x())),
        Just(Formula::eq(x(), y())),
        Just(Formula::eq_len(x(), y())),
        Just(Formula::last_sym(x(), 0)),
        Just(Formula::last_sym(y(), 1)),
        Just(Formula::lex_leq(x(), y())),
        Just(Formula::True),
        Just(Formula::False),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(Formula::not),
            inner.prop_map(|f| Formula::exists("y", f)),
        ]
    })
}

fn db() -> Database {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "R", &["", "a", "ab", "bab"])
        .unwrap();
    db
}

/// Pin `x` free so the query head is stable regardless of what the
/// random formula mentions; quantify away a leftover free `y`.
fn query_of(f: Formula) -> Query {
    let pinned = f.and(Formula::eq(Term::var("x"), Term::var("x")));
    let closed = if pinned.free_vars().contains("y") {
        Formula::exists("y", pinned)
    } else {
        pinned
    };
    Query::new(Calculus::SLen, Alphabet::ab(), vec!["x".into()], closed).expect("head = free vars")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_and_uncached_agree(f in arb_formula()) {
        let q = query_of(f);
        let db = db();

        // Reference: the plain uncached engine.
        let plain = AutomataEngine::new();
        let expected = plain.eval(&q, &db).expect("evaluates");
        let expected_count = plain.count(&q, &db).expect("counts");

        // Cached engine: same results, exact stats accounting.
        let cache = Arc::new(AutomatonCache::new());
        let cached = AutomataEngine::new().with_cache(Arc::clone(&cache));
        prop_assert_eq!(&cached.eval(&q, &db).expect("cached eval"), &expected);
        prop_assert_eq!(cached.count(&q, &db).expect("cached count"), expected_count);
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, 1, "one compile for eval");
        prop_assert_eq!(stats.hits, 1, "count reused it");
        prop_assert_eq!(stats.entries, 1);

        // One plan from a cached planner, executed twice: the same
        // answer both times, and the second run compiles nothing. The
        // plan runs its rewritten formula, so an infinite answer agrees
        // with the direct one up to sampling.
        let plan_cache = Arc::new(AutomatonCache::new());
        let plan = cached_plan(&plan_cache).plan(&q).expect("plans");
        let (first, _) = plan.execute(&db).expect("first execute");
        let (second, _) = plan.execute(&db).expect("second execute");
        prop_assert_eq!(&first, &second);
        match (&first, &expected) {
            (EvalOutput::Finite(a), EvalOutput::Finite(b)) => prop_assert_eq!(a, b),
            (EvalOutput::Infinite { .. }, EvalOutput::Infinite { .. }) => {}
            (a, b) => prop_assert!(false, "finiteness mismatch: {a:?} vs {b:?}"),
        }
        let stats = plan_cache.stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1), "misses stay at 1");
    }

    #[test]
    fn contains_agrees_between_paths(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let plain = AutomataEngine::new();
        let cache = Arc::new(AutomatonCache::new());
        let cached = AutomataEngine::new().with_cache(Arc::clone(&cache));
        for probe in Alphabet::ab().strings_up_to(3) {
            let tuple = [probe];
            let direct = plain.contains(&q, &db, &tuple).expect("contains");
            prop_assert_eq!(cached.contains(&q, &db, &tuple).expect("cached"), direct);
        }
        prop_assert_eq!(cache.stats().misses, 1, "one compile total");
    }
}

/// An automata planner whose engine shares `cache`.
fn cached_plan(cache: &Arc<AutomatonCache>) -> Planner {
    Planner::for_engine(&AutomataEngine::new().with_cache(Arc::clone(cache)))
        .force(PlanStrategy::Automata)
}

fn open_query(src: &str) -> Query {
    Query::parse(Calculus::S, Alphabet::ab(), vec!["x".into()], src).expect("valid query")
}

#[test]
fn each_cached_read_looks_up_once() {
    let cache = Arc::new(AutomatonCache::new());
    let plan = cached_plan(&cache)
        .plan(&open_query("exists y. (R(y) & x <= y)"))
        .expect("plans");
    let db = db();
    let (_, cold) = plan.execute(&db).expect("first execute");
    let before = cache.stats();
    assert!(!cold.cache_hit);
    assert_eq!((before.hits, before.misses), (0, 1));
    let (_, warm) = plan.execute(&db).expect("second execute");
    let after = cache.stats();
    assert!(warm.cache_hit);
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 0),
        "the second execute is exactly one hit"
    );
}

#[test]
fn changed_data_is_recompiled_not_served_stale() {
    let cache = Arc::new(AutomatonCache::new());
    let plan = cached_plan(&cache)
        .plan(&open_query("R(x) & last(x, 'b')"))
        .expect("plans");
    let mut db = db();
    let (first, _) = plan.execute(&db).expect("first execute");
    assert_eq!(first.expect_finite().len(), 2, "ab, bab");
    db.insert_unary_parsed(&Alphabet::ab(), "R", &["aab"])
        .expect("insert");
    let misses = cache.stats().misses;
    let (second, report) = plan.execute(&db).expect("second execute");
    assert_eq!(second.expect_finite().len(), 3, "ab, bab, aab");
    assert!(
        !report.cache_hit,
        "the old instance's automaton is not served"
    );
    assert_eq!(cache.stats().misses, misses + 1);
}
