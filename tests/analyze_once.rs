//! Analyze once per query: each distinct `in`/`pl` language of a planned
//! query is compiled by `LangTable::build` exactly once, when the query's
//! fact sheet is built. Analysis, routing, lowering, planlint, EXPLAIN,
//! the cache key and the SA401 fallback all read that sheet, so planning
//! and running the query compile no language again.

use std::sync::Arc;

use strcalc::analyze::langs::compiled_on_this_thread;
use strcalc::analyze::Code;
use strcalc::core::{AutomatonCache, Budget, ExecCx, PlanOp, Planner, Strategy};
use strcalc::logic::parse_formula;
use strcalc::prelude::*;
use strcalc::sqlfront::{compile_select, parse_select, Catalog};

/// The unary relation `name` over five strings.
fn unary(name: &str) -> Database {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), name, &["a", "ab", "abab", "ba", "bb"])
        .unwrap();
    db
}

fn db() -> Database {
    unary("U")
}

/// Runs `f` and returns its result with the number of languages
/// `LangTable::build` compiled on this thread meanwhile.
fn compiled<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = compiled_on_this_thread();
    let out = f();
    (out, compiled_on_this_thread() - before)
}

#[test]
fn a_sql_read_on_the_relational_route_compiles_each_language_once() {
    let ab = Alphabet::ab();
    let mut catalog = Catalog::new();
    catalog.add_table("u", &["x"]);
    // Two distinct languages, one of them named twice.
    let sql = "SELECT u.x FROM u WHERE u.x LIKE 'a%' AND u.x SIMILAR TO '(ab)*' \
               AND EXISTS (SELECT v.x FROM u v WHERE PREFIX(u.x, v.x) AND v.x LIKE 'a%')";
    let ((plan, out), n) = compiled(|| {
        let stmt = parse_select(&ab, sql).unwrap();
        let compiled = compile_select(&ab, &catalog, &stmt).unwrap();
        assert!(compiled.analysis.is_some());
        let plan = compiled.plan(&Planner::new()).unwrap();
        let (out, _) = plan.execute(&unary("u")).unwrap();
        (plan, out)
    });
    assert!(
        matches!(plan.root.op, PlanOp::Relational),
        "{}",
        plan.explain_text()
    );
    assert!(
        !plan.passes[0].changed,
        "the rewrite would build a second sheet"
    );
    assert_eq!(out.len(), Some(2), "'ab' and 'abab'");
    assert_eq!(n, 2);
}

#[test]
fn a_formula_through_plan_formula_compiles_each_language_once() {
    let ab = Alphabet::ab();
    let head = ["x".to_string()];
    // The relational route, and the raw concat entry.
    for (src, langs) in [
        (
            "exists y. (U(y) & pl(x, y, /(ab)*/) & in(x, /a.*/) & in(y, /a.*/))",
            2,
        ),
        ("exists y. (U(y) & concat(x, x, y) & in(x, /(ab)*/))", 1),
    ] {
        let f = parse_formula(&ab, src).unwrap();
        let (plan, n) = compiled(|| {
            let plan = Planner::new().plan_formula(&ab, &head, &f).unwrap();
            plan.execute(&db()).unwrap();
            plan
        });
        assert!(!plan.passes[0].changed, "{src}");
        assert_eq!(n, langs, "{src}: {}", plan.explain_text());
    }
}

#[test]
fn a_cached_automata_plan_executed_twice_compiles_each_language_once() {
    let ab = Alphabet::ab();
    let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    let f = parse_formula(&ab, "exists y. (U(y) & pl(x, y, /(ab)*/) & in(x, /a.*/))").unwrap();
    let ((first, second), n) = compiled(|| {
        let plan = Planner::for_engine(&engine)
            .plan_formula(&ab, &["x".to_string()], &f)
            .unwrap();
        assert!(matches!(
            plan.root.children[0].op,
            PlanOp::CacheLookup { .. }
        ));
        let (_, first) = plan.execute(&db()).unwrap();
        let (_, second) = plan.execute(&db()).unwrap();
        (first, second)
    });
    assert!(!first.cache_hit && second.cache_hit);
    assert_eq!(n, 2);
}

#[test]
fn a_forced_automata_run_falling_back_under_sa401_compiles_each_language_once() {
    let ab = Alphabet::ab();
    let f = parse_formula(&ab, "exists y. (U(y) & pl(x, y, /(ab)*/) & in(x, /a.*/))").unwrap();
    let starved = ExecCx::production().with_budget(Budget {
        states: 1,
        ..Budget::unlimited()
    });
    let (report, n) = compiled(|| {
        let plan = Planner::new()
            .force(Strategy::Automata)
            .plan_formula(&ab, &["x".to_string()], &f)
            .unwrap();
        plan.execute_in(&db(), &starved).unwrap().1
    });
    assert!(
        report
            .degradations
            .iter()
            .any(|d| d.code == Code::DegradedExactToBounded),
        "{}",
        report.summary()
    );
    assert_eq!(n, 2);
}
