//! Trace replay of queries the planner rewrites. A trace records the
//! formula the planner was given, so replaying it re-plans the same
//! rewrite: the recorded and replayed pass traces agree, and the replay
//! reports no SA420 divergence.

use std::sync::Arc;

use strcalc::core::{
    replay, AutomataEngine, AutomatonCache, Calculus, ExecCx, ExecTrace, Planner, Query,
};
use strcalc::prelude::*;

/// `U = {a, ab, aab, ba, bb}` over `{a, b}`.
fn db() -> Database {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "U", &["a", "ab", "aab", "ba", "bb"])
        .unwrap();
    db
}

#[test]
fn rewritten_queries_replay_without_divergence() {
    let db = db();
    // Both engines the replay corpus records under: plain, and with a
    // cold cache of its own on each side.
    let engines: [fn() -> AutomataEngine; 2] = [AutomataEngine::new, || {
        AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()))
    }];
    for src in ["U(x) & true", "U(x) | false"] {
        for fresh_engine in engines {
            let q = Query::parse(Calculus::S, Alphabet::ab(), vec!["x".into()], src).unwrap();
            let plan = Planner::for_engine(&fresh_engine()).plan(&q).unwrap();
            assert!(
                plan.passes[0].changed,
                "{src}: the rewrite folds the constant"
            );
            let budget = plan.seeded_budget();
            let (out, report) = plan
                .execute_in(&db, &ExecCx::production().with_budget(budget))
                .unwrap();
            let trace = ExecTrace::record(&plan, &budget, &report, &db, &out).unwrap();
            assert_eq!(trace.formula, src, "the trace records the given formula");

            let json = trace.to_json();
            let parsed = ExecTrace::parse(&json).unwrap();
            assert_eq!(parsed.to_json(), json, "{src}: JSON round trip");
            let rep = replay(&parsed, &fresh_engine(), &db).unwrap();
            assert!(rep.is_clean(), "{src}: {:?}", rep.diffs);
        }
    }
}
