//! Trace replay of queries the planner rewrites and of runs under an
//! injected fault. A trace records the formula the planner was given,
//! so replaying it re-plans the same rewrite, and the fault plan the
//! run was armed with, so replaying it re-arms the same faults: the
//! recorded and replayed runs agree, and the replay reports no SA420
//! divergence.

use std::sync::Arc;

use strcalc::core::{
    replay, AutomataEngine, AutomatonCache, Budget, Calculus, ExecCx, ExecTrace, FaultPlan,
    Planner, Query, Strategy,
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

/// Every fault kind a chaos run arms, on a cached automata read: the
/// injected fault surfaces as a typed degradation (SA431 for an injected
/// point, SA41x for a deadline), the trace survives its JSON round
/// trip, and the replay reproduces the run with no divergence.
#[test]
fn every_fault_kind_replays_as_a_typed_degradation() {
    let db = db();
    let cached = || AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    let q = Query::parse(
        Calculus::S,
        Alphabet::ab(),
        vec!["x".into()],
        "exists y. (U(y) & x <= y)",
    )
    .unwrap();
    let kinds = [
        (
            "deadline@1",
            FaultPlan {
                deadline_at_checkpoint: Some(1),
                ..FaultPlan::none()
            },
            &["SA413"][..],
        ),
        (
            "fail-cache-insert",
            FaultPlan {
                fail_cache_insert: true,
                ..FaultPlan::none()
            },
            &["SA431"][..],
        ),
        (
            "abort-compile",
            FaultPlan {
                abort_compile: true,
                ..FaultPlan::none()
            },
            &["SA431", "SA413"][..],
        ),
    ];
    for (name, faults, codes) in kinds {
        assert_eq!(faults.summary(), name);
        let plan = Planner::for_engine(&cached()).plan(&q).unwrap();
        assert_eq!(plan.strategy, Strategy::Automata, "{name}: a cached read");
        let budget = Budget::unlimited();
        let cx = ExecCx::replay(faults).with_budget(budget);
        let (out, report) = plan.execute_in(&db, &cx).unwrap();
        let seen: Vec<&str> = report
            .degradations
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        assert_eq!(seen, codes, "{name}: {}", report.summary());
        assert_eq!(report.faults, faults, "{name}: the trace records the fault");

        let trace = ExecTrace::record(&plan, &budget, &report, &db, &out).unwrap();
        let parsed = ExecTrace::parse(&trace.to_json()).unwrap();
        assert_eq!(parsed, trace, "{name}: JSON round trip");
        let rep = replay(&parsed, &cached(), &db).unwrap();
        assert!(rep.is_clean(), "{name}: {:?}", rep.diffs);
    }

    // The seeds `strcalc-verify --chaos` sweeps arm every kind.
    let plans: Vec<FaultPlan> = (1..9).map(FaultPlan::from_seed).collect();
    assert!(plans.iter().any(|p| p.deadline_at_checkpoint.is_some()));
    assert!(plans.iter().any(|p| p.fail_cache_insert));
    assert!(plans.iter().any(|p| p.abort_compile));
}
