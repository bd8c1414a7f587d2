//! Differential property tests for in-flight deadlines and fault
//! injection.
//!
//! Three invariants across all strategies:
//!
//! 1. **Transparency:** an armed deadline that never fires changes
//!    nothing — the governed answer is byte-identical to the
//!    ungoverned one, the verdict is `Exact`, and no degradation is
//!    recorded. Polling is observation, not interference.
//! 2. **No silent truncation under expiry:** a run whose deadline
//!    fires either fails (`DegradationPolicy::Fail` →
//!    `CoreError::DeadlineExpired`) or reports a non-`Exact` verdict
//!    carrying at least one SA41x degradation with a checkpoint index
//!    and a work watermark. Never a quiet partial answer.
//! 3. **Deterministic replay:** a run recorded under an injected
//!    fault plan replays bit for bit — same degradations, same
//!    verdict, same output fingerprint — because every fault
//!    (including the deadline fire point) is a seed-addressed,
//!    checkpoint-indexed event, not a wall-clock accident.

use std::sync::Arc;

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_core::cache::AutomatonCache;
use strcalc_core::{
    replay, AutomataEngine, Budget, Calculus, CoreError, DegradationPolicy, ExecCx, ExecTrace,
    FaultPlan, Planner, Query, Strategy as PlanStrategy,
};
use strcalc_logic::{Formula, Term};
use strcalc_relational::Database;

/// Random formulas with free variable `x` over the unary relation `R`
/// (same shape as the budget differential suite).
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
        Just(Formula::True),
    ];
    leaf.prop_recursive(2, 10, 2, |inner| {
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

fn query_of(f: Formula) -> Query {
    let pinned = f.and(Formula::eq(Term::var("x"), Term::var("x")));
    let closed = if pinned.free_vars().contains("y") {
        Formula::exists("y", pinned)
    } else {
        pinned
    };
    Query::new(Calculus::SLen, Alphabet::ab(), vec!["x".into()], closed).expect("head = free vars")
}

/// A fault plan whose only event is a deadline firing at checkpoint
/// `n` (every strategy polls at least once, so `n = 1` always fires).
fn deadline_at(n: u64) -> FaultPlan {
    FaultPlan {
        deadline_at_checkpoint: Some(n),
        ..FaultPlan::none()
    }
}

fn is_sa41x(code: &str) -> bool {
    matches!(code, "SA411" | "SA412" | "SA413")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Invariant 1: an armed, finite, never-expiring deadline is
    // invisible — same answer, Exact verdict, empty degradation list.
    #[test]
    fn unfired_deadline_is_transparent(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let plan = Planner::new().plan(&q).expect("plans");
        let (exact, _) = plan.execute(&db).expect("ungoverned");
        let roomy = Budget {
            wall_time_ms: 1_000_000, // finite → the deadline is armed
            ..Budget::unlimited()
        };
        let (governed, report) = plan
            .execute_in(&db, &ExecCx::production().with_budget(roomy))
            .expect("governed");
        prop_assert_eq!(governed, exact);
        prop_assert!(report.verdict.is_exact());
        prop_assert!(report.degradations.is_empty());
        prop_assert!(report.faults.deadline_at_checkpoint.is_none());
    }

    // Invariant 2 (degrade policy): a deadline firing at the very
    // first checkpoint yields a structural degradation — non-exact
    // verdict plus at least one SA41x event — never a quiet answer. On
    // the default route, the forced collapse route, and the automata
    // route starved into its SA401 collapse fallback.
    #[test]
    fn expired_runs_degrade_structurally(f in arb_formula(), fire in 1u64..4) {
        let q = query_of(f);
        let db = db();
        for (planner, starved) in [
            (Planner::new(), false),
            (Planner::new().force(PlanStrategy::ActiveDomainEnum), false),
            (Planner::new().force(PlanStrategy::Automata), true),
        ] {
            let plan = planner.plan(&q).expect("plans");
            let states = if starved { 1 } else { Budget::unlimited().states };
            let cx = ExecCx::production()
                .with_budget(Budget { states, ..Budget::unlimited() })
                .with_faults(deadline_at(fire));
            match plan.execute_in(&db, &cx) {
                Ok((_, report)) => {
                    if report.faults.deadline_at_checkpoint.is_some() {
                        prop_assert!(!report.verdict.is_exact(),
                            "a deadline-cut run is never exact: {}", report.summary());
                        prop_assert!(
                            report.degradations.iter().any(|d| is_sa41x(d.code.as_str())),
                            "expiry must be SA41x-recorded: {:?}", report.degradations
                        );
                    } else {
                        // The run finished before checkpoint `fire`; it
                        // must then be a clean exact run, or the SA401
                        // fallback's `Bounded` one.
                        prop_assert_eq!(report.verdict.is_exact(), !starved);
                    }
                }
                Err(e) => prop_assert!(false, "degrade policy never errors: {e:?}"),
            }
        }
    }

    // Invariant 2 (fail policy): the same expiry under
    // `DegradationPolicy::Fail` is an error, not a degraded answer.
    #[test]
    fn expired_runs_fail_closed_under_fail_policy(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let plan = Planner::new().plan(&q).expect("plans");
        let strict = Budget::unlimited().with_policy(DegradationPolicy::Fail);
        let cx = ExecCx::production()
            .with_budget(strict)
            .with_faults(deadline_at(1));
        match plan.execute_in(&db, &cx) {
            Err(CoreError::DeadlineExpired { checkpoint, .. }) => {
                prop_assert!(checkpoint >= 1);
            }
            Err(e) => prop_assert!(false, "wrong error: {e:?}"),
            Ok((_, report)) => prop_assert!(
                report.faults.deadline_at_checkpoint.is_none(),
                "an expired run may not answer under the fail policy"
            ),
        }
    }

    // Invariant 3: a fault-injected run replays to the identical
    // degradation sequence (and everything else — the diff is empty).
    #[test]
    fn fault_injected_runs_replay_identically(f in arb_formula(), seed in 0u64..1_000_000) {
        let q = query_of(f);
        let database = db();
        let faults = FaultPlan::from_seed(seed);
        // Record and replay under matching contexts: fresh engine and
        // cache on both sides, the same fault plan, a frozen clock.
        let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
        let plan = Planner::for_engine(&engine).plan(&q).expect("plans");
        let budget = Budget::unlimited();
        let cx = ExecCx::replay(faults).with_budget(budget);
        let (out, report) = plan.execute_in(&database, &cx).expect("recorded run");
        let trace = ExecTrace::record(&plan, &budget, &report, &database, &out).expect("trace");
        // The trace round-trips through JSON with its fault plan.
        let parsed = ExecTrace::parse(&trace.to_json()).expect("parses");
        prop_assert_eq!(&parsed, &trace);

        let replay_engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
        let report = replay(&trace, &replay_engine, &database).expect("replay");
        // Everything the fault machinery owns must reproduce exactly.
        // (Pass traces are allowed to differ: the trace stores the
        // post-rewrite formula, so re-planning it is an identity
        // rewrite — a re-planning artifact, not nondeterminism.)
        prop_assert!(
            report.diffs.iter().all(|d| d.contains("passes:")),
            "fault-injected replay diverged: {:?}",
            report.diffs
        );
        prop_assert_eq!(&report.replayed.degradations, &trace.degradations);
        prop_assert_eq!(&report.replayed.verdict, &trace.verdict);
        prop_assert_eq!(&report.replayed.faults, &trace.faults);
        prop_assert_eq!(report.replayed.output_fp, trace.output_fp);
        prop_assert_eq!(&report.replayed.cache_events, &trace.cache_events);
    }
}
