//! Tests for the relational route: every generator kind takes the route
//! and answers exactly as the forced automata route does; the deadline
//! behaviour at scale; the fallback of formulas with an ungenerated
//! quantifier; huge finite languages; and a cached planner keeping
//! automata. `tests/oracle.rs` at the workspace root checks the route
//! against the oracle on generated formulas.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_core::{
    AutomataEngine, AutomatonCache, Budget, CoreError, DegradationPolicy, EvalOutput, ExecCx,
    ExecVerdict, FaultPlan, Plan, PlanOp, Planner, Strategy as PlanStrategy, VirtualClock,
};
use strcalc_logic::{parse_formula, Formula};
use strcalc_relational::Database;

fn ab() -> Alphabet {
    Alphabet::ab()
}

fn db() -> Database {
    let ab = ab();
    let mut db = Database::new();
    db.insert_unary_parsed(&ab, "R", &["", "a", "ab", "bab", "b", "aab"])
        .unwrap();
    db.insert_unary_parsed(&ab, "U", &["a", "ab", "aab", "ba", "bb", "abab"])
        .unwrap();
    for (x, y) in [
        ("a", "ab"),
        ("b", "b"),
        ("ab", "a"),
        ("", "ba"),
        ("bab", "ab"),
    ] {
        db.insert("T", vec![ab.parse(x).unwrap(), ab.parse(y).unwrap()])
            .unwrap();
    }
    db
}

fn is_relational(plan: &Plan) -> bool {
    matches!(plan.root.op, PlanOp::Relational)
}

/// Plans `f` (head: its free variables) through the default planner and
/// through forced automata, and checks that a relational plan answers
/// exactly as automata do. Returns whether the default took the route.
fn agrees(f: &Formula) -> bool {
    let head: Vec<String> = f.free_vars().into_iter().collect();
    let db = db();
    let default = Planner::new()
        .plan_formula(&ab(), &head, f)
        .unwrap_or_else(|e| panic!("default plan: {e}"));
    if !is_relational(&default) {
        prop_assert_ne!(default.strategy, PlanStrategy::ActiveDomainEnum);
        return false;
    }
    prop_assert_eq!(default.strategy, PlanStrategy::ActiveDomainEnum);
    let (routed, report) = default
        .execute(&db)
        .unwrap_or_else(|e| panic!("relational run: {e}"));
    prop_assert!(report.verdict.is_exact());
    prop_assert_eq!(report.automaton_states, 0);
    let (expected, _) = Planner::new()
        .force(PlanStrategy::Automata)
        .plan_formula(&ab(), &head, f)
        .and_then(|p| p.execute(&db))
        .unwrap_or_else(|e| panic!("automata run: {e}"));
    match expected {
        EvalOutput::Finite(rel) => {
            prop_assert_eq!(routed, EvalOutput::Finite(rel), "{}", f.render(&ab()))
        }
        EvalOutput::Infinite { .. } => {
            prop_assert!(
                false,
                "safe-range formula with an infinite answer: {}",
                f.render(&ab())
            )
        }
    }
    true
}

/// Every generator kind at least once on its own, so a kind the random
/// mix happens to miss is still covered.
#[test]
fn every_generator_kind_takes_the_route() {
    let cases = [
        "R(x) & T(x, y)",
        "R(append(x, 'a'))",
        "U(prepend('b', y))",
        "U(y) & x = y",
        "U(y) & x <= y",
        "U(y) & x < y",
        "U(x) & x <1 y",
        "U(y) & y <1 x",
        "U(y) & fa(y, x, 'a')",
        "U(x) & fa(y, x, 'a')",
        "U(y) & el(x, y)",
        "U(y) & shorteq(x, y)",
        "U(y) & shorter(x, y)",
        "U(y) & pl(x, y, /(ab)*/)",
        "U(x) & pl(x, y, /a|bb/)",
        "in(x, /ab|ba|/)",
        "U(x) & ins(x, p, y, 'b')",
        "U(y) & ins(x, p, y, 'b')",
        r#"R(x) & T(y, z) & x = "a" & !U(z)"#,
        r#"U(x) & forall y. (R(y) -> !(y <= x) | y = "")"#,
        r#"exists y. (U(y) & (x <= y | x = "bbb"))"#,
    ];
    for src in cases {
        let f = parse_formula(&ab(), src).unwrap();
        assert!(agrees(&f), "{src} should take the relational route");
    }
}

/// A join large enough to cross several deadline checkpoints.
fn big_join() -> (Plan, Database) {
    let ab = ab();
    let mut db = Database::new();
    let words: Vec<String> = ab.strings_up_to(7).map(|s| ab.render(&s)).collect();
    let refs: Vec<&str> = words.iter().map(String::as_str).collect();
    db.insert_unary_parsed(&ab, "R", &refs).unwrap();
    let f = parse_formula(&ab, "R(x) & R(y) & el(x, y)").unwrap();
    let plan = Planner::new()
        .plan_formula(&ab, &["x".into(), "y".into()], &f)
        .unwrap();
    assert!(is_relational(&plan));
    (plan, db)
}

#[test]
fn deadline_fired_mid_run_keeps_a_sound_subset() {
    let (plan, db) = big_join();
    let (exact, report) = plan.execute(&db).unwrap();
    assert!(report.verdict.is_exact());
    let exact = exact.expect_finite();
    assert!(report.domain_size > 3 * 4096, "{}", report.summary());
    // Checkpoints count from 1: the first poll, before any binding.
    for n in [1, 2, 3] {
        let cx = ExecCx::production()
            .with_clock(Arc::new(VirtualClock::frozen()))
            .with_faults(FaultPlan {
                deadline_at_checkpoint: Some(n),
                ..FaultPlan::none()
            });
        let (partial, report) = plan.execute_in(&db, &cx).unwrap();
        let partial = partial.expect_finite();
        assert!(partial.len() < exact.len(), "checkpoint {n}");
        assert!(partial.iter().all(|t| exact.contains(t)), "checkpoint {n}");
        assert!(
            matches!(report.verdict, ExecVerdict::Bounded { .. }),
            "{}",
            report.summary()
        );
        assert_eq!(report.degradations.len(), 1);
        assert_eq!(report.degradations[0].code.as_str(), "SA411");
        assert_eq!(report.faults.deadline_at_checkpoint, Some(n));
    }
}

#[test]
fn deadline_under_the_fail_policy_is_rejected() {
    let (plan, db) = big_join();
    let cx = ExecCx::production()
        .with_budget(Budget::unlimited().with_policy(DegradationPolicy::Fail))
        .with_faults(FaultPlan {
            deadline_at_checkpoint: Some(1),
            ..FaultPlan::none()
        });
    let err = plan.execute_in(&db, &cx).unwrap_err();
    assert!(
        matches!(err, CoreError::DeadlineExpired { checkpoint: 1, .. }),
        "{err}"
    );
}

#[test]
fn a_sentence_without_a_witness_is_unknown() {
    let f = parse_formula(&ab(), "exists x. (R(x) & last(x, 'b'))").unwrap();
    let plan = Planner::new().plan_formula(&ab(), &[], &f).unwrap();
    assert!(is_relational(&plan));
    let cx = ExecCx::production().with_faults(FaultPlan {
        deadline_at_checkpoint: Some(1),
        ..FaultPlan::none()
    });
    let (out, report) = plan.execute_in(&db(), &cx).unwrap();
    assert!(out.is_empty());
    assert!(matches!(report.verdict, ExecVerdict::Unknown { .. }));
}

#[test]
fn an_ungenerated_quantifier_stays_on_automata() {
    for src in [
        "R(x) & exists y. !(x <= y)",
        "R(x) & exists y. (x <= y & last(y, 'b'))",
        "R(x) & forall y. (x <= y -> last(y, 'a'))",
        "R(x) & existsA y. (x <= y)",
    ] {
        let f = parse_formula(&ab(), src).unwrap();
        let plan = Planner::new()
            .plan_formula(&ab(), &["x".into()], &f)
            .unwrap();
        assert_eq!(plan.strategy, PlanStrategy::Automata, "{src}");
        assert!(!is_relational(&plan), "{src}");
    }
}

#[test]
fn forcing_active_domain_enum_keeps_the_collapse_interpreter() {
    let f = parse_formula(&ab(), "exists y. (U(y) & x <= y)").unwrap();
    let plan = Planner::new()
        .force(PlanStrategy::ActiveDomainEnum)
        .plan_formula(&ab(), &["x".into()], &f)
        .unwrap();
    assert!(matches!(plan.root.op, PlanOp::EnumerateFinite));
    let relational = Planner::new()
        .plan_formula(&ab(), &["x".into()], &f)
        .unwrap();
    assert!(is_relational(&relational));
    assert_eq!(
        plan.execute(&db()).unwrap().0,
        relational.execute(&db()).unwrap().0
    );
}

#[test]
fn a_starved_budget_cannot_degrade_the_route() {
    let f = parse_formula(&ab(), "exists y. (U(y) & x <= y)").unwrap();
    let plan = Planner::new()
        .plan_formula(&ab(), &["x".into()], &f)
        .unwrap();
    assert!(plan.certificate().is_none_or(|c| c.is_zero()));
    let starved = Budget {
        states: 1,
        bytes: 1,
        ..Budget::unlimited()
    };
    let (_, report) = plan
        .execute_in(&db(), &ExecCx::production().with_budget(starved))
        .unwrap();
    assert!(report.verdict.is_exact());
    assert!(report.degradations.is_empty());
}

/// A `trim` column cannot be inverted, so a row binding the other
/// columns must still be tested against it.
#[test]
fn a_trim_column_is_tested_after_the_row_binds() {
    // trim('b', x) drops a leading `b`, and is ε for any other x.
    let f = parse_formula(&ab(), "T(x, trim('b', x))").unwrap();
    assert!(agrees(&f));
    let plan = Planner::new()
        .plan_formula(&ab(), &["x".into()], &f)
        .unwrap();
    let out = plan.execute(&db()).unwrap().0.expect_finite();
    let bab = ab().parse("bab").unwrap();
    assert_eq!(
        out.iter().map(|t| t.to_vec()).collect::<Vec<_>>(),
        vec![vec![bab]]
    );
}

/// `(a|b)` thirty times over: 2^30 words behind a 31-state DFA.
fn huge_finite_lang() -> String {
    format!("/{}/", "(a|b)".repeat(30))
}

/// Planning decides finiteness without enumerating a language, and a
/// finite language used only as a filter is never enumerated.
#[test]
fn a_huge_finite_filter_is_never_enumerated() {
    let src = format!("T(x, y) & x <= y & in(x, {})", huge_finite_lang());
    let f = parse_formula(&ab(), &src).unwrap();
    let started = Instant::now();
    let plan = Planner::new()
        .plan_formula(&ab(), &["x".into(), "y".into()], &f)
        .unwrap();
    assert!(is_relational(&plan), "{}", plan.explain_text());
    let (out, report) = plan.execute(&db()).unwrap();
    assert!(out.is_empty() && report.verdict.is_exact());
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// A huge finite language that does generate yields its words one at a
/// time, each a binding the deadline counts.
#[test]
fn a_huge_finite_generator_is_enumerated_lazily() {
    let f = parse_formula(&ab(), &format!("in(x, {})", huge_finite_lang())).unwrap();
    let plan = Planner::new()
        .plan_formula(&ab(), &["x".into()], &f)
        .unwrap();
    assert!(is_relational(&plan));
    let cx = ExecCx::production()
        .with_clock(Arc::new(VirtualClock::frozen()))
        .with_faults(FaultPlan {
            deadline_at_checkpoint: Some(3),
            ..FaultPlan::none()
        });
    let (out, report) = plan.execute_in(&db(), &cx).unwrap();
    let out = out.expect_finite();
    assert!(
        (4096..3 * 4096).contains(&out.len()),
        "{}",
        report.summary()
    );
    assert!(out.iter().all(|t| t[0].len() == 30));
    assert!(matches!(report.verdict, ExecVerdict::Bounded { .. }));
}

/// A planner whose engine shares an automaton cache keeps automata: the
/// cache is how its caller reuses compiled automata across reads.
#[test]
fn a_cached_planner_keeps_automata() {
    let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    let f = parse_formula(&ab(), "exists y. (U(y) & x <= y)").unwrap();
    let planner = Planner::for_engine(&engine);
    assert_eq!(planner.strategy_for(&f, 2).unwrap(), PlanStrategy::Automata);
    let plan = planner.plan_formula(&ab(), &["x".into()], &f).unwrap();
    assert_eq!(plan.strategy, PlanStrategy::Automata);
    assert!(!is_relational(&plan));
}
