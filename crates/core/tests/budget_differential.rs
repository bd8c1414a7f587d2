//! Differential property tests for resource-governed execution.
//!
//! Two invariants across all strategies (automata, active-domain
//! enumeration, bounded search, and the scan tiers):
//!
//! 1. **Sufficiency:** under the planner-seeded budget (which admits
//!    the plan's own certificates), a governed run is byte-identical
//!    to the ungoverned one — `Exact` verdict, no degradations, every
//!    ledger entry within budget.
//! 2. **No silent truncation:** under a starved budget a governed run
//!    is *never wrong silently*. Either the answer still equals the
//!    exact one (structural fallbacks like dense → sparse are
//!    answer-preserving), or the report carries a non-`Exact` verdict
//!    — and in every degraded case the SA4xx degradation list is
//!    non-empty.

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_core::budget::UNLIMITED;
use strcalc_core::{
    Budget, Calculus, DegradationPolicy, Domain, DomainEvaluator, EvalOutput, ExecCx, FaultPlan,
    PlanNode, Planner, Query, Strategy as PlanStrategy,
};
use strcalc_core::{CoreError, ExecVerdict};
use strcalc_logic::{Formula, Term};
use strcalc_relational::Database;

/// Random formulas with free variable `x` over the unary relation `R`
/// (same shape as the planner differential suite).
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

/// A budget no automaton fits in (but with the run-level dimensions
/// the interpreters use left open).
fn starved() -> Budget {
    Budget {
        states: 1,
        bytes: 1,
        ..Budget::unlimited()
    }
}

/// The production context, handed `budget`.
fn under(budget: Budget) -> ExecCx {
    ExecCx::production().with_budget(budget)
}

/// The budget of exactly `plan`'s root certificate.
fn root_certificate(plan: &strcalc_core::Plan) -> Budget {
    let cert = plan.certificate().expect("automata plans are certified");
    Budget {
        states: cert.states,
        bytes: cert.bytes,
        ..Budget::unlimited()
    }
}

/// The ledger path of the first node under `node` (at `path`), in
/// pre-order, whose certificate `budget` does not admit.
fn first_over(node: &PlanNode, path: String, budget: &Budget) -> Option<String> {
    if !budget.admits(&node.cert.expect("every node is certified")) {
        return Some(path);
    }
    node.children
        .iter()
        .enumerate()
        .find_map(|(i, c)| first_over(c, format!("{path}/{i}"), budget))
}

/// The forced collapse plan's answer: the reference an SA401 fallback
/// must reproduce.
fn collapse_answer(q: &Query, db: &Database) -> EvalOutput {
    Planner::new()
        .force(PlanStrategy::ActiveDomainEnum)
        .plan(q)
        .expect("collapse plan")
        .execute(db)
        .expect("collapse run")
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Sufficiency on the automata strategy: governed ≡ ungoverned
    // under the seeded budget, and the governor's ledger proves it.
    #[test]
    fn seeded_budget_never_degrades_automata(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let plan = Planner::new().force(PlanStrategy::Automata).plan(&q).expect("plans");
        // Every automaton leaf certifies at least one state, so the
        // seeded budget is finite and covers the plan's certificate.
        let seeded = plan.seeded_budget();
        prop_assert!(seeded.states != UNLIMITED && seeded.bytes != UNLIMITED, "{}", seeded);
        prop_assert!(seeded.admits(&plan.certificate().expect("certified")));
        let (exact, _) = plan.execute(&db).expect("ungoverned");
        let (governed, report) = plan
            .execute_in(&db, &under(seeded))
            .expect("governed");
        prop_assert_eq!(governed, exact);
        prop_assert!(report.verdict.is_exact());
        prop_assert!(report.degradations.is_empty());
        prop_assert!(report.ledger.all_within());
        prop_assert!(!report.ledger.is_empty(), "every node is governed");
    }

    // Starvation on the automata strategy: the run degrades to the
    // bounded collapse domain — the same answer the forced
    // active-domain plan computes — and says so. Never silent, never
    // reported exact.
    #[test]
    fn starved_automata_degrades_to_the_collapse_answer(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let plan = Planner::new().force(PlanStrategy::Automata).plan(&q).expect("plans");
        let (degraded, report) = plan.execute_in(&db, &under(starved())).expect("degraded run");
        let (collapse, _) = Planner::new()
            .force(PlanStrategy::ActiveDomainEnum)
            .plan(&q)
            .expect("collapse plan")
            .execute(&db)
            .expect("collapse run");
        prop_assert_eq!(degraded, collapse);
        prop_assert!(!report.verdict.is_exact(), "a degraded run is never exact");
        prop_assert!(
            !report.degradations.is_empty(),
            "no silent truncation: degraded work must be SA4xx-recorded"
        );
        prop_assert!(!report.ledger.all_within());
        prop_assert_eq!(report.automaton_states, 0, "no automaton was built");
    }

    // A budget of exactly the root certificate exhausts the plans whose
    // certificates peak below the root (a product above the minimized,
    // projected root): the run degrades at the first such node in
    // pre-order, to the collapse answer. A plan whose certificates all
    // fit runs exactly.
    #[test]
    fn root_certificate_budget_exhausts_at_the_first_node_over_it(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let plan = Planner::new().force(PlanStrategy::Automata).plan(&q).expect("plans");
        let budget = root_certificate(&plan);
        let (answer, report) = plan.execute_in(&db, &under(budget)).expect("governed run");
        match first_over(&plan.root, "root".to_string(), &budget) {
            Some(node) => {
                let sa401: Vec<&str> = report
                    .degradations
                    .iter()
                    .filter(|d| d.code.as_str() == "SA401")
                    .map(|d| d.node.as_str())
                    .collect();
                prop_assert_eq!(sa401, vec![node.as_str()], "{}", report.summary());
                prop_assert_ne!(node.as_str(), "root", "the root fits its own certificate");
                prop_assert_eq!(answer, collapse_answer(&q, &db));
                prop_assert!(!report.verdict.is_exact());
            }
            None => {
                let (exact, _) = plan.execute(&db).expect("exact run");
                prop_assert_eq!(answer, exact);
                prop_assert!(report.verdict.is_exact(), "{}", report.summary());
                prop_assert!(report.degradations.is_empty(), "{}", report.summary());
            }
        }
    }

    // The no-silent-truncation invariant, stated end-to-end: whenever
    // a starved answer differs from the exact answer, the report says
    // so (non-exact verdict + SA4xx events). A wrong-but-quiet run is
    // the one thing governance must make impossible.
    #[test]
    fn starved_runs_are_never_silently_wrong(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let plan = Planner::new().plan(&q).expect("plans");
        let (exact, _) = plan.execute(&db).expect("exact run");
        let (answer, report) = plan.execute_in(&db, &under(starved())).expect("governed run");
        if answer != exact {
            prop_assert!(!report.verdict.is_exact());
            prop_assert!(!report.degradations.is_empty());
        }
        if !report.ledger.all_within() {
            prop_assert!(!report.degradations.is_empty());
        }
    }

    // Boolean routing under starvation obeys the same contract.
    #[test]
    fn starved_boolean_runs_carry_their_verdict(f in arb_formula()) {
        let g = Formula::exists("x", query_of(f).formula().clone());
        let q = Query::new(Calculus::SLen, Alphabet::ab(), vec![], g).expect("sentence");
        let db = db();
        let plan = Planner::new().plan(&q).expect("plans");
        let (exact, _) = plan.execute(&db).expect("exact");
        let (answer, report) = plan
            .execute_in(&db, &under(starved()))
            .expect("governed bool run");
        if answer != exact {
            prop_assert!(!report.verdict.is_exact());
            prop_assert!(!report.degradations.is_empty());
        }
    }
}

/// The probe the root-certificate proptest generalizes: `x <= y`'s
/// product out-certifies the projected root, so a budget of exactly
/// the root certificate exhausts an inner node, and the run degrades
/// there to the collapse answer.
#[test]
fn root_certificate_budget_exhausts_an_inner_product() {
    let q = Query::parse(
        Calculus::S,
        Alphabet::ab(),
        vec!["x".into()],
        "exists y. (R(y) & x <= y)",
    )
    .unwrap();
    let db = db();
    let plan = Planner::new()
        .force(PlanStrategy::Automata)
        .plan(&q)
        .unwrap();
    let budget = root_certificate(&plan);
    let node = first_over(&plan.root, "root".to_string(), &budget).expect("a node is over");
    assert_ne!(node, "root");
    let (answer, report) = plan.execute_in(&db, &under(budget)).unwrap();
    assert_eq!(answer, collapse_answer(&q, &db));
    assert_eq!(report.degradations.len(), 1, "{}", report.summary());
    assert_eq!(report.degradations[0].code.as_str(), "SA401");
    assert_eq!(report.degradations[0].node, node);
}

/// Bounded search: a handed `search_depth` narrower than the plan's
/// bound clamps the assignment domain — the answer equals the direct
/// evaluator at the *clamped* depth, the verdict is `Bounded`, and
/// SA404 is recorded. (Ambient `BoundedSearch { budget }` subsumed.)
#[test]
fn clamped_search_depth_matches_the_clamped_evaluator() {
    let ab = Alphabet::ab();
    let formula = strcalc_logic::parse_formula(&ab, "exists z. (concat(x, x, z) & R(z))").unwrap();
    let head = vec!["x".to_string()];
    let db = db();
    let plan = Planner::new()
        .with_bound(3)
        .plan_formula(&ab, &head, &formula)
        .unwrap();
    assert_eq!(plan.strategy, PlanStrategy::BoundedSearch);

    let narrow = Budget {
        search_depth: 2,
        ..Budget::unlimited()
    };
    let (clamped, report) = plan.execute_in(&db, &under(narrow)).unwrap();
    let direct = DomainEvaluator::new(&ab, &db, Domain::UpTo(2))
        .answer(&formula, &head)
        .unwrap();
    assert_eq!(clamped, EvalOutput::Finite(direct));
    assert!(matches!(report.verdict, ExecVerdict::Bounded { .. }));
    assert!(report
        .degradations
        .iter()
        .any(|d| d.code.as_str() == "SA404"));

    // A depth allowance at or above the plan's bound does not clamp.
    let (full, report) = plan.execute(&db).unwrap();
    let direct_full = DomainEvaluator::new(&ab, &db, Domain::UpTo(3))
        .answer(&formula, &head)
        .unwrap();
    assert_eq!(full, EvalOutput::Finite(direct_full));
    assert!(report.verdict.is_exact());
    assert!(report.degradations.is_empty());
}

/// Dense scan: starving the byte budget drops the dense tables and
/// falls back to the sparse per-tuple walk — the *same answer* (the
/// fallback is answer-preserving, so the verdict stays `Exact`), with
/// SA402 recorded and no dense bytes held.
#[test]
fn starved_dense_scan_falls_back_to_sparse_with_the_same_answer() {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "U", &["", "a", "aa", "ab", "aab", "abab"])
        .unwrap();
    let q = Query::parse(
        Calculus::SReg,
        Alphabet::ab(),
        vec!["x".into()],
        "U(x) & in(x, /(aa)*/)",
    )
    .unwrap();
    let plan = Planner::new().plan(&q).unwrap();
    assert_eq!(plan.strategy, PlanStrategy::DenseDfaScan);

    let (dense, dense_report) = plan.execute(&db).unwrap();
    assert!(dense_report.degradations.is_empty());
    assert!(dense_report.artifact_bytes > 0, "dense tables were held");

    let (sparse, report) = plan.execute_in(&db, &under(starved())).unwrap();
    assert_eq!(sparse, dense, "the sparse fallback is answer-preserving");
    assert!(report.verdict.is_exact());
    assert!(report
        .degradations
        .iter()
        .any(|d| d.code.as_str() == "SA402"));
    assert_eq!(report.artifact_bytes, 0, "no dense tables under starvation");
}

/// A Boolean dense scan that degrades to the sparse walk (SA402) and is
/// then cut by its deadline before it finds a witness reports like
/// every other witness-less Boolean scan: `Unknown`, with no tuples. It
/// established nothing, so it may not claim a `Bounded` answer.
#[test]
fn starved_boolean_dense_scan_cut_before_a_witness_is_unknown() {
    let q = Query::parse(
        Calculus::SReg,
        Alphabet::ab(),
        vec![],
        "exists x. (R(x) & in(x, /(aa)*b/))",
    )
    .unwrap();
    let plan = Planner::new().plan(&q).unwrap();
    assert_eq!(plan.strategy, PlanStrategy::DenseDfaScan);
    let faults = FaultPlan {
        deadline_at_checkpoint: Some(1),
        ..FaultPlan::none()
    };
    let (out, report) = plan
        .execute_in(&db(), &under(starved()).with_faults(faults))
        .unwrap();
    assert!(out.is_empty());
    let codes: Vec<&str> = report
        .degradations
        .iter()
        .map(|d| d.code.as_str())
        .collect();
    assert_eq!(codes, ["SA402", "SA411"]);
    assert!(
        matches!(report.verdict, ExecVerdict::Unknown { .. }),
        "{}",
        report.verdict.render()
    );
    assert_eq!(report.tuples_enumerated, 0);
}

/// The like-linear scan builds no automata and holds no tables: its
/// certified demand is zero, so even a starved budget runs it exactly.
#[test]
fn like_scan_is_immune_to_starvation() {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "U", &["", "a", "aa", "aba", "ab"])
        .unwrap();
    let q = Query::parse(
        Calculus::SReg,
        Alphabet::ab(),
        vec!["x".into()],
        "U(x) & in(x, /a.*a/)",
    )
    .unwrap();
    let plan = Planner::new().plan(&q).unwrap();
    assert_eq!(plan.strategy, PlanStrategy::LikeLinearScan);
    let (exact, _) = plan.execute(&db).unwrap();
    let (governed, report) = plan.execute_in(&db, &under(starved())).unwrap();
    assert_eq!(governed, exact);
    assert!(report.verdict.is_exact());
    assert!(report.degradations.is_empty());
    assert!(report.ledger.all_within());
}

/// Under `DegradationPolicy::Fail` an exhausted budget rejects the run
/// up front instead of degrading (multi-tenant admission control).
#[test]
fn fail_policy_rejects_instead_of_degrading() {
    let q = Query::parse(
        Calculus::S,
        Alphabet::ab(),
        vec!["x".into()],
        "exists y. (R(y) & x <= y)",
    )
    .unwrap();
    let db = db();
    let plan = Planner::new()
        .force(PlanStrategy::Automata)
        .plan(&q)
        .unwrap();
    let err = plan
        .execute_in(&db, &under(starved().with_policy(DegradationPolicy::Fail)))
        .unwrap_err();
    assert!(
        matches!(err, CoreError::BudgetExhausted { .. }),
        "got {err:?}"
    );
    // The same budget with the degrade policy still answers.
    let (out, report) = plan.execute_in(&db, &under(starved())).unwrap();
    assert!(matches!(out, EvalOutput::Finite(_)));
    assert!(!report.degradations.is_empty());
}
