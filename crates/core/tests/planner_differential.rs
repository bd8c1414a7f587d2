//! Differential tests for the query planner: the planner-routed
//! executors agree with the direct calls — [`AutomataEngine::eval`], and
//! the naive [`DomainEvaluator`] over [`collapse_domain`] (same slack)
//! or over `Σ^{≤B}` (same bound) — on the formula the plan runs,
//! `plan.formula()`, after its rewrite pass. Plan trees stay flat and
//! certificates bound every run. `tests/oracle.rs` at the workspace root
//! checks every route against the oracle on generated formulas.

use std::sync::Arc;

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_core::{
    collapse_domain, AutomataEngine, AutomatonCache, Calculus, Domain, DomainEvaluator, EvalOutput,
    Plan, PlanNode, PlanOp, Planner, Query, Strategy as PlanStrategy,
};
use strcalc_logic::{parse_formula, Formula, Restrict, Term};
use strcalc_relational::{Database, Relation};

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

/// A random body under each kind of restricted quantifier (`∃A/P/L y`,
/// `∀A/P/L y`), joined with another random body by `∧`, by `∨` (where
/// the quantifier runs once the other side's variables are bound) or
/// under `¬`, so `x` stays free.
fn arb_restricted_formula() -> impl Strategy<Value = Formula> {
    (arb_formula(), 0..6usize, arb_formula(), 0..3usize).prop_map(|(f, kind, g, join)| {
        let r = [Restrict::Active, Restrict::PrefixDom, Restrict::LengthDom][kind % 3];
        let quantified = if kind >= 3 {
            Formula::forall_r(r, "y", f)
        } else {
            Formula::exists_r(r, "y", f)
        };
        match join {
            0 => quantified.and(g),
            1 => g.or(quantified),
            _ => g.and(quantified.not()),
        }
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

/// The naive evaluator's answer to `q` over `q`'s collapse domain at
/// `slack`.
fn reference(q: &Query, db: &Database, slack: usize) -> Relation {
    let domain = collapse_domain(q, db, Some(slack));
    DomainEvaluator::new(q.alphabet(), db, domain)
        .answer(q.formula(), q.head())
        .expect("reference eval")
}

/// The naive evaluator's answer to `f` over `Σ^{≤bound}`.
fn bounded(f: &Formula, head: &[String], db: &Database, bound: usize) -> Relation {
    DomainEvaluator::new(&Alphabet::ab(), db, Domain::UpTo(bound))
        .answer(f, head)
        .expect("direct bounded search")
}

/// The typed query a plan runs: its (possibly rewritten) formula.
fn plan_query(plan: &Plan) -> Query {
    Query::new(
        plan.calculus().expect("typed plan"),
        plan.alphabet().clone(),
        plan.head().to_vec(),
        plan.formula().clone(),
    )
    .expect("a plan's rewrite keeps the query valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Automata strategy ≡ `AutomataEngine::eval` on the formula the
    // plan compiles, so outputs match exactly (samples included).
    #[test]
    fn planner_matches_direct_automata_eval(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let plan = Planner::new()
            .force(PlanStrategy::Automata)
            .plan(&q)
            .expect("plans");
        let direct = AutomataEngine::new().eval(&plan_query(&plan), &db).expect("direct eval");
        prop_assert_eq!(plan.strategy, PlanStrategy::Automata);
        let (routed, _) = plan.execute(&db).expect("routed eval");
        prop_assert_eq!(routed, direct);
    }

    // Against the *unrewritten* query, outputs still agree — finite
    // relations exactly; infinite outputs up to sampling.
    #[test]
    fn rewrite_pass_preserves_semantics(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let direct = AutomataEngine::new().eval(&q, &db).expect("direct eval");
        let (routed, _) = Planner::new()
            .plan(&q)
            .expect("plans")
            .execute(&db)
            .expect("routed eval");
        match (routed, direct) {
            (EvalOutput::Finite(a), EvalOutput::Finite(b)) => prop_assert_eq!(a, b),
            (EvalOutput::Infinite { .. }, EvalOutput::Infinite { .. }) => {}
            (a, b) => prop_assert!(false, "finiteness mismatch: {a:?} vs {b:?}"),
        }
    }

    // Boolean routing agrees across all three strategies.
    #[test]
    fn planner_matches_direct_bool_eval(f in arb_formula()) {
        let g = Formula::exists("x", query_of(f).formula().clone());
        let q = Query::new(Calculus::SLen, Alphabet::ab(), vec![], g).expect("sentence");
        let db = db();
        let plan = Planner::new().plan(&q).expect("plans");
        let direct = AutomataEngine::new().eval_bool(&plan_query(&plan), &db).expect("direct");
        let (routed, _) = plan.execute(&db).expect("routed");
        prop_assert_eq!(!routed.is_empty(), direct);
        let enum_plan = Planner::new()
            .force(PlanStrategy::ActiveDomainEnum)
            .with_slack(2)
            .plan(&q)
            .expect("plans");
        let enum_direct = reference(&plan_query(&enum_plan), &db, 2);
        let (enum_routed, _) = enum_plan.execute(&db).expect("routed enum");
        prop_assert_eq!(enum_routed, EvalOutput::Finite(enum_direct));
    }

    // Products are flat as built: no `Product` node has a `Product`
    // child, under every planner and on bounded search.
    #[test]
    fn plan_trees_have_no_nested_products(f in arb_connective_formula()) {
        let q = query_of(f);
        let cached = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
        for planner in [
            Planner::new(),
            Planner::new().force(PlanStrategy::Automata),
            Planner::new().force(PlanStrategy::ActiveDomainEnum),
            Planner::for_engine(&cached),
        ] {
            let plan = planner.plan(&q).expect("plans");
            prop_assert!(products_are_flat(&plan.root), "{}", plan.explain_text());
        }
        let concat = q.formula().clone().and(Formula::exists(
            "z",
            Formula::concat_eq(Term::var("x"), Term::var("x"), Term::var("z")),
        ));
        let plan = Planner::new()
            .plan_formula(&Alphabet::ab(), q.head(), &concat)
            .expect("plans");
        prop_assert_eq!(plan.strategy, PlanStrategy::BoundedSearch);
        prop_assert!(products_are_flat(&plan.root), "{}", plan.explain_text());
    }

    // Certificates are upper bounds: no run of a generated plan builds
    // more states or bytes than its root certifies, so SA240 stays
    // silent.
    #[test]
    fn certificates_bound_every_run(f in arb_formula()) {
        certificates_hold(&query_of(f), &db());
    }
}

/// Runs `q` under the forced-automata planner and under a cached
/// planner (a cold run, then a cache hit), and checks every run against
/// the plan's root certificate: no SA240 line, and the actual states
/// and bytes within its bounds.
fn certificates_hold(q: &Query, db: &Database) {
    let cached = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    let forced = Planner::new().force(PlanStrategy::Automata);
    let runs = [(&forced, 1), (&Planner::for_engine(&cached), 2)];
    for (planner, times) in runs {
        let plan = planner.plan(q).expect("plans");
        assert_eq!(plan.strategy, PlanStrategy::Automata);
        let cert = plan.certificate().expect("automata plans are certified");
        for _ in 0..times {
            let (_, report) = plan.execute(db).expect("runs");
            assert!(
                report.cert_violations.is_empty(),
                "{:?}\n{}",
                report.cert_violations,
                plan.explain_text()
            );
            assert!(report.automaton_states as u64 <= cert.states);
            assert!(report.artifact_bytes as u64 <= cert.bytes);
        }
    }
}

/// Union chains, whose certificates add up every operand: sixteen
/// copies of `U(x)` certify 65 551 states, eight copies of `x = x`
/// certify 71, and both compile to a few dozen states at most.
#[test]
fn union_chain_certificates_hold() {
    let chain = |atom: &str, n: usize| vec![atom; n].join(" | ");
    for src in [chain("U(x)", 16), chain("x = x", 8)] {
        let q = Query::parse(Calculus::S, Alphabet::ab(), vec!["x".into()], &src).unwrap();
        certificates_hold(&q, &u_db());
    }
}

/// `arb_formula` bodies under the connectives it does not generate:
/// `<->`, `->`, `forall` and the restricted quantifiers.
fn arb_connective_formula() -> impl Strategy<Value = Formula> {
    (
        arb_formula(),
        arb_formula(),
        arb_restricted_formula(),
        0..5usize,
    )
        .prop_map(|(f, g, restricted, shape)| match shape {
            0 => f.iff(g),
            1 => f.implies(g),
            2 => Formula::forall("y", f).and(g),
            3 => restricted,
            _ => f.and(g.iff(restricted)),
        })
}

/// Whether no `Product` node below `node` (itself included) has a
/// `Product` child.
fn products_are_flat(node: &PlanNode) -> bool {
    let mut flat = true;
    node.visit(&mut |n| {
        flat &= n.op != PlanOp::Product || n.children.iter().all(|c| c.op != PlanOp::Product);
    });
    flat
}

/// The collapse program equals the naive evaluator at slack 0 and 1,
/// where extensions of stored strings fall outside the collapse domain
/// and the program must not bind them.
#[test]
fn narrow_collapse_domains_match_the_reference() {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "R", &["ab", "ba", "bab"])
        .unwrap();
    for (calculus, head, src) in [
        (Calculus::S, "x", "exists y. (R(y) & x <= y)"),
        (Calculus::S, "x", "R(x) & existsP p. (p < x & last(p, 'b'))"),
        (
            Calculus::S,
            "x",
            "last(x, 'a') & forallP y. (y <= x -> !R(y))",
        ),
        (Calculus::SLen, "", "existsL x. (last(x,'a') & !R(x))"),
        (Calculus::SLen, "x", "R(x) & forallA y. (R(y) -> !(x < y))"),
        (Calculus::S, "x", "exists y. (R(y) & y < x)"),
        (Calculus::SLeft, "x", "exists y. (R(y) & fa(y, x, 'a'))"),
    ] {
        let head = head.split_whitespace().map(String::from).collect();
        let q = Query::parse(calculus, Alphabet::ab(), head, src).unwrap();
        for slack in [0, 1] {
            let plan = Planner::new()
                .force(PlanStrategy::ActiveDomainEnum)
                .with_slack(slack)
                .plan(&q)
                .unwrap();
            let routed = plan.execute(&db).unwrap().0.expect_finite();
            assert_eq!(routed, reference(&q, &db, slack), "slack {slack}: {src}");
        }
    }
}

/// The unary relation `U` the two direct-call checks below read.
fn u_db() -> Database {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "U", &["ab", "ba", "bab", "a"])
        .unwrap();
    db
}

#[test]
fn planner_agrees_with_direct_enum_eval() {
    let ab = Alphabet::ab();
    let query = Query::parse(Calculus::S, ab, vec!["x".into()], "U(x) & last(x, 'b')").unwrap();
    let db = u_db();
    let plan = Planner::new()
        .force(PlanStrategy::ActiveDomainEnum)
        .with_slack(2)
        .plan(&query)
        .unwrap();
    let (routed, _) = plan.execute(&db).unwrap();
    assert_eq!(routed, EvalOutput::Finite(reference(&query, &db, 2)));
}

#[test]
fn planner_agrees_with_direct_bounded_search() {
    let ab = Alphabet::ab();
    let formula = parse_formula(&ab, "exists z. (concat(x, x, z) & U(z))").unwrap();
    let head = vec!["x".to_string()];
    let direct = bounded(&formula, &head, &u_db(), 4);
    let plan = Planner::new()
        .with_bound(4)
        .plan_formula(&ab, &head, &formula)
        .unwrap();
    assert_eq!(plan.strategy, PlanStrategy::BoundedSearch);
    assert_eq!(plan.calculus(), None);
    let (routed, report) = plan.execute(&u_db()).unwrap();
    assert_eq!(routed, EvalOutput::Finite(direct));
    assert!(report.domain_size > 0);
}
