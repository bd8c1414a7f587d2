//! Differential property tests for the query planner: for random
//! formulas, the planner-routed executors agree with the legacy direct
//! calls they replaced — [`AutomataEngine::eval`], [`EnumEngine::eval`]
//! (same slack), and [`ConcatEvaluator::eval`] (same bound) — run on
//! the formula the plan runs, `plan.formula()`, after its rewrite pass.

use std::collections::BTreeSet;

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_core::{
    AutomataEngine, Budget, Calculus, ConcatEvaluator, Deadline, EnumEngine, EvalOutput, ExecCx,
    ExecVerdict, Plan, PlanOp, Planner, Query, Strategy as PlanStrategy,
};
use strcalc_logic::{parse_formula, Formula, Term};
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

/// Random formulas in the concat fragment with free variable `x`: the
/// random body is conjoined with `∃z concat(x, x, z)`, which pins `x`
/// free and pushes the whole formula outside the synchro fragment.
fn arb_concat_formula() -> impl Strategy<Value = Formula> {
    arb_formula().prop_map(|f| {
        let closed = if f.free_vars().contains("y") {
            Formula::exists("y", f)
        } else {
            f
        };
        closed.and(Formula::exists(
            "z",
            Formula::concat_eq(Term::var("x"), Term::var("x"), Term::var("z")),
        ))
    })
}

/// `concat` atoms in each binding shape the bounded-search lowering
/// has, over `x` (the random body's free variable), `u` and `w`.
const CONCAT_SHAPES: [&str; 7] = [
    // `w = x·u` computed from two generated operands.
    "R(x) & R(u) & concat(x, u, w)",
    // The |w|+1 splits of a generated `w`.
    "R(w) & concat(x, u, w)",
    // `u` is what remains of `w` after the prefix `x`.
    "R(x) & R(w) & concat(x, u, w)",
    // Nothing restricts `x`: it ranges over the domain, `u` splits it.
    "concat(u, u, x)",
    // Under `¬`.
    "R(x) & !(exists u. (R(u) & concat(u, u, x)))",
    // Under `∀`.
    "R(x) & forall u. (concat(u, u, x) -> R(u))",
    // A subformula restricts `x` and binds `u` from the domain too;
    // then `w = x·u` is computed.
    "(exists v. (R(v) & x <= v & last(u, 'a'))) & concat(x, u, w)",
];

/// A random body with `x` free, conjoined with concat shape `shape`.
fn arb_shaped_concat() -> impl Strategy<Value = Formula> {
    (arb_formula(), 0..CONCAT_SHAPES.len()).prop_map(|(f, shape)| {
        let closed = if f.free_vars().contains("y") {
            Formula::exists("y", f)
        } else {
            f
        };
        let atoms = parse_formula(&Alphabet::ab(), CONCAT_SHAPES[shape]).expect("shape parses");
        closed.and(atoms)
    })
}

/// The variables the plan's `Generate` leaves bind.
fn generated(plan: &Plan) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    plan.root.visit(&mut |n| {
        if let PlanOp::Generate { var, .. } = &n.op {
            vars.insert(var.clone());
        }
    });
    vars
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

    // Forced enumeration strategy ≡ `EnumEngine::eval` with the same
    // slack.
    #[test]
    fn planner_matches_direct_enum_eval(f in arb_formula()) {
        let q = query_of(f);
        let db = db();
        let plan = Planner::new()
            .force(PlanStrategy::ActiveDomainEnum)
            .with_slack(2)
            .plan(&q)
            .expect("plans");
        let (direct, _, _) = EnumEngine::with_slack(2)
            .eval(&plan_query(&plan), &db, &Deadline::unlimited())
            .expect("direct enum");
        prop_assert_eq!(plan.strategy, PlanStrategy::ActiveDomainEnum);
        let (routed, report) = plan.execute(&db).expect("routed enum");
        prop_assert_eq!(routed, EvalOutput::Finite(direct));
        prop_assert!(report.domain_size > 0, "collapse domain contains ε at least");
    }

    // Concat fragment ≡ `ConcatEvaluator::eval` with the same bound.
    #[test]
    fn planner_matches_direct_bounded_search(f in arb_concat_formula()) {
        let db = db();
        let head = vec!["x".to_string()];
        let plan = Planner::new()
            .with_bound(3)
            .plan_formula(&Alphabet::ab(), &head, &f)
            .expect("plans");
        let (direct, _, _) = ConcatEvaluator::new(Alphabet::ab(), 3)
            .eval(plan.formula(), &head, &db, &Deadline::unlimited())
            .expect("direct bounded search");
        prop_assert_eq!(plan.strategy, PlanStrategy::BoundedSearch);
        let (routed, _) = plan.execute(&db).expect("routed bounded search");
        prop_assert_eq!(routed, EvalOutput::Finite(direct));
    }

    // Bounded search runs as a generator program in every concat
    // binding shape, and its answer is `ConcatEvaluator`'s at the same
    // effective depth: the plan's bound, or a narrower handed one.
    #[test]
    fn generated_bounded_search_matches_the_evaluator(f in arb_shaped_concat()) {
        let ab = Alphabet::ab();
        let db = db();
        let head: Vec<String> = f.free_vars().into_iter().collect();
        let direct = |bound: usize, plan: &Plan| {
            ConcatEvaluator::new(ab.clone(), bound)
                .eval(plan.formula(), &head, &db, &Deadline::unlimited())
                .expect("direct bounded search")
                .0
        };
        for bound in [2, 3] {
            let plan = Planner::new()
                .with_bound(bound)
                .plan_formula(&ab, &head, &f)
                .expect("plans");
            prop_assert!(matches!(plan.root.op, PlanOp::BoundedSearch { .. }));
            let generated = generated(&plan);
            for v in &head {
                prop_assert!(generated.contains(v), "no Generate leaf binds {}", v);
            }
            let (routed, report) = plan.execute(&db).expect("routed bounded search");
            prop_assert_eq!(routed, EvalOutput::Finite(direct(bound, &plan)));
            prop_assert!(report.verdict.is_exact());
            if bound == 3 {
                let narrow = Budget { search_depth: 2, ..plan.seeded_budget() };
                let cx = ExecCx::production().with_budget(narrow);
                let (clamped, report) = plan.execute_in(&db, &cx).expect("clamped search");
                prop_assert_eq!(clamped, EvalOutput::Finite(direct(2, &plan)));
                prop_assert!(matches!(report.verdict, ExecVerdict::Bounded { .. }));
            }
        }
    }

    // Boolean routing agrees across all three strategies.
    #[test]
    fn planner_matches_direct_bool_eval(f in arb_formula()) {
        let g = Formula::exists("x", query_of(f).formula.clone());
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
        let (enum_direct, _, _) = EnumEngine::with_slack(2)
            .eval(&plan_query(&enum_plan), &db, &Deadline::unlimited())
            .expect("enum");
        let (enum_routed, _) = enum_plan.execute(&db).expect("routed enum");
        prop_assert_eq!(enum_routed, EvalOutput::Finite(enum_direct));
    }
}
