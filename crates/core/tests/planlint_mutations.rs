//! Mutation-style tests for planlint: every plan the planner produces
//! verifies cleanly, and plans corrupted after planning — swapped
//! arities, grafted alphabets, stale cache keys, wrong root operators,
//! relational filters moved ahead of the generators that bind their
//! variables — are rejected with the
//! matching SA2xx code, both by a direct [`PlanChecker`] run and by the
//! execute-time lint gate.

use std::sync::Arc;

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_analyze::Code;
use strcalc_core::plan::PlanChecker;
use strcalc_core::{
    AutomataEngine, AutomatonCache, Calculus, CoreError, Plan, PlanNode, PlanOp, Planner, Query,
};
use strcalc_logic::{Formula, Term};
use strcalc_relational::Database;

/// Random formulas with free variable `x` over the S/S_len signature
/// (mirrors the planner differential generator).
fn arb_formula() -> impl Strategy<Value = Formula> {
    let x = || Term::var("x");
    let y = || Term::var("y");
    let leaf = prop_oneof![
        Just(Formula::rel("R", vec![x()])),
        Just(Formula::rel("R", vec![y()])),
        Just(Formula::prefix(x(), y())),
        Just(Formula::eq(x(), y())),
        Just(Formula::eq_len(x(), y())),
        Just(Formula::last_sym(x(), 0)),
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

/// Pin `x` free and close over a leftover `y` so the head is stable.
fn query_of(f: Formula) -> Query {
    let pinned = f.and(Formula::eq(Term::var("x"), Term::var("x")));
    let closed = if pinned.free_vars().contains("y") {
        Formula::exists("y", pinned)
    } else {
        pinned
    };
    Query::new(Calculus::SLen, Alphabet::ab(), vec!["x".into()], closed).expect("head = free vars")
}

fn db() -> Database {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "U", &["ab", "ba", "a"])
        .unwrap();
    db
}

fn probe() -> Plan {
    let q = Query::parse(
        Calculus::S,
        Alphabet::ab(),
        vec!["x".into()],
        "exists y. (U(y) & x <= y)",
    )
    .unwrap();
    Planner::new()
        .force(strcalc_core::Strategy::Automata)
        .plan(&q)
        .unwrap()
}

/// Pre-order mutable visitor (test-local; the crate's own is cfg(test)).
fn visit_mut(node: &mut PlanNode, f: &mut impl FnMut(&mut PlanNode)) {
    f(node);
    for c in &mut node.children {
        visit_mut(c, f);
    }
}

/// Asserts that the direct checker flags `code` on the corrupted plan
/// and that the execute-time lint gate rejects it with the same code.
fn assert_rejected(plan: &Plan, code: Code) {
    let report = PlanChecker::for_plan(plan).check(&plan.root);
    assert!(
        report.error_codes().contains(&code),
        "expected {code:?}, got {:?}",
        report.error_codes()
    );
    match plan.execute(&db()) {
        Err(CoreError::PlanRejected { stage, diagnostics }) => {
            assert_eq!(stage, "execute");
            assert!(
                diagnostics.iter().any(|d| d.contains(code.as_str())),
                "expected {} in {diagnostics:?}",
                code.as_str()
            );
        }
        other => panic!("expected PlanRejected, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Every planner-produced plan passes planlint, for every strategy
    // the formula admits.
    #[test]
    fn planner_plans_lint_clean(f in arb_formula()) {
        let q = query_of(f);
        for planner in [
            Planner::new(),
            Planner::for_engine(
                &AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new())),
            ),
            Planner::new().force(strcalc_core::Strategy::ActiveDomainEnum),
        ] {
            let plan = planner.plan(&q).expect("planner output is verified");
            let report = PlanChecker::for_plan(&plan).check(&plan.root);
            prop_assert!(!report.has_errors(), "{:?}", report.diagnostics);
        }
    }
}

#[test]
fn sa200_dropped_product_child_is_rejected() {
    let mut plan = probe();
    visit_mut(&mut plan.root, &mut |n| {
        if n.op == PlanOp::Product && n.children.len() >= 2 {
            n.children.pop();
        }
    });
    assert_rejected(&plan, Code::PlanOperatorArity);
}

#[test]
fn sa201_corrupted_tracks_are_rejected() {
    let mut plan = probe();
    visit_mut(&mut plan.root, &mut |n| {
        if n.op == PlanOp::Product {
            n.vars.push("zzz".into());
        }
    });
    assert_rejected(&plan, Code::PlanTrackMismatch);
}

#[test]
fn sa202_grafted_alphabet_leaf_is_rejected() {
    let mut plan = probe();
    visit_mut(&mut plan.root, &mut |n| {
        if let PlanOp::CompileAutomaton { alphabet_fp, .. } = &mut n.op {
            *alphabet_fp ^= 0xdead_beef;
        }
    });
    assert_rejected(&plan, Code::PlanAlphabetMismatch);
}

#[test]
fn sa204_stale_cache_key_is_rejected() {
    let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    let q = Query::parse(
        Calculus::S,
        Alphabet::ab(),
        vec!["x".into()],
        "exists y. (U(y) & x <= y)",
    )
    .unwrap();
    let mut plan = Planner::for_engine(&engine).plan(&q).unwrap();
    let mut seen = false;
    visit_mut(&mut plan.root, &mut |n| {
        if let PlanOp::CacheLookup { formula_fp } = &mut n.op {
            *formula_fp ^= 1;
            seen = true;
        }
    });
    assert!(seen, "a cached automata plan carries a CacheLookup");
    assert_rejected(&plan, Code::PlanCacheKeyMismatch);
}

#[test]
fn sa205_wrong_root_operator_is_rejected() {
    let mut plan = probe();
    plan.root.op = PlanOp::BoundedSearch { budget: 4 };
    assert_rejected(&plan, Code::PlanStrategyMismatch);
}

/// A relational plan: `Relational → Project y → Product[Generate y ←
/// U(y), Generate x ← x <= y, filter]`, the filter being `last(x,'a')`
/// or its negation.
fn relational_probe(filter: &str) -> Plan {
    let q = Query::parse(
        Calculus::S,
        Alphabet::ab(),
        vec!["x".into()],
        &format!("exists y. (U(y) & x <= y & {filter})"),
    )
    .unwrap();
    let plan = Planner::new().plan(&q).unwrap();
    assert!(matches!(plan.root.op, PlanOp::Relational));
    plan
}

/// Moves the last child of every `Product` to the front: the filter
/// then runs before the generators that bind its variables.
fn filter_first(plan: &mut Plan) {
    visit_mut(&mut plan.root, &mut |n| {
        if n.op == PlanOp::Product {
            if let Some(filter) = n.children.pop() {
                n.children.insert(0, filter);
            }
        }
    });
}

#[test]
fn sa201_filter_before_its_generate_is_rejected() {
    let mut plan = relational_probe("last(x,'a')");
    filter_first(&mut plan);
    assert_rejected(&plan, Code::PlanTrackMismatch);
}

#[test]
fn sa201_negation_before_its_generate_is_rejected() {
    let mut plan = relational_probe("!last(x,'a')");
    let mut negated = false;
    plan.root
        .visit(&mut |n| negated |= matches!(n.op, PlanOp::Complement));
    assert!(negated, "the negated filter lowers to a Complement");
    filter_first(&mut plan);
    assert_rejected(&plan, Code::PlanTrackMismatch);
}

#[test]
fn sa201_dropped_generate_is_rejected() {
    let mut plan = relational_probe("last(x,'a')");
    visit_mut(&mut plan.root, &mut |n| {
        if n.op == PlanOp::Product {
            n.children
                .retain(|c| !matches!(&c.op, PlanOp::Generate { var, .. } if var.as_str() == "x"));
        }
    });
    assert_rejected(&plan, Code::PlanTrackMismatch);
}

#[test]
fn sa205_relational_root_under_another_strategy_is_rejected() {
    let mut plan = relational_probe("last(x,'a')");
    plan.strategy = strcalc_core::Strategy::Automata;
    assert_rejected(&plan, Code::PlanStrategyMismatch);
    // A Generate leaf grafted into an automata plan is refused too.
    let mut automata = probe();
    visit_mut(&mut automata.root, &mut |n| {
        if let PlanOp::CompileAutomaton { label, .. } = &n.op {
            if label.starts_with('U') {
                n.op = PlanOp::Generate {
                    var: "y".into(),
                    label: label.clone(),
                };
            }
        }
    });
    assert_rejected(&automata, Code::PlanStrategyMismatch);
}

#[test]
fn sa206_corrupted_dense_threshold_is_rejected() {
    // `(aa)*` is not LIKE-shaped, so the filter densifies.
    let q = Query::parse(
        Calculus::SReg,
        Alphabet::ab(),
        vec!["x".into()],
        "U(x) & in(x, /(aa)*/)",
    )
    .unwrap();
    let mut plan = Planner::new().plan(&q).unwrap();
    assert_eq!(plan.strategy, strcalc_core::Strategy::DenseDfaScan);
    let mut seen = false;
    visit_mut(&mut plan.root, &mut |n| {
        if let PlanOp::DenseScan { threshold, .. } = &mut n.op {
            *threshold = 0;
            seen = true;
        }
    });
    assert!(seen, "the dense route roots in a DenseScan node");
    assert_rejected(&plan, Code::PlanDenseOverThreshold);
}

#[test]
fn sa305_grafted_dense_scan_plan_is_rejected() {
    let plan_for = |re: &str| {
        let q = Query::parse(
            Calculus::SReg,
            Alphabet::ab(),
            vec!["x".into()],
            &format!("U(x) & in(x, /{re}/)"),
        )
        .unwrap();
        Planner::new().plan(&q).unwrap()
    };
    let a = plan_for("(aa)*");
    let b = plan_for("(bb)*");
    assert_eq!(a.strategy, strcalc_core::Strategy::DenseDfaScan);
    let mut forged = a.clone();
    forged.root.op = b.root.op.clone();
    assert_rejected(&forged, Code::PlanFragmentMismatch);
}

#[test]
fn verified_plans_render_their_certificates() {
    let plan = probe();
    let text = plan.explain_text();
    assert!(text.contains("certificate: states ≤"), "{text}");
    assert!(
        text.contains("passes: rewrite no-op — simplify is identity\n"),
        "{text}"
    );
    let json = plan.explain_json();
    let cert = plan.certificate().expect("automata plans are certified");
    let pinned = format!(
        "\"certificate\":{{\"states\":{},\"bytes\":{}}}",
        cert.states, cert.bytes
    );
    assert!(json.contains(&pinned), "{json}");
    assert!(
        json.contains(
            "\"passes\":[{\"pass\":\"rewrite\",\"changed\":false,\"detail\":\"simplify is identity\"}]"
        ),
        "{json}"
    );
}
