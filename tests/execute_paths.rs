//! The one execution path, per strategy: for each of the five
//! strategies an open query and a sentence (a 0-ary query) run through
//! `Plan::execute` over a small fixed database, against answers written
//! out by hand. A sentence's answer is the 0-ary relation: `{()}` when
//! it holds, `∅` otherwise. The relational route — the default for
//! safe-range formulas — is checked against the forced automata route.

use std::sync::Arc;
use strcalc::analyze::Code;

use strcalc::core::{
    AutomataEngine, AutomatonCache, Budget, DegradationPolicy, ExecCx, FaultPlan, Plan, PlanOp,
    Planner, Strategy,
};
use strcalc::logic::parse_formula;
use strcalc::prelude::*;
use strcalc::sqlfront::{compile_select, parse_select, Catalog};

/// `U = {a, ab, aab, ba, bb}` over `{a, b}`.
fn db() -> Database {
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "U", &["a", "ab", "aab", "ba", "bb"])
        .unwrap();
    db
}

/// Plans `src` with the head variables `head` through `planner`; the
/// concatenation formulas take the raw-formula entry, like every caller
/// that plans `RC_concat`.
fn plan(planner: &Planner, head: &[&str], src: &str) -> Plan {
    let ab = Alphabet::ab();
    let head: Vec<String> = head.iter().map(|h| h.to_string()).collect();
    let formula = parse_formula(&ab, src).unwrap();
    planner.plan_formula(&ab, &head, &formula).unwrap()
}

/// Runs `plan`, checks that it took `strategy` and answered exactly,
/// and returns the answer with the tuple count the report gave.
fn run(plan: &Plan, strategy: Strategy) -> (Relation, usize) {
    assert_eq!(plan.strategy, strategy);
    let (out, report) = plan.execute(&db()).unwrap();
    assert!(report.verdict.is_exact(), "{}", report.summary());
    assert!(report.degradations.is_empty(), "{}", report.summary());
    (out.expect_finite(), report.tuples_enumerated)
}

/// Checks an open query's answer against the unary tuples `expected`.
fn check_open(planner: &Planner, strategy: Strategy, src: &str, expected: &[&str]) {
    let (answer, tuples) = run(&plan(planner, &["x"], src), strategy);
    let ab = Alphabet::ab();
    let expected = Relation::from_tuples(1, expected.iter().map(|s| vec![ab.parse(s).unwrap()]));
    assert_eq!(answer, expected, "{src}");
    assert_eq!(tuples, expected.len(), "{src}");
}

/// Checks a sentence's truth: its answer is the 0-ary relation, and it
/// enumerates no tuples.
fn check_sentence(planner: &Planner, strategy: Strategy, src: &str, holds: bool) {
    let (answer, tuples) = run(&plan(planner, &[], src), strategy);
    assert_eq!(answer.arity(), 0, "{src}");
    assert_eq!(answer.len(), usize::from(holds), "{src}");
    assert_eq!(tuples, 0, "{src}");
}

#[test]
fn automata() {
    // The default planner keeps a formula on automata when a variable
    // has no generator: here `y` ranges over all of Σ*. Every stored
    // string has a proper extension that is not stored.
    let p = Planner::new();
    check_open(
        &p,
        Strategy::Automata,
        "U(x) & exists y. (x < y & !U(y))",
        &["a", "ab", "aab", "ba", "bb"],
    );
    // b ends in 'b' and is not stored.
    check_sentence(
        &p,
        Strategy::Automata,
        "exists y. (last(y, 'b') & !U(y))",
        true,
    );
    // Forced, it evaluates the safe-range formulas too.
    let forced = Planner::new().force(Strategy::Automata);
    // The strict prefixes of stored strings.
    check_open(
        &forced,
        Strategy::Automata,
        "exists y. (U(y) & x < y)",
        &["", "a", "aa", "b"],
    );
    // a < ab.
    check_sentence(
        &forced,
        Strategy::Automata,
        "exists x. exists y. (U(x) & U(y) & x < y)",
        true,
    );
}

#[test]
fn degraded_automata_sentences() {
    // A sentence that holds (a < ab), forced to automata and denied its
    // compile two ways: a starved budget (SA401) and an injected compile
    // abort (SA413). Each falls back to the bounded collapse domain and,
    // like every exact run, answers {()} with no tuples enumerated.
    let sentence = plan(
        &Planner::new().force(Strategy::Automata),
        &[],
        "exists x. exists y. (U(x) & U(y) & x < y)",
    );
    let starved = ExecCx::production().with_budget(Budget {
        states: 1,
        ..Budget::unlimited()
    });
    let aborted = ExecCx::production().with_faults(FaultPlan {
        abort_compile: true,
        ..FaultPlan::none()
    });
    for (cx, code) in [
        (starved, Code::DegradedExactToBounded),
        (aborted, Code::DeadlineCompileAborted),
    ] {
        let (out, report) = sentence.execute_in(&db(), &cx).unwrap();
        assert!(
            report.degradations.iter().any(|d| d.code == code),
            "{}",
            report.summary()
        );
        assert!(!report.verdict.is_exact());
        let answer = out.expect_finite();
        assert_eq!((answer.arity(), answer.len()), (0, 1), "{code:?}");
        assert_eq!(report.tuples_enumerated, 0, "{code:?}");
    }
    // A budget with unlimited states and one byte: the SA401 detail
    // names the first node whose certificate it refuses, and only the
    // refused dimension.
    let narrow_bytes = ExecCx::production().with_budget(Budget {
        bytes: 1,
        ..Budget::unlimited()
    });
    let (out, report) = sentence.execute_in(&db(), &narrow_bytes).unwrap();
    assert_eq!(out.expect_finite().len(), 1);
    let exhausted = report.ledger.entries.iter().find(|e| !e.within).unwrap();
    let sa401 = report
        .degradations
        .iter()
        .find(|d| d.code == Code::DegradedExactToBounded)
        .unwrap();
    assert_eq!(sa401.node, exhausted.node);
    let row = format!("{} {}: certified bytes ≤", exhausted.node, exhausted.op);
    assert!(sa401.detail.starts_with(&row), "{}", sa401.detail);
    let refused = "exceed the budget's ≤1;";
    assert!(sa401.detail.contains(refused), "{}", sa401.detail);
    assert!(!sa401.detail.contains("states"), "{}", sa401.detail);
}

#[test]
fn warm_cached_read_ignores_a_narrowed_budget() {
    // A resident artifact costs nothing to serve, so once a cold run has
    // compiled it, a budget far below the plan's certificate still reads
    // it exactly — under either policy.
    let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    let cached = plan(
        &Planner::for_engine(&engine).force(Strategy::Automata),
        &["x"],
        "exists y. (U(y) & x <= y)",
    );
    let (cold, report) = cached.execute(&db()).unwrap();
    assert!(!report.cache_hit, "{}", report.summary());
    let narrow = Budget {
        states: 2,
        bytes: 2,
        ..Budget::unlimited()
    };
    for budget in [narrow, narrow.with_policy(DegradationPolicy::Fail)] {
        let cx = ExecCx::production().with_budget(budget);
        let (warm, report) = cached.execute_in(&db(), &cx).unwrap();
        assert!(report.verdict.is_exact(), "{}", report.summary());
        assert!(report.cache_hit, "{}", report.summary());
        assert!(report.degradations.is_empty(), "{}", report.summary());
        assert!(report.ledger.all_within(), "{}", report.summary());
        assert_eq!(warm, cold);
    }
}

/// Checks that the default planner sends `plan` down the relational
/// route and that it answers exactly as the forced automata route.
fn check_relational(default: &Plan, automata: &Plan, db: &Database) {
    assert!(matches!(default.root.op, PlanOp::Relational));
    let (out, report) = default.execute(db).unwrap();
    assert!(report.verdict.is_exact(), "{}", report.summary());
    assert!(report.degradations.is_empty(), "{}", report.summary());
    assert_eq!(report.automaton_states, 0);
    assert_eq!(automata.strategy, Strategy::Automata);
    let (expected, _) = automata.execute(db).unwrap();
    assert_eq!(out, expected, "{}", default.explain_text());
}

#[test]
fn relational() {
    let p = Planner::new();
    // The strict prefixes of stored strings, each bound from the stored
    // string it prefixes.
    check_open(
        &p,
        Strategy::ActiveDomainEnum,
        "exists y. (U(y) & x < y)",
        &["", "a", "aa", "b"],
    );
    check_sentence(
        &p,
        Strategy::ActiveDomainEnum,
        "exists x. exists y. (U(x) & U(y) & x < y)",
        true,
    );

    // The seven reads of the `short_stmt` benchmark that built product
    // automata before this route: the four fig. 2 probes, the prefix
    // join, and the two EXISTS … PREFIX statements.
    let ab = Alphabet::ab();
    let mut db = db();
    db.insert_unary_parsed(&ab, "R", &["a", "ab", "b", "aba", "bab"])
        .unwrap();
    let forced = Planner::new().force(Strategy::Automata);
    for (head, src) in [
        (&["x"][..], "exists y. (U(y) & x <= y & last(x,'a'))"),
        (&["x"][..], "exists y. (U(y) & fa(y, x, 'a'))"),
        (&["x"][..], "exists y. (U(y) & pl(x, y, /(ab)*/))"),
        (&["x"][..], "exists y. (U(y) & el(x, y) & last(x,'a'))"),
        (&["x", "y"][..], "R(x) & in(x, /a.*/) & x <= y & R(y)"),
    ] {
        check_relational(&plan(&p, head, src), &plan(&forced, head, src), &db);
    }
    let mut catalog = Catalog::new();
    catalog.add_table("faculty", &["name", "dept"]);
    catalog.add_table("dept", &["head"]);
    for (name, dept) in [("abba", "ab"), ("ba", "ba"), ("aab", "abb"), ("b", "ab")] {
        db.insert(
            "faculty",
            vec![ab.parse(name).unwrap(), ab.parse(dept).unwrap()],
        )
        .unwrap();
    }
    db.insert_unary_parsed(&ab, "dept", &["ab", "b", "aa"])
        .unwrap();
    for like in ["ab%", "ba%"] {
        let sql = format!(
            "SELECT f.name FROM faculty f WHERE EXISTS \
             (SELECT d.head FROM dept d WHERE PREFIX(d.head, f.name)) \
             AND f.dept LIKE '{like}'"
        );
        let compiled = compile_select(&ab, &catalog, &parse_select(&ab, &sql).unwrap()).unwrap();
        check_relational(
            &compiled.plan(&p).unwrap(),
            &compiled.plan(&forced).unwrap(),
            &db,
        );
    }
}

#[test]
fn active_domain_enum() {
    let p = Planner::new().force(Strategy::ActiveDomainEnum);
    check_open(
        &p,
        Strategy::ActiveDomainEnum,
        "U(x) & last(x, 'b')",
        &["ab", "aab", "bb"],
    );
    // a and ba end in 'a'.
    check_sentence(
        &p,
        Strategy::ActiveDomainEnum,
        "forall x. (U(x) -> last(x, 'b'))",
        false,
    );
}

#[test]
fn bounded_search() {
    let p = Planner::new().with_bound(3);
    // bb = b·b is the only stored square.
    check_open(
        &p,
        Strategy::BoundedSearch,
        "exists z. (U(z) & concat(x, x, z))",
        &["b"],
    );
    check_sentence(
        &p,
        Strategy::BoundedSearch,
        "exists x. exists z. (U(z) & concat(x, x, z))",
        true,
    );
    // No stored string is a square of a stored string.
    check_sentence(
        &p,
        Strategy::BoundedSearch,
        "exists x. exists z. (U(x) & U(z) & concat(x, x, z))",
        false,
    );
}

#[test]
fn like_scan() {
    let p = Planner::new();
    check_open(
        &p,
        Strategy::LikeLinearScan,
        "U(x) & in(x, /a.*/)",
        &["a", "ab", "aab"],
    );
    check_sentence(
        &p,
        Strategy::LikeLinearScan,
        "exists x. (U(x) & in(x, /.*ba/))",
        true,
    );
}

#[test]
fn dense_scan() {
    let p = Planner::new();
    check_open(
        &p,
        Strategy::DenseDfaScan,
        "U(x) & in(x, /(aa)*b/)",
        &["aab"],
    );
    // No stored string is an even run of a's.
    check_sentence(
        &p,
        Strategy::DenseDfaScan,
        "exists x. (U(x) & in(x, /(aa)*/))",
        false,
    );
}
