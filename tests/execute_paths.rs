//! The one execution path, per strategy: for each of the five
//! strategies an open query and a sentence (a 0-ary query) run through
//! `Plan::execute` over a small fixed database, against answers written
//! out by hand. A sentence's answer is the 0-ary relation: `{()}` when
//! it holds, `∅` otherwise.

use strcalc::core::{Plan, Planner, Strategy};
use strcalc::logic::parse_formula;
use strcalc::prelude::*;

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
    let p = Planner::new();
    // The strict prefixes of stored strings.
    check_open(
        &p,
        Strategy::Automata,
        "exists y. (U(y) & x < y)",
        &["", "a", "aa", "b"],
    );
    // a < ab.
    check_sentence(
        &p,
        Strategy::Automata,
        "exists x. exists y. (U(x) & U(y) & x < y)",
        true,
    );
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
