//! Differential property tests for fragment inference: the planner's
//! inferred strategy agrees with the legacy syntactic concat scan it
//! replaced on that scan's whole domain, and its routing is exactly the
//! inferred evaluation class. `tests/oracle.rs` at the workspace root
//! checks every route's answers against the oracle.

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_analyze::{fragments, EvalClass};
use strcalc_core::{Planner, Strategy as PlanStrategy};
use strcalc_logic::{Atom, Formula, Lang, Term};

fn ab() -> Alphabet {
    Alphabet::ab()
}

/// LIKE-shaped patterns across the whole Petersen taxonomy (prefix,
/// suffix, infix, fixed-length, literal, any, prefix+suffix), plus
/// shapes that fall outside the linear class (`b.*a.*` mixes a leading
/// literal with a middle segment; `(aa)*` is not LIKE-shaped at all) so
/// both routing outcomes are exercised.
const PATTERNS: &[&str] = &[
    "a.*", ".*b", ".*ab.*", "a.b", "ab", ".*", "a.*.*b", "b.*a.*", "(aa)*",
];

fn lang(pattern: &str) -> Lang {
    let regex = strcalc_automata::Regex::parse(&ab(), pattern).expect("pattern parses");
    Lang::named(format!("LIKE {pattern}"), regex)
}

/// Scan-candidate formulas: a stored-relation atom, a LIKE filter, and
/// (optionally) structure that keeps or evicts the formula from the
/// linear class — an alias chain (stays linear) or a prefix comparison
/// (not scannable, falls back to automata).
fn candidate(pattern: &str, shape: usize) -> (Formula, Vec<String>) {
    let x = || Term::var("x");
    let y = || Term::var("y");
    let z = || Term::var("z");
    match shape {
        // R(x) ∧ x ∈ L — the bare unary lookup.
        0 => (
            Formula::rel("R", vec![x()]).and(Formula::in_lang(x(), lang(pattern))),
            vec!["x".into()],
        ),
        // ∃y (T(y, x) ∧ y ∈ L) — filter on a projected-away column.
        1 => (
            Formula::exists(
                "y",
                Formula::rel("T", vec![y(), x()]).and(Formula::in_lang(y(), lang(pattern))),
            ),
            vec!["x".into()],
        ),
        // ∃y (T(x, y) ∧ y = z ∧ z ∈ L) — alias chain into the filter.
        2 => (
            Formula::exists(
                "y",
                Formula::rel("T", vec![x(), y()])
                    .and(Formula::eq(y(), z()))
                    .and(Formula::in_lang(z(), lang(pattern))),
            ),
            vec!["x".into(), "z".into()],
        ),
        // T(x, x) ∧ x ∈ L — repeated column (an eq_cols constraint).
        3 => (
            Formula::rel("T", vec![x(), x()]).and(Formula::in_lang(x(), lang(pattern))),
            vec!["x".into()],
        ),
        // R(x) ∧ x ∈ L ∧ x ⪯ y ∧ R(y) — the comparison atom is not
        // scannable; inference must fall back to automata.
        _ => (
            Formula::rel("R", vec![x()])
                .and(Formula::in_lang(x(), lang(pattern)))
                .and(Formula::prefix(x(), y()))
                .and(Formula::rel("R", vec![y()])),
            vec!["x".into(), "y".into()],
        ),
    }
}

/// The syntactic concat scan `Planner::strategy_for` replaced, kept
/// verbatim as the differential baseline.
fn legacy_has_concat(f: &Formula) -> bool {
    let mut found = false;
    f.visit(&mut |sub| {
        if matches!(sub, Formula::Atom(Atom::ConcatEq(..))) {
            found = true;
        }
    });
    found
}

/// Random formulas over the legacy pool (no language atoms): exactly
/// the domain on which the old syntactic scan decided the strategy.
fn arb_legacy_formula() -> impl Strategy<Value = Formula> {
    let x = || Term::var("x");
    let y = || Term::var("y");
    let leaf = prop_oneof![
        Just(Formula::rel("R", vec![x()])),
        Just(Formula::rel("R", vec![y()])),
        Just(Formula::prefix(x(), y())),
        Just(Formula::eq(x(), y())),
        Just(Formula::last_sym(x(), 0)),
        Just(Formula::concat_eq(x(), x(), y())),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // On the legacy scan's domain (no language atoms anywhere), the
    // inferred strategy is exactly what the syntactic ConcatEq scan
    // chose: bounded search iff a ConcatEq atom occurs, else automata.
    #[test]
    fn inferred_strategy_matches_the_legacy_scan(f in arb_legacy_formula()) {
        let strategy = Planner::new().strategy_for(&f, 2).expect("tame or concat");
        if legacy_has_concat(&f) {
            prop_assert_eq!(strategy, PlanStrategy::BoundedSearch);
        } else {
            // Exact automata, or the relational route when every
            // variable has a generator.
            prop_assert!(
                matches!(strategy, PlanStrategy::Automata | PlanStrategy::ActiveDomainEnum),
                "{strategy:?}"
            );
        }
    }

    // The planner's routing is exactly the inferred evaluation class:
    // linear scan iff fragment inference derives a scan plan.
    #[test]
    fn routing_agrees_with_the_inferred_class(
        p in 0..PATTERNS.len(),
        shape in 0usize..5,
    ) {
        let (f, head) = candidate(PATTERNS[p], shape);
        let strategy = Planner::new().strategy_for(&f, 2).expect("never concat");
        match fragments::eval_class(&head, &f) {
            EvalClass::LikeLinear(_) => prop_assert_eq!(strategy, PlanStrategy::LikeLinearScan),
            // The pool's general-class patterns are tiny, so their
            // state bounds always fit the default threshold.
            EvalClass::LikeGeneral(_) => prop_assert_eq!(strategy, PlanStrategy::DenseDfaScan),
            EvalClass::AutomataTame => prop_assert!(
                matches!(strategy, PlanStrategy::Automata | PlanStrategy::ActiveDomainEnum),
                "{strategy:?}"
            ),
            EvalClass::ConcatBounded => prop_assert!(false, "no ConcatEq in the pool"),
        }
    }
}
