//! Differential property tests for fragment inference: the planner's
//! inferred strategy agrees with the legacy syntactic concat scan it
//! replaced on that scan's whole domain, and every strategy it routes
//! to — including the LIKE linear-scan fast path, which builds no
//! automaton — agrees with exact automaton evaluation on the output.

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_analyze::{fragments, EvalClass};
use strcalc_core::{
    AutomataEngine, Calculus, EvalOutput, Planner, Query, Strategy as PlanStrategy,
};
use strcalc_logic::{Atom, Formula, Lang, Term};
use strcalc_relational::Database;

fn ab() -> Alphabet {
    Alphabet::ab()
}

fn db() -> Database {
    let mut db = Database::new();
    db.insert_unary_parsed(&ab(), "R", &["", "a", "ab", "ba", "bab", "abab", "bb"])
        .unwrap();
    let s = |t: &str| ab().parse(t).unwrap();
    for (u, v) in [
        ("a", "ab"),
        ("ab", "ab"),
        ("ba", "b"),
        ("bab", "abab"),
        ("", "bb"),
        ("abb", "abb"),
    ] {
        db.insert("T", vec![s(u), s(v)]).unwrap();
    }
    db
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

    // Whatever the route — scan fast path or automata — the output
    // equals exact automaton evaluation of the same query.
    #[test]
    fn every_route_agrees_with_automaton_eval(
        p in 0..PATTERNS.len(),
        shape in 0usize..5,
    ) {
        let (f, head) = candidate(PATTERNS[p], shape);
        let q = Query::new(Calculus::SReg, ab(), head, f).expect("head = free vars");
        let db = db();
        let direct = AutomataEngine::new().eval(&q, &db).expect("direct eval");
        let plan = Planner::new().plan(&q).expect("plans");
        let (routed, report) = plan.execute(&db).expect("routed eval");
        if plan.strategy == PlanStrategy::LikeLinearScan {
            prop_assert_eq!(report.automaton_states, 0, "fast path built an automaton");
        }
        prop_assert_eq!(routed, direct);
    }

    // Sentence (boolean) routing agrees too: the scan answers an
    // existentially closed query by projecting to zero columns.
    #[test]
    fn boolean_routes_agree_with_automaton_eval(
        p in 0..PATTERNS.len(),
        shape in 0usize..5,
    ) {
        let (f, head) = candidate(PATTERNS[p], shape);
        let closed = head
            .iter()
            .rev()
            .fold(f, |g, v| Formula::exists(v.clone(), g));
        let q = Query::new(Calculus::SReg, ab(), vec![], closed).expect("sentence");
        let db = db();
        let direct = AutomataEngine::new().eval_bool(&q, &db).expect("direct");
        let (routed, _) = Planner::new()
            .plan(&q)
            .expect("plans")
            .execute(&db)
            .expect("routed");
        prop_assert_eq!(!routed.is_empty(), direct);
    }

    // The scan fast paths (linear and dense) and the forced automata
    // strategy agree on the same plan-level query — the strongest form
    // of "the scan changes the work, not the semantics".
    #[test]
    fn forced_automata_agrees_with_the_scan(p in 0..PATTERNS.len(), shape in 0usize..4) {
        let (f, head) = candidate(PATTERNS[p], shape);
        let class = fragments::eval_class(&head, &f);
        if matches!(class, EvalClass::LikeLinear(_) | EvalClass::LikeGeneral(_)) {
            let linear = matches!(class, EvalClass::LikeLinear(_));
            let q = Query::new(Calculus::SReg, ab(), head, f).expect("head = free vars");
            let db = db();
            let (scan, scan_report) = Planner::new()
                .plan(&q)
                .expect("plans")
                .execute(&db)
                .expect("scan eval");
            let (auto, _) = Planner::new()
                .force(PlanStrategy::Automata)
                .plan(&q)
                .expect("plans")
                .execute(&db)
                .expect("automata eval");
            if linear {
                prop_assert_eq!(scan_report.automaton_states, 0);
            } else {
                prop_assert_eq!(scan_report.strategy, PlanStrategy::DenseDfaScan);
                prop_assert!(scan_report.automaton_states > 0, "dense tables have states");
            }
            match (scan, auto) {
                (EvalOutput::Finite(a), EvalOutput::Finite(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "finiteness mismatch: {a:?} vs {b:?}"),
            }
        }
    }
}

/// Stored strings containing symbols outside the query alphabet denote
/// no string of `Σ*`: the automaton route drops such tuples wholesale
/// (the relation trie skips them, in *every* column), and the scan,
/// relational and collapse routes must agree rather than matching raw
/// bytes. Regressions: the linear matchers used to compare out-of-`Σ`
/// symbols literally, so a stored `"c"` matched `LIKE '%'` on the scan
/// route but not on the automaton route; and a bare `R(x)` returned the
/// out-of-`Σ` row on the automaton and collapse routes, while the
/// collapse route quantified over it.
#[test]
fn out_of_alphabet_rows_agree_with_the_automaton_route() {
    use strcalc_alphabet::Str;
    let s = |t: &str| ab().parse(t).unwrap();
    // Symbol 2 (`c`) is outside Σ = {a, b}.
    let c = || Str::from_syms(vec![2]);
    let ac = || Str::from_syms(vec![0, 2]);
    let mut db = Database::new();
    for row in [s(""), s("a"), s("ab"), s("aa"), c(), ac()] {
        db.insert("R", vec![row]).unwrap();
    }
    for (u, v) in [
        (s("a"), s("ab")),
        (s("ab"), s("ab")),
        (ac(), s("a")), // out-of-Σ in the filtered column
        (s("a"), ac()), // out-of-Σ in the *other* column only
        (c(), c()),
    ] {
        db.insert("T", vec![u, v]).unwrap();
    }
    // Patterns across both scan routes, `.*` included: under the ∅-
    // outside-Σ convention even the universal language rejects the
    // out-of-Σ rows.
    for pattern in ["a.*", ".*", ".*b", "b.*a.*", "(aa)*", "a.*.*b"] {
        for shape in 0..4 {
            let (f, head) = candidate(pattern, shape);
            let q = Query::new(Calculus::SReg, ab(), head, f).expect("head = free vars");
            let scan_plan = Planner::new().plan(&q).expect("plans");
            assert_ne!(
                scan_plan.strategy,
                PlanStrategy::Automata,
                "{pattern}/{shape} should route to a scan"
            );
            let (scan, _) = scan_plan.execute(&db).expect("scan eval");
            let (auto, _) = Planner::new()
                .force(PlanStrategy::Automata)
                .plan(&q)
                .expect("plans")
                .execute(&db)
                .expect("automata eval");
            match (scan, auto) {
                (EvalOutput::Finite(a), EvalOutput::Finite(b)) => {
                    assert_eq!(a, b, "{pattern}/{shape} disagrees on out-of-Σ rows")
                }
                (a, b) => panic!("finiteness mismatch: {a:?} vs {b:?}"),
            }
        }
    }
    // Shapes no scan takes, on forced automata, the default route and
    // forced collapse.
    let mut db = Database::new();
    db.insert("R", vec![s("ab")]).unwrap();
    db.insert("R", vec![ac()]).unwrap();
    for (head, src, want) in [
        (&["x"][..], "R(x)", 1),
        (&[][..], "exists y. (R(y) & !last(y, 'b'))", 0),
        (&["x"][..], "R(x) & !last(x, 'b')", 0),
        (&[][..], "existsA y. !last(y, 'b')", 0),
    ] {
        let head = head.iter().map(|h| h.to_string()).collect();
        let q = Query::parse(Calculus::S, ab(), head, src).expect("parses");
        for planner in [
            Planner::new().force(PlanStrategy::Automata),
            Planner::new(),
            Planner::new().force(PlanStrategy::ActiveDomainEnum),
        ] {
            let plan = planner.plan(&q).expect("plans");
            let (out, _) = plan.execute(&db).expect("runs");
            let out = out.expect_finite();
            assert_eq!(out.len(), want, "{src} on {}", plan.strategy.name());
        }
    }
}
