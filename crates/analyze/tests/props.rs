//! Property-based tests for the static analyzer.
//!
//! The load-bearing property is soundness of the safe-range pass: it
//! must *under*-approximate safety, i.e. whenever the dynamic
//! state-safety check (decidable per database, Proposition 7) finds an
//! infinite output, the static pass must already have flagged the query.
//! The converse direction is impossible to demand — safety is
//! undecidable (Theorem 3) — so the static pass is allowed false alarms,
//! never false silences.

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_analyze::{Analysis, Analyzer, Code, FactSheet, FragmentPoint};
use strcalc_automata::Regex;
use strcalc_core::safety::state_safety;
use strcalc_core::{AutomataEngine, Calculus, Query};
use strcalc_logic::{Formula, Lang, StructureClass, Term};
use strcalc_relational::Database;

/// Random formulas over the variables {x, y} in the `S_len` signature:
/// everything the dynamic corpus can express short of concatenation.
fn arb_formula() -> impl Strategy<Value = Formula> {
    let x = || Term::var("x");
    let y = || Term::var("y");
    let leaf = prop_oneof![
        Just(Formula::rel("R", vec![Term::var("x")])),
        Just(Formula::rel("R", vec![Term::var("y")])),
        Just(Formula::prefix(x(), y())),
        Just(Formula::prefix(y(), x())),
        Just(Formula::eq(x(), y())),
        Just(Formula::eq_len(x(), y())),
        Just(Formula::last_sym(x(), 0)),
        Just(Formula::lex_leq(x(), y())),
        Just(Formula::cover(x(), y())),
        Just(Formula::True),
        Just(Formula::False),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            inner.clone().prop_map(Formula::not),
            // Quantify y (possibly shadowing) — keeps x free.
            inner.prop_map(|f| Formula::exists("y", f)),
        ]
    })
}

/// Two to five conjuncts: [`arb_formula`]s mixed with language atoms
/// (finite, LIKE-shaped and not star-free), so language finiteness and
/// the LIKE classifier take part in the conjunction fixpoint.
fn arb_conjuncts() -> impl Strategy<Value = Vec<Formula>> {
    let lang = |var: &str, src: &str| {
        let re = Regex::parse(&Alphabet::ab(), src).expect("test regex parses");
        Formula::in_lang(Term::var(var), Lang::named(src, re))
    };
    let part = prop_oneof![
        arb_formula(),
        Just(lang("x", "ab|ba")),
        Just(lang("y", "a.*")),
        Just(lang("x", "(aa)*")),
    ];
    prop::collection::vec(part, 2..=5)
}

/// `p₁ ∧ (p₂ ∧ (… ∧ pₙ))`.
fn chain_right(parts: &[Formula]) -> Formula {
    parts
        .iter()
        .rev()
        .cloned()
        .reduce(|acc, p| p.and(acc))
        .expect("at least one conjunct")
}

/// `((p₁ ∧ p₂) ∧ …) ∧ pₙ`.
fn chain_left(parts: &[Formula]) -> Formula {
    parts
        .iter()
        .cloned()
        .reduce(|acc, p| acc.and(p))
        .expect("at least one conjunct")
}

/// What re-associating or commuting a conjunction must not change.
fn verdicts(a: &Analysis) -> (Vec<String>, FragmentPoint, Vec<Code>) {
    let mut codes: Vec<Code> = a.diagnostics.iter().map(|d| d.code).collect();
    codes.sort();
    (
        a.safe_range.restricted.iter().cloned().collect(),
        a.fragment.root,
        codes,
    )
}

fn db() -> Database {
    let sigma = Alphabet::ab();
    let mut db = Database::new();
    for w in ["a", "ab", "ba"] {
        db.insert("R", vec![sigma.parse(w).unwrap()]).unwrap();
    }
    db
}

/// The structure class a formula's fact sheet infers.
fn inferred(f: &Formula) -> StructureClass {
    let head: Vec<String> = f.free_vars().into_iter().collect();
    FactSheet::build(f, &head, 2).inferred
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Signature inference is monotone under subformula embedding: a
    // subformula can never need a *larger* calculus than the formula
    // containing it (inference joins over atoms, and a subformula's
    // atoms are a subset).
    #[test]
    fn signature_inference_is_monotone(f in arb_formula()) {
        let whole = inferred(&f);
        let mut subs: Vec<Formula> = Vec::new();
        f.visit(&mut |sub| subs.push(sub.clone()));
        for sub in &subs {
            let part = inferred(sub);
            prop_assert!(
                part.leq(whole),
                "subformula needs {part:?} but the whole formula only {whole:?}\n\
                 whole: {f:?}\nsub: {sub:?}"
            );
        }
        // Embedding into a larger context is monotone too.
        let wrapped = Formula::exists("z", f.clone().and(Formula::True));
        prop_assert!(whole.leq(inferred(&wrapped)));
    }

    // Soundness: any query the *dynamic* state-safety check finds
    // unsafe on the test database was already flagged by the *static*
    // range-restriction pass. (Contrapositive: statically clean ⇒
    // finite output on every database.)
    #[test]
    fn dynamic_unsafe_implies_static_flag(f in arb_formula()) {
        let sigma = Alphabet::ab();
        // Pin x free without restricting it (x = x adds no flow).
        let pinned = f.and(Formula::eq(Term::var("x"), Term::var("x")));
        let head: Vec<String> = pinned.free_vars().into_iter().collect();
        let query = Query::new(Calculus::SLen, sigma.clone(), head, pinned.clone())
            .expect("corpus stays inside RC(S_len)");

        let verdict = state_safety(&AutomataEngine::new(), &query, &db())
            .expect("evaluation succeeds");
        if !verdict.is_safe() {
            let analysis = Analyzer::new(StructureClass::SLen).analyze(&sigma, &pinned);
            prop_assert!(
                !analysis.safe_range.unrestricted_free.is_empty(),
                "dynamically infinite but every free variable statically \
                 restricted: {pinned:?}"
            );
            let flagged = analysis
                .with_code(Code::FreeVarNotRangeRestricted)
                .any(|d| d.severity >= strcalc_analyze::Severity::Warning);
            prop_assert!(flagged, "no SA010 warning for unsafe query: {pinned:?}");
        }
    }

    // The conjunction fixpoint computes one least fixpoint whatever the
    // shape of the chain: re-associating or reordering the conjuncts, at
    // the top level or under a quantifier, changes neither the
    // restricted set, the root lattice point nor the diagnostic codes.
    // The fragment table ends with the root's point.
    #[test]
    fn conjunction_shape_leaves_the_verdicts_unchanged(
        parts in arb_conjuncts(),
        rot in 0usize..5,
    ) {
        let sigma = Alphabet::ab();
        let analyzer = Analyzer::new(StructureClass::SLen);
        let mut rotated = parts.clone();
        rotated.rotate_left(rot % parts.len());
        let mut reversed = parts.clone();
        reversed.reverse();
        let shapes = [
            chain_right(&parts),
            chain_left(&rotated),
            chain_right(&reversed),
        ];
        for wrap in [false, true] {
            let quantify = |f: Formula| if wrap { Formula::exists("y", f) } else { f };
            let base = analyzer.analyze(&sigma, &quantify(chain_left(&parts)));
            for shape in &shapes {
                let other = analyzer.analyze(&sigma, &quantify(shape.clone()));
                prop_assert_eq!(verdicts(&other), verdicts(&base), "{:?}", shape);
            }
        }
        for f in shapes {
            let a = analyzer.analyze(&sigma, &f);
            prop_assert_eq!(a.fragment.table.last().map(|(_, p)| *p), Some(a.fragment.root));
        }
    }

    // Diagnostics round-trip through their rendered codes, including
    // when the code is extracted back out of a rendered diagnostic.
    #[test]
    fn codes_round_trip(i in 0usize..Code::all().len()) {
        let code = Code::all()[i];
        prop_assert_eq!(Code::parse(code.as_str()), Some(code));

        let sigma = Alphabet::ab();
        // A query tripping many passes at once: wrong signature, no
        // range restriction, vacuous quantification.
        let f = Formula::eq(Term::var("y"), Term::var("x").prepend(0))
            .and(Formula::exists("w", Formula::True));
        let analysis = Analyzer::new(StructureClass::S).analyze(&sigma, &f);
        for d in &analysis.diagnostics {
            // The rendered form starts with the code; parsing it back
            // recovers the diagnostic's code exactly.
            let rendered = d.render();
            let lead = rendered.split_whitespace().next().unwrap();
            prop_assert_eq!(Code::parse(lead), Some(d.code));
        }
        prop_assert!(!analysis.diagnostics.is_empty());
    }
}

/// Non-codes don't parse (plain test: the space is tiny and fixed).
#[test]
fn non_codes_do_not_parse() {
    for s in ["", "SA", "SA9", "SA999", "sa001", "SA001x", "XA001"] {
        assert_eq!(Code::parse(s), None, "{s:?} should not parse");
    }
}
