//! Every route against the oracle: the naive, automaton-free
//! [`DomainEvaluator`] running the paper's definitions over a finite
//! domain. Formulas and databases are generated, the databases with
//! empty relations and rows holding a symbol outside `Σ`.
//!
//! * Guarded formulas (every variable bound by a relation, a prefix of
//!   one, or a restricted quantifier) answer the same over every domain
//!   holding the active domain, so the oracle runs over the collapse
//!   domain and every route must match it: the default planner (the
//!   relational route, or automata), forced automata, a cached planner
//!   cold and on its cache hit, the forced collapse plan, and the
//!   collapse fallbacks of a starved (SA401) and a compile-aborted
//!   (SA413) automata run.
//! * Unguarded formulas depend on the domain: the forced collapse plan
//!   and its fallbacks must match the oracle over the same collapse
//!   domain.
//! * Guarded formulas with a `concat` conjunct plan as bounded search
//!   and must match the oracle over `Σ^{≤B}`.
//! * A stored relation under language filters takes the LIKE scan or
//!   the dense scan, which build no automaton and dense tables
//!   respectively.
//!
//! A last test pins each route on a fixed formula, so that every route
//! is reached whatever the generators draw, and runs every filter
//! pattern under every scan shape.

use std::sync::Arc;

use proptest::prelude::*;
use strcalc::core::{
    collapse_domain, AutomatonCache, Budget, Domain, DomainEvaluator, EvalOutput, ExecCx,
    ExecReport, FaultPlan, Plan, PlanOp, Query, Strategy as Route,
};
use strcalc::logic::{parse_formula, Lang, Restrict};
use strcalc::prelude::*;

/// The slack of every collapse domain below.
const SLACK: usize = 1;
/// The bounded-search bound `B`.
const BOUND: usize = 3;

fn ab() -> Alphabet {
    Alphabet::ab()
}

fn lang(re: &str) -> Lang {
    Lang::new(Regex::parse(&ab(), re).unwrap())
}

/// A stored string: up to four symbols of `{a, b}`, and now and then a
/// symbol `2`, outside `Σ`.
fn arb_row() -> impl Strategy<Value = Str> {
    (prop::collection::vec(0u8..2, 0..5), 0..10usize).prop_map(|(mut syms, outside)| {
        if outside == 0 {
            syms.push(2);
        }
        Str::from_syms(syms)
    })
}

/// Unary `R` and `U`, binary `T`; each may be empty.
fn arb_db() -> impl Strategy<Value = Database> {
    let unary = || prop::collection::vec(arb_row(), 0..5);
    let pairs = prop::collection::vec((arb_row(), arb_row()), 0..4);
    (unary(), unary(), pairs).prop_map(|(r, u, t)| {
        let mut db = Database::new();
        for (name, arity) in [("R", 1), ("U", 1), ("T", 2)] {
            db.declare(name, arity).unwrap();
        }
        for s in r {
            db.insert("R", vec![s]).unwrap();
        }
        for s in u {
            db.insert("U", vec![s]).unwrap();
        }
        for (s, t) in t {
            db.insert("T", vec![s, t]).unwrap();
        }
        db
    })
}

/// Atoms over `x`, `y` and `z`: relations under function terms and every
/// primitive of `S`, `S_left`, `S_reg` and `S_len`.
fn arb_atom() -> impl Strategy<Value = Formula> {
    let x = || Term::var("x");
    let y = || Term::var("y");
    let z = || Term::var("z");
    prop_oneof![
        Just(Formula::rel("R", vec![x()])),
        Just(Formula::rel("U", vec![z()])),
        Just(Formula::rel("T", vec![x(), y()])),
        Just(Formula::rel("R", vec![y().append(0)])),
        Just(Formula::rel("U", vec![z().prepend(1)])),
        Just(Formula::rel("T", vec![x().trim_leading(0), z()])),
        Just(Formula::rel("T", vec![y(), z().append(1)])),
        Just(Formula::rel("T", vec![x(), x().trim_leading(0)])),
        Just(Formula::eq(x(), y())),
        Just(Formula::eq(z(), Term::konst(ab().parse("ab").unwrap()))),
        Just(Formula::prefix(x(), y())),
        Just(Formula::prefix(y(), z())),
        Just(Formula::strict_prefix(z(), x())),
        Just(Formula::cover(y(), z())),
        Just(Formula::prepends(y(), x(), 0)),
        Just(Formula::eq_len(x(), z())),
        Just(Formula::shorter_eq(y(), x())),
        Just(Formula::shorter(z(), y())),
        Just(Formula::p_l(x(), y(), lang("(ab)*"))),
        Just(Formula::p_l(z(), x(), lang("a|bb"))),
        Just(Formula::in_lang(x(), lang("ab|b|"))),
        Just(Formula::in_lang(y(), lang("a.*"))),
        Just(Formula::in_lang(z(), lang("(aa)*b"))),
        Just(Formula::insert_after(x(), z(), y(), 1)),
        Just(Formula::last_sym(x(), 0)),
        Just(Formula::first_sym(y(), 1)),
        Just(Formula::lex_leq(x(), y())),
        Just(Formula::lex_leq(y(), x())),
        Just(Formula::lex_leq(z(), x())),
        Just(Formula::True),
        Just(Formula::False),
    ]
}

/// A formula binding `v` to a finite set read off the database: a
/// stored string, either column of `T`, or a prefix of a stored string.
fn guard(v: &str, which: usize) -> Formula {
    let (v, w) = (|| Term::var(v), || Term::var("w"));
    match which % 5 {
        0 => Formula::rel("R", vec![v()]),
        1 => Formula::rel("U", vec![v()]),
        2 => Formula::exists("w", Formula::rel("T", vec![v(), w()])),
        3 => Formula::exists("w", Formula::rel("T", vec![w(), v()])),
        _ => Formula::exists(
            "w",
            Formula::rel("U", vec![w()]).and(Formula::prefix(v(), w())),
        ),
    }
}

fn arb_var() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("x"), Just("y"), Just("z")]
}

/// Random formulas over [`arb_atom`] under every connective, nested up
/// to `depth`. Each quantifier is guarded or restricted; with
/// `unguarded`, plain `∃` and `∀` over the whole domain occur too.
fn arb_formula(unguarded: bool, depth: u32) -> impl Strategy<Value = Formula> {
    arb_atom().prop_recursive(depth, 16, 3, move |inner| {
        let quantified =
            (arb_var(), 0..12usize, inner.clone()).prop_map(move |(v, kind, f)| match kind {
                0 | 2 | 3 => Formula::exists(v, guard(v, kind).and(f)),
                1 | 4 => Formula::forall(v, guard(v, kind).implies(f)),
                5 => Formula::exists_r(Restrict::Active, v, f),
                6 => Formula::forall_r(Restrict::PrefixDom, v, f),
                7 => Formula::exists_r(Restrict::LengthDom, v, f),
                8 => Formula::forall_r(Restrict::Active, v, f),
                9 => Formula::forall_r(Restrict::LengthDom, v, f),
                10 if unguarded => Formula::exists(v, f),
                11 if unguarded => Formula::forall(v, f),
                _ => Formula::exists_r(Restrict::PrefixDom, v, f),
            });
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b.not())),
            (inner.clone(), inner).prop_map(|(a, b)| a.iff(b)),
            quantified,
        ]
    })
}

/// `f` with `z` closed by a guarded `∃`, then `y` and `x` guarded when
/// free (they stay in the head); with `sentence`, every variable is
/// closed. Each guard comes before what it guards, so the oracle tries
/// the body only on guarded values.
fn guarded(f: Formula, guards: (usize, usize, usize), sentence: bool) -> Formula {
    let mut out = f;
    for (v, which) in [("z", guards.2), ("y", guards.1), ("x", guards.0)] {
        if out.free_vars().contains(v) {
            out = guard(v, which).and(out);
            if v == "z" || sentence {
                out = Formula::exists(v, out);
            }
        }
    }
    out
}

/// A guarded formula; half the time every variable has the same guard,
/// so equal values meet (the diagonal of `R × R`).
fn arb_guarded() -> impl Strategy<Value = Formula> {
    let guards = (0..5usize, 0..5usize, 0..5usize, 0..2usize).prop_map(|(x, y, z, same)| {
        if same == 0 {
            (x, x, x)
        } else {
            (x, y, z)
        }
    });
    (arb_formula(false, 3), guards, 0..4usize)
        .prop_map(|(f, guards, shape)| guarded(f, guards, shape == 0))
}

/// The query of `f` with its free variables as the head, typed in the
/// smallest calculus that holds it.
fn query(f: Formula) -> Query {
    let head = f.free_vars().into_iter().collect();
    Query::infer(ab(), head, f).unwrap()
}

/// The oracle's answer to `q` over `q`'s collapse domain at [`SLACK`].
fn oracle(q: &Query, db: &Database) -> Relation {
    let domain = collapse_domain(q, db, Some(SLACK));
    DomainEvaluator::new(q.alphabet(), db, domain)
        .answer(q.formula(), q.head())
        .unwrap()
}

/// Runs `plan` on `db` in context `cx`; its answer must be `expected`.
fn check(plan: &Plan, db: &Database, cx: &ExecCx, expected: &Relation, what: &str) -> ExecReport {
    let (out, report) = plan.execute_in(db, cx).unwrap();
    assert_eq!(
        out,
        EvalOutput::Finite(expected.clone()),
        "{what} ({:?}) disagrees with the oracle\n{}",
        plan.strategy,
        plan.explain_text()
    );
    report
}

/// The forced collapse plan at [`SLACK`], and the collapse fallbacks of
/// a forced automata plan denied its compile by a starved budget (SA401)
/// and by an injected abort (SA413), all against `expected`.
fn check_collapse_and_fallbacks(q: &Query, db: &Database, expected: &Relation) {
    let cx = ExecCx::production();
    let planner = Planner::new().with_slack(SLACK);
    let collapse = planner
        .clone()
        .force(Route::ActiveDomainEnum)
        .plan(q)
        .unwrap();
    check(&collapse, db, &cx, expected, "forced collapse");
    let automata = planner.force(Route::Automata).plan(q).unwrap();
    let starved = cx.clone().with_budget(Budget {
        states: 1,
        ..Budget::unlimited()
    });
    check(&automata, db, &starved, expected, "SA401 fallback");
    let aborted = cx.with_faults(FaultPlan {
        abort_compile: true,
        ..FaultPlan::none()
    });
    check(&automata, db, &aborted, expected, "SA413 fallback");
}

/// Every route on the guarded query `q`; returns the default plan's
/// route. The relational route and the LIKE scan build no automaton;
/// the dense scan builds its tables.
fn check_every_route(q: &Query, db: &Database) -> Route {
    let expected = oracle(q, db);
    let cx = ExecCx::production();
    let default = Planner::new().plan(q).unwrap();
    let report = check(&default, db, &cx, &expected, "default planner");
    match default.strategy {
        Route::Automata => {}
        Route::DenseDfaScan => assert!(report.automaton_states > 0, "{}", report.summary()),
        _ => assert_eq!(report.automaton_states, 0, "{}", report.summary()),
    }
    let automata = Planner::new().force(Route::Automata).plan(q).unwrap();
    check(&automata, db, &cx, &expected, "forced automata");
    let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    let cached = Planner::for_engine(&engine).plan(q).unwrap();
    check(&cached, db, &cx, &expected, "cached planner, cold");
    let hit = check(&cached, db, &cx, &expected, "cached planner, warm").cache_hit;
    assert!(hit || cached.strategy != Route::Automata, "no cache hit");
    check_collapse_and_fallbacks(q, db, &expected);
    default.strategy
}

/// `concat` atoms in the binding shapes bounded search has, over `x`
/// (the body's free variable), `u` and `w`.
const CONCAT_SHAPES: [&str; 7] = [
    "R(u) & concat(x, u, w)",
    "U(w) & concat(x, u, w)",
    "R(w) & concat(x, u, w)",
    "!(exists u. (R(u) & concat(u, u, x)))",
    "concat(u, u, x)",
    "forall u. (concat(u, u, x) -> R(u))",
    "(exists v. (U(v) & x <= v & last(u, 'a'))) & concat(x, u, w)",
];

/// A body with `y` and `z` closed by guards and `x` free, guarded unless
/// `g` is 5 (then `x` ranges over `Σ^{≤B}`), under a `concat` shape.
fn arb_concat() -> impl Strategy<Value = Formula> {
    (arb_formula(false, 3), 0..6usize, 0..CONCAT_SHAPES.len()).prop_map(|(f, g, shape)| {
        let mut body = f;
        for v in ["z", "y"] {
            if body.free_vars().contains(v) {
                body = Formula::exists(v, guard(v, g).and(body));
            }
        }
        if g < 5 {
            body = guard("x", g).and(body);
        }
        parse_formula(&ab(), CONCAT_SHAPES[shape])
            .unwrap()
            .and(body)
    })
}

/// LIKE-linear patterns (the LIKE scan) across the prefix, suffix,
/// infix, fixed-length, literal, any and prefix-plus-suffix shapes, and
/// general ones (the dense scan).
const PATTERNS: [&str; 11] = [
    "a.*", ".*ba", ".*ab.*", "a.b", "ab", ".*", "a.*.*b", "(aa)*", "(ab)*", "b.*a.*", "a.*b.*a",
];

/// One stored relation — `R(x)`, `U(x)`, `T(x, y)` or the repeated
/// column `T(x, x)` — under one to three language and symbol filters, as
/// an open query, a sentence, with `y` projected away, or with `y`'s
/// filters on an alias `z = y`.
fn arb_scan() -> impl Strategy<Value = Formula> {
    let filters = prop::collection::vec((0..PATTERNS.len(), 0..4usize), 1..4);
    (0..4usize, filters, 0..5usize).prop_map(|(rel, filters, shape)| {
        let binary = rel == 2;
        let alias = binary && shape == 2;
        let filter = |(p, kind): (usize, usize)| {
            let v = Term::var(match kind {
                3 if alias => "z",
                3 => "y",
                _ => "x",
            });
            match kind {
                0 => Formula::in_lang(v, lang(PATTERNS[p])).not(),
                1 => Formula::last_sym(v, (p % 2) as u8),
                _ => Formula::in_lang(v, lang(PATTERNS[p])),
            }
        };
        let (x, y) = (|| Term::var("x"), || Term::var("y"));
        let mut f = match rel {
            0 => Formula::rel("R", vec![x()]),
            1 => Formula::rel("U", vec![x()]),
            2 => Formula::rel("T", vec![x(), y()]),
            _ => Formula::rel("T", vec![x(), x()]),
        };
        if alias {
            f = f.and(Formula::eq(y(), Term::var("z")));
        }
        for (p, kind) in filters {
            if binary || kind != 3 {
                f = f.and(filter((p, kind)));
            }
        }
        match shape {
            0 if binary => Formula::exists("x", Formula::exists("y", f)),
            0 => Formula::exists("x", f),
            1 | 2 if binary => Formula::exists("y", f),
            _ => f,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn guarded_formulas_agree_on_every_route(f in arb_guarded(), db in arb_db()) {
        check_every_route(&query(f), &db);
    }

    #[test]
    fn unguarded_formulas_agree_over_the_collapse_domain(
        f in arb_formula(true, 2),
        g in 0..5usize,
        db in arb_db(),
    ) {
        let mut f = f;
        for v in ["y", "z"] {
            if f.free_vars().contains(v) {
                f = Formula::exists(v, guard(v, g).and(f));
            }
        }
        let q = query(f);
        check_collapse_and_fallbacks(&q, &db, &oracle(&q, &db));
    }

    // Every head variable is bound by a `Generate` leaf, and a budget's
    // narrower search depth answers over `Σ^{≤B-1}` with a `Bounded`
    // verdict.
    #[test]
    fn bounded_search_agrees_over_sigma_up_to_b(f in arb_concat(), db in arb_db()) {
        let head: Vec<String> = f.free_vars().into_iter().collect();
        let plan = Planner::new().with_bound(BOUND).plan_formula(&ab(), &head, &f).unwrap();
        prop_assert_eq!(plan.strategy, Route::BoundedSearch);
        let mut generated = Vec::new();
        plan.root.visit(&mut |n| {
            if let PlanOp::Generate { var, .. } = &n.op {
                generated.push(var.clone());
            }
        });
        prop_assert!(head.iter().all(|v| generated.contains(v)), "{}", plan.explain_text());
        for depth in [BOUND, BOUND - 1] {
            let expected = DomainEvaluator::new(&ab(), &db, Domain::UpTo(depth))
                .answer(&f, &head)
                .unwrap();
            let cx = ExecCx::production().with_budget(Budget {
                search_depth: depth,
                ..plan.seeded_budget()
            });
            let report = check(&plan, &db, &cx, &expected, "bounded search");
            prop_assert_eq!(report.verdict.is_exact(), depth == BOUND);
        }
    }

    #[test]
    fn scans_agree(f in arb_scan(), db in arb_db()) {
        check_every_route(&query(f), &db);
    }
}

/// A fixed formula per route, each reached through the default planner
/// (a cached one for the cache hit), checked against the oracle; then
/// every pattern under every scan shape, so each pattern's language is
/// checked on every route whatever the generators draw. Rows of `R` and
/// `T` hold symbols outside `Σ`, in a filtered column and in the other.
#[test]
fn the_default_planner_reaches_every_route() {
    let mut db = Database::new();
    db.insert_unary_parsed(&ab(), "R", &["", "a", "ab", "bab", "aab"])
        .unwrap();
    db.insert_unary_parsed(&ab(), "U", &["a", "ab", "ba", "bb", "abab"])
        .unwrap();
    let (c, ac) = (Str::from_syms(vec![2]), Str::from_syms(vec![0, 2]));
    db.insert("R", vec![ac.clone()]).unwrap();
    let s = |t: &str| ab().parse(t).unwrap();
    for (u, v) in [("a", "ab"), ("ab", "ab"), ("ba", "b"), ("bab", "abab")] {
        db.insert("T", vec![s(u), s(v)]).unwrap();
    }
    for (u, v) in [(ac.clone(), s("a")), (s("a"), ac), (c.clone(), c)] {
        db.insert("T", vec![u, v]).unwrap();
    }
    for (src, route) in [
        (
            "R(x) & exists y. (U(y) & lex(x, y) & lex(y, x))",
            Route::ActiveDomainEnum,
        ),
        ("U(x) & exists y. (x < y & !U(y))", Route::Automata),
        ("R(x) & in(x, /a.*/)", Route::LikeLinearScan),
        ("U(x) & in(x, /(ab)*/)", Route::DenseDfaScan),
        (
            "exists x. (T(x, x) | R(x) & !in(x, /.*b/))",
            Route::ActiveDomainEnum,
        ),
    ] {
        let q = query(parse_formula(&ab(), src).unwrap());
        assert_eq!(check_every_route(&q, &db), route, "{src}");
        let default = Planner::new().plan(&q).unwrap();
        if route == Route::ActiveDomainEnum {
            assert!(matches!(default.root.op, PlanOp::Relational), "{src}");
        }
    }
    for p in PATTERNS {
        for shape in [
            "R(x) & in(x, /P/)",
            "R(x) & !in(x, /P/)",
            "exists y. (T(y, x) & in(y, /P/))",
            "exists y. (T(x, y) & y = z & in(z, /P/))",
            "T(x, x) & in(x, /P/)",
            "exists x. (U(x) & in(x, /P/))",
        ] {
            let f = parse_formula(&ab(), &shape.replace('P', p)).unwrap();
            check_every_route(&query(f), &db);
        }
    }
    let f = parse_formula(&ab(), "R(x) & R(u) & concat(x, u, w)").unwrap();
    let head: Vec<String> = f.free_vars().into_iter().collect();
    let plan = Planner::new()
        .with_bound(BOUND)
        .plan_formula(&ab(), &head, &f);
    let expected = DomainEvaluator::new(&ab(), &db, Domain::UpTo(BOUND))
        .answer(&f, &head)
        .unwrap();
    check(
        &plan.unwrap(),
        &db,
        &ExecCx::production(),
        &expected,
        "bounded search",
    );
}
