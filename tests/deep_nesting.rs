//! Hostile nesting: input nested deeper than the parsers' cap is refused
//! with a typed error instead of overflowing the stack, and input at the
//! cap parses, analyzes, and runs through the relational route — the
//! recursive walkers after the parser are safe because the parser bounds
//! their depth. A short pattern that would build a huge regex is refused
//! at once too.

use std::time::{Duration, Instant};

use strcalc::analyze::Analyzer;
use strcalc::automata::{compile_similar, AutomataError, Regex, MAX_PATTERN_NODES};
use strcalc::core::json;
use strcalc::core::{PlanOp, Planner, Strategy};
use strcalc::logic::{parse_formula, LogicError, StructureClass, MAX_NESTING_DEPTH};
use strcalc::prelude::*;
use strcalc::sqlfront::{compile_select, parse_select, Catalog, SqlErrorKind};

/// Runs `f` on a thread with the 8 MiB stack a main thread usually
/// gets: the cap is sized for it, and unoptimized builds overflow the
/// test harness's 2 MiB worker threads before reaching it.
fn with_main_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn ten_thousand_levels_are_rejected_cleanly() {
    with_main_stack(ten_thousand_levels);
}

fn ten_thousand_levels() {
    let ab = Alphabet::ab();
    let n = 10_000;
    let formula = format!("{}R(x){}", "(".repeat(n), ")".repeat(n));
    let err = parse_formula(&ab, &formula).unwrap_err();
    assert!(
        matches!(err, LogicError::NestingTooDeep { limit, .. } if limit == MAX_NESTING_DEPTH),
        "{err:?}"
    );
    let sql = format!(
        "SELECT r.x FROM r WHERE {}r.x = r.y{}",
        "(".repeat(n),
        ")".repeat(n)
    );
    assert_eq!(
        parse_select(&ab, &sql).unwrap_err().kind,
        SqlErrorKind::NestingTooDeep
    );
    // Regex and SIMILAR patterns nest under the same cap: 20 000 groups
    // are refused with the typed nesting error.
    let group = format!("{}a{}", "(".repeat(20_000), ")".repeat(20_000));
    let err = parse_formula(&ab, &format!("R(x) & in(x, /{group}/)")).unwrap_err();
    assert!(
        matches!(err, LogicError::NestingTooDeep { limit, .. } if limit == MAX_NESTING_DEPTH),
        "{err:?}"
    );
    let mut catalog = Catalog::new();
    catalog.add_table("t", &["w"]);
    let sql = format!("SELECT t.w FROM t WHERE t.w SIMILAR TO '{group}'");
    let select = parse_select(&ab, &sql).unwrap();
    let err = compile_select(&ab, &catalog, &select).unwrap_err();
    assert_eq!(err.kind, SqlErrorKind::NestingTooDeep, "{}", err.msg);
}

/// `R(x) ∧ ¬(R(x) ∧ ¬(… R(x) …))` with `levels` negations: it holds of
/// the stored strings when `levels` is even, of nothing when it is odd.
fn alternating(levels: usize) -> String {
    (0..levels).fold("R(x)".to_string(), |inner, _| format!("R(x) & !({inner})"))
}

#[test]
fn input_at_the_cap_runs_through_the_relational_route() {
    with_main_stack(|| {
        let ab = Alphabet::ab();
        let mut db = Database::new();
        db.insert_unary_parsed(&ab, "R", &["a", "ab", "b"]).unwrap();
        // Each level opens two (`!` and its parenthesis); four outer
        // parentheses bring the total to exactly the cap.
        let levels = (MAX_NESTING_DEPTH - 4) / 2;
        let text = format!("(((({}))))", alternating(levels));
        let f = parse_formula(&ab, &text).unwrap();
        let too_deep = format!("({text})");
        assert!(matches!(
            parse_formula(&ab, &too_deep),
            Err(LogicError::NestingTooDeep { .. })
        ));

        let analysis = Analyzer::new(StructureClass::S).analyze(&ab, &f);
        assert!(!analysis.has_errors(), "{}", analysis.render());

        let plan = Planner::new()
            .plan_formula(&ab, &["x".to_string()], &f)
            .unwrap();
        assert_eq!(plan.strategy, Strategy::ActiveDomainEnum);
        assert!(matches!(plan.root.op, PlanOp::Relational));
        let explained = json::parse(&plan.explain_json()).unwrap();
        assert!(explained.req("plan").is_ok());
        let (out, report) = plan.execute(&db).unwrap();
        assert!(report.verdict.is_exact());
        let expected = if levels.is_multiple_of(2) {
            db.relation("R").unwrap().clone()
        } else {
            Relation::new(1)
        };
        assert_eq!(out.expect_finite(), expected);
    });
}

/// `R(x) & … & R(x)` and `R(x) | … | R(x)` with `links` links.
fn chain(sep: &str, links: usize) -> String {
    vec!["R(x)"; links + 1].join(sep)
}

#[test]
fn long_and_or_chains_are_refused_at_the_cap() {
    with_main_stack(|| {
        let ab = Alphabet::ab();
        let mut db = Database::new();
        db.insert_unary_parsed(&ab, "R", &["a", "ab", "b"]).unwrap();
        // Each link nests the chain so far one level deeper in the parsed
        // tree, so a chain longer than the cap is refused like
        // parentheses nested that deep.
        for sep in [" & ", " | ", " <-> "] {
            for links in [MAX_NESTING_DEPTH + 1, 5_000] {
                let err = parse_formula(&ab, &chain(sep, links)).unwrap_err();
                assert!(
                    matches!(err, LogicError::NestingTooDeep { limit, .. } if limit == MAX_NESTING_DEPTH),
                    "{sep:?} × {links}: {err:?}"
                );
            }
        }
        // A chain at the cap analyzes, plans and runs. (Not `<->`: each
        // link still doubles the work of the passes that expand it.)
        for sep in [" & ", " | "] {
            let f = parse_formula(&ab, &chain(sep, MAX_NESTING_DEPTH)).unwrap();
            let analysis = Analyzer::new(StructureClass::S).analyze(&ab, &f);
            assert!(!analysis.has_errors(), "{}", analysis.render());
            let plan = Planner::new()
                .plan_formula(&ab, &["x".to_string()], &f)
                .unwrap();
            let (out, report) = plan.execute(&db).unwrap();
            assert!(report.verdict.is_exact());
            assert_eq!(out.expect_finite(), db.relation("R").unwrap().clone());
        }
    });
}

/// `SELECT f.name FROM f WHERE f.name LIKE 'a%' AND …` with `links`
/// links joined by `sep`.
fn sql_chain(sep: &str, links: usize) -> String {
    format!(
        "SELECT f.name FROM f WHERE {}",
        vec!["f.name LIKE 'a%'"; links + 1].join(sep)
    )
}

#[test]
fn long_sql_where_chains_are_refused_before_the_planner() {
    with_main_stack(|| {
        let ab = Alphabet::ab();
        let mut catalog = Catalog::new();
        catalog.add_table("f", &["name"]);
        let mut db = Database::new();
        db.insert_unary_parsed(&ab, "f", &["a", "ab", "b"]).unwrap();
        let planner = Planner::new();
        for sep in [" AND ", " OR "] {
            // Past the cap the parser refuses the chain with a typed
            // error; a left-deep tree that long would overflow the
            // planner's stack.
            let compiled = parse_select(&ab, &sql_chain(sep, 5_000))
                .and_then(|stmt| compile_select(&ab, &catalog, &stmt));
            match compiled {
                Ok(c) => panic!(
                    "{sep:?} × 5000 compiled; plan: {:?}",
                    c.plan(&planner).map(|p| p.strategy)
                ),
                Err(e) => assert_eq!(e.kind, SqlErrorKind::NestingTooDeep, "{sep:?}: {e}"),
            }
            // At the cap the chain compiles, plans and runs.
            let stmt = parse_select(&ab, &sql_chain(sep, MAX_NESTING_DEPTH)).unwrap();
            let plan = compile_select(&ab, &catalog, &stmt)
                .unwrap()
                .plan(&planner)
                .unwrap();
            let (out, report) = plan.execute(&db).unwrap();
            assert!(report.verdict.is_exact());
            assert_eq!(out.len(), Some(2), "{sep:?}: 'a' and 'ab' match");
        }
    });
}

#[test]
fn patterns_that_build_huge_regexes_are_refused_at_once() {
    with_main_stack(|| {
        let ab = Alphabet::ab();
        let too_large = |r: Result<Regex, AutomataError>| matches!(r, Err(AutomataError::PatternTooLarge { limit, .. }) if limit == MAX_PATTERN_NODES);
        let quickly = |what: &str, check: &dyn Fn()| {
            let start = Instant::now();
            check();
            let took = start.elapsed();
            assert!(took < Duration::from_secs(1), "{what} took {took:?}");
        };
        // `a` and 30 `+`: each `+` copies its operand, 2^30 nodes unchecked.
        let pluses = format!("a{}", "+".repeat(30));
        quickly("a regex of 30 `+`", &|| {
            assert!(too_large(Regex::parse(&ab, &pluses)));
            let err = parse_formula(&ab, &format!("R(x) & in(x, /{pluses}/)")).unwrap_err();
            assert!(err.to_string().contains("regex nodes"), "{err:?}");
        });
        // SIMILAR `{n}` copies its operand n times.
        let mut catalog = Catalog::new();
        catalog.add_table("t", &["w"]);
        for pattern in ["a{1000000}", pluses.as_str()] {
            quickly(pattern, &|| {
                assert!(too_large(compile_similar(&ab, pattern)), "{pattern}");
                let sql = format!("SELECT t.w FROM t WHERE t.w SIMILAR TO '{pattern}'");
                let select = parse_select(&ab, &sql).unwrap();
                let err = compile_select(&ab, &catalog, &select).unwrap_err();
                assert!(err.msg.contains("regex nodes"), "{pattern}: {}", err.msg);
            });
        }
    });
}
