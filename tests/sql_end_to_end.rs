//! E14 — the SQL pipeline across crate boundaries: parse → compile →
//! fragment inference → exact evaluation, checked against hand-computed
//! answers.

use strcalc::core::{Calculus, ExecCx};
use strcalc::prelude::*;
use strcalc::sqlfront::{run_sql, Catalog};

fn setup() -> (Alphabet, Catalog, Database) {
    let sigma = Alphabet::new("abcdr").unwrap();
    let mut catalog = Catalog::new();
    catalog.add_table("t", &["w", "tag"]);
    let mut db = Database::new();
    let rows = [
        ("abra", "a"),
        ("cadabra", "b"),
        ("abc", "a"),
        ("dab", "c"),
        ("cab", "b"),
        ("abba", "a"),
    ];
    for (w, tag) in rows {
        db.insert(
            "t",
            vec![sigma.parse(w).unwrap(), sigma.parse(tag).unwrap()],
        )
        .unwrap();
    }
    (sigma, catalog, db)
}

fn rows_of(sigma: &Alphabet, out: strcalc::core::EvalOutput) -> Vec<Vec<String>> {
    out.expect_finite()
        .iter()
        .map(|t| t.iter().map(|s| sigma.render(s)).collect())
        .collect()
}

#[test]
fn like_and_fragment_inference() {
    let (sigma, catalog, db) = setup();
    let (compiled, out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT t.w FROM t WHERE t.w LIKE 'ab%'",
        &ExecCx::production(),
    )
    .unwrap();
    assert_eq!(compiled.calculus(), Calculus::S);
    let mut rows = rows_of(&sigma, out);
    rows.sort();
    assert_eq!(rows, vec![vec!["abba"], vec!["abc"], vec!["abra"]]);
}

#[test]
fn not_like() {
    let (sigma, catalog, db) = setup();
    let (_c, out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT t.w FROM t WHERE t.w NOT LIKE '%a' AND t.w NOT LIKE '%b'",
        &ExecCx::production(),
    )
    .unwrap();
    let rows = rows_of(&sigma, out);
    assert_eq!(rows, vec![vec!["abc".to_string()]]);
}

#[test]
fn similar_infers_minimal_calculus() {
    let (sigma, catalog, db) = setup();
    // Even-length strings — regular but not star-free → S_reg. (Note
    // (ab)* itself IS star-free, so it must stay in S; checked below.)
    let (compiled, _out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT t.w FROM t WHERE t.w SIMILAR TO '((a|b|c|d|r)(a|b|c|d|r))*'",
        &ExecCx::production(),
    )
    .unwrap();
    assert_eq!(compiled.calculus(), Calculus::SReg);
    let (compiled, _out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT t.w FROM t WHERE t.w SIMILAR TO '(ab)*'",
        &ExecCx::production(),
    )
    .unwrap();
    assert_eq!(compiled.calculus(), Calculus::S);
    // a* IS star-free → plain S even through SIMILAR syntax.
    let (compiled, _out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT t.w FROM t WHERE t.w SIMILAR TO 'a%'",
        &ExecCx::production(),
    )
    .unwrap();
    assert_eq!(compiled.calculus(), Calculus::S);
}

#[test]
fn length_and_trim_fragments() {
    let (sigma, catalog, db) = setup();
    let (compiled, out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT t.w FROM t WHERE LENGTH(t.tag) < LENGTH(t.w) AND t.w LIKE 'c%'",
        &ExecCx::production(),
    )
    .unwrap();
    assert_eq!(compiled.calculus(), Calculus::SLen);
    assert_eq!(rows_of(&sigma, out).len(), 2); // cadabra, cab

    let (compiled, out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT TRIM(LEADING 'a' FROM t.w) FROM t WHERE t.w LIKE 'ab%'",
        &ExecCx::production(),
    )
    .unwrap();
    assert_eq!(compiled.calculus(), Calculus::SLeft);
    let mut rows = rows_of(&sigma, out);
    rows.sort();
    assert_eq!(rows, vec![vec!["bba"], vec!["bc"], vec!["bra"]]);
}

#[test]
fn correlated_exists_and_in() {
    let (sigma, catalog, db) = setup();
    // Words that are proper prefixes of other words in the table:
    // "ab…" family: abc/abra/abba share prefix "ab"? None is a prefix of
    // another except… check: dab/cab/cadabra/abra/abc/abba — no prefix
    // pairs. Add via PREFIX on tag instead: tags of rows whose w starts
    // with the tag's letter.
    let (_c, out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT t.w FROM t WHERE EXISTS \
         (SELECT u.w FROM t u WHERE PREFIX(t.tag, u.w) AND u.w = t.w)",
        &ExecCx::production(),
    )
    .unwrap();
    let mut rows = rows_of(&sigma, out);
    rows.sort();
    // t.tag ⪯ t.w: a⪯abra ✓, b⪯cadabra ✗, a⪯abc ✓, c⪯dab ✗, b⪯cab ✗,
    // a⪯abba ✓.
    assert_eq!(rows, vec![vec!["abba"], vec!["abc"], vec!["abra"]]);

    let (_c, out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT t.w FROM t WHERE t.tag IN (SELECT u.tag FROM t u WHERE u.w = 'dab')",
        &ExecCx::production(),
    )
    .unwrap();
    assert_eq!(rows_of(&sigma, out), vec![vec!["dab".to_string()]]);
}

#[test]
fn lex_comparisons() {
    let (sigma, catalog, db) = setup();
    let (_c, out, _) = run_sql(
        &sigma,
        &catalog,
        &db,
        "SELECT t.w FROM t WHERE 'c' <= t.w AND t.w LIKE 'c%'",
        &ExecCx::production(),
    )
    .unwrap();
    let mut rows = rows_of(&sigma, out);
    rows.sort();
    assert_eq!(rows, vec![vec!["cab"], vec!["cadabra"]]);
}

#[test]
fn governed_sql_reports_and_degrades() {
    use strcalc::core::{Budget, CoreError, DegradationPolicy, FaultPlan};
    use strcalc::sqlfront::SqlRunError;

    let sigma = Alphabet::new("abc").unwrap();
    let mut catalog = Catalog::new();
    catalog.add_table("s", &["w"]);
    let mut db = Database::new();
    for w in ["a", "ab", "ca", "cab", "bc"] {
        db.insert("s", vec![sigma.parse(w).unwrap()]).unwrap();
    }
    // The lexicographic comparison evicts the query from the scan
    // tiers.
    let sql = "SELECT s.w FROM s WHERE 'c' <= s.w AND s.w LIKE 'c%'";
    let under = |budget: Budget| ExecCx::production().with_budget(budget);

    // Under the unlimited budget the governed pipeline matches the
    // seeded one and certifies an exact run.
    let (_c, exact, _) = run_sql(&sigma, &catalog, &db, sql, &ExecCx::production()).unwrap();
    let (_c, out, report) =
        run_sql(&sigma, &catalog, &db, sql, &under(Budget::unlimited())).unwrap();
    assert_eq!(out, exact);
    assert!(report.verdict.is_exact());
    assert!(report.degradations.is_empty());

    // Every SQL column is bound by its FROM table, so the planner takes
    // the relational route: it builds no automaton and certifies no
    // demand, and a budget that admits no automaton leaves it exact.
    let starved = Budget {
        states: 1,
        bytes: 1,
        ..Budget::unlimited()
    };
    let (_c, out, report) = run_sql(&sigma, &catalog, &db, sql, &under(starved)).unwrap();
    assert_eq!(out, exact);
    assert!(report.verdict.is_exact());
    assert!(report.degradations.is_empty());

    // A deadline firing at the route's first checkpoint degrades the
    // run — with the SA4xx trail in the report — and under the fail
    // policy rejects it.
    let fired = |policy| {
        under(Budget::unlimited().with_policy(policy)).with_faults(FaultPlan {
            deadline_at_checkpoint: Some(1),
            ..FaultPlan::none()
        })
    };
    let (_c, _out, report) = run_sql(
        &sigma,
        &catalog,
        &db,
        sql,
        &fired(DegradationPolicy::Degrade),
    )
    .unwrap();
    assert!(!report.verdict.is_exact());
    assert!(!report.degradations.is_empty());

    let err = run_sql(&sigma, &catalog, &db, sql, &fired(DegradationPolicy::Fail)).unwrap_err();
    assert!(matches!(
        err,
        SqlRunError::Eval(CoreError::DeadlineExpired { .. })
    ));
}
