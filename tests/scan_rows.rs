//! The scan executor answers with the stored rows. An identity
//! projection keeps the relation's own shared rows (no string is
//! copied, and not even a row's count is bumped: the answer shares the
//! stored leaves), and every scan, whatever its projection, relation
//! size or deadline, agrees with a sparse `Dfa::accepts` filter over the
//! stored rows. Rows holding a symbol outside `Σ` denote nothing.

use std::collections::BTreeSet;

use strcalc::core::{ExecCx, ExecReport, FaultPlan, Plan, Planner, Strategy};
use strcalc::logic::parse_formula;
use strcalc::prelude::*;
use strcalc::relational::Row;

/// Rows per scan batch in the executor.
const SCAN_BATCH: usize = 4096;

fn ab() -> Alphabet {
    Alphabet::ab()
}

/// `n` words of length below `max_len` over `{a, b}` from a fixed
/// xorshift stream.
fn words(n: usize, max_len: u64) -> Vec<Str> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let len = next() % max_len;
            Str::from_syms((0..len).map(|_| (next() % 2) as u8).collect())
        })
        .collect()
}

/// A database holding `U` with the given strings (declared when empty).
fn unary(strings: &[Str]) -> Database {
    let mut db = Database::new();
    db.declare("U", 1).unwrap();
    for s in strings {
        db.insert("U", vec![s.clone()]).unwrap();
    }
    db
}

/// Plans `src` with head `head` and checks it is a scan.
fn scan_plan(head: &[&str], src: &str) -> Plan {
    let head: Vec<String> = head.iter().map(|h| h.to_string()).collect();
    let formula = parse_formula(&ab(), src).unwrap();
    let plan = Planner::new().plan_formula(&ab(), &head, &formula).unwrap();
    assert!(
        matches!(
            plan.strategy,
            Strategy::DenseDfaScan | Strategy::LikeLinearScan
        ),
        "{src} planned {:?}",
        plan.strategy
    );
    plan
}

fn run(plan: &Plan, db: &Database, cx: &ExecCx) -> (Relation, ExecReport) {
    let (out, report) = plan.execute_in(db, cx).unwrap();
    (out.expect_finite(), report)
}

/// The reference: the first `rows` stored rows of `rel` over `Σ`, kept
/// when column `col` is in `pattern`'s language, projected onto `cols`.
fn expected(
    rel: &Relation,
    pattern: &str,
    col: usize,
    cols: &[usize],
    rows: usize,
) -> BTreeSet<Vec<Str>> {
    let dfa = Dfa::from_regex(2, &Regex::parse(&ab(), pattern).unwrap());
    rel.iter()
        .take(rows)
        .filter(|t| t.iter().all(|s| s.syms().iter().all(|&a| a < 2)))
        .filter(|t| dfa.accepts(&t[col]))
        .map(|t| cols.iter().map(|&c| t[c].clone()).collect())
        .collect()
}

fn rows(rel: &Relation) -> BTreeSet<Vec<Str>> {
    rel.iter().map(|t| t.to_vec()).collect()
}

/// Every answer row is one of `stored`'s own rows, not a copy.
fn shares_rows(answer: &Relation, stored: &Relation) {
    let mut stored = stored.iter();
    for t in answer.iter() {
        assert!(
            stored.any(|s| Row::ptr_eq(s, t)),
            "answer row {t:?} is not a stored row"
        );
    }
}

/// The unary scans: one LIKE scan and two dense scans.
const UNARY: &[(&str, &str)] = &[
    ("a.*", "U(x) & in(x, /a.*/)"),
    ("(aa)*", "U(x) & in(x, /(aa)*/)"),
    ("b.*a.*", "U(x) & in(x, /b.*a.*/)"),
];

#[test]
fn an_identity_scan_answers_with_the_stored_rows() {
    let db = unary(&words(300, 12));
    let stored = db.relation("U").unwrap();
    for (pattern, src) in UNARY {
        let (answer, report) = run(&scan_plan(&["x"], src), &db, &ExecCx::production());
        assert!(report.verdict.is_exact(), "{src}");
        assert_eq!(
            rows(&answer),
            expected(stored, pattern, 0, &[0], usize::MAX)
        );
        assert!(!answer.is_empty(), "{src}");
        shares_rows(&answer, stored);
    }
}

#[test]
fn projections_other_than_the_identity_agree_with_the_filter() {
    let strings = words(400, 12);
    let mut db = Database::new();
    for pair in strings.chunks(2) {
        db.insert("R", pair.to_vec()).unwrap();
    }
    // Many rows share `x`, so projecting `y` away leaves duplicates.
    for s in &strings[..50] {
        db.insert("R", vec![strings[7].clone(), s.clone()]).unwrap();
    }
    let stored = db.relation("R").unwrap();
    let shapes: &[(&[&str], &str, &str, &[usize])] = &[
        (&["y", "x"], "R(x, y) & in(x, /a.*/)", "a.*", &[1, 0]),
        (
            &["x"],
            "exists y. (R(x, y) & in(x, /b.*a.*/))",
            "b.*a.*",
            &[0],
        ),
        (&["x"], "exists y. (R(x, y) & in(x, /a.*/))", "a.*", &[0]),
    ];
    for &(head, src, pattern, cols) in shapes {
        let (answer, report) = run(&scan_plan(head, src), &db, &ExecCx::production());
        assert!(report.verdict.is_exact(), "{src}");
        let want = expected(stored, pattern, 0, cols, usize::MAX);
        assert!(!want.is_empty(), "{src}");
        assert_eq!(rows(&answer), want, "{src}");
        assert_eq!(answer.len(), want.len(), "{src}");
    }
}

#[test]
fn a_row_outside_sigma_denotes_nothing() {
    let mut strings = words(100, 12);
    // `a·2·a`: symbol 2 is outside {a, b}, and the row would match every
    // pattern below if its symbols were read as raw bytes.
    strings.push(Str::from_syms(vec![0, 2, 0]));
    strings.push(Str::from_syms(vec![1, 0, 2, 0]));
    let db = unary(&strings);
    let stored = db.relation("U").unwrap();
    assert!(!stored.within(2));
    for (pattern, src) in UNARY {
        let (answer, _) = run(&scan_plan(&["x"], src), &db, &ExecCx::production());
        assert_eq!(
            rows(&answer),
            expected(stored, pattern, 0, &[0], usize::MAX)
        );
        assert!(answer.iter().all(|t| t[0].within(2)), "{src}");
        shares_rows(&answer, stored);
    }
}

#[test]
fn an_empty_relation_answers_nothing() {
    let db = unary(&[]);
    for (_, src) in UNARY {
        let (answer, report) = run(&scan_plan(&["x"], src), &db, &ExecCx::production());
        assert!(answer.is_empty(), "{src}");
        assert!(report.verdict.is_exact(), "{src}");
        assert_eq!(report.domain_size, 0, "{src}");
    }
}

/// A relation of more than two scan batches, with a ragged tail.
fn large() -> Database {
    let db = unary(&words(3 * SCAN_BATCH, 32));
    let n = db.relation("U").unwrap().len();
    assert!(n > 2 * SCAN_BATCH, "{n} distinct rows");
    db
}

#[test]
fn a_relation_larger_than_a_batch_scans_whole() {
    let db = large();
    let stored = db.relation("U").unwrap();
    for (pattern, src) in UNARY {
        let (answer, report) = run(&scan_plan(&["x"], src), &db, &ExecCx::production());
        assert_eq!(report.domain_size, stored.len(), "{src}");
        assert_eq!(
            rows(&answer),
            expected(stored, pattern, 0, &[0], usize::MAX)
        );
        shares_rows(&answer, stored);
    }
}

#[test]
fn an_identity_answer_bumps_no_row_count() {
    let db = large();
    let stored = db.relation("U").unwrap();
    let counts = |rel: &Relation| -> Vec<usize> { rel.iter().map(Row::strong_count).collect() };
    let before = counts(stored);
    // A LIKE scan and a dense scan, each keeping about half the rows.
    for src in ["U(x) & in(x, /a.*/)", "U(x) & in(x, /b.*a.*/)"] {
        let (answer, _) = run(&scan_plan(&["x"], src), &db, &ExecCx::production());
        let kept = answer.len();
        assert!(
            (stored.len() / 4..3 * stored.len() / 4).contains(&kept),
            "{src} kept {kept} of {}",
            stored.len()
        );
        // While the answer is alive, every stored row is held once.
        assert_eq!(counts(stored), before, "{src}");
        shares_rows(&answer, stored);
    }
}

#[test]
fn a_deadline_truncates_at_a_batch_with_its_watermark() {
    let db = large();
    let stored = db.relation("U").unwrap();
    for (pattern, src) in UNARY {
        let plan = scan_plan(&["x"], src);
        // Checkpoint 1 is polled before the first batch, checkpoint 2
        // before the second.
        for (fire, seen) in [(1u64, 0usize), (2, SCAN_BATCH)] {
            let cx = ExecCx::production().with_faults(FaultPlan {
                deadline_at_checkpoint: Some(fire),
                ..FaultPlan::none()
            });
            let (answer, report) = run(&plan, &db, &cx);
            assert!(!report.verdict.is_exact(), "{src}");
            assert_eq!(report.domain_size, seen, "{src}");
            let truncations: Vec<&str> = report
                .degradations
                .iter()
                .filter(|d| d.code.as_str() == "SA411")
                .map(|d| d.detail.as_str())
                .collect();
            assert_eq!(
                truncations,
                [format!(
                    "deadline fired at checkpoint {fire}: scanned {seen} rows"
                )],
                "{src}"
            );
            assert_eq!(rows(&answer), expected(stored, pattern, 0, &[0], seen));
            shares_rows(&answer, stored);
        }
    }
}

#[test]
fn a_deadline_watermark_holds_while_lanes_retire() {
    // Rows up to 100 symbols long, so dense lanes retire at the dead
    // state or the accepting sink in different strides and the rest are
    // regrouped; none of it may move a batch checkpoint.
    let db = unary(&words(3 * SCAN_BATCH, 100));
    let stored = db.relation("U").unwrap();
    assert!(stored.len() > 2 * SCAN_BATCH);
    let dense: &[(&str, &str)] = &[
        ("b.*a.*", "U(x) & in(x, /b.*a.*/)"),
        ("b(a|b)*a(a|b)*", "U(x) & in(x, /b(a|b)*a(a|b)*/)"),
        ("a.*b.*a", "U(x) & in(x, /a.*b.*a/)"),
    ];
    for &(pattern, src) in dense {
        let plan = scan_plan(&["x"], src);
        assert_eq!(plan.strategy, Strategy::DenseDfaScan, "{src}");
        let (answer, report) = run(&plan, &db, &ExecCx::production());
        assert!(report.verdict.is_exact(), "{src}");
        assert_eq!(
            rows(&answer),
            expected(stored, pattern, 0, &[0], usize::MAX),
            "{src}"
        );
        for (fire, seen) in [(1u64, 0usize), (2, SCAN_BATCH)] {
            let cx = ExecCx::production().with_faults(FaultPlan {
                deadline_at_checkpoint: Some(fire),
                ..FaultPlan::none()
            });
            let (answer, report) = run(&plan, &db, &cx);
            assert_eq!(report.domain_size, seen, "{src}");
            let truncations: Vec<&str> = report
                .degradations
                .iter()
                .filter(|d| d.code.as_str() == "SA411")
                .map(|d| d.detail.as_str())
                .collect();
            assert_eq!(
                truncations,
                [format!(
                    "deadline fired at checkpoint {fire}: scanned {seen} rows"
                )],
                "{src}"
            );
            assert_eq!(
                rows(&answer),
                expected(stored, pattern, 0, &[0], seen),
                "{src}"
            );
            shares_rows(&answer, stored);
        }
    }
}
