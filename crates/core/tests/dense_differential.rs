//! Differential tests for the scan routes at batch scale: the LIKE
//! scan's linear matchers, the dense scan's tables and its SA402
//! sparse-DFA fallback agree with a sparse `Dfa::accepts` filter, whole
//! and when a wall-clock deadline cuts the scan short.

use std::collections::BTreeSet;
use std::sync::Arc;

use strcalc_alphabet::{Alphabet, Str};
use strcalc_core::{
    Budget, Calculus, Clock, EvalOutput, ExecCx, ExecReport, Planner, Query,
    Strategy as PlanStrategy, VirtualClock,
};
use strcalc_logic::Lang;
use strcalc_relational::{Database, Relation};

/// A relation's rows, to compare with a reference set.
fn rows(rel: &Relation) -> BTreeSet<Vec<Str>> {
    rel.iter().map(|t| t.to_vec()).collect()
}

fn ab() -> Alphabet {
    Alphabet::ab()
}

fn lang(pattern: &str) -> Lang {
    let regex = strcalc_automata::Regex::parse(&ab(), pattern).expect("pattern parses");
    Lang::named(format!("LIKE {pattern}"), regex)
}

/// Rows in the batch-scale relation: more than two 4096-row scan
/// batches, with a ragged tail.
const BATCH_SCALE_ROWS: usize = 2 * 4096 + 777;

/// A ternary `R(x, y, z)` of [`BATCH_SCALE_ROWS`] distinct rows from a
/// fixed xorshift stream. `x` (the filtered column) is a word of length
/// 0..8 and `z` one of length 0..3, so projecting `y` away leaves many
/// duplicates; `y` spells the row index in binary, which keeps every row
/// distinct. Some rows carry the out-of-`Σ` symbol 2 in `x`, others in
/// `y`, which no query filters.
fn batch_scale_db() -> Database {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut word = |max_len: u64| -> Vec<u8> {
        let len = next() % (max_len + 1);
        (0..len).map(|_| (next() % 2) as u8).collect()
    };
    let mut db = Database::new();
    for i in 0..BATCH_SCALE_ROWS {
        let mut x = word(7);
        let z = word(2);
        let mut y: Vec<u8> = format!("{i:b}").bytes().map(|b| b - b'0').collect();
        if i % 97 == 5 {
            x.insert(x.len() / 2, 2);
        }
        if i % 89 == 3 {
            y.push(2);
        }
        db.insert(
            "R",
            vec![Str::from_syms(x), Str::from_syms(y), Str::from_syms(z)],
        )
        .unwrap();
    }
    assert_eq!(db.relation("R").unwrap().len(), BATCH_SCALE_ROWS);
    db
}

/// Scan queries over `R` with their head columns: one keeps every
/// column in a new order, one reorders and drops `y`, one keeps `x`
/// alone. The last two must collapse duplicates.
const BATCH_SCALE_SHAPES: &[(&str, &[usize])] = &[
    ("R(x, y, z) & in(x, /{}/)", &[2, 0, 1]),
    ("exists y. (R(x, y, z) & in(x, /{}/))", &[2, 0]),
    ("exists y. exists z. (R(x, y, z) & in(x, /{}/))", &[0]),
];

fn batch_scale_query(shape: &str, cols: &[usize], pattern: &str) -> Query {
    let head = cols
        .iter()
        .map(|&c| ["x", "y", "z"][c].to_string())
        .collect();
    Query::parse(Calculus::SReg, ab(), head, &shape.replace("{}", pattern)).unwrap()
}

/// The reference answer over the first `rows` stored tuples: the sparse
/// DFA's `accepts` on `x`, rows with an out-of-`Σ` symbol in any column
/// dropped, then projected onto `cols`.
fn batch_scale_expected(
    db: &Database,
    pattern: &str,
    cols: &[usize],
    rows: usize,
) -> BTreeSet<Vec<Str>> {
    let dfa = lang(pattern).to_dfa(2);
    db.relation("R")
        .unwrap()
        .iter()
        .take(rows)
        .filter(|t| t.iter().all(|s| s.syms().iter().all(|&b| b < 2)))
        .filter(|t| dfa.accepts(&t[0]))
        .map(|t| cols.iter().map(|&c| t[c].clone()).collect())
        .collect()
}

/// A virtual clock that moves forward 1 ms on every reading. Arming a
/// deadline takes one reading, so a `wall_time_ms` of 2 fires at the
/// third checkpoint: before the third scan batch.
#[derive(Default)]
struct Ticking(VirtualClock);

impl Clock for Ticking {
    fn now_ms(&self) -> u64 {
        let now = self.0.now_ms();
        self.0.advance(1);
        now
    }
}

/// Both scan routes at batch scale — the LIKE scan's linear matchers,
/// the dense scan's tables, and the dense scan's SA402 sparse-DFA
/// fallback — agree with a sparse `Dfa::accepts` filter, whole and
/// when a deadline cuts the scan after two batches. The truncation is
/// SA411 with the same 8192-row watermark on every route.
#[test]
fn scan_routes_agree_at_batch_scale() {
    let db = batch_scale_db();
    let starved = Budget {
        states: 1,
        bytes: 1,
        ..Budget::unlimited()
    };
    let routes = [
        ("a.*b", PlanStrategy::LikeLinearScan, false),
        (".*ab.*", PlanStrategy::LikeLinearScan, false),
        ("b.*a.*", PlanStrategy::DenseDfaScan, false),
        ("(aa)*", PlanStrategy::DenseDfaScan, false),
        ("b.*a.*", PlanStrategy::DenseDfaScan, true),
    ];
    for (pattern, strategy, starve) in routes {
        for &(shape, cols) in BATCH_SCALE_SHAPES {
            let what = format!("/{pattern}/ {shape} starved={starve}");
            let q = batch_scale_query(shape, cols, pattern);
            let plan = Planner::new().plan(&q).unwrap();
            assert_eq!(plan.strategy, strategy, "{what}");
            let budget = if starve {
                starved
            } else {
                plan.seeded_budget()
            };
            let sa402 = |report: &ExecReport| {
                report
                    .degradations
                    .iter()
                    .any(|d| d.code.as_str() == "SA402")
            };

            let (out, report) = plan
                .execute_in(&db, &ExecCx::production().with_budget(budget))
                .unwrap();
            let expected = batch_scale_expected(&db, pattern, cols, BATCH_SCALE_ROWS);
            let matched = batch_scale_expected(&db, pattern, &[0, 1, 2], BATCH_SCALE_ROWS);
            assert!(!expected.is_empty(), "{what}");
            if cols.len() < 3 {
                assert!(
                    expected.len() < matched.len(),
                    "{what}: no duplicates collapsed"
                );
            }
            match out {
                EvalOutput::Finite(rel) => assert_eq!(&rows(&rel), &expected, "{what}"),
                other => panic!("expected finite output, got {other:?}"),
            }
            assert!(report.verdict.is_exact(), "{what}");
            assert_eq!(report.domain_size, BATCH_SCALE_ROWS, "{what}");
            assert_eq!(report.tuples_enumerated, expected.len(), "{what}");
            assert_eq!(sa402(&report), starve, "{what}");

            let cx = ExecCx::production()
                .with_budget(Budget {
                    wall_time_ms: 2,
                    ..budget
                })
                .with_clock(Arc::new(Ticking::default()));
            let (out, report) = plan.execute_in(&db, &cx).unwrap();
            let expected = batch_scale_expected(&db, pattern, cols, 2 * 4096);
            match out {
                EvalOutput::Finite(rel) => assert_eq!(&rows(&rel), &expected, "{what}"),
                other => panic!("expected finite output, got {other:?}"),
            }
            assert_eq!(report.domain_size, 2 * 4096, "{what}");
            assert!(!report.verdict.is_exact(), "{what}");
            assert_eq!(report.faults.deadline_at_checkpoint, Some(3), "{what}");
            let truncations: Vec<_> = report
                .degradations
                .iter()
                .filter(|d| d.code.as_str() == "SA411")
                .map(|d| d.detail.as_str())
                .collect();
            assert_eq!(
                truncations,
                ["deadline fired at checkpoint 3: scanned 8192 rows"],
                "{what}"
            );
            assert_eq!(sa402(&report), starve, "{what}");
        }
    }
}
