//! End-to-end acceptance test for the robustness layer: a real
//! wall-clock deadline cutting a dense scan mid-flight, and replaying
//! bit-for-bit from the recorded checkpoint.

use std::sync::Arc;

use strcalc_alphabet::Alphabet;
use strcalc_core::cache::AutomatonCache;
use strcalc_core::{
    replay, AutomataEngine, Budget, Calculus, ExecCx, ExecTrace, ExecVerdict, Planner, Query,
    Strategy,
};
use strcalc_relational::Database;

/// A corpus large enough that a dense scan cannot finish inside a
/// 1 ms deadline: 60k distinct strings of 128 symbols over {a, b}
/// (several checkpoint batches of 4096 rows each, 7.7 MB in all). Row
/// `i` repeats the 17 low bits of `i`.
fn big_db() -> Database {
    let strings: Vec<String> = (0..60_000u32)
        .map(|i| {
            (0..128)
                .map(|j| if i >> (j % 17) & 1 == 1 { 'b' } else { 'a' })
                .collect()
        })
        .collect();
    let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
    let mut db = Database::new();
    db.insert_unary_parsed(&Alphabet::ab(), "U", &refs).unwrap();
    db
}

/// A filter whose DFA has neither a dead state nor an accepting sink
/// (an even number of `a`s), so the dense walker reads every symbol of
/// every row: a scan cannot stop a row early.
fn dense_query() -> Query {
    Query::parse(
        Calculus::SReg,
        Alphabet::ab(),
        vec!["x".into()],
        "U(x) & in(x, /(b*ab*a)*b*/)",
    )
    .unwrap()
}

/// The headline acceptance criterion: a dense scan over a corpus that
/// exceeds a 1 ms deadline terminates at a batch checkpoint — not at
/// settlement — with an SA411 degradation carrying the rows-seen
/// watermark and a `Bounded` verdict, and the recorded run replays to
/// the identical degradation sequence under the frozen virtual clock.
#[test]
fn dense_scan_exceeding_a_real_deadline_truncates_at_a_checkpoint_and_replays() {
    let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    let db = big_db();
    let plan = Planner::for_engine(&engine).plan(&dense_query()).unwrap();
    assert_eq!(plan.strategy, Strategy::DenseDfaScan);

    let tight = Budget {
        wall_time_ms: 1,
        ..Budget::unlimited()
    };
    let (out, report) = plan
        .execute_in(&db, &ExecCx::production().with_budget(tight))
        .expect("a degraded run still answers");

    // The deadline fired in flight, at a checkpoint the report names.
    let fired = report
        .faults
        .deadline_at_checkpoint
        .expect("60k rows cannot scan inside 1 ms");
    assert!(matches!(report.verdict, ExecVerdict::Bounded { .. }));
    let sa411 = report
        .degradations
        .iter()
        .find(|d| d.code.as_str() == "SA411")
        .expect("truncation is SA411-recorded");
    assert!(
        sa411.detail.contains(&format!("checkpoint {fired}")),
        "degradation names the fire checkpoint: {}",
        sa411.detail
    );
    assert!(
        sa411.detail.contains("scanned") && sa411.detail.contains("rows"),
        "degradation carries the rows-seen watermark: {}",
        sa411.detail
    );
    // The watermark is in whole checkpoint batches: the scan stopped
    // at a poll boundary, not wherever settlement found it.
    assert!(report.tuples_enumerated < 60_000, "the scan was cut short");

    // Replay: the recorded checkpoint re-arms over a frozen clock and
    // reproduces the same truncation, degradations, and answer.
    let trace = ExecTrace::record(&plan, &tight, &report, &db, &out).unwrap();
    let parsed = ExecTrace::parse(&trace.to_json()).unwrap();
    assert_eq!(parsed, trace, "the fault plan survives the JSON round trip");

    let replay_engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    let replayed = replay(&trace, &replay_engine, &db).unwrap();
    assert!(
        replayed.is_clean(),
        "deadline truncation must replay bit-for-bit: {:?}",
        replayed.diffs
    );
    assert_eq!(replayed.replayed.faults.deadline_at_checkpoint, Some(fired));
}
