//! Every `strcalc-verify` sweep, run by `cargo test`: the
//! translation-validation corpus, the cache smoke, planlint, replay (with
//! each corpus query's route checks) and chaos (with the batch-scale
//! deadline cases). The sweeps are the example's own module, included
//! here, so the command line and this test cannot drift apart. Each
//! report must be clean and hold the counts the corpora pin.

// The rows' display fields are read by the example's printer only.
#[allow(dead_code)]
#[path = "../examples/strcalc_verify/sweeps.rs"]
mod sweeps;

use strcalc::alphabet::Alphabet;

fn dna() -> Alphabet {
    Alphabet::new("acgt").unwrap()
}

#[test]
fn the_validation_corpus_validates_every_check() {
    let report = sweeps::validation(&Alphabet::ab(), &dna());
    assert_eq!(report.problems, Vec::<String>::new());
    assert_eq!(report.checks.len(), 29);
    assert_eq!(report.validated, 29);
}

#[test]
fn a_second_pass_is_served_from_the_cache() {
    let report = sweeps::cache_smoke(&Alphabet::ab(), &dna());
    assert_eq!(report.problems, Vec::<String>::new());
    assert_eq!(report.hits, report.lookups);
    assert_eq!(report.first.misses, report.lookups);
}

#[test]
fn every_corpus_plan_verifies() {
    let report = sweeps::planlint(&Alphabet::ab(), &dna());
    assert_eq!(report.problems, Vec::<String>::new());
    assert_eq!(report.plans, 44);
}

#[test]
fn every_corpus_trace_replays_and_every_route_agrees() {
    let report = sweeps::replay(&Alphabet::ab());
    assert_eq!(report.problems, Vec::<String>::new());
    assert_eq!(report.rows.len(), 26);
    assert_eq!((report.degraded, report.narrowed), (6, 1));
}

#[test]
fn injected_faults_degrade_typed_and_replay() {
    let report = sweeps::chaos(&Alphabet::ab());
    assert_eq!(report.problems, Vec::<String>::new());
    assert_eq!(report.runs, 26 * sweeps::SEEDS.count());
    assert_eq!(report.after_work, 6);
}
