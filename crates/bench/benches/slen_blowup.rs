//! E6 — Theorem 2 / Corollary 4: `RC(S_len)` quantification collapses to
//! length-restricted quantification, whose range is `|Σ|^maxlen` — the
//! data complexity sits in PH. The collapse route walks that range only
//! until a sentence has its witness, which comes early on this probe.
//! The automata engine fares better on these particular queries but
//! pays in determinization on the hard ones (see `three_col`).

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::{ab, slen_query};
use strcalc_core::{AutomataEngine, Planner, Strategy};
use strcalc_workloads::Workload;

fn bench(c: &mut Criterion) {
    let engine = AutomataEngine::new();
    let baseline = Planner::new()
        .force(Strategy::ActiveDomainEnum)
        .with_slack(0);
    // "Two distinct stored strings have equal length" — the simplest
    // genuinely length-aware sentence.
    let q = slen_query(
        &[],
        "existsA x. existsA y. (U(x) & U(y) & el(x, y) & !(x = y))",
    );
    // "Some string of the same length as a stored one ends in a" — the
    // quantifier ranges over Σ^{≤maxlen}.
    let q_open = slen_query(
        &[],
        "existsL z. (last(z, 'a') & existsA x. (U(x) & el(z, x) & !(z = x)))",
    );

    let mut group = c.benchmark_group("slen_blowup");
    for max_len in [4usize, 6, 8, 10, 12] {
        let db = Workload::new(ab(), 13).unary_db(12, max_len);
        group.bench_with_input(BenchmarkId::new("automata_el", max_len), &db, |b, db| {
            b.iter(|| engine.eval_bool(&q, db).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("automata_lenquant", max_len),
            &db,
            |b, db| b.iter(|| engine.eval_bool(&q_open, db).unwrap()),
        );
        if max_len <= 8 {
            // The collapse route ranges `z` over Σ^{≤maxlen}, exponentially
            // many strings, and stops at its first witness.
            group.bench_with_input(BenchmarkId::new("enum_lenquant", max_len), &db, |b, db| {
                b.iter(|| baseline.plan(&q_open).unwrap().execute(db).unwrap())
            });
        }
    }
    group.finish();
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
