//! E2 — Figure 2: the property matrix, measured. For each calculus we
//! time (a) exact evaluation, (b) the collapse-based baseline, and
//! (c) the state-safety decision, on the same database — the per-column
//! cost profile that Figure 2 summarizes qualitatively.

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::{ab, unary_db};
use strcalc_core::safety::state_safety;
use strcalc_core::{AutomataEngine, Calculus, Planner, Query, Strategy};

fn probe(calc: Calculus) -> Query {
    let src = match calc {
        Calculus::S => "exists y. (U(y) & x <= y & last(x,'a'))",
        Calculus::SLeft => "exists y. (U(y) & fa(y, x, 'a'))",
        Calculus::SReg => "exists y. (U(y) & pl(x, y, /(ab)*/))",
        Calculus::SLen => "exists y. (U(y) & el(x, y) & last(x,'a'))",
    };
    Query::parse(calc, ab(), vec!["x".into()], src).expect("probe query valid")
}

fn bench(c: &mut Criterion) {
    let engine = AutomataEngine::new();
    let baseline = Planner::new()
        .force(Strategy::ActiveDomainEnum)
        .with_slack(1);
    let db = unary_db(24, 6, 9);
    let mut group = c.benchmark_group("fig2_matrix");
    for calc in Calculus::all() {
        let q = probe(calc);
        group.bench_with_input(BenchmarkId::new("exact_eval", calc.name()), &q, |b, q| {
            b.iter(|| engine.eval(q, &db).unwrap().is_finite())
        });
        group.bench_with_input(
            BenchmarkId::new("collapse_baseline", calc.name()),
            &q,
            |b, q| b.iter(|| baseline.plan(q).unwrap().execute(&db).unwrap().0.len()),
        );
        group.bench_with_input(BenchmarkId::new("state_safety", calc.name()), &q, |b, q| {
            b.iter(|| state_safety(&engine, q, &db).unwrap().is_safe())
        });
    }
    group.finish();
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
