//! E5 — Proposition 3: Boolean `RC(S)` queries on **unary** databases
//! evaluate in time linear in the database size. The sweep doubles `n`;
//! linearity shows as time roughly doubling.

use criterion::{BenchmarkId, Criterion, Throughput};
use strcalc_bench::{s_query, unary_db};
use strcalc_core::{AutomataEngine, Planner, Strategy};

fn bench(c: &mut Criterion) {
    let engine = AutomataEngine::new();
    let baseline = Planner::new()
        .force(Strategy::ActiveDomainEnum)
        .with_slack(1);
    // A Boolean RC(S) query: "some stored string has a proper prefix also
    // stored" — prefix-structure heavy, exercised on the trie encoding.
    let q = s_query(&[], "existsA x. existsA y. (U(x) & U(y) & x < y)");
    let mut group = c.benchmark_group("unary_linear");
    for n in [50usize, 100, 200, 400, 800, 1600] {
        let db = unary_db(n, 12, 3);
        group.throughput(Throughput::Elements(db.total_tuples() as u64));
        group.bench_with_input(BenchmarkId::new("automata", n), &db, |b, db| {
            b.iter(|| engine.eval_bool(&q, db).unwrap())
        });
        if n <= 200 {
            group.bench_with_input(BenchmarkId::new("enum_baseline", n), &db, |b, db| {
                b.iter(|| baseline.plan(&q).unwrap().execute(db).unwrap())
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
