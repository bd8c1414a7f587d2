//! E12 — Theorems 4/8: the algebras capture the safe calculi. We time
//! both directions of the translation and compare evaluating the same
//! query as algebra vs as calculus.

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::ab;
use strcalc_core::translate::{adom_calculus_to_algebra, gamma_candidates_expr, ra_to_calculus};
use strcalc_core::{AutomataEngine, Calculus, Query};
use strcalc_logic::Formula;
use strcalc_relational::{RaEvaluator, RaExpr};
use strcalc_workloads::Workload;

fn bench(c: &mut Criterion) {
    let alphabet = ab();
    let db = Workload::new(alphabet.clone(), 51).binary_db(40, 6);
    let schema = db.schema();

    // An algebra pipeline: prefixes of first components that are also
    // second components somewhere (semijoin flavour).
    let expr = RaExpr::rel("R")
        .project(vec![0])
        .prefix(0)
        .project(vec![1])
        .select(Formula::last_sym(RaExpr::col(0), 1));

    let ra_eval = RaEvaluator::new(alphabet.clone());
    let engine = AutomataEngine::new();

    let mut group = c.benchmark_group("algebra_vs_calculus");
    group.bench_function("ra_eval_direct", |b| {
        b.iter(|| ra_eval.eval(&expr, &db).unwrap().len())
    });
    group.bench_function("ra_to_calculus_translate", |b| {
        b.iter(|| ra_to_calculus(&expr, &schema).unwrap().size())
    });
    group.bench_function("translated_exact_eval", |b| {
        let f = ra_to_calculus(&expr, &schema).unwrap();
        let q = Query::infer(alphabet.clone(), vec!["c0".into()], f).unwrap();
        b.iter(|| engine.count(&q, &db).unwrap())
    });

    // Calculus → algebra on an active-domain query.
    let q = Query::parse(
        Calculus::S,
        alphabet.clone(),
        vec!["x".into()],
        "existsA y. (R(y, x) & lex(y, x))",
    )
    .unwrap();
    group.bench_function("calc_to_algebra_translate", |b| {
        b.iter(|| {
            adom_calculus_to_algebra(q.formula(), q.head(), &schema)
                .unwrap()
                .size()
        })
    });
    group.bench_function("calc_to_algebra_then_eval", |b| {
        let e = adom_calculus_to_algebra(q.formula(), q.head(), &schema).unwrap();
        b.iter(|| ra_eval.eval(&e, &db).unwrap().len())
    });

    // γ candidate expressions (the Theorem 4 bound machinery).
    for k in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("gamma_candidates", k), &k, |b, &k| {
            let e = gamma_candidates_expr(Calculus::S, &schema, 2, k).unwrap();
            b.iter(|| ra_eval.eval(&e, &db).unwrap().len())
        });
    }
    group.finish();
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
