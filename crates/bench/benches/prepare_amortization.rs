//! Compile-once/execute-many amortization. Compiling a query to a
//! synchronized automaton dominates evaluation cost; a [`Plan`] built
//! by a planner whose engine carries an [`AutomatonCache`] pays it once
//! and reuses the minimized artifact on every later execution. This
//! bench measures, on the Figure-2 probe queries, (a) a cold
//! compile+eval per iteration and (b) a cached engine re-submitting the
//! same statement — then prints the amortization ratio of N executions
//! of one cached plan over N cold compile+evals so CI can archive it.

use std::sync::Arc;

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::{ab, unary_db};
use strcalc_core::json::Json;
use strcalc_core::{AutomataEngine, AutomatonCache, Calculus, Plan, Planner, Query};

fn probe(calc: Calculus) -> Query {
    let src = match calc {
        Calculus::S => "exists y. (U(y) & x <= y & last(x,'a'))",
        Calculus::SLeft => "exists y. (U(y) & fa(y, x, 'a'))",
        Calculus::SReg => "exists y. (U(y) & pl(x, y, /(ab)*/))",
        Calculus::SLen => "exists y. (U(y) & el(x, y) & last(x,'a'))",
    };
    Query::parse(calc, ab(), vec!["x".into()], src).expect("probe query valid")
}

/// One plan for `q` from a planner whose engine carries a fresh cache.
fn cached_plan(q: &Query) -> Plan {
    let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
    Planner::for_engine(&engine)
        .plan(q)
        .expect("headline probe plans")
}

fn bench(c: &mut Criterion) {
    let db = unary_db(24, 6, 9);
    let mut group = c.benchmark_group("prepare_amortization");
    for calc in Calculus::all() {
        let q = probe(calc);

        // Cold: every iteration compiles from scratch and evaluates.
        let cold = AutomataEngine::new();
        group.bench_with_input(
            BenchmarkId::new("cold_compile_eval", calc.name()),
            &q,
            |b, q| b.iter(|| cold.eval(q, &db).unwrap()),
        );

        // Cached engine: same statement re-submitted, served by the
        // automaton cache (hash lookup + fingerprints instead of compile).
        let cache = Arc::new(AutomatonCache::new());
        let cached = AutomataEngine::new().with_cache(Arc::clone(&cache));
        cached.eval(&q, &db).unwrap(); // populate
        group.bench_with_input(
            BenchmarkId::new("cached_resubmit_eval", calc.name()),
            &q,
            |b, q| b.iter(|| cached.eval(q, &db).unwrap()),
        );
        assert!(cache.stats().hit_rate() > 0.9, "resubmits must hit");
    }
    group.finish();

    // Headline number for the CI artifact: wall-clock amortization of N
    // executions of one plan from a cached planner versus N cold
    // compile+evals. These probes carry an extra quantified track, so
    // the cold path pays a three-track convolution + projection per call
    // while the warm path only re-enumerates the minimized single-track
    // artifact.
    let evals = 50u32;
    let mut json_rows = Vec::new();
    for calc in Calculus::all() {
        let src = match calc {
            Calculus::S => "exists y. exists z. (U(y) & U(z) & x <= y & y <= z & last(x,'a'))",
            Calculus::SLeft => "exists y. exists z. (U(y) & U(z) & fa(y, x, 'a') & x <= z)",
            Calculus::SReg => "exists y. exists z. (U(y) & U(z) & pl(x, y, /(ab)*(ba)*/) & x <= z)",
            Calculus::SLen => {
                "exists y. exists z. (U(y) & U(z) & el(x, y) & el(y, z) & last(x,'a'))"
            }
        };
        let q = Query::parse(calc, ab(), vec!["x".into()], src).expect("headline probe valid");
        let cold_engine = AutomataEngine::new();
        let t0 = std::time::Instant::now();
        for _ in 0..evals {
            cold_engine.eval(&q, &db).unwrap();
        }
        let cold = t0.elapsed();

        let plan = cached_plan(&q);
        let t1 = std::time::Instant::now();
        for _ in 0..evals {
            plan.execute(&db).unwrap();
        }
        let warm = t1.elapsed();
        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        println!(
            "amortization {:>5}: {} cold evals {:?} vs cached plan {:?} — {:.1}x",
            calc.name(),
            evals,
            cold,
            warm,
            speedup,
        );
        json_rows.push((
            calc.name(),
            Json::obj([
                ("cold_secs", Json::fixed(cold.as_secs_f64(), 6)),
                ("cached_secs", Json::fixed(warm.as_secs_f64(), 6)),
                ("speedup", Json::fixed(speedup, 2)),
            ]),
        ));
    }
    strcalc_bench::record_bench_json(
        "prepare_amortization",
        Json::obj([
            ("evals", evals.into()),
            ("per_calculus", Json::obj(json_rows)),
        ]),
    );
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
