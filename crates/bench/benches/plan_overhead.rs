//! Planning overhead. Every entry point now routes evaluation through
//! the query planner (rewrite, strategy decision, operator-tree
//! lowering, verification, cost annotation), so planning must be cheap relative to
//! what it fronts. This bench measures, on the Figure-2 probe queries,
//! (a) planning alone, (b) a full compile+eval, and prints the headline
//! ratio — planning is required to stay under 5% of compile time — so
//! CI can archive and gate it.

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::{ab, unary_db};
use strcalc_core::json::Json;
use strcalc_core::{AutomataEngine, Calculus, Planner, Query};

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
    let db = unary_db(24, 6, 9);
    let planner = Planner::new();
    let mut group = c.benchmark_group("plan_overhead");
    for calc in Calculus::all() {
        let q = probe(calc);

        // Planning alone: strategy decision + passes + lowering + EXPLAIN
        // metadata, no automata work.
        group.bench_with_input(BenchmarkId::new("plan_only", calc.name()), &q, |b, q| {
            b.iter(|| planner.plan(q).expect("probes always plan"))
        });

        // What planning fronts: a full compile + eval.
        let engine = AutomataEngine::new();
        group.bench_with_input(BenchmarkId::new("compile_eval", calc.name()), &q, |b, q| {
            b.iter(|| engine.eval(q, &db).expect("probes evaluate"))
        });

        // Routed end-to-end, for reference: plan + execute.
        group.bench_with_input(
            BenchmarkId::new("plan_and_execute", calc.name()),
            &q,
            |b, q| {
                b.iter(|| {
                    planner
                        .plan(q)
                        .expect("probes always plan")
                        .execute(&db)
                        .expect("probes evaluate")
                })
            },
        );
    }
    group.finish();

    // Headline number for the CI artifact and gate: planning time as a
    // fraction of compile+eval time, per calculus. Plan and compile are
    // measured in interleaved rounds and summarized by medians, so
    // machine drift (thermal, frequency scaling, a noisy CI neighbour)
    // hits both sides equally instead of skewing the single-shot ratio.
    let rounds = 5usize;
    let iters = 40u32;
    let mut worst = 0.0f64;
    let mut json_rows = Vec::new();
    for calc in Calculus::all() {
        let q = probe(calc);
        let engine = AutomataEngine::new();

        let mut plan_rounds = Vec::with_capacity(rounds);
        let mut compile_rounds = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                planner.plan(&q).expect("probes always plan");
            }
            plan_rounds.push(t0.elapsed());

            let t1 = std::time::Instant::now();
            for _ in 0..iters {
                engine.eval(&q, &db).expect("probes evaluate");
            }
            compile_rounds.push(t1.elapsed());
        }
        plan_rounds.sort();
        compile_rounds.sort();
        let plan = plan_rounds[rounds / 2];
        let compile = compile_rounds[rounds / 2];

        let pct = 100.0 * plan.as_secs_f64() / compile.as_secs_f64().max(1e-12);
        worst = worst.max(pct);
        println!(
            "plan overhead {:>8}: plan {:?} vs compile+eval {:?} — {:.2}%",
            calc.name(),
            plan,
            compile,
            pct,
        );
        json_rows.push((
            calc.name(),
            Json::obj([
                ("plan_round_secs", Json::fixed(plan.as_secs_f64(), 6)),
                (
                    "compile_eval_round_secs",
                    Json::fixed(compile.as_secs_f64(), 6),
                ),
                ("overhead_percent", Json::fixed(pct, 3)),
            ]),
        ));
    }
    println!("plan overhead worst case: {worst:.2}% (budget 5%)");
    // Since PR 6 the passes are planlint-gated, so "plan" time here
    // includes one verify + abstract-interpretation run per pass stage;
    // the 5% budget therefore bounds planning *and* verification.
    strcalc_bench::record_bench_json(
        "plan_overhead",
        Json::obj([
            ("rounds", rounds.into()),
            ("iters_per_round", iters.into()),
            ("budget_percent", Json::fixed(5.0, 1)),
            ("worst_percent", Json::fixed(worst, 3)),
            ("per_calculus", Json::obj(json_rows)),
        ]),
    );
    assert!(
        worst < 5.0,
        "planning must stay under 5% of compile time, measured {worst:.2}%"
    );
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
