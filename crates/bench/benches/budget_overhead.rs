//! Budget-governance overhead. Every `Plan::execute` runs under an
//! explicit resource budget: a pre-execution governor walks the plan
//! tree once in pre-order, checking whether the run's budget admits
//! each node's certificate, and records one row per node in the run's
//! ledger. That must be noise next to the work it governs, so this bench
//! measures, on the Figure-2 probe queries, (a) a direct ungoverned
//! compile+eval through the automata engine, and (b) the governed
//! `Plan::execute` on a pre-built plan, and gates the difference at 5%.
//! The plan forces the automata strategy: by default the probes take
//! the relational route, which is not the compile+eval of (a).

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::{ab, unary_db};
use strcalc_core::json::Json;
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
    let db = unary_db(24, 6, 9);
    let planner = Planner::new().force(Strategy::Automata);
    let mut group = c.benchmark_group("budget_overhead");
    for calc in Calculus::all() {
        let q = probe(calc);
        let engine = AutomataEngine::new();
        let plan = planner.plan(&q).expect("probes always plan");

        // The ungoverned baseline: compile + eval, no budget machinery.
        group.bench_with_input(BenchmarkId::new("ungoverned", calc.name()), &q, |b, q| {
            b.iter(|| engine.eval(q, &db).expect("probes evaluate"))
        });

        // The governed run on a pre-built plan: the governor's admit
        // check per node, the ledger and the degradation dispatch on top
        // of the same compile + eval.
        group.bench_with_input(
            BenchmarkId::new("governed", calc.name()),
            &plan,
            |b, plan| b.iter(|| plan.execute(&db).expect("probes evaluate")),
        );
    }
    group.finish();

    // Headline number for the CI artifact and gate: governed execution
    // time relative to the ungoverned compile+eval, per calculus. The
    // two sides alternate at *iteration* granularity and the gate takes
    // the median of the per-iteration ratio pairs — pairing at the
    // finest grain cancels machine drift (thermal, frequency scaling,
    // allocator warm-up, a noisy CI neighbour), which on this workload
    // dwarfs the machinery being measured, and the median discards the
    // page-fault outliers.
    let iters = 120usize;
    let mut worst = 0.0f64;
    let mut json_rows = Vec::new();
    for calc in Calculus::all() {
        let q = probe(calc);
        let engine = AutomataEngine::new();
        let plan = planner.plan(&q).expect("probes always plan");

        let mut ratios = Vec::with_capacity(iters);
        let mut raw_total = 0.0f64;
        let mut gov_total = 0.0f64;
        for _ in 0..iters {
            let t0 = std::time::Instant::now();
            engine.eval(&q, &db).expect("probes evaluate");
            let raw = t0.elapsed().as_secs_f64();

            let t1 = std::time::Instant::now();
            plan.execute(&db).expect("probes evaluate");
            let gov = t1.elapsed().as_secs_f64();

            ratios.push(gov / raw.max(1e-12));
            raw_total += raw;
            gov_total += gov;
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let pct = 100.0 * (ratios[iters / 2] - 1.0);
        worst = worst.max(pct);
        let (gov_run, raw_run) = (gov_total / iters as f64, raw_total / iters as f64);
        println!(
            "budget overhead {:>8}: governed {:.1}µs vs ungoverned {:.1}µs per run — {pct:+.2}%",
            calc.name(),
            1e6 * gov_run,
            1e6 * raw_run,
        );
        json_rows.push((
            calc.name(),
            Json::obj([
                ("governed_run_secs", Json::fixed(gov_run, 7)),
                ("ungoverned_run_secs", Json::fixed(raw_run, 7)),
                ("overhead_percent", Json::fixed(pct, 3)),
            ]),
        ));
    }
    println!("budget overhead worst case: {worst:.2}% (budget 5%)");
    strcalc_bench::record_bench_json(
        "budget_overhead",
        Json::obj([
            ("paired_iters", iters.into()),
            ("budget_percent", Json::fixed(5.0, 1)),
            ("worst_percent", Json::fixed(worst, 3)),
            ("per_calculus", Json::obj(json_rows)),
        ]),
    );
    assert!(
        worst < 5.0,
        "budget governance must stay under 5% of execution time, measured {worst:.2}%"
    );
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
