//! In-flight deadline overhead. Every long-running execution loop now
//! polls a cooperative [`Deadline`] at coarse checkpoints (per
//! 4096-row dense batch, per enumeration-frontier candidate, per
//! search-depth level). An *unlimited* deadline's poll is one relaxed
//! atomic increment; an *armed* finite deadline additionally compares
//! against an injected fire point and reads the monotonic clock. Both
//! must be noise next to the work they interrupt, so this bench pairs,
//! at iteration granularity, a governed run under an unlimited wall
//! budget (unarmed deadline) against the same run under a finite but
//! never-expiring wall budget (armed deadline, clock reads at every
//! checkpoint), and gates the median overhead at 5% — on the Figure-2
//! probe queries and on a dense DFA scan, the checkpoint-densest path.
//!
//! [`Deadline`]: strcalc_core::Deadline

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::{ab, unary_db};
use strcalc_core::json::Json;
use strcalc_core::{Budget, Calculus, ExecCx, Plan, Planner, Query};
use strcalc_relational::Database;

fn probe(calc: Calculus) -> Query {
    let src = match calc {
        Calculus::S => "exists y. (U(y) & x <= y & last(x,'a'))",
        Calculus::SLeft => "exists y. (U(y) & fa(y, x, 'a'))",
        Calculus::SReg => "exists y. (U(y) & pl(x, y, /(ab)*/))",
        Calculus::SLen => "exists y. (U(y) & el(x, y) & last(x,'a'))",
    };
    Query::parse(calc, ab(), vec!["x".into()], src).expect("probe query valid")
}

/// A dense-scan case large enough to cross several 4096-row checkpoint
/// batches — the hottest polling loop.
fn dense_case() -> (Plan, Database) {
    let db = unary_db(20_000, 12, 9);
    let q = Query::parse(
        Calculus::SReg,
        ab(),
        vec!["x".into()],
        "U(x) & in(x, /(aa)*/)",
    )
    .expect("dense probe valid");
    let plan = Planner::new().plan(&q).expect("dense probe plans");
    (plan, db)
}

/// The unlimited wall budget: the deadline is not armed.
fn unarmed() -> ExecCx {
    ExecCx::production().with_budget(Budget::unlimited())
}

/// A finite wall allowance no bench iteration can exhaust: the
/// deadline is armed (every checkpoint reads the clock) but never
/// fires, so both sides compute the identical exact answer.
fn armed() -> ExecCx {
    ExecCx::production().with_budget(Budget {
        wall_time_ms: 3_600_000,
        ..Budget::unlimited()
    })
}

fn bench(c: &mut Criterion) {
    let db = unary_db(24, 6, 9);
    let planner = Planner::new();
    let mut cases: Vec<(String, Plan, Database)> = Calculus::all()
        .into_iter()
        .map(|calc| {
            let plan = planner.plan(&probe(calc)).expect("probes always plan");
            (calc.name().to_string(), plan, db.clone())
        })
        .collect();
    let (dense_plan, dense_db) = dense_case();
    cases.push(("dense_scan".to_string(), dense_plan, dense_db));

    let mut group = c.benchmark_group("deadline_overhead");
    for (name, plan, case_db) in &cases {
        group.bench_with_input(BenchmarkId::new("unarmed", name), plan, |b, plan| {
            b.iter(|| {
                plan.execute_in(case_db, &unarmed())
                    .expect("probes evaluate")
            })
        });
        group.bench_with_input(BenchmarkId::new("armed", name), plan, |b, plan| {
            b.iter(|| plan.execute_in(case_db, &armed()).expect("probes evaluate"))
        });
    }
    group.finish();

    // Headline number for the CI artifact and gate: armed-deadline
    // execution relative to the unarmed governed run. The two sides
    // alternate at iteration granularity and the gate takes the median
    // per-iteration ratio — pairing cancels machine drift, the median
    // discards page-fault outliers (same method as `budget_overhead`).
    let iters = 120usize;
    let mut worst = 0.0f64;
    let mut json_rows = Vec::new();
    for (name, plan, case_db) in &cases {
        let mut ratios = Vec::with_capacity(iters);
        let mut base_total = 0.0f64;
        let mut armed_total = 0.0f64;
        for _ in 0..iters {
            let t0 = std::time::Instant::now();
            let (out0, r0) = plan
                .execute_in(case_db, &unarmed())
                .expect("probes evaluate");
            let base = t0.elapsed().as_secs_f64();

            let t1 = std::time::Instant::now();
            let (out1, r1) = plan.execute_in(case_db, &armed()).expect("probes evaluate");
            let timed = t1.elapsed().as_secs_f64();

            assert_eq!(out0, out1, "an unfired deadline never changes the answer");
            assert!(r0.verdict.is_exact() && r1.verdict.is_exact());
            ratios.push(timed / base.max(1e-12));
            base_total += base;
            armed_total += timed;
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let pct = 100.0 * (ratios[iters / 2] - 1.0);
        worst = worst.max(pct);
        let (armed_run, base_run) = (armed_total / iters as f64, base_total / iters as f64);
        println!(
            "deadline overhead {name:>10}: armed {:.1}µs vs unarmed {:.1}µs per run — {pct:+.2}%",
            1e6 * armed_run,
            1e6 * base_run,
        );
        json_rows.push((
            name,
            Json::obj([
                ("armed_run_secs", Json::fixed(armed_run, 7)),
                ("unarmed_run_secs", Json::fixed(base_run, 7)),
                ("overhead_percent", Json::fixed(pct, 3)),
            ]),
        ));
    }
    println!("deadline overhead worst case: {worst:.2}% (budget 5%)");
    strcalc_bench::record_bench_json(
        "deadline_overhead",
        Json::obj([
            ("paired_iters", iters.into()),
            ("budget_percent", Json::fixed(5.0, 1)),
            ("worst_percent", Json::fixed(worst, 3)),
            ("per_case", Json::obj(json_rows)),
        ]),
    );
    assert!(
        worst < 5.0,
        "deadline checkpoints must stay under 5% of execution time, measured {worst:.2}%"
    );
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
