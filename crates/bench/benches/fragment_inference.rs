//! Fragment inference: what classification costs and what it buys.
//!
//! The planner's strategy selection is a lookup on the inferred
//! evaluation class (`analyze::fragments::eval_class`, run once when a
//! query builds its fact sheet), so (a) inference must be small next to
//! planning — this bench reports its size as a share of a plan — and
//! (b) the payoff must be real: a linear-class LIKE
//! query routed to the scan fast path must beat the same query forced
//! through automaton compilation. Headline numbers land in
//! `BENCH_7.json` via `BENCH_JSON` (CI archives it in the bench-json
//! job).

use criterion::{BenchmarkId, Criterion};
use strcalc_analyze::fragments;
use strcalc_bench::{ab, unary_db};
use strcalc_core::json::Json;
use strcalc_core::{Calculus, Planner, Query, Strategy};
use strcalc_relational::Database;

/// LIKE-shaped probes across the linear classes plus a general-class
/// control that stays on the automaton path.
const LIKE_PROBES: [(&str, &str); 4] = [
    ("prefix", "U(x) & in(x, /a.*/)"),
    ("suffix", "U(x) & in(x, /.*b/)"),
    ("infix", "U(x) & in(x, /.*ab.*/)"),
    ("general", "U(x) & in(x, /b.*a.*/)"),
];

fn probe(src: &str) -> Query {
    Query::parse(Calculus::SReg, ab(), vec!["x".into()], src).expect("probe query valid")
}

/// Median of `rounds` timed rounds of `iters` runs of `f`.
fn median_round(rounds: usize, iters: u32, mut f: impl FnMut()) -> std::time::Duration {
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        times.push(t0.elapsed());
    }
    times.sort();
    times[rounds / 2]
}

fn bench(c: &mut Criterion) {
    let db: Database = unary_db(240, 10, 9);
    let planner = Planner::new();

    let mut group = c.benchmark_group("fragment_inference");
    for (class, src) in LIKE_PROBES {
        let q = probe(src);
        // Classification alone: the attribute fixpoint over the AST.
        group.bench_with_input(BenchmarkId::new("eval_class", class), &q, |b, q| {
            b.iter(|| fragments::eval_class(q.head(), q.formula()))
        });
        // The planning that reads it.
        group.bench_with_input(BenchmarkId::new("plan", class), &q, |b, q| {
            b.iter(|| planner.plan(q).expect("probes always plan"))
        });
        // Routed end to end: scan fast path for the linear classes,
        // automaton for the general class.
        group.bench_with_input(BenchmarkId::new("execute_routed", class), &q, |b, q| {
            b.iter(|| {
                planner
                    .plan(q)
                    .expect("probes always plan")
                    .execute(&db)
                    .expect("probes evaluate")
            })
        });
    }
    group.finish();

    // Headline numbers. Interleaved rounds, medians, same reasoning as
    // plan_overhead: machine drift hits both sides equally.
    let rounds = 5usize;
    let iters = 40u32;

    // (a) Inference share of planning, worst case over the probes.
    let mut worst_share = 0.0f64;
    let mut infer_rows = Vec::new();
    for (class, src) in LIKE_PROBES {
        let q = probe(src);
        let infer = median_round(rounds, iters, || {
            fragments::eval_class(q.head(), q.formula());
        });
        let plan = median_round(rounds, iters, || {
            planner.plan(&q).expect("probes always plan");
        });
        let share = 100.0 * infer.as_secs_f64() / plan.as_secs_f64().max(1e-12);
        worst_share = worst_share.max(share);
        println!(
            "fragment inference {class:>8}: classify {infer:?} inside plan {plan:?} — {share:.2}%",
        );
        infer_rows.push((
            class,
            Json::obj([
                ("eval_class_round_secs", Json::fixed(infer.as_secs_f64(), 6)),
                ("plan_round_secs", Json::fixed(plan.as_secs_f64(), 6)),
                ("share_percent", Json::fixed(share, 3)),
            ]),
        ));
    }

    // (b) The fast path's payoff: the same linear-class query, routed
    // (scan, no automaton) vs forced through automaton compilation.
    let forced = Planner::new().force(Strategy::Automata);
    let mut speedup_rows = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    for (class, src) in LIKE_PROBES.iter().take(3) {
        let q = probe(src);
        let routed_plan = planner.plan(&q).expect("probes always plan");
        assert_eq!(routed_plan.strategy, Strategy::LikeLinearScan);
        let (scan_out, report) = routed_plan.execute(&db).expect("scan evaluates");
        assert_eq!(report.automaton_states, 0, "fast path built an automaton");
        let (auto_out, _) = forced
            .plan(&q)
            .expect("probes always plan")
            .execute(&db)
            .expect("automata evaluates");
        assert_eq!(scan_out, auto_out, "fast path changed the answer");

        let scan = median_round(rounds, iters, || {
            planner
                .plan(&q)
                .expect("plans")
                .execute(&db)
                .expect("evaluates");
        });
        let auto = median_round(rounds, iters, || {
            forced
                .plan(&q)
                .expect("plans")
                .execute(&db)
                .expect("evaluates");
        });
        let speedup = auto.as_secs_f64() / scan.as_secs_f64().max(1e-12);
        worst_speedup = worst_speedup.min(speedup);
        println!("like fast path {class:>8}: scan {scan:?} vs automata {auto:?} — {speedup:.1}x",);
        speedup_rows.push((
            *class,
            Json::obj([
                ("scan_round_secs", Json::fixed(scan.as_secs_f64(), 6)),
                ("automata_round_secs", Json::fixed(auto.as_secs_f64(), 6)),
                ("speedup", Json::fixed(speedup, 2)),
            ]),
        ));
    }

    strcalc_bench::record_bench_json(
        "fragment_inference",
        Json::obj([
            ("rounds", rounds.into()),
            ("iters_per_round", iters.into()),
            ("inference_worst_share_percent", Json::fixed(worst_share, 3)),
            ("per_class", Json::obj(infer_rows)),
            (
                "like_fast_path",
                Json::obj([
                    ("worst_speedup", Json::fixed(worst_speedup, 2)),
                    ("per_class", Json::obj(speedup_rows)),
                ]),
            ),
        ]),
    );
    assert!(
        worst_speedup > 1.0,
        "the linear-class scan must beat forced automaton compilation, measured {worst_speedup:.2}x"
    );
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
