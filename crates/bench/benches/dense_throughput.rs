//! Dense batched DFA throughput: what densification buys at the
//! execution tier.
//!
//! PR 8 adds the dense tier — byte-class-compressed transition tables
//! run over whole columns in batches — as the executor for the general
//! scan class. The claim it must cash is raw filter throughput: the
//! premultiplied `u32` table walked via a 256-entry class map must beat
//! the sparse `Vec<Vec<Option<u32>>>` per-string DFA walk by a wide
//! margin on fig2-style corpora, measured in bytes/sec over the same
//! strings. Headline numbers (and the ≥3× gate) land in `BENCH_8.json`
//! via `BENCH_JSON`; CI archives it in the bench-json job.

use criterion::{BenchmarkId, Criterion, Throughput};
use strcalc_alphabet::Str;
use strcalc_automata::DenseDfa;
use strcalc_bench::ab;
use strcalc_core::json::Json;
use strcalc_core::{Calculus, Planner, Query, Strategy};
use strcalc_logic::Lang;
use strcalc_relational::Database;
use strcalc_workloads::Workload;

/// General-class fig2-style filters: none is LIKE-shaped, so each one
/// routes to the dense tier (the linear classes never reach it). These
/// rows measure throughput and carry the ≥3× gate. Both walks stop at
/// the dead state; only the dense walker also stops at an accepting
/// sink. `segments` has one: a row of `b.*a.*` is decided at its first
/// `a`, after which the dense walker only checks that the rest is over
/// Σ, while the sparse walk reads every byte of an accepted row.
const PATTERNS: [(&str, &str); 3] = [
    ("segments", "b.*a.*"),
    ("parity", "(b*ab*a)*b*"),
    ("anchored", "a.*b.*a"),
];

/// A trap-heavy filter: `(aa)*` dies on the first `b`, so the sparse
/// walk exits after ~2 bytes per string. Reported (not gated) to show
/// the batched walker's whole-group trap exit keeps it competitive
/// when there is almost nothing to scan.
const TRAP: (&str, &str) = ("trap", "(aa)*");

/// Corpus shape: enough strings that the batch loop dominates, long
/// enough that the inner byte loop (the thing being measured) is the
/// hot path.
const CORPUS_N: usize = 4_000;
const MIN_LEN: usize = 16;
const MAX_LEN: usize = 128;
const SEED: u64 = 8;

fn lang(pattern: &str) -> Lang {
    let regex = strcalc_automata::Regex::parse(&ab(), pattern).expect("pattern parses");
    Lang::named(format!("LIKE {pattern}"), regex)
}

/// One timed round of `iters` runs of `f`.
fn timed(iters: u32, f: &mut impl FnMut()) -> std::time::Duration {
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed()
}

/// Fastest of `rounds` alternating dense/sparse rounds. Interleaving
/// keeps clock-frequency and cache drift from landing entirely on one
/// side of the comparison, and the minimum is the noise-free estimate
/// of each side's warm speed — scheduler noise only ever adds time.
fn paired_minimums(
    rounds: usize,
    iters: u32,
    mut dense: impl FnMut(),
    mut sparse: impl FnMut(),
) -> (std::time::Duration, std::time::Duration) {
    dense();
    sparse();
    let mut dt = std::time::Duration::MAX;
    let mut st = std::time::Duration::MAX;
    for _ in 0..rounds {
        dt = dt.min(timed(iters, &mut dense));
        st = st.min(timed(iters, &mut sparse));
    }
    (dt, st)
}

fn bench(c: &mut Criterion) {
    let mut w = Workload::new(ab(), SEED);
    let corpus: Vec<Str> = w.random_strings(CORPUS_N, MIN_LEN, MAX_LEN);
    let corpus_bytes: usize = corpus.iter().map(|s| s.syms().len()).sum();
    let refs: Vec<&Str> = corpus.iter().collect();

    let mut group = c.benchmark_group("dense_throughput");
    group.throughput(Throughput::Bytes(corpus_bytes as u64));
    for (name, pattern) in PATTERNS.into_iter().chain([TRAP]) {
        let sparse = lang(pattern).to_dfa(2);
        let dense = DenseDfa::compile(&sparse);
        group.bench_with_input(BenchmarkId::new("dense_batch", name), &dense, |b, d| {
            b.iter(|| {
                let mut mask = vec![true; refs.len()];
                d.match_mask(&refs, &mut mask);
                mask.iter().filter(|m| **m).count()
            })
        });
        group.bench_with_input(BenchmarkId::new("sparse_walk", name), &sparse, |b, d| {
            b.iter(|| corpus.iter().filter(|s| d.accepts(s)).count())
        });
    }
    group.finish();

    // Headline numbers: paired interleaved minimums.
    let rounds = 9usize;
    let iters = 20u32;
    let mut rows = Vec::new();
    let mut trap_row = Json::Null;
    let mut trap_speedup = 0.0f64;
    let mut worst_speedup = f64::INFINITY;
    for (name, pattern) in PATTERNS.into_iter().chain([TRAP]) {
        let sparse = lang(pattern).to_dfa(2);
        let dense = DenseDfa::compile(&sparse);

        // Correctness gate before timing: the batched table and the
        // sparse walk agree on every corpus string, and the filter is
        // not degenerate (the `trap` row is the one legitimate
        // near-empty match set).
        let mut mask = vec![true; refs.len()];
        dense.match_mask(&refs, &mut mask);
        let matches = mask.iter().filter(|m| **m).count();
        for (m, s) in mask.iter().zip(&corpus) {
            assert_eq!(*m, sparse.accepts(s), "dense/sparse disagree on {s:?}");
        }
        assert!(matches < corpus.len(), "/{pattern}/ matched everything");

        // The executor reuses its batch mask across dispatches, so the
        // timed dense path does too.
        let mut mask_buf = vec![true; refs.len()];
        let (dense_t, sparse_t) = paired_minimums(
            rounds,
            iters,
            || {
                mask_buf.fill(true);
                dense.match_mask(&refs, &mut mask_buf);
            },
            || {
                corpus.iter().filter(|s| sparse.accepts(s)).count();
            },
        );
        let per_iter_bytes = corpus_bytes as f64;
        let dense_bps = per_iter_bytes * iters as f64 / dense_t.as_secs_f64().max(1e-12);
        let sparse_bps = per_iter_bytes * iters as f64 / sparse_t.as_secs_f64().max(1e-12);
        let speedup = sparse_t.as_secs_f64() / dense_t.as_secs_f64().max(1e-12);
        println!(
            "dense throughput {name:>9}: dense {:.1} MB/s vs sparse {:.1} MB/s — {speedup:.1}x \
             ({matches}/{} match)",
            dense_bps / 1e6,
            sparse_bps / 1e6,
            corpus.len(),
        );
        let row = Json::obj([
            ("pattern", pattern.into()),
            ("dense_states", dense.num_states().into()),
            ("dense_classes", dense.num_classes().into()),
            ("table_bytes", dense.approx_bytes().into()),
            ("matches", matches.into()),
            ("dense_round_secs", Json::fixed(dense_t.as_secs_f64(), 6)),
            ("sparse_round_secs", Json::fixed(sparse_t.as_secs_f64(), 6)),
            ("dense_bytes_per_sec", Json::fixed(dense_bps, 0)),
            ("sparse_bytes_per_sec", Json::fixed(sparse_bps, 0)),
            ("speedup", Json::fixed(speedup, 2)),
        ]);
        if name == TRAP.0 {
            trap_row = row;
            trap_speedup = speedup;
        } else {
            rows.push((name, row));
            worst_speedup = worst_speedup.min(speedup);
        }
    }

    // End-to-end sanity on the same corpus: the planner routes the
    // general class to the dense tier and the answer matches forced
    // automaton evaluation (throughput is covered above; this pins the
    // executor wiring the numbers are claimed for).
    let mut db = Database::new();
    for s in &corpus {
        db.insert("U", vec![s.clone()]).expect("corpus row inserts");
    }
    let q = Query::parse(
        Calculus::SReg,
        ab(),
        vec!["x".into()],
        &format!("U(x) & in(x, /{}/)", PATTERNS[0].1),
    )
    .expect("probe query valid");
    let plan = Planner::new().plan(&q).expect("plans");
    assert_eq!(
        plan.strategy,
        Strategy::DenseDfaScan,
        "general class densifies"
    );
    let (routed, report) = plan.execute(&db).expect("dense route evaluates");
    let (direct, _) = Planner::new()
        .force(Strategy::Automata)
        .plan(&q)
        .expect("plans")
        .execute(&db)
        .expect("automata evaluates");
    assert_eq!(routed, direct, "dense route changed the answer");
    assert!(report.automaton_states > 0 && report.artifact_bytes > 0);

    // The executor row: the whole `Plan::execute` of that plan (alphabet
    // guard, batched table dispatch, answer materialization) against the
    // bare `match_mask` kernel for the same language, paired the same
    // way. The ratio is the share of kernel speed the executor keeps.
    let kernel = DenseDfa::compile(&lang(PATTERNS[0].1).to_dfa(2));
    let stored: Vec<Str> = db
        .relation("U")
        .expect("corpus relation")
        .iter()
        .map(|t| t[0].clone())
        .collect();
    let stored_bytes: usize = stored.iter().map(|s| s.syms().len()).sum();
    let stored_refs: Vec<&Str> = stored.iter().collect();
    let mut kernel_mask = vec![true; stored_refs.len()];
    let (exec_t, kernel_t) = paired_minimums(
        rounds,
        iters,
        || {
            plan.execute(&db).expect("dense route evaluates");
        },
        || {
            kernel_mask.fill(true);
            kernel.match_mask(&stored_refs, &mut kernel_mask);
        },
    );
    let exec_bps = stored_bytes as f64 * iters as f64 / exec_t.as_secs_f64().max(1e-12);
    let kernel_bps = stored_bytes as f64 * iters as f64 / kernel_t.as_secs_f64().max(1e-12);
    let to_kernel = kernel_t.as_secs_f64() / exec_t.as_secs_f64().max(1e-12);
    println!(
        "dense executor  {:>9}: Plan::execute {:.1} MB/s vs match_mask {:.1} MB/s — \
         {to_kernel:.2}x of kernel speed",
        PATTERNS[0].0,
        exec_bps / 1e6,
        kernel_bps / 1e6,
    );
    let executor_row = Json::obj([
        ("pattern", PATTERNS[0].1.into()),
        ("stored_bytes", stored_bytes.into()),
        ("exec_round_secs", Json::fixed(exec_t.as_secs_f64(), 6)),
        ("kernel_round_secs", Json::fixed(kernel_t.as_secs_f64(), 6)),
        ("exec_bytes_per_sec", Json::fixed(exec_bps, 0)),
        ("kernel_bytes_per_sec", Json::fixed(kernel_bps, 0)),
        ("exec_to_kernel", Json::fixed(to_kernel, 2)),
    ]);

    strcalc_bench::record_bench_json(
        "dense_throughput",
        Json::obj([
            (
                "corpus",
                Json::obj([
                    ("strings", CORPUS_N.into()),
                    ("bytes", corpus_bytes.into()),
                    ("min_len", MIN_LEN.into()),
                    ("max_len", MAX_LEN.into()),
                    ("seed", SEED.into()),
                ]),
            ),
            ("rounds", rounds.into()),
            ("iters_per_round", iters.into()),
            ("per_pattern", Json::obj(rows)),
            ("trap_pattern", trap_row),
            ("executor", executor_row),
            ("worst_speedup", Json::fixed(worst_speedup, 2)),
        ]),
    );
    assert!(
        worst_speedup >= 3.0,
        "the batched dense table must beat the sparse per-string walk by ≥3x on \
         full-scan patterns, measured {worst_speedup:.2}x"
    );
    // The trap row has nothing to scan — the sparse walk rejects on the
    // first or second byte — so "throughput" degenerates to per-string
    // overhead. The whole-group trap exit must keep the batched walker
    // in the same league rather than 10× behind.
    assert!(
        trap_speedup >= 0.2,
        "batched trap exit fell behind the sparse early exit: {trap_speedup:.2}x"
    );
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
