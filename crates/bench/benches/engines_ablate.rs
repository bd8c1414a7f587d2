//! Ablations called out in DESIGN.md §7:
//!
//! * trie encoding of database relations vs a naive per-tuple union;
//! * aggressive vs lazy minimization thresholds in the compiler;
//! * product order (smallest-first is built in; we chart threshold
//!   effects instead).

use criterion::{BenchmarkId, Criterion};
use strcalc_alphabet::Str;
use strcalc_bench::{ab, s_query};
use strcalc_core::AutomataEngine;
use strcalc_synchro::{atoms, SyncNfa};
use strcalc_workloads::Workload;

/// Naive finite-relation automaton: union of one-path automata per
/// tuple (the thing the trie encoding improves on).
fn finite_relation_naive(k: u8, words: &[Str]) -> SyncNfa {
    let mut acc = SyncNfa::empty(k, vec![0]);
    let start = acc.add_state(false);
    acc.starts = vec![start];
    for w in words {
        acc = acc.union(&atoms::const_eq(k, 0, w)).expect("same alphabet");
    }
    acc
}

fn bench(c: &mut Criterion) {
    // --- trie vs naive encoding ---
    let mut group = c.benchmark_group("ablate_trie");
    for n in [50usize, 200, 800] {
        let words: Vec<Str> = {
            let mut wl = Workload::new(ab(), 21);
            let db = wl.trie_db(n, 3, 6);
            db.adom().into_iter().collect()
        };
        group.bench_with_input(BenchmarkId::new("trie", n), &words, |b, words| {
            b.iter(|| atoms::finite_set(2, 0, words.iter()).num_states())
        });
        group.bench_with_input(BenchmarkId::new("naive_union", n), &words, |b, words| {
            b.iter(|| finite_relation_naive(2, words).num_states())
        });
        // Downstream effect: determinize+minimize each.
        group.bench_with_input(
            BenchmarkId::new("trie_then_minimize", n),
            &words,
            |b, words| {
                b.iter(|| {
                    atoms::finite_set(2, 0, words.iter())
                        .minimize()
                        .num_states()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive_then_minimize", n),
            &words,
            |b, words| b.iter(|| finite_relation_naive(2, words).minimize().num_states()),
        );
    }
    group.finish();

    // --- minimization threshold ---
    let mut group = c.benchmark_group("ablate_minimize");
    let db = Workload::new(ab(), 23).unary_db(60, 8);
    let q = s_query(
        &[],
        "forallA x. (U(x) -> exists y. (y <= x & last(y, 'b')))",
    );
    for threshold in [8usize, 64, 4096] {
        let engine = AutomataEngine {
            minimize_threshold: threshold,
            ..AutomataEngine::new()
        };
        group.bench_with_input(
            BenchmarkId::new("threshold", threshold),
            &engine,
            |b, engine| b.iter(|| engine.eval_bool(&q, &db).unwrap()),
        );
    }
    group.finish();
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
