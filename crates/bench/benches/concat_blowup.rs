//! E3 — Proposition 1: `RC_concat` is computationally complete, so the
//! only general evaluation is bounded search over `Σ^{≤B}` — cost
//! `|Σ|^{B·(quantifier depth)}`. We chart that blow-up and contrast a
//! comparable tame query evaluated exactly by the automata engine in
//! (near-)constant time.

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::{ab, s_query};
use strcalc_core::{AutomataEngine, Domain, DomainEvaluator};
use strcalc_relational::Database;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("concat_blowup");
    let db = Database::new();
    let ww = strcalc_core::concat::ww_query();
    let ab = ab();
    for bound in [2usize, 4, 6, 8] {
        group.bench_with_input(
            BenchmarkId::new("ww_bounded_search", bound),
            &bound,
            |b, &bound| {
                b.iter(|| {
                    let x = ["x".to_string()];
                    let eval = DomainEvaluator::new(&ab, &db, Domain::UpTo(bound));
                    eval.answer(&ww, &x).unwrap().len()
                })
            },
        );
    }
    // The tame contrast: a membership query of similar flavor ("even
    // length strings of a's", regular) via the exact engine — flat cost.
    let engine = AutomataEngine::new();
    let mut dbu = Database::new();
    dbu.insert_unary_parsed(&ab, "U", &["aa"]).unwrap();
    let q = s_query(&[], "existsA x. U(x)");
    group.bench_function("tame_contrast_rc_s", |b| {
        b.iter(|| engine.eval_bool(&q, &dbu).unwrap())
    });
    group.finish();
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
