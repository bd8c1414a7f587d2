//! E13 — static-analysis overhead. The analyzer is meant to run on
//! *every* compile ([`strcalc_sqlfront::compile_select_with`] and
//! `Query::analyzed`), which is only tenable if its latency is
//! negligible next to compilation proper. This bench puts the full
//! four-pass analysis beside automata compilation and end-to-end
//! evaluation on the Figure-2 probe queries.

use criterion::{BenchmarkId, Criterion};
use strcalc_analyze::Analyzer;
use strcalc_bench::{ab, unary_db};
use strcalc_core::{AutomataEngine, Calculus, Query};

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
    let engine = AutomataEngine::new();
    let db = unary_db(24, 6, 9);
    let mut group = c.benchmark_group("analyze_overhead");
    for calc in Calculus::all() {
        let q = probe(calc);
        let analyzer = Analyzer::new(calc.structure_class());
        group.bench_with_input(BenchmarkId::new("analyze", calc.name()), &q, |b, q| {
            b.iter(|| {
                let analysis = analyzer.analyze(q.alphabet(), q.formula());
                assert!(!analysis.has_errors());
                analysis.diagnostics.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("compile", calc.name()), &q, |b, q| {
            b.iter(|| engine.compile(q, &db).unwrap().var_names.len())
        });
        group.bench_with_input(
            BenchmarkId::new("compile_and_eval", calc.name()),
            &q,
            |b, q| b.iter(|| engine.eval(q, &db).unwrap().is_finite()),
        );
    }
    group.finish();
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
