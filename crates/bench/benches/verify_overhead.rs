//! E14 — translation-validation overhead. The verified-rewrite gate
//! certifies every step of `nnf → lower_terms → simplify` through the
//! automata path, which costs real compilations. This bench measures
//! that premium on the Figure-2 probe queries: plain compilation, the
//! unverified rewrite chain, and the full per-step certification
//! (`Validator::validate_trace_on`) side by side.

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::{ab, unary_db};
use strcalc_core::{AutomataEngine, Calculus, Query};
use strcalc_logic::Rewriter;
use strcalc_verify::Validator;

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
    let validator = Validator::new(ab());
    let rewriter = Rewriter::standard();
    let mut group = c.benchmark_group("verify_overhead");
    for calc in Calculus::all() {
        let q = probe(calc);
        group.bench_with_input(BenchmarkId::new("compile", calc.name()), &q, |b, q| {
            b.iter(|| engine.compile(q, &db).unwrap().var_names.len())
        });
        group.bench_with_input(BenchmarkId::new("rewrite", calc.name()), &q, |b, q| {
            b.iter(|| rewriter.rewrite_traced(q.formula()).steps.len())
        });
        group.bench_with_input(
            BenchmarkId::new("rewrite_and_validate", calc.name()),
            &q,
            |b, q| {
                b.iter(|| {
                    let trace = rewriter.rewrite_traced(q.formula());
                    let steps = validator.validate_trace_on(&trace, &db);
                    assert!(steps.iter().all(|s| s.verdict.is_validated()));
                    steps.len()
                })
            },
        );
    }
    group.finish();
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
