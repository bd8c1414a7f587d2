//! E14 — the Section-1 motivation, end to end: SQL text → parse →
//! compile (with minimal-fragment inference) → exact evaluation.

use criterion::{BenchmarkId, Criterion};
use strcalc_bench::ab;
use strcalc_core::ExecCx;
use strcalc_sqlfront::{compile_select, parse_select, run_sql, Catalog};
use strcalc_workloads::Workload;

fn bench(c: &mut Criterion) {
    let alphabet = ab();
    let mut catalog = Catalog::new();
    catalog.add_table("faculty", &["name", "dept"]);
    catalog.add_table("dept", &["head"]);

    // Data.
    let mut wl = Workload::new(alphabet.clone(), 41);
    let mut db = strcalc_relational::Database::new();
    for _ in 0..60 {
        let name = wl.random_string(1, 8);
        let dept = wl.random_string(1, 4);
        db.insert("faculty", vec![name, dept]).unwrap();
    }
    for _ in 0..8 {
        db.insert("dept", vec![wl.random_string(1, 8)]).unwrap();
    }

    let statements = [
        (
            "like",
            "SELECT f.name FROM faculty f WHERE f.name LIKE 'a%b'",
        ),
        (
            "similar",
            "SELECT f.name FROM faculty f WHERE f.name SIMILAR TO '(ab|ba)+'",
        ),
        (
            "subquery",
            "SELECT f.name FROM faculty f WHERE EXISTS \
             (SELECT d.head FROM dept d WHERE PREFIX(d.head, f.name))",
        ),
        (
            "length_join",
            "SELECT f.name, g.name FROM faculty f, faculty g \
             WHERE LENGTH(f.name) = LENGTH(g.name) AND f.name < g.name",
        ),
    ];

    let mut group = c.benchmark_group("sql_pipeline");
    for (name, sql) in &statements {
        group.bench_with_input(BenchmarkId::new("parse", name), sql, |b, sql| {
            b.iter(|| parse_select(&alphabet, sql).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("compile", name), sql, |b, sql| {
            let stmt = parse_select(&alphabet, sql).unwrap();
            b.iter(|| {
                compile_select(&alphabet, &catalog, &stmt)
                    .unwrap()
                    .calculus()
            })
        });
        group.bench_with_input(BenchmarkId::new("end_to_end", name), sql, |b, sql| {
            b.iter(|| {
                let cx = ExecCx::production();
                let (_c, out, _) = run_sql(&alphabet, &catalog, &db, sql, &cx).unwrap();
                out.is_finite()
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
