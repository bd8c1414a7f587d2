//! E1 — Figure 1: the expressiveness lattice. We time the machine-checked
//! evidence for each edge (star-freeness/aperiodicity tests, definable-set
//! extraction) and the full report.

use criterion::Criterion;
use strcalc_automata::starfree::is_star_free;
use strcalc_automata::{Dfa, Regex};
use strcalc_bench::ab;
use strcalc_core::separations::{
    check_s_definable_star_free, definable_set, figure1_report, s_formula_corpus,
};

fn bench(c: &mut Criterion) {
    let alphabet = ab();
    let corpus = s_formula_corpus(&alphabet);

    c.bench_function("fig1/aperiodicity_aa_star", |b| {
        let d = Dfa::from_regex(2, &Regex::parse(&alphabet, "(aa)*").unwrap());
        b.iter(|| is_star_free(&d).unwrap())
    });
    c.bench_function("fig1/definable_set_extraction", |b| {
        b.iter(|| definable_set(&alphabet, &corpus[2]).unwrap().len())
    });
    c.bench_function("fig1/star_free_invariant_corpus", |b| {
        b.iter(|| {
            check_s_definable_star_free(&alphabet, &corpus)
                .unwrap()
                .is_none()
        })
    });
    c.bench_function("fig1/full_report", |b| {
        b.iter(|| figure1_report(&alphabet).unwrap().len())
    });
}

fn main() {
    let mut c = strcalc_bench::criterion_config();
    bench(&mut c);
    c.final_summary();
}
