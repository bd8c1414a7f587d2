//! Differential testing across crates: the exact automata engine and the
//! collapse-based enumeration engine must agree on randomly generated
//! queries and databases — the empirical face of the collapse theorems
//! (Theorem 1 for `S`, Theorem 2 for `S_len`).

use strcalc::core::{AutomataEngine, Calculus, Deadline, EnumEngine, Query};
use strcalc::logic::transform::fragment;
use strcalc::logic::StructureClass;
use strcalc::prelude::*;
use strcalc::workloads::Workload;

fn calculus_for(class: StructureClass) -> Calculus {
    match class {
        StructureClass::S => Calculus::S,
        StructureClass::SLeft => Calculus::SLeft,
        StructureClass::SReg => Calculus::SReg,
        StructureClass::SLen | StructureClass::Concat => Calculus::SLen,
    }
}

#[test]
fn random_s_sentences_agree() {
    let sigma = Alphabet::ab();
    let exact = AutomataEngine::new();
    let baseline = EnumEngine::new();
    let mut checked = 0usize;
    for seed in 0..40u64 {
        let mut wl = Workload::new(sigma.clone(), seed);
        let db = wl.unary_db(6, 3);
        let f = wl.random_s_formula(2);
        // Close the free variable (if any) with a U-guard to make a
        // sentence whose truth both engines can decide.
        let f = match f.free_vars().into_iter().next() {
            Some(v) => Formula::exists(v.clone(), Formula::rel("U", vec![Term::var(v)]).and(f)),
            None => f,
        };
        let class = fragment(&f, 2, 1_000_000).unwrap();
        let q = Query::new(calculus_for(class), sigma.clone(), vec![], f).unwrap();
        let a = exact.eval_bool(&q, &db).unwrap();
        let b = !baseline
            .eval(&q, &db, &Deadline::unlimited())
            .unwrap()
            .0
            .is_empty();
        assert_eq!(a, b, "seed {seed} disagreement on {}", q.formula);
        checked += 1;
    }
    assert_eq!(checked, 40);
}

#[test]
fn random_slen_sentences_agree() {
    let sigma = Alphabet::ab();
    let exact = AutomataEngine::new();
    let baseline = EnumEngine::new();
    for seed in 100..120u64 {
        let mut wl = Workload::new(sigma.clone(), seed);
        let db = wl.unary_db(4, 2); // keep Σ^{≤maxlen+slack} small
        let f = wl.random_slen_formula(2);
        let f = match f.free_vars().into_iter().next() {
            Some(v) => Formula::exists(v.clone(), Formula::rel("U", vec![Term::var(v)]).and(f)),
            None => f,
        };
        let q = Query::new(Calculus::SLen, sigma.clone(), vec![], f).unwrap();
        let a = exact.eval_bool(&q, &db).unwrap();
        let b = !baseline
            .eval(&q, &db, &Deadline::unlimited())
            .unwrap()
            .0
            .is_empty();
        assert_eq!(a, b, "seed {seed} disagreement on {}", q.formula);
    }
}

#[test]
fn open_queries_agree_on_safe_outputs() {
    let sigma = Alphabet::ab();
    let exact = AutomataEngine::new();
    let baseline = EnumEngine::new();
    let sources = [
        (Calculus::S, "exists y. (U(y) & x <= y & last(x, 'a'))"),
        (Calculus::S, "U(x) & existsP p. (p < x & last(p, 'b'))"),
        (Calculus::SLeft, "exists y. (U(y) & fa(y, x, 'b'))"),
        (Calculus::SReg, "exists y. (U(y) & pl(x, y, /b*/))"),
        (
            Calculus::SLen,
            "exists y. (U(y) & el(x, y) & first(x, 'b'))",
        ),
    ];
    for seed in 0..6u64 {
        let db = Workload::new(sigma.clone(), seed).unary_db(5, 3);
        for (calc, src) in &sources {
            let q = Query::parse(*calc, sigma.clone(), vec!["x".into()], src).unwrap();
            let a = exact.eval(&q, &db).unwrap().expect_finite();
            let (b, _, _) = baseline.eval(&q, &db, &Deadline::unlimited()).unwrap();
            assert_eq!(a, b, "seed {seed}: {src}");
        }
    }
}

#[test]
fn three_engines_on_algebra_queries() {
    use strcalc::core::translate::ra_to_calculus;
    use strcalc::relational::{RaEvaluator, RaExpr};
    let sigma = Alphabet::ab();
    let exact = AutomataEngine::new();
    let ra = RaEvaluator::new(sigma.clone());
    for seed in 0..6u64 {
        let db = Workload::new(sigma.clone(), seed).binary_db(8, 4);
        let schema = db.schema();
        let exprs = [
            RaExpr::rel("R").project(vec![0]).prefix(0).project(vec![1]),
            RaExpr::rel("R")
                .select(Formula::lex_leq(RaExpr::col(0), RaExpr::col(1)))
                .project(vec![0]),
            RaExpr::rel("R")
                .project(vec![1])
                .add_right(0, 1)
                .project(vec![1]),
        ];
        for e in &exprs {
            let direct = ra.eval(e, &db).unwrap();
            let f = ra_to_calculus(e, &schema).unwrap();
            let head: Vec<String> = (0..e.arity(&schema).unwrap())
                .map(|i| format!("c{i}"))
                .collect();
            let q = Query::infer(sigma.clone(), head, f).unwrap();
            let via = exact.eval(&q, &db).unwrap().expect_finite();
            assert_eq!(direct, via, "seed {seed}: {e}");
        }
    }
}
