//! E9 — Theorems 3/7: the range-restricted query `(γ_k, φ)` equals `φ`
//! on every database where `φ` is safe, and is finite on every database
//! whatsoever. Randomized over queries × databases.

use strcalc::core::safety::{state_safety, RangeRestricted, StateSafety};
use strcalc::core::{AutomataEngine, Calculus, Query};
use strcalc::prelude::*;
use strcalc::workloads::Workload;

fn queries(sigma: &Alphabet) -> Vec<Query> {
    [
        (Calculus::S, "exists y. (U(y) & x <= y)"),
        (Calculus::S, "U(x) & last(x, 'a')"),
        (Calculus::S, "exists y. (U(y) & x <1 y)"),
        (Calculus::S, "exists y. (U(y) & y <= x)"), // unsafe
        (Calculus::SLeft, "exists y. (U(y) & fa(y, x, 'a'))"),
        (Calculus::SLeft, "exists y. (U(y) & x = trim('b', y))"),
        (Calculus::SReg, "exists y. (U(y) & pl(x, y, /(ab)*/))"),
        (Calculus::SReg, "exists y. (U(y) & pl(y, x, /a*/))"), // unsafe-ish
        (Calculus::SLen, "exists y. (U(y) & el(x, y))"),
        (
            Calculus::SLen,
            "exists y. (U(y) & shorter(x, y) & last(x,'b'))",
        ),
        (Calculus::SLen, "exists y. (U(y) & shorter(y, x))"), // unsafe
    ]
    .iter()
    .map(|(c, src)| Query::parse(*c, sigma.clone(), vec!["x".into()], src).unwrap())
    .collect()
}

#[test]
fn gamma_bound_recovers_safe_outputs_and_truncates_unsafe_ones() {
    let sigma = Alphabet::ab();
    let engine = AutomataEngine::new();
    let mut safe_count = 0;
    let mut unsafe_count = 0;
    for seed in 0..5u64 {
        let db = Workload::new(sigma.clone(), seed).unary_db(5, 3);
        for q in queries(&sigma) {
            let rr = RangeRestricted::derive(q.clone());
            let restricted = rr.eval(&engine, &db).unwrap();
            match state_safety(&engine, &q, &db).unwrap() {
                StateSafety::Safe { output, .. } => {
                    assert_eq!(
                        output,
                        restricted,
                        "seed {seed}: (γ_{}, φ) ≠ φ on a safe DB for {}",
                        rr.k,
                        q.formula()
                    );
                    safe_count += 1;
                }
                StateSafety::Unsafe { .. } => {
                    // φ(D) infinite, yet the restricted query terminated
                    // with a finite relation — that *is* the theorem's
                    // finiteness guarantee.
                    unsafe_count += 1;
                }
            }
        }
    }
    assert!(safe_count > 0 && unsafe_count > 0, "need both verdicts");
}

#[test]
fn eval_checked_never_trips() {
    let sigma = Alphabet::ab();
    let engine = AutomataEngine::new();
    for seed in 10..14u64 {
        let db = Workload::new(sigma.clone(), seed).unary_db(4, 3);
        for q in queries(&sigma) {
            let rr = RangeRestricted::derive(q);
            rr.eval_checked(&engine, &db)
                .expect("derived k must satisfy the Lemma 1/2 bound");
        }
    }
}

#[test]
fn empty_database_is_handled() {
    let sigma = Alphabet::ab();
    let engine = AutomataEngine::new();
    let mut db = Database::new();
    db.declare("U", 1).unwrap();
    let q = Query::parse(
        Calculus::S,
        sigma.clone(),
        vec!["x".into()],
        "exists y. (U(y) & x <= y)",
    )
    .unwrap();
    let rr = RangeRestricted::derive(q);
    let out = rr.eval_checked(&engine, &db).unwrap();
    assert!(out.is_empty());
}
