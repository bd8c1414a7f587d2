//! `RC_concat`: the cautionary tale (Section 3 of the paper).
//!
//! Adding concatenation to the relational calculus yields a
//! computationally complete query language (Proposition 1), hence no
//! effective syntax for safe queries and undecidable state-safety
//! (Corollary 1). Concretely, in this codebase:
//!
//! * the exact engine **rejects** concatenation atoms — the graph of `·`
//!   is not a synchronized-regular relation, so the automatic-structure
//!   machinery (and with it every decision procedure of Section 6) stops
//!   applying;
//! * the only general evaluation strategy left is **bounded search**:
//!   every variable ranges over `Σ^{≤B}` for a user-supplied bound `B`,
//!   with no completeness guarantee as `B` grows — mirroring the
//!   semi-decidability of the full semantics. The planner runs it as a
//!   `generate` program ([`crate::Planner::plan_formula`]): Theorem 3's
//!   flow rules still carry range restriction through `concat` (a bound
//!   `x` and `y` fix `z = x·y`, a bound `z` has `|z|+1` splits), so only
//!   a variable nothing restricts walks `Σ^{≤B}`, and no value longer
//!   than `B` is ever bound. The naive [`DomainEvaluator`] over
//!   `Domain::UpTo(B)`, one assignment at a time, is the independent
//!   reference the tests and experiments compare with;
//! * expressiveness beyond `S_len` is witnessed executably: the query
//!   `∃y (x = y·y)` defines the copy language `{ww}`, which is not
//!   regular, while every `RC(S_len)`-definable subset of `Σ*` is regular
//!   (Section 4) — the top edge of Figure 1 ([`ww_language_bounded`]).

// Panic audit: this module sits on the hot evaluation path, so every
// potential panic must be a messaged `expect` documenting its invariant
// (tests are exempt below).
#![deny(clippy::unwrap_used)]

use strcalc_alphabet::{Alphabet, Str};
use strcalc_logic::{Formula, Term};
use strcalc_relational::Database;

use crate::enumeval::DomainEvaluator;
use crate::generate::Domain;
use crate::query::CoreError;

/// The copy-language query `φ(x) = ∃y (x = y·y)` — `RC_concat`'s
/// signature trick.
pub fn ww_query() -> Formula {
    Formula::exists(
        "y",
        Formula::concat_eq(Term::var("y"), Term::var("y"), Term::var("x")),
    )
}

/// Executable Figure-1 separation at the top: `{ww : w ∈ Σ*}` is not
/// regular (pumping on `a^n b a^n b`), hence not definable in `S_len`
/// (whose definable sets are exactly the regular languages), while
/// [`ww_query`] defines it in `RC_concat`. This function verifies, for a
/// given `n`, that the bounded evaluator's answer over `Σ^{≤2n}` is
/// exactly the even-length copies — and returns the count, which grows as
/// `|Σ|^n` (not `O(1)`-state recognizable).
pub fn ww_language_bounded(alphabet: &Alphabet, bound: usize) -> Vec<Str> {
    let db = Database::new();
    let rel = DomainEvaluator::new(alphabet, &db, Domain::UpTo(bound))
        .answer(&ww_query(), &["x".to_string()])
        .expect("invariant: ww_query is pure with head [x], so bounded eval cannot fail");
    rel.iter().map(|t| t[0].clone()).collect()
}

/// A deterministic Turing-machine *step* relation encoded as an
/// `RC_concat` formula — the building block of Proposition 1's
/// computational completeness. Configurations are strings
/// `u · q · v` over `Σ ∪ {q₀, q₁}` (state symbols interleaved with tape
/// symbols); the formula `step(c, c')` holds iff `c ⊢ c'` for a fixed
/// 2-state machine that walks right converting `a` to `b` until it sees
/// `b`, then halts.
///
/// The machine is deliberately tiny; the point is that its *unbounded
/// iteration* — reachability of a halting configuration — is exactly
/// what `RC_concat`'s unrestricted quantification over `Σ*` buys, and
/// what no tame calculus can express.
pub fn tm_step_formula(alphabet: &Alphabet) -> Result<Formula, CoreError> {
    // Alphabet must contain at least: a, b (tape) and q, h (states).
    if alphabet.len() < 4 {
        return Err(CoreError::Unsupported(
            "tm_step_formula needs an alphabet with at least 4 symbols (a,b,q,h)".into(),
        ));
    }
    let a = 0u8;
    let b = 1u8;
    let q = 2u8; // scanning state
    let h = 3u8; // halt state
    let c = || Term::var("c");
    let c2 = || Term::var("c2");
    let u = || Term::var("u");
    let v = || Term::var("v");
    // Rule 1: u · q a v  ⊢  u · b q v      (rewrite a→b, move right)
    // c = u·(q a)·v ∧ c' = u·(b q)·v
    // The quantifier nesting is deliberately "fail fast" for the bounded
    // evaluator: each ∃ is immediately constrained by a concatenation
    // check, so the search is near-linear in the domain instead of
    // |Σ^{≤B}|⁴ per configuration pair.
    let rewrite_rule = |lhs: Str, rhs: Str| -> Formula {
        Formula::exists(
            "u",
            Formula::exists(
                "m1",
                Formula::concat_eq(u(), Term::konst(lhs), Term::var("m1")).and(Formula::exists(
                    "v",
                    Formula::concat_eq(Term::var("m1"), v(), c()).and(Formula::exists(
                        "m2",
                        Formula::concat_eq(u(), Term::konst(rhs), Term::var("m2"))
                            .and(Formula::concat_eq(Term::var("m2"), v(), c2())),
                    )),
                )),
            ),
        )
    };
    // Rule 1: u · qa · v ⊢ u · bq · v      (rewrite a→b, move right)
    let rule1 = rewrite_rule(Str::from_syms(vec![q, a]), Str::from_syms(vec![b, q]));
    // Rule 2: u · qb · v ⊢ u · hb · v      (halt on b)
    let rule2 = rewrite_rule(Str::from_syms(vec![q, b]), Str::from_syms(vec![h, b]));
    Ok(rule1.or(rule2))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    #[test]
    fn ww_bounded_answers() {
        let words = ww_language_bounded(&ab(), 4);
        // ww with |x| ≤ 4: ε, aa, bb, and the 4 of length 4 per w∈Σ²:
        // aaaa, abab, baba, bbbb → 3 + 4 = 7.
        assert_eq!(words.len(), 7);
        let s = |t: &str| ab().parse(t).unwrap();
        assert!(words.contains(&s("")));
        assert!(words.contains(&s("abab")));
        assert!(!words.contains(&s("aab")));
    }

    /// Whether the sentence `f` holds over `Σ^{≤bound}`.
    fn holds(alphabet: &Alphabet, bound: usize, f: &Formula, db: &Database) -> bool {
        let eval = DomainEvaluator::new(alphabet, db, Domain::UpTo(bound));
        !eval.answer(f, &[]).unwrap().is_empty()
    }

    #[test]
    fn bounded_eval_bool() {
        // ∃x∃y (x ≠ y ∧ x·y = y·x): e.g. x=a, y=aa.
        let f = Formula::exists(
            "x",
            Formula::exists(
                "y",
                Formula::eq(Term::var("x"), Term::var("y"))
                    .not()
                    .and(Formula::exists(
                        "z",
                        Formula::concat_eq(Term::var("x"), Term::var("y"), Term::var("z")).and(
                            Formula::concat_eq(Term::var("y"), Term::var("x"), Term::var("z")),
                        ),
                    )),
            ),
        );
        assert!(holds(&ab(), 3, &f, &Database::new()));
    }

    #[test]
    fn tm_step_relation() {
        let alpha = Alphabet::new("abqh").unwrap();
        let step = tm_step_formula(&alpha).unwrap();
        // qaa ⊢ bqa ⊢ bbq? The machine: q reading a → b, move right.
        // Configuration "qaab": u=ε, v="ab": c=q a ab?? — encode c="qaab".
        let s = |t: &str| alpha.parse(t).unwrap();
        let mut env_db = Database::new();
        env_db.insert("C", vec![s("qaab"), s("bqab")]).unwrap();
        // Check the pair (qaab, bqab) satisfies step.
        let f = Formula::exists(
            "c",
            Formula::exists(
                "c2",
                Formula::rel("C", vec![Term::var("c"), Term::var("c2")]).and(step.clone()),
            ),
        );
        assert!(holds(&alpha, 4, &f, &env_db));
        // A non-step pair fails.
        let mut bad_db = Database::new();
        bad_db.insert("C", vec![s("qaab"), s("qqqq")]).unwrap();
        assert!(!holds(&alpha, 4, &f, &bad_db));
        // Halting: qb ⊢ hb.
        let mut halt_db = Database::new();
        halt_db.insert("C", vec![s("qba"), s("hba")]).unwrap();
        assert!(holds(&alpha, 4, &f, &halt_db));
    }
}
