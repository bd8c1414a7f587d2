//! Restricted-quantifier collapse (Theorems 1, 2 and 6), verified and
//! applied.
//!
//! The theorems say every `RC(M)` formula is *equivalent to* one using
//! only restricted quantifiers (`∃x ∈ dom↓` for `S`-like structures,
//! `∃|x| ≤ adom` for `S_len`). The equivalence is witnessed by a
//! rewritten formula; the rewriting in the paper goes through
//! Ehrenfeucht–Fraïssé arguments and quantifier elimination. Here we
//! provide:
//!
//! * [`restrict_quantifiers`] — the *syntactic* restriction: replace each
//!   unrestricted quantifier by its restricted counterpart (per the
//!   query's calculus). This is **not** semantics-preserving for
//!   arbitrary formulas (that is exactly the content of the collapse
//!   theorems: the rewritten formula differs in general) — but it *is*
//!   the normal form the theorems target, and
//! * [`collapse_holds_on`] — the empirical check: the restricted version
//!   agrees with the exact semantics on a given database. The collapse
//!   theorems predict a rewriting exists; for the natural queries in the
//!   corpus the *naive* restriction already agrees, and the test suite
//!   plus benchmarks chart where it does.
//!
//! The practical payoff of the normal form: once all quantifiers are
//! active-domain-restricted, the query translates to the algebra
//! ([`crate::translate::adom_calculus_to_algebra`]) — the bridge from
//! Theorem 1/2 to Theorem 4.

use strcalc_logic::{Formula, Restrict};

use crate::engine::AutomataEngine;
use crate::plan::{Planner, Strategy};
use crate::query::{Calculus, CoreError, Query};
use strcalc_relational::Database;

/// The restriction kind the collapse theorems use for each calculus:
/// prefix-restricted for `S`/`S_left`/`S_reg` (Proposition 2 / Theorem 6),
/// length-restricted for `S_len` (Theorem 2).
pub fn natural_restriction(calculus: Calculus) -> Restrict {
    match calculus {
        Calculus::S | Calculus::SLeft | Calculus::SReg => Restrict::PrefixDom,
        Calculus::SLen => Restrict::LengthDom,
    }
}

/// Replaces every unrestricted quantifier with the calculus's natural
/// restricted quantifier. Purely syntactic; see the module docs for what
/// this does and does not preserve.
pub fn restrict_quantifiers(f: &Formula, r: Restrict) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => f.clone(),
        Formula::Not(g) => restrict_quantifiers(g, r).not(),
        Formula::And(a, b) => restrict_quantifiers(a, r).and(restrict_quantifiers(b, r)),
        Formula::Or(a, b) => restrict_quantifiers(a, r).or(restrict_quantifiers(b, r)),
        Formula::Implies(a, b) => restrict_quantifiers(a, r).implies(restrict_quantifiers(b, r)),
        Formula::Iff(a, b) => restrict_quantifiers(a, r).iff(restrict_quantifiers(b, r)),
        Formula::Exists(v, g) => Formula::exists_r(r, v.clone(), restrict_quantifiers(g, r)),
        Formula::Forall(v, g) => Formula::forall_r(r, v.clone(), restrict_quantifiers(g, r)),
        Formula::ExistsR(r0, v, g) => Formula::exists_r(*r0, v.clone(), restrict_quantifiers(g, r)),
        Formula::ForallR(r0, v, g) => Formula::forall_r(*r0, v.clone(), restrict_quantifiers(g, r)),
    }
}

/// The query with its quantifiers naively restricted (the collapse normal
/// form's *shape*).
pub fn restricted_query(q: &Query) -> Result<Query, CoreError> {
    let r = natural_restriction(q.calculus());
    Query::new(
        q.calculus(),
        q.alphabet().clone(),
        q.head().to_vec(),
        restrict_quantifiers(q.formula(), r),
    )
}

/// Checks whether the naive restriction agrees with the exact semantics
/// of `q` on `db` (Boolean queries only). Returns `(exact, restricted)`.
pub fn collapse_holds_on(
    engine: &AutomataEngine,
    q: &Query,
    db: &Database,
) -> Result<(bool, bool), CoreError> {
    if !q.is_boolean() {
        return Err(CoreError::Unsupported(
            "collapse_holds_on compares Boolean queries".into(),
        ));
    }
    let exact = engine.eval_bool(q, db)?;
    let restricted = engine.eval_bool(&restricted_query(q)?, db)?;
    Ok((exact, restricted))
}

/// Cross-engine collapse verification: the exact engine (quantifiers over
/// the infinite `Σ*`) against the enumeration engine (quantifiers over
/// the finite collapse domain with slack). Agreement across a corpus is
/// the empirical face of Theorems 1/2/6; the test suite and the
/// `fig2_matrix` bench run this.
pub fn engines_agree_on(q: &Query, db: &Database, slack: usize) -> Result<bool, CoreError> {
    let exact = Planner::new().force(Strategy::Automata).plan(q)?;
    let baseline = Planner::new()
        .force(Strategy::ActiveDomainEnum)
        .with_slack(slack)
        .plan(q)?;
    match exact.execute(db)?.0 {
        crate::query::EvalOutput::Finite(rel) => match baseline.execute(db)?.0 {
            crate::query::EvalOutput::Finite(base) => Ok(rel == base),
            crate::query::EvalOutput::Infinite { .. } => Ok(false),
        },
        crate::query::EvalOutput::Infinite { .. } => Ok(true), // baseline N/A
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_unary_parsed(&ab(), "U", &["ab", "ba", "bab"])
            .unwrap();
        db
    }

    fn q(calc: Calculus, src: &str) -> Query {
        Query::parse(calc, ab(), vec![], src).unwrap()
    }

    #[test]
    fn restriction_is_syntactic() {
        let f = strcalc_logic::parse_formula(&ab(), "exists y. forall z. (y <= z)").unwrap();
        let g = restrict_quantifiers(&f, Restrict::PrefixDom);
        let mut restricted = 0;
        g.visit(&mut |sub| {
            if matches!(sub, Formula::ExistsR(..) | Formula::ForallR(..)) {
                restricted += 1;
            }
        });
        assert_eq!(restricted, 2);
        assert_eq!(g.num_quantifiers(), 2);
    }

    #[test]
    fn collapse_agrees_on_natural_queries() {
        let engine = AutomataEngine::new();
        // Queries whose quantified witnesses live in the restricted
        // domains — the shape the collapse theorems produce.
        let cases = [
            (Calculus::S, "exists x. (U(x) & last(x, 'b'))"),
            (
                Calculus::S,
                "forall x. (U(x) -> exists y. (y <= x & last(y, 'b')))",
            ),
            (
                Calculus::SLen,
                "exists x. exists y. (U(x) & U(y) & el(x, y) & !(x = y))",
            ),
            (Calculus::SReg, "exists x. (U(x) & in(x, /(ba)*b?/))"),
        ];
        for (calc, src) in cases {
            let query = q(calc, src);
            let (exact, restricted) = collapse_holds_on(&engine, &query, &db()).unwrap();
            assert_eq!(exact, restricted, "collapse mismatch on {src}");
        }
    }

    #[test]
    fn cross_engine_collapse() {
        let cases = [
            q(Calculus::S, "exists x. (U(x) & first(x, 'b'))"),
            q(
                Calculus::SLen,
                "exists x. (U(x) & exists y. (el(x,y) & !(x=y) & U(y)))",
            ),
        ];
        for query in cases {
            assert!(engines_agree_on(&query, &db(), 2).unwrap());
        }
    }

    #[test]
    fn natural_restrictions() {
        assert_eq!(natural_restriction(Calculus::S), Restrict::PrefixDom);
        assert_eq!(natural_restriction(Calculus::SLeft), Restrict::PrefixDom);
        assert_eq!(natural_restriction(Calculus::SReg), Restrict::PrefixDom);
        assert_eq!(natural_restriction(Calculus::SLen), Restrict::LengthDom);
    }
}
