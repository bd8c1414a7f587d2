//! Translation validation for the calculus ↔ algebra translations
//! (`strcalc-core::translate`, Theorem 4 / Theorem 8).
//!
//! Both directions are validated per instance: the direct evaluation is
//! a finite relation, hence a synchronized-regular relation, so the
//! translated artifact's compiled automaton can be compared against it
//! exactly — the verdict is `Validated`/`Refuted`, never a sampled
//! approximation. `Unknown` only appears when a translation or an
//! evaluation is itself rejected (unsupported fragment).

use strcalc_alphabet::Str;
use strcalc_core::translate::{adom_calculus_to_algebra, ra_to_calculus};
use strcalc_core::Query;
use strcalc_relational::{Database, RaEvaluator, RaExpr, Relation};
use strcalc_synchro::atoms;
use strcalc_synchro::nfa::Var;

use crate::validate::{disagreement, Validator};
use crate::{Scope, Verdict, Witness};

/// Validates `ra_to_calculus` on one instance: evaluates the algebra
/// expression directly, compiles its calculus translation, and decides
/// that the automaton recognizes exactly the direct result.
pub fn validate_ra_to_calculus(v: &Validator, e: &RaExpr, db: &Database) -> Verdict {
    let schema = db.schema();
    let direct = match RaEvaluator::new(v.alphabet.clone()).eval(e, db) {
        Ok(r) => r,
        Err(err) => {
            return Verdict::Unknown {
                reason: format!("direct algebra evaluation failed: {err}"),
                checks: 0,
            }
        }
    };
    let formula = match ra_to_calculus(e, &schema) {
        Ok(f) => f,
        Err(err) => {
            return Verdict::Unknown {
                reason: format!("ra_to_calculus failed: {err}"),
                checks: 0,
            }
        }
    };
    let compiled = match v.engine.compile_shared(&formula, &v.alphabet, db) {
        Ok(c) => c,
        Err(err) => {
            return Verdict::Unknown {
                reason: format!("translated formula escaped the automata path: {err}"),
                checks: 0,
            }
        }
    };
    // The translation names output columns c0..c(n-1); permute the
    // direct tuples into the automaton's (sorted) track order.
    let Some(perm) = column_permutation(compiled.var_names(), &direct) else {
        return Verdict::Unknown {
            reason: "translated formula's free variables do not match the output columns".into(),
            checks: 0,
        };
    };
    compare_against_relation(
        v,
        compiled.dfa().as_nfa(),
        compiled.var_names().to_vec(),
        &direct,
        &perm,
    )
}

/// Validates `adom_calculus_to_algebra` on one instance: translates the
/// (active-domain normal form) query to the algebra, evaluates that
/// directly, and decides that the query's compiled automaton recognizes
/// exactly the same relation. Boolean queries compare under the flag
/// convention (`Rε` non-empty ⇔ true).
pub fn validate_calculus_to_algebra(v: &Validator, q: &Query, db: &Database) -> Verdict {
    let schema = db.schema();
    let expr = match adom_calculus_to_algebra(q.formula(), q.head(), &schema) {
        Ok(e) => e,
        Err(err) => {
            return Verdict::Unknown {
                reason: format!("adom_calculus_to_algebra failed: {err}"),
                checks: 0,
            }
        }
    };
    let via_algebra = match RaEvaluator::new(v.alphabet.clone()).eval(&expr, db) {
        Ok(r) => r,
        Err(err) => {
            return Verdict::Unknown {
                reason: format!("translated algebra evaluation failed: {err}"),
                checks: 0,
            }
        }
    };
    if q.head().is_empty() {
        // Flag convention: the sentence is true iff `Rε`-flagged output
        // is non-empty.
        let exact = match v.engine.eval_bool(q, db) {
            Ok(b) => b,
            Err(err) => {
                return Verdict::Unknown {
                    reason: format!("exact evaluation failed: {err}"),
                    checks: 0,
                }
            }
        };
        let translated = !via_algebra.is_empty();
        if exact == translated {
            return Verdict::Validated {
                scope: Scope::Database("the given instance".into()),
            };
        }
        return Verdict::Refuted(Witness {
            vars: vec![],
            tuple: vec![],
            holds_before: exact,
            scope: Scope::Database("the given instance".into()),
        });
    }
    let compiled = match v.engine.compile_shared(q.formula(), q.alphabet(), db) {
        Ok(c) => c,
        Err(err) => {
            return Verdict::Unknown {
                reason: format!("query escaped the automata path: {err}"),
                checks: 0,
            }
        }
    };
    // Direct tuples are in head order; the automaton's tracks are the
    // sorted head variables.
    let Some(perm) = head_permutation(compiled.var_names(), q.head()) else {
        return Verdict::Unknown {
            reason: "compiled track names do not match the query head".into(),
            checks: 0,
        };
    };
    compare_against_relation(
        v,
        compiled.dfa().as_nfa(),
        compiled.var_names().to_vec(),
        &via_algebra,
        &perm,
    )
}

/// For track `i`, `perm[i]` is the source column in the relation.
fn column_permutation(var_names: &[String], rel: &Relation) -> Option<Vec<usize>> {
    if var_names.len() != rel.arity() {
        return None;
    }
    var_names
        .iter()
        .map(|n| {
            n.strip_prefix('c')
                .and_then(|i| i.parse::<usize>().ok())
                .filter(|&i| i < rel.arity())
        })
        .collect()
}

fn head_permutation(var_names: &[String], head: &[String]) -> Option<Vec<usize>> {
    if var_names.len() != head.len() {
        return None;
    }
    var_names
        .iter()
        .map(|n| head.iter().position(|h| h == n))
        .collect()
}

/// Decides `auto ≡ finite relation` (tuples permuted into track order)
/// and reports any disagreement as a witness over `var_names`.
fn compare_against_relation(
    v: &Validator,
    auto: &strcalc_synchro::SyncNfa,
    var_names: Vec<String>,
    rel: &Relation,
    perm: &[usize],
) -> Verdict {
    let k = v.alphabet.len() as u8;
    let by_track: Vec<Vec<&Str>> = rel
        .rows_within(k)
        .map(|t| perm.iter().map(|&i| &t[i]).collect())
        .collect();
    let vars: Vec<Var> = (0..var_names.len() as Var).collect();
    let expected = atoms::finite_relation_refs(k, vars, &by_track);
    match disagreement(auto, &expected, v.engine.cap) {
        Ok(None) => Verdict::Validated {
            scope: Scope::Database("the given instance".into()),
        },
        Ok(Some((tuple, holds_before))) => Verdict::Refuted(Witness {
            vars: var_names,
            tuple,
            // `holds_before` = the *translated/compiled* side accepts;
            // for round trips the compiled query is the "input" side.
            holds_before,
            scope: Scope::Database("the given instance".into()),
        }),
        Err(err) => Verdict::Unknown {
            reason: format!("product construction failed: {err}"),
            checks: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;
    use strcalc_core::{AutomataEngine, Calculus};
    use strcalc_logic::Formula;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_unary_parsed(&sigma(), "U", &["", "a", "ab", "abb", "ba"])
            .unwrap();
        let pairs = [("a", "ab"), ("ab", "abb"), ("b", "ba"), ("", "a")];
        for (x, y) in pairs {
            db.insert(
                "R",
                vec![sigma().parse(x).unwrap(), sigma().parse(y).unwrap()],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn ra_round_trips_validate() {
        let v = Validator::new(sigma());
        let database = db();
        let cases = vec![
            RaExpr::rel("U"),
            RaExpr::rel("R").project(vec![1, 0]),
            RaExpr::rel("U").product(RaExpr::rel("U")),
            RaExpr::rel("U").diff(RaExpr::rel("R").project(vec![1])),
            RaExpr::rel("U").select(Formula::last_sym(RaExpr::col(0), 1)),
            RaExpr::rel("U").prefix(0),
            RaExpr::rel("U").add_left(0, 1),
            RaExpr::rel("U").down(0),
        ];
        for e in cases {
            let verdict = validate_ra_to_calculus(&v, &e, &database);
            assert!(verdict.is_validated(), "{e}: {}", verdict.render(&sigma()));
        }
    }

    #[test]
    fn calculus_round_trips_validate() {
        let v = Validator::new(sigma());
        let database = db();
        let cases: [(&[&str], &str); 5] = [
            (&["x"], "U(x)"),
            (&["x"], "U(x) & last(x, 'b')"),
            (&["x", "y"], "R(x, y) & x <= y"),
            (&["x"], "existsA y. (R(y, x) & lex(y, x))"),
            (&[], "existsA x. (U(x) & last(x,'a'))"),
        ];
        for (head, src) in cases {
            let head: Vec<String> = head.iter().map(|h| h.to_string()).collect();
            let q = Query::parse(Calculus::SLen, sigma(), head, src).unwrap();
            let verdict = validate_calculus_to_algebra(&v, &q, &database);
            assert!(
                verdict.is_validated(),
                "{src}: {}",
                verdict.render(&sigma())
            );
        }
    }

    #[test]
    fn a_wrong_algebra_expression_would_be_refuted() {
        // Simulate a translation bug by validating U's translation
        // against a database where the automaton side sees a *different*
        // relation than the direct side: compare U's compiled query
        // against the direct evaluation of U minus one tuple.
        let v = Validator::new(sigma());
        let database = db();
        let q = Query::parse(Calculus::S, sigma(), vec!["x".into()], "U(x)").unwrap();
        let engine = AutomataEngine::new();
        let compiled = engine.compile(&q, &database).unwrap();
        let smaller = RaEvaluator::new(sigma())
            .eval(
                &RaExpr::rel("U").select(Formula::last_sym(RaExpr::col(0), 0)),
                &database,
            )
            .unwrap();
        let verdict = compare_against_relation(
            &v,
            &compiled.auto,
            compiled.var_names.clone(),
            &smaller,
            &[0],
        );
        let Verdict::Refuted(w) = verdict else {
            panic!("expected refutation");
        };
        assert!(w.holds_before, "the full U accepts the dropped tuple");
        assert_eq!(w.vars, vec!["x".to_string()]);
    }

    #[test]
    fn unsupported_translations_are_unknown() {
        let v = Validator::new(sigma());
        let database = db();
        // Unrestricted quantifier: adom_calculus_to_algebra rejects it.
        let q = Query::parse(
            Calculus::S,
            sigma(),
            vec!["x".into()],
            "U(x) & exists y. R(x, y)",
        )
        .unwrap();
        let verdict = validate_calculus_to_algebra(&v, &q, &database);
        assert!(matches!(verdict, Verdict::Unknown { .. }));
    }
}
