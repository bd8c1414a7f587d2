//! The planning pass: a formula rewrite ahead of lowering, which leaves
//! a [`PassTrace`] on the plan. Everything after it — the collapse
//! restriction, flat products, the cache lookup — is built into the tree
//! as [`super::Planner`] lowers it.

use std::sync::Arc;

use strcalc_analyze::FactSheet;
use strcalc_logic::transform::simplify;
use strcalc_logic::Formula;

use crate::query::Query;

use super::ir::PlanSource;

/// What one planning pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTrace {
    /// Stable pass name (`rewrite`).
    pub pass: String,
    /// Whether the pass changed the plan.
    pub changed: bool,
    /// Human-readable note on what happened.
    pub detail: String,
}

impl PassTrace {
    fn new(pass: &'static str, changed: bool, detail: impl Into<String>) -> PassTrace {
        PassTrace {
            pass: pass.to_string(),
            changed,
            detail: detail.into(),
        }
    }
}

/// The rewrite pass: light constant folding via `simplify`, accepted
/// only when it provably stays in-fragment. An accepted rewrite builds
/// the fact sheet of the simplified formula; an identity one keeps the
/// source's. The guard mirrors
/// `sqlfront`'s verified-rewrite gate: the rewritten formula must keep
/// the same free variables, and (for a typed query) must still validate
/// against the declared calculus. A rejected rewrite leaves the source
/// untouched and records why. An accepted one also hands back the
/// formula it replaced, the one the planner was given.
pub(super) fn rewrite(source: PlanSource) -> (PlanSource, Option<Formula>, PassTrace) {
    const PASS: &str = "rewrite";
    let formula = match &source {
        PlanSource::Query(q) => q.formula(),
        PlanSource::Raw { formula, .. } => formula,
    };
    let simplified = simplify(formula);
    if simplified == *formula {
        return (
            source,
            None,
            PassTrace::new(PASS, false, "simplify is identity"),
        );
    }
    if simplified.free_vars() != formula.free_vars() {
        return (
            source,
            None,
            PassTrace::new(PASS, false, "rejected: rewrite changes the free variables"),
        );
    }
    match source {
        PlanSource::Query(q) => {
            match Query::new(
                q.calculus(),
                q.alphabet().clone(),
                q.head().to_vec(),
                simplified,
            ) {
                Ok(rewritten) => (
                    PlanSource::Query(rewritten),
                    Some(q.into_formula()),
                    PassTrace::new(PASS, true, "simplified constant subformulas"),
                ),
                Err(_) => (
                    PlanSource::Query(q),
                    None,
                    PassTrace::new(
                        PASS,
                        false,
                        "rejected: rewrite leaves the declared calculus",
                    ),
                ),
            }
        }
        PlanSource::Raw {
            alphabet,
            head,
            formula,
            ..
        } => {
            // The concat fragment has no declared calculus to violate.
            let sheet = FactSheet::build(&simplified, &head, alphabet.len() as u8);
            (
                PlanSource::Raw {
                    alphabet,
                    head,
                    formula: simplified,
                    sheet: Arc::new(sheet),
                },
                Some(formula),
                PassTrace::new(PASS, true, "simplified constant subformulas"),
            )
        }
    }
}
