//! A composable rewrite driver over [`Formula`]s.
//!
//! The optimizer pipeline applies a chain of semantics-preserving
//! transformations (`nnf → lower_terms → simplify`). [`Rewriter`] makes
//! that chain explicit and *observable*: [`Rewriter::rewrite_traced`]
//! records the before/after formula of every step, so a downstream
//! translation validator (`strcalc-verify`) can certify each step
//! independently and point at the exact transformation that broke.
//!
//! The step functions are ordinary `Fn(&Formula) -> Formula` closures,
//! which is what lets tests inject a deliberately broken step and watch
//! the validator refute it.

use std::rc::Rc;

use crate::formula::Formula;
use crate::transform::{lower_terms, nnf, simplify};

/// One named transformation in a rewrite chain. Clones share the step
/// function.
#[derive(Clone)]
pub struct RewriteStep {
    name: &'static str,
    apply: Rc<dyn Fn(&Formula) -> Formula>,
}

impl RewriteStep {
    pub fn new(name: &'static str, apply: impl Fn(&Formula) -> Formula + 'static) -> RewriteStep {
        RewriteStep {
            name,
            apply: Rc::new(apply),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn apply(&self, f: &Formula) -> Formula {
        (self.apply)(f)
    }
}

impl std::fmt::Debug for RewriteStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewriteStep")
            .field("name", &self.name)
            .finish()
    }
}

/// The before/after record of one applied step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    pub name: &'static str,
    pub before: Formula,
    pub after: Formula,
}

impl TraceEntry {
    /// A step that returned its input unchanged needs no certification.
    pub fn is_identity(&self) -> bool {
        self.before == self.after
    }
}

/// The full record of a chain application: the original input, the final
/// output, and every intermediate step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteTrace {
    pub input: Formula,
    pub output: Formula,
    pub steps: Vec<TraceEntry>,
}

/// A chain of named rewrite steps applied left to right.
#[derive(Debug, Default, Clone)]
pub struct Rewriter {
    steps: Vec<RewriteStep>,
}

impl Rewriter {
    /// An empty chain (the identity rewrite).
    pub fn new() -> Rewriter {
        Rewriter::default()
    }

    /// The standard optimizer chain: `nnf → lower_terms → simplify`.
    pub fn standard() -> Rewriter {
        Rewriter::new()
            .step("nnf", nnf)
            .step("lower_terms", lower_terms)
            .step("simplify", simplify)
    }

    /// Appends a named step to the chain.
    pub fn step(
        mut self,
        name: &'static str,
        apply: impl Fn(&Formula) -> Formula + 'static,
    ) -> Rewriter {
        self.steps.push(RewriteStep::new(name, apply));
        self
    }

    /// Applies the chain and returns only the final formula.
    pub fn rewrite(&self, f: &Formula) -> Formula {
        self.rewrite_traced(f).output
    }

    /// Applies the chain, recording the before/after of every step.
    pub fn rewrite_traced(&self, f: &Formula) -> RewriteTrace {
        let mut current = f.clone();
        let mut steps = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let after = step.apply(&current);
            steps.push(TraceEntry {
                name: step.name,
                before: current,
                after: after.clone(),
            });
            current = after;
        }
        RewriteTrace {
            input: f.clone(),
            output: current,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use strcalc_alphabet::Alphabet;

    #[test]
    fn standard_chain_matches_manual_composition() {
        let sigma = Alphabet::ab();
        let f = parse_formula(&sigma, "!(exists y. (x <= y & !last(y,'a')))").unwrap();
        let trace = Rewriter::standard().rewrite_traced(&f);
        assert_eq!(trace.output, simplify(&lower_terms(&nnf(&f))));
        assert_eq!(trace.steps.len(), 3);
        assert_eq!(trace.input, f);
        assert_eq!(trace.steps[0].before, f);
        assert_eq!(trace.steps[2].after, trace.output);
        // Steps are chained: each step's input is the previous output.
        assert_eq!(trace.steps[1].before, trace.steps[0].after);
        assert_eq!(trace.steps[2].before, trace.steps[1].after);
    }

    #[test]
    fn empty_chain_is_identity() {
        let sigma = Alphabet::ab();
        let f = parse_formula(&sigma, "x <= y").unwrap();
        let trace = Rewriter::new().rewrite_traced(&f);
        assert_eq!(trace.output, f);
        assert!(trace.steps.is_empty());
    }

    #[test]
    fn injected_step_is_traced() {
        let sigma = Alphabet::ab();
        let f = parse_formula(&sigma, "x <= y & last(x,'a')").unwrap();
        let rw = Rewriter::new().step("drop-to-true", |_| Formula::True);
        let trace = rw.rewrite_traced(&f);
        assert_eq!(trace.output, Formula::True);
        assert_eq!(trace.steps[0].name, "drop-to-true");
        assert!(!trace.steps[0].is_identity());
    }
}
