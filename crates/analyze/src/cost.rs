//! Pass 4: cost estimation.
//!
//! The exact evaluation engine compiles a query to a synchronized
//! automaton by structural recursion: atoms become small automata,
//! conjunction is a product construction (states multiply), disjunction
//! a union, and universal quantification determinizes (worst case `2^n`
//! states). This pass predicts that blowup *before* compilation:
//!
//! * **quantifier rank** — maximum quantifier nesting depth;
//! * **alternation depth** — maximum number of `∃*/∀*` block switches on
//!   a root-to-leaf path of the negation normal form (each `∀` block is
//!   a potential determinization);
//! * **state bound** — an upper bound on the compiled automaton's state
//!   count, tracked in the log₂ domain (products add, determinizing `n`
//!   states turns a bound of `log₂ n` into `n` itself). The bound
//!   saturates rather than overflowing.
//!
//! The estimate is deliberately crude — it ignores minimization, which
//! in practice collapses most products — but it is monotone in formula
//! size and reliably separates "compiles instantly" from "will
//! determinize a large product", which is all a lint needs.

use strcalc_logic::transform::{nnf, quantifier_rank};
use strcalc_logic::{Atom, Formula};

use crate::diag::{Code, Finding, FormulaPath};
use crate::langs::LangTable;

/// Saturation point for the log₂ state bound (≈ 10^300 states).
const LOG2_CAP: f64 = 1e3;

/// Nominal state count charged per database-relation atom (a trie over
/// the stored strings; unknowable without the database).
const REL_ATOM_STATES: f64 = 64.0;

/// States charged per built-in structural atom (prefix, cover, `el`, …):
/// their synchronized automata have a handful of states.
const STRUCT_ATOM_STATES: f64 = 4.0;

/// Result of the cost pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// Maximum quantifier nesting depth.
    pub quantifier_rank: usize,
    /// Maximum `∃/∀` alternations along any path of the NNF.
    pub alternation_depth: usize,
    /// log₂ of the product-construction state-count upper bound
    /// (saturating at `LOG2_CAP`).
    pub log2_states: f64,
    /// Number of database-relation atoms (their true size is unknowable
    /// statically; each is charged a nominal trie).
    pub rel_atoms: usize,
    /// Number of `in`/`pl` atoms (charged their actual DFA sizes).
    pub lang_atoms: usize,
}

impl CostEstimate {
    /// Human-readable summary used in the SA030 report.
    pub fn summary(&self) -> String {
        format!(
            "quantifier rank {}, alternation depth {}, state bound 2^{:.1} \
             ({} relation atom(s), {} language atom(s))",
            self.quantifier_rank,
            self.alternation_depth,
            self.log2_states,
            self.rel_atoms,
            self.lang_atoms
        )
    }
}

/// Standalone cost estimation for a (sub)formula — the same model the
/// SA030 pass runs, without any findings. The query planner calls this
/// per plan node to annotate `EXPLAIN` output. Language atoms are
/// charged the size of their DFA in `langs`, the language table of the
/// query's fact sheet.
pub fn estimate(f: &Formula, langs: &LangTable) -> CostEstimate {
    let normal = nnf(f);
    let mut rel_atoms = 0usize;
    let mut lang_atoms = 0usize;
    f.visit(&mut |sub| {
        if let Formula::Atom(a) = sub {
            match a {
                Atom::Rel(..) => rel_atoms += 1,
                Atom::InLang(..) | Atom::PL(..) => lang_atoms += 1,
                _ => {}
            }
        }
    });
    CostEstimate {
        quantifier_rank: quantifier_rank(f),
        alternation_depth: alternation_depth(&normal, Block::None),
        log2_states: log2_states(&normal, langs),
        rel_atoms,
        lang_atoms,
    }
}

/// SA031 threshold: log₂ of the acceptable state-count bound.
const BUDGET_LOG2_STATES: f64 = 20.0;

/// Runs the pass.
pub(crate) fn check(f: &Formula, langs: &LangTable) -> (CostEstimate, Vec<Finding>) {
    let estimate = estimate(f, langs);
    let mut findings = vec![Finding::new(
        Code::CostReport,
        FormulaPath::root(),
        estimate.summary(),
    )];
    if estimate.log2_states > BUDGET_LOG2_STATES {
        findings.push(
            Finding::new(
                Code::StateBoundExceedsBudget,
                FormulaPath::root(),
                format!(
                    "estimated state bound 2^{:.1} exceeds the budget of 2^{:.1}",
                    estimate.log2_states, BUDGET_LOG2_STATES
                ),
            )
            .with_note(
                "the bound ignores minimization and is often loose, but universal \
                 quantifiers over large products are a real determinization risk"
                    .to_string(),
            ),
        );
    }
    (estimate, findings)
}

#[derive(Clone, Copy, PartialEq)]
enum Block {
    None,
    Exists,
    Forall,
}

/// Maximum number of quantifier-block alternations on any path. Assumes
/// NNF (no `→`/`↔`; negations only on atoms).
fn alternation_depth(f: &Formula, current: Block) -> usize {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => 0,
        Formula::Not(g) => alternation_depth(g, current),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            alternation_depth(a, current).max(alternation_depth(b, current))
        }
        Formula::Exists(_, g) | Formula::ExistsR(_, _, g) => {
            let inner = alternation_depth(g, Block::Exists);
            match current {
                Block::Exists => inner,
                // Entering the first block, or switching from a ∀ block.
                Block::None | Block::Forall => 1 + inner,
            }
        }
        Formula::Forall(_, g) | Formula::ForallR(_, _, g) => {
            let inner = alternation_depth(g, Block::Forall);
            match current {
                Block::Forall => inner,
                Block::None | Block::Exists => 1 + inner,
            }
        }
    }
}

/// log₂ upper bound on compiled automaton states. Assumes NNF.
fn log2_states(f: &Formula, langs: &LangTable) -> f64 {
    let states = match f {
        Formula::True | Formula::False => 1.0f64.log2(),
        Formula::Atom(a) => atom_log2_states(a, langs),
        // Complement of a (complete, deterministic) atom automaton has
        // the same states.
        Formula::Not(g) => log2_states(g, langs),
        // Product construction: states multiply ⇒ logs add.
        Formula::And(a, b) => log2_states(a, langs) + log2_states(b, langs),
        // Union: |A| + |B| ≤ 2·max ⇒ max + 1 in the log domain.
        Formula::Or(a, b) | Formula::Implies(a, b) => {
            log2_states(a, langs).max(log2_states(b, langs)) + 1.0
        }
        // a ↔ b expands to (a∧b) ∨ (¬a∧¬b) under NNF: two products.
        Formula::Iff(a, b) => log2_states(a, langs) + log2_states(b, langs) + 1.0,
        // Projection keeps the state set (yields an NFA; cost deferred
        // until a ∀ forces determinization).
        Formula::Exists(_, g) | Formula::ExistsR(_, _, g) => log2_states(g, langs),
        // ∀ = ¬∃¬: determinization of the projected NFA, 2^n states ⇒
        // the log₂ bound becomes n itself.
        Formula::Forall(_, g) | Formula::ForallR(_, _, g) => {
            let inner = log2_states(g, langs);
            2.0f64.powf(inner.min(LOG2_CAP.log2()))
        }
    };
    states.min(LOG2_CAP)
}

fn atom_log2_states(a: &Atom, langs: &LangTable) -> f64 {
    match a {
        Atom::Rel(..) => REL_ATOM_STATES.log2(),
        Atom::InLang(_, l) | Atom::PL(_, _, l) => (langs.states(l) as f64).log2() + 1.0,
        _ => STRUCT_ATOM_STATES.log2(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;
    use strcalc_alphabet::Sym;
    use strcalc_automata::Regex;
    use strcalc_logic::{Lang, Term};

    /// The pass over a table of `f`'s own languages.
    fn check(f: &Formula, k: Sym) -> (CostEstimate, Vec<Finding>) {
        super::check(f, &LangTable::build(f, k))
    }

    #[test]
    fn flat_query_is_cheap() {
        let f = Formula::rel("R", vec![Term::var("x")])
            .and(Formula::prefix(Term::var("y"), Term::var("x")));
        let (est, findings) = check(&f, 2);
        assert_eq!(est.quantifier_rank, 0);
        assert_eq!(est.alternation_depth, 0);
        assert_eq!(est.rel_atoms, 1);
        assert!(est.log2_states <= 10.0);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, Code::CostReport);
    }

    #[test]
    fn forall_explodes_the_bound() {
        let body = Formula::rel("R", vec![Term::var("x"), Term::var("y")])
            .and(Formula::rel("S", vec![Term::var("y")]));
        let cheap = check(&Formula::exists("y", body.clone()), 2).0;
        let dear = check(&Formula::forall("y", body), 2).0;
        // 2^12 products determinize: the log bound itself becomes ~2^12
        // (saturated at the cap), far above the existential's.
        assert!(cheap.log2_states < 20.0);
        assert!(dear.log2_states > cheap.log2_states * 10.0);
    }

    #[test]
    fn budget_violation_reported() {
        let body = Formula::rel("R", vec![Term::var("x"), Term::var("y")])
            .and(Formula::rel("S", vec![Term::var("y")]));
        let (_, findings) = check(&Formula::forall("y", body), 2);
        assert!(findings
            .iter()
            .any(|f| f.code == Code::StateBoundExceedsBudget));
    }

    #[test]
    fn alternation_counts_block_switches() {
        // ∃x∃y — one block.
        let f = Formula::exists(
            "x",
            Formula::exists("y", Formula::eq(Term::var("x"), Term::var("y"))),
        );
        assert_eq!(check(&f, 2).0.alternation_depth, 1);
        // ∃x∀y∃z — three blocks.
        let g = Formula::exists(
            "x",
            Formula::forall(
                "y",
                Formula::exists("z", Formula::eq(Term::var("x"), Term::var("z"))),
            ),
        );
        let est = check(&g, 2).0;
        assert_eq!(est.alternation_depth, 3);
        assert_eq!(est.quantifier_rank, 3);
    }

    #[test]
    fn negated_forall_costs_like_exists() {
        // ¬∀y φ normalizes to ∃y ¬φ: no determinization charge.
        let body = Formula::rel("R", vec![Term::var("x"), Term::var("y")]);
        let f = Formula::forall("y", body.clone()).not();
        let g = Formula::exists("y", body.not());
        assert_eq!(check(&f, 2).0.log2_states, check(&g, 2).0.log2_states);
    }

    #[test]
    fn language_atoms_charged_their_dfa_size() {
        let ab = Alphabet::ab();
        let l = Lang::new(Regex::parse(&ab, "(aa)*").unwrap());
        let (est, _) = check(&Formula::in_lang(Term::var("x"), l), 2);
        assert_eq!(est.lang_atoms, 1);
        assert!(est.log2_states >= 1.0);
    }

    #[test]
    fn bound_saturates() {
        // Tower of ∀s would overflow f64 without the cap.
        let mut f = Formula::rel("R", vec![Term::var("x")]);
        for _ in 0..8 {
            f = Formula::forall("x", f);
        }
        let (est, _) = check(&f, 2);
        assert!(est.log2_states.is_finite());
        assert!(est.log2_states <= LOG2_CAP);
    }
}
