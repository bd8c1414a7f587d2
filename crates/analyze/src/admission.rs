//! Admission control: the classification hook a query server calls
//! before agreeing to run a query (ROADMAP item 1).
//!
//! [`classify`] bundles the three static verdicts a server needs into
//! one report: the formula's point in the fragment lattice (pass 5),
//! the evaluation class and strategy the planner will pick from it, the
//! cost estimate (pass 4), and a resource certificate — an upper bound
//! in the planlint interval domain, derived by abstract interpretation
//! of the formula structure with the same transfer functions the plan
//! verifier uses on plan trees. A server can gate admission on
//! `report.cert.admits(&budget)` without planning or touching a
//! database.

use strcalc_alphabet::Sym;
use strcalc_logic::Formula;

use crate::cost::{self, CostEstimate};
use crate::fragments::{self, EvalClass, FragmentPoint};
use crate::planlint::{
    dense_scan_cert, dense_scan_states, leaf_cert, ResourceCert, DENSIFY_THRESHOLD,
};

/// Everything admission control needs to accept, reject, or budget a
/// query before planning it.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionReport {
    /// The formula's point in the fragment lattice.
    pub fragment: FragmentPoint,
    /// The inferred evaluation class.
    pub class: EvalClass,
    /// The strategy the planner will select for this class (its stable
    /// name, matching the plan IR's `Strategy::name()`).
    pub strategy: &'static str,
    /// Quantifier-rank / alternation / state-bound cost estimate.
    pub cost: CostEstimate,
    /// Certified resource upper bound. [`ResourceCert::ZERO`] for the
    /// non-automata classes, whose executors build no automata.
    pub cert: ResourceCert,
}

impl AdmissionReport {
    /// One-line summary for logs and CLI output.
    pub fn summary(&self) -> String {
        format!(
            "fragment {}; class {}; strategy {}; {}; certificate {}",
            self.fragment.summary(),
            self.class.name(),
            self.strategy,
            self.cost.summary(),
            self.cert.summary()
        )
    }
}

/// Classifies `f` for admission (alphabet size `k`, star-freeness
/// decided under `monoid_cap`).
pub fn classify(f: &Formula, k: Sym, monoid_cap: usize) -> AdmissionReport {
    let (analysis, _) = fragments::analyze(f, k, monoid_cap);
    let strategy = match &analysis.class {
        EvalClass::LikeLinear(_) => "like-linear-scan",
        // The planner routes by the same constant threshold, so
        // admission and the plan agree on dense vs. sparse.
        EvalClass::LikeGeneral(plan) if dense_scan_states(plan, k) <= DENSIFY_THRESHOLD => {
            "dense-dfa-scan"
        }
        EvalClass::LikeGeneral(_) => "automata",
        EvalClass::AutomataTame => "automata",
        EvalClass::ConcatBounded => "bounded-search",
    };
    let cert = match &analysis.class {
        EvalClass::AutomataTame => formula_cert(f, k),
        EvalClass::LikeGeneral(plan) if strategy == "dense-dfa-scan" => dense_scan_cert(plan, k),
        EvalClass::LikeGeneral(_) => formula_cert(f, k),
        // The linear scan and bounded-search executors build no automata.
        _ => ResourceCert::ZERO,
    };
    AdmissionReport {
        fragment: analysis.root,
        class: analysis.class,
        strategy,
        cost: cost::estimate(f, k),
        cert,
    }
}

/// Resource certificate for the automata strategy, by abstract
/// interpretation over the formula with the planlint transfer
/// functions: atoms seed leaf certificates, `∧` is an automaton
/// product, `∨` a union, `¬` a complement, quantifiers project (with
/// `∀ = ¬∃¬`). Mirrors the certificate the plan verifier derives from
/// the lowered plan tree, so admission-time and plan-time bounds agree
/// in shape.
fn formula_cert(f: &Formula, k: Sym) -> ResourceCert {
    let tracks = f.free_vars().len();
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => leaf_cert(f, k, tracks),
        Formula::Not(g) => ResourceCert::complement(&formula_cert(g, k), k, tracks),
        Formula::And(a, b) => {
            ResourceCert::product(&[formula_cert(a, k), formula_cert(b, k)], k, tracks)
        }
        Formula::Or(a, b) => {
            ResourceCert::union(&[formula_cert(a, k), formula_cert(b, k)], k, tracks)
        }
        // a → b ≡ ¬a ∨ b.
        Formula::Implies(a, b) => {
            let na = ResourceCert::complement(&formula_cert(a, k), k, tracks);
            ResourceCert::union(&[na, formula_cert(b, k)], k, tracks)
        }
        // a ↔ b ≡ (a → b) ∧ (b → a).
        Formula::Iff(a, b) => {
            let ca = formula_cert(a, k);
            let cb = formula_cert(b, k);
            let lhs =
                ResourceCert::union(&[ResourceCert::complement(&ca, k, tracks), cb], k, tracks);
            let rhs =
                ResourceCert::union(&[ResourceCert::complement(&cb, k, tracks), ca], k, tracks);
            ResourceCert::product(&[lhs, rhs], k, tracks)
        }
        Formula::Exists(_, g) | Formula::ExistsR(_, _, g) => {
            ResourceCert::passthrough(&formula_cert(g, k), k, tracks)
        }
        // ∀x.φ ≡ ¬∃x.¬φ.
        Formula::Forall(_, g) | Formula::ForallR(_, _, g) => {
            let body = formula_cert(g, k);
            let inner = ResourceCert::complement(&body, k, tracks);
            let projected = ResourceCert::passthrough(&inner, k, tracks);
            ResourceCert::complement(&projected, k, tracks)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_automata::Regex;
    use strcalc_logic::{Lang, Term};

    fn like(pattern: &str) -> Formula {
        let ab = strcalc_alphabet::Alphabet::ab();
        let regex = match Regex::parse(&ab, pattern) {
            Ok(r) => r,
            Err(e) => panic!("{pattern}: {e}"),
        };
        Formula::rel("U", vec![Term::var("x")]).and(Formula::in_lang(
            Term::var("x"),
            Lang::named(format!("LIKE {pattern}"), regex),
        ))
    }

    #[test]
    fn admission_routes_classes_to_strategies() {
        let scan = classify(&like("ab.*"), 2, 100_000);
        assert_eq!(scan.strategy, "like-linear-scan");
        assert!(scan.cert.is_zero(), "scans certify zero resources");

        let tame = classify(&Formula::rel("U", vec![Term::var("x")]), 2, 100_000);
        assert_eq!(tame.strategy, "automata");
        assert!(!tame.cert.is_zero());
        assert!(tame.fragment.automata_tame);

        let concat = classify(
            &Formula::concat_eq(Term::var("x"), Term::var("y"), Term::var("z")),
            2,
            100_000,
        );
        assert_eq!(concat.strategy, "bounded-search");
        assert!(concat.cert.is_zero());
        assert!(concat.fragment.concat_bounded);
    }

    #[test]
    fn certificates_grow_with_connectives() {
        let atom = classify(&Formula::rel("U", vec![Term::var("x")]), 2, 100_000);
        let product = classify(
            &Formula::rel("U", vec![Term::var("x")]).and(Formula::rel("V", vec![Term::var("x")])),
            2,
            100_000,
        );
        assert!(product.cert.states.hi >= atom.cert.states.hi);
        let report = product.summary();
        assert!(report.contains("automata"), "{report}");
    }

    #[test]
    fn quantifiers_and_negation_keep_a_finite_bound() {
        let f = Formula::forall(
            "y",
            Formula::rel("U", vec![Term::var("y")])
                .not()
                .or(Formula::prefix(Term::var("x"), Term::var("y"))),
        );
        let report = classify(&f, 2, 100_000);
        assert_eq!(report.strategy, "automata");
        assert!(report.cert.states.hi >= 1);
    }
}
