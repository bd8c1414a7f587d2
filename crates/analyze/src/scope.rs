//! Pass 3: scope hygiene.
//!
//! Purely syntactic checks on quantifier structure: bound variables that
//! are never used ([`Code::UnusedQuantifiedVar`]), binders that shadow an
//! enclosing binder or a free variable ([`Code::ShadowedVar`]), and
//! quantifiers over constant bodies ([`Code::VacuousQuantifier`]). None
//! of these affect correctness — evaluation freshens bound variables —
//! but all of them make queries harder to read and usually indicate a
//! mistake.

use std::collections::BTreeSet;

use strcalc_logic::Formula;

use crate::diag::{children, Code, Finding, FormulaPath};

pub(crate) fn check(f: &Formula) -> Vec<Finding> {
    let mut findings = Vec::new();
    let free = f.free_vars();
    walk(
        f,
        &FormulaPath::root(),
        &free,
        &mut Vec::new(),
        &mut findings,
    );
    findings
}

fn walk(
    f: &Formula,
    path: &FormulaPath,
    free: &BTreeSet<String>,
    binders: &mut Vec<String>,
    findings: &mut Vec<Finding>,
) {
    let depth = binders.len();
    if let Formula::Exists(v, g)
    | Formula::Forall(v, g)
    | Formula::ExistsR(_, v, g)
    | Formula::ForallR(_, v, g) = f
    {
        if matches!(**g, Formula::True | Formula::False) {
            findings.push(Finding::new(
                Code::VacuousQuantifier,
                path.clone(),
                format!("quantifier over {v} has a constant body"),
            ));
        } else if !g.free_vars().contains(v) {
            findings.push(Finding::new(
                Code::UnusedQuantifiedVar,
                path.clone(),
                format!("quantified variable {v} is never used in its body"),
            ));
        }
        if binders.iter().any(|b| b == v) {
            findings.push(Finding::new(
                Code::ShadowedVar,
                path.clone(),
                format!("{v} shadows an enclosing quantifier binding of the same name"),
            ));
        } else if free.contains(v) {
            findings.push(Finding::new(
                Code::ShadowedVar,
                path.clone(),
                format!("{v} shadows a free (head) variable of the same name"),
            ));
        }
        binders.push(v.clone());
    }
    for (seg, g) in children(f) {
        walk(g, &path.child(seg), free, binders, findings);
    }
    binders.truncate(depth);
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_logic::Term;

    fn codes(findings: &[Finding]) -> Vec<Code> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn clean_formula_no_findings() {
        let f = Formula::exists("y", Formula::rel("R", vec![Term::var("x"), Term::var("y")]));
        assert!(check(&f).is_empty());
    }

    #[test]
    fn unused_variable_flagged() {
        let f = Formula::exists("y", Formula::rel("R", vec![Term::var("x")]));
        assert_eq!(codes(&check(&f)), vec![Code::UnusedQuantifiedVar]);
    }

    #[test]
    fn shadowing_binder_flagged() {
        let f = Formula::exists(
            "y",
            Formula::rel("R", vec![Term::var("y")]).and(Formula::exists(
                "y",
                Formula::rel("S", vec![Term::var("y")]),
            )),
        );
        let findings = check(&f);
        assert_eq!(codes(&findings), vec![Code::ShadowedVar]);
        assert_eq!(findings[0].path.to_string(), "root/quant(y)/and.rhs");
    }

    #[test]
    fn shadowing_free_variable_flagged() {
        // x free at top level, rebound inside.
        let f = Formula::rel("R", vec![Term::var("x")]).and(Formula::exists(
            "x",
            Formula::rel("S", vec![Term::var("x")]),
        ));
        assert_eq!(codes(&check(&f)), vec![Code::ShadowedVar]);
    }

    #[test]
    fn vacuous_quantifier_flagged() {
        let f = Formula::forall("z", Formula::True);
        assert_eq!(codes(&check(&f)), vec![Code::VacuousQuantifier]);
        // Vacuous wins over unused (no double report).
        assert_eq!(check(&f).len(), 1);
    }
}
