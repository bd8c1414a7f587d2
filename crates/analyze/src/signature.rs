//! Pass 1: signature checking.
//!
//! Walks the formula tree and infers, per subformula, the least structure
//! in the Figure-1 lattice whose primitives cover it — `Term::Prepend`
//! forces `S_left`, `el` forces `S_len`, an `in`/`pl` language not known
//! to be star-free forces `S_reg`, concatenation forces `S_concat` —
//! then compares against the declared calculus and attributes each
//! violation to the exact term or atom that caused it
//! ([`Code::SignatureExceedsDeclared`], [`Code::ConcatInTameCalculus`]).
//!
//! The inference is total: a language whose star-freeness the
//! [`LangTable`] left undecided is classified `S_reg`, which admits every
//! regular language, and the fragment pass notes it
//! ([`Code::FragmentStarFreeFallback`]). A query's
//! [`FactSheet`](crate::FactSheet) carries the inferred class; the
//! fragment pass's walk attributes each violation of the declared
//! calculus to its atom or term.

use strcalc_logic::{term_class, Atom, Formula, Lang, StructureClass};

use crate::diag::{Code, Finding, FormulaPath, PathSeg};
use crate::langs::LangTable;

/// The least structure class covering every atom and term of `f`,
/// reading star-freeness verdicts from `langs`.
pub(crate) fn inferred(f: &Formula, langs: &LangTable) -> StructureClass {
    let mut inferred = StructureClass::S;
    f.visit(&mut |g| {
        if let Formula::Atom(a) = g {
            for t in a.terms() {
                inferred = inferred.join(term_class(t).0);
            }
            inferred = inferred.join(atom_class(a, langs));
        }
    });
    inferred
}

/// The structure atom `a` requires, terms included, with the signature
/// findings the fragment pass's walk emits at `path`: each term function
/// (at `path/term[i]`) and the atom itself when they exceed `declared`.
pub(crate) fn atom_findings(
    a: &Atom,
    path: &FormulaPath,
    declared: StructureClass,
    langs: &LangTable,
    out: &mut Vec<Finding>,
) -> StructureClass {
    let declared_name = declared.name();
    let mut structure = atom_class(a, langs);
    for (i, t) in a.terms().iter().enumerate() {
        let (class, feature) = term_class(t);
        structure = structure.join(class);
        if !class.leq(declared) {
            out.push(Finding::new(
                Code::SignatureExceedsDeclared,
                path.child(PathSeg::Term(i)),
                format!(
                    "term function {} requires {} but the query is declared RC({declared_name})",
                    feature.unwrap_or("<none>"),
                    class.name(),
                ),
            ));
        }
    }
    let class = atom_class(a, langs);
    if class.leq(declared) {
        return structure;
    }
    out.push(if matches!(a, Atom::ConcatEq(..)) {
        Finding::new(
            Code::ConcatInTameCalculus,
            path.clone(),
            format!("concatenation atom in a query declared RC({declared_name})"),
        )
        .with_note(
            "RC over concatenation is computationally complete (Proposition 1); no tame \
             calculus admits it"
                .to_string(),
        )
    } else {
        Finding::new(
            Code::SignatureExceedsDeclared,
            path.clone(),
            format!(
                "atom {} requires {} but the query is declared RC({declared_name})",
                atom_name(a),
                class.name()
            ),
        )
    });
    structure
}

/// The structure class an atom requires, its terms aside, reading
/// star-freeness from `langs`: a language atom needs `S_reg` unless its
/// language is known star-free.
pub(crate) fn atom_class(a: &Atom, langs: &LangTable) -> StructureClass {
    strcalc_logic::atom_class(a, |l: &Lang| matches!(langs.star_free(l), Ok(true)))
}

/// Short display name for an atom kind.
pub(crate) fn atom_name(a: &Atom) -> &'static str {
    match a {
        Atom::Rel(..) => "relation",
        Atom::Eq(..) => "equality",
        Atom::Prefix(..) => "prefix",
        Atom::StrictPrefix(..) => "strict-prefix",
        Atom::Cover(..) => "cover",
        Atom::LastSym(..) => "last-symbol",
        Atom::FirstSym(..) => "first-symbol",
        Atom::Prepends(..) => "fa (prepend graph)",
        Atom::EqLen(..) => "el (equal length)",
        Atom::ShorterEq(..) => "shorteq",
        Atom::Shorter(..) => "shorter",
        Atom::LexLeq(..) => "lex",
        Atom::InLang(..) => "in (language membership)",
        Atom::PL(..) => "pl (pattern between prefixes)",
        Atom::ConcatEq(..) => "concat",
        Atom::InsertAfter(..) => "ins (insertion)",
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;
    use strcalc_automata::Regex;
    use strcalc_logic::{Lang, Term};

    fn re(t: &str) -> Regex {
        Regex::parse(&Alphabet::ab(), t).unwrap()
    }

    /// The inference, and the signature findings the fragment pass
    /// emits, over a two-symbol alphabet.
    fn check(f: &Formula, declared: StructureClass) -> (StructureClass, Vec<Finding>) {
        let langs = LangTable::build(f, 2);
        let (_, _, safe) = crate::saferange::check(f, &langs);
        let head: Vec<String> = f.free_vars().into_iter().collect();
        let class = crate::fragments::eval_class(&head, f);
        let (_, findings) = crate::fragments::check(f, declared, &langs, &class, &safe);
        let signature = [Code::SignatureExceedsDeclared, Code::ConcatInTameCalculus];
        let findings = findings
            .into_iter()
            .filter(|fi| signature.contains(&fi.code));
        (inferred(f, &langs), findings.collect())
    }

    #[test]
    fn prepend_term_flags_sa001_in_rc_s() {
        let f = Formula::eq(Term::var("y"), Term::var("x").prepend(0));
        let (inferred, findings) = check(&f, StructureClass::S);
        assert_eq!(inferred, StructureClass::SLeft);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, Code::SignatureExceedsDeclared);
        assert_eq!(findings[0].path.to_string(), "root/term[1]");
        assert!(findings[0].message.contains("prepend"));
    }

    #[test]
    fn same_formula_clean_in_rc_sleft() {
        let f = Formula::eq(Term::var("y"), Term::var("x").prepend(0));
        let (_, findings) = check(&f, StructureClass::SLeft);
        assert!(findings.is_empty());
    }

    #[test]
    fn concat_gets_sa002() {
        let f = Formula::concat_eq(Term::var("x"), Term::var("y"), Term::var("z"));
        let (inferred, findings) = check(&f, StructureClass::SLen);
        assert_eq!(inferred, StructureClass::Concat);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, Code::ConcatInTameCalculus);
    }

    #[test]
    fn star_free_language_stays_in_s() {
        let f = Formula::in_lang(Term::var("x"), Lang::new(re("a*")));
        let (inferred, findings) = check(&f, StructureClass::S);
        assert_eq!(inferred, StructureClass::S);
        assert!(findings.is_empty());
    }

    #[test]
    fn non_star_free_language_needs_sreg() {
        let f = Formula::in_lang(Term::var("x"), Lang::new(re("(aa)*")));
        let (inferred, findings) = check(&f, StructureClass::S);
        assert_eq!(inferred, StructureClass::SReg);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, Code::SignatureExceedsDeclared);
    }

    #[test]
    fn paths_locate_the_offending_atom() {
        let f = Formula::exists(
            "y",
            Formula::prefix(Term::var("x"), Term::var("y"))
                .and(Formula::eq_len(Term::var("x"), Term::var("y"))),
        );
        let (_, findings) = check(&f, StructureClass::S);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path.to_string(), "root/quant(y)/and.rhs");
    }
}
