//! Formula transformations, and the structure classes of Figure 1 that
//! atoms and terms require.

use std::collections::{BTreeSet, HashMap};

use crate::formula::{Atom, Formula, Lang, Term};

/// The lattice of structures from Figure 1 of the paper (restricted to
/// the implemented ones):
///
/// ```text
///          Concat            (computationally complete, Prop. 1)
///            |
///          S_len
///          /   \
///      S_left  S_reg          (incomparable, Section 7)
///          \   /
///            S
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureClass {
    S,
    SLeft,
    SReg,
    SLen,
    Concat,
}

impl StructureClass {
    /// Least upper bound in the Figure-1 lattice. Note
    /// `join(SLeft, SReg) = SLen`: a formula mixing `F_a` with non-star-
    /// free pattern matching needs the full power of `S_len`.
    pub fn join(self, other: StructureClass) -> StructureClass {
        use StructureClass::*;
        match (self, other) {
            (Concat, _) | (_, Concat) => Concat,
            (SLen, _) | (_, SLen) => SLen,
            (SLeft, SReg) | (SReg, SLeft) => SLen,
            (SLeft, _) | (_, SLeft) => SLeft,
            (SReg, _) | (_, SReg) => SReg,
            (S, S) => S,
        }
    }

    /// Partial order of the lattice.
    pub fn leq(self, other: StructureClass) -> bool {
        self.join(other) == other
    }

    /// Human-readable name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            StructureClass::S => "S",
            StructureClass::SLeft => "S_left",
            StructureClass::SReg => "S_reg",
            StructureClass::SLen => "S_len",
            StructureClass::Concat => "S_concat",
        }
    }
}

/// The structure class atom `a` requires, its terms aside: `F_a` needs
/// `S_left`; `el`, `shorteq`, `shorter` and `ins` need `S_len`;
/// concatenation needs `S_concat`; a language atom needs `S_reg` unless
/// `star_free` says its language is star-free. An undecided language
/// should read as not star-free: `S_reg` admits every regular language.
pub fn atom_class(a: &Atom, star_free: impl FnOnce(&Lang) -> bool) -> StructureClass {
    match a {
        Atom::Prepends(..) => StructureClass::SLeft,
        // `ins` is the conclusion's extension: it subsumes `F_a` (p = ε)
        // and is definable over `S_len` by the same positional trick
        // (Section 4); typed conservatively at `S_len`, since its exact
        // lattice position is the paper's open question.
        Atom::EqLen(..) | Atom::ShorterEq(..) | Atom::Shorter(..) | Atom::InsertAfter(..) => {
            StructureClass::SLen
        }
        Atom::ConcatEq(..) => StructureClass::Concat,
        Atom::InLang(_, l) | Atom::PL(_, _, l) => {
            if star_free(l) {
                StructureClass::S
            } else {
                StructureClass::SReg
            }
        }
        _ => StructureClass::S,
    }
}

/// The structure class term `t` requires — `prepend` and `trim` need
/// `S_left` — with the name of the outermost function responsible, for
/// diagnostics.
pub fn term_class(t: &Term) -> (StructureClass, Option<&'static str>) {
    match t {
        Term::Var(_) | Term::Const(_) => (StructureClass::S, None),
        Term::Append(inner, _) => {
            let (c, f) = term_class(inner);
            (c, f.or(Some("append")))
        }
        Term::Prepend(_, inner) => {
            let (c, _) = term_class(inner);
            (StructureClass::SLeft.join(c), Some("prepend"))
        }
        Term::TrimLeading(_, inner) => {
            let (c, _) = term_class(inner);
            (StructureClass::SLeft.join(c), Some("trim"))
        }
    }
}

/// Negation normal form: negations pushed to atoms, `→`/`↔` expanded.
/// Restricted quantifiers dualize against the *same* range (the range
/// does not depend on the truth of the body).
pub fn nnf(f: &Formula) -> Formula {
    nnf_signed(f, false)
}

/// The NNF of `f`, or of `¬f` when `negated`. Carrying the polarity down
/// instead of building `¬g` for each subformula keeps the conversion
/// linear in the size of `f`.
fn nnf_signed(f: &Formula, negated: bool) -> Formula {
    let pos = |g: &Formula| nnf_signed(g, false);
    let neg = |g: &Formula| nnf_signed(g, true);
    match (f, negated) {
        (Formula::True | Formula::False | Formula::Atom(_), false) => f.clone(),
        (Formula::True, true) => Formula::False,
        (Formula::False, true) => Formula::True,
        (Formula::Atom(_), true) => f.clone().not(),
        (Formula::Not(g), _) => nnf_signed(g, !negated),
        (Formula::And(a, b), false) => pos(a).and(pos(b)),
        (Formula::And(a, b), true) => neg(a).or(neg(b)),
        (Formula::Or(a, b), false) => pos(a).or(pos(b)),
        (Formula::Or(a, b), true) => neg(a).and(neg(b)),
        (Formula::Implies(a, b), false) => neg(a).or(pos(b)),
        (Formula::Implies(a, b), true) => pos(a).and(neg(b)),
        (Formula::Iff(a, b), false) => pos(a).and(pos(b)).or(neg(a).and(neg(b))),
        (Formula::Iff(a, b), true) => pos(a).and(neg(b)).or(neg(a).and(pos(b))),
        (Formula::Exists(v, g), false) => Formula::exists(v.clone(), pos(g)),
        (Formula::Exists(v, g), true) => Formula::forall(v.clone(), neg(g)),
        (Formula::Forall(v, g), false) => Formula::forall(v.clone(), pos(g)),
        (Formula::Forall(v, g), true) => Formula::exists(v.clone(), neg(g)),
        (Formula::ExistsR(r, v, g), false) => Formula::exists_r(*r, v.clone(), pos(g)),
        (Formula::ExistsR(r, v, g), true) => Formula::forall_r(*r, v.clone(), neg(g)),
        (Formula::ForallR(r, v, g), false) => Formula::forall_r(*r, v.clone(), pos(g)),
        (Formula::ForallR(r, v, g), true) => Formula::exists_r(*r, v.clone(), neg(g)),
    }
}

/// Quantifier rank (maximum nesting depth of quantifiers of any kind).
pub fn quantifier_rank(f: &Formula) -> usize {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => 0,
        Formula::Not(g) => quantifier_rank(g),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            quantifier_rank(a).max(quantifier_rank(b))
        }
        Formula::Exists(_, g)
        | Formula::Forall(_, g)
        | Formula::ExistsR(_, _, g)
        | Formula::ForallR(_, _, g) => 1 + quantifier_rank(g),
    }
}

/// Renames bound variables so that every binder introduces a distinct
/// name, disjoint from all free variables. Evaluation engines rely on
/// this to allocate one automaton track / one enumeration slot per name.
pub fn freshen_bound(f: &Formula) -> Formula {
    let mut used: BTreeSet<String> = f.free_vars();
    let env: HashMap<String, String> = HashMap::new();
    let mut counter = 0usize;
    go(f, &env, &mut used, &mut counter)
}

fn fresh_name(base: &str, used: &mut BTreeSet<String>, counter: &mut usize) -> String {
    if !used.contains(base) {
        used.insert(base.to_string());
        return base.to_string();
    }
    loop {
        *counter += 1;
        let cand = format!("{base}_{counter}");
        if !used.contains(&cand) {
            used.insert(cand.clone());
            return cand;
        }
    }
}

fn go(
    f: &Formula,
    env: &HashMap<String, String>,
    used: &mut BTreeSet<String>,
    counter: &mut usize,
) -> Formula {
    let rename_term = |t: &Term, env: &HashMap<String, String>| -> Term {
        fn rt(t: &Term, env: &HashMap<String, String>) -> Term {
            match t {
                Term::Var(v) => match env.get(v) {
                    Some(n) => Term::Var(n.clone()),
                    None => t.clone(),
                },
                Term::Const(_) => t.clone(),
                Term::Append(inner, a) => Term::Append(Box::new(rt(inner, env)), *a),
                Term::Prepend(a, inner) => Term::Prepend(*a, Box::new(rt(inner, env))),
                Term::TrimLeading(a, inner) => Term::TrimLeading(*a, Box::new(rt(inner, env))),
            }
        }
        rt(t, env)
    };
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Atom(a) => Formula::Atom(a.map_terms(|t| rename_term(t, env))),
        Formula::Not(g) => go(g, env, used, counter).not(),
        Formula::And(a, b) => go(a, env, used, counter).and(go(b, env, used, counter)),
        Formula::Or(a, b) => go(a, env, used, counter).or(go(b, env, used, counter)),
        Formula::Implies(a, b) => go(a, env, used, counter).implies(go(b, env, used, counter)),
        Formula::Iff(a, b) => go(a, env, used, counter).iff(go(b, env, used, counter)),
        Formula::Exists(v, g)
        | Formula::Forall(v, g)
        | Formula::ExistsR(_, v, g)
        | Formula::ForallR(_, v, g) => {
            let new_name = fresh_name(v, used, counter);
            let mut env2 = env.clone();
            env2.insert(v.clone(), new_name.clone());
            let body = go(g, &env2, used, counter);
            match f {
                Formula::Exists(..) => Formula::exists(new_name, body),
                Formula::Forall(..) => Formula::forall(new_name, body),
                Formula::ExistsR(r, ..) => Formula::exists_r(*r, new_name, body),
                Formula::ForallR(r, ..) => Formula::forall_r(*r, new_name, body),
                _ => unreachable!(),
            }
        }
    }
}

/// Lowers functional terms (`append`, `prepend`, `trim`) into relational
/// atoms with fresh existential variables, so that every atom mentions
/// only variables and constants. This mirrors the paper's replacement of
/// `l_a`, `f_a` by their graphs `L_a` (via the covering relation) and
/// `F_a`:
///
/// * `v = t·a`       ⟺ `Cover(t, v) ∧ L_a(v)`
/// * `v = a·t`       ⟺ `F_a(t, v)`
/// * `v = TRIM_a(t)` ⟺ `F_a(v, t) ∨ (¬FirstSym_a(t) ∧ v = ε)`
pub fn lower_terms(f: &Formula) -> Formula {
    let mut counter = 0usize;
    lower(f, &mut counter)
}

fn lower(f: &Formula, counter: &mut usize) -> Formula {
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Atom(a) => lower_atom(a, counter),
        Formula::Not(g) => lower(g, counter).not(),
        Formula::And(a, b) => lower(a, counter).and(lower(b, counter)),
        Formula::Or(a, b) => lower(a, counter).or(lower(b, counter)),
        Formula::Implies(a, b) => lower(a, counter).implies(lower(b, counter)),
        Formula::Iff(a, b) => lower(a, counter).iff(lower(b, counter)),
        Formula::Exists(v, g) => Formula::exists(v.clone(), lower(g, counter)),
        Formula::Forall(v, g) => Formula::forall(v.clone(), lower(g, counter)),
        Formula::ExistsR(r, v, g) => Formula::exists_r(*r, v.clone(), lower(g, counter)),
        Formula::ForallR(r, v, g) => Formula::forall_r(*r, v.clone(), lower(g, counter)),
    }
}

fn lower_atom(a: &Atom, counter: &mut usize) -> Formula {
    // Flatten each term; collect (fresh var, defining formula) pairs.
    let mut defs: Vec<(String, Formula)> = Vec::new();
    let flat = a.map_terms(|t| flatten_term(t, &mut defs, counter));
    let mut out = Formula::Atom(flat);
    for (v, def) in defs.into_iter().rev() {
        out = Formula::exists(v, def.and(out));
    }
    out
}

/// Returns a flat term equal to `t`, pushing definitions for intermediate
/// results into `defs`.
fn flatten_term(t: &Term, defs: &mut Vec<(String, Formula)>, counter: &mut usize) -> Term {
    match t {
        Term::Var(_) | Term::Const(_) => t.clone(),
        Term::Append(inner, a) => {
            let flat_inner = flatten_term(inner, defs, counter);
            *counter += 1;
            let v = format!("_t{counter}");
            let vt = Term::Var(v.clone());
            // v = inner · a  ⟺  Cover(inner, v) ∧ L_a(v)
            let def = Formula::cover(flat_inner, vt.clone()).and(Formula::last_sym(vt.clone(), *a));
            defs.push((v, def));
            vt
        }
        Term::Prepend(a, inner) => {
            let flat_inner = flatten_term(inner, defs, counter);
            *counter += 1;
            let v = format!("_t{counter}");
            let vt = Term::Var(v.clone());
            // v = a · inner  ⟺  F_a(inner, v)
            let def = Formula::prepends(flat_inner, vt.clone(), *a);
            defs.push((v, def));
            vt
        }
        Term::TrimLeading(a, inner) => {
            let flat_inner = flatten_term(inner, defs, counter);
            *counter += 1;
            let v = format!("_t{counter}");
            let vt = Term::Var(v.clone());
            // v = TRIM_a(inner) ⟺ F_a(v, inner) ∨ (¬first_a(inner) ∧ v = ε)
            let def = Formula::prepends(vt.clone(), flat_inner.clone(), *a).or(Formula::first_sym(
                flat_inner, *a,
            )
            .not()
            .and(Formula::eq(vt.clone(), Term::epsilon())));
            defs.push((v, def));
            vt
        }
    }
}

/// Light constant folding: eliminates `True`/`False` subformulas and
/// double negations. Unrestricted quantifiers over constants fold
/// (`Σ*` is nonempty); restricted quantifiers do **not** (their range can
/// be empty on an empty database).
pub fn simplify(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => f.clone(),
        Formula::Not(g) => match simplify(g) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            s => s.not(),
        },
        Formula::And(a, b) => match (simplify(a), simplify(b)) {
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::True, s) | (s, Formula::True) => s,
            (x, y) => x.and(y),
        },
        Formula::Or(a, b) => match (simplify(a), simplify(b)) {
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::False, s) | (s, Formula::False) => s,
            (x, y) => x.or(y),
        },
        Formula::Implies(a, b) => match (simplify(a), simplify(b)) {
            (Formula::False, _) | (_, Formula::True) => Formula::True,
            (Formula::True, s) => s,
            (x, Formula::False) => simplify(&x.not()),
            (x, y) => x.implies(y),
        },
        Formula::Iff(a, b) => match (simplify(a), simplify(b)) {
            (Formula::True, s) | (s, Formula::True) => s,
            (Formula::False, s) | (s, Formula::False) => simplify(&s.not()),
            (x, y) => x.iff(y),
        },
        Formula::Exists(v, g) => match simplify(g) {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            s => Formula::exists(v.clone(), s),
        },
        Formula::Forall(v, g) => match simplify(g) {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            s => Formula::forall(v.clone(), s),
        },
        Formula::ExistsR(r, v, g) => Formula::exists_r(*r, v.clone(), simplify(g)),
        Formula::ForallR(r, v, g) => Formula::forall_r(*r, v.clone(), simplify(g)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_joins() {
        use StructureClass::*;
        assert_eq!(S.join(SLeft), SLeft);
        assert_eq!(SLeft.join(SReg), SLen);
        assert_eq!(SReg.join(SLeft), SLen);
        assert_eq!(SLen.join(S), SLen);
        assert_eq!(Concat.join(S), Concat);
        assert!(S.leq(SReg) && !SReg.leq(SLeft));
    }

    #[test]
    fn nnf_pushes_negations() {
        let x = || Term::var("x");
        let f = Formula::exists("y", Formula::prefix(x(), Term::var("y"))).not();
        let g = nnf(&f);
        match g {
            Formula::Forall(_, body) => match *body {
                Formula::Not(inner) => {
                    assert!(matches!(*inner, Formula::Atom(_)));
                }
                other => panic!("expected ¬atom, got {other}"),
            },
            other => panic!("expected ∀, got {other}"),
        }
    }

    #[test]
    fn nnf_expands_iff() {
        let a = Formula::last_sym(Term::var("x"), 0);
        let b = Formula::last_sym(Term::var("x"), 1);
        let g = nnf(&a.clone().iff(b.clone()));
        // (a ∧ b) ∨ (¬a ∧ ¬b)
        assert!(matches!(g, Formula::Or(..)));
    }

    #[test]
    fn quantifier_rank_counts_depth() {
        let f = Formula::exists(
            "x",
            Formula::forall("y", Formula::eq(Term::var("x"), Term::var("y")))
                .and(Formula::exists("z", Formula::True)),
        );
        assert_eq!(quantifier_rank(&f), 2);
    }

    #[test]
    fn freshen_disambiguates() {
        // ∃x (R(x) ∧ ∃x S(x)) with free x outside... build: x free in
        // head, then two binders both named x.
        let f = Formula::rel("H", vec![Term::var("x")]).and(Formula::exists(
            "x",
            Formula::rel("R", vec![Term::var("x")]).and(Formula::exists(
                "x",
                Formula::rel("S", vec![Term::var("x")]),
            )),
        ));
        let g = freshen_bound(&f);
        // All binder names distinct and distinct from the free "x".
        let mut binders = Vec::new();
        g.visit(&mut |sub| {
            if let Formula::Exists(v, _) = sub {
                binders.push(v.clone());
            }
        });
        assert_eq!(binders.len(), 2);
        assert_ne!(binders[0], binders[1]);
        assert!(!binders.contains(&"x".to_string()));
        assert!(g.free_vars().contains("x"));
    }

    #[test]
    fn lower_append_terms() {
        // last(append(x, 'a'), 'a') — trivially true for all x after
        // lowering; just check shape: ∃v (Cover(x,v) ∧ L_a(v) ∧ last(v,a)).
        let f = Formula::last_sym(Term::var("x").append(0), 0);
        let g = lower_terms(&f);
        assert!(matches!(g, Formula::Exists(..)));
        let fv = g.free_vars();
        assert_eq!(fv.len(), 1);
        assert!(fv.contains("x"));
    }

    #[test]
    fn lower_trim_terms() {
        let f = Formula::eq(Term::var("y"), Term::var("x").trim_leading(1));
        let g = lower_terms(&f);
        assert!(matches!(g, Formula::Exists(..)));
        // Lowered formula uses F_a and first-symbol atoms.
        let mut has_prepends = false;
        g.visit(&mut |sub| {
            if let Formula::Atom(Atom::Prepends(..)) = sub {
                has_prepends = true;
            }
        });
        assert!(has_prepends);
    }

    #[test]
    fn simplify_folds_constants() {
        let f = Formula::True.and(Formula::last_sym(Term::var("x"), 0));
        assert!(matches!(simplify(&f), Formula::Atom(_)));
        let f = Formula::exists("x", Formula::False);
        assert_eq!(simplify(&f), Formula::False);
        let f = Formula::forall("x", Formula::True);
        assert_eq!(simplify(&f), Formula::True);
        // Restricted quantifier over True must NOT fold.
        let f = Formula::exists_r(crate::Restrict::Active, "x", Formula::True);
        assert!(matches!(simplify(&f), Formula::ExistsR(..)));
        let f = Formula::last_sym(Term::var("x"), 0).not().not();
        assert!(matches!(simplify(&f), Formula::Atom(_)));
    }
}
