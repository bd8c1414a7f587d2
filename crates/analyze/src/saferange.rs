//! Pass 2: range restriction (static safety).
//!
//! Computes the set of *range-restricted* variables of a formula: those
//! whose satisfying values are provably confined to a finite set
//! determined by the database (and the restricted variables around
//! them). A query whose free variables are all range-restricted has
//! finite output on every database; a free variable outside the set is a
//! *potential* source of infinite output and is flagged
//! [`Code::FreeVarNotRangeRestricted`] (the static counterpart of the
//! paper's safety story, Theorems 3 and 7 — safety itself is undecidable,
//! so the analysis is a sound under-approximation: it may warn on safe
//! queries, but every query the dynamic check
//! (`strcalc_core::safety::state_safety`) rejects is flagged here).
//!
//! The rules mark a variable restricted only when its range is finite
//! *given the already-restricted variables*:
//!
//! * `R(t̄)` restricts every variable under an injective term chain
//!   (`append`/`prepend`) — the term's value is a database entry, and
//!   finitely many variable values map to it. `TRIM_a` is not injective
//!   (everything not starting with `a` trims to `ε`), so it restricts
//!   nothing.
//! * `t₁ = t₂`, `Cover`, `F_a`, `el`: once either side is finite the
//!   other side has finitely many values (for `el`: finitely many strings
//!   of each length), so restriction flows both ways.
//! * `t₁ ⪯ t₂`, `shorter(eq)`, `P_L`: a finite right side leaves finitely
//!   many left values (prefixes / shorter strings); the converse is
//!   false. `P_L` additionally flows left-to-right when `L` is finite.
//! * `in(t, L)` restricts `t` when `L` is a finite language.
//! * `concat(a, b, c)` (`c = a·b`): `c` finite ⇒ finitely many splits;
//!   `a` and `b` finite ⇒ `c` finite.
//! * `ins(x, p, y)`: `x` and `y` determine each other up to finitely many
//!   insertion/deletion points, and `p ⪯ x`.
//! * `∧` iterates to a fixpoint (restriction discovered by one conjunct
//!   feeds the others); `∨` intersects; negative contexts (`¬`, `→`,
//!   `↔`, `∀`) restrict nothing.
//! * `∃x ∈ adom` makes `x` restricted *inside its body*: the active
//!   domain is finite and independent of other variables. The other
//!   restricted ranges (`dom↓`, `|x| ≤ adom`) do **not** restrict, since
//!   they include prefixes (resp. length-bounded neighbourhoods) of the
//!   *enclosing free variables'* values — in `∃y ∈ dom↓. x ⪯ y`, `y` may
//!   be `x` itself, so treating `y` as finite would wrongly certify an
//!   output that contains every string.
//!
//! Unrestricted `∃x` whose variable is not range-restricted in its body
//! additionally gets [`Code::QuantifierNotRangeRestricted`]: evaluation
//! must search an unbounded domain (the automata engine can, but the
//! restricted-quantifier collapse of Proposition 2/Theorem 2 is the
//! cheaper form).

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use strcalc_logic::{Atom, Formula, Restrict, Term};

use crate::diag::{children, Code, Finding, FormulaPath};
use crate::fragments::flatten_and;
use crate::langs::LangTable;

/// Result of the range-restriction pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafeRangeInfo {
    /// Free variables of the whole formula that are range-restricted.
    pub restricted: BTreeSet<String>,
    /// Free variables that are not — each carries an SA010 finding.
    pub unrestricted_free: Vec<String>,
}

/// A set of restricted variables; `All` is the top element (used for
/// unsatisfiable subformulas, where every variable is trivially
/// confined).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Rst {
    All,
    Set(BTreeSet<String>),
}

impl Rst {
    fn empty() -> Rst {
        Rst::Set(BTreeSet::new())
    }

    fn contains(&self, v: &str) -> bool {
        match self {
            Rst::All => true,
            Rst::Set(s) => s.contains(v),
        }
    }

    fn insert(&mut self, v: String) {
        if let Rst::Set(s) = self {
            s.insert(v);
        }
    }

    fn union(self, other: Rst) -> Rst {
        match (self, other) {
            (Rst::All, _) | (_, Rst::All) => Rst::All,
            (Rst::Set(mut a), Rst::Set(b)) => {
                a.extend(b);
                Rst::Set(a)
            }
        }
    }

    fn intersect(self, other: Rst) -> Rst {
        match (self, other) {
            (Rst::All, r) | (r, Rst::All) => r,
            (Rst::Set(a), Rst::Set(b)) => Rst::Set(a.intersection(&b).cloned().collect()),
        }
    }

    fn remove(mut self, v: &str) -> Rst {
        if let Rst::Set(s) = &mut self {
            s.remove(v);
        }
        self
    }
}

/// Safe-range verdict of every node of the formula that is not an `∧`,
/// keyed by node address: `true` iff every free variable of the node is
/// range-restricted in its conjunction context. (Every `∧` of a chain
/// sees the chain's final context, which holds everything its conjuncts
/// restrict, so an `∧` is safe-range iff both its sides are.)
pub(crate) type NodeVerdicts = HashMap<*const Formula, bool>;

/// Runs the pass over `f`, reading language finiteness for `in`/`pl`
/// atoms from `langs`. Also returns the per-node verdicts the fragment
/// pass attaches to its lattice points.
pub(crate) fn check(f: &Formula, langs: &LangTable) -> (SafeRangeInfo, Vec<Finding>, NodeVerdicts) {
    let mut walk = Walk::new(langs);
    let (root, free) = walk.rr(f, &Rst::empty());
    let mut findings = Vec::new();
    unbounded_findings(f, &FormulaPath::root(), &walk.unbounded, &mut findings);
    let mut restricted = BTreeSet::new();
    let mut unrestricted_free = Vec::new();
    for v in free {
        if root.contains(&v) {
            restricted.insert(v);
            continue;
        }
        findings.push(
            Finding::new(
                Code::FreeVarNotRangeRestricted,
                FormulaPath::root(),
                format!(
                    "free variable {v} is not range-restricted: the output may be \
                     infinite on some database"
                ),
            )
            .with_note(
                "safety is undecidable (Theorem 3); this static check is a sound \
                 under-approximation of the range-restricted fragment (Theorem 7)"
                    .to_string(),
            ),
        );
        unrestricted_free.push(v);
    }
    (
        SafeRangeInfo {
            restricted,
            unrestricted_free,
        },
        findings,
        walk.safe,
    )
}

/// Variables of `t` that are confined to finitely many values once the
/// value of `t` is confined to a finite set (i.e. the term is injective
/// as a function of each of them, composed from injective steps).
fn rpre_of(t: &Term) -> Rst {
    match t {
        Term::Var(v) => Rst::Set(BTreeSet::from([v.clone()])),
        // append / prepend are injective: finitely many outputs ⇒
        // finitely many inputs.
        Term::Append(inner, _) | Term::Prepend(_, inner) => rpre_of(inner),
        // TRIM_a collapses everything not starting with `a` to ε.
        Term::Const(_) | Term::TrimLeading(..) => Rst::empty(),
    }
}

/// `true` iff every variable of `t` is in `ctx` — then `t` takes
/// finitely many values.
fn term_finite(t: &Term, ctx: &Rst) -> bool {
    let mut vars = BTreeSet::new();
    t.free_vars_into(&mut vars);
    vars.iter().all(|v| ctx.contains(v))
}

/// The positions of `a`'s terms whose values are confined to finitely
/// many once the terms at positions where `finite_term` holds are: the
/// flow rules of the module docs, atom by atom. A variable under an
/// injective term chain at such a position is range-restricted, so this
/// is also where an evaluator generates values from. `langs` says
/// whether an `in`/`pl` language is finite.
pub fn confined_terms(
    a: &Atom,
    finite_term: &dyn Fn(usize) -> bool,
    langs: &LangTable,
) -> Vec<usize> {
    let mut out = Vec::new();
    // One-directional flow: if `src` is finite, so is `dst`.
    let mut flow = |src: usize, dst: usize| {
        if finite_term(src) {
            out.push(dst);
        }
    };
    match a {
        // Every term value is a database entry: finite unconditionally.
        Atom::Rel(_, ts) => out.extend(0..ts.len()),
        // Bidirectional: either side finite ⇒ the other finite.
        Atom::Eq(..) | Atom::Cover(..) | Atom::Prepends(..) | Atom::EqLen(..) => {
            flow(0, 1);
            flow(1, 0);
        }
        // Right side finite ⇒ finitely many left values.
        Atom::Prefix(..) | Atom::StrictPrefix(..) | Atom::ShorterEq(..) | Atom::Shorter(..) => {
            flow(1, 0)
        }
        Atom::PL(_, _, l) => {
            flow(1, 0);
            // L finite: y = x·w for finitely many w.
            if langs.finite(l) {
                flow(0, 1);
            }
        }
        Atom::InLang(_, l) => {
            if langs.finite(l) {
                out.push(0);
            }
        }
        // c = a·b.
        Atom::ConcatEq(..) => {
            if finite_term(2) {
                out.extend([0, 1]);
            }
            if finite_term(0) && finite_term(1) {
                out.push(2);
            }
        }
        // y = x with one symbol inserted after p ⪯ x.
        Atom::InsertAfter(..) => {
            if finite_term(0) {
                out.extend([2, 1]);
            }
            if finite_term(2) {
                out.extend([0, 1]);
            }
        }
        // No finite preimage in either direction.
        Atom::LastSym(..) | Atom::FirstSym(..) | Atom::LexLeq(..) => {}
    }
    out
}

/// Restricted variables contributed by an atom, given variables already
/// restricted by the surrounding conjunction.
fn rr_atom(a: &Atom, ctx: &Rst, langs: &LangTable) -> Rst {
    let terms = a.terms();
    confined_terms(a, &|i| term_finite(terms[i], ctx), langs)
        .into_iter()
        .fold(Rst::empty(), |out, i| out.union(rpre_of(terms[i])))
}

/// One restricting evaluation inside a chain: the conjunct's index, and
/// the variables it restricted first (`None` for the `All` of an
/// unsatisfiable conjunct).
type Restricted = (usize, Option<BTreeSet<String>>);

/// The walk's per-node outputs are keyed by node address: a subformula
/// may be evaluated several times while a conjunction chain converges,
/// and its last evaluation, made in the final context, wins.
struct Walk<'a> {
    langs: &'a LangTable,
    safe: NodeVerdicts,
    /// The `∃` nodes whose variable is not range-restricted in scope.
    unbounded: HashSet<*const Formula>,
}

impl<'a> Walk<'a> {
    fn new(langs: &'a LangTable) -> Walk<'a> {
        Walk {
            langs,
            safe: HashMap::new(),
            unbounded: HashSet::new(),
        }
    }

    /// The restricted variables and the free variables of `f`, given
    /// `ctx` already restricted by the enclosing conjunction.
    fn rr(&mut self, f: &Formula, ctx: &Rst) -> (Rst, BTreeSet<String>) {
        let (restricted, free) = match f {
            Formula::True => (Rst::empty(), BTreeSet::new()),
            // Unsatisfiable: every variable is vacuously confined.
            Formula::False => (Rst::All, BTreeSet::new()),
            Formula::Atom(a) => {
                let mut free = BTreeSet::new();
                for t in a.terms() {
                    t.free_vars_into(&mut free);
                }
                (rr_atom(a, ctx, self.langs), free)
            }
            Formula::And(..) => return self.conjunction(f, ctx),
            Formula::Or(a, b) => {
                let (ra, mut free) = self.rr(a, ctx);
                let (rb, free_b) = self.rr(b, ctx);
                free.extend(free_b);
                (ra.intersect(rb), free)
            }
            // Negative / mixed-polarity contexts restrict nothing, but still
            // get walked for SA011.
            Formula::Not(g) => (Rst::empty(), self.rr(g, &Rst::empty()).1),
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                let (_, mut free) = self.rr(a, &Rst::empty());
                free.extend(self.rr(b, &Rst::empty()).1);
                (Rst::empty(), free)
            }
            Formula::Exists(v, g) => {
                let (inner, mut free) = self.rr(g, &ctx.clone().remove(v));
                let node: *const Formula = f;
                if inner.contains(v) {
                    self.unbounded.remove(&node);
                } else {
                    self.unbounded.insert(node);
                }
                free.remove(v);
                (inner.remove(v), free)
            }
            Formula::ExistsR(r, v, g) => {
                let mut inner_ctx = ctx.clone().remove(v);
                // Only the active domain is finite independently of the
                // enclosing variables; dom↓ and the length-bounded range
                // include values derived from them (see module docs).
                if *r == Restrict::Active {
                    inner_ctx.insert(v.clone());
                }
                let (inner, mut free) = self.rr(g, &inner_ctx);
                free.remove(v);
                (inner.remove(v), free)
            }
            // ∀ is ¬∃¬: nothing restricted; walk the body for SA011.
            Formula::Forall(v, g) | Formula::ForallR(_, v, g) => {
                let (_, mut free) = self.rr(g, &Rst::empty());
                free.remove(v);
                (Rst::empty(), free)
            }
        };
        let safe = free
            .iter()
            .all(|v| ctx.contains(v) || restricted.contains(v));
        self.safe.insert(f, safe);
        (restricted, free)
    }

    /// A maximal `∧` chain, flattened into its conjuncts. Restriction
    /// found in one conjunct feeds the others (e.g. `R(x) ∧ y ⪯ x` needs
    /// `x` known finite to confine `y`), so the chain iterates to the
    /// least fixpoint — the one nested binary fixpoints would reach,
    /// since every conjunct is monotone in its context. A conjunct sees
    /// the context only through its free variables, so it is evaluated
    /// again only when another conjunct restricts one of them; its own
    /// result fed back as context changes neither its result nor its
    /// verdicts, since every `∧` below it already feeds back its own.
    fn conjunction(&mut self, f: &Formula, ctx: &Rst) -> (Rst, BTreeSet<String>) {
        let mut conjuncts = Vec::new();
        flatten_and(f, &mut conjuncts);
        self.chain(&conjuncts, ctx, None)
    }

    /// The fixpoint over the conjuncts of one chain. With `order`, also
    /// records each conjunct evaluation that restricted variables nothing
    /// before it had: conjunct index and the newly restricted set, or
    /// `None` for the `All` of an unsatisfiable conjunct.
    fn chain(
        &mut self,
        conjuncts: &[&Formula],
        ctx: &Rst,
        mut order: Option<&mut Vec<Restricted>>,
    ) -> (Rst, BTreeSet<String>) {
        // Conjuncts awaiting evaluation, atoms first: quantified
        // conjuncts then usually meet their final context on their
        // first evaluation.
        let lane = |g: &Formula| {
            usize::from(!matches!(
                g,
                Formula::True | Formula::False | Formula::Atom(_)
            ))
        };
        let mut queues = [VecDeque::new(), VecDeque::new()];
        for (i, g) in conjuncts.iter().enumerate() {
            queues[lane(g)].push_back(i);
        }
        let mut queued = vec![true; conjuncts.len()];
        let mut evaluated = vec![false; conjuncts.len()];
        // The conjuncts each variable is free in.
        let mut users: HashMap<String, Vec<usize>> = HashMap::new();
        let mut free = BTreeSet::new();
        let (mut acc, mut closed) = (Rst::empty(), ctx.clone());
        while let Some(i) = queues[0].pop_front().or_else(|| queues[1].pop_front()) {
            queued[i] = false;
            let (r, free_i) = self.rr(conjuncts[i], &closed);
            if !std::mem::replace(&mut evaluated[i], true) {
                for v in &free_i {
                    users.entry(v.clone()).or_default().push(i);
                }
                free.extend(free_i);
            }
            // Whose context grew: the conjuncts a newly restricted
            // variable is free in, or all of them when the set turns `All`.
            let woken: Vec<usize> = match (&closed, &r) {
                (Rst::All, _) => Vec::new(),
                (_, Rst::All) => {
                    if let Some(order) = order.as_deref_mut() {
                        order.push((i, None));
                    }
                    (0..conjuncts.len()).collect()
                }
                (Rst::Set(old), Rst::Set(new)) => {
                    let fresh: BTreeSet<String> = new.difference(old).cloned().collect();
                    if let (Some(order), false) = (order.as_deref_mut(), fresh.is_empty()) {
                        order.push((i, Some(fresh.clone())));
                    }
                    fresh
                        .iter()
                        .flat_map(|v| users.get(v).into_iter().flatten().copied())
                        .collect()
                }
            };
            closed = closed.union(r.clone());
            acc = acc.union(r);
            for j in woken {
                if j != i && !queued[j] {
                    queued[j] = true;
                    queues[lane(conjuncts[j])].push_back(j);
                }
            }
        }
        (acc, free)
    }
}

/// One step of an `∧` chain's binding order: the conjunct that
/// range-restricts `vars` first, given the variables bound before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Index of the restricting conjunct in the chain.
    pub conjunct: usize,
    /// The variables it restricts, sorted. For an unsatisfiable conjunct
    /// (`false`, or a chain holding it) these are all the chain's
    /// remaining free variables: each is vacuously confined.
    pub vars: Vec<String>,
}

/// The binding order of the `∧` chain `conjuncts` when the variables in
/// `bound` already have values: the order in which the chain's fixpoint
/// (the one the SA010 verdicts come from) first restricts each free
/// variable, and which conjunct does it. A variable missing from every
/// step is not range-restricted by the chain. `langs` says whether an
/// `in`/`pl` language is finite.
///
/// Every step restricts its variables given only `bound` and the steps
/// before it, so an evaluator can bind variables in this order: each
/// step's conjunct generates finitely many values for its variables
/// from the values already bound.
pub fn binding_order(
    conjuncts: &[&Formula],
    bound: &BTreeSet<String>,
    langs: &LangTable,
) -> Vec<Binding> {
    let mut walk = Walk::new(langs);
    let mut events = Vec::new();
    let (_, free) = walk.chain(conjuncts, &Rst::Set(bound.clone()), Some(&mut events));
    let mut seen = bound.clone();
    let mut out = Vec::with_capacity(events.len());
    for (conjunct, fresh) in events {
        let vars: Vec<String> = match fresh {
            Some(set) => set.into_iter().filter(|v| seen.insert(v.clone())).collect(),
            None => free
                .iter()
                .filter(|v| seen.insert((*v).clone()))
                .cloned()
                .collect(),
        };
        if !vars.is_empty() {
            out.push(Binding { conjunct, vars });
        }
    }
    out
}

/// SA011 for every `∃` node of `f` in `unbounded`, in preorder.
fn unbounded_findings(
    f: &Formula,
    path: &FormulaPath,
    unbounded: &HashSet<*const Formula>,
    out: &mut Vec<Finding>,
) {
    if let Formula::Exists(v, _) = f {
        if unbounded.contains(&(f as *const Formula)) {
            out.push(Finding::new(
                Code::QuantifierNotRangeRestricted,
                path.clone(),
                format!(
                    "existentially quantified variable {v} is not range-restricted \
                     in its scope: evaluation must search an unbounded domain"
                ),
            ));
        }
    }
    for (seg, g) in children(f) {
        unbounded_findings(g, &path.child(seg), unbounded, out);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::{Alphabet, Sym};
    use strcalc_automata::Regex;
    use strcalc_logic::Lang;

    fn check(f: &Formula, k: Sym) -> (SafeRangeInfo, Vec<Finding>) {
        let (info, findings, _) = super::check(f, &LangTable::build(f, k));
        (info, findings)
    }

    fn sa010(findings: &[Finding]) -> Vec<&Finding> {
        findings
            .iter()
            .filter(|f| f.code == Code::FreeVarNotRangeRestricted)
            .collect()
    }

    #[test]
    fn relation_restricts_its_variables() {
        let f = Formula::rel("R", vec![Term::var("x"), Term::var("y")]);
        let (info, findings) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
        assert!(sa010(&findings).is_empty());
    }

    #[test]
    fn bare_prefix_leaves_free_var_unrestricted() {
        // x ⪯ y with both free: y unbounded, and so is x.
        let f = Formula::prefix(Term::var("x"), Term::var("y"));
        let (info, _) = check(&f, 2);
        assert_eq!(
            info.unrestricted_free,
            vec!["x".to_string(), "y".to_string()]
        );
    }

    #[test]
    fn prefix_of_database_value_is_restricted() {
        // R(y) ∧ x ⪯ y: conjunction fixpoint carries y's finiteness to x.
        let f = Formula::rel("R", vec![Term::var("y")])
            .and(Formula::prefix(Term::var("x"), Term::var("y")));
        let (info, findings) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty(), "{findings:?}");
    }

    #[test]
    fn fixpoint_handles_order_independence() {
        // The restricting conjunct comes second: x ⪯ y ∧ R(y).
        let f = Formula::prefix(Term::var("x"), Term::var("y"))
            .and(Formula::rel("R", vec![Term::var("y")]));
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn negation_blocks_restriction() {
        let f = Formula::rel("R", vec![Term::var("x")]).not();
        let (info, _) = check(&f, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);
    }

    #[test]
    fn disjunction_intersects() {
        let f = Formula::rel("R", vec![Term::var("x")]).or(Formula::last_sym(Term::var("x"), 0));
        let (info, _) = check(&f, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);

        let g = Formula::rel("R", vec![Term::var("x")]).or(Formula::rel("S", vec![Term::var("x")]));
        let (info, _) = check(&g, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn trim_is_not_injective() {
        // R(trim('a', x)): infinitely many x trim to the same entry.
        let f = Formula::rel("R", vec![Term::var("x").trim_leading(0)]);
        let (info, _) = check(&f, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);
    }

    #[test]
    fn append_chain_is_injective() {
        let f = Formula::rel("R", vec![Term::var("x").append(0).prepend(1)]);
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn finite_language_restricts() {
        let ab = Alphabet::ab();
        let fin = Lang::new(Regex::parse(&ab, "ab|ba").unwrap());
        let f = Formula::in_lang(Term::var("x"), fin);
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());

        let inf = Lang::new(Regex::parse(&ab, "a*").unwrap());
        let g = Formula::in_lang(Term::var("x"), inf);
        let (info, _) = check(&g, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);
    }

    #[test]
    fn prefix_dom_quantifier_does_not_leak_restriction() {
        // ∃y ∈ dom↓. x ⪯ y: y's range includes x itself, so x must NOT
        // be considered restricted (the output contains every string).
        let f = Formula::exists_r(
            Restrict::PrefixDom,
            "y",
            Formula::prefix(Term::var("x"), Term::var("y")),
        );
        let (info, _) = check(&f, 2);
        assert_eq!(info.unrestricted_free, vec!["x".to_string()]);
    }

    #[test]
    fn active_domain_quantifier_restricts() {
        // ∃y ∈ adom. x ⪯ y: adom is finite, so x is a prefix of one of
        // finitely many strings.
        let f = Formula::exists_r(
            Restrict::Active,
            "y",
            Formula::prefix(Term::var("x"), Term::var("y")),
        );
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn unrestricted_exists_gets_sa011() {
        // ∃y. last(y, a) ∧ R(x): y unbounded inside its scope.
        let f = Formula::exists(
            "y",
            Formula::last_sym(Term::var("y"), 0).and(Formula::rel("R", vec![Term::var("x")])),
        );
        let (_, findings) = check(&f, 2);
        let sa011: Vec<_> = findings
            .iter()
            .filter(|f| f.code == Code::QuantifierNotRangeRestricted)
            .collect();
        assert_eq!(sa011.len(), 1);
        assert!(sa011[0].message.contains('y'));
    }

    #[test]
    fn restricted_exists_no_sa011() {
        let f = Formula::exists("y", Formula::rel("R", vec![Term::var("y")]));
        let (_, findings) = check(&f, 2);
        assert!(findings.is_empty());
    }

    #[test]
    fn concat_flows_both_ways() {
        // R(z) ∧ concat(x, y, z): z finite ⇒ finitely many splits.
        let f = Formula::rel("R", vec![Term::var("z")]).and(Formula::concat_eq(
            Term::var("x"),
            Term::var("y"),
            Term::var("z"),
        ));
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());

        // R(x) ∧ R(y) ∧ concat(x, y, z): z = x·y is determined.
        let g = Formula::rel("R", vec![Term::var("x")])
            .and(Formula::rel("R", vec![Term::var("y")]))
            .and(Formula::concat_eq(
                Term::var("x"),
                Term::var("y"),
                Term::var("z"),
            ));
        let (info, _) = check(&g, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn eqlen_flows_both_ways() {
        let f = Formula::rel("R", vec![Term::var("x")])
            .and(Formula::eq_len(Term::var("y"), Term::var("x")));
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }

    #[test]
    fn false_restricts_everything() {
        let f = Formula::prefix(Term::var("x"), Term::var("y")).and(Formula::False);
        let (info, _) = check(&f, 2);
        assert!(info.unrestricted_free.is_empty());
    }
}
