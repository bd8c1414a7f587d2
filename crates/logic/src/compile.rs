//! Compilation of formulas to synchronized automata.
//!
//! This is the exact-evaluation pipeline of the reproduction: a formula
//! over any of the tame structures (`S`, `S_left`, `S_reg`, `S_len`)
//! compiles to a [`SyncNfa`] recognizing exactly its set of satisfying
//! assignments — the classical decidability argument for first-order
//! logic over automatic structures, run as code.
//!
//! Database relations are abstracted behind [`RelResolver`]: the core
//! crate resolves them to the (finite, hence regular) tuple sets of a
//! concrete database; the algebra's `σ_α` selections compile *pure*
//! formulas with [`no_relations`].
//!
//! Concatenation atoms are rejected: the graph of `·` is not a
//! synchronized-regular relation, which is precisely why `RC_concat`
//! falls outside this machinery (Proposition 1 of the paper).

use std::collections::HashMap;
use std::sync::Arc;

use strcalc_alphabet::{Str, Sym};
use strcalc_synchro::nfa::Var;
use strcalc_synchro::{atoms, SyncNfa, SynchroError};

use crate::formula::{Atom, Formula, Restrict, Term};
use crate::transform::{freshen_bound, lower_terms};

/// How a relation atom resolves.
pub enum Resolved {
    /// A finite tuple set (the ordinary database case): the stored rows,
    /// shared. Every row is over the compiler's first `k` symbols; a
    /// resolver drops a stored row holding a symbol `≥ k`, which denotes
    /// nothing.
    Tuples(Vec<Arc<[Str]>>),
    /// An arbitrary synchronized-regular relation, as an automaton whose
    /// tracks (vars `0..arity`) are the relation's components in order.
    /// This is how *virtual* relations — e.g. a query output that may be
    /// infinite — are plugged into a formula (used by the paper's
    /// finiteness sentence for `S_len`, Section 6.1).
    Automaton(SyncNfa),
}

/// Resolves database relation atoms to tuple sets or automata.
pub trait RelResolver {
    /// The contents of relation `name`, or an error if unknown / wrong
    /// arity.
    fn resolve(&self, name: &str, arity: usize) -> Result<Resolved, CompileError>;
}

/// A resolver for pure structure formulas: any relation atom is an error.
pub struct NoRelations;

impl RelResolver for NoRelations {
    fn resolve(&self, name: &str, _arity: usize) -> Result<Resolved, CompileError> {
        Err(CompileError::UnknownRelation(name.to_string()))
    }
}

/// Convenience constructor for [`NoRelations`].
pub fn no_relations() -> NoRelations {
    NoRelations
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A relation atom had no resolution (pure context or unknown name).
    UnknownRelation(String),
    /// A relation atom used a known relation with the wrong number of
    /// arguments: `expected` is the relation's declared arity, `found`
    /// the arity the formula used it with.
    ArityMismatch {
        name: String,
        expected: usize,
        found: usize,
    },
    /// Concatenation is not a synchronized-regular relation (Prop. 1).
    ConcatNotAutomatic,
    /// A restricted quantifier was used without an active domain.
    RestrictedWithoutAdom,
    /// The underlying automata layer failed (track limit, symbol cap…).
    Synchro(SynchroError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            CompileError::ArityMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "relation {name} has arity {expected} but was used with {found} argument(s)"
            ),
            CompileError::ConcatNotAutomatic => write!(
                f,
                "concatenation atoms cannot be compiled to synchronized automata \
                 (RC_concat is computationally complete; see Proposition 1)"
            ),
            CompileError::RestrictedWithoutAdom => write!(
                f,
                "restricted quantifier used but no active domain was supplied"
            ),
            CompileError::Synchro(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<SynchroError> for CompileError {
    fn from(e: SynchroError) -> Self {
        CompileError::Synchro(e)
    }
}

/// Compilation context.
pub struct Compiler<'a> {
    /// Alphabet size.
    pub k: Sym,
    /// Symbol cap for complements (see [`SyncNfa::complement`]).
    pub cap: usize,
    /// Relation resolver.
    pub rels: &'a dyn RelResolver,
    /// Active-domain strings for restricted quantifiers (`∃x ∈ adom`,
    /// `∃x ∈ dom↓`, `∃|x| ≤ adom`). `None` forbids restricted quantifiers.
    pub adom: Option<&'a [Str]>,
    /// Minimize intermediate automata when they exceed this many states.
    pub minimize_threshold: usize,
}

/// The result of compilation: the automaton plus the sorted list of free
/// variable names, matching its track order.
pub struct Compiled {
    pub auto: SyncNfa,
    /// Free variable names in track order (sorted).
    pub var_names: Vec<String>,
}

impl<'a> Compiler<'a> {
    /// A compiler with default settings for pure formulas.
    pub fn pure(k: Sym) -> Compiler<'static> {
        Compiler {
            k,
            cap: 2_000_000,
            rels: &NoRelations,
            adom: None,
            minimize_threshold: 64,
        }
    }

    /// Compiles `f`, returning the automaton over `f`'s free variables.
    pub fn compile(&self, f: &Formula) -> Result<Compiled, CompileError> {
        // Normalize: function terms lowered to relational atoms, bound
        // variables distinct.
        let f = freshen_bound(&lower_terms(f));
        // Intern every variable: free variables first, in sorted order, so
        // the output track order is the sorted free-variable order.
        let mut intern: HashMap<String, Var> = HashMap::new();
        let free: Vec<String> = f.free_vars().into_iter().collect();
        for (i, v) in free.iter().enumerate() {
            intern.insert(v.clone(), i as Var);
        }
        let mut next: Var = free.len() as Var;
        for v in f.all_vars() {
            intern.entry(v).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
        }
        let mut st = State {
            k: self.k,
            cap: self.cap,
            rels: self.rels,
            adom: self.adom,
            minimize_threshold: self.minimize_threshold,
            intern,
            next_aux: next + 1_000,
        };
        let auto = st.go(&f)?;
        // ∃-eliminated unused free variables: the automaton's vars may be
        // a subset of the interned free ids; cylindrify back up so callers
        // always see every free variable as a track.
        let want: Vec<Var> = (0..free.len() as Var).collect();
        let auto = auto.cylindrify(&want)?;
        Ok(Compiled {
            auto,
            var_names: free,
        })
    }
}

struct State<'a> {
    k: Sym,
    cap: usize,
    rels: &'a dyn RelResolver,
    adom: Option<&'a [Str]>,
    minimize_threshold: usize,
    intern: HashMap<String, Var>,
    next_aux: Var,
}

impl<'a> State<'a> {
    fn fresh_aux(&mut self) -> Var {
        let v = self.next_aux;
        self.next_aux += 1;
        v
    }

    fn var_of(&self, name: &str) -> Var {
        *self
            .intern
            .get(name)
            .expect("freshen_bound interned every variable")
    }

    fn maybe_min(&self, a: SyncNfa) -> SyncNfa {
        if a.num_states() > self.minimize_threshold {
            a.minimize()
        } else {
            a
        }
    }

    fn go(&mut self, f: &Formula) -> Result<SyncNfa, CompileError> {
        let out = match f {
            Formula::True => SyncNfa::true_rel(self.k),
            Formula::False => SyncNfa::false_rel(self.k),
            Formula::Atom(a) => self.atom(a)?,
            Formula::Not(g) => {
                let inner = self.go(g)?;
                inner.complement(self.cap)?
            }
            Formula::And(..) => {
                // Flatten the conjunction chain and join greedily,
                // smallest automata first — the classical join-ordering
                // move. Without this, a left-associated `U(x) ∧ U(y) ∧
                // x<y` would materialize the full U×U product before the
                // selective atom gets a chance to prune it.
                let mut conjuncts: Vec<&Formula> = Vec::new();
                fn flatten<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
                    match f {
                        Formula::And(a, b) => {
                            flatten(a, out);
                            flatten(b, out);
                        }
                        other => out.push(other),
                    }
                }
                flatten(f, &mut conjuncts);
                let mut autos: Vec<SyncNfa> = conjuncts
                    .into_iter()
                    .map(|c| self.go(c))
                    .collect::<Result<_, _>>()?;
                while autos.len() > 1 {
                    // Pick the smallest automaton, then its smallest
                    // partner that shares a variable (avoiding cartesian
                    // blow-ups); fall back to the overall smallest.
                    autos.sort_by_key(|a| std::cmp::Reverse(a.num_states()));
                    let x = autos.pop().expect("len > 1");
                    let partner = autos
                        .iter()
                        .rposition(|a| a.vars.iter().any(|v| x.vars.contains(v)))
                        .unwrap_or(autos.len() - 1);
                    let y = autos.remove(partner);
                    let joined = self.maybe_min(x.intersect(&y)?);
                    autos.push(joined);
                }
                autos.pop().expect("nonempty conjunction")
            }
            Formula::Or(a, b) => self.go(a)?.union(&self.go(b)?)?,
            Formula::Implies(a, b) => {
                let na = self.go(a)?.complement(self.cap)?;
                na.union(&self.go(b)?)?
            }
            Formula::Iff(a, b) => {
                let (x, y) = (self.go(a)?, self.go(b)?);
                let pos = x.intersect(&y)?;
                let neg = x
                    .complement(self.cap)?
                    .intersect(&y.complement(self.cap)?)?;
                pos.union(&neg)?
            }
            Formula::Exists(v, g) => {
                let var = self.var_of(v);
                let body = self.go(g)?;
                if body.vars.contains(&var) {
                    body.project(var)?
                } else {
                    body // ∃x φ ≡ φ when x is not free in φ
                }
            }
            Formula::Forall(v, g) => {
                let var = self.var_of(v);
                let body = self.go(g)?;
                if body.vars.contains(&var) {
                    let neg = body.complement(self.cap)?;
                    let ex = neg.project(var)?;
                    ex.complement(self.cap)?
                } else {
                    body
                }
            }
            Formula::ExistsR(r, v, g) => {
                let var = self.var_of(v);
                let body = self.go(g)?;
                let range = self.range_automaton(*r, var, &body)?;
                let restricted = body.intersect(&range)?;
                if restricted.vars.contains(&var) {
                    restricted.project(var)?
                } else {
                    restricted
                }
            }
            Formula::ForallR(r, v, g) => {
                // ∀R x φ ≡ ¬ ∃R x ¬φ.
                let var = self.var_of(v);
                let body = self.go(g)?;
                let neg = body.complement(self.cap)?;
                let range = self.range_automaton(*r, var, &neg)?;
                let restricted = neg.intersect(&range)?;
                let ex = if restricted.vars.contains(&var) {
                    restricted.project(var)?
                } else {
                    restricted
                };
                ex.complement(self.cap)?
            }
        };
        Ok(self.maybe_min(out))
    }

    /// The range of a restricted quantifier as an automaton over `var`
    /// (and possibly the enclosing free variables, for `dom↓` / length
    /// ranges, which mention them).
    fn range_automaton(
        &mut self,
        r: Restrict,
        var: Var,
        body: &SyncNfa,
    ) -> Result<SyncNfa, CompileError> {
        let adom = self.adom.ok_or(CompileError::RestrictedWithoutAdom)?;
        // The "enclosing free variables" are the body's other tracks.
        let scope: Vec<Var> = body.vars.iter().copied().filter(|&w| w != var).collect();
        match r {
            Restrict::Active => Ok(atoms::finite_set(self.k, var, adom.iter())),
            Restrict::PrefixDom => {
                // x ⪯ (some adom string) ∨ x ⪯ (some scope variable).
                let closure = strcalc_alphabet::prefix_closure(adom.iter());
                let strings: Vec<Str> = closure.into_iter().collect();
                let mut range = atoms::finite_set(self.k, var, strings.iter());
                for &w in &scope {
                    range = range.union(&atoms::prefix(self.k, var, w))?;
                }
                Ok(range)
            }
            Restrict::LengthDom => {
                // |x| ≤ max adom length ∨ |x| ≤ |scope var|.
                let max_len = adom.iter().map(Str::len).max();
                let mut range = match max_len {
                    Some(n) => length_at_most(self.k, var, n),
                    None => SyncNfa::empty(self.k, vec![var]),
                };
                for &w in &scope {
                    range = range.union(&atoms::shorter_eq(self.k, var, w))?;
                }
                Ok(range)
            }
        }
    }

    fn atom(&mut self, a: &Atom) -> Result<SyncNfa, CompileError> {
        // Uniform scheme: give every term position a fresh internal track,
        // build the relation over those, then constrain constants and
        // repeated variables, project the auxiliaries, and rename the
        // survivors to the interned variable ids.
        let terms = a.terms();
        let pos_ids: Vec<Var> = terms.iter().map(|_| self.fresh_aux()).collect();

        let mut auto = match a {
            Atom::Rel(name, ts) => match self.rels.resolve(name, ts.len())? {
                Resolved::Tuples(tuples) => {
                    atoms::finite_relation(self.k, pos_ids.clone(), &tuples)
                }
                Resolved::Automaton(nfa) => {
                    // Track i of the virtual relation is component i;
                    // rename onto the (increasing) position ids.
                    debug_assert_eq!(nfa.arity(), ts.len(), "virtual relation arity");
                    nfa.rename(|v| pos_ids[v as usize])?
                }
            },
            Atom::Eq(..) => atoms::eq(self.k, pos_ids[0], pos_ids[1]),
            Atom::Prefix(..) => atoms::prefix(self.k, pos_ids[0], pos_ids[1]),
            Atom::StrictPrefix(..) => atoms::strict_prefix(self.k, pos_ids[0], pos_ids[1]),
            Atom::Cover(..) => atoms::ext_by_one(self.k, pos_ids[0], pos_ids[1]),
            Atom::LastSym(_, s) => atoms::last_sym(self.k, pos_ids[0], *s),
            Atom::FirstSym(_, s) => atoms::first_sym(self.k, pos_ids[0], *s),
            Atom::Prepends(_, _, s) => atoms::prepend_sym(self.k, pos_ids[0], pos_ids[1], *s),
            Atom::EqLen(..) => atoms::el(self.k, pos_ids[0], pos_ids[1]),
            Atom::ShorterEq(..) => atoms::shorter_eq(self.k, pos_ids[0], pos_ids[1]),
            Atom::Shorter(..) => atoms::shorter(self.k, pos_ids[0], pos_ids[1]),
            Atom::LexLeq(..) => atoms::lex_leq(self.k, pos_ids[0], pos_ids[1]),
            Atom::InLang(_, l) => atoms::in_dfa(self.k, pos_ids[0], &l.to_dfa(self.k)),
            Atom::PL(_, _, l) => atoms::p_l(self.k, pos_ids[0], pos_ids[1], &l.to_dfa(self.k)),
            Atom::ConcatEq(..) => return Err(CompileError::ConcatNotAutomatic),
            Atom::InsertAfter(_, _, _, s) => {
                atoms::insert_after(self.k, pos_ids[0], pos_ids[1], pos_ids[2], *s)
            }
        };

        // Constrain constants; remember which positions to project away.
        let mut to_project: Vec<Var> = Vec::new();
        let mut rename_to: HashMap<Var, Var> = HashMap::new();
        let mut seen_vars: HashMap<String, Var> = HashMap::new();
        for (i, t) in terms.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    auto = auto.intersect(&atoms::const_eq(self.k, pos_ids[i], c))?;
                    to_project.push(pos_ids[i]);
                }
                Term::Var(name) => match seen_vars.get(name) {
                    Some(&first) => {
                        auto = auto.intersect(&atoms::eq(self.k, first, pos_ids[i]))?;
                        to_project.push(pos_ids[i]);
                    }
                    None => {
                        seen_vars.insert(name.clone(), pos_ids[i]);
                        rename_to.insert(pos_ids[i], self.var_of(name));
                    }
                },
                other => unreachable!("lower_terms left a functional term: {other:?}"),
            }
        }
        for v in to_project {
            if auto.vars.contains(&v) {
                auto = auto.project(v)?;
            }
        }
        let auto = auto.rename(|v| rename_to.get(&v).copied().unwrap_or(v))?;
        Ok(auto)
    }
}

/// The automaton for `{ x : |x| ≤ n }`.
pub fn length_at_most(k: Sym, var: Var, n: usize) -> SyncNfa {
    let mut a = SyncNfa::empty(k, vec![var]);
    let states: Vec<_> = (0..=n).map(|_| a.add_state(true)).collect();
    a.starts = vec![states[0]];
    for i in 0..n {
        for s in 0..k {
            a.add_edge(
                states[i],
                strcalc_synchro::conv::pack(&[Some(s)]),
                states[i + 1],
            );
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use strcalc_alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn s(t: &str) -> Str {
        ab().parse(t).unwrap()
    }

    fn compile(src: &str) -> Compiled {
        let f = parse_formula(&ab(), src).unwrap();
        Compiler::pure(2).compile(&f).unwrap()
    }

    fn check1(src: &str, n: usize, pred: impl Fn(&Str) -> bool) {
        let c = compile(src);
        assert_eq!(c.var_names.len(), 1, "{src} should have one free var");
        for x in ab().strings_up_to(n) {
            assert_eq!(c.auto.accepts(&[&x]), pred(&x), "{src} on {x}");
        }
    }

    fn check2(src: &str, n: usize, pred: impl Fn(&Str, &Str) -> bool) {
        let c = compile(src);
        assert_eq!(c.var_names.len(), 2, "{src} should have two free vars");
        for x in ab().strings_up_to(n) {
            for y in ab().strings_up_to(n) {
                assert_eq!(
                    c.auto.accepts(&[&x, &y]),
                    pred(&x, &y),
                    "{src} on ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn atoms_with_constants() {
        check1("x = \"ab\"", 3, |x| *x == s("ab"));
        check1("\"a\" <= x", 3, |x| s("a").is_prefix_of(x));
        check1("x <= \"ab\"", 3, |x| x.is_prefix_of(&s("ab")));
    }

    #[test]
    fn repeated_variables() {
        check1("el(x, x)", 3, |_| true);
        check1("x < x", 3, |_| false);
    }

    #[test]
    fn boolean_connectives() {
        check2("x <= y & last(y,'a')", 2, |x, y| {
            x.is_prefix_of(y) && y.last() == Some(0)
        });
        check2("x <= y | el(x, y)", 2, |x, y| {
            x.is_prefix_of(y) || x.len() == y.len()
        });
        check2("!(x <= y)", 2, |x, y| !x.is_prefix_of(y));
        check2("x <= y -> el(x,y)", 2, |x, y| {
            !x.is_prefix_of(y) || x.len() == y.len()
        });
        check2("x <= y <-> y <= x", 2, |x, y| {
            x.is_prefix_of(y) == y.is_prefix_of(x)
        });
    }

    #[test]
    fn quantifiers() {
        // ∃y (x <1 y ∧ L_a(y)): the one-symbol extension by 'a' always
        // exists — all x.
        check1("exists y. (x <1 y & last(y,'a'))", 3, |_| true);
        // ∀y (x ⪯ y → el(x,y)): "every extension has equal length" — only
        // fails when some strict extension exists, i.e. never true… in
        // fact every x has a strict extension, and ⪯ includes x itself
        // (equal length ✓). So: false for all x? No: x ⪯ y includes
        // strict extensions with |y| > |x| → implication fails. So the
        // formula holds for no x.
        check1("forall y. (x <= y -> el(x,y))", 3, |_| false);
        // ∀y (y ⪯ x → y ⪯ x): trivially true.
        check1("forall y. (y <= x -> y <= x)", 3, |_| true);
    }

    #[test]
    fn ends_with_ba_query() {
        // The paper's Section 2 example (ends with "10"), transcribed to
        // {a,b} as "ends with ba".
        let src = "last(x,'a') & exists y. (y <1 x & last(y,'b'))";
        check1(src, 4, |x| {
            let n = x.len();
            n >= 2 && x.syms()[n - 1] == 0 && x.syms()[n - 2] == 1
        });
    }

    #[test]
    fn lowered_function_terms_compile() {
        // append: y = x·a.
        check2("y = append(x, 'a')", 2, |x, y| *y == x.append(0));
        // prepend: y = a·x.
        check2("y = prepend('a', x)", 2, |x, y| *y == x.prepend(0));
        // trim: y = TRIM_a(x).
        check2("y = trim('a', x)", 2, |x, y| *y == x.trim_leading(0));
    }

    #[test]
    fn sentences() {
        let c = compile("exists x. last(x, 'a')");
        assert!(c.auto.is_true());
        let c = compile("exists x. (last(x,'a') & !last(x,'a'))");
        assert!(!c.auto.is_true());
        let c = compile("forall x. exists y. x < y");
        assert!(c.auto.is_true());
        let c = compile("exists y. forall x. x <= y");
        assert!(!c.auto.is_true());
    }

    #[test]
    fn regular_membership_and_pl() {
        check1("in(x, /(aa)*/)", 4, |x| {
            x.len() % 2 == 0 && x.syms().iter().all(|&c| c == 0)
        });
        check2("pl(x, y, /b*/)", 3, |x, y| {
            x.is_prefix_of(y) && y.subtract(x).syms().iter().all(|&c| c == 1)
        });
    }

    #[test]
    fn insert_after_compiles() {
        // The Conclusion extension: y = x with 'a' inserted after p.
        let c = compile("ins(x, p, y, 'a')");
        assert_eq!(c.var_names, vec!["p", "x", "y"]);
        for x in ab().strings_up_to(2) {
            for p in ab().strings_up_to(2) {
                for y in ab().strings_up_to(3) {
                    let expect = x.insert_after(&p, 0) == Some(y.clone());
                    assert_eq!(c.auto.accepts(&[&p, &x, &y]), expect);
                }
            }
        }
        // With p = ε it coincides with prepend.
        check2("ins(x, \"\", y, 'b')", 2, |x, y| *y == x.prepend(1));
    }

    #[test]
    fn concat_rejected() {
        let f = parse_formula(&ab(), "concat(x,y,z)").unwrap();
        match Compiler::pure(2).compile(&f) {
            Err(CompileError::ConcatNotAutomatic) => {}
            other => panic!("expected ConcatNotAutomatic, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn restricted_quantifiers_need_adom() {
        let f = parse_formula(&ab(), "existsA y. y <= x").unwrap();
        assert!(matches!(
            Compiler::pure(2).compile(&f),
            Err(CompileError::RestrictedWithoutAdom)
        ));
    }

    #[test]
    fn restricted_quantifiers_with_adom() {
        let adom = vec![s("ab"), s("b")];
        let compiler = Compiler {
            adom: Some(&adom),
            ..Compiler::pure(2)
        };
        // ∃y ∈ adom: x ⪯ y — x is a prefix of "ab" or "b".
        let f = parse_formula(&ab(), "existsA y. x <= y").unwrap();
        let c = compiler.compile(&f).unwrap();
        for x in ab().strings_up_to(3) {
            let expect = x.is_prefix_of(&s("ab")) || x.is_prefix_of(&s("b"));
            assert_eq!(c.auto.accepts(&[&x]), expect, "on {x}");
        }
        // ∃x ∈ dom↓: ranges over prefix closure (plus scope vars — none
        // here): sentence "some dom↓ string ends in b".
        let f = parse_formula(&ab(), "existsP u. last(u, 'b')").unwrap();
        assert!(compiler.compile(&f).unwrap().auto.is_true());
        // Length-restricted: ∃|u| ≤ adom with |u| = 3 fails (max len 2).
        let f = parse_formula(&ab(), "existsL u. el(u, \"aaa\")").unwrap();
        assert!(!compiler.compile(&f).unwrap().auto.is_true());
        let f = parse_formula(&ab(), "existsL u. el(u, \"aa\")").unwrap();
        assert!(compiler.compile(&f).unwrap().auto.is_true());
    }

    #[test]
    fn unused_free_vars_are_tracked() {
        // "y" never constrained: still a track in the output.
        let f = parse_formula(&ab(), "last(x,'a') & y = y").unwrap();
        let c = Compiler::pure(2).compile(&f).unwrap();
        assert_eq!(c.var_names, vec!["x".to_string(), "y".to_string()]);
        assert!(c.auto.accepts(&[&s("a"), &s("bbb")]));
        assert!(!c.auto.accepts(&[&s("b"), &s("")]));
    }

    #[test]
    fn length_at_most_automaton() {
        let a = length_at_most(2, 0, 2);
        for x in ab().strings_up_to(4) {
            assert_eq!(a.accepts(&[&x]), x.len() <= 2);
        }
    }
}
