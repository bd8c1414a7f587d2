//! The relational route: generator-driven evaluation of safe-range
//! formulas.
//!
//! Theorems 3–4 of the paper say that safe-range `RC(S)` and `RA(S)`
//! express the same queries, and Theorem 1 / Proposition 2 confine every
//! quantifier to values derived from the active domain. So a formula in
//! which every variable — free or quantified — is range-restricted needs
//! neither a synchronized product automaton nor a search over `Σ*`: each
//! variable takes its values from the atom that range-restricts it, and
//! everything else is a test on values already bound.
//!
//! [`Program::lower`] compiles such a formula. It asks
//! [`strcalc_analyze::saferange::binding_order`] — the same `∧`-chain
//! fixpoint the SA010 verdicts come from — which conjunct restricts each
//! variable first, and turns that order into nested loops:
//!
//! | generator atom (bound → generated) | values |
//! |---|---|
//! | `R(t̄)` | the stored rows, probed through a hash index on the bound columns |
//! | `t₁ = t₂` | the other side's value |
//! | `x ⪯ y`, `x ≺ y`, `pl(x, y, L)` (`y` bound) | the prefixes of `y` |
//! | `x <1 y` | `y` minus its last symbol, or `x·a` for each `a ∈ Σ` |
//! | `fa(x, y, a)` | `a·x`, or `y` minus its leading `a` |
//! | `el(x, y)` | `Σ^{\|y\|}` (or `Σ^{\|x\|}`) |
//! | `shorteq(x, y)`, `shorter(x, y)` (`y` bound) | `Σ^{≤\|y\|}`, `Σ^{<\|y\|}` |
//! | `pl(x, y, L)` (`x` bound, `L` finite) | `x·w` for `w ∈ L` |
//! | `in(t, L)` (`L` finite) | the words of `L`, enumerated lazily |
//! | `ins(x, p, y, a)` | the insertion (deletion) points of the bound side |
//! | `concat(x, y, z)` (`x`, `y` bound; under a domain) | the computed `z = x·y` |
//! | `concat(x, y, z)` (`z` bound; under a domain) | the `\|z\|+1` splits, or the remainder of `z` after a bound prefix `x` (before a bound suffix `y`) |
//! | `Domain` step (under a domain) | the run's [`Domain`]: `Σ^{≤B}` or the collapse domain, for a variable nothing else generates |
//! | range step of `∃v∈adom`, `∃v∈dom↓`, `∃\|v\|≤adom` (under a domain) | `adom`; the prefix closure of `adom` and of the quantified formula's other free variables; `Σ^{≤m}`, `m` the longest of those strings |
//!
//! Which languages are finite comes from the [`LangTable`] of the
//! query's fact sheet, the table the analyzer's range-restriction
//! verdicts read, so the route and the SA010 verdicts cannot disagree;
//! planning never compiles a language again and never enumerates one.
//!
//! A generated value passes through the term's injective `append` /
//! `prepend` chain backwards to reach its variable. The conjunct is then
//! tested as a whole, so generators may over-approximate; a relation
//! atom with a `trim` column is tested after its row binds. Every other
//! conjunct — `¬ψ`, `∀`, `last`/`first`, `lex`, infinite languages — is a
//! filter, placed as soon as its variables are bound. `∃` projects, `∨`
//! unions, and `∀x ψ` is `¬∃x ¬ψ` with the negation pushed inwards so
//! that `x` finds its generator. A formula whose lowering leaves some
//! variable without a generator (for instance `R(x) ∧ ∃y ¬(x ⪯ y)`) is
//! refused, and the planner keeps it on the automata route.
//!
//! **Under a domain** — `Σ^{≤B}` for bounded search, the collapse domain
//! for the collapse route and the automata route's SA401/SA413
//! fallbacks — [`Program::lower`] never refuses. `concat` lowers with
//! the generators of `saferange::confined_terms`' rules, and a variable
//! that the binding order leaves unbound, or that a shape cannot
//! generate (`¬`, `∀`, an uneven `∨`, a restricted quantifier), takes
//! its values from a `Domain` step. A restricted quantifier binds its
//! variable from its range, and every other value is tested for domain
//! membership when it is bound: the answer is the naive evaluator's,
//! every head and unrestricted variable ranging over the domain.
//!
//! Stored strings outside the alphabet follow the scan executors'
//! convention: a row holding one denotes nothing, so generators skip it
//! and the active domain leaves it out.
//!
//! The executor polls the run's deadline once before it starts and then
//! every [`CHECKPOINT_EVERY`] bindings; an expiry unwinds with the tuples
//! completed so far, each of them fully verified.

// Panic audit: this module sits on the default execution path of every
// safe-range query, so it is unwrap-free.
#![deny(clippy::unwrap_used)]

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use strcalc_alphabet::{Alphabet, Str, StringsExactly, StringsUpTo, Sym};
use strcalc_analyze::cost;
use strcalc_analyze::fragments::flatten_and;
use strcalc_analyze::langs::LangTable;
use strcalc_analyze::saferange::{binding_order, confined_terms};
use strcalc_automata::{Dfa, StateId};
use strcalc_logic::transform::nnf;
use strcalc_logic::{Atom, CompileError, Formula, Lang, Restrict, Term};
use strcalc_relational::{Database, Relation, Row};

use crate::clock::Deadline;
use crate::plan::{restrict_name, PlanNode, PlanOp};
use crate::query::CoreError;

/// Bindings between two deadline polls.
const CHECKPOINT_EVERY: u64 = 4096;

/// Index of a variable's value in the environment. Every binder gets a
/// slot of its own, so shadowing needs no bookkeeping at run time.
type Slot = usize;

/// A bound value: borrowed from a stored row or the domain, or
/// generated.
type Val<'db> = Cow<'db, Str>;

/// The finite set of strings a run binds values from: every head and
/// unrestricted variable takes a member, and a `Domain` step walks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Domain {
    /// `Σ^{≤n}`; `usize::MAX` stands for `Σ*` (the relational route).
    UpTo(usize),
    /// An explicit set of strings, sorted.
    Set(Vec<Str>),
}

impl Domain {
    /// Whether `w` is a member. On `Σ^{≤n}` one length compare.
    #[inline]
    pub fn contains(&self, w: &Str) -> bool {
        match self {
            Domain::UpTo(n) => w.len() <= *n,
            Domain::Set(set) => set.binary_search(w).is_ok(),
        }
    }

    /// The number of strings over `alphabet`.
    pub fn size(&self, alphabet: &Alphabet) -> usize {
        match self {
            Domain::UpTo(n) => alphabet.count_up_to(*n),
            Domain::Set(set) => set.len(),
        }
    }

    /// The strings over `alphabet`, in order.
    pub fn strings(&self, alphabet: &Alphabet) -> Vec<Str> {
        match self {
            Domain::UpTo(n) => alphabet.strings_up_to(*n).collect(),
            Domain::Set(set) => set.clone(),
        }
    }
}

/// `Σ*`, the relational route's domain.
pub(crate) const SIGMA_STAR: Domain = Domain::UpTo(usize::MAX);

/// What planning knows of a program's [`Domain`]: the plan labels its
/// `Domain` steps with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DomainKind {
    /// `Σ^{≤B}`: bounded search.
    UpTo(usize),
    /// The query's collapse domain, built from the database at run time.
    Collapse,
}

/// A term over slots.
#[derive(Debug)]
enum CTerm {
    Var(Slot),
    Const(Str),
    Append(Box<CTerm>, Sym),
    Prepend(Sym, Box<CTerm>),
    Trim(Sym, Box<CTerm>),
}

impl CTerm {
    /// The term's value, or `None` while one of its variables is unbound.
    /// A variable or constant is borrowed, not copied.
    fn eval<'a>(&'a self, env: &'a [Option<Val<'_>>]) -> Option<Cow<'a, Str>> {
        Some(match self {
            CTerm::Var(s) => Cow::Borrowed(env[*s].as_deref()?),
            CTerm::Const(c) => Cow::Borrowed(c),
            CTerm::Append(t, a) => Cow::Owned(t.eval(env)?.append(*a)),
            CTerm::Prepend(a, t) => Cow::Owned(t.eval(env)?.prepend(*a)),
            CTerm::Trim(a, t) => Cow::Owned(t.eval(env)?.trim_leading(*a)),
        })
    }

    /// The variable of an injective `append`/`prepend` chain.
    fn chain_var(&self) -> Option<Slot> {
        match self {
            CTerm::Var(s) => Some(*s),
            CTerm::Append(t, _) | CTerm::Prepend(_, t) => t.chain_var(),
            CTerm::Const(_) | CTerm::Trim(..) => None,
        }
    }

    /// The value of the chain's variable for which the term evaluates to
    /// `w`, if there is one.
    fn invert(&self, w: &[Sym]) -> Option<Str> {
        match self {
            CTerm::Var(_) => Some(Str::from_syms(w.to_vec())),
            CTerm::Append(t, a) => match w.split_last() {
                Some((last, rest)) if last == a => t.invert(rest),
                _ => None,
            },
            CTerm::Prepend(a, t) => match w.split_first() {
                Some((first, rest)) if first == a => t.invert(rest),
                _ => None,
            },
            CTerm::Const(_) | CTerm::Trim(..) => None,
        }
    }
}

/// The relation an atom tests, with the positions it reads.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Rel(usize),
    Eq,
    Prefix,
    StrictPrefix,
    Cover,
    LastSym(Sym),
    FirstSym(Sym),
    Prepends(Sym),
    EqLen,
    ShorterEq,
    Shorter,
    LexLeq,
    InLang(usize),
    PL(usize),
    Insert(Sym),
    Concat,
}

/// A compiled atom.
#[derive(Debug)]
struct CAtom {
    kind: Kind,
    terms: Vec<CTerm>,
}

/// One language of the program: its DFA, and for a finite language the
/// trimmed (hence acyclic) DFA its words are enumerated from.
#[derive(Debug)]
struct LangEntry {
    dfa: Dfa,
    words: Option<Dfa>,
}

/// An executable node.
#[derive(Debug)]
enum Node {
    /// A flattened `∧` chain in binding order.
    Chain(Vec<Step>),
    /// `∨`: both sides bind the same variables.
    Union(Box<Node>, Box<Node>),
    /// `∃`: the body binds `slot` too; it is projected away.
    Project {
        slot: Slot,
        body: Box<Node>,
    },
    /// `¬` over bound variables.
    Complement(Box<Node>),
    /// An atom over bound variables.
    Test(CAtom),
    True,
    False,
}

/// One step of a chain.
#[derive(Debug)]
enum Step {
    /// Binds `slots` from the values `atom` generates at positions
    /// `positions`; for a relation atom, `key` lists the bound columns
    /// the hash index `index` is built on. `check`: every binding the
    /// step passes on satisfies the atom. A value generator tests the
    /// atom once every variable of it is bound; a row match is exact
    /// when every column is a key or a generated chain. Otherwise the
    /// atom stays in the chain as a filter.
    Generate {
        atom: CAtom,
        positions: Vec<usize>,
        slots: Vec<Slot>,
        key: Vec<usize>,
        index: usize,
        check: bool,
    },
    /// Binds `slots` from the distinct tuples a subformula yields.
    Sub { node: Node, slots: Vec<Slot> },
    /// Binds `slot` to each string of the run's domain, for a variable
    /// nothing generates.
    Domain(Slot),
    /// Binds `slot` to each value of a restricted quantifier's range;
    /// `scope` holds the quantified formula's other free variables.
    Range {
        slot: Slot,
        restrict: Restrict,
        scope: Vec<Slot>,
    },
    /// A test over bound variables.
    Filter(Node),
}

/// A safe-range formula compiled for the relational route.
#[derive(Debug)]
pub(crate) struct Program {
    root: Node,
    /// The head variables' slots, in head order.
    head: Vec<Slot>,
    slots: usize,
    /// The relations the formula names, with the arity it uses.
    relations: Vec<(String, usize)>,
    langs: Vec<LangEntry>,
    /// Relation generators, each with its own hash index.
    indexes: usize,
    k: Sym,
}

/// The outcome of one run.
pub(crate) struct Outcome {
    pub(crate) answer: Relation,
    /// Candidate bindings the generators produced.
    pub(crate) bindings: u64,
    /// Whether the deadline cut the run short.
    pub(crate) truncated: bool,
}

impl Program {
    /// Compiles `f` with head `head` for the relational route, together
    /// with the plan tree that describes it (the caller adds the root),
    /// reading finiteness and DFAs from `table`, the language table of
    /// the query's fact sheet. `None` when some variable has no
    /// generator. Without an alphabet
    /// the tree's labels stay empty, which is enough to decide the route.
    ///
    /// `domain: Some(_)` compiles for a run over a finite [`Domain`]
    /// instead: `concat` atoms and restricted quantifiers lower, and a
    /// variable without a generator takes its values from a `Domain`
    /// step. The lowering then always succeeds.
    pub(crate) fn lower(
        f: &Formula,
        head: &[String],
        table: &LangTable,
        alphabet: Option<&Alphabet>,
        domain: Option<DomainKind>,
    ) -> Option<(Program, PlanNode)> {
        let mut lower = Lower {
            alphabet,
            domain,
            table,
            scope: Vec::new(),
            slots: 0,
            relations: Vec::new(),
            langs: Vec::new(),
            lang_ids: HashMap::new(),
            indexes: 0,
        };
        let head_slots: Vec<Slot> = head.iter().map(|h| lower.push(h)).collect();
        let (root, tree) = lower.gen(f, &BTreeSet::new())?;
        Some((
            Program {
                root,
                head: head_slots,
                slots: lower.slots,
                relations: lower.relations,
                langs: lower.langs,
                indexes: lower.indexes,
                k: table.k(),
            },
            tree,
        ))
    }

    /// [`Program::lower`] under a domain, which takes every formula: a
    /// refusal there is a lowering bug, reported as an error.
    pub(crate) fn lower_over(
        f: &Formula,
        head: &[String],
        table: &LangTable,
        alphabet: Option<&Alphabet>,
        domain: DomainKind,
    ) -> Result<(Program, PlanNode), CoreError> {
        Program::lower(f, head, table, alphabet, Some(domain)).ok_or_else(|| {
            CoreError::Unsupported("the lowering over a finite domain refused the formula".into())
        })
    }

    /// Runs the program against `db` under `deadline`. Every variable
    /// but a restricted quantifier's takes a member of `domain`, and a
    /// `Domain` step walks it; the relational route passes `Σ*`.
    pub(crate) fn run<'db>(
        &self,
        db: &'db Database,
        deadline: &Deadline,
        domain: &'db Domain,
    ) -> Result<Outcome, CoreError> {
        let mut rels = Vec::with_capacity(self.relations.len());
        for (name, arity) in &self.relations {
            let rel = db
                .relation(name)
                .ok_or_else(|| CoreError::Compile(CompileError::UnknownRelation(name.clone())))?;
            if rel.arity() != *arity {
                return Err(CoreError::Compile(CompileError::ArityMismatch {
                    name: name.clone(),
                    expected: rel.arity(),
                    found: *arity,
                }));
            }
            rels.push(rel);
        }
        let mut ex = Exec {
            prog: self,
            db,
            rows: vec![None; rels.len()],
            rels,
            indexes: vec![None; self.indexes],
            env: vec![None; self.slots],
            domain,
            adom: None,
            bindings: 0,
            deadline,
        };
        let boolean = self.head.is_empty();
        let mut tuples: HashSet<Row> = HashSet::new();
        let head = &self.head;
        let truncated = deadline.checkpoint()
            || ex
                .run(&self.root, &mut |ex| {
                    tuples.insert(head.iter().map(|&s| ex.value(s)).collect());
                    Ok(if boolean { Flow::Stop } else { Flow::Go })
                })
                .is_err();
        Ok(Outcome {
            answer: Relation::from_tuples(head.len(), tuples),
            bindings: ex.bindings,
            truncated,
        })
    }

    /// The words of finite language `l`, one at a time (none for an
    /// infinite one, which never generates).
    fn words(&self, l: usize) -> Words<'_> {
        Words::new(self.langs[l].words.as_ref())
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

struct Lower<'a> {
    alphabet: Option<&'a Alphabet>,
    /// The domain a run walks, which lowers `concat` and restricted
    /// quantifiers; `None` on the relational route.
    domain: Option<DomainKind>,
    /// Finiteness and DFA of each `in`/`pl` language of the formula.
    table: &'a LangTable,
    /// Variable name → slot, innermost binder last.
    scope: Vec<(String, Slot)>,
    slots: usize,
    relations: Vec<(String, usize)>,
    langs: Vec<LangEntry>,
    lang_ids: HashMap<Lang, usize>,
    indexes: usize,
}

type Lowered = Option<(Node, PlanNode)>;

/// A chain under construction: its steps and plan children so far, and
/// which conjuncts have been placed.
struct Chain {
    steps: Vec<Step>,
    trees: Vec<PlanNode>,
    placed: Vec<bool>,
}

impl Chain {
    /// An empty chain over `n` conjuncts.
    fn new(n: usize) -> Chain {
        Chain {
            steps: Vec::new(),
            trees: Vec::new(),
            placed: vec![false; n],
        }
    }
}

impl Lower<'_> {
    fn push(&mut self, name: &str) -> Slot {
        let slot = self.slots;
        self.slots += 1;
        self.scope.push((name.to_string(), slot));
        slot
    }

    fn slot(&self, name: &str) -> Option<Slot> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    /// The program's id for `l`, taking its DFA from the table.
    fn lang(&mut self, l: &Lang) -> Option<usize> {
        if let Some(&id) = self.lang_ids.get(l) {
            return Some(id);
        }
        let dfa = self.table.dfa(l)?.clone();
        let words = self.table.finite(l).then(|| dfa.trim());
        let id = self.langs.len();
        self.langs.push(LangEntry { dfa, words });
        self.lang_ids.insert(l.clone(), id);
        Some(id)
    }

    fn term(&self, t: &Term) -> Option<CTerm> {
        Some(match t {
            Term::Var(v) => CTerm::Var(self.slot(v)?),
            Term::Const(c) => CTerm::Const(c.clone()),
            Term::Append(t, a) => CTerm::Append(Box::new(self.term(t)?), *a),
            Term::Prepend(a, t) => CTerm::Prepend(*a, Box::new(self.term(t)?)),
            Term::TrimLeading(a, t) => CTerm::Trim(*a, Box::new(self.term(t)?)),
        })
    }

    fn atom(&mut self, a: &Atom) -> Option<CAtom> {
        let kind = match a {
            Atom::Rel(name, ts) => {
                let id = match self
                    .relations
                    .iter()
                    .position(|(n, ar)| n == name && *ar == ts.len())
                {
                    Some(id) => id,
                    None => {
                        self.relations.push((name.clone(), ts.len()));
                        self.relations.len() - 1
                    }
                };
                Kind::Rel(id)
            }
            Atom::Eq(..) => Kind::Eq,
            Atom::Prefix(..) => Kind::Prefix,
            Atom::StrictPrefix(..) => Kind::StrictPrefix,
            Atom::Cover(..) => Kind::Cover,
            Atom::LastSym(_, s) => Kind::LastSym(*s),
            Atom::FirstSym(_, s) => Kind::FirstSym(*s),
            Atom::Prepends(_, _, s) => Kind::Prepends(*s),
            Atom::EqLen(..) => Kind::EqLen,
            Atom::ShorterEq(..) => Kind::ShorterEq,
            Atom::Shorter(..) => Kind::Shorter,
            Atom::LexLeq(..) => Kind::LexLeq,
            Atom::InLang(_, l) => Kind::InLang(self.lang(l)?),
            Atom::PL(_, _, l) => Kind::PL(self.lang(l)?),
            Atom::InsertAfter(_, _, _, s) => Kind::Insert(*s),
            // Concatenation lowers only under a domain: the exact route
            // has no answer to give (Proposition 1).
            Atom::ConcatEq(..) if self.domain.is_some() => Kind::Concat,
            Atom::ConcatEq(..) => return None,
        };
        let terms = a
            .terms()
            .into_iter()
            .map(|t| self.term(t))
            .collect::<Option<Vec<_>>>()?;
        Some(CAtom { kind, terms })
    }

    fn render(&self, f: &Formula) -> String {
        self.alphabet.map(|a| f.render(a)).unwrap_or_default()
    }

    fn plan(
        &self,
        op: PlanOp,
        f: &Formula,
        vars: Vec<String>,
        children: Vec<PlanNode>,
    ) -> PlanNode {
        PlanNode::new(op, cost::estimate(f, self.table), vars, children)
    }

    /// An `Interpret` leaf testing `f`.
    fn leaf(&self, f: &Formula) -> PlanNode {
        let vars = f.free_vars().into_iter().collect();
        self.plan(
            PlanOp::Interpret {
                label: self.render(f),
            },
            f,
            vars,
            Vec::new(),
        )
    }

    /// An interior plan node whose tracks derive from its children.
    fn interior(&self, op: PlanOp, f: &Formula, children: Vec<PlanNode>) -> PlanNode {
        let mut vars: BTreeSet<String> = children.iter().flat_map(|c| c.vars.clone()).collect();
        if let PlanOp::Project { var } | PlanOp::RestrictQuantifiers { var: Some(var), .. } = &op {
            vars.remove(var);
        }
        self.plan(op, f, vars.into_iter().collect(), children)
    }

    /// A flat `Product` node over `children` (see [`PlanNode::product`]).
    fn product(&self, f: &Formula, children: Vec<PlanNode>) -> PlanNode {
        let node = self.interior(PlanOp::Product, f, children);
        PlanNode::product(node.cost, node.vars, node.children)
    }

    /// `f` with the variables in `bound` given: a generator of every
    /// other free variable, or a test when there is none.
    fn gen(&mut self, f: &Formula, bound: &BTreeSet<String>) -> Lowered {
        let unbound: BTreeSet<String> = f
            .free_vars()
            .into_iter()
            .filter(|v| !bound.contains(v))
            .collect();
        if unbound.is_empty() {
            return self.test(f, bound);
        }
        let side = |g: &Formula| -> BTreeSet<String> {
            g.free_vars()
                .into_iter()
                .filter(|v| !bound.contains(v))
                .collect()
        };
        match f {
            Formula::And(..) | Formula::Atom(_) => self.chain(f, bound),
            Formula::Or(a, b) if side(a) == unbound && side(b) == unbound => {
                self.union(f, a, b, bound)
            }
            Formula::Exists(v, g) => self.project(f, v, g, bound),
            // A shape that generates nothing (`¬`, `∀`, an uneven `∨`,
            // a restricted quantifier): under a domain its free
            // variables range over the domain and it runs as a test.
            _ if self.domain.is_some() => {
                let mut chain = Chain::new(0);
                for v in &unbound {
                    self.domain(v, &mut chain)?;
                }
                let all: BTreeSet<String> = bound.union(&unbound).cloned().collect();
                let (node, tree) = self.test(f, &all)?;
                chain.steps.push(Step::Filter(node));
                chain.trees.push(tree);
                Some(self.finish(f, chain))
            }
            _ => None,
        }
    }

    /// `f` with every free variable bound: a test. Each case lowers in a
    /// function of its own: the recursion passes through this dispatch,
    /// so its frame stays small at the nesting cap.
    fn test(&mut self, f: &Formula, bound: &BTreeSet<String>) -> Lowered {
        match f {
            Formula::True => Some((Node::True, self.leaf(f))),
            Formula::False => Some((Node::False, self.leaf(f))),
            Formula::Atom(a) => Some((Node::Test(self.atom(a)?), self.leaf(f))),
            Formula::And(..) => self.chain(f, bound),
            Formula::Or(a, b) => self.union(f, a, b, bound),
            Formula::Not(g) => self.complement(f, g, bound),
            // a → b ≡ ¬a ∨ b.
            Formula::Implies(a, b) => self.union(f, &a.as_ref().clone().not(), b, bound),
            // a ↔ b ≡ (a ∧ b) ∨ (¬a ∧ ¬b).
            Formula::Iff(a, b) => self.union(
                f,
                &a.as_ref().clone().and(b.as_ref().clone()),
                &a.as_ref().clone().not().and(b.as_ref().clone().not()),
                bound,
            ),
            Formula::Exists(v, g) => self.project(f, v, g, bound),
            // ∀v g ≡ ¬∃v ¬g, the inner negation pushed inwards so that
            // `v` can find its generator: ∀v (R(v) → ψ) ≡ ¬∃v (R(v) ∧ ¬ψ).
            Formula::Forall(v, g) => {
                let inner = nnf(&g.as_ref().clone().not());
                self.complement(f, &Formula::exists(v.clone(), inner), bound)
            }
            // A restricted quantifier binds its variable from its range,
            // which only a run over a domain computes; ∀v∈r g ≡ ¬∃v∈r ¬g.
            Formula::ExistsR(r, v, g) if self.domain.is_some() => self.range(f, *r, v, g, bound),
            Formula::ForallR(r, v, g) if self.domain.is_some() => {
                let exists = Formula::exists_r(*r, v.clone(), g.as_ref().clone().not());
                self.complement(f, &exists, bound)
            }
            Formula::ExistsR(..) | Formula::ForallR(..) => None,
        }
    }

    /// `∃v∈r g` with its free variables bound: a range step binding `v`,
    /// then `g` as a test.
    fn range(
        &mut self,
        f: &Formula,
        restrict: Restrict,
        v: &str,
        g: &Formula,
        bound: &BTreeSet<String>,
    ) -> Lowered {
        let scope = g
            .free_vars()
            .iter()
            .filter(|w| *w != v)
            .map(|w| self.slot(w))
            .collect::<Option<Vec<_>>>()?;
        let mut inner = bound.clone();
        inner.insert(v.to_string());
        let slot = self.push(v);
        let body = self.test(g, &inner);
        self.scope.pop();
        let (body, tree) = body?;
        let leaf = self.source_leaf(v, restrict_name(restrict).to_string());
        let product = self.product(f, vec![leaf, tree]);
        let var = Some(v.to_string());
        let tree = self.interior(
            PlanOp::RestrictQuantifiers { var, restrict },
            f,
            vec![product],
        );
        let steps = vec![
            Step::Range {
                slot,
                restrict,
                scope,
            },
            Step::Filter(body),
        ];
        let body = Box::new(Node::Chain(steps));
        Some((Node::Project { slot, body }, tree))
    }

    fn complement(&mut self, f: &Formula, g: &Formula, bound: &BTreeSet<String>) -> Lowered {
        let (node, tree) = self.test(g, bound)?;
        let tree = self.interior(PlanOp::Complement, f, vec![tree]);
        Some((Node::Complement(Box::new(node)), tree))
    }

    fn union(
        &mut self,
        f: &Formula,
        a: &Formula,
        b: &Formula,
        bound: &BTreeSet<String>,
    ) -> Lowered {
        let (na, ta) = self.gen(a, bound)?;
        let (nb, tb) = self.gen(b, bound)?;
        let tree = self.interior(PlanOp::Union, f, vec![ta, tb]);
        Some((Node::Union(Box::new(na), Box::new(nb)), tree))
    }

    /// `∃v g`: the body must generate `v` along with the node's own
    /// unbound variables.
    fn project(&mut self, f: &Formula, v: &str, g: &Formula, bound: &BTreeSet<String>) -> Lowered {
        if !g.free_vars().contains(v) {
            return self.gen(g, bound);
        }
        let mut inner = bound.clone();
        inner.remove(v);
        let slot = self.push(v);
        let body = self.gen(g, &inner);
        self.scope.pop();
        let (body, tree) = body?;
        let tree = self.interior(PlanOp::Project { var: v.to_string() }, f, vec![tree]);
        Some((
            Node::Project {
                slot,
                body: Box::new(body),
            },
            tree,
        ))
    }

    /// A flattened `∧` chain, in the binding order `saferange` derives.
    /// Under a domain, a variable the order leaves unbound takes
    /// its values from the domain, and the order is derived again: the
    /// new value may let a conjunct generate another variable.
    fn chain(&mut self, f: &Formula, bound: &BTreeSet<String>) -> Lowered {
        let mut conjuncts = Vec::new();
        flatten_and(f, &mut conjuncts);
        let mut order = binding_order(&conjuncts, bound, self.table).into_iter();
        let mut have = bound.clone();
        let mut chain = Chain::new(conjuncts.len());
        self.filters(&conjuncts, &have, &mut chain)?;
        loop {
            // Set when a subformula binds more than the order foresaw.
            let mut stale = false;
            for b in order.by_ref() {
                let vars: Vec<String> = b.vars.into_iter().filter(|v| !have.contains(v)).collect();
                if vars.is_empty() {
                    continue;
                }
                let fresh =
                    self.bind(conjuncts[b.conjunct], b.conjunct, &vars, &have, &mut chain)?;
                stale = fresh.len() > vars.len();
                have.extend(fresh);
                self.filters(&conjuncts, &have, &mut chain)?;
                if stale {
                    break;
                }
            }
            if !stale {
                if self.domain.is_none() {
                    break;
                }
                let Some(v) = f.free_vars().into_iter().find(|v| !have.contains(v)) else {
                    break;
                };
                self.domain(&v, &mut chain)?;
                have.insert(v);
                self.filters(&conjuncts, &have, &mut chain)?;
            }
            order = binding_order(&conjuncts, &have, self.table).into_iter();
        }
        if chain.placed.iter().any(|p| !p) {
            return None;
        }
        Some(self.finish(f, chain))
    }

    /// The node and plan tree of a completed chain.
    fn finish(&self, f: &Formula, mut chain: Chain) -> (Node, PlanNode) {
        let tree = match chain.trees.len() {
            1 => chain.trees.remove(0),
            _ => self.product(f, chain.trees),
        };
        (Node::Chain(chain.steps), tree)
    }

    /// A `Domain` step binding `v` to each string of the run's domain.
    fn domain(&self, v: &str, chain: &mut Chain) -> Option<()> {
        let label = match self.domain? {
            DomainKind::UpTo(bound) => format!("Σ^≤{bound}"),
            DomainKind::Collapse => "collapse domain".to_string(),
        };
        chain.steps.push(Step::Domain(self.slot(v)?));
        chain.trees.push(self.source_leaf(v, label));
        Some(())
    }

    /// The `Generate` leaf of a step that binds `v` from `label`, a set
    /// of strings rather than an atom.
    fn source_leaf(&self, v: &str, label: String) -> PlanNode {
        let var = v.to_string();
        self.plan(
            PlanOp::Generate {
                var: var.clone(),
                label,
            },
            &Formula::True,
            vec![var],
            Vec::new(),
        )
    }

    /// The step binding `vars` from conjunct `c` (the `i`-th), given
    /// `have`. Returns the variables it binds: `vars`, and under a
    /// domain every other unbound variable of a compound conjunct, which
    /// its lowering binds from the domain.
    fn bind(
        &mut self,
        c: &Formula,
        i: usize,
        vars: &[String],
        have: &BTreeSet<String>,
        chain: &mut Chain,
    ) -> Option<Vec<String>> {
        let free = c.free_vars();
        if !vars.iter().all(|v| free.contains(v)) {
            // An unsatisfiable conjunct confines every variable
            // vacuously: the chain yields nothing.
            chain.steps.push(Step::Filter(Node::False));
            for v in vars {
                chain.trees.push(self.generate_leaf(v, c));
            }
            chain.placed[i] = true;
        } else if let Formula::Atom(a) = c {
            let step = self.generate(a, have, vars)?;
            for v in vars {
                chain.trees.push(self.generate_leaf(v, c));
            }
            if let Step::Generate { check: true, .. } = step {
                chain.placed[i] = true;
            }
            chain.steps.push(step);
        } else {
            let (node, tree) = self.gen(c, have)?;
            let fresh: Vec<String> = free.into_iter().filter(|v| !have.contains(v)).collect();
            let slots = fresh
                .iter()
                .map(|v| self.slot(v))
                .collect::<Option<Vec<_>>>()?;
            chain.steps.push(Step::Sub { node, slots });
            chain.trees.push(tree);
            chain.placed[i] = true;
            return Some(fresh);
        }
        Some(vars.to_vec())
    }

    /// Places every conjunct whose variables are all bound as a filter:
    /// atoms first, since they cost one test each, then the compound
    /// filters, which run nested loops of their own.
    fn filters(
        &mut self,
        conjuncts: &[&Formula],
        have: &BTreeSet<String>,
        chain: &mut Chain,
    ) -> Option<()> {
        let atoms_first = conjuncts
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, Formula::Atom(_)))
            .chain(
                conjuncts
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !matches!(c, Formula::Atom(_))),
            );
        for (i, c) in atoms_first {
            if !chain.placed[i] && c.free_vars().iter().all(|v| have.contains(v)) {
                let (node, tree) = self.test(c, have)?;
                chain.steps.push(Step::Filter(node));
                chain.trees.push(tree);
                chain.placed[i] = true;
            }
        }
        Some(())
    }

    fn generate_leaf(&self, var: &str, c: &Formula) -> PlanNode {
        self.plan(
            PlanOp::Generate {
                var: var.to_string(),
                label: self.render(c),
            },
            c,
            vec![var.to_string()],
            Vec::new(),
        )
    }

    /// The generator step binding `vars` from atom `a`, given `have`.
    fn generate(&mut self, a: &Atom, have: &BTreeSet<String>, vars: &[String]) -> Option<Step> {
        let atom = self.atom(a)?;
        let evaluable: Vec<bool> = a
            .terms()
            .iter()
            .map(|t| {
                let mut vs = BTreeSet::new();
                t.free_vars_into(&mut vs);
                vs.iter().all(|v| have.contains(v))
            })
            .collect();
        let mut positions: Vec<usize> = confined_terms(a, &|i| evaluable[i], self.table)
            .into_iter()
            .filter(|&i| !evaluable[i] && atom.terms[i].chain_var().is_some())
            .collect();
        positions.sort_unstable();
        positions.dedup();
        let slots: BTreeSet<Slot> = positions
            .iter()
            .filter_map(|&i| atom.terms[i].chain_var())
            .collect();
        let wanted = vars
            .iter()
            .map(|v| self.slot(v))
            .collect::<Option<BTreeSet<Slot>>>()?;
        // The same rules chose the binding order's variables; should the
        // two ever disagree, the formula keeps the automata route.
        if slots != wanted {
            return None;
        }
        let mut after = have.clone();
        after.extend(vars.iter().cloned());
        // A row binds its generated columns and matches its key columns
        // exactly; any other column (a `trim` term) leaves the relation
        // atom to a filter.
        let exact = !matches!(atom.kind, Kind::Rel(_))
            || (0..evaluable.len()).all(|i| evaluable[i] || positions.contains(&i));
        let check = exact
            && a.terms().iter().all(|t| {
                let mut vs = BTreeSet::new();
                t.free_vars_into(&mut vs);
                vs.iter().all(|v| after.contains(v))
            });
        let key = match atom.kind {
            Kind::Rel(_) => (0..evaluable.len()).filter(|&i| evaluable[i]).collect(),
            _ => Vec::new(),
        };
        let index = self.indexes;
        self.indexes += 1;
        Some(Step::Generate {
            atom,
            positions,
            slots: slots.into_iter().collect(),
            key,
            index,
            check,
        })
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Whether the enumeration goes on after a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Go,
    Stop,
}

/// The deadline fired.
struct Expired;

type Res = Result<Flow, Expired>;

/// The rows of one relation holding only in-alphabet strings.
type Rows<'db> = Rc<[&'db [Str]]>;

/// A hash index: the values of the key columns → rows.
type Index = HashMap<Vec<Str>, Vec<u32>>;

struct Exec<'p, 'db> {
    prog: &'p Program,
    db: &'db Database,
    rels: Vec<&'db Relation>,
    /// Built on first use.
    rows: Vec<Option<Rows<'db>>>,
    indexes: Vec<Option<Rc<Index>>>,
    env: Vec<Option<Val<'db>>>,
    /// What every bound value but a range's is a member of.
    domain: &'db Domain,
    /// Built by the first range step.
    adom: Option<Rc<Adom>>,
    bindings: u64,
    deadline: &'p Deadline,
}

/// The active domain of a run's in-alphabet rows, and its prefix
/// closure, both sorted.
struct Adom {
    strings: Vec<Str>,
    closure: Vec<Str>,
}

impl<'p, 'db> Exec<'p, 'db> {
    /// An owned copy of the value bound to `slot`.
    fn value(&self, slot: Slot) -> Str {
        self.env[slot]
            .as_deref()
            .cloned()
            .unwrap_or_else(Str::epsilon)
    }

    /// Counts one binding, polling the deadline every
    /// [`CHECKPOINT_EVERY`].
    fn tick(&mut self) -> Result<(), Expired> {
        self.bindings += 1;
        if self.bindings.is_multiple_of(CHECKPOINT_EVERY) && self.deadline.checkpoint() {
            return Err(Expired);
        }
        Ok(())
    }

    /// Enumerates the bindings `node` adds to the environment, calling
    /// `k` on each.
    fn run(&mut self, node: &'p Node, k: &mut dyn FnMut(&mut Self) -> Res) -> Res {
        match node {
            Node::Chain(steps) => self.steps(steps, k),
            Node::Union(a, b) => match self.run(a, k)? {
                Flow::Stop => Ok(Flow::Stop),
                Flow::Go => self.run(b, k),
            },
            Node::Project { slot, body } => {
                let saved = self.env[*slot].take();
                let out = self.run(body, k);
                self.env[*slot] = saved;
                out
            }
            Node::Complement(inner) => {
                if self.holds(inner)? {
                    Ok(Flow::Go)
                } else {
                    k(self)
                }
            }
            Node::Test(atom) => {
                if self.test(atom) {
                    k(self)
                } else {
                    Ok(Flow::Go)
                }
            }
            Node::True => k(self),
            Node::False => Ok(Flow::Go),
        }
    }

    /// Whether `node` yields anything under the current bindings.
    fn holds(&mut self, node: &'p Node) -> Result<bool, Expired> {
        let mut found = false;
        self.run(node, &mut |_| {
            found = true;
            Ok(Flow::Stop)
        })?;
        Ok(found)
    }

    fn steps(&mut self, steps: &'p [Step], k: &mut dyn FnMut(&mut Self) -> Res) -> Res {
        let Some((first, rest)) = steps.split_first() else {
            return k(self);
        };
        match first {
            Step::Filter(node) => {
                if self.holds(node)? {
                    self.steps(rest, k)
                } else {
                    Ok(Flow::Go)
                }
            }
            Step::Sub { node, slots } => {
                let mut seen = HashSet::new();
                let mut tuples: Vec<Vec<Str>> = Vec::new();
                self.run(node, &mut |ex| {
                    let t: Vec<Str> = slots.iter().map(|&s| ex.value(s)).collect();
                    if seen.insert(t.clone()) {
                        tuples.push(t);
                    }
                    Ok(Flow::Go)
                })?;
                for t in tuples {
                    self.tick()?;
                    for (&s, v) in slots.iter().zip(t) {
                        self.env[s] = Some(Cow::Owned(v));
                    }
                    let flow = self.steps(rest, k);
                    self.unbind(slots);
                    if flow? == Flow::Stop {
                        return Ok(Flow::Stop);
                    }
                }
                Ok(Flow::Go)
            }
            Step::Domain(slot) => {
                let domain: &'db Domain = self.domain;
                match domain {
                    Domain::UpTo(n) => {
                        let walk = StringsUpTo::new(self.prog.k, *n).map(Cow::Owned);
                        self.walk(*slot, walk, rest, k)
                    }
                    Domain::Set(set) => self.walk(*slot, set.iter().map(Cow::Borrowed), rest, k),
                }
            }
            Step::Range {
                slot,
                restrict,
                scope,
            } => {
                let range = self.range(*restrict, scope);
                self.walk(*slot, range.map(Cow::Owned), rest, k)
            }
            Step::Generate {
                atom,
                positions,
                slots,
                key,
                index,
                check,
            } => match atom.kind {
                Kind::Rel(rel) => self.generate_rows(atom, rel, key, *index, slots, rest, k),
                _ => self.generate_values(atom, positions, *check, rest, k),
            },
        }
    }

    /// Binds `slot` to each value of `values` in turn and continues with
    /// the rest of the chain.
    fn walk(
        &mut self,
        slot: Slot,
        values: impl Iterator<Item = Val<'db>>,
        rest: &'p [Step],
        k: &mut dyn FnMut(&mut Self) -> Res,
    ) -> Res {
        for w in values {
            self.tick()?;
            self.env[slot] = Some(w);
            let flow = self.steps(rest, k);
            self.env[slot] = None;
            if flow? == Flow::Stop {
                return Ok(Flow::Stop);
            }
        }
        Ok(Flow::Go)
    }

    /// The values of a restricted quantifier's range, under the current
    /// bindings of the quantified formula's other free variables
    /// (`scope`): the rule `logic::compile` uses.
    fn range(&mut self, restrict: Restrict, scope: &[Slot]) -> Box<dyn Iterator<Item = Str>> {
        let adom = self.adom();
        let scoped = scope.iter().filter_map(|&s| self.env[s].as_deref());
        match restrict {
            Restrict::Active => {
                Box::new((0..adom.strings.len()).map(move |i| adom.strings[i].clone()))
            }
            Restrict::PrefixDom => {
                let extra: BTreeSet<Str> = scoped
                    .flat_map(Str::prefixes)
                    .filter(|p| adom.closure.binary_search(p).is_err())
                    .collect();
                let closure = (0..adom.closure.len()).map(move |i| adom.closure[i].clone());
                Box::new(closure.chain(extra))
            }
            Restrict::LengthDom => match adom.strings.iter().chain(scoped).map(Str::len).max() {
                Some(m) => Box::new(StringsUpTo::new(self.prog.k, m)),
                None => Box::new(std::iter::empty()),
            },
        }
    }

    /// The run's active domain, built on first use.
    fn adom(&mut self) -> Rc<Adom> {
        let (db, k) = (self.db, self.prog.k);
        Rc::clone(self.adom.get_or_insert_with(|| {
            let strings = db.adom_within(k);
            let closure = strcalc_alphabet::prefix_closure(&strings);
            let sorted = |set: BTreeSet<Str>| set.into_iter().collect();
            Rc::new(Adom {
                closure: sorted(closure),
                strings: sorted(strings),
            })
        }))
    }

    /// A value generator: binds the variable of each generated position
    /// in turn (nested loops over their candidates), tests the atom when
    /// `check`, and continues with the rest of the chain.
    fn generate_values(
        &mut self,
        atom: &'p CAtom,
        positions: &'p [usize],
        check: bool,
        rest: &'p [Step],
        k: &mut dyn FnMut(&mut Self) -> Res,
    ) -> Res {
        let Some((&p, more)) = positions.split_first() else {
            return if !check || self.test(atom) {
                self.steps(rest, k)
            } else {
                Ok(Flow::Go)
            };
        };
        let term = &atom.terms[p];
        let Some(slot) = term.chain_var() else {
            return Ok(Flow::Go);
        };
        let was_bound = self.env[slot].is_some();
        for w in self.candidates(atom, p) {
            self.tick()?;
            let flow = if bind(term, Cow::Owned(w), &mut self.env, self.domain) {
                self.generate_values(atom, more, check, rest, k)
            } else {
                Ok(Flow::Go)
            };
            if !was_bound {
                self.env[slot] = None;
            }
            if flow? == Flow::Stop {
                return Ok(Flow::Stop);
            }
        }
        Ok(Flow::Go)
    }

    /// A relation generator: the rows matching the bound key columns,
    /// each binding the generated columns' variables.
    #[allow(clippy::too_many_arguments)]
    fn generate_rows(
        &mut self,
        atom: &'p CAtom,
        rel: usize,
        key: &'p [usize],
        index: usize,
        slots: &'p [Slot],
        rest: &'p [Step],
        k: &mut dyn FnMut(&mut Self) -> Res,
    ) -> Res {
        let rows = self.rows(rel);
        let index_rc;
        let matches: Box<dyn Iterator<Item = u32>> = if key.is_empty() {
            Box::new(0..rows.len() as u32)
        } else {
            let probe: Option<Vec<Str>> = key
                .iter()
                .map(|&i| atom.terms[i].eval(&self.env).map(Cow::into_owned))
                .collect();
            let Some(probe) = probe else {
                return Ok(Flow::Go);
            };
            index_rc = self.index(index, &rows, key);
            match index_rc.get(&probe) {
                Some(hits) => Box::new(hits.iter().copied()),
                None => return Ok(Flow::Go),
            }
        };
        for r in matches {
            self.tick()?;
            let row = rows[r as usize];
            let bound = atom.terms.iter().enumerate().all(|(i, t)| {
                key.contains(&i)
                    || t.chain_var().is_none_or(|s| !slots.contains(&s))
                    || bind(t, Cow::Borrowed(&row[i]), &mut self.env, self.domain)
            });
            let flow = if bound {
                self.steps(rest, k)
            } else {
                Ok(Flow::Go)
            };
            self.unbind(slots);
            if flow? == Flow::Stop {
                return Ok(Flow::Stop);
            }
        }
        Ok(Flow::Go)
    }

    /// The in-alphabet rows of relation `rel`, collected on first use.
    fn rows(&mut self, rel: usize) -> Rows<'db> {
        if let Some(rows) = &self.rows[rel] {
            return Rc::clone(rows);
        }
        let rows: Rows<'db> = self.rels[rel]
            .rows_within(self.prog.k)
            .map(|t| &**t)
            .collect();
        self.rows[rel] = Some(Rc::clone(&rows));
        rows
    }

    /// The hash index of relation generator `index` on its key columns,
    /// built on first use — once per run.
    fn index(&mut self, index: usize, rows: &[&[Str]], key: &[usize]) -> Rc<Index> {
        if let Some(ix) = &self.indexes[index] {
            return Rc::clone(ix);
        }
        let mut built: Index = HashMap::new();
        for (r, row) in rows.iter().enumerate() {
            let k: Vec<Str> = key.iter().map(|&i| row[i].clone()).collect();
            built.entry(k).or_default().push(r as u32);
        }
        let built = Rc::new(built);
        self.indexes[index] = Some(Rc::clone(&built));
        built
    }

    fn unbind(&mut self, slots: &[Slot]) {
        for &s in slots {
            self.env[s] = None;
        }
    }

    /// The candidate values of generated position `p` of `atom`, from
    /// the values of its bound positions.
    fn candidates(&self, atom: &CAtom, p: usize) -> Box<dyn Iterator<Item = Str> + 'p> {
        let val = |i: usize| {
            atom.terms
                .get(i)
                .and_then(|t| t.eval(&self.env))
                .map(Cow::into_owned)
        };
        let other = |i: usize| val(i).unwrap_or_else(Str::epsilon);
        let prog: &'p Program = self.prog;
        let k = prog.k;
        let list = |v: Vec<Str>| -> Box<dyn Iterator<Item = Str>> { Box::new(v.into_iter()) };
        match atom.kind {
            Kind::Eq => list(vec![other(1 - p)]),
            Kind::Prefix | Kind::PL(_) if p == 0 => list(other(1).prefixes().collect()),
            Kind::StrictPrefix => {
                let y = other(1);
                list((0..y.len()).map(|n| y.prefix(n)).collect())
            }
            Kind::Cover if p == 1 => {
                let x = other(0);
                list((0..k).map(|a| x.append(a)).collect())
            }
            Kind::Cover => match other(1).syms().split_last() {
                Some((_, rest)) => list(vec![Str::from_syms(rest.to_vec())]),
                None => list(Vec::new()),
            },
            Kind::Prepends(a) if p == 1 => list(vec![other(0).prepend(a)]),
            Kind::Prepends(a) => match other(1).syms().split_first() {
                Some((&first, rest)) if first == a => list(vec![Str::from_syms(rest.to_vec())]),
                _ => list(Vec::new()),
            },
            // Length generators enumerate lazily: over a long string
            // their candidates are exponentially many.
            Kind::EqLen => Box::new(StringsExactly::new(k, other(1 - p).len())),
            Kind::ShorterEq => Box::new(StringsUpTo::new(k, other(1).len())),
            Kind::Shorter => match other(1).len() {
                0 => list(Vec::new()),
                n => Box::new(StringsUpTo::new(k, n - 1)),
            },
            Kind::PL(l) => {
                let x = other(0);
                Box::new(prog.words(l).map(move |w| x.concat(&w)))
            }
            Kind::InLang(l) => Box::new(prog.words(l)),
            Kind::Insert(a) => match (val(0), p, val(1)) {
                (Some(x), 1, _) => list(x.prefixes().collect()),
                (Some(x), _, Some(q)) => list(x.insert_after(&q, a).into_iter().collect()),
                (Some(x), _, None) => {
                    list(x.prefixes().filter_map(|q| x.insert_after(&q, a)).collect())
                }
                (None, 1, _) => list(other(2).prefixes().collect()),
                (None, _, _) => list(deletions(&other(2), a)),
            },
            // z = x·y: the product, the remainder of a bound operand,
            // or the |z|+1 splits.
            Kind::Concat => {
                let z = other(2);
                let z = z.syms();
                let part = |s: &[Sym]| Str::from_syms(s.to_vec());
                list(match (p, val(0), val(1)) {
                    (2, _, _) => vec![other(0).concat(&other(1))],
                    (0, _, Some(y)) => z.strip_suffix(y.syms()).map(part).into_iter().collect(),
                    (1, Some(x), _) => z.strip_prefix(x.syms()).map(part).into_iter().collect(),
                    (0, _, None) => (0..=z.len()).map(|n| part(&z[..n])).collect(),
                    _ => (0..=z.len()).map(|n| part(&z[n..])).collect(),
                })
            }
            _ => list(Vec::new()),
        }
    }

    /// Whether `atom` holds under the current bindings (`false` while a
    /// variable of it is unbound).
    fn test(&self, atom: &CAtom) -> bool {
        self.holds_atom(atom).unwrap_or(false)
    }

    fn holds_atom(&self, atom: &CAtom) -> Option<bool> {
        let val = |i: usize| atom.terms.get(i).and_then(|t| t.eval(&self.env));
        let langs = &self.prog.langs;
        Some(match atom.kind {
            Kind::Rel(r) => match atom.terms.as_slice() {
                [t] => self.rels[r].contains(std::slice::from_ref(t.eval(&self.env)?.as_ref())),
                ts => {
                    let row: Option<Vec<Str>> = ts
                        .iter()
                        .map(|t| t.eval(&self.env).map(Cow::into_owned))
                        .collect();
                    self.rels[r].contains(&row?)
                }
            },
            Kind::Eq => val(0)? == val(1)?,
            Kind::Prefix => val(0)?.is_prefix_of(&*val(1)?),
            Kind::StrictPrefix => val(0)?.is_strict_prefix_of(&*val(1)?),
            Kind::Cover => val(0)?.extends_by_one(&*val(1)?),
            Kind::LastSym(a) => val(0)?.last() == Some(a),
            Kind::FirstSym(a) => val(0)?.first() == Some(a),
            Kind::Prepends(a) => *val(1)? == val(0)?.prepend(a),
            Kind::EqLen => val(0)?.len() == val(1)?.len(),
            Kind::ShorterEq => val(0)?.len() <= val(1)?.len(),
            Kind::Shorter => val(0)?.len() < val(1)?.len(),
            Kind::LexLeq => val(0)?.lex_cmp(&*val(1)?) != std::cmp::Ordering::Greater,
            Kind::InLang(l) => langs[l].dfa.accepts(&*val(0)?),
            Kind::PL(l) => {
                let (x, y) = (val(0)?, val(1)?);
                x.is_prefix_of(&y) && langs[l].dfa.accepts(&y.subtract(&x))
            }
            Kind::Insert(a) => val(0)?.insert_after(&*val(1)?, a).as_ref() == Some(&*val(2)?),
            Kind::Concat => val(0)?.concat(&*val(1)?) == *val(2)?,
        })
    }
}

/// Binds the variable of the injective chain `t` so that `t` evaluates
/// to `w`; `false` when no value does, when that value is not in
/// `domain`, or when the variable is already bound to another one.
fn bind<'db>(t: &CTerm, w: Val<'db>, env: &mut [Option<Val<'db>>], domain: &Domain) -> bool {
    let value = match t {
        CTerm::Var(_) => Some(w),
        _ => t.invert(w.syms()).map(Cow::Owned),
    };
    let (Some(slot), Some(value)) = (t.chain_var(), value) else {
        return false;
    };
    if !domain.contains(&value) {
        return false;
    }
    match &env[slot] {
        Some(old) => *old == value,
        None => {
            env[slot] = Some(value);
            true
        }
    }
}

/// The words of a finite language, depth first over its trimmed DFA,
/// one at a time: an `in`/`pl` generator over a language with
/// exponentially many words must not materialize them. Trimmed, the
/// DFA is acyclic and every path reaches an accepting state, so each
/// word costs at most its length in steps.
struct Words<'p> {
    dfa: Option<&'p Dfa>,
    /// The states of the current path, each with the next symbol to try.
    path: Vec<(StateId, usize)>,
    /// The symbols of the current path.
    word: Vec<Sym>,
    started: bool,
}

impl<'p> Words<'p> {
    fn new(dfa: Option<&'p Dfa>) -> Words<'p> {
        Words {
            dfa,
            path: Vec::new(),
            word: Vec::new(),
            started: false,
        }
    }
}

impl Iterator for Words<'_> {
    type Item = Str;

    fn next(&mut self) -> Option<Str> {
        let dfa = self.dfa?;
        if !self.started {
            self.started = true;
            self.path.push((dfa.start, 0));
            if dfa.accepting[dfa.start as usize] {
                return Some(Str::from_syms(self.word.clone()));
            }
        }
        while let Some((q, next)) = self.path.last_mut() {
            let Some(&t) = dfa.trans[*q as usize].get(*next) else {
                self.path.pop();
                self.word.pop();
                continue;
            };
            let a = *next;
            *next += 1;
            if let Some(t) = t {
                self.word.push(a as Sym);
                self.path.push((t, 0));
                if dfa.accepting[t as usize] {
                    return Some(Str::from_syms(self.word.clone()));
                }
            }
        }
        None
    }
}

/// The strings `y` with one occurrence of `a` deleted.
fn deletions(y: &Str, a: Sym) -> Vec<Str> {
    let s = y.syms();
    (0..s.len())
        .filter(|&i| s[i] == a)
        .map(|i| Str::from_syms([&s[..i], &s[i + 1..]].concat()))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_automata::Regex;

    fn dfa(re: &str) -> Dfa {
        Dfa::from_regex(2, &Regex::parse(&Alphabet::ab(), re).unwrap())
    }

    #[test]
    fn words_lists_a_finite_language_once_each() {
        for re in ["ab|b|", "(a|b)(a|b)", "a(b|)(a|)", "∅"] {
            let d = dfa(re);
            let trimmed = d.trim();
            let got: BTreeSet<Str> = Words::new(Some(&trimmed)).collect();
            let want: BTreeSet<Str> = d.enumerate_finite().into_iter().collect();
            assert_eq!(got, want, "{re}");
            assert_eq!(Words::new(Some(&trimmed)).count(), want.len(), "{re}");
        }
        assert_eq!(Words::new(None).count(), 0);
    }

    #[test]
    fn words_yields_before_it_has_walked_the_language() {
        // 2^64 words: only a lazy walk returns.
        let trimmed = dfa(&"(a|b)".repeat(64)).trim();
        let first: Vec<Str> = Words::new(Some(&trimmed)).take(3).collect();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|w| w.len() == 64));
    }
}
