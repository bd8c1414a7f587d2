//! The extended relational algebras `RA(S)`, `RA(S_left)`, `RA(S_reg)`,
//! `RA(S_len)` (Sections 6.2 and 7.1 of the paper).
//!
//! One expression type covers all four algebras; which algebra an
//! expression belongs to is computed by [`RaExpr::algebra_class`] from
//! the operators it uses and the structure class of its `σ_α` formulas.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

use strcalc_alphabet::{Alphabet, Str, Sym};
use strcalc_automata::starfree::is_star_free;
use strcalc_logic::compile::{Compiled, Compiler};
use strcalc_logic::{atom_class, term_class, CompileError, Formula, StructureClass, Term};

use crate::database::{Database, Relation, Row, Schema};

/// An algebra expression.
///
/// Column references inside `σ_α` formulas use variables named `c0`,
/// `c1`, … (see [`RaExpr::col`]). Following the paper, the selection
/// formula never refers to the database — it is a pure structure formula.
#[derive(Debug, Clone, PartialEq)]
pub enum RaExpr {
    /// A schema relation.
    Rel(String),
    /// `R_ε`: the constant unary relation `{(ε)}`.
    EpsilonRel,
    /// `σ_α(e)`: keep tuples satisfying the pure structure formula `α`.
    Select(Box<RaExpr>, Formula),
    /// Generalized projection `π_{i₁,…,iₘ}(e)` (columns may repeat or be
    /// permuted).
    Project(Box<RaExpr>, Vec<usize>),
    /// Cartesian product.
    Product(Box<RaExpr>, Box<RaExpr>),
    /// Set union (same arity).
    Union(Box<RaExpr>, Box<RaExpr>),
    /// Set difference (same arity).
    Diff(Box<RaExpr>, Box<RaExpr>),
    /// `prefix_i(e)`: adjoin a column ranging over all prefixes of column
    /// `i` (`RA(S)` and up).
    Prefix(Box<RaExpr>, usize),
    /// `add^r_{i,a}(e)`: adjoin `s_i · a` (`RA(S)` and up).
    AddRight(Box<RaExpr>, usize, Sym),
    /// `add^l_{i,a}(e)`: adjoin `a · s_i` (`RA(S_left)`).
    AddLeft(Box<RaExpr>, usize, Sym),
    /// `trim^l_{i,a}(e)`: adjoin `s_i − a` (`RA(S_left)`).
    TrimLeft(Box<RaExpr>, usize, Sym),
    /// `↓_i(e)`: adjoin a column ranging over all strings of length ≤
    /// `|s_i|` (`RA(S_len)`; exponential by design — see Section 6.2).
    Down(Box<RaExpr>, usize),
    /// `ins_{i,j,a}(e)`: adjoin the insertion of `a` into column `i`
    /// right after the prefix in column `j` — the algebra face of the
    /// paper's Conclusion extension. Rows where column `j` is not a
    /// prefix of column `i` are dropped (the insertion is undefined
    /// there).
    InsertAt(Box<RaExpr>, usize, usize, Sym),
}

/// Errors from algebra evaluation and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum RaError {
    UnknownRelation(String),
    /// Arity mismatch between the operands of `∪`/`−`.
    ArityMismatch {
        left: usize,
        right: usize,
    },
    /// Column index out of range.
    BadColumn {
        index: usize,
        arity: usize,
    },
    /// A `σ_α` formula references a column beyond the operand's arity, or
    /// a non-column variable.
    BadSelectVar {
        var: String,
        arity: usize,
    },
    /// Compilation of a `σ_α` formula failed.
    Compile(CompileError),
}

impl fmt::Display for RaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            RaError::ArityMismatch { left, right } => {
                write!(f, "arity mismatch: {left} vs {right}")
            }
            RaError::BadColumn { index, arity } => {
                write!(f, "column {index} out of range for arity {arity}")
            }
            RaError::BadSelectVar { var, arity } => write!(
                f,
                "selection variable {var:?} is not a column c0..c{}",
                arity.saturating_sub(1)
            ),
            RaError::Compile(e) => write!(f, "selection compile error: {e}"),
        }
    }
}

impl std::error::Error for RaError {}

impl From<CompileError> for RaError {
    fn from(e: CompileError) -> Self {
        RaError::Compile(e)
    }
}

impl RaExpr {
    /// The term referring to column `i` inside a `σ_α` formula.
    pub fn col(i: usize) -> Term {
        Term::var(format!("c{i}"))
    }

    /// Shorthand builders.
    pub fn rel(name: impl Into<String>) -> RaExpr {
        RaExpr::Rel(name.into())
    }

    pub fn select(self, alpha: Formula) -> RaExpr {
        RaExpr::Select(Box::new(self), alpha)
    }

    pub fn project(self, cols: Vec<usize>) -> RaExpr {
        RaExpr::Project(Box::new(self), cols)
    }

    pub fn product(self, other: RaExpr) -> RaExpr {
        RaExpr::Product(Box::new(self), Box::new(other))
    }

    pub fn union(self, other: RaExpr) -> RaExpr {
        RaExpr::Union(Box::new(self), Box::new(other))
    }

    pub fn diff(self, other: RaExpr) -> RaExpr {
        RaExpr::Diff(Box::new(self), Box::new(other))
    }

    pub fn prefix(self, i: usize) -> RaExpr {
        RaExpr::Prefix(Box::new(self), i)
    }

    pub fn add_right(self, i: usize, a: Sym) -> RaExpr {
        RaExpr::AddRight(Box::new(self), i, a)
    }

    pub fn add_left(self, i: usize, a: Sym) -> RaExpr {
        RaExpr::AddLeft(Box::new(self), i, a)
    }

    pub fn trim_left(self, i: usize, a: Sym) -> RaExpr {
        RaExpr::TrimLeft(Box::new(self), i, a)
    }

    pub fn down(self, i: usize) -> RaExpr {
        RaExpr::Down(Box::new(self), i)
    }

    pub fn insert_at(self, i: usize, j: usize, a: Sym) -> RaExpr {
        RaExpr::InsertAt(Box::new(self), i, j, a)
    }

    /// Static arity of the expression under a schema.
    pub fn arity(&self, schema: &Schema) -> Result<usize, RaError> {
        match self {
            RaExpr::Rel(r) => schema
                .arity(r)
                .ok_or_else(|| RaError::UnknownRelation(r.clone())),
            RaExpr::EpsilonRel => Ok(1),
            RaExpr::Select(e, _) => e.arity(schema),
            RaExpr::Project(e, cols) => {
                let a = e.arity(schema)?;
                for &c in cols {
                    if c >= a {
                        return Err(RaError::BadColumn { index: c, arity: a });
                    }
                }
                Ok(cols.len())
            }
            RaExpr::Product(a, b) => Ok(a.arity(schema)? + b.arity(schema)?),
            RaExpr::Union(a, b) | RaExpr::Diff(a, b) => {
                let (x, y) = (a.arity(schema)?, b.arity(schema)?);
                if x != y {
                    return Err(RaError::ArityMismatch { left: x, right: y });
                }
                Ok(x)
            }
            RaExpr::Prefix(e, i)
            | RaExpr::AddRight(e, i, _)
            | RaExpr::AddLeft(e, i, _)
            | RaExpr::TrimLeft(e, i, _)
            | RaExpr::Down(e, i) => {
                let a = e.arity(schema)?;
                if *i >= a {
                    return Err(RaError::BadColumn {
                        index: *i,
                        arity: a,
                    });
                }
                Ok(a + 1)
            }
            RaExpr::InsertAt(e, i, j, _) => {
                let a = e.arity(schema)?;
                for &c in &[*i, *j] {
                    if c >= a {
                        return Err(RaError::BadColumn { index: c, arity: a });
                    }
                }
                Ok(a + 1)
            }
        }
    }

    /// The least algebra (by the Figure-1 lattice) containing this
    /// expression: `add^l`/`trim^l` force `RA(S_left)`, `↓` forces
    /// `RA(S_len)`, and `σ_α` contributes the class of each atom and term
    /// of `α`. A language whose star-freeness is undecided (its monoid
    /// exceeds [`MAX_MONOID_CELLS`](strcalc_automata::MAX_MONOID_CELLS))
    /// counts as `S_reg`, which admits every regular language.
    pub fn algebra_class(&self, k: Sym) -> StructureClass {
        let star_free = |l: &strcalc_logic::Lang| is_star_free(&l.to_dfa(k)) == Ok(true);
        let mut class = StructureClass::S;
        self.visit(&mut |e| match e {
            RaExpr::AddLeft(..) | RaExpr::TrimLeft(..) => class = class.join(StructureClass::SLeft),
            // Conclusion extension: conservatively S_len (it subsumes
            // add^l at p = ε; exact lattice position open).
            RaExpr::Down(..) | RaExpr::InsertAt(..) => class = class.join(StructureClass::SLen),
            RaExpr::Select(_, alpha) => alpha.visit(&mut |g| {
                if let Formula::Atom(a) = g {
                    for t in a.terms() {
                        class = class.join(term_class(t).0);
                    }
                    class = class.join(atom_class(a, star_free));
                }
            }),
            _ => {}
        });
        class
    }

    /// Visits every subexpression (preorder).
    pub fn visit(&self, f: &mut impl FnMut(&RaExpr)) {
        f(self);
        match self {
            RaExpr::Rel(_) | RaExpr::EpsilonRel => {}
            RaExpr::Select(e, _)
            | RaExpr::Project(e, _)
            | RaExpr::Prefix(e, _)
            | RaExpr::AddRight(e, _, _)
            | RaExpr::AddLeft(e, _, _)
            | RaExpr::TrimLeft(e, _, _)
            | RaExpr::Down(e, _)
            | RaExpr::InsertAt(e, _, _, _) => e.visit(f),
            RaExpr::Product(a, b) | RaExpr::Union(a, b) | RaExpr::Diff(a, b) => {
                a.visit(f);
                b.visit(f);
            }
        }
    }

    /// Number of operators.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

/// Evaluates algebra expressions over a database. Caches the compiled
/// automata of `σ_α` formulas across calls.
pub struct RaEvaluator {
    alphabet: Alphabet,
    cap: usize,
    select_cache: RefCell<HashMap<Formula, CachedSelect>>,
}

struct CachedSelect {
    compiled: Compiled,
    /// Column index for each track of the compiled automaton.
    col_of_track: Vec<usize>,
}

impl RaEvaluator {
    pub fn new(alphabet: Alphabet) -> RaEvaluator {
        RaEvaluator {
            alphabet,
            cap: 2_000_000,
            select_cache: RefCell::new(HashMap::new()),
        }
    }

    fn k(&self) -> Sym {
        self.alphabet.len() as Sym
    }

    /// Evaluates `e` on `db`.
    pub fn eval(&self, e: &RaExpr, db: &Database) -> Result<Relation, RaError> {
        match e {
            RaExpr::Rel(r) => db
                .relation(r)
                .cloned()
                .ok_or_else(|| RaError::UnknownRelation(r.clone())),
            RaExpr::EpsilonRel => Ok(Relation::from_tuples(1, [vec![Str::epsilon()]])),
            RaExpr::Select(inner, alpha) => {
                let rel = self.eval(inner, db)?;
                self.eval_select(&rel, alpha)
            }
            RaExpr::Project(inner, cols) => {
                let rel = self.eval(inner, db)?;
                for &c in cols {
                    if c >= rel.arity() {
                        return Err(RaError::BadColumn {
                            index: c,
                            arity: rel.arity(),
                        });
                    }
                }
                Ok(Relation::from_tuples(
                    cols.len(),
                    rel.iter()
                        .map(|t| cols.iter().map(|&c| t[c].clone()).collect::<Row>()),
                ))
            }
            RaExpr::Product(a, b) => {
                let (x, y) = (self.eval(a, db)?, self.eval(b, db)?);
                let rows = x
                    .iter()
                    .flat_map(|t| y.iter().map(move |u| t.iter().chain(u.iter()).cloned()))
                    .map(Iterator::collect::<Row>);
                Ok(Relation::from_tuples(x.arity() + y.arity(), rows))
            }
            RaExpr::Union(a, b) => {
                let (x, y) = (self.eval(a, db)?, self.eval(b, db)?);
                if x.arity() != y.arity() {
                    return Err(RaError::ArityMismatch {
                        left: x.arity(),
                        right: y.arity(),
                    });
                }
                Ok(Relation::from_tuples(
                    x.arity(),
                    x.iter().chain(y.iter()).cloned(),
                ))
            }
            RaExpr::Diff(a, b) => {
                let (x, y) = (self.eval(a, db)?, self.eval(b, db)?);
                if x.arity() != y.arity() {
                    return Err(RaError::ArityMismatch {
                        left: x.arity(),
                        right: y.arity(),
                    });
                }
                Ok(Relation::from_tuples(
                    x.arity(),
                    x.iter().filter(|t| !y.contains(t)).cloned(),
                ))
            }
            RaExpr::Prefix(inner, i) => {
                self.adjoin_multi(inner, *i, db, |s| s.prefixes().collect::<Vec<_>>())
            }
            RaExpr::AddRight(inner, i, a) => {
                let a = *a;
                self.adjoin(inner, *i, db, move |s| s.append(a))
            }
            RaExpr::AddLeft(inner, i, a) => {
                let a = *a;
                self.adjoin(inner, *i, db, move |s| s.prepend(a))
            }
            RaExpr::TrimLeft(inner, i, a) => {
                let a = *a;
                self.adjoin(inner, *i, db, move |s| s.trim_leading(a))
            }
            RaExpr::Down(inner, i) => {
                let alphabet = self.alphabet.clone();
                self.adjoin_multi(inner, *i, db, move |s| {
                    alphabet.strings_up_to(s.len()).collect::<Vec<_>>()
                })
            }
            RaExpr::InsertAt(inner, i, j, a) => {
                let rel = self.eval(inner, db)?;
                for &c in &[*i, *j] {
                    if c >= rel.arity() {
                        return Err(RaError::BadColumn {
                            index: c,
                            arity: rel.arity(),
                        });
                    }
                }
                let rows = rel.iter().filter_map(|t| {
                    let v = t[*i].insert_after(&t[*j], *a)?;
                    Some(t.iter().cloned().chain([v]).collect::<Row>())
                });
                Ok(Relation::from_tuples(rel.arity() + 1, rows))
            }
        }
    }

    fn adjoin(
        &self,
        inner: &RaExpr,
        i: usize,
        db: &Database,
        f: impl Fn(&Str) -> Str,
    ) -> Result<Relation, RaError> {
        self.adjoin_multi(inner, i, db, move |s| vec![f(s)])
    }

    fn adjoin_multi(
        &self,
        inner: &RaExpr,
        i: usize,
        db: &Database,
        f: impl Fn(&Str) -> Vec<Str>,
    ) -> Result<Relation, RaError> {
        let rel = self.eval(inner, db)?;
        if i >= rel.arity() {
            return Err(RaError::BadColumn {
                index: i,
                arity: rel.arity(),
            });
        }
        let rows = rel.iter().flat_map(|t| {
            f(&t[i])
                .into_iter()
                .map(|v| t.iter().cloned().chain([v]).collect::<Row>())
        });
        Ok(Relation::from_tuples(rel.arity() + 1, rows))
    }

    fn eval_select(&self, rel: &Relation, alpha: &Formula) -> Result<Relation, RaError> {
        let mut cache = self.select_cache.borrow_mut();
        if !cache.contains_key(alpha) {
            let compiler = Compiler::pure(self.k());
            let compiler = Compiler {
                cap: self.cap,
                ..compiler
            };
            let compiled = compiler.compile(alpha)?;
            // Map each track's variable name "cN" to column N.
            let mut col_of_track = Vec::with_capacity(compiled.var_names.len());
            for name in &compiled.var_names {
                let idx: usize = name
                    .strip_prefix('c')
                    .and_then(|r| r.parse().ok())
                    .ok_or_else(|| RaError::BadSelectVar {
                        var: name.clone(),
                        arity: rel.arity(),
                    })?;
                col_of_track.push(idx);
            }
            cache.insert(
                alpha.clone(),
                CachedSelect {
                    compiled,
                    col_of_track,
                },
            );
        }
        let entry = cache.get(alpha).expect("just inserted");
        for &c in &entry.col_of_track {
            if c >= rel.arity() {
                return Err(RaError::BadSelectVar {
                    var: format!("c{c}"),
                    arity: rel.arity(),
                });
            }
        }
        let keep: Vec<bool> = rel
            .iter()
            .map(|t| {
                let args: Vec<&Str> = entry.col_of_track.iter().map(|&c| &t[c]).collect();
                entry.compiled.auto.accepts(&args)
            })
            .collect();
        Ok(rel.subsequence(&keep))
    }
}

impl fmt::Display for RaExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaExpr::Rel(r) => write!(f, "{r}"),
            RaExpr::EpsilonRel => write!(f, "R_ε"),
            RaExpr::Select(e, a) => write!(f, "σ[{a}]({e})"),
            RaExpr::Project(e, cols) => {
                write!(f, "π[")?;
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "]({e})")
            }
            RaExpr::Product(a, b) => write!(f, "({a} × {b})"),
            RaExpr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            RaExpr::Diff(a, b) => write!(f, "({a} − {b})"),
            RaExpr::Prefix(e, i) => write!(f, "prefix_{i}({e})"),
            RaExpr::AddRight(e, i, a) => write!(f, "add^r_{{{i},{a}}}({e})"),
            RaExpr::AddLeft(e, i, a) => write!(f, "add^l_{{{i},{a}}}({e})"),
            RaExpr::TrimLeft(e, i, a) => write!(f, "trim^l_{{{i},{a}}}({e})"),
            RaExpr::Down(e, i) => write!(f, "↓_{i}({e})"),
            RaExpr::InsertAt(e, i, j, a) => write!(f, "ins_{{{i},{j},{a}}}({e})"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn s(t: &str) -> Str {
        ab().parse(t).unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert("R", vec![s("ab"), s("b")]).unwrap();
        db.insert("R", vec![s("a"), s("ba")]).unwrap();
        db.insert("U", vec![s("ab")]).unwrap();
        db.insert("U", vec![s("bb")]).unwrap();
        db
    }

    fn ev() -> RaEvaluator {
        RaEvaluator::new(ab())
    }

    #[test]
    fn base_and_epsilon() {
        let out = ev().eval(&RaExpr::rel("U"), &db()).unwrap();
        assert_eq!(out.len(), 2);
        let out = ev().eval(&RaExpr::EpsilonRel, &db()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&[Str::epsilon()]));
        assert!(ev().eval(&RaExpr::rel("missing"), &db()).is_err());
    }

    #[test]
    fn classical_operators() {
        let e = RaExpr::rel("R").project(vec![1, 0]);
        let out = ev().eval(&e, &db()).unwrap();
        assert!(out.contains(&[s("b"), s("ab")]));

        let e = RaExpr::rel("U").product(RaExpr::rel("U"));
        assert_eq!(ev().eval(&e, &db()).unwrap().len(), 4);

        let e = RaExpr::rel("U").union(RaExpr::rel("R").project(vec![0]));
        assert_eq!(ev().eval(&e, &db()).unwrap().len(), 3); // ab, bb, a

        let e = RaExpr::rel("U").diff(RaExpr::rel("R").project(vec![0]));
        let out = ev().eval(&e, &db()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&[s("bb")]));

        // Arity mismatch is reported.
        let e = RaExpr::rel("U").union(RaExpr::rel("R"));
        assert!(matches!(
            ev().eval(&e, &db()),
            Err(RaError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn selection_with_structure_formula() {
        // σ[c0 ⪯ c1](R): tuples where the first is a prefix of the second.
        let alpha = Formula::prefix(RaExpr::col(0), RaExpr::col(1));
        let e = RaExpr::rel("R").select(alpha);
        let out = ev().eval(&e, &db()).unwrap();
        assert_eq!(out.len(), 0); // neither (ab,b) nor (a,ba): a ⪯ ba? no — b≠a... wait "a" ⪯ "ba" is false.

        // σ[last(c0,'b')](U) keeps "ab" and "bb".
        let alpha = Formula::last_sym(RaExpr::col(0), 1);
        let e = RaExpr::rel("U").select(alpha);
        assert_eq!(ev().eval(&e, &db()).unwrap().len(), 2);

        // Selection formulas may quantify over the infinite domain:
        // σ[∃u (u ≺ c0 ∧ last(u,'a'))](U) — some proper prefix ends in a.
        let alpha = Formula::exists(
            "u",
            Formula::strict_prefix(Term::var("u"), RaExpr::col(0))
                .and(Formula::last_sym(Term::var("u"), 0)),
        );
        let e = RaExpr::rel("U").select(alpha);
        let out = ev().eval(&e, &db()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&[s("ab")]));
    }

    #[test]
    fn string_operators() {
        // prefix_0(U): each string paired with each of its prefixes.
        let e = RaExpr::rel("U").prefix(0);
        let out = ev().eval(&e, &db()).unwrap();
        assert_eq!(out.len(), 6); // 3 prefixes each
        assert!(out.contains(&[s("ab"), s("a")]));
        assert!(out.contains(&[s("bb"), s("")]));

        let e = RaExpr::rel("U").add_right(0, 0);
        let out = ev().eval(&e, &db()).unwrap();
        assert!(out.contains(&[s("ab"), s("aba")]));

        let e = RaExpr::rel("U").add_left(0, 0);
        let out = ev().eval(&e, &db()).unwrap();
        assert!(out.contains(&[s("bb"), s("abb")]));

        let e = RaExpr::rel("U").trim_left(0, 0);
        let out = ev().eval(&e, &db()).unwrap();
        assert!(out.contains(&[s("ab"), s("b")]));
        assert!(out.contains(&[s("bb"), s("")])); // trim misses → ε

        let e = RaExpr::rel("U").down(0);
        let out = ev().eval(&e, &db()).unwrap();
        // each of the two strings (length 2) × 7 strings of length ≤ 2
        assert_eq!(out.len(), 14);
    }

    #[test]
    fn insert_at_operator() {
        // ins_{0,1,b}(U × prefix-col): build pairs (s, p) via prefix then
        // insert 'b' after p.
        let e = RaExpr::rel("U").prefix(0).insert_at(0, 1, 1);
        let out = ev().eval(&e, &db()).unwrap();
        // Every row satisfies the defining equation.
        for t in out.iter() {
            assert_eq!(t[0].insert_after(&t[1], 1), Some(t[2].clone()));
        }
        // "ab" with p="a" → "abb"... wait: insert after "a" in "ab" = a b b? a·b·b: yes "abb".
        assert!(out.contains(&[s("ab"), s("a"), s("abb")]));
        assert!(out.contains(&[s("bb"), s(""), s("bbb")]));
        // Arity/static checks.
        let schema = db().schema();
        assert_eq!(e.arity(&schema).unwrap(), 3);
        assert!(RaExpr::rel("U").insert_at(0, 5, 0).arity(&schema).is_err());
        assert_eq!(e.algebra_class(2), StructureClass::SLen);
    }

    #[test]
    fn algebra_classes() {
        let base = RaExpr::rel("U").prefix(0).add_right(1, 0);
        assert_eq!(base.algebra_class(2), StructureClass::S);
        let left = RaExpr::rel("U").add_left(0, 1);
        assert_eq!(left.algebra_class(2), StructureClass::SLeft);
        let len = RaExpr::rel("U").down(0);
        assert_eq!(len.algebra_class(2), StructureClass::SLen);
        // σ with an el() formula → S_len.
        let sel = RaExpr::rel("R").select(Formula::eq_len(RaExpr::col(0), RaExpr::col(1)));
        assert_eq!(sel.algebra_class(2), StructureClass::SLen);
        // σ with a non-star-free language → S_reg; a star-free one stays
        // in S; an undecided one counts as S_reg: `(a|b)*a` then 11
        // `(a|b)` is star-free, but its monoid is past the cell bound.
        let lang = |re: &str| {
            let regex = strcalc_automata::Regex::parse(&Alphabet::ab(), re).unwrap();
            Formula::in_lang(RaExpr::col(0), strcalc_logic::Lang::new(regex))
        };
        let even = RaExpr::rel("U").select(lang("(aa)*"));
        assert_eq!(even.algebra_class(2), StructureClass::SReg);
        let star_free = RaExpr::rel("U").select(lang("a*"));
        assert_eq!(star_free.algebra_class(2), StructureClass::S);
        let undecided = RaExpr::rel("U").select(lang(&format!("(a|b)*a{}", "(a|b)".repeat(11))));
        assert_eq!(undecided.algebra_class(2), StructureClass::SReg);
    }

    #[test]
    fn static_arity() {
        let schema = db().schema();
        assert_eq!(RaExpr::rel("R").arity(&schema).unwrap(), 2);
        assert_eq!(RaExpr::rel("R").prefix(0).arity(&schema).unwrap(), 3);
        assert!(RaExpr::rel("R").prefix(5).arity(&schema).is_err());
        assert!(RaExpr::rel("U")
            .union(RaExpr::rel("R"))
            .arity(&schema)
            .is_err());
    }

    #[test]
    fn select_bad_variable_is_reported() {
        let alpha = Formula::last_sym(Term::var("weird"), 0);
        let e = RaExpr::rel("U").select(alpha);
        assert!(matches!(
            ev().eval(&e, &db()),
            Err(RaError::BadSelectVar { .. })
        ));
        // Column out of range for the operand.
        let alpha = Formula::last_sym(RaExpr::col(3), 0);
        let e = RaExpr::rel("U").select(alpha);
        assert!(matches!(
            ev().eval(&e, &db()),
            Err(RaError::BadSelectVar { .. })
        ));
    }
}
