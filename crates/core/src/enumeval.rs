//! The collapse domain, and the naive reference evaluator.
//!
//! Proposition 2 of the paper shows that over `S` quantification can be
//! restricted to prefixes of the active domain (plus parameters), and
//! Theorem 2 shows that over `S_len` quantification can be restricted by
//! length. Both results rewrite the formula; the collapse route instead
//! runs the *original* formula with every head and unrestricted variable
//! ranging over a finite domain derived from the database, padded with a
//! **slack** fringe ([`EnumEngine::domain`]):
//!
//! * `S` / `S_reg`: the prefix closure of `adom ∪ constants`, extended by
//!   all suffixes of length ≤ slack;
//! * `S_left`: the same, additionally closed under prepending up to slack
//!   symbols (the `F_a` functions move strings out of the prefix
//!   closure);
//! * `S_len`: all strings of length ≤ maxlen(`adom ∪ constants`) + slack.
//!
//! `adom` is the active domain of the in-alphabet rows: a row holding a
//! symbol outside `Σ` denotes nothing on every route. With slack derived
//! from the formula this is exact on every query in the test corpus
//! (cross-validated against [`crate::AutomataEngine`]); it is also the
//! honest cost model for the paper's complexity statements: polynomial
//! for the prefix-domain calculi (Corollary 2), exponential for `S_len`
//! (Corollary 4) — the domain itself is `|Σ|^maxlen`.
//!
//! The planner runs the collapse route as a `generate` program over this
//! domain (a forced [`Strategy::ActiveDomainEnum`] plan, and the SA401 /
//! SA413 fallbacks of the automata route); [`EnumEngine::eval`] runs the
//! same program. [`DomainEvaluator`] is the naive, ungoverned
//! reference: it interprets the formula one assignment at a time, every
//! quantifier looping over its range. Tests, the translation validator
//! and [`crate::ConcatEvaluator`] (the same evaluator over `Σ^{≤B}`)
//! compare against it.

// Panic audit: this module sits on the hot evaluation path, so every
// potential panic must be a messaged `expect` documenting its invariant
// (tests are exempt below).
#![deny(clippy::unwrap_used)]

use std::collections::{BTreeSet, HashMap};

use strcalc_alphabet::{Alphabet, Str};
use strcalc_automata::Dfa;
use strcalc_logic::transform::quantifier_rank;
use strcalc_logic::{Atom, Formula, Lang, Restrict, Term};
use strcalc_relational::{Database, Relation, Row};

use crate::generate::Domain;
use crate::plan::{Planner, Strategy};
use crate::query::{Calculus, CoreError, Query};

/// The collapse route's configuration.
#[derive(Debug, Clone, Default)]
pub struct EnumEngine {
    /// Fringe width; `None` derives `quantifier_rank + 1` per query.
    pub slack: Option<usize>,
}

/// The naive evaluator over an explicit finite domain.
pub struct DomainEvaluator<'a> {
    pub alphabet: &'a Alphabet,
    pub db: &'a Database,
    /// What head and unrestricted variables range over.
    pub domain: Vec<Str>,
    /// The active domain of the in-alphabet rows, sorted.
    adom: Vec<Str>,
    dfa_cache: HashMap<Lang, Dfa>,
}

impl EnumEngine {
    pub fn new() -> EnumEngine {
        EnumEngine::default()
    }

    pub fn with_slack(slack: usize) -> EnumEngine {
        EnumEngine { slack: Some(slack) }
    }

    /// The finite collapse domain for `q` on `db`.
    pub fn domain(&self, q: &Query, db: &Database) -> Domain {
        let slack = self
            .slack
            .unwrap_or_else(|| quantifier_rank(q.formula()) + 1);
        let mut base: BTreeSet<Str> = db.adom_within(q.alphabet().len() as u8);
        collect_constants(q.formula(), &mut base);
        match q.calculus() {
            Calculus::S | Calculus::SReg => {
                Domain::Set(prefix_fringe(q.alphabet(), &base, slack, false))
            }
            Calculus::SLeft => Domain::Set(prefix_fringe(q.alphabet(), &base, slack, true)),
            Calculus::SLen => Domain::UpTo(base.iter().map(Str::len).max().unwrap_or(0) + slack),
        }
    }

    /// Evaluates `q` over its collapse domain: the program a forced
    /// [`Strategy::ActiveDomainEnum`] plan runs, at this slack. **Assumes
    /// the query is range-restricted** (safe with output inside the
    /// domain); use the automata engine for exact semantics on arbitrary
    /// queries. A sentence is a 0-ary query: its answer is `{()}` when it
    /// holds and `∅` otherwise.
    pub fn eval(&self, q: &Query, db: &Database) -> Result<Relation, CoreError> {
        let planner = Planner {
            slack: self.slack,
            force: Some(Strategy::ActiveDomainEnum),
            ..Planner::new()
        };
        // The collapse route answers a finite relation by construction.
        Ok(planner.plan(q)?.execute(db)?.0.expect_finite())
    }
}

/// `prefix-closure(base)` extended by all suffixes of length ≤ `slack`
/// (and, when `also_prepend`, by all prefixes of length ≤ `slack` stuck
/// on the left).
fn prefix_fringe(
    alphabet: &Alphabet,
    base: &BTreeSet<Str>,
    slack: usize,
    also_prepend: bool,
) -> Vec<Str> {
    let closure = strcalc_alphabet::prefix_closure(base.iter());
    let mut out: BTreeSet<Str> = BTreeSet::new();
    let suffixes: Vec<Str> = alphabet.strings_up_to(slack).collect();
    for c in &closure {
        for sfx in &suffixes {
            let extended = c.concat(sfx);
            if also_prepend {
                for pfx in &suffixes {
                    out.insert(pfx.concat(&extended));
                }
            } else {
                out.insert(extended);
            }
        }
    }
    out.into_iter().collect()
}

fn collect_constants(f: &Formula, out: &mut BTreeSet<Str>) {
    f.visit(&mut |sub| {
        if let Formula::Atom(a) = sub {
            for t in a.terms() {
                collect_term_constants(t, out);
            }
        }
    });
}

fn collect_term_constants(t: &Term, out: &mut BTreeSet<Str>) {
    match t {
        Term::Const(c) => {
            out.insert(c.clone());
        }
        Term::Var(_) => {}
        Term::Append(inner, _) | Term::Prepend(_, inner) | Term::TrimLeading(_, inner) => {
            collect_term_constants(inner, out)
        }
    }
}

impl<'a> DomainEvaluator<'a> {
    pub fn new(alphabet: &'a Alphabet, db: &'a Database, domain: Vec<Str>) -> DomainEvaluator<'a> {
        DomainEvaluator {
            alphabet,
            db,
            domain,
            adom: db.adom_within(alphabet.len() as u8).into_iter().collect(),
            dfa_cache: HashMap::new(),
        }
    }

    /// The tuples, in head order, that satisfy `f` with every head
    /// variable ranging over the domain. A sentence's answer is `{()}`
    /// when it holds and `∅` otherwise.
    pub fn answer(&mut self, f: &Formula, head: &[String]) -> Result<Relation, CoreError> {
        let mut out = Vec::new();
        let mut tuple = Vec::with_capacity(head.len());
        self.head_loop(f, head, &mut HashMap::new(), &mut tuple, &mut out)?;
        Ok(Relation::from_tuples(head.len(), out))
    }

    fn head_loop(
        &mut self,
        f: &Formula,
        head: &[String],
        env: &mut HashMap<String, Str>,
        tuple: &mut Vec<Str>,
        out: &mut Vec<Row>,
    ) -> Result<(), CoreError> {
        let Some((v, rest)) = head.split_first() else {
            if self.eval(f, env)? {
                out.push(Row::from(&tuple[..]));
            }
            return Ok(());
        };
        for i in 0..self.domain.len() {
            let c = self.domain[i].clone();
            env.insert(v.clone(), c.clone());
            tuple.push(c);
            self.head_loop(f, rest, env, tuple, out)?;
            tuple.pop();
        }
        env.remove(v);
        Ok(())
    }

    /// Evaluates a term to a string under `env`.
    pub fn term_value(&self, t: &Term, env: &HashMap<String, Str>) -> Result<Str, CoreError> {
        Ok(match t {
            Term::Var(v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| CoreError::Unsupported(format!("unbound variable {v}")))?,
            Term::Const(c) => c.clone(),
            Term::Append(inner, a) => self.term_value(inner, env)?.append(*a),
            Term::Prepend(a, inner) => self.term_value(inner, env)?.prepend(*a),
            Term::TrimLeading(a, inner) => self.term_value(inner, env)?.trim_leading(*a),
        })
    }

    /// Evaluates a formula under `env`, unrestricted quantifiers ranging
    /// over the domain and restricted ones over their ranges.
    pub fn eval(&mut self, f: &Formula, env: &mut HashMap<String, Str>) -> Result<bool, CoreError> {
        Ok(match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => self.eval_atom(a, env)?,
            Formula::Not(g) => !self.eval(g, env)?,
            Formula::And(a, b) => self.eval(a, env)? && self.eval(b, env)?,
            Formula::Or(a, b) => self.eval(a, env)? || self.eval(b, env)?,
            Formula::Implies(a, b) => !self.eval(a, env)? || self.eval(b, env)?,
            Formula::Iff(a, b) => self.eval(a, env)? == self.eval(b, env)?,
            Formula::Exists(v, g) => self.witness(v, g, env, None, true)?,
            Formula::Forall(v, g) => !self.witness(v, g, env, None, false)?,
            Formula::ExistsR(r, v, g) => self.witness(v, g, env, Some(*r), true)?,
            Formula::ForallR(r, v, g) => !self.witness(v, g, env, Some(*r), false)?,
        })
    }

    /// The values `v` ranges over in `∃v g`: the domain, or a restricted
    /// quantifier's range. `dom↓` and the length range also cover the
    /// values of `g`'s other free variables, as `logic::compile` does.
    fn range(
        &self,
        restrict: Option<Restrict>,
        v: &str,
        g: &Formula,
        env: &HashMap<String, Str>,
    ) -> Vec<Str> {
        let scope: Vec<&Str> = g
            .free_vars()
            .iter()
            .filter(|w| *w != v)
            .filter_map(|w| env.get(w))
            .collect();
        match restrict {
            None => self.domain.clone(),
            Some(Restrict::Active) => self.adom.clone(),
            Some(Restrict::PrefixDom) => {
                strcalc_alphabet::prefix_closure(self.adom.iter().chain(scope))
                    .into_iter()
                    .collect()
            }
            Some(Restrict::LengthDom) => match self.adom.iter().chain(scope).map(Str::len).max() {
                Some(m) => self.alphabet.strings_up_to(m).collect(),
                None => Vec::new(),
            },
        }
    }

    /// Whether some `v` in its range makes `g` evaluate to `holds`: `∃v g`
    /// with `holds`, and `¬∀v g` without.
    fn witness(
        &mut self,
        v: &str,
        g: &Formula,
        env: &mut HashMap<String, Str>,
        restrict: Option<Restrict>,
        holds: bool,
    ) -> Result<bool, CoreError> {
        let saved = env.get(v).cloned();
        let mut found = false;
        for c in self.range(restrict, v, g, env) {
            env.insert(v.to_string(), c);
            if self.eval(g, env)? == holds {
                found = true;
                break;
            }
        }
        match saved {
            Some(s) => env.insert(v.to_string(), s),
            None => env.remove(v),
        };
        Ok(found)
    }

    fn eval_atom(&mut self, a: &Atom, env: &HashMap<String, Str>) -> Result<bool, CoreError> {
        Ok(match a {
            Atom::Rel(name, ts) => {
                let vals: Result<Vec<Str>, _> =
                    ts.iter().map(|t| self.term_value(t, env)).collect();
                let vals = vals?;
                match self.db.relation(name) {
                    Some(r) => r.contains(&vals),
                    None => return Err(CoreError::Unsupported(format!("unknown relation {name}"))),
                }
            }
            Atom::Eq(x, y) => self.term_value(x, env)? == self.term_value(y, env)?,
            Atom::Prefix(x, y) => self
                .term_value(x, env)?
                .is_prefix_of(&self.term_value(y, env)?),
            Atom::StrictPrefix(x, y) => self
                .term_value(x, env)?
                .is_strict_prefix_of(&self.term_value(y, env)?),
            Atom::Cover(x, y) => self
                .term_value(x, env)?
                .extends_by_one(&self.term_value(y, env)?),
            Atom::LastSym(t, s) => self.term_value(t, env)?.last() == Some(*s),
            Atom::FirstSym(t, s) => self.term_value(t, env)?.first() == Some(*s),
            Atom::Prepends(x, y, s) => {
                self.term_value(y, env)? == self.term_value(x, env)?.prepend(*s)
            }
            Atom::EqLen(x, y) => self.term_value(x, env)?.len() == self.term_value(y, env)?.len(),
            Atom::ShorterEq(x, y) => {
                self.term_value(x, env)?.len() <= self.term_value(y, env)?.len()
            }
            Atom::Shorter(x, y) => self.term_value(x, env)?.len() < self.term_value(y, env)?.len(),
            Atom::LexLeq(x, y) => {
                self.term_value(x, env)?.lex_cmp(&self.term_value(y, env)?)
                    != std::cmp::Ordering::Greater
            }
            Atom::InLang(t, l) => {
                let v = self.term_value(t, env)?;
                self.dfa(l).accepts(&v)
            }
            Atom::PL(x, y, l) => {
                let (vx, vy) = (self.term_value(x, env)?, self.term_value(y, env)?);
                vx.is_prefix_of(&vy) && {
                    let suffix = vy.subtract(&vx);
                    self.dfa(l).accepts(&suffix)
                }
            }
            Atom::InsertAfter(x, p, y, a) => {
                let (vx, vp, vy) = (
                    self.term_value(x, env)?,
                    self.term_value(p, env)?,
                    self.term_value(y, env)?,
                );
                vx.insert_after(&vp, *a) == Some(vy)
            }
            Atom::ConcatEq(x, y, z) => {
                let (vx, vy, vz) = (
                    self.term_value(x, env)?,
                    self.term_value(y, env)?,
                    self.term_value(z, env)?,
                );
                vx.concat(&vy) == vz
            }
        })
    }

    fn dfa(&mut self, l: &Lang) -> &Dfa {
        let k = self.alphabet.len() as u8;
        self.dfa_cache
            .entry(l.clone())
            .or_insert_with(|| l.to_dfa(k))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn s(t: &str) -> Str {
        ab().parse(t).unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_unary_parsed(&ab(), "R", &["ab", "ba", "bab"])
            .unwrap();
        db
    }

    fn q(calc: Calculus, head: &[&str], src: &str) -> Query {
        Query::parse(
            calc,
            ab(),
            head.iter().map(|h| h.to_string()).collect(),
            src,
        )
        .unwrap()
    }

    /// The engine's answer.
    fn answer(engine: &EnumEngine, q: &Query) -> Relation {
        engine.eval(q, &db()).unwrap()
    }

    #[test]
    fn agrees_with_automata_engine_on_safe_queries() {
        use crate::engine::AutomataEngine;
        let queries = [
            q(Calculus::S, &["x"], "R(x) & last(x,'b')"),
            q(Calculus::S, &["x"], "exists y. (R(y) & x <= y)"),
            q(Calculus::S, &["x"], "exists y. (R(y) & x <1 y)"),
            q(
                Calculus::S,
                &["x", "y"],
                "R(x) & R(y) & lex(x, y) & !(x = y)",
            ),
            q(
                Calculus::SLen,
                &["x"],
                "exists y. (R(y) & el(x,y) & last(x,'a'))",
            ),
            q(Calculus::SLeft, &["x"], "exists y. (R(y) & fa(y,x,'b'))"),
        ];
        let exact = AutomataEngine::new();
        let baseline = EnumEngine::new();
        for query in &queries {
            let a = exact.eval(query, &db()).unwrap().expect_finite();
            let b = answer(&baseline, query);
            assert_eq!(a, b, "engines disagree on {}", query.formula());
        }
    }

    #[test]
    fn boolean_agreement() {
        use crate::engine::AutomataEngine;
        let sentences = [
            q(Calculus::S, &[], "exists x. (R(x) & last(x,'a'))"),
            q(
                Calculus::S,
                &[],
                "forall x. (R(x) -> exists y. (y <= x & last(y,'b')))",
            ),
            q(
                Calculus::SLen,
                &[],
                "exists x. exists y. (R(x) & R(y) & el(x,y) & !(x=y))",
            ),
            q(Calculus::S, &[], "existsA x. last(x, 'b')"),
            q(Calculus::S, &[], "existsP x. (last(x,'b') & !R(x))"),
            q(
                Calculus::SLen,
                &[],
                "existsL x. (last(x,'a') & last(x,'b'))",
            ),
        ];
        let exact = AutomataEngine::new();
        let baseline = EnumEngine::new();
        for query in &sentences {
            let a = exact.eval_bool(query, &db()).unwrap();
            let b = !answer(&baseline, query).is_empty();
            assert_eq!(a, b, "engines disagree on {}", query.formula());
        }
    }

    #[test]
    fn function_terms_evaluate_directly() {
        let query = q(
            Calculus::SLeft,
            &["x"],
            "exists y. (R(y) & x = prepend('a', y))",
        );
        let out = answer(&EnumEngine::new(), &query);
        assert_eq!(out.len(), 3);
        assert!(out.contains(&[s("aba")]));
    }

    #[test]
    fn domain_shapes() {
        let e = EnumEngine::with_slack(1);
        let dq = e.domain(&q(Calculus::S, &["x"], "R(x)"), &db());
        // prefix closure of {ab,ba,bab} = {ε,a,ab,b,ba,bab} (6), each
        // extended by ≤1 symbol: 6 + new one-extensions.
        assert!(dq.contains(&s("")));
        assert!(dq.contains(&s("babb")));
        assert!(!dq.contains(&s("babba")));

        let dl = e.domain(&q(Calculus::SLen, &["x"], "R(x)"), &db());
        assert_eq!(dl, Domain::UpTo(4)); // maxlen 3 + slack 1

        let dleft = e.domain(&q(Calculus::SLeft, &["x"], "R(x)"), &db());
        assert!(dleft.contains(&s("abab"))); // a·bab prepended
    }
}
