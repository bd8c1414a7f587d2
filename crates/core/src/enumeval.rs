//! The collapse domain, and the naive reference evaluator.
//!
//! Proposition 2 of the paper shows that over `S` quantification can be
//! restricted to prefixes of the active domain (plus parameters), and
//! Theorem 2 shows that over `S_len` quantification can be restricted by
//! length. Both results rewrite the formula; the collapse route instead
//! runs the *original* formula with every head and unrestricted variable
//! ranging over a finite domain derived from the database, padded with a
//! **slack** fringe ([`collapse_domain`]):
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
//! domain (a forced [`crate::Strategy::ActiveDomainEnum`] plan, and the
//! SA401 / SA413 fallbacks of the automata route).
//!
//! [`DomainEvaluator`] is the naive, ungoverned reference every route is
//! checked against: it interprets the formula one assignment at a time
//! over a [`Domain`], every quantifier looping over its range, and it
//! decides `in` / `pl` atoms with Brzozowski derivatives
//! ([`strcalc_automata::derivative::matches`]), so it shares no automaton
//! with the routes it checks. Over `Σ^{≤B}` it is the bounded-search
//! semantics of `RC_concat` ([`crate::concat`]).

// Panic audit: this module sits on the hot evaluation path, so every
// potential panic must be a messaged `expect` documenting its invariant
// (tests are exempt below).
#![deny(clippy::unwrap_used)]

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

use strcalc_alphabet::{Alphabet, Str};
use strcalc_automata::{derivative, Regex};
use strcalc_logic::transform::quantifier_rank;
use strcalc_logic::{Atom, Formula, Restrict, Term};
use strcalc_relational::{Database, Relation, Row};

use crate::generate::Domain;
use crate::query::{check_head, Calculus, CoreError, Query};

/// The naive evaluator over an explicit finite domain.
pub struct DomainEvaluator<'a> {
    alphabet: &'a Alphabet,
    db: &'a Database,
    /// What head and unrestricted variables range over.
    domain: Vec<Str>,
    /// The active domain of the in-alphabet rows, sorted.
    adom: Vec<Str>,
}

/// The finite collapse domain for `q` on `db`. `slack` is the fringe
/// width; `None` derives `quantifier_rank + 1` from the formula.
pub fn collapse_domain(q: &Query, db: &Database, slack: Option<usize>) -> Domain {
    let slack = slack.unwrap_or_else(|| quantifier_rank(q.formula()) + 1);
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
    /// An evaluator whose head and unrestricted variables range over
    /// `domain` (a finite one: not `Σ*`).
    pub fn new(alphabet: &'a Alphabet, db: &'a Database, domain: Domain) -> DomainEvaluator<'a> {
        DomainEvaluator {
            alphabet,
            db,
            domain: domain.strings(alphabet),
            adom: db.adom_within(alphabet.len() as u8).into_iter().collect(),
        }
    }

    /// The tuples, in head order, that satisfy `f` with every head
    /// variable ranging over the domain; the head must list `f`'s free
    /// variables. A sentence's answer is `{()}` when it holds and `∅`
    /// otherwise.
    pub fn answer(&self, f: &Formula, head: &[String]) -> Result<Relation, CoreError> {
        check_head(head, f)?;
        let mut out = Vec::new();
        let mut tuple = Vec::with_capacity(head.len());
        self.head_loop(f, head, &mut HashMap::new(), &mut tuple, &mut out)?;
        Ok(Relation::from_tuples(head.len(), out))
    }

    fn head_loop(
        &self,
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
    fn term_value(&self, t: &Term, env: &HashMap<String, Str>) -> Result<Str, CoreError> {
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
    pub fn eval(&self, f: &Formula, env: &mut HashMap<String, Str>) -> Result<bool, CoreError> {
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
    ) -> Cow<'_, [Str]> {
        let restrict = match restrict {
            None => return Cow::Borrowed(&self.domain),
            Some(Restrict::Active) => return Cow::Borrowed(&self.adom),
            Some(r) => r,
        };
        let free = g.free_vars();
        let others = free.iter().filter(|w| *w != v).filter_map(|w| env.get(w));
        let scope = self.adom.iter().chain(others);
        Cow::Owned(match (restrict, scope.clone().map(Str::len).max()) {
            (Restrict::PrefixDom, _) => strcalc_alphabet::prefix_closure(scope)
                .into_iter()
                .collect(),
            (_, Some(m)) => self.alphabet.strings_up_to(m).collect(),
            (_, None) => Vec::new(),
        })
    }

    /// Whether some `v` in its range makes `g` evaluate to `holds`: `∃v g`
    /// with `holds`, and `¬∀v g` without.
    fn witness(
        &self,
        v: &str,
        g: &Formula,
        env: &mut HashMap<String, Str>,
        restrict: Option<Restrict>,
        holds: bool,
    ) -> Result<bool, CoreError> {
        let saved = env.get(v).cloned();
        let mut found = false;
        for c in self.range(restrict, v, g, env).iter() {
            env.insert(v.to_string(), c.clone());
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

    fn eval_atom(&self, a: &Atom, env: &HashMap<String, Str>) -> Result<bool, CoreError> {
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
            Atom::InLang(t, l) => self.in_lang(&self.term_value(t, env)?, &l.regex),
            Atom::PL(x, y, l) => {
                let (vx, vy) = (self.term_value(x, env)?, self.term_value(y, env)?);
                vx.is_prefix_of(&vy) && self.in_lang(&vy.subtract(&vx), &l.regex)
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

    /// Whether `w ∈ L(r)`: a language over `Σ` holds no word with a
    /// symbol outside it.
    fn in_lang(&self, w: &Str, r: &Regex) -> bool {
        w.within(self.alphabet.len() as u8) && derivative::matches(r, w)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::plan::{Planner, Strategy};
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

    /// The reference answer over `q`'s collapse domain at the derived
    /// slack, checked against the forced collapse plan's.
    fn answer(q: &Query) -> Relation {
        let db = db();
        let domain = collapse_domain(q, &db, None);
        let reference = DomainEvaluator::new(q.alphabet(), &db, domain)
            .answer(q.formula(), q.head())
            .unwrap();
        let plan = Planner::new().force(Strategy::ActiveDomainEnum).plan(q);
        let routed = plan.unwrap().execute(&db).unwrap().0.expect_finite();
        assert_eq!(reference, routed, "{}", q.formula());
        reference
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
        for query in &queries {
            let a = exact.eval(query, &db()).unwrap().expect_finite();
            let b = answer(query);
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
        for query in &sentences {
            let a = exact.eval_bool(query, &db()).unwrap();
            let b = !answer(query).is_empty();
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
        let out = answer(&query);
        assert_eq!(out.len(), 3);
        assert!(out.contains(&[s("aba")]));
    }

    #[test]
    fn domain_shapes() {
        let domain = |calc| collapse_domain(&q(calc, &["x"], "R(x)"), &db(), Some(1));
        let dq = domain(Calculus::S);
        // prefix closure of {ab,ba,bab} = {ε,a,ab,b,ba,bab} (6), each
        // extended by ≤1 symbol: 6 + new one-extensions.
        assert!(dq.contains(&s("")));
        assert!(dq.contains(&s("babb")));
        assert!(!dq.contains(&s("babba")));

        let dl = domain(Calculus::SLen);
        assert_eq!(dl, Domain::UpTo(4)); // maxlen 3 + slack 1

        let dleft = domain(Calculus::SLeft);
        assert!(dleft.contains(&s("abab"))); // a·bab prepended
    }
}
