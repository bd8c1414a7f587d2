//! The collapse-based enumeration engine (the baseline).
//!
//! Proposition 2 of the paper shows that over `S` quantification can be
//! restricted to prefixes of the active domain (plus parameters), and
//! Theorem 2 shows that over `S_len` quantification can be restricted by
//! length. Both results rewrite the formula; this engine instead runs the
//! *original* formula with quantifiers ranging over a finite domain
//! derived from the database, padded with a **slack** fringe:
//!
//! * `S` / `S_reg`: the prefix closure of `adom ∪ constants`, extended by
//!   all suffixes of length ≤ slack;
//! * `S_left`: the same, additionally closed under prepending up to slack
//!   symbols (the `F_a` functions move strings out of the prefix
//!   closure);
//! * `S_len`: all strings of length ≤ maxlen(`adom ∪ constants`) + slack.
//!
//! With slack derived from the formula this is exact on every query in
//! the test corpus (cross-validated against [`crate::AutomataEngine`]);
//! it is also the honest cost model for the paper's complexity
//! statements: polynomial for the prefix-domain calculi (Corollary 2),
//! exponential for `S_len` (Corollary 4) — the domain itself is
//! `|Σ|^maxlen`.
//!
//! The same recursive evaluator, pointed at the bounded domain
//! `Σ^{≤B}`, powers the `RC_concat` demonstrations in [`crate::concat`]
//! (concatenation is directly computable here, unlike in the automata
//! engine).

// Panic audit: this module sits on the hot evaluation path, so every
// potential panic must be a messaged `expect` documenting its invariant
// (tests are exempt below).
#![deny(clippy::unwrap_used)]

use std::collections::{BTreeSet, HashMap};

use strcalc_alphabet::{Alphabet, Str};
use strcalc_automata::Dfa;
use strcalc_logic::transform::quantifier_rank;
use strcalc_logic::{Atom, Formula, Lang, Restrict, Term};
use strcalc_relational::{Database, Relation};

use crate::clock::Deadline;
use crate::query::{Calculus, CoreError, Query};

/// The enumeration engine.
#[derive(Debug, Clone)]
pub struct EnumEngine {
    /// Fringe width; `None` derives `quantifier_rank + 1` per query.
    pub slack: Option<usize>,
    /// Memoize subformula results (ablation toggle).
    pub memoize: bool,
}

impl Default for EnumEngine {
    fn default() -> Self {
        EnumEngine {
            slack: None,
            memoize: true,
        }
    }
}

/// Memo key: subformula id + the assignment restricted to its free vars.
type MemoKey = (usize, Vec<(String, Str)>);

/// Shared recursive evaluator against an explicit finite domain.
pub struct DomainEvaluator<'a> {
    pub alphabet: &'a Alphabet,
    pub db: &'a Database,
    /// Quantifier range for unrestricted quantifiers.
    pub domain: Vec<Str>,
    dfa_cache: HashMap<Lang, Dfa>,
    memo: Option<HashMap<MemoKey, bool>>,
    /// Cooperative deadline, polled once per quantifier candidate.
    /// [`DomainEvaluator::new`] installs an unlimited one (a single
    /// relaxed atomic per poll); governed runs thread theirs in via
    /// [`DomainEvaluator::with_deadline`].
    deadline: Deadline,
}

impl EnumEngine {
    pub fn new() -> EnumEngine {
        EnumEngine::default()
    }

    pub fn with_slack(slack: usize) -> EnumEngine {
        EnumEngine {
            slack: Some(slack),
            ..EnumEngine::default()
        }
    }

    fn effective_slack(&self, q: &Query) -> usize {
        self.slack
            .unwrap_or_else(|| quantifier_rank(&q.formula) + 1)
    }

    /// The finite quantifier domain for `q` on `db`.
    pub fn domain(&self, q: &Query, db: &Database) -> Vec<Str> {
        let slack = self.effective_slack(q);
        let mut base: BTreeSet<Str> = db.adom();
        collect_constants(&q.formula, &mut base);
        match q.calculus {
            Calculus::S | Calculus::SReg => prefix_fringe(&q.alphabet, &base, slack, false),
            Calculus::SLeft => prefix_fringe(&q.alphabet, &base, slack, true),
            Calculus::SLen => {
                let max = base.iter().map(Str::len).max().unwrap_or(0) + slack;
                q.alphabet.strings_up_to(max).collect()
            }
        }
    }

    fn eval_tuples(
        &self,
        q: &Query,
        ev: &mut DomainEvaluator<'_>,
        env: &mut HashMap<String, Str>,
        depth: usize,
        tuple: &mut Vec<Str>,
        out: &mut Relation,
    ) -> Result<(), CoreError> {
        if depth == q.arity() {
            if ev.eval(&q.formula, env)? {
                out.insert(tuple.clone());
            }
            return Ok(());
        }
        let candidates = ev.domain.clone();
        for c in candidates {
            env.insert(q.head[depth].clone(), c.clone());
            tuple[depth] = c;
            self.eval_tuples(q, ev, env, depth + 1, tuple, out)?;
        }
        env.remove(&q.head[depth]);
        Ok(())
    }

    /// Evaluates `q` under a cooperative deadline: candidate tuples are
    /// drawn from the same finite domain. **Assumes the query is
    /// range-restricted** (safe with output inside the domain); use the
    /// automata engine for exact semantics on arbitrary queries. A
    /// sentence is a 0-ary query: its answer is `{()}` when it holds and
    /// `∅` otherwise. Callers that want no deadline pass
    /// [`Deadline::unlimited`].
    ///
    /// The deadline is polled once per depth-0 frontier candidate (and
    /// per quantifier candidate inside the evaluator); on expiry the
    /// enumeration stops and returns what completed — every tuple in
    /// the partial output was fully verified, so the result is a sound
    /// subset. Returns `(tuples, frontier_candidates_completed,
    /// truncated)`.
    pub fn eval(
        &self,
        q: &Query,
        db: &Database,
        deadline: &Deadline,
    ) -> Result<(Relation, usize, bool), CoreError> {
        self.eval_over(q, db, self.domain(q, db), deadline)
    }

    /// [`Self::eval`] over a `domain` the caller already built with
    /// [`Self::domain`], so a caller that reports its size builds it
    /// once.
    pub(crate) fn eval_over(
        &self,
        q: &Query,
        db: &Database,
        domain: Vec<Str>,
        deadline: &Deadline,
    ) -> Result<(Relation, usize, bool), CoreError> {
        let mut ev = DomainEvaluator::new(&q.alphabet, db, domain, self.memoize)
            .with_deadline(deadline.clone());
        let mut env: HashMap<String, Str> = HashMap::new();
        let mut out = Relation::new(q.arity());
        let mut tuple = vec![Str::epsilon(); q.arity()];
        let mut seen = 0usize;
        let mut truncated = false;
        if q.arity() == 0 {
            // Arity-0 (sentence-shaped) enumeration has one frontier
            // candidate: the empty tuple.
            if deadline.checkpoint() {
                return Ok((out, 0, true));
            }
            match self.eval_tuples(q, &mut ev, &mut env, 0, &mut tuple, &mut out) {
                Ok(()) => seen = 1,
                Err(CoreError::DeadlineExpired { .. }) => truncated = true,
                Err(e) => return Err(e),
            }
            return Ok((out, seen, truncated));
        }
        let candidates = ev.domain.clone();
        for c in candidates {
            if deadline.checkpoint() {
                truncated = true;
                break;
            }
            env.insert(q.head[0].clone(), c.clone());
            tuple[0] = c;
            match self.eval_tuples(q, &mut ev, &mut env, 1, &mut tuple, &mut out) {
                Ok(()) => seen += 1,
                Err(CoreError::DeadlineExpired { .. }) => {
                    truncated = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok((out, seen, truncated))
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
    pub fn new(
        alphabet: &'a Alphabet,
        db: &'a Database,
        domain: Vec<Str>,
        memoize: bool,
    ) -> DomainEvaluator<'a> {
        DomainEvaluator {
            alphabet,
            db,
            domain,
            dfa_cache: HashMap::new(),
            memo: if memoize { Some(HashMap::new()) } else { None },
            deadline: Deadline::unlimited(),
        }
    }

    /// Threads a governed run's deadline into the evaluator; quantifier
    /// loops poll it per candidate and abort with
    /// [`CoreError::DeadlineExpired`] on expiry.
    pub fn with_deadline(mut self, deadline: Deadline) -> DomainEvaluator<'a> {
        self.deadline = deadline;
        self
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

    /// Evaluates a formula under `env`, quantifiers ranging over the
    /// evaluator's finite domain.
    pub fn eval(&mut self, f: &Formula, env: &mut HashMap<String, Str>) -> Result<bool, CoreError> {
        // Memo key: formula address + restriction of env to free vars.
        let key = if self.memo.is_some() {
            let mut fv: Vec<(String, Str)> = f
                .free_vars()
                .into_iter()
                .filter_map(|v| env.get(&v).map(|s| (v, s.clone())))
                .collect();
            fv.sort();
            Some((f as *const Formula as usize, fv))
        } else {
            None
        };
        if let (Some(memo), Some(k)) = (&self.memo, &key) {
            if let Some(&v) = memo.get(k) {
                return Ok(v);
            }
        }
        let result = self.eval_inner(f, env)?;
        if let (Some(memo), Some(k)) = (&mut self.memo, key) {
            memo.insert(k, result);
        }
        Ok(result)
    }

    fn eval_inner(
        &mut self,
        f: &Formula,
        env: &mut HashMap<String, Str>,
    ) -> Result<bool, CoreError> {
        Ok(match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => self.eval_atom(a, env)?,
            Formula::Not(g) => !self.eval(g, env)?,
            Formula::And(a, b) => self.eval(a, env)? && self.eval(b, env)?,
            Formula::Or(a, b) => self.eval(a, env)? || self.eval(b, env)?,
            Formula::Implies(a, b) => !self.eval(a, env)? || self.eval(b, env)?,
            Formula::Iff(a, b) => self.eval(a, env)? == self.eval(b, env)?,
            Formula::Exists(v, g) => self.quantify(v, g, env, None)?,
            Formula::Forall(v, g) => !self.quantify_neg(v, g, env, None)?,
            Formula::ExistsR(r, v, g) => self.quantify(v, g, env, Some(*r))?,
            Formula::ForallR(r, v, g) => !self.quantify_neg(v, g, env, Some(*r))?,
        })
    }

    fn range(&self, restrict: Option<Restrict>, env: &HashMap<String, Str>) -> Vec<Str> {
        match restrict {
            None => self.domain.clone(),
            Some(Restrict::Active) => self.db.adom().into_iter().collect(),
            Some(Restrict::PrefixDom) => {
                let mut base: BTreeSet<Str> = self.db.adom();
                base.extend(env.values().cloned());
                strcalc_alphabet::prefix_closure(base.iter())
                    .into_iter()
                    .collect()
            }
            Some(Restrict::LengthDom) => {
                let max = self
                    .db
                    .adom()
                    .iter()
                    .chain(env.values())
                    .map(Str::len)
                    .max();
                match max {
                    Some(m) => self.alphabet.strings_up_to(m).collect(),
                    None => Vec::new(),
                }
            }
        }
    }

    fn quantify(
        &mut self,
        v: &str,
        g: &Formula,
        env: &mut HashMap<String, Str>,
        restrict: Option<Restrict>,
    ) -> Result<bool, CoreError> {
        let saved = env.get(v).cloned();
        let mut found = false;
        for c in self.range(restrict, env) {
            // One poll per candidate; an expired deadline aborts the
            // whole evaluation (env state is discarded with it).
            if self.deadline.checkpoint() {
                return Err(self.expired());
            }
            env.insert(v.to_string(), c);
            if self.eval(g, env)? {
                found = true;
                break;
            }
        }
        restore(env, v, saved);
        Ok(found)
    }

    /// `∃v ¬g` — used to implement `∀v g` as its negation.
    fn quantify_neg(
        &mut self,
        v: &str,
        g: &Formula,
        env: &mut HashMap<String, Str>,
        restrict: Option<Restrict>,
    ) -> Result<bool, CoreError> {
        let saved = env.get(v).cloned();
        let mut found = false;
        for c in self.range(restrict, env) {
            if self.deadline.checkpoint() {
                return Err(self.expired());
            }
            env.insert(v.to_string(), c);
            if !self.eval(g, env)? {
                found = true;
                break;
            }
        }
        restore(env, v, saved);
        Ok(found)
    }

    /// The error a fired deadline unwinds with; callers on the governed
    /// path catch it and degrade (SA41x), everyone else propagates it.
    fn expired(&self) -> CoreError {
        CoreError::DeadlineExpired {
            checkpoint: self.deadline.fired_at().unwrap_or(0),
            detail: "deadline fired at a quantifier-frontier checkpoint".to_string(),
        }
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

fn restore(env: &mut HashMap<String, Str>, v: &str, saved: Option<Str>) {
    match saved {
        Some(s) => {
            env.insert(v.to_string(), s);
        }
        None => {
            env.remove(v);
        }
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

    /// The engine's answer with no deadline.
    fn answer(engine: &EnumEngine, q: &Query) -> Relation {
        engine.eval(q, &db(), &Deadline::unlimited()).unwrap().0
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
            assert_eq!(a, b, "engines disagree on {}", query.formula);
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
            assert_eq!(a, b, "engines disagree on {}", query.formula);
        }
    }

    #[test]
    fn memoization_is_transparent() {
        let query = q(
            Calculus::S,
            &[],
            "forall x. (R(x) -> exists y. (y <= x & last(y,'b')))",
        );
        let with = EnumEngine {
            memoize: true,
            ..EnumEngine::new()
        };
        let without = EnumEngine {
            memoize: false,
            ..EnumEngine::new()
        };
        assert_eq!(answer(&with, &query), answer(&without, &query));
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
        assert_eq!(dl.len(), ab().count_up_to(4)); // maxlen 3 + slack 1

        let dleft = e.domain(&q(Calculus::SLeft, &["x"], "R(x)"), &db());
        assert!(dleft.contains(&s("abab"))); // a·bab prepended
    }
}
