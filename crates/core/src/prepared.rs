//! Prepared queries: pay the formula → automaton compilation once,
//! evaluate many times.
//!
//! [`PreparedQuery`] is the handle [`AutomataEngine::prepare`] returns.
//! It memoizes the compiled artifact *per database content fingerprint*:
//! the first `eval` against a database compiles (or pulls from the
//! engine's [`AutomatonCache`] when one is attached); subsequent evals
//! against the same content reuse the memo with **zero** automaton
//! constructions — [`PreparedQuery::compilations`] counts them so tests
//! can assert exactly that. Evaluating against a *changed* database is
//! still correct: the content fingerprint differs, so the handle
//! recompiles rather than serving a stale automaton.
//!
//! [`AutomatonCache`]: crate::cache::AutomatonCache

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use strcalc_alphabet::Str;

use crate::cache::CompiledArtifact;
use crate::engine::AutomataEngine;
use crate::plan::{Plan, Planner, Strategy};
use crate::query::{CoreError, EvalOutput, Query};

/// A reusable compiled-query handle. Cheap to share; safe to call from
/// multiple threads.
#[derive(Debug)]
pub struct PreparedQuery {
    engine: AutomataEngine,
    query: Query,
    /// The automata plan this handle executes. The rewrite pass is
    /// disabled so the compiled formula — and hence the shared-cache
    /// fingerprint — is byte-identical to direct evaluation.
    plan: Plan,
    /// `(database content fingerprint, artifact)` of the last compile.
    memo: Mutex<Option<(u64, Arc<CompiledArtifact>)>>,
    /// Automaton constructions this handle has triggered (cache hits on
    /// the engine's shared cache do not count — nothing was built).
    compilations: AtomicU64,
}

impl AutomataEngine {
    /// Prepares `q` for repeated evaluation. A prepared handle memoizes
    /// a compiled automaton, so it plans with [`Strategy::Automata`]
    /// forced: its [`PreparedQuery::plan`] describes what it executes.
    /// Compilation itself stays lazy — it happens on the first
    /// `eval`-family call, keyed by database content.
    pub fn prepare(&self, q: Query) -> PreparedQuery {
        let plan = Planner::for_engine(self)
            .force(Strategy::Automata)
            .with_rewrite(false)
            .plan(&q)
            .expect("invariant: every typed query admits a plan");
        PreparedQuery {
            engine: self.clone(),
            query: q,
            plan,
            memo: Mutex::new(None),
            compilations: AtomicU64::new(0),
        }
    }
}

impl PreparedQuery {
    /// The underlying query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The plan this handle executes: an automata plan, with this handle
    /// acting as the memoizing front of its executor.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// `EXPLAIN` for this prepared handle, without executing.
    pub fn explain(&self) -> String {
        self.plan.explain_text()
    }

    /// How many automaton constructions this handle has performed.
    /// After two `eval`s on the same database this is exactly 1.
    pub fn compilations(&self) -> u64 {
        self.compilations.load(Ordering::Relaxed)
    }

    /// The memoized-or-compiled artifact for `db`'s current content.
    fn artifact(
        &self,
        db: &strcalc_relational::Database,
    ) -> Result<Arc<CompiledArtifact>, CoreError> {
        let instance = db.fingerprint();
        {
            let memo = self.memo.lock().unwrap_or_else(|p| p.into_inner());
            if let Some((fp, artifact)) = memo.as_ref() {
                if *fp == instance {
                    return Ok(Arc::clone(artifact));
                }
            }
        }
        let (artifact, fresh) = self.engine.compile_shared(&self.query, db)?;
        if fresh {
            self.compilations.fetch_add(1, Ordering::Relaxed);
        }
        let mut memo = self.memo.lock().unwrap_or_else(|p| p.into_inner());
        *memo = Some((instance, Arc::clone(&artifact)));
        Ok(artifact)
    }

    /// Exact evaluation — agrees with [`AutomataEngine::eval`] on the
    /// same query and database (the differential tests assert this).
    pub fn eval(&self, db: &strcalc_relational::Database) -> Result<EvalOutput, CoreError> {
        let artifact = self.artifact(db)?;
        self.engine.eval_artifact(&self.query, db, &artifact)
    }

    /// Boolean (sentence) evaluation.
    pub fn eval_bool(&self, db: &strcalc_relational::Database) -> Result<bool, CoreError> {
        // Checked before the memo, so a memo hit cannot skip it.
        crate::engine::require_sentence(&self.query)?;
        let artifact = self.artifact(db)?;
        Ok(artifact.auto.is_true())
    }

    /// Exact output cardinality (`None` = infinite).
    pub fn count(&self, db: &strcalc_relational::Database) -> Result<Option<u64>, CoreError> {
        let artifact = self.artifact(db)?;
        Ok(AutomataEngine::count_artifact(&artifact))
    }

    /// Membership of one candidate tuple (in head order).
    pub fn contains(
        &self,
        db: &strcalc_relational::Database,
        tuple: &[Str],
    ) -> Result<bool, CoreError> {
        let artifact = self.artifact(db)?;
        AutomataEngine::contains_artifact(&self.query, &artifact, tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AutomatonCache;
    use crate::query::Calculus;
    use strcalc_alphabet::Alphabet;
    use strcalc_relational::Database;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_unary_parsed(&Alphabet::ab(), "R", &["ab", "ba", "bab"])
            .unwrap();
        db
    }

    fn q(head: &[&str], src: &str) -> Query {
        Query::parse(
            Calculus::S,
            Alphabet::ab(),
            head.iter().map(|h| h.to_string()).collect(),
            src,
        )
        .unwrap()
    }

    #[test]
    fn prepared_agrees_with_direct_eval_and_compiles_once() {
        let engine = AutomataEngine::new();
        let query = q(&["x"], "exists y. (R(y) & x <= y)");
        let direct = engine.eval(&query, &db()).unwrap();
        let prepared = engine.prepare(query);
        assert_eq!(prepared.compilations(), 0, "compilation is lazy");
        let first = prepared.eval(&db()).unwrap();
        let second = prepared.eval(&db()).unwrap();
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        assert_eq!(prepared.compilations(), 1, "second eval reuses the memo");
        assert_eq!(prepared.count(&db()).unwrap(), Some(6));
        assert_eq!(prepared.compilations(), 1);
    }

    #[test]
    fn database_change_recompiles_instead_of_serving_stale_results() {
        let engine = AutomataEngine::new();
        let prepared = engine.prepare(q(&["x"], "R(x) & last(x, 'b')"));
        let d1 = db();
        assert_eq!(prepared.count(&d1).unwrap(), Some(2));
        let mut d2 = d1.clone();
        d2.insert_unary_parsed(&Alphabet::ab(), "R", &["aab"])
            .unwrap();
        assert_eq!(prepared.count(&d2).unwrap(), Some(3));
        assert_eq!(prepared.compilations(), 2);
    }

    #[test]
    fn prepared_handles_share_the_engine_cache() {
        let cache = std::sync::Arc::new(AutomatonCache::new());
        let engine = AutomataEngine::new().with_cache(std::sync::Arc::clone(&cache));
        let p1 = engine.prepare(q(&["x"], "R(x)"));
        let p2 = engine.prepare(q(&["x"], "R(x)"));
        p1.eval(&db()).unwrap();
        p2.eval(&db()).unwrap();
        // p2's compile was served by the shared cache: no construction.
        assert_eq!(p1.compilations(), 1);
        assert_eq!(p2.compilations(), 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn prepared_routes_through_the_planner_with_rewriting_off() {
        let engine = AutomataEngine::new();
        let prepared = engine.prepare(q(&["x"], "exists y. (R(y) & x <= y)"));
        assert_eq!(prepared.plan().strategy, crate::plan::Strategy::Automata);
        let rewrite = &prepared.plan().passes[0];
        assert_eq!(rewrite.pass, "rewrite");
        assert!(!rewrite.changed, "prepared handles must not rewrite");
        assert!(prepared.explain().contains("strategy: automata"));
    }

    #[test]
    fn eval_bool_requires_a_sentence() {
        let engine = AutomataEngine::new();
        let prepared = engine.prepare(q(&["x"], "R(x)"));
        assert!(prepared.eval_bool(&db()).is_err());
        let sentence = engine.prepare(q(&[], "exists x. R(x)"));
        assert!(sentence.eval_bool(&db()).unwrap());
    }
}
