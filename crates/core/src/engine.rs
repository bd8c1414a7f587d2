//! The exact evaluation engine.
//!
//! `RC(SC, M)` queries compile to synchronized automata (see
//! `strcalc-logic::compile` and `strcalc-synchro`); evaluation is then
//! language theory: emptiness for Boolean queries, finiteness +
//! enumeration for open queries. Quantifiers range over the *infinite*
//! domain `Σ*` — no active-domain approximation — which is what makes the
//! safety analyses of Section 6 exact algorithms here.

use std::collections::HashMap;
use std::sync::Arc;

use strcalc_alphabet::{Alphabet, Str, Sym};
use strcalc_analyze::FactSheet;
use strcalc_logic::compile::{Compiled, Compiler, Resolved};
use strcalc_logic::{CompileError, Formula, RelResolver};
use strcalc_relational::{Database, Relation};
use strcalc_synchro::{SyncFiniteness, SyncNfa};

use crate::cache::{AutomatonCache, CacheKey, CompiledArtifact};
use crate::query::{CoreError, EvalOutput, Query};

/// Resolver backed by a concrete database over the first `k` symbols.
pub struct DbResolver<'a> {
    pub db: &'a Database,
    pub k: Sym,
    /// Additional *virtual* relations given directly as automata (used by
    /// the finiteness sentence of Section 6.1, where `U` is a possibly
    /// infinite query output).
    pub virtuals: HashMap<String, SyncNfa>,
}

impl<'a> RelResolver for DbResolver<'a> {
    fn resolve(&self, name: &str, arity: usize) -> Result<Resolved, CompileError> {
        if let Some(a) = self.virtuals.get(name) {
            if a.arity() != arity {
                return Err(CompileError::ArityMismatch {
                    name: name.to_string(),
                    expected: a.arity(),
                    found: arity,
                });
            }
            return Ok(Resolved::Automaton(a.clone()));
        }
        match self.db.relation(name) {
            Some(r) => {
                if r.arity() != arity {
                    return Err(CompileError::ArityMismatch {
                        name: name.to_string(),
                        expected: r.arity(),
                        found: arity,
                    });
                }
                Ok(Resolved::Tuples(r.rows_within(self.k).cloned().collect()))
            }
            None => Err(CompileError::UnknownRelation(name.to_string())),
        }
    }
}

/// The exact engine. See the module docs.
///
/// This is the one place that knows how a compiled automaton is built
/// over a database, keyed, and looked up in a shared cache: plans, the
/// validator and the direct `eval`-family calls all go through it.
#[derive(Debug, Clone)]
pub struct AutomataEngine {
    /// Symbol-space cap for complements.
    pub cap: usize,
    /// Minimize intermediate automata above this many states.
    pub minimize_threshold: usize,
    /// How many witness tuples to sample for infinite outputs.
    pub sample: usize,
    /// Optional compilation cache shared across engines, plans and
    /// validators. `None` (the default) compiles on every call.
    pub cache: Option<Arc<AutomatonCache>>,
}

/// A compiled automaton's cache slot, probed once: the key it lives
/// under and the artifact resident there, if any.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    pub(crate) key: CacheKey,
    pub(crate) resident: Option<Arc<CompiledArtifact>>,
}

impl Default for AutomataEngine {
    fn default() -> Self {
        AutomataEngine {
            cap: 2_000_000,
            minimize_threshold: 64,
            sample: 5,
            cache: None,
        }
    }
}

impl AutomataEngine {
    pub fn new() -> AutomataEngine {
        AutomataEngine::default()
    }

    /// Attaches a shared compilation cache: `compile`d artifacts are
    /// stored and re-served by [`CacheKey`] instead of recompiled.
    pub fn with_cache(mut self, cache: Arc<AutomatonCache>) -> AutomataEngine {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<AutomatonCache>> {
        self.cache.as_ref()
    }

    /// The cache key for compiling the formula whose fact sheet is
    /// `sheet` over `alphabet` against `db` under this engine's
    /// configuration.
    ///
    /// The key folds in the formula's evaluation class (the sheet's
    /// class fingerprint): the formula fingerprint is α-invariant but
    /// classification-blind, so a formula re-classified after a rewrite
    /// (e.g. into the linear LIKE class, whose executor builds no
    /// automaton) must not alias the automaton another classification
    /// compiled under the same structural fingerprint.
    pub fn cache_key(&self, sheet: &FactSheet, alphabet: &Alphabet, db: &Database) -> CacheKey {
        let mut config = strcalc_logic::Fp::new();
        config
            .u64(self.cap as u64)
            .u64(self.minimize_threshold as u64)
            .u64(sheet.class_fingerprint);
        CacheKey {
            formula: sheet.fingerprint,
            instance: db.fingerprint(),
            alphabet: alphabet.fingerprint(),
            config: config.finish(),
        }
    }

    /// The cache key for a dense DFA table over `lang` under `alphabet`.
    ///
    /// A dense table depends only on the language and the alphabet —
    /// not on the instance or this engine's automata configuration — so
    /// the instance channel is zeroed (the table survives data changes) and the config channel carries
    /// a fixed tier tag so dense slots can never alias a compiled
    /// automaton whose formula fingerprint happens to collide with a
    /// language fingerprint.
    pub fn dense_cache_key(&self, lang: &strcalc_logic::Lang, alphabet: &Alphabet) -> CacheKey {
        let mut config = strcalc_logic::Fp::new();
        config.u64(u64::from_le_bytes(*b"densedfa"));
        CacheKey {
            formula: strcalc_logic::lang_fingerprint(lang),
            instance: 0,
            alphabet: alphabet.fingerprint(),
            config: config.finish(),
        }
    }

    /// Looks up the artifact of the formula whose fact sheet is `sheet`
    /// in the attached cache: one counted lookup. `None` when no cache
    /// is attached.
    pub(crate) fn probe(
        &self,
        sheet: &FactSheet,
        alphabet: &Alphabet,
        db: &Database,
    ) -> Option<Slot> {
        let cache = self.cache.as_ref()?;
        let key = self.cache_key(sheet, alphabet, db);
        let resident = cache.get(&key);
        Some(Slot { key, resident })
    }

    /// Compiles `f` and, given a key, stores the artifact under it.
    pub(crate) fn fill(
        &self,
        key: Option<CacheKey>,
        f: &Formula,
        alphabet: &Alphabet,
        db: &Database,
    ) -> Result<Arc<CompiledArtifact>, CompileError> {
        let compiled = self.compile_in(f, alphabet, db, HashMap::new())?;
        let artifact = Arc::new(CompiledArtifact::from_compiled(compiled));
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            cache.insert(key, Arc::clone(&artifact));
        }
        Ok(artifact)
    }

    /// The artifact for `f` against `db`: served from the attached
    /// cache when resident, otherwise compiled (and stored when a cache
    /// is attached). The key reads `f`'s fact sheet, built here only
    /// when a cache is attached. Virtual-relation compilations
    /// ([`Self::compile_with`]) never touch the cache.
    pub fn compile_shared(
        &self,
        f: &Formula,
        alphabet: &Alphabet,
        db: &Database,
    ) -> Result<Arc<CompiledArtifact>, CompileError> {
        let head: Vec<String> = f.free_vars().into_iter().collect();
        let sheet = self
            .cache
            .as_ref()
            .map(|_| FactSheet::build(f, &head, alphabet.len() as u8));
        self.compile_cached(sheet.as_ref(), f, alphabet, db)
    }

    /// [`Self::compile_shared`] with `f`'s fact sheet in hand.
    fn compile_cached(
        &self,
        sheet: Option<&FactSheet>,
        f: &Formula,
        alphabet: &Alphabet,
        db: &Database,
    ) -> Result<Arc<CompiledArtifact>, CompileError> {
        match sheet.and_then(|sheet| self.probe(sheet, alphabet, db)) {
            Some(Slot {
                resident: Some(hit),
                ..
            }) => Ok(hit),
            slot => self.fill(slot.map(|s| s.key), f, alphabet, db),
        }
    }

    /// Compiles `q` against `db` into an automaton over the head
    /// variables (track order = sorted variable names).
    pub fn compile(&self, q: &Query, db: &Database) -> Result<Compiled, CoreError> {
        self.compile_with(q, db, HashMap::new())
    }

    /// Compilation with additional virtual (automaton-valued) relations.
    pub fn compile_with(
        &self,
        q: &Query,
        db: &Database,
        virtuals: HashMap<String, SyncNfa>,
    ) -> Result<Compiled, CoreError> {
        Ok(self.compile_in(q.formula(), q.alphabet(), db, virtuals)?)
    }

    /// The one compiler over a database: `db`'s relations (plus any
    /// virtual ones) resolve the atoms, the active domain of its
    /// in-alphabet rows bounds the restricted quantifiers.
    fn compile_in(
        &self,
        f: &Formula,
        alphabet: &Alphabet,
        db: &Database,
        virtuals: HashMap<String, SyncNfa>,
    ) -> Result<Compiled, CompileError> {
        let k = alphabet.len() as u8;
        let resolver = DbResolver { db, k, virtuals };
        let adom: Vec<Str> = db.adom_within(k).into_iter().collect();
        let compiler = Compiler {
            k,
            cap: self.cap,
            rels: &resolver,
            adom: Some(&adom),
            minimize_threshold: self.minimize_threshold,
        };
        compiler.compile(f)
    }

    /// The cached-or-compiled artifact for a typed query.
    fn artifact(&self, q: &Query, db: &Database) -> Result<Arc<CompiledArtifact>, CoreError> {
        Ok(self.compile_cached(Some(q.sheet()), q.formula(), q.alphabet(), db)?)
    }

    /// Exact evaluation: a finite relation (tuples in head order) or an
    /// infiniteness verdict with sample tuples.
    pub fn eval(&self, q: &Query, db: &Database) -> Result<EvalOutput, CoreError> {
        let artifact = self.artifact(q, db)?;
        self.eval_artifact(q, db, &artifact)
    }

    /// Boolean (sentence) evaluation. The sentence check runs before
    /// compiling, so a non-sentence fails cheaply.
    pub fn eval_bool(&self, q: &Query, db: &Database) -> Result<bool, CoreError> {
        if !q.is_boolean() {
            return Err(CoreError::Unsupported(
                "eval_bool requires a sentence".into(),
            ));
        }
        Ok(self.artifact(q, db)?.dfa().is_true())
    }

    /// Exact output cardinality without materializing (`None` =
    /// infinite).
    pub fn count(&self, q: &Query, db: &Database) -> Result<Option<u64>, CoreError> {
        Ok(match self.artifact(q, db)?.finiteness() {
            SyncFiniteness::Empty => Some(0),
            SyncFiniteness::Finite(n) => Some(n),
            SyncFiniteness::Infinite => None,
        })
    }

    /// Membership of a single candidate tuple (in head order) in the
    /// query output — without enumerating anything.
    pub fn contains(&self, q: &Query, db: &Database, tuple: &[Str]) -> Result<bool, CoreError> {
        if tuple.len() != q.arity() {
            return Err(CoreError::Unsupported("tuple arity mismatch".into()));
        }
        let artifact = self.artifact(q, db)?;
        let by_track: Vec<&Str> = artifact
            .var_names()
            .iter()
            .map(|name| {
                let pos = q
                    .head()
                    .iter()
                    .position(|h| h == name)
                    .expect("validated head");
                &tuple[pos]
            })
            .collect();
        Ok(artifact.dfa().accepts(&by_track))
    }

    /// Evaluation against an already-compiled artifact: the one reader
    /// of an answer off an automaton, shared by [`Self::eval`], the
    /// plan's automata executor and [`crate::safety::state_safety`]. It
    /// reads the artifact's stored verdict and walks its stored DFA.
    pub(crate) fn eval_artifact(
        &self,
        q: &Query,
        db: &Database,
        artifact: &CompiledArtifact,
    ) -> Result<EvalOutput, CoreError> {
        // Column permutation: track order is sorted names; the head may
        // order them differently.
        let perm: Vec<usize> = q
            .head()
            .iter()
            .map(|h| {
                artifact
                    .var_names()
                    .iter()
                    .position(|v| v == h)
                    .expect("validated: head = free vars")
            })
            .collect();
        let permute = |t: Vec<Str>| -> Vec<Str> { perm.iter().map(|&i| t[i].clone()).collect() };
        match artifact.finiteness() {
            SyncFiniteness::Empty => Ok(EvalOutput::Finite(Relation::new(q.arity()))),
            SyncFiniteness::Finite(n) => {
                let tuples = artifact.dfa().enumerate_acyclic();
                debug_assert_eq!(tuples.len() as u64, n);
                let rel = Relation::from_tuples(q.arity(), tuples.into_iter().map(permute));
                Ok(EvalOutput::Finite(rel))
            }
            SyncFiniteness::Infinite => {
                let raw = artifact.dfa().enumerate(db.max_len() + 8, self.sample);
                let sample = raw.into_iter().map(permute).collect();
                Ok(EvalOutput::Infinite { sample })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Calculus;
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

    #[test]
    fn arity_mismatch_is_a_structured_error() {
        // R is unary in the database but used as binary in the formula.
        let query = q(Calculus::S, &[], "exists x. exists y. R(x, y)");
        let err = AutomataEngine::new().eval_bool(&query, &db()).unwrap_err();
        let CoreError::Compile(CompileError::ArityMismatch {
            name,
            expected,
            found,
        }) = err
        else {
            panic!("expected ArityMismatch, got {err}");
        };
        assert_eq!((name.as_str(), expected, found), ("R", 1, 2));
        assert!(err_display_mentions_both_arities());
    }

    fn err_display_mentions_both_arities() -> bool {
        let e = CompileError::ArityMismatch {
            name: "R".into(),
            expected: 1,
            found: 2,
        };
        let msg = e.to_string();
        msg.contains("arity 1") && msg.contains("2 argument")
    }

    #[test]
    fn select_ending_in_b() {
        // φ(x) = R(x) ∧ L_b(x)
        let query = q(Calculus::S, &["x"], "R(x) & last(x,'b')");
        let out = AutomataEngine::new().eval(&query, &db()).unwrap();
        let rel = out.expect_finite();
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&[s("ab")]));
        assert!(rel.contains(&[s("bab")]));
    }

    #[test]
    fn prefixes_of_r() {
        // φ(x) = ∃y (R(y) ∧ x ⪯ y): finite output (prefix closure).
        let query = q(Calculus::S, &["x"], "exists y. (R(y) & x <= y)");
        let out = AutomataEngine::new().eval(&query, &db()).unwrap();
        let rel = out.expect_finite();
        // prefixes of ab, ba, bab: ε,a,ab,b,ba,bab → 6
        assert_eq!(rel.len(), 6);
        assert!(rel.contains(&[Str::epsilon()]));
    }

    #[test]
    fn infinite_extension_query() {
        // φ(x) = ∃y (R(y) ∧ y ⪯ x): infinitely many extensions.
        let query = q(Calculus::S, &["x"], "exists y. (R(y) & y <= x)");
        let out = AutomataEngine::new().eval(&query, &db()).unwrap();
        match out {
            EvalOutput::Infinite { sample } => {
                assert!(!sample.is_empty());
                // Every sample extends an R-string.
                for t in &sample {
                    assert!(
                        s("ab").is_prefix_of(&t[0])
                            || s("ba").is_prefix_of(&t[0])
                            || s("bab").is_prefix_of(&t[0])
                    );
                }
            }
            other => panic!("expected infinite, got {other:?}"),
        }
    }

    #[test]
    fn boolean_queries() {
        let e = AutomataEngine::new();
        assert!(
            e.eval_bool(&q(Calculus::S, &["x"], "R(x)"), &db()).is_err(),
            "eval_bool requires a sentence"
        );
        assert!(e
            .eval_bool(
                &q(Calculus::S, &[], "exists x. (R(x) & last(x,'a'))"),
                &db()
            )
            .unwrap());
        assert!(!e
            .eval_bool(
                &q(
                    Calculus::S,
                    &[],
                    "exists x. (R(x) & first(x,'a') & last(x,'a'))"
                ),
                &db()
            )
            .unwrap());
        // ∀-sentence: every R string contains a 'b'... check via prefix
        // trick: every R string has some prefix ending in b.
        assert!(e
            .eval_bool(
                &q(
                    Calculus::S,
                    &[],
                    "forall x. (R(x) -> exists y. (y <= x & last(y,'b')))"
                ),
                &db()
            )
            .unwrap());
    }

    #[test]
    fn count_and_contains() {
        let e = AutomataEngine::new();
        let query = q(Calculus::S, &["x"], "exists y. (R(y) & x <= y)");
        assert_eq!(e.count(&query, &db()).unwrap(), Some(6));
        assert!(e.contains(&query, &db(), &[s("ba")]).unwrap());
        assert!(!e.contains(&query, &db(), &[s("bb")]).unwrap());
        let inf = q(Calculus::S, &["x"], "exists y. (R(y) & y <= x)");
        assert_eq!(e.count(&inf, &db()).unwrap(), None);
        assert!(e.contains(&inf, &db(), &[s("babab")]).unwrap());
    }

    #[test]
    fn head_order_is_respected() {
        // φ(x,y) = R(y) ∧ x <1 y, head order (y, x).
        let query = q(Calculus::S, &["y", "x"], "R(y) & x <1 y");
        let out = AutomataEngine::new().eval(&query, &db()).unwrap();
        let rel = out.expect_finite();
        assert!(rel.contains(&[s("ab"), s("a")])); // (y=ab, x=a)
        assert!(!rel.contains(&[s("a"), s("ab")]));
    }

    #[test]
    fn slen_queries() {
        // φ(x) = ∃y (R(y) ∧ el(x, y)) — all strings of the same lengths
        // as R strings: 2^2 + 2^3 distinct... lengths {2,3}: 4 + 8 = 12.
        let query = q(Calculus::SLen, &["x"], "exists y. (R(y) & el(x,y))");
        let out = AutomataEngine::new().eval(&query, &db()).unwrap();
        assert_eq!(out.expect_finite().len(), 12);
    }

    #[test]
    fn sleft_queries() {
        // φ(x) = ∃y (R(y) ∧ F_a(y, x)) — x = a·y for y ∈ R.
        let query = q(Calculus::SLeft, &["x"], "exists y. (R(y) & fa(y, x, 'a'))");
        let out = AutomataEngine::new().eval(&query, &db()).unwrap();
        let rel = out.expect_finite();
        assert_eq!(rel.len(), 3);
        assert!(rel.contains(&[s("aab")]));
        assert!(rel.contains(&[s("aba")]));
        assert!(rel.contains(&[s("abab")]));
    }

    #[test]
    fn virtual_relations() {
        // U as a virtual automaton: all strings ending in 'a' (infinite).
        let u = strcalc_synchro::atoms::last_sym(2, 0, 0);
        let query = q(Calculus::S, &[], "exists x. (U(x) & first(x,'b'))");
        let e = AutomataEngine::new();
        let compiled = e
            .compile_with(&query, &db(), HashMap::from([("U".to_string(), u)]))
            .unwrap();
        assert!(compiled.auto.is_true()); // e.g. "ba"
    }

    #[test]
    fn empty_database() {
        let empty = Database::new();
        let mut db2 = empty.clone();
        db2.declare("R", 1).unwrap();
        let query = q(Calculus::S, &["x"], "R(x)");
        let out = AutomataEngine::new().eval(&query, &db2).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn cache_key_folds_in_the_fragment_classification() {
        // The formula fingerprint is α-invariant but classification-
        // blind; the config component must separate the fragment
        // classes so a formula re-classified after a rewrite (e.g. a
        // simplify step collapsing `φ | false` into a scan-eligible
        // LIKE lookup) can never alias a slot compiled under another
        // classification. The linear-class and general-class queries
        // below must differ in the config channel, not only in the
        // formula channel.
        let engine = AutomataEngine::new();
        let scan = q(Calculus::SReg, &["x"], "R(x) & in(x, /a.*/)");
        let tame = q(Calculus::SReg, &["x"], "R(x) & in(x, /(aa)*/)");
        let key = |q: &Query| engine.cache_key(q.sheet(), q.alphabet(), &db());
        let k_scan = key(&scan);
        let k_tame = key(&tame);
        assert_ne!(
            k_scan.config, k_tame.config,
            "classification must be part of the config fingerprint"
        );
        // Stability: the same query under the same engine yields the
        // same key (the cache still hits on repeats).
        assert_eq!(k_scan, key(&scan));
        // Two distinct linear-class scan plans also separate.
        let other = q(Calculus::SReg, &["x"], "R(x) & in(x, /b.*/)");
        assert_ne!(key(&other).config, k_scan.config);
    }
}
