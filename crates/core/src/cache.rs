//! The compilation cache: sharded, size-bounded (LRU, byte-accounted)
//! storage of compiled automaton artifacts.
//!
//! Compiling a formula to a synchronized automaton is the query-dependent
//! cost the paper's complexity results say dominates (`AC0` data
//! complexity, so the per-tuple work is trivial once the automaton
//! exists). The cache lets that cost be paid once per `(formula,
//! database, alphabet, engine config)` combination.
//!
//! ## Key design
//!
//! A key of `(formula, schema, alphabet)` would **not be sound** here:
//! the compiler inlines relation *tuples* and the active domain into
//! the automaton, so the artifact depends on database content, not just
//! its shape. [`CacheKey`] therefore carries an `instance` fingerprint
//! of the full content ([`Database::fingerprint`], which hashes every
//! relation name, arity and tuple, so it subsumes the schema). A write
//! changes the fingerprint, so stale entries simply stop being hit and
//! age out through the LRU. Virtual (automaton-valued) relations bypass
//! the cache entirely: their content has no stable fingerprint.
//!
//! ## Eviction
//!
//! Entries land in one of 8 shards by key hash; each shard holds a byte
//! budget (total budget / 8, an automaton artifact's bytes estimated by
//! `SyncDfa::approx_bytes`). Insertion over budget evicts
//! least-recently-used entries (per-shard logical clock) until the shard
//! fits. A single artifact larger than the shard budget is still served
//! to the caller but not retained.
//!
//! [`Database::fingerprint`]: strcalc_relational::Database::fingerprint

// Panic-audit round 5: the cache sits on every hot compile path, so
// invariant-based panics must be spelled out as messaged `expect`s.
#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use strcalc_automata::DenseDfa;
use strcalc_logic::compile::Compiled;
use strcalc_synchro::{SyncDfa, SyncFiniteness};

const SHARDS: usize = 8;
const DEFAULT_BUDGET: usize = 64 * 1024 * 1024;

/// Cache key: every input the compiled artifact depends on, as stable
/// 64-bit fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// α-invariant formula fingerprint ([`strcalc_logic::fingerprint`]).
    pub formula: u64,
    /// Full database content fingerprint (names, arities and tuples).
    pub instance: u64,
    /// Alphabet fingerprint.
    pub alphabet: u64,
    /// Engine configuration (cap, minimize threshold) — different
    /// configs can produce differently-shaped automata.
    pub config: u64,
}

impl CacheKey {
    fn shard(&self) -> usize {
        // The component fingerprints are already splitmix-finalized, so
        // a cheap xor-fold spreads well across shards.
        let h = self.formula
            ^ self.instance.rotate_left(17)
            ^ self.alphabet.rotate_left(31)
            ^ self.config.rotate_left(47);
        (h % SHARDS as u64) as usize
    }
}

/// An immutable compiled artifact, shared between the cache and
/// in-flight evaluations: the compiled automaton determinized and
/// trimmed once, with its finiteness verdict, so a read only walks it.
/// The compiled automaton itself is not kept; its size survives as two
/// figures for the executor's report.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    dfa: SyncDfa,
    finiteness: SyncFiniteness,
    var_names: Vec<String>,
    compiled_states: usize,
    compiled_bytes: usize,
    bytes: usize,
}

impl CompiledArtifact {
    /// Determinizes, trims and decides finiteness of a compilation.
    pub fn from_compiled(c: Compiled) -> CompiledArtifact {
        let dfa = c.auto.to_dfa();
        let finiteness = dfa.finiteness();
        let bytes = dfa.approx_bytes()
            + c.var_names
                .iter()
                .map(|v| std::mem::size_of::<String>() + v.len())
                .sum::<usize>();
        CompiledArtifact {
            compiled_states: c.auto.num_states(),
            compiled_bytes: c.auto.approx_bytes(),
            dfa,
            finiteness,
            var_names: c.var_names,
            bytes,
        }
    }

    /// The determinized, trimmed automaton.
    pub fn dfa(&self) -> &SyncDfa {
        &self.dfa
    }

    /// The finiteness verdict of [`Self::dfa`], decided at construction.
    pub fn finiteness(&self) -> SyncFiniteness {
        self.finiteness
    }

    /// Sorted free-variable names, one automaton track each.
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// States of the automaton the compiler built, before determinizing.
    pub fn compiled_states(&self) -> usize {
        self.compiled_states
    }

    /// Estimated heap bytes of the automaton the compiler built
    /// ([`SyncNfa::approx_bytes`](strcalc_synchro::SyncNfa::approx_bytes)).
    pub fn compiled_bytes(&self) -> usize {
        self.compiled_bytes
    }

    /// Estimated heap footprint of what the artifact holds — the DFA and
    /// the variable names — charged against the cache's byte budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// A densified DFA table ready for batched execution, with its real
/// byte footprint fixed at construction time for LRU accounting.
#[derive(Debug, Clone)]
pub struct DenseArtifact {
    pub dfa: DenseDfa,
    /// Heap footprint of the dense table ([`DenseDfa::approx_bytes`]).
    pub bytes: usize,
}

impl DenseArtifact {
    pub fn from_dense(dfa: DenseDfa) -> DenseArtifact {
        let bytes = dfa.approx_bytes();
        DenseArtifact { dfa, bytes }
    }
}

/// What a cache slot holds: a synchronized-automaton artifact (the
/// classic compile product) or a dense DFA table (the batched tier).
/// Both are byte-accounted against the same shard budgets.
#[derive(Debug, Clone)]
enum Cached {
    Automaton(Arc<CompiledArtifact>),
    Dense(Arc<DenseArtifact>),
}

impl Cached {
    fn bytes(&self) -> usize {
        match self {
            Cached::Automaton(a) => a.bytes,
            Cached::Dense(d) => d.bytes,
        }
    }
}

/// Monotonic cache counters. Cheap to read at any time; see
/// [`CacheStatsSnapshot`] for the point-in-time view.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// A point-in-time reading of [`CacheStats`] plus current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries dropped by the byte-budget LRU.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation (`clear`).
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
}

impl CacheStatsSnapshot {
    /// Hit fraction in `[0, 1]`; 0 when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    cached: Cached,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    bytes: usize,
    clock: u64,
}

impl Shard {
    fn touch(&mut self, key: &CacheKey) -> Option<Cached> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.last_used = clock;
            e.cached.clone()
        })
    }

    /// Removes `amount` from the shard's byte account. The account is
    /// exact — every resident entry's fixed `bytes` was added exactly
    /// once — so a would-be underflow means double-removal or a
    /// mutated-size artifact; `debug_assert` surfaces it instead of the
    /// old `saturating_sub` silently zeroing the account.
    fn debit(&mut self, amount: usize) {
        let rest = self.bytes.checked_sub(amount);
        debug_assert!(
            rest.is_some(),
            "cache byte accounting underflow: {} resident, debiting {amount}",
            self.bytes,
        );
        self.bytes = rest.unwrap_or(0);
    }

    /// Evicts LRU entries until `self.bytes <= budget`. Returns how many
    /// entries were dropped.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut dropped = 0;
        while self.bytes > budget && !self.map.is_empty() {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty shard has a minimum");
            if let Some(e) = self.map.remove(&victim) {
                self.debit(e.cached.bytes());
                dropped += 1;
            }
        }
        dropped
    }
}

/// The sharded compilation cache. Cheap to clone behind an [`Arc`];
/// every handle shares storage and statistics.
pub struct AutomatonCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_budget: usize,
    stats: CacheStats,
}

impl std::fmt::Debug for AutomatonCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("AutomatonCache")
            .field("budget", &(self.per_shard_budget * SHARDS))
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl Default for AutomatonCache {
    fn default() -> Self {
        AutomatonCache::new()
    }
}

impl AutomatonCache {
    /// A cache with the default 64 MiB byte budget.
    pub fn new() -> AutomatonCache {
        AutomatonCache::with_budget(DEFAULT_BUDGET)
    }

    /// A cache bounded to roughly `budget_bytes` of estimated artifact
    /// bytes (split evenly across shards).
    pub fn with_budget(budget_bytes: usize) -> AutomatonCache {
        AutomatonCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_budget: (budget_bytes / SHARDS).max(1),
            stats: CacheStats::default(),
        }
    }

    fn lock(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[key.shard()]
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Raw lookup (records a hit or a miss).
    fn get_cached(&self, key: &CacheKey) -> Option<Cached> {
        let found = self.lock(key).touch(key);
        match &found {
            Some(_) => self.stats.hits.fetch_add(1, Ordering::Relaxed),
            None => self.stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Pure lookup of a compiled-automaton artifact (records a hit or a
    /// miss).
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CompiledArtifact>> {
        match self.get_cached(key) {
            Some(Cached::Automaton(a)) => Some(a),
            _ => None,
        }
    }

    /// Pure lookup of a dense-DFA artifact (records a hit or a miss).
    pub fn get_dense(&self, key: &CacheKey) -> Option<Arc<DenseArtifact>> {
        match self.get_cached(key) {
            Some(Cached::Dense(d)) => Some(d),
            _ => None,
        }
    }

    /// Inserts (or replaces) a slot, then enforces the shard budget.
    /// Oversized artifacts are not retained.
    fn insert_cached(&self, key: CacheKey, cached: Cached) {
        let bytes = cached.bytes();
        let mut shard = self.lock(&key);
        shard.clock += 1;
        let clock = shard.clock;
        if let Some(old) = shard.map.insert(
            key,
            Entry {
                cached,
                last_used: clock,
            },
        ) {
            let old_bytes = old.cached.bytes();
            shard.debit(old_bytes);
        }
        shard.bytes += bytes;
        let dropped = shard.evict_to(self.per_shard_budget);
        drop(shard);
        if dropped > 0 {
            self.stats.evictions.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Inserts (or replaces) a compiled-automaton artifact.
    pub fn insert(&self, key: CacheKey, artifact: Arc<CompiledArtifact>) {
        self.insert_cached(key, Cached::Automaton(artifact));
    }

    /// Inserts (or replaces) a dense-DFA artifact, accounted at its real
    /// table size.
    pub fn insert_dense(&self, key: CacheKey, artifact: Arc<DenseArtifact>) {
        self.insert_cached(key, Cached::Dense(artifact));
    }

    /// The dense lookup-or-densify primitive: on a miss, `densify` runs
    /// *outside* the shard lock and its result is inserted. Returns the
    /// artifact plus `fresh = true` iff `densify` actually ran.
    pub fn get_or_insert_dense_with<E>(
        &self,
        key: CacheKey,
        densify: impl FnOnce() -> Result<DenseArtifact, E>,
    ) -> Result<(Arc<DenseArtifact>, bool), E> {
        if let Some(hit) = self.get_dense(&key) {
            return Ok((hit, false));
        }
        let artifact = Arc::new(densify()?);
        self.insert_dense(key, Arc::clone(&artifact));
        Ok((artifact, true))
    }

    /// Drops everything.
    pub fn clear(&self) {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock().unwrap_or_else(|p| p.into_inner());
            dropped += s.map.len() as u64;
            s.map.clear();
            s.bytes = 0;
        }
        self.stats
            .invalidations
            .fetch_add(dropped, Ordering::Relaxed);
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> CacheStatsSnapshot {
        let (mut entries, mut bytes) = (0usize, 0usize);
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(|p| p.into_inner());
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            invalidations: self.stats.invalidations.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn key(formula: u64) -> CacheKey {
        CacheKey {
            formula,
            instance: 7,
            alphabet: 11,
            config: 13,
        }
    }

    fn artifact(bytes: usize) -> CompiledArtifact {
        let dfa = strcalc_synchro::SyncNfa::empty(2, vec![0]).to_dfa();
        CompiledArtifact {
            finiteness: dfa.finiteness(),
            dfa,
            var_names: vec!["x".into()],
            compiled_states: 0,
            compiled_bytes: 0,
            bytes,
        }
    }

    #[test]
    fn artifact_keeps_the_dfa_its_verdict_and_the_compiled_figures() {
        use strcalc_alphabet::Alphabet;
        use strcalc_logic::compile::Compiler;
        use strcalc_synchro::SyncFiniteness;
        // A union: the subset construction merges its two starts.
        let f = strcalc_logic::parse_formula(&Alphabet::ab(), r#"x <= "ab" | x = "ab""#).unwrap();
        let compiled = Compiler::pure(2).compile(&f).unwrap();
        let (states, bytes) = (compiled.auto.num_states(), compiled.auto.approx_bytes());
        let art = CompiledArtifact::from_compiled(compiled);
        assert_eq!(
            (art.compiled_states(), art.compiled_bytes()),
            (states, bytes)
        );
        assert!(art.dfa().num_states() < states);
        assert_eq!(art.finiteness(), SyncFiniteness::Finite(3));
        assert_eq!(
            art.bytes(),
            art.dfa().approx_bytes() + std::mem::size_of::<String>() + 1,
            "the budget charges the DFA and the name `x`"
        );
    }

    #[test]
    fn hit_miss_and_stats_accounting() {
        let cache = AutomatonCache::new();
        let k = key(1);
        assert!(cache.get(&k).is_none());
        cache.insert(k, Arc::new(artifact(100)));
        assert!(cache.get(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes >= 100);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        // Budget so small every shard holds ~1 entry of this size.
        let cache = AutomatonCache::with_budget(8 * 150);
        // Two keys in the SAME shard.
        let k1 = key(1);
        let k2 = key_in_shard_of(k1, 2);
        cache.insert(k1, Arc::new(artifact(100)));
        cache.insert(k2, Arc::new(artifact(100)));
        // 200 bytes > 150 budget → the LRU (k1) was evicted.
        assert!(cache.get(&k1).is_none());
        assert!(cache.get(&k2).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    fn dense_artifact() -> DenseArtifact {
        let dfa = strcalc_automata::Dfa::from_regex(
            2,
            &strcalc_automata::Regex::parse(&strcalc_alphabet::Alphabet::ab(), "a.*b").unwrap(),
        );
        DenseArtifact::from_dense(DenseDfa::compile(&dfa))
    }

    #[test]
    fn dense_artifacts_round_trip_with_real_bytes() {
        let cache = AutomatonCache::new();
        let art = dense_artifact();
        let bytes = art.bytes;
        assert_eq!(bytes, art.dfa.approx_bytes());
        cache.insert_dense(key(21), Arc::new(art));
        let hit = cache.get_dense(&key(21)).expect("dense hit");
        assert_eq!(hit.bytes, bytes);
        assert_eq!(cache.stats().bytes, bytes);
        // The typed getters do not cross variants.
        assert!(cache.get(&key(21)).is_none());
        cache.clear();
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn get_or_insert_dense_densifies_exactly_once() {
        let cache = AutomatonCache::new();
        let mut calls = 0;
        for round in 0..3 {
            let (got, fresh) = cache
                .get_or_insert_dense_with::<std::convert::Infallible>(key(22), || {
                    calls += 1;
                    Ok(dense_artifact())
                })
                .unwrap();
            assert_eq!(fresh, round == 0);
            assert!(got.dfa.accepts_syms(&[0, 1]));
        }
        assert_eq!(calls, 1);
    }

    /// Asserts that every shard's byte account equals the bytes of the
    /// entries resident in it.
    fn assert_exact_accounting(cache: &AutomatonCache) {
        for (i, shard) in cache.shards.iter().enumerate() {
            let s = shard.lock().unwrap();
            let resident: usize = s.map.values().map(|e| e.cached.bytes()).sum();
            assert_eq!(s.bytes, resident, "shard {i}: byte account drifted");
        }
    }

    /// A key of the same shard as `of`, searched from `from` upwards.
    fn key_in_shard_of(of: CacheKey, from: u64) -> CacheKey {
        (from..)
            .map(key)
            .find(|k| *k != of && k.shard() == of.shard())
            .unwrap()
    }

    /// Drains the cache through LRU eviction: an insert larger than the
    /// shard budget evicts every entry of its shard, itself last.
    fn drain(cache: &AutomatonCache) {
        for shard in 0..SHARDS {
            let k = (1_000_000..).map(key).find(|k| k.shard() == shard).unwrap();
            cache.insert(k, Arc::new(artifact(cache.per_shard_budget + 1)));
        }
    }

    #[test]
    fn mixed_artifact_accounting_stays_exact() {
        // Insert, replace (both directions) and evict with both artifact
        // kinds resident in one shard; the account must match the
        // resident entries at every step and drain to zero with no
        // underflow (debug_assert in `debit` would fire).
        let dense_bytes = dense_artifact().bytes;
        let budget = 2 * dense_bytes + 100;
        let cache = AutomatonCache::with_budget(SHARDS * budget);
        let (k1, k2) = (key(30), key_in_shard_of(key(30), 31));
        cache.insert(k1, Arc::new(artifact(100)));
        cache.insert_dense(k2, Arc::new(dense_artifact()));
        assert_eq!(cache.stats().bytes, 100 + dense_bytes);
        assert_exact_accounting(&cache);
        // Replace the automaton slot with a dense one and vice versa.
        cache.insert_dense(k1, Arc::new(dense_artifact()));
        assert_exact_accounting(&cache);
        cache.insert(k2, Arc::new(artifact(40)));
        assert_eq!(cache.stats().bytes, dense_bytes + 40);
        assert_exact_accounting(&cache);
        assert_eq!(cache.stats().evictions, 0);
        // An insert past the shard budget evicts the LRU slot (the
        // dense one at `k1`) and keeps the rest.
        let k3 = key_in_shard_of(k1, k2.formula + 1);
        cache.insert(k3, Arc::new(artifact(budget - 40)));
        assert!(cache.get_dense(&k1).is_none());
        assert_eq!(cache.stats().bytes, budget);
        assert_exact_accounting(&cache);
        drain(&cache);
        assert_eq!(cache.stats().bytes, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn dense_entries_participate_in_lru_eviction() {
        let dense_bytes = dense_artifact().bytes;
        let cache = AutomatonCache::with_budget(8 * (dense_bytes + dense_bytes / 2));
        let k1 = key(1);
        let k2 = key_in_shard_of(k1, 2);
        cache.insert_dense(k1, Arc::new(dense_artifact()));
        cache.insert_dense(k2, Arc::new(dense_artifact()));
        assert!(cache.get_dense(&k1).is_none(), "LRU dense entry evicted");
        assert!(cache.get_dense(&k2).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes, dense_bytes);
    }

    /// Regression: LRU eviction racing lookup-then-insert (the engine's
    /// probe and fill) must keep the shard byte account exact. A drift
    /// in either direction is caught — an over-count makes a shard's
    /// account exceed its resident entries, an under-count trips the
    /// `debit` underflow `debug_assert` mid-race.
    #[test]
    fn lru_eviction_races_lookup_or_insert_without_byte_drift() {
        use std::sync::atomic::AtomicBool;

        // Four 64-byte entries fit a shard; the writers' 64 keys spread
        // over 8 shards, so most inserts evict.
        let cache = Arc::new(AutomatonCache::with_budget(SHARDS * 4 * 64));
        let stop = Arc::new(AtomicBool::new(false));
        let evictor = {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    drain(&cache);
                }
            })
        };
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..400u64 {
                        let k = key(t * 1_000 + i % 16);
                        if cache.get(&k).is_none() {
                            cache.insert(k, Arc::new(artifact(64)));
                        }
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        evictor.join().unwrap();
        assert_exact_accounting(&cache);
        // An exact account drains to zero bytes with zero entries.
        drain(&cache);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
    }
}
