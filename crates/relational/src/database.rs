//! Databases: finite relations over `Σ*`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use strcalc_alphabet::{Alphabet, Str, Sym};

/// Errors from database manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Tuple arity differs from the relation's arity.
    ArityMismatch {
        relation: String,
        expected: usize,
        got: usize,
    },
    /// Unknown relation name.
    UnknownRelation(String),
    /// Relations must have positive arity (`p_i > 0` in the paper).
    ZeroArity(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for {relation}: expected {expected}, got {got}"
            ),
            DbError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            DbError::ZeroArity(r) => write!(f, "relation {r} must have positive arity"),
        }
    }
}

impl std::error::Error for DbError {}

/// A database schema: relation names with arities.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    arities: BTreeMap<String, usize>,
}

impl Schema {
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Adds (or confirms) a relation.
    pub fn add(&mut self, name: impl Into<String>, arity: usize) -> Result<(), DbError> {
        let name = name.into();
        if arity == 0 {
            return Err(DbError::ZeroArity(name));
        }
        match self.arities.get(&name) {
            Some(&a) if a != arity => Err(DbError::ArityMismatch {
                relation: name,
                expected: a,
                got: arity,
            }),
            _ => {
                self.arities.insert(name, arity);
                Ok(())
            }
        }
    }

    pub fn arity(&self, name: &str) -> Option<usize> {
        self.arities.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.arities.keys().map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.arities.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arities.is_empty()
    }

    /// `true` iff every relation is unary — the hypothesis of
    /// Proposition 3 (linear-time Boolean `RC(S)` evaluation).
    pub fn is_unary(&self) -> bool {
        self.arities.values().all(|&a| a == 1)
    }
}

/// One finite relation: a set of equal-arity tuples, kept sorted
/// (shortlex componentwise) for determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    tuples: BTreeSet<Vec<Str>>,
}

impl Relation {
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            tuples: BTreeSet::new(),
        }
    }

    /// Builds a relation from tuples (all must share the given arity).
    /// The set is built in one pass — sorted, deduplicated and
    /// bulk-loaded — rather than by one insert per tuple.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Vec<Str>>) -> Relation {
        Relation {
            arity,
            tuples: tuples
                .into_iter()
                .inspect(|t| assert_eq!(t.len(), arity, "tuple arity mismatch"))
                .collect(),
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    pub fn contains(&self, t: &[Str]) -> bool {
        self.tuples.contains(t)
    }

    pub fn insert(&mut self, t: Vec<Str>) -> bool {
        assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        self.tuples.insert(t)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Vec<Str>> {
        self.tuples.iter()
    }

    pub fn tuples(&self) -> &BTreeSet<Vec<Str>> {
        &self.tuples
    }
}

/// A database instance: named relations plus the derived active domain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Database {
    rels: BTreeMap<String, Relation>,
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Inserts a tuple, creating the relation (with the tuple's arity) on
    /// first use.
    pub fn insert(&mut self, name: impl Into<String>, tuple: Vec<Str>) -> Result<(), DbError> {
        let name = name.into();
        if tuple.is_empty() {
            return Err(DbError::ZeroArity(name));
        }
        match self.rels.get_mut(&name) {
            Some(r) => {
                if r.arity() != tuple.len() {
                    return Err(DbError::ArityMismatch {
                        relation: name,
                        expected: r.arity(),
                        got: tuple.len(),
                    });
                }
                r.insert(tuple);
            }
            None => {
                let mut r = Relation::new(tuple.len());
                r.insert(tuple);
                self.rels.insert(name, r);
            }
        }
        Ok(())
    }

    /// Inserts many unary tuples parsed from text (test/example helper).
    pub fn insert_unary_parsed(
        &mut self,
        alphabet: &Alphabet,
        name: &str,
        words: &[&str],
    ) -> Result<(), DbError> {
        for w in words {
            let s = alphabet
                .parse(w)
                .unwrap_or_else(|e| panic!("bad literal {w:?}: {e}"));
            self.insert(name, vec![s])?;
        }
        Ok(())
    }

    /// Declares an empty relation of the given arity.
    pub fn declare(&mut self, name: impl Into<String>, arity: usize) -> Result<(), DbError> {
        let name = name.into();
        if arity == 0 {
            return Err(DbError::ZeroArity(name));
        }
        match self.rels.get(&name) {
            Some(r) if r.arity() != arity => Err(DbError::ArityMismatch {
                relation: name,
                expected: r.arity(),
                got: arity,
            }),
            Some(_) => Ok(()),
            None => {
                self.rels.insert(name, Relation::new(arity));
                Ok(())
            }
        }
    }

    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.rels.get(name)
    }

    pub fn relations(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.rels.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// The schema induced by the stored relations.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for (n, r) in &self.rels {
            s.add(n.clone(), r.arity())
                .expect("consistent by construction");
        }
        s
    }

    /// The active domain `adom(D)`: every string appearing in any tuple.
    pub fn adom(&self) -> BTreeSet<Str> {
        let mut out = BTreeSet::new();
        for r in self.rels.values() {
            for t in r.iter() {
                out.extend(t.iter().cloned());
            }
        }
        out
    }

    /// The active domain of the rows over the first `k` symbols: a row
    /// holding a symbol `≥ k` denotes nothing there, so none of its
    /// strings count.
    pub fn adom_within(&self, k: Sym) -> BTreeSet<Str> {
        let mut out = BTreeSet::new();
        for r in self.rels.values() {
            for t in r.iter() {
                if t.iter().all(|s| s.within(k)) {
                    out.extend(t.iter().cloned());
                }
            }
        }
        out
    }

    /// Length of the longest active-domain string (0 for empty DB).
    pub fn max_len(&self) -> usize {
        self.rels
            .values()
            .flat_map(Relation::iter)
            .flatten()
            .map(Str::len)
            .max()
            .unwrap_or(0)
    }

    /// Total number of tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.rels.values().map(Relation::len).sum()
    }

    /// Stable fingerprint of the full database **content** (names,
    /// arities, and every tuple). The compilation cache must key on this
    /// rather than the schema alone: compiled automata inline relation
    /// tuples and the active domain, so any content change invalidates
    /// them. `BTreeMap`/`BTreeSet` iteration order makes it canonical.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = strcalc_logic::Fp::new();
        fp.u64(self.rels.len() as u64);
        for (name, rel) in &self.rels {
            fp.str(name).u64(rel.arity() as u64).u64(rel.len() as u64);
            for tuple in rel.iter() {
                for s in tuple {
                    fp.bytes(s.syms());
                }
            }
        }
        fp.finish()
    }

    /// The **width** of the active domain (Section 5.2): the maximum size
    /// of a subset of `adom(D)` pairwise comparable by the prefix
    /// relation — equivalently, the longest chain in the prefix order.
    pub fn adom_width(&self) -> usize {
        // Sort shortlex; for each string, longest chain ending at it.
        let adom: Vec<Str> = self.adom().into_iter().collect();
        let mut best = vec![1usize; adom.len()];
        let mut overall = 0;
        for i in 0..adom.len() {
            for j in 0..i {
                if adom[j].is_strict_prefix_of(&adom[i]) {
                    best[i] = best[i].max(best[j] + 1);
                }
            }
            overall = overall.max(best[i]);
        }
        overall
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

    #[test]
    fn insert_and_lookup() {
        let mut db = Database::new();
        db.insert("R", vec![s("ab"), s("b")]).unwrap();
        db.insert("R", vec![s("a"), s("")]).unwrap();
        db.insert("U", vec![s("ab")]).unwrap();
        let r = db.relation("R").unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[s("ab"), s("b")]));
        assert!(!r.contains(&[s("b"), s("ab")]));
        assert!(db.relation("missing").is_none());
    }

    #[test]
    fn arity_is_enforced() {
        let mut db = Database::new();
        db.insert("R", vec![s("a")]).unwrap();
        assert!(matches!(
            db.insert("R", vec![s("a"), s("b")]),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(db.insert("Z", vec![]), Err(DbError::ZeroArity(_))));
    }

    #[test]
    fn adom_and_maxlen() {
        let mut db = Database::new();
        db.insert("R", vec![s("ab"), s("b")]).unwrap();
        db.insert("U", vec![s("bbb")]).unwrap();
        let adom = db.adom();
        assert_eq!(adom.len(), 3);
        assert_eq!(db.max_len(), 3);
        assert_eq!(db.total_tuples(), 2);
        assert_eq!(Database::new().max_len(), 0);
        // A row with symbol 2 in any column adds none of its strings.
        db.insert("R", vec![s("a"), Str::from_syms(vec![0, 2])])
            .unwrap();
        assert_eq!(db.adom().len(), 5);
        assert_eq!(db.adom_within(2), adom);
    }

    #[test]
    fn schema_and_unary() {
        let mut db = Database::new();
        db.insert("U", vec![s("a")]).unwrap();
        db.insert("V", vec![s("b")]).unwrap();
        assert!(db.schema().is_unary());
        db.insert("R", vec![s("a"), s("b")]).unwrap();
        assert!(!db.schema().is_unary());
        assert_eq!(db.schema().arity("R"), Some(2));
    }

    #[test]
    fn fingerprints_track_schema_and_content() {
        let mut a = Database::new();
        a.insert("U", vec![s("a")]).unwrap();
        let mut b = Database::new();
        b.insert("U", vec![s("a")]).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Same schema, different content.
        b.insert("U", vec![s("b")]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());

        // Different schema, same strings.
        let mut c = Database::new();
        c.insert("V", vec![s("a")]).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());

        // A declared empty relation changes the schema alone.
        let before = c.fingerprint();
        c.declare("E", 3).unwrap();
        assert_ne!(before, c.fingerprint());
    }

    #[test]
    fn width_computation() {
        let mut db = Database::new();
        // {a, ab, abb} is a prefix chain of length 3; {b} incomparable.
        for w in ["a", "ab", "abb", "b"] {
            db.insert("U", vec![s(w)]).unwrap();
        }
        assert_eq!(db.adom_width(), 3);

        // Width-1 database: pairwise incomparable strings.
        let mut db1 = Database::new();
        for w in ["aa", "ab", "ba", "bb"] {
            db1.insert("U", vec![s(w)]).unwrap();
        }
        assert_eq!(db1.adom_width(), 1);
    }

    #[test]
    fn from_tuples_matches_one_insert_at_a_time() {
        let tuples: Vec<Vec<Str>> = [
            ("bb", "a"),
            ("a", ""),
            ("bb", "a"),
            ("", "ab"),
            ("a", ""),
            ("ab", "b"),
            ("", ""),
        ]
        .iter()
        .map(|(x, y)| vec![s(x), s(y)])
        .collect();
        let mut one_by_one = Relation::new(2);
        for t in &tuples {
            one_by_one.insert(t.clone());
        }
        let bulk = Relation::from_tuples(2, tuples);
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.len(), 5);
        assert!(bulk.iter().is_sorted());
        assert_eq!(Relation::from_tuples(3, []), Relation::new(3));
    }

    #[test]
    #[should_panic(expected = "tuple arity mismatch")]
    fn from_tuples_rejects_a_wrong_arity() {
        Relation::from_tuples(2, [vec![s("a"), s("b")], vec![s("a")]]);
    }

    #[test]
    fn declare_empty_relation() {
        let mut db = Database::new();
        db.declare("R", 2).unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 0);
        assert!(db.declare("R", 3).is_err());
    }
}
