//! Databases: finite relations over `Σ*`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

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

/// One stored row: a relation's tuple, shared. Cloning a row, a
/// relation or a database bumps a count; no string is copied.
pub type Row = Arc<[Str]>;

/// Rows per leaf at most. A leaf that grows past it splits in two, so an
/// insert shifts at most this many rows whatever the relation's size.
const LEAF_ROWS: usize = 32;

/// A row's sort key: the first eight bytes of an order-preserving
/// encoding of the row, big-endian and zero-padded. Each string encodes
/// as its length in one byte, then its symbols; a string of 255 symbols
/// or more encodes as the byte 255 alone and ends the encoding. Rows in
/// increasing order have non-decreasing keys, so comparing keys settles
/// most comparisons without reading a row; rows with equal keys are
/// compared in full.
fn sort_key(t: &[Str]) -> u64 {
    let mut key = [0u8; 8];
    let mut at = 0;
    for s in t {
        let long = s.len() >= 0xFF;
        let syms = if long { &[][..] } else { s.syms() };
        for &b in [s.len().min(0xFF) as u8].iter().chain(syms) {
            let Some(slot) = key.get_mut(at) else {
                return u64::from_be_bytes(key);
            };
            *slot = b;
            at += 1;
        }
        if long {
            break;
        }
    }
    u64::from_be_bytes(key)
}

/// A run of consecutive rows, each row's sort key beside it.
#[derive(Clone)]
struct Leaf {
    keys: Vec<u64>,
    rows: Vec<Row>,
}

impl Leaf {
    fn with_capacity(n: usize) -> Leaf {
        Leaf {
            keys: Vec::with_capacity(n),
            rows: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, t: Row) {
        self.keys.push(sort_key(&t));
        self.rows.push(t);
    }

    /// Whether every row of this (non-empty) leaf sorts below `t`.
    fn below(&self, key: u64, t: &[Str]) -> bool {
        match (self.keys.last(), self.rows.last()) {
            (Some(&k), Some(r)) => (k, &**r) < (key, t),
            _ => false,
        }
    }

    /// Where `t` (with sort key `key`) is stored, or where it belongs.
    fn search(&self, key: u64, t: &[Str]) -> Result<usize, usize> {
        let lo = self.keys.partition_point(|&k| k < key);
        let ties = self.keys[lo..].partition_point(|&k| k == key);
        self.rows[lo..lo + ties]
            .binary_search_by(|r| (**r).cmp(t))
            .map(|j| lo + j)
            .map_err(|j| lo + j)
    }
}

/// One finite relation: a set of equal-arity tuples.
///
/// The rows are shared ([`Row`]) and kept in strictly increasing order
/// (shortlex componentwise), cut into leaves of at most 32 rows, each
/// row's sort key stored beside it. A scan walks the leaves in order,
/// and an answer that keeps some of a relation's rows
/// ([`Relation::subsequence`]) shares them and their keys without
/// copying a string or sorting again. [`Relation::contains`] is a
/// binary search. [`Relation::insert`] is a binary search plus a shift
/// of at most one leaf; build a large relation with
/// [`Relation::from_tuples`], which sorts and deduplicates once.
///
/// The relation also keeps a symbol ceiling: an upper bound on the
/// largest symbol of any stored string, recorded as rows are added.
/// [`Relation::within`] reads it, so deciding that every row is over
/// the first `k` symbols is one comparison. Equality and `Debug` read
/// the rows alone: two relations with the same rows are equal however
/// they were built.
#[derive(Clone)]
pub struct Relation {
    arity: usize,
    /// Non-empty leaves whose concatenation is strictly increasing.
    leaves: Vec<Leaf>,
    len: usize,
    /// At least the largest stored symbol; `None` while no row holds a
    /// symbol.
    ceiling: Option<Sym>,
}

/// The largest symbol of a row's strings.
fn row_ceiling(t: &[Str]) -> Option<Sym> {
    t.iter().filter_map(Str::max_sym).max()
}

impl Relation {
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            leaves: Vec::new(),
            len: 0,
            ceiling: None,
        }
    }

    /// Builds a relation from tuples (all must share the given arity),
    /// sorting and deduplicating them once.
    pub fn from_tuples<T: Into<Row>>(
        arity: usize,
        tuples: impl IntoIterator<Item = T>,
    ) -> Relation {
        let mut rows: Vec<Row> = tuples
            .into_iter()
            .map(Into::into)
            .inspect(|t| assert_eq!(t.len(), arity, "tuple arity mismatch"))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let ceiling = rows.iter().filter_map(|t| row_ceiling(t)).max();
        Relation::from_keyed(arity, rows.into_iter().map(|t| (sort_key(&t), t)), ceiling)
    }

    /// The relation of the rows whose flag is set: `keep[i]` flags the
    /// `i`-th row in increasing order, and rows past its end are left
    /// out. The rows are shared and keep their stored sort keys, so
    /// nothing is compared, copied, sorted or encoded again, and a leaf
    /// with no row flagged is skipped whole. Its ceiling is this
    /// relation's.
    pub fn subsequence(&self, keep: &[bool]) -> Relation {
        let mut flags = keep;
        let kept = self.leaves.iter().flat_map(|leaf| {
            let (here, rest) = flags.split_at(leaf.rows.len().min(flags.len()));
            flags = rest;
            let here = if here.contains(&true) { here } else { &[] };
            leaf.keys
                .iter()
                .zip(&leaf.rows)
                .zip(here)
                .filter(|(_, kept)| **kept)
                .map(|((&key, t), _)| (key, Arc::clone(t)))
        });
        let out = Relation::from_keyed(self.arity, kept, self.ceiling);
        debug_assert!(
            out.iter().zip(out.iter().skip(1)).all(|(a, b)| a < b),
            "a subsequence keeps the stored order"
        );
        out
    }

    /// Cuts strictly increasing rows, each beside its sort key, into
    /// leaves.
    fn from_keyed(
        arity: usize,
        rows: impl IntoIterator<Item = (u64, Row)>,
        ceiling: Option<Sym>,
    ) -> Relation {
        let mut rows = rows.into_iter().peekable();
        let mut leaves: Vec<Leaf> = Vec::with_capacity(rows.size_hint().0.div_ceil(LEAF_ROWS));
        let mut len = 0;
        while rows.peek().is_some() {
            let mut leaf = Leaf::with_capacity(LEAF_ROWS);
            for (key, t) in rows.by_ref().take(LEAF_ROWS) {
                debug_assert_eq!(key, sort_key(&t), "a row keeps its own sort key");
                leaf.keys.push(key);
                leaf.rows.push(t);
            }
            len += leaf.rows.len();
            leaves.push(leaf);
        }
        Relation {
            arity,
            leaves,
            len,
            ceiling,
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every stored string is over the first `k` symbols: one
    /// comparison against the ceiling. When it fails, some row may hold
    /// a symbol `≥ k`, and [`Relation::rows_within`] drops such rows.
    pub fn within(&self, k: Sym) -> bool {
        self.ceiling.is_none_or(|m| m < k)
    }

    /// The leaf where `t` is stored or belongs (the first not wholly
    /// below it, else the last), and the row's place in it. `None` when
    /// the relation is empty.
    fn find(&self, key: u64, t: &[Str]) -> Option<(usize, Result<usize, usize>)> {
        let last = self.leaves.len().checked_sub(1)?;
        let i = self
            .leaves
            .partition_point(|leaf| leaf.below(key, t))
            .min(last);
        Some((i, self.leaves[i].search(key, t)))
    }

    pub fn contains(&self, t: &[Str]) -> bool {
        matches!(self.find(sort_key(t), t), Some((_, Ok(_))))
    }

    /// Adds a row; `false` when it was already stored. A row that sorts
    /// last is appended.
    pub fn insert(&mut self, t: impl Into<Row>) -> bool {
        let t: Row = t.into();
        assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        let key = sort_key(&t);
        let ceiling = row_ceiling(&t);
        match self.find(key, &t) {
            None => {
                let mut leaf = Leaf::with_capacity(LEAF_ROWS + 1);
                leaf.push(t);
                self.leaves.push(leaf);
            }
            Some((_, Ok(_))) => return false,
            Some((i, Err(j))) => {
                let leaf = &mut self.leaves[i];
                leaf.keys.insert(j, key);
                leaf.rows.insert(j, t);
                if leaf.rows.len() > LEAF_ROWS {
                    // The upper half gets a whole leaf's room, so the
                    // inserts that refill it do not reallocate.
                    let half = leaf.rows.len() / 2;
                    let mut upper = Leaf::with_capacity(LEAF_ROWS + 1);
                    upper.keys.extend(leaf.keys.drain(half..));
                    upper.rows.extend(leaf.rows.drain(half..));
                    self.leaves.insert(i + 1, upper);
                }
            }
        }
        self.len += 1;
        self.ceiling = self.ceiling.max(ceiling);
        true
    }

    /// The rows in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> + Clone {
        self.leaves.iter().flat_map(|leaf| &leaf.rows)
    }

    /// The rows over the first `k` symbols, in increasing order. A row
    /// holding a symbol `≥ k` denotes nothing there, on every route;
    /// no row is checked when the ceiling shows there is none.
    pub fn rows_within(&self, k: Sym) -> impl Iterator<Item = &Row> + Clone {
        let all = self.within(k);
        self.iter()
            .filter(move |t| all || t.iter().all(|s| s.within(k)))
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Rows<'a>(&'a Relation);
        impl fmt::Debug for Rows<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Relation")
            .field("arity", &self.arity)
            .field("tuples", &Rows(self))
            .finish()
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
    pub fn insert(
        &mut self,
        name: impl AsRef<str> + Into<String>,
        tuple: Vec<Str>,
    ) -> Result<(), DbError> {
        if tuple.is_empty() {
            return Err(DbError::ZeroArity(name.into()));
        }
        // The name is looked up as `&str`: a row for a stored relation
        // allocates no `String`.
        match self.rels.get_mut(name.as_ref()) {
            Some(r) => {
                if r.arity() != tuple.len() {
                    return Err(DbError::ArityMismatch {
                        relation: name.into(),
                        expected: r.arity(),
                        got: tuple.len(),
                    });
                }
                r.insert(tuple);
            }
            None => {
                let mut r = Relation::new(tuple.len());
                r.insert(tuple);
                self.rels.insert(name.into(), r);
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
            for t in r.rows_within(k) {
                out.extend(t.iter().cloned());
            }
        }
        out
    }

    /// Length of the longest active-domain string (0 for empty DB).
    pub fn max_len(&self) -> usize {
        self.rels
            .values()
            .flat_map(Relation::iter)
            .flat_map(|t| t.iter().map(Str::len))
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
                for s in tuple.iter() {
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
        assert_eq!(Relation::from_tuples::<Row>(3, []), Relation::new(3));
    }

    #[test]
    fn rows_past_the_sort_key_compare_in_full() {
        // First strings too long for the key's length byte, and first
        // strings that share their length and first symbols: the keys
        // tie, and the rows still sort shortlex.
        let long = |n: usize, first: u8| {
            let mut syms = vec![0; n];
            syms[0] = first;
            Str::from_syms(syms)
        };
        let rows = [
            vec![long(300, 1), s("a")],
            vec![long(255, 1), s("b")],
            vec![long(256, 0), s("a")],
            vec![long(254, 1), s("a")],
            vec![long(254, 0), s("bb")],
            vec![s("abababa"), s("b")],
            vec![s("abababb"), s("a")],
            vec![s("abababa"), s("a")],
            vec![s("ab"), s("abababa")],
            vec![s("ab"), s("abababb")],
        ];
        let mut one_by_one = Relation::new(2);
        for t in rows.iter().rev() {
            assert!(one_by_one.insert(t.clone()));
        }
        let bulk = Relation::from_tuples(2, rows.clone());
        assert_eq!(one_by_one, bulk);
        let sorted: BTreeSet<Vec<Str>> = rows.iter().cloned().collect();
        assert!(bulk.iter().map(|t| t.to_vec()).eq(sorted));
        assert!(rows.iter().all(|t| one_by_one.contains(t)));
        assert!(!one_by_one.contains(&[long(255, 1), s("a")]));
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
