//! Databases: finite relations over `Σ*`.
//!
//! A [`Relation`] stores its rows sorted, in leaves of at most 32 rows
//! with a sort key per row. Relations share leaves: a relation is a run
//! of parts, each an `Arc` of a leaf plus a `u32` mask of the leaf's
//! rows it holds. An answer that keeps some of a relation's rows
//! ([`Relation::subsequence`], which every identity scan returns) is the
//! same leaves under new masks, built without touching a row; a clone
//! of a relation or a [`Database`] is one `Arc` per leaf. A leaf is
//! written only while one part holds it whole: [`Relation::insert`]
//! first compacts a masked leaf into a fresh one and copies a shared
//! one.

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
/// A part's live-row mask is a `u32`, one bit per row.
const LEAF_ROWS: usize = 32;

/// The mask of a part whose first `n` rows are live (`n ≤ 32`).
fn first_rows(n: usize) -> u32 {
    u32::MAX.checked_shr((LEAF_ROWS - n) as u32).unwrap_or(0)
}

/// The last row a (non-zero) mask holds.
fn last_row(live: u32) -> usize {
    31 - live.leading_zeros() as usize
}

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

/// A run of strictly increasing rows, each row's sort key beside it.
/// Relations share leaves: a leaf is written only while one relation
/// holds it.
#[derive(Clone)]
struct Leaf {
    keys: Vec<u64>,
    rows: Vec<Row>,
}

impl Leaf {
    /// An empty leaf with room for one row past a full leaf, so the
    /// insert that splits it does not reallocate.
    fn new() -> Leaf {
        Leaf {
            keys: Vec::with_capacity(LEAF_ROWS + 1),
            rows: Vec::with_capacity(LEAF_ROWS + 1),
        }
    }

    fn push(&mut self, key: u64, t: Row) {
        debug_assert_eq!(key, sort_key(&t), "a row keeps its own sort key");
        self.keys.push(key);
        self.rows.push(t);
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

/// A relation's view of one leaf: the leaf, shared, and which of its
/// rows the relation holds.
#[derive(Clone)]
struct Part {
    leaf: Arc<Leaf>,
    /// Bit `i` is set iff the leaf's `i`-th row is live; never 0.
    live: u32,
    /// The sort key of the last live row, kept here so that a search
    /// over the parts reads no leaf until two keys tie.
    last: u64,
}

impl Part {
    fn new(leaf: Leaf) -> Part {
        Part {
            live: first_rows(leaf.rows.len()),
            last: leaf.keys.last().copied().unwrap_or_default(),
            leaf: Arc::new(leaf),
        }
    }

    /// The part of this leaf's rows flagged in `live`, or `None` when no
    /// row is.
    fn keeping(&self, live: u32) -> Option<Part> {
        (live != 0).then(|| Part {
            leaf: Arc::clone(&self.leaf),
            live,
            last: self.leaf.keys[last_row(live)],
        })
    }

    /// Whether the leaf's `j`-th row is live.
    fn holds(&self, j: usize) -> bool {
        self.live >> j & 1 == 1
    }

    fn len(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// Whether every row of the leaf is live.
    fn whole(&self) -> bool {
        self.live == first_rows(self.leaf.rows.len())
    }

    /// Whether every live row sorts below `t`.
    fn below(&self, key: u64, t: &[Str]) -> bool {
        self.last < key || (self.last == key && &*self.leaf.rows[last_row(self.live)] < t)
    }

    /// The leaf to insert into: a masked leaf is first compacted into a
    /// fresh one of its live rows, and a shared one is copied. `j`, a
    /// place in the leaf, becomes the same place among the live rows.
    fn leaf_mut(&mut self, j: &mut usize) -> &mut Leaf {
        if !self.whole() {
            *j = (self.live & first_rows(*j)).count_ones() as usize;
            let mut leaf = Leaf::new();
            for i in (0..self.leaf.rows.len()).filter(|&i| self.holds(i)) {
                leaf.push(self.leaf.keys[i], Arc::clone(&self.leaf.rows[i]));
            }
            self.leaf = Arc::new(leaf);
        }
        Arc::make_mut(&mut self.leaf)
    }
}

/// A relation's live rows in order. A whole part is walked as a plain
/// slice, a masked one by its set bits.
#[derive(Clone)]
struct Rows<'a> {
    parts: std::slice::Iter<'a, Part>,
    /// The rest of the current part, when it is whole.
    whole: std::slice::Iter<'a, Row>,
    /// The current part's rows, when it is masked, and its live rows not
    /// yet yielded.
    masked: &'a [Row],
    live: u32,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a Row;

    #[inline]
    fn next(&mut self) -> Option<&'a Row> {
        if let Some(t) = self.whole.next() {
            return Some(t);
        }
        loop {
            if self.live != 0 {
                let i = self.live.trailing_zeros() as usize;
                self.live &= self.live - 1;
                return self.masked.get(i);
            }
            let part = self.parts.next()?;
            if part.whole() {
                self.whole = part.leaf.rows.iter();
                return self.whole.next();
            }
            (self.masked, self.live) = (&part.leaf.rows, part.live);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.whole.len() + self.live.count_ones() as usize, None)
    }
}

/// One finite relation: a set of equal-arity tuples.
///
/// The rows are shared ([`Row`]) and kept in strictly increasing order
/// (shortlex componentwise), in leaves of at most 32 rows with each
/// row's sort key stored beside it. The leaves are shared too: the
/// relation is a run of parts, each a leaf behind an `Arc` plus a mask
/// of the leaf's rows the relation holds. A scan walks the parts in
/// order. An answer that keeps some of a relation's rows
/// ([`Relation::subsequence`]) shares their leaves under new masks: it
/// touches no row, copies no string and sorts nothing, and it keeps the
/// whole leaf of each kept row alive. Cloning a relation clones one
/// `Arc` per leaf. [`Relation::contains`] is a binary search plus one
/// bit test. [`Relation::insert`] is a binary search plus a shift of at
/// most one leaf, after copying the leaf when another relation shares it
/// or compacting it when some of its rows are not live; build a large
/// relation with [`Relation::from_tuples`], which sorts and deduplicates
/// once.
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
    /// Parts whose live rows, concatenated, are strictly increasing.
    parts: Vec<Part>,
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
            parts: Vec::new(),
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
        let len = rows.len();
        let mut parts = Vec::with_capacity(len.div_ceil(LEAF_ROWS));
        let mut rows = rows.into_iter().peekable();
        while rows.peek().is_some() {
            let mut leaf = Leaf::new();
            for t in rows.by_ref().take(LEAF_ROWS) {
                leaf.push(sort_key(&t), t);
            }
            parts.push(Part::new(leaf));
        }
        Relation {
            arity,
            parts,
            len,
            ceiling,
        }
    }

    /// The relation of the rows whose flag is set: `keep[i]` flags the
    /// `i`-th row in increasing order, and rows past its end are left
    /// out. Each part with a flagged row is shared under the mask of its
    /// flagged rows, so no row is read, copied or compared and a part
    /// with none is left out. Its ceiling is this relation's.
    pub fn subsequence(&self, keep: &[bool]) -> Relation {
        let mut flags = keep;
        let mut len = 0;
        let parts: Vec<Part> = self
            .parts
            .iter()
            .map_while(|part| {
                let (here, rest) = flags.split_at(part.len().min(flags.len()));
                flags = rest;
                (!here.is_empty()).then_some((part, here))
            })
            .filter_map(|(part, here)| {
                let live = if part.whole() {
                    // The `i`-th flag is bit `i`.
                    here.iter()
                        .rev()
                        .fold(0, |m, &kept| m << 1 | u32::from(kept))
                } else {
                    // The `i`-th flag is the part's `i`-th set bit.
                    let (mut rest, mut live) = (part.live, 0);
                    for &kept in here {
                        let bit = rest & rest.wrapping_neg();
                        rest ^= bit;
                        live |= if kept { bit } else { 0 };
                    }
                    live
                };
                len += live.count_ones() as usize;
                part.keeping(live)
            })
            .collect();
        Relation {
            arity: self.arity,
            parts,
            len,
            ceiling: self.ceiling,
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

    /// The part where `t` is stored or belongs (the first whose live
    /// rows are not all below it, else the last), and the row's place in
    /// that part's leaf. `None` when the relation is empty.
    fn find(&self, key: u64, t: &[Str]) -> Option<(usize, Result<usize, usize>)> {
        let last = self.parts.len().checked_sub(1)?;
        let i = self
            .parts
            .partition_point(|part| part.below(key, t))
            .min(last);
        Some((i, self.parts[i].leaf.search(key, t)))
    }

    pub fn contains(&self, t: &[Str]) -> bool {
        match self.find(sort_key(t), t) {
            Some((i, Ok(j))) => self.parts[i].holds(j),
            _ => false,
        }
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
                let mut leaf = Leaf::new();
                leaf.push(key, t);
                self.parts.push(Part::new(leaf));
            }
            Some((i, Ok(j))) if self.parts[i].holds(j) => return false,
            Some((i, Ok(mut j) | Err(mut j))) => {
                let part = &mut self.parts[i];
                let leaf = part.leaf_mut(&mut j);
                leaf.keys.insert(j, key);
                leaf.rows.insert(j, t);
                let upper = (leaf.rows.len() > LEAF_ROWS).then(|| {
                    // The upper half gets a whole leaf's room, so the
                    // inserts that refill it do not reallocate.
                    let half = leaf.rows.len() / 2;
                    let mut upper = Leaf::new();
                    upper.keys.extend(leaf.keys.drain(half..));
                    upper.rows.extend(leaf.rows.drain(half..));
                    Part::new(upper)
                });
                let (n, last) = (leaf.rows.len(), leaf.keys[leaf.rows.len() - 1]);
                part.live = first_rows(n);
                part.last = last;
                if let Some(upper) = upper {
                    self.parts.insert(i + 1, upper);
                }
            }
        }
        self.len += 1;
        self.ceiling = self.ceiling.max(ceiling);
        true
    }

    /// The rows in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> + Clone {
        Rows {
            parts: self.parts.iter(),
            whole: [].iter(),
            masked: &[],
            live: 0,
        }
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
