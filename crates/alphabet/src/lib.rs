//! Finite alphabets and strings over them.
//!
//! This crate provides the *domain* of every structure in the paper
//! "String Operations in Query Languages" (Benedikt, Libkin, Schwentick,
//! Segoufin; PODS 2001): the set `Σ*` of finite strings over a finite,
//! linearly ordered alphabet `Σ`.
//!
//! Strings are stored as packed vectors of symbol *indices* ([`Sym`]) into
//! an [`Alphabet`]. All the primitive operations used by the paper's
//! structures live here:
//!
//! * prefix tests `x ⪯ y` / `x ≺ y` ([`Str::is_prefix_of`],
//!   [`Str::is_strict_prefix_of`]),
//! * last/first symbol predicates `L_a`, `F_a`-style construction
//!   ([`Str::last`], [`Str::append`], [`Str::prepend`]),
//! * longest common prefix `x ⊓ y` ([`Str::lcp`]),
//! * relative suffix `x − y` ([`Str::subtract`]),
//! * left trim `TRIM_a` ([`Str::trim_leading`]),
//! * lexicographic and length-lexicographic (shortlex) orders
//!   ([`Str::lex_cmp`], [`Str::shortlex_cmp`]),
//! * enumeration of `Σ^{≤n}` ([`Alphabet::strings_up_to`]) and prefix
//!   closures ([`prefix_closure`]).

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

pub mod iter;

pub use iter::{StringsExactly, StringsUpTo};

/// A symbol: an index into an [`Alphabet`].
///
/// Indices are also the linear order on the alphabet (used by the
/// lexicographic order `≤_lex` of Section 4 of the paper).
pub type Sym = u8;

/// Maximum number of symbols in an alphabet.
///
/// The synchronized-automata layer reserves one value (`0xFF`) as the
/// padding symbol `⊥`, and packs up to eight tracks of one byte each into a
/// `u64` convolution symbol, so alphabets are capped well below that.
pub const MAX_ALPHABET: usize = 64;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlphabetError {
    /// The alphabet was empty, too large, or contained duplicate characters.
    BadAlphabet(String),
    /// A character in a parsed string is not part of the alphabet.
    UnknownChar(char),
    /// A symbol index is out of range for the alphabet.
    SymOutOfRange(Sym),
}

impl fmt::Display for AlphabetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlphabetError::BadAlphabet(msg) => write!(f, "bad alphabet: {msg}"),
            AlphabetError::UnknownChar(c) => write!(f, "character {c:?} not in alphabet"),
            AlphabetError::SymOutOfRange(s) => write!(f, "symbol index {s} out of range"),
        }
    }
}

impl std::error::Error for AlphabetError {}

/// A finite, linearly ordered alphabet `Σ = {a_0 < a_1 < … < a_{k-1}}`.
///
/// The order of the characters passed to [`Alphabet::new`] *is* the linear
/// order used for `≤_lex`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Alphabet {
    chars: Vec<char>,
}

impl Alphabet {
    /// Builds an alphabet from a sequence of distinct characters.
    ///
    /// # Errors
    ///
    /// Fails if the sequence is empty, longer than [`MAX_ALPHABET`], or
    /// contains duplicates.
    pub fn new(chars: &str) -> Result<Self, AlphabetError> {
        let chars: Vec<char> = chars.chars().collect();
        if chars.is_empty() {
            return Err(AlphabetError::BadAlphabet("empty".into()));
        }
        if chars.len() > MAX_ALPHABET {
            return Err(AlphabetError::BadAlphabet(format!(
                "{} characters exceeds the maximum of {MAX_ALPHABET}",
                chars.len()
            )));
        }
        let distinct: BTreeSet<char> = chars.iter().copied().collect();
        if distinct.len() != chars.len() {
            return Err(AlphabetError::BadAlphabet("duplicate characters".into()));
        }
        Ok(Alphabet { chars })
    }

    /// The binary alphabet `{0 < 1}`, the paper's default.
    pub fn binary() -> Self {
        Alphabet::new("01").expect("binary alphabet is valid")
    }

    /// The alphabet `{a < b}`.
    pub fn ab() -> Self {
        Alphabet::new("ab").expect("ab alphabet is valid")
    }

    /// The alphabet `{a < b < c}`.
    pub fn abc() -> Self {
        Alphabet::new("abc").expect("abc alphabet is valid")
    }

    /// Lower-case ASCII letters `a..z`.
    pub fn lowercase() -> Self {
        Alphabet::new("abcdefghijklmnopqrstuvwxyz").expect("ascii alphabet is valid")
    }

    /// Number of symbols `|Σ|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// `true` iff the alphabet has exactly one symbol (the degenerate case
    /// where `S_len` collapses to `S`; see Section 3 of the paper).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // constructors reject empty alphabets
    }

    /// All symbol indices in order.
    #[inline]
    pub fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        (0..self.chars.len() as u8).map(|s| s as Sym)
    }

    /// The character rendering of a symbol.
    pub fn char_of(&self, s: Sym) -> Result<char, AlphabetError> {
        self.chars
            .get(s as usize)
            .copied()
            .ok_or(AlphabetError::SymOutOfRange(s))
    }

    /// The symbol index of a character.
    pub fn sym_of(&self, c: char) -> Result<Sym, AlphabetError> {
        self.chars
            .iter()
            .position(|&x| x == c)
            .map(|i| i as Sym)
            .ok_or(AlphabetError::UnknownChar(c))
    }

    /// Parses a string of characters into a [`Str`].
    pub fn parse(&self, text: &str) -> Result<Str, AlphabetError> {
        let syms: Result<Vec<Sym>, _> = text.chars().map(|c| self.sym_of(c)).collect();
        Ok(Str::from_syms(syms?))
    }

    /// Renders a [`Str`] using this alphabet's characters.
    pub fn render(&self, s: &Str) -> String {
        s.syms()
            .iter()
            .map(|&x| self.chars.get(x as usize).copied().unwrap_or('?'))
            .collect()
    }

    /// Iterator over all strings of length exactly `n`, in lexicographic
    /// order.
    pub fn strings_exactly(&self, n: usize) -> StringsExactly {
        StringsExactly::new(self.len() as Sym, n)
    }

    /// Iterator over all strings of length at most `n` (`Σ^{≤n}` in the
    /// paper's notation), in shortlex order.
    pub fn strings_up_to(&self, n: usize) -> StringsUpTo {
        StringsUpTo::new(self.len() as Sym, n)
    }

    /// A stable 64-bit fingerprint of the alphabet (the characters *and*
    /// their order, since the order is the linear order `≤_lex` builds
    /// on). Used as a cache-key component by `strcalc-core`'s compilation
    /// cache; stable across processes (FNV-1a over the code points, not
    /// the std `Hash`, whose output is unspecified).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u64| {
            h ^= byte;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(self.chars.len() as u64);
        for &c in &self.chars {
            eat(c as u64);
        }
        // splitmix-style finalizer to spread the low FNV entropy.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// `|Σ^{≤n}| = (|Σ|^{n+1} − 1)/(|Σ| − 1)` (or `n+1` for `|Σ| = 1`),
    /// saturating at `usize::MAX`.
    pub fn count_up_to(&self, n: usize) -> usize {
        let k = self.len();
        if k == 1 {
            return n + 1;
        }
        let mut total: usize = 0;
        let mut pow: usize = 1;
        for _ in 0..=n {
            total = total.saturating_add(pow);
            pow = pow.saturating_mul(k);
        }
        total
    }
}

/// A finite string over some alphabet, stored as packed symbol indices.
///
/// `Str` deliberately does not carry a reference to its [`Alphabet`]:
/// databases hold millions of strings and the alphabet is ambient. The
/// [`Ord`] implementation is **shortlex** (length first, then
/// lexicographic), which gives a canonical enumeration order; use
/// [`Str::lex_cmp`] for the pure lexicographic order `≤_lex` of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Str {
    syms: Vec<Sym>,
}

impl Str {
    /// The empty string `ε`.
    #[inline]
    pub fn epsilon() -> Self {
        Str { syms: Vec::new() }
    }

    /// Builds a string from raw symbol indices.
    #[inline]
    pub fn from_syms(syms: Vec<Sym>) -> Self {
        Str { syms }
    }

    /// The underlying symbol indices.
    #[inline]
    pub fn syms(&self) -> &[Sym] {
        &self.syms
    }

    /// Whether every symbol is below `k`, i.e. the string is over a
    /// `k`-symbol alphabet.
    #[inline]
    pub fn within(&self, k: Sym) -> bool {
        self.max_sym().is_none_or(|m| m < k)
    }

    /// The largest symbol (`None` for `ε`). A branch-free maximum over
    /// the whole string, not a short-circuit search, so that the loop
    /// vectorizes.
    #[inline]
    pub fn max_sym(&self) -> Option<Sym> {
        self.syms.iter().copied().max()
    }

    /// Length `|x|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// `true` iff this is `ε`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// First symbol, if any.
    #[inline]
    pub fn first(&self) -> Option<Sym> {
        self.syms.first().copied()
    }

    /// Last symbol, if any. `L_a(x)` holds iff `x.last() == Some(a)`.
    #[inline]
    pub fn last(&self) -> Option<Sym> {
        self.syms.last().copied()
    }

    /// `l_a`: returns `x · a` (append `a` as the last symbol).
    pub fn append(&self, a: Sym) -> Str {
        let mut syms = Vec::with_capacity(self.syms.len() + 1);
        syms.extend_from_slice(&self.syms);
        syms.push(a);
        Str { syms }
    }

    /// `f_a`: returns `a · x` (prepend `a` as the first symbol).
    pub fn prepend(&self, a: Sym) -> Str {
        let mut syms = Vec::with_capacity(self.syms.len() + 1);
        syms.push(a);
        syms.extend_from_slice(&self.syms);
        Str { syms }
    }

    /// Concatenation `x · y`.
    ///
    /// Available as a *domain operation* (it is needed to build databases
    /// and workloads); note that admitting it as a *query operation* makes
    /// the calculus computationally complete (Proposition 1 of the paper).
    pub fn concat(&self, other: &Str) -> Str {
        let mut syms = Vec::with_capacity(self.syms.len() + other.syms.len());
        syms.extend_from_slice(&self.syms);
        syms.extend_from_slice(&other.syms);
        Str { syms }
    }

    /// Prefix test `x ⪯ y` (this ⪯ other), non-strict.
    pub fn is_prefix_of(&self, other: &Str) -> bool {
        self.syms.len() <= other.syms.len() && other.syms[..self.syms.len()] == self.syms[..]
    }

    /// Strict prefix test `x ≺ y`.
    pub fn is_strict_prefix_of(&self, other: &Str) -> bool {
        self.syms.len() < other.syms.len() && self.is_prefix_of(other)
    }

    /// `x < y` in the paper's "extension by exactly one symbol" sense:
    /// `y = x · a` for some `a`.
    pub fn extends_by_one(&self, other: &Str) -> bool {
        other.syms.len() == self.syms.len() + 1 && self.is_prefix_of(other)
    }

    /// Longest common prefix `x ⊓ y`.
    pub fn lcp(&self, other: &Str) -> Str {
        let n = self
            .syms
            .iter()
            .zip(other.syms.iter())
            .take_while(|(a, b)| a == b)
            .count();
        Str {
            syms: self.syms[..n].to_vec(),
        }
    }

    /// The paper's relative suffix `x − y`: if `x = y · z` then `z`,
    /// otherwise `ε`.
    pub fn subtract(&self, y: &Str) -> Str {
        if y.is_prefix_of(self) {
            Str {
                syms: self.syms[y.syms.len()..].to_vec(),
            }
        } else {
            Str::epsilon()
        }
    }

    /// `TRIM_a` of Section 7: if `x = a · x'` returns `x'`, else `ε`.
    pub fn trim_leading(&self, a: Sym) -> Str {
        if self.first() == Some(a) {
            Str {
                syms: self.syms[1..].to_vec(),
            }
        } else {
            Str::epsilon()
        }
    }

    /// Inserts `a` right after the prefix `p` of `x` — the operation the
    /// paper's Conclusion proposes as further research ("inserting
    /// characters at arbitrary position in a string x, specified by a
    /// prefix of x"). Returns `None` when `p` is not a prefix of `x`.
    pub fn insert_after(&self, p: &Str, a: Sym) -> Option<Str> {
        if !p.is_prefix_of(self) {
            return None;
        }
        let mut syms = Vec::with_capacity(self.syms.len() + 1);
        syms.extend_from_slice(&self.syms[..p.len()]);
        syms.push(a);
        syms.extend_from_slice(&self.syms[p.len()..]);
        Some(Str { syms })
    }

    /// Removes all *trailing* occurrences of `a` (SQL's `TRIM TRAILING`,
    /// which Section 4 notes is expressible over `S`).
    pub fn trim_trailing_all(&self, a: Sym) -> Str {
        let mut n = self.syms.len();
        while n > 0 && self.syms[n - 1] == a {
            n -= 1;
        }
        Str {
            syms: self.syms[..n].to_vec(),
        }
    }

    /// The prefix of length `n` (whole string if `n ≥ |x|`).
    pub fn prefix(&self, n: usize) -> Str {
        let n = n.min(self.syms.len());
        Str {
            syms: self.syms[..n].to_vec(),
        }
    }

    /// All prefixes of `x`, from `ε` to `x` itself (`|x| + 1` strings).
    pub fn prefixes(&self) -> impl Iterator<Item = Str> + '_ {
        (0..=self.syms.len()).map(move |n| self.prefix(n))
    }

    /// Pure lexicographic comparison `≤_lex` induced by the symbol order.
    ///
    /// Note `x ⪯ y` implies `x ≤_lex y`, matching the definability of
    /// `≤_lex` over `S` (Section 4, formula (2) of the paper).
    pub fn lex_cmp(&self, other: &Str) -> Ordering {
        self.syms.cmp(&other.syms)
    }

    /// Shortlex (length-lexicographic) comparison: shorter strings first,
    /// ties broken lexicographically. This is the [`Ord`] order.
    pub fn shortlex_cmp(&self, other: &Str) -> Ordering {
        self.syms
            .len()
            .cmp(&other.syms.len())
            .then_with(|| self.syms.cmp(&other.syms))
    }

    /// Equal-length predicate `el(x, y)`, i.e. `|x| = |y|`.
    #[inline]
    pub fn el(&self, other: &Str) -> bool {
        self.syms.len() == other.syms.len()
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Self) -> Ordering {
        self.shortlex_cmp(other)
    }
}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Str {
    /// Renders symbol *indices* (`ε` for the empty string). For a
    /// character rendering use [`Alphabet::render`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.syms.is_empty() {
            return write!(f, "ε");
        }
        for s in &self.syms {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// The prefix closure `prefix(C) = { s : s ⪯ s', s' ∈ C }` of a finite set.
pub fn prefix_closure<'a, I: IntoIterator<Item = &'a Str>>(set: I) -> BTreeSet<Str> {
    let mut out = BTreeSet::new();
    for s in set {
        for p in s.prefixes() {
            out.insert(p);
        }
    }
    out
}

/// The length-down closure `↓C = { s : |s| ≤ |s'| for some s' ∈ C }`
/// materialized over an explicit alphabet.
///
/// **Warning:** this has `|Σ|^{max length}` elements; it is the expensive
/// `↓` operation of `RA(S_len)` (Section 6.2 of the paper notes it is
/// unavoidable). Intended for small instances and for benchmarks that
/// demonstrate exactly this blow-up.
pub fn down_closure<'a, I: IntoIterator<Item = &'a Str>>(
    alphabet: &Alphabet,
    set: I,
) -> BTreeSet<Str> {
    let max_len = set.into_iter().map(Str::len).max().unwrap_or(0);
    alphabet.strings_up_to(max_len).collect()
}

/// `d(s, C) = |s| − |s ⊓ C|` where `s ⊓ C` is the longest among
/// `s ⊓ c, c ∈ C` (Section 6.1). For empty `C` this is `|s|`.
pub fn distance_to_set<'a, I: IntoIterator<Item = &'a Str>>(s: &Str, set: I) -> usize {
    let best = set.into_iter().map(|c| s.lcp(c).len()).max().unwrap_or(0);
    s.len() - best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn s(t: &str) -> Str {
        ab().parse(t).unwrap()
    }

    #[test]
    fn alphabet_construction() {
        assert!(Alphabet::new("").is_err());
        assert!(Alphabet::new("aa").is_err());
        assert_eq!(Alphabet::binary().len(), 2);
        assert_eq!(Alphabet::lowercase().len(), 26);
    }

    #[test]
    fn alphabet_round_trip() {
        let a = Alphabet::abc();
        let x = a.parse("cab").unwrap();
        assert_eq!(a.render(&x), "cab");
        assert_eq!(x.syms(), &[2, 0, 1]);
        assert!(a.parse("xyz").is_err());
    }

    #[test]
    fn prefix_relations() {
        assert!(s("").is_prefix_of(&s("ab")));
        assert!(s("a").is_prefix_of(&s("ab")));
        assert!(s("ab").is_prefix_of(&s("ab")));
        assert!(!s("ab").is_strict_prefix_of(&s("ab")));
        assert!(s("a").is_strict_prefix_of(&s("ab")));
        assert!(!s("b").is_prefix_of(&s("ab")));
        assert!(s("a").extends_by_one(&s("ab")));
        assert!(!s("a").extends_by_one(&s("abb")));
    }

    #[test]
    fn lcp_and_subtract() {
        assert_eq!(s("abab").lcp(&s("abba")), s("ab"));
        assert_eq!(s("abab").lcp(&s("ba")), s(""));
        // x − y: relative suffix of y in x
        assert_eq!(s("abab").subtract(&s("ab")), s("ab"));
        assert_eq!(s("abab").subtract(&s("ba")), s(""));
        assert_eq!(s("ab").subtract(&s("")), s("ab"));
        assert_eq!(s("").subtract(&s("")), s(""));
    }

    #[test]
    fn append_prepend_trim() {
        assert_eq!(s("ab").append(0), s("aba"));
        assert_eq!(s("ab").prepend(1), s("bab"));
        assert_eq!(s("aab").trim_leading(0), s("ab"));
        assert_eq!(s("bab").trim_leading(0), s(""));
        assert_eq!(s("").trim_leading(0), s(""));
        assert_eq!(s("abbb").trim_trailing_all(1), s("a"));
        assert_eq!(s("bbb").trim_trailing_all(1), s(""));
    }

    #[test]
    fn orders() {
        use Ordering::*;
        // lexicographic: prefix precedes extension; 'a' < 'b'
        assert_eq!(s("a").lex_cmp(&s("ab")), Less);
        assert_eq!(s("ab").lex_cmp(&s("b")), Less);
        assert_eq!(s("b").lex_cmp(&s("ab")), Greater);
        // shortlex: length dominates
        assert_eq!(s("b").shortlex_cmp(&s("ab")), Less);
        assert_eq!(s("ab").shortlex_cmp(&s("ab")), Equal);
    }

    #[test]
    fn closures() {
        let set = [s("ab"), s("b")];
        let pc = prefix_closure(set.iter());
        let expect: BTreeSet<Str> = [s(""), s("a"), s("ab"), s("b")].into_iter().collect();
        assert_eq!(pc, expect);

        let dc = down_closure(&ab(), set.iter());
        assert_eq!(dc.len(), 7); // ε, a, b, aa, ab, ba, bb
    }

    #[test]
    fn distances() {
        let c = [s("ab"), s("ba")];
        assert_eq!(distance_to_set(&s("abbb"), c.iter()), 2);
        assert_eq!(distance_to_set(&s("ab"), c.iter()), 0);
        assert_eq!(distance_to_set(&s("bb"), c.iter()), 1);
        assert_eq!(distance_to_set(&s("aaa"), [].iter()), 3);
    }

    #[test]
    fn enumeration_counts() {
        let a = ab();
        assert_eq!(a.strings_exactly(3).count(), 8);
        assert_eq!(a.strings_up_to(3).count(), 15);
        assert_eq!(a.count_up_to(3), 15);
        let one = Alphabet::new("a").unwrap();
        assert_eq!(one.count_up_to(5), 6);
        assert_eq!(one.strings_up_to(5).count(), 6);
    }

    #[test]
    fn enumeration_order_is_shortlex() {
        let a = ab();
        let all: Vec<Str> = a.strings_up_to(2).collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
        assert_eq!(all[0], s(""));
        assert_eq!(all[1], s("a"));
        assert_eq!(all[2], s("b"));
        assert_eq!(all[3], s("aa"));
    }

    #[test]
    fn fingerprints_distinguish_alphabets_and_orders() {
        assert_eq!(Alphabet::ab().fingerprint(), Alphabet::ab().fingerprint());
        assert_ne!(Alphabet::ab().fingerprint(), Alphabet::abc().fingerprint());
        // Character order participates: {a<b} and {b<a} are different
        // linear orders, hence different structures.
        let ba = Alphabet::new("ba").unwrap();
        assert_ne!(Alphabet::ab().fingerprint(), ba.fingerprint());
    }

    #[test]
    fn el_predicate() {
        assert!(s("ab").el(&s("ba")));
        assert!(!s("ab").el(&s("b")));
        assert!(s("").el(&s("")));
    }
}
