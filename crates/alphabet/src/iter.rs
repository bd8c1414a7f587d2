//! Enumeration of `Σ^n` and `Σ^{≤n}`.
//!
//! These iterators drive the length-restricted quantifier semantics of
//! `RC(S_len)` (Theorem 2 of the paper) in the enumeration engine, and the
//! `↓` operator of `RA(S_len)`. They enumerate without materializing the
//! whole (exponential) set.

use crate::{Str, Sym};

/// Iterator over all strings of a fixed length `n` over a `k`-symbol
/// alphabet, in lexicographic order (odometer on symbol indices).
#[derive(Debug, Clone)]
pub struct StringsExactly {
    k: Sym,
    current: Option<Vec<Sym>>,
}

impl StringsExactly {
    /// `Σ^n` over the first `k` symbols, as
    /// [`Alphabet::strings_exactly`](crate::Alphabet::strings_exactly)
    /// for a caller that holds only the alphabet's size.
    ///
    /// # Panics
    ///
    /// If `k` is zero (an [`Alphabet`](crate::Alphabet) is never empty).
    pub fn new(k: Sym, n: usize) -> Self {
        assert!(k >= 1, "alphabet must be nonempty");
        StringsExactly {
            k,
            current: Some(vec![0; n]),
        }
    }
}

impl Iterator for StringsExactly {
    type Item = Str;

    fn next(&mut self) -> Option<Str> {
        let cur = self.current.as_mut()?;
        let item = Str::from_syms(cur.clone());
        // Odometer increment, most significant digit leftmost.
        let mut i = cur.len();
        loop {
            if i == 0 {
                self.current = None;
                break;
            }
            i -= 1;
            if cur[i] + 1 < self.k {
                cur[i] += 1;
                for d in cur[i + 1..].iter_mut() {
                    *d = 0;
                }
                break;
            }
        }
        Some(item)
    }
}

/// Iterator over all strings of length at most `n`, in shortlex order.
#[derive(Debug, Clone)]
pub struct StringsUpTo {
    k: Sym,
    n: usize,
    len: usize,
    inner: StringsExactly,
}

impl StringsUpTo {
    /// `Σ^{≤n}` over the first `k` symbols, as
    /// [`Alphabet::strings_up_to`](crate::Alphabet::strings_up_to) for a
    /// caller that holds only the alphabet's size.
    ///
    /// # Panics
    ///
    /// If `k` is zero (an [`Alphabet`](crate::Alphabet) is never empty).
    pub fn new(k: Sym, n: usize) -> Self {
        StringsUpTo {
            k,
            n,
            len: 0,
            inner: StringsExactly::new(k, 0),
        }
    }
}

impl Iterator for StringsUpTo {
    type Item = Str;

    fn next(&mut self) -> Option<Str> {
        loop {
            if let Some(s) = self.inner.next() {
                return Some(s);
            }
            if self.len >= self.n {
                return None;
            }
            self.len += 1;
            self.inner = StringsExactly::new(self.k, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Alphabet;

    #[test]
    fn exact_enumeration_is_complete_and_ordered() {
        let a = Alphabet::abc();
        let all: Vec<_> = a.strings_exactly(2).collect();
        assert_eq!(all.len(), 9);
        for w in all.windows(2) {
            assert!(w[0].lex_cmp(&w[1]).is_lt());
        }
    }

    #[test]
    fn zero_length() {
        let a = Alphabet::binary();
        let all: Vec<_> = a.strings_exactly(0).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }

    #[test]
    fn up_to_matches_count() {
        let a = Alphabet::abc();
        for n in 0..5 {
            assert_eq!(a.strings_up_to(n).count(), a.count_up_to(n));
        }
    }
}
