//! Plan-resource certification: the interval abstract domain behind
//! `planlint` (the plan-IR verifier living in `strcalc-core`).
//!
//! The cost pass (SA030) predicts compiled-automaton sizes in a scalar
//! log₂ domain — good enough to *rank* plans, but not to *certify* them.
//! This module provides the sound counterpart: closed `u64` intervals
//! `[lo, hi]` over automaton state counts and heap bytes, with
//! saturating transfer functions for every plan operator (products
//! multiply, unions add, complements determinize to `2^n`, projections
//! and cache lookups pass through). The planner's verifier runs these
//! transfer functions bottom-up over the plan DAG and attaches the
//! resulting [`ResourceCert`] to every node; `EXPLAIN` prints it, the
//! planner seeds each plan's budget from it, and execution cross-checks
//! it against the actuals (SA240) — every test run doubles as a
//! soundness check of the model.
//!
//! Language atoms get **pattern-class tightening**: a regex that is the
//! image of a SQL `LIKE` pattern (and most are, via the `sqlfront`
//! lowering) falls into one of a handful of classes — literal, fixed
//! length, prefix `w%`, suffix `%w`, substring `%w%`, or general
//! segments `w₁%…%wₙ` — each with a closed-form linear DFA bound
//! (`m + 2` resp. `m + n + 2` states for `m` non-`%` items), following
//! the LIKE-complexity analysis of Petersen. Patterns outside these
//! classes fall back to the memoized exact regex→DFA sizing shared with
//! the cost pass.

use strcalc_alphabet::Sym;
use strcalc_automata::Regex;
use strcalc_logic::{Atom, Formula, Lang};

use crate::cost;
use crate::fragments::{like_items, LikeItem};

/// Certified state bound charged per database-relation atom: a trie
/// over the stored strings, unknowable without the database. Covers
/// relations up to ~4k stored symbols; larger databases surface as
/// SA240 calibration warnings by design (the certificate is nominal,
/// and the calibration loop is how the model learns it is stale).
pub const REL_CERT_STATES: u64 = 4096;

/// Certified state bound per built-in structural atom (prefix, cover,
/// `el`, `last`, …): their synchronized automata have a handful of
/// states even after completion.
pub const STRUCT_CERT_STATES: u64 = 8;

/// A closed interval `[lo, hi]` of `u64` resource counts. All
/// arithmetic saturates: `u64::MAX` reads as "unbounded" and renders
/// as `∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    pub lo: u64,
    pub hi: u64,
}

impl Interval {
    pub const ZERO: Interval = Interval::point(0);

    pub const fn point(n: u64) -> Interval {
        Interval { lo: n, hi: n }
    }

    pub const fn new(lo: u64, hi: u64) -> Interval {
        Interval { lo, hi }
    }

    /// Interval addition, saturating.
    pub fn sat_add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(o.lo),
            hi: self.hi.saturating_add(o.hi),
        }
    }

    /// Interval multiplication, saturating (both bounds non-negative).
    pub fn sat_mul(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_mul(o.lo),
            hi: self.hi.saturating_mul(o.hi),
        }
    }

    /// Least upper bound (interval hull).
    pub fn join(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Interval subtraction over the unsigned domain, `[lo−o.hi,
    /// hi−o.lo]` clamped at zero. Follows the cache/budget accounting
    /// idiom (`checked_sub` + `debug_assert`): subtracting more than
    /// the bound holds is an underflow — asserted in debug builds (the
    /// caller's demand exceeded its certified supply) and saturated to
    /// zero, never wrapped, in release builds.
    pub fn sat_sub(self, o: Interval) -> Interval {
        let hi = self.hi.checked_sub(o.lo);
        debug_assert!(
            hi.is_some(),
            "interval underflow: [{},{}] − [{},{}]",
            self.lo,
            self.hi,
            o.lo,
            o.hi
        );
        Interval {
            lo: self.lo.saturating_sub(o.hi),
            hi: hi.unwrap_or(0),
        }
    }

    pub fn add_const(self, c: u64) -> Interval {
        self.sat_add(Interval::point(c))
    }

    pub fn scale(self, c: u64) -> Interval {
        self.sat_mul(Interval::point(c))
    }

    /// `2^self`, saturating — the determinization transfer function.
    pub fn pow2(self) -> Interval {
        Interval {
            lo: pow2_sat(self.lo),
            hi: pow2_sat(self.hi),
        }
    }

    pub fn contains(self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    pub fn is_zero(self) -> bool {
        self == Interval::ZERO
    }
}

fn pow2_sat(n: u64) -> u64 {
    if n >= 63 {
        u64::MAX
    } else {
        1u64 << n
    }
}

/// Saturating `base^exp`.
fn pow_sat(base: u64, exp: u32) -> u64 {
    let mut acc = 1u64;
    for _ in 0..exp {
        acc = acc.saturating_mul(base);
        if acc == u64::MAX {
            break;
        }
    }
    acc
}

/// Renders a bound compactly: small values in decimal, large ones as a
/// power of two, saturated ones as `∞`.
pub fn fmt_bound(v: u64) -> String {
    if v == u64::MAX {
        "∞".to_string()
    } else if v > 1 << 20 {
        // `v > 2^20` makes the subtraction provably safe; keep the
        // checked form anyway (panic-audit: no unchecked `-` in the
        // interval domain).
        let bits = 64 - v.checked_sub(1).unwrap_or(v).leading_zeros();
        format!("2^{bits}")
    } else {
        v.to_string()
    }
}

/// A per-node resource certificate: sound upper (and trivial lower)
/// bounds on the states and heap bytes of the automaton the node's
/// subtree compiles to. Interpreter-strategy plans build no automata
/// and certify [`ResourceCert::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceCert {
    pub states: Interval,
    pub bytes: Interval,
}

impl ResourceCert {
    pub const ZERO: ResourceCert = ResourceCert {
        states: Interval::ZERO,
        bytes: Interval::ZERO,
    };

    /// Byte bound charged per automaton state: a full transition table
    /// over the padded synchronized symbol space `(k+1)^tracks`, with
    /// generous per-entry and fixed overheads. Deliberately above the
    /// engine's `approx_bytes` accounting so the certificate stays an
    /// upper bound.
    pub fn per_state_bytes(k: Sym, tracks: usize) -> u64 {
        pow_sat(u64::from(k) + 1, tracks as u32)
            .saturating_mul(128)
            .saturating_add(256)
    }

    /// A certificate from a state interval, with the byte bound derived
    /// from the node's track count.
    pub fn from_states(states: Interval, k: Sym, tracks: usize) -> ResourceCert {
        let per = ResourceCert::per_state_bytes(k, tracks);
        ResourceCert {
            states,
            bytes: Interval::new(0, states.hi.saturating_mul(per)),
        }
    }

    /// Product construction: states multiply.
    pub fn product(children: &[ResourceCert], k: Sym, tracks: usize) -> ResourceCert {
        let states = children
            .iter()
            .map(|c| c.states)
            .fold(Interval::point(1), Interval::sat_mul);
        ResourceCert::from_states(states, k, tracks)
    }

    /// Union: disjoint sum of the operand automata plus a fresh start.
    pub fn union(children: &[ResourceCert], k: Sym, tracks: usize) -> ResourceCert {
        let states = children
            .iter()
            .map(|c| c.states)
            .fold(Interval::ZERO, Interval::sat_add)
            .add_const(1);
        ResourceCert::from_states(states, k, tracks)
    }

    /// Complement: determinize (`2^n`) then flip, plus a completion
    /// sink. The lower bound collapses to 1 (complementing may reach a
    /// trivial automaton).
    pub fn complement(child: &ResourceCert, k: Sym, tracks: usize) -> ResourceCert {
        let hi = pow2_sat(child.states.hi).saturating_add(1);
        ResourceCert::from_states(Interval::new(1, hi), k, tracks)
    }

    /// State-preserving operators (projection, quantifier restriction,
    /// cache lookup, enumeration roots): states pass through, bytes are
    /// re-derived for this node's track count.
    pub fn passthrough(child: &ResourceCert, k: Sym, tracks: usize) -> ResourceCert {
        ResourceCert::from_states(child.states, k, tracks)
    }

    /// `true` iff `other` certifies no more than `self` (the pass gate:
    /// a rewritten plan must satisfy `fits_within` its predecessor's
    /// certificate bounds).
    pub fn admits(&self, other: &ResourceCert) -> bool {
        other.states.hi <= self.states.hi && other.bytes.hi <= self.bytes.hi
    }

    pub fn is_zero(&self) -> bool {
        self.states.is_zero() && self.bytes.is_zero()
    }

    /// Stable one-line rendering for `EXPLAIN` and diagnostics.
    pub fn summary(&self) -> String {
        format!(
            "states ≤{}, bytes ≤{}",
            fmt_bound(self.states.hi),
            fmt_bound(self.bytes.hi)
        )
    }
}

/// The LIKE pattern classes with closed-form linear DFA bounds. `m`
/// counts non-`%` pattern items (literals and `_`), `n` counts literal
/// segments between `%`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LikeShape {
    /// The empty language (a pattern containing an unmatchable escape).
    Unmatchable,
    /// `%…%` only: matches every string.
    AnyString,
    /// Literals only: exactly one string.
    Literal { m: usize },
    /// Literals and `_` only: a fixed-length test.
    FixedLength { m: usize },
    /// `w%` — literal prefix test.
    Prefix { m: usize },
    /// `%w` — literal suffix test.
    Suffix { m: usize },
    /// `%w%` — literal substring test.
    Substring { m: usize },
    /// `w₁%w₂%…%wₙ` — ordered literal segments.
    Segments { m: usize, n: usize },
}

impl LikeShape {
    /// The certified DFA state bound for the class: position-tracking
    /// automata need one state per pattern position plus a start and a
    /// dead/accept sink (`m + 2`); multi-segment patterns additionally
    /// pay one KMP-restart state per segment (`m + n + 2`).
    pub fn state_bound(self) -> u64 {
        match self {
            LikeShape::Unmatchable | LikeShape::AnyString => 1,
            LikeShape::Literal { m }
            | LikeShape::FixedLength { m }
            | LikeShape::Prefix { m }
            | LikeShape::Suffix { m }
            | LikeShape::Substring { m } => m as u64 + 2,
            LikeShape::Segments { m, n } => (m + n) as u64 + 2,
        }
    }
}

/// Classifies a regex as the image of a LIKE pattern, if it has the
/// shape `LikePattern::to_regex` produces: a concatenation of symbol
/// literals (`a`), `.` (from `_`) and `.*` (from `%`). Returns `None`
/// for anything else — general regexes keep the exact DFA-sizing path.
pub fn classify_like(re: &Regex) -> Option<LikeShape> {
    let Some(items) = like_items(re) else {
        return match re {
            Regex::Empty => Some(LikeShape::Unmatchable),
            _ => None,
        };
    };
    let percents = items.iter().filter(|i| **i == LikeItem::Percent).count();
    let unders = items.iter().filter(|i| **i == LikeItem::Underscore).count();
    // `percents` counts a subset of `items`, so this cannot underflow;
    // saturating form per the panic audit.
    let m = items.len().saturating_sub(percents);
    if percents == 0 {
        return Some(if unders > 0 {
            LikeShape::FixedLength { m }
        } else {
            LikeShape::Literal { m }
        });
    }
    // `%` present: classify by where the percents sit. Mixing `_` with
    // `%` defeats single-position tracking (the match set is no longer
    // a single pattern position), so those patterns are not claimed.
    if unders > 0 {
        return None;
    }
    if m == 0 {
        return Some(LikeShape::AnyString);
    }
    let leading = items.first() == Some(&LikeItem::Percent);
    let trailing = items.last() == Some(&LikeItem::Percent);
    let inner: &[LikeItem] = {
        let start = items.iter().position(|i| matches!(i, LikeItem::Lit(_)))?;
        let end = items.iter().rposition(|i| matches!(i, LikeItem::Lit(_)))?;
        &items[start..=end]
    };
    let inner_percents = inner.iter().filter(|i| **i == LikeItem::Percent).count();
    if inner_percents == 0 {
        return Some(match (leading, trailing) {
            (true, true) => LikeShape::Substring { m },
            (true, false) => LikeShape::Suffix { m },
            (false, true) => LikeShape::Prefix { m },
            (false, false) => unreachable!("percents == 0 handled above"),
        });
    }
    // Count the literal segments between `%`s.
    let mut n = 0usize;
    let mut in_seg = false;
    for i in &items {
        match i {
            LikeItem::Lit(_) => {
                if !in_seg {
                    n += 1;
                    in_seg = true;
                }
            }
            LikeItem::Percent => in_seg = false,
            LikeItem::Underscore => unreachable!("underscores rejected above"),
        }
    }
    Some(LikeShape::Segments { m, n })
}

/// Certified DFA state bound for a language atom: the LIKE-class closed
/// form when the regex is LIKE-shaped, otherwise the exact (memoized)
/// DFA size plus completion headroom.
pub fn lang_state_bound(l: &Lang, k: Sym) -> u64 {
    match classify_like(&l.regex) {
        Some(shape) => shape.state_bound(),
        None => cost::lang_dfa_states(l, k) as u64 + 2,
    }
}

/// Default densification threshold: the largest certified state bound
/// for which the planner lowers a general scan filter to a dense
/// byte-class table instead of the sparse automata route. At the
/// default the largest table is ~4 KiB per byte class — comfortably
/// cache-resident — while pathological regexes (whose DFAs blow up
/// exponentially) stay on the shared-automaton path.
pub const DENSIFY_THRESHOLD: u64 = 4096;

/// Upper bound on a densified DFA's heap bytes: `states` rows of at
/// most `k + 1` byte classes (every alphabet symbol distinct, plus the
/// out-of-Σ sink class) at 4 bytes per entry, plus the pair-stride
/// table's rows of at most `min((k + 2)², 256)` class-pair columns
/// (the dense compiler caps pair rows at 256 columns and otherwise
/// skips the pair table), one acceptance byte per state, the class
/// maps, and struct overhead. The dense compiler's `approx_bytes`
/// always fits under this bound, so the certificate is sound for SA240
/// calibration.
pub fn dense_table_bytes(states: u64, k: Sym) -> u64 {
    let cols = k as u64 + 2;
    let pair_cols = (cols * cols).min(256);
    states
        .saturating_mul(cols + pair_cols)
        .saturating_mul(4)
        .saturating_add(2048)
}

/// Certified state bound for a dense scan: the largest language bound
/// among the plan's dense filters (each filter compiles to its own
/// table; they run sequentially, so the peak automaton is the max).
pub fn dense_scan_states(plan: &crate::fragments::ScanPlan, k: Sym) -> u64 {
    plan.dense_filters
        .iter()
        .map(|(_, l, _)| lang_state_bound(l, k))
        .max()
        .unwrap_or(0)
}

/// Resource certificate for a dense scan node: peak states from
/// [`dense_scan_states`], bytes summed over every resident table (all
/// filters' tables are live for the duration of the batch).
pub fn dense_scan_cert(plan: &crate::fragments::ScanPlan, k: Sym) -> ResourceCert {
    let states = dense_scan_states(plan, k);
    let bytes = plan
        .dense_filters
        .iter()
        .map(|(_, l, _)| dense_table_bytes(lang_state_bound(l, k), k))
        .fold(0u64, u64::saturating_add);
    ResourceCert {
        states: Interval::new(0, states),
        bytes: Interval::new(0, bytes),
    }
}

/// Certified state bound for one atom's synchronized automaton.
pub fn atom_state_bound(a: &Atom, k: Sym) -> u64 {
    match a {
        Atom::Rel(..) => REL_CERT_STATES,
        Atom::InLang(_, l) => lang_state_bound(l, k),
        // `pl(x, y, L)` runs `L`'s DFA on the residual track after the
        // shared prefix; the two-track synchronization at most doubles
        // it (plus completion).
        Atom::PL(_, _, l) => lang_state_bound(l, k).saturating_mul(2).saturating_add(4),
        // Concat atoms are never compiled (bounded search interprets
        // them); certify nothing.
        Atom::ConcatEq(..) => 0,
        _ => STRUCT_CERT_STATES,
    }
}

/// Seed certificate for a `CompileAutomaton` leaf evaluating the atomic
/// formula `f` with `tracks` variable tracks.
pub fn leaf_cert(f: &Formula, k: Sym, tracks: usize) -> ResourceCert {
    let hi = match f {
        Formula::True | Formula::False => 2,
        Formula::Atom(a) => atom_state_bound(a, k),
        // Non-atomic leaves do not occur in planner-built trees; fall
        // back to the (log-domain) cost estimate, rounded up.
        other => {
            let log2 = cost::estimate(other, k).log2_states.min(63.0);
            2f64.powf(log2).ceil() as u64
        }
    };
    ResourceCert::from_states(Interval::new(1, hi.max(1)), k, tracks)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;
    use strcalc_automata::LikePattern;

    #[test]
    fn interval_arithmetic_saturates() {
        let big = Interval::new(1, u64::MAX - 1);
        assert_eq!(big.sat_add(big).hi, u64::MAX);
        assert_eq!(big.sat_mul(big).hi, u64::MAX);
        assert_eq!(Interval::point(70).pow2().hi, u64::MAX);
        assert_eq!(Interval::point(10).pow2(), Interval::point(1024));
        assert_eq!(
            Interval::new(2, 5).join(Interval::new(1, 9)),
            Interval::new(1, 9)
        );
        assert!(Interval::new(2, 5).contains(3));
        assert!(!Interval::new(2, 5).contains(6));
    }

    #[test]
    fn interval_subtraction_is_checked_and_clamps() {
        // Exact subtraction.
        assert_eq!(
            Interval::new(10, 100).sat_sub(Interval::new(2, 4)),
            Interval::new(6, 98)
        );
        // The lower bound clamps at zero (the subtrahend's upper bound
        // can exceed it without the whole interval underflowing).
        assert_eq!(
            Interval::new(3, 100).sat_sub(Interval::new(2, 7)),
            Interval::new(0, 98)
        );
        assert_eq!(Interval::ZERO.sat_sub(Interval::ZERO), Interval::ZERO);
    }

    /// Regression (panic-audit round 7): subtracting more than the
    /// upper bound holds is an accounting underflow, caught by the
    /// `debug_assert` in debug builds — the same contract as the cache
    /// and budget ledgers.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "interval underflow")]
    fn interval_underflow_is_an_accounting_bug() {
        let _ = Interval::new(1, 5).sat_sub(Interval::new(6, 10));
    }

    #[test]
    fn cert_transfer_functions() {
        let a = ResourceCert::from_states(Interval::new(1, 8), 2, 1);
        let b = ResourceCert::from_states(Interval::new(1, 64), 2, 1);
        assert_eq!(ResourceCert::product(&[a, b], 2, 2).states.hi, 512);
        assert_eq!(ResourceCert::union(&[a, b], 2, 2).states.hi, 73);
        assert_eq!(ResourceCert::complement(&a, 2, 1).states.hi, 257);
        assert_eq!(ResourceCert::passthrough(&b, 2, 1).states, b.states);
        assert!(b.admits(&a));
        assert!(!a.admits(&b));
    }

    fn like_regex(sigma: &Alphabet, pattern: &str) -> Regex {
        LikePattern::parse(sigma, pattern).unwrap().to_regex()
    }

    #[test]
    fn like_patterns_classify() {
        let sigma = Alphabet::ab();
        let cases = [
            ("ab", LikeShape::Literal { m: 2 }),
            ("a_b", LikeShape::FixedLength { m: 3 }),
            ("ab%", LikeShape::Prefix { m: 2 }),
            ("%ab", LikeShape::Suffix { m: 2 }),
            ("%ab%", LikeShape::Substring { m: 2 }),
            ("%%", LikeShape::AnyString),
            ("a%b%a", LikeShape::Segments { m: 3, n: 3 }),
        ];
        for (pat, shape) in cases {
            assert_eq!(
                classify_like(&like_regex(&sigma, pat)),
                Some(shape),
                "pattern {pat:?}"
            );
        }
        // `_` mixed with `%` defeats single-position tracking: no claim.
        assert_eq!(classify_like(&like_regex(&sigma, "a_%b")), None);
        // A general regex is not LIKE-shaped.
        let star = Regex::parse(&Alphabet::ab(), "(ab)*").unwrap();
        assert_eq!(classify_like(&star), None);
    }

    /// Soundness: every claimed class bound dominates the actual minimal
    /// DFA size of the pattern's regex.
    #[test]
    fn like_bounds_dominate_actual_dfa_sizes() {
        let sigma = Alphabet::ab();
        let k = sigma.len() as Sym;
        for pat in [
            "",
            "a",
            "ab",
            "aba",
            "a_b",
            "__",
            "%",
            "%%",
            "a%",
            "%a",
            "%ab%",
            "ab%ba",
            "a%b%a",
            "%a%b%",
            "aab%aba%b",
        ] {
            let re = like_regex(&sigma, pat);
            let Some(shape) = classify_like(&re) else {
                continue;
            };
            let actual = Lang::new(re).to_dfa(k).len() as u64;
            assert!(
                shape.state_bound() >= actual,
                "pattern {pat:?}: class {shape:?} bound {} < actual DFA {}",
                shape.state_bound(),
                actual
            );
        }
    }

    #[test]
    fn unmatchable_pattern_certifies_one_state() {
        let sigma = Alphabet::ab();
        let re = like_regex(&sigma, "a\\%b");
        assert_eq!(classify_like(&re), Some(LikeShape::Unmatchable));
        assert_eq!(LikeShape::Unmatchable.state_bound(), 1);
    }

    #[test]
    fn bounds_render_compactly() {
        assert_eq!(fmt_bound(42), "42");
        assert_eq!(fmt_bound(1 << 30), "2^30");
        assert_eq!(fmt_bound(u64::MAX), "∞");
    }
}
