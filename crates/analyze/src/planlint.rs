//! Plan-resource certification: the upper-bound abstract domain behind
//! `planlint` (the plan-IR verifier living in `strcalc-core`).
//!
//! The cost pass (SA030) predicts compiled-automaton sizes in a scalar
//! log₂ domain — good enough to *rank* plans, but not to *certify* them.
//! This module provides the sound counterpart: saturating `u64` upper
//! bounds on automaton state counts and heap bytes, with a transfer
//! function for every plan operator (products multiply, unions add,
//! complements determinize to `2^n`, projections and cache lookups pass
//! through). The automata route is sized by upper bounds alone, so that
//! is all a certificate holds: every reader — the budget seed, the
//! governor's ledger, SA240 calibration and `EXPLAIN` — asks
//! "at most how much". The planner's verifier runs these transfer
//! functions bottom-up over the plan tree, in the same walk that
//! typechecks it, and writes the resulting [`ResourceCert`] into every
//! node; execution cross-checks it against the actuals (SA240), so
//! every test run doubles as a soundness check of the model.
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
use crate::langs::LangTable;

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

/// `2^n`, saturating — the determinization transfer function.
fn pow2_sat(n: u64) -> u64 {
    if n >= 63 {
        u64::MAX
    } else {
        1u64 << n
    }
}

/// Renders a bound compactly: small values in decimal, large ones as a
/// power of two, saturated ones as `∞`.
pub fn fmt_bound(v: u64) -> String {
    if v == u64::MAX {
        "∞".to_string()
    } else if v > 1 << 20 {
        // `v > 2^20` makes the subtraction provably safe; keep the
        // checked form anyway (panic-audit: no unchecked `-` in the
        // certificate domain).
        let bits = 64 - v.checked_sub(1).unwrap_or(v).leading_zeros();
        format!("2^{bits}")
    } else {
        v.to_string()
    }
}

/// A per-node resource certificate: sound upper bounds on the states
/// and heap bytes of the automaton the node's subtree compiles to. All
/// arithmetic saturates: `u64::MAX` reads as "unbounded" and renders as
/// `∞`. Interpreter-strategy plans build no automata and certify
/// [`ResourceCert::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceCert {
    pub states: u64,
    pub bytes: u64,
}

impl ResourceCert {
    pub const ZERO: ResourceCert = ResourceCert {
        states: 0,
        bytes: 0,
    };

    /// Byte bound charged per automaton state: a full transition table
    /// over the padded synchronized symbol space `(k+1)^tracks`, with
    /// generous per-entry and fixed overheads. Deliberately above the
    /// engine's `approx_bytes` accounting so the certificate stays an
    /// upper bound.
    pub fn per_state_bytes(k: Sym, tracks: usize) -> u64 {
        (u64::from(k) + 1)
            .saturating_pow(tracks as u32)
            .saturating_mul(128)
            .saturating_add(256)
    }

    /// A certificate from a state bound, with the byte bound derived
    /// from the node's track count.
    pub fn from_states(states: u64, k: Sym, tracks: usize) -> ResourceCert {
        ResourceCert {
            states,
            bytes: states.saturating_mul(ResourceCert::per_state_bytes(k, tracks)),
        }
    }

    /// Product construction: states multiply.
    pub fn product(children: &[ResourceCert], k: Sym, tracks: usize) -> ResourceCert {
        let states = children
            .iter()
            .fold(1, |acc: u64, c| acc.saturating_mul(c.states));
        ResourceCert::from_states(states, k, tracks)
    }

    /// Union: disjoint sum of the operand automata plus a fresh start.
    pub fn union(children: &[ResourceCert], k: Sym, tracks: usize) -> ResourceCert {
        let states = children
            .iter()
            .fold(1, |acc: u64, c| acc.saturating_add(c.states));
        ResourceCert::from_states(states, k, tracks)
    }

    /// Complement: determinize (`2^n`) then flip, plus a completion
    /// sink.
    pub fn complement(child: &ResourceCert, k: Sym, tracks: usize) -> ResourceCert {
        let states = pow2_sat(child.states).saturating_add(1);
        ResourceCert::from_states(states, k, tracks)
    }

    /// State-preserving operators (projection, quantifier restriction,
    /// cache lookup, enumeration roots): states pass through, bytes are
    /// re-derived for this node's track count.
    pub fn passthrough(child: &ResourceCert, k: Sym, tracks: usize) -> ResourceCert {
        ResourceCert::from_states(child.states, k, tracks)
    }

    /// The larger of two demands in each dimension: what a capability
    /// must hold to cover both.
    pub fn peak(self, other: ResourceCert) -> ResourceCert {
        ResourceCert {
            states: self.states.max(other.states),
            bytes: self.bytes.max(other.bytes),
        }
    }

    pub fn is_zero(&self) -> bool {
        *self == ResourceCert::ZERO
    }

    /// Stable one-line rendering for `EXPLAIN` and diagnostics.
    pub fn summary(&self) -> String {
        format!(
            "states ≤{}, bytes ≤{}",
            fmt_bound(self.states),
            fmt_bound(self.bytes)
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
/// form when the regex is LIKE-shaped, otherwise the exact DFA size in
/// `langs` (the query's language table) plus completion headroom.
pub fn lang_state_bound(l: &Lang, langs: &LangTable) -> u64 {
    match classify_like(&l.regex) {
        Some(shape) => shape.state_bound(),
        None => langs.states(l) as u64 + 2,
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
pub fn dense_scan_states(plan: &crate::fragments::ScanPlan, langs: &LangTable) -> u64 {
    plan.dense_filters
        .iter()
        .map(|(_, l, _)| lang_state_bound(l, langs))
        .max()
        .unwrap_or(0)
}

/// Resource certificate for a dense scan node: peak states from
/// [`dense_scan_states`], bytes summed over every resident table (all
/// filters' tables are live for the duration of the batch).
pub fn dense_scan_cert(plan: &crate::fragments::ScanPlan, langs: &LangTable) -> ResourceCert {
    let states = dense_scan_states(plan, langs);
    let bytes = plan
        .dense_filters
        .iter()
        .map(|(_, l, _)| dense_table_bytes(lang_state_bound(l, langs), langs.k()))
        .fold(0u64, u64::saturating_add);
    ResourceCert { states, bytes }
}

/// Certified state bound for one atom's synchronized automaton.
pub fn atom_state_bound(a: &Atom, langs: &LangTable) -> u64 {
    match a {
        Atom::Rel(..) => REL_CERT_STATES,
        Atom::InLang(_, l) => lang_state_bound(l, langs),
        // `pl(x, y, L)` runs `L`'s DFA on the residual track after the
        // shared prefix; the two-track synchronization at most doubles
        // it (plus completion).
        Atom::PL(_, _, l) => lang_state_bound(l, langs)
            .saturating_mul(2)
            .saturating_add(4),
        // Concat atoms are never compiled (bounded search interprets
        // them); certify nothing.
        Atom::ConcatEq(..) => 0,
        _ => STRUCT_CERT_STATES,
    }
}

/// Seed certificate for a `CompileAutomaton` leaf evaluating the atomic
/// formula `f` with `tracks` variable tracks.
pub fn leaf_cert(f: &Formula, langs: &LangTable, tracks: usize) -> ResourceCert {
    let hi = match f {
        Formula::True | Formula::False => 2,
        Formula::Atom(a) => atom_state_bound(a, langs),
        // Non-atomic leaves do not occur in planner-built trees; fall
        // back to the (log-domain) cost estimate, rounded up.
        other => {
            let log2 = cost::estimate(other, langs).log2_states.min(63.0);
            2f64.powf(log2).ceil() as u64
        }
    };
    ResourceCert::from_states(hi.max(1), langs.k(), tracks)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;
    use strcalc_automata::LikePattern;

    #[test]
    fn cert_transfer_functions() {
        let a = ResourceCert::from_states(8, 2, 1);
        let b = ResourceCert::from_states(64, 2, 1);
        assert_eq!(ResourceCert::product(&[a, b], 2, 2).states, 512);
        assert_eq!(ResourceCert::union(&[a, b], 2, 2).states, 73);
        assert_eq!(ResourceCert::complement(&a, 2, 1).states, 257);
        assert_eq!(ResourceCert::passthrough(&b, 2, 1).states, b.states);
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
