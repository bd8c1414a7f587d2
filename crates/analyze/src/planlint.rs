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
//! A language atom is charged its exact DFA size: the state count the
//! query's [`LangTable`] compiled, plus completion headroom. The table
//! compiles every language of the query once, LIKE patterns included, so
//! no closed-form bound is needed beside it.

use strcalc_alphabet::Sym;
use strcalc_logic::{Atom, Lang};

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

/// Certified DFA state bound for a language atom: the exact DFA size in
/// `langs` (the query's language table) plus completion headroom.
pub fn lang_state_bound(l: &Lang, langs: &LangTable) -> u64 {
    langs.states(l) as u64 + 2
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

/// Seed certificate for a `CompileAutomaton` leaf with `tracks`
/// variable tracks: the atom `atom`, or a constant `true`/`false` leaf
/// when `None`.
pub fn leaf_cert(atom: Option<&Atom>, langs: &LangTable, tracks: usize) -> ResourceCert {
    let hi = atom.map_or(2, |a| atom_state_bound(a, langs));
    ResourceCert::from_states(hi.max(1), langs.k(), tracks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cert_transfer_functions() {
        let a = ResourceCert::from_states(8, 2, 1);
        let b = ResourceCert::from_states(64, 2, 1);
        assert_eq!(ResourceCert::product(&[a, b], 2, 2).states, 512);
        assert_eq!(ResourceCert::union(&[a, b], 2, 2).states, 73);
        assert_eq!(ResourceCert::complement(&a, 2, 1).states, 257);
        assert_eq!(ResourceCert::passthrough(&b, 2, 1).states, b.states);
    }

    #[test]
    fn bounds_render_compactly() {
        assert_eq!(fmt_bound(42), "42");
        assert_eq!(fmt_bound(1 << 30), "2^30");
        assert_eq!(fmt_bound(u64::MAX), "∞");
    }
}
