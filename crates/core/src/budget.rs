//! Explicit resource-budget capabilities for plan execution.
//!
//! Historically the engine bounded itself through three ad-hoc,
//! *ambient* mechanisms: the automata engine's complement cap (once
//! copied into every plan `Complement` node), the planner's bounded-search
//! length `B` (copied into the `BoundedSearch { budget }` root), and
//! the cache's byte budget. A [`Budget`] replaces them with one
//! capability value per run. Its dimensions are upper bounds, like the
//! planlint certificates it is measured against: the planner seeds it
//! from the plan's peak certificate (the largest any node certifies,
//! found by the same walk that derives them), and a caller may narrow
//! it (see `Plan::execute_in`). Governing a run is one comparison per
//! node: the run is exhausted at the first node, in pre-order, whose
//! certificate the budget does not [admit](Budget::admits) — and a run
//! whose cached artifact is resident demands nothing. Exhaustion never
//! truncates silently: per [`DegradationPolicy`] the run either degrades
//! *structurally* — exact → bounded verdict, dense → sparse walk,
//! cached → recompile-denied — surfacing an SA4xx [`Degradation`] in the
//! `ExecReport`, or fails with `CoreError::BudgetExhausted`. A run no
//! node exhausts stays within its certificates, so an actual above the
//! budget is above a certificate too: the `SA240` calibration check
//! reports it.

// Panic-audit round 7: budgets sit on every execution path, so the
// module is unwrap-free; invariants are spelled out as messaged
// `expect`s or `debug_assert`s.
#![deny(clippy::unwrap_used)]

use std::fmt;

use strcalc_analyze::planlint::{fmt_bound, ResourceCert};
use strcalc_analyze::Code;

/// Sentinel for an unbounded dimension. An unlimited dimension never
/// debits and always admits.
pub const UNLIMITED: u64 = u64::MAX;

/// What a run does when its budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DegradationPolicy {
    /// Degrade structurally (exact → bounded verdict, dense → sparse
    /// walk, cached → recompile-denied) and surface an SA4xx
    /// [`Degradation`] in the report. The default.
    #[default]
    Degrade,
    /// Reject the run with `CoreError::BudgetExhausted` instead of
    /// degrading (multi-tenant admission control).
    Fail,
}

impl DegradationPolicy {
    pub fn name(self) -> &'static str {
        match self {
            DegradationPolicy::Degrade => "degrade",
            DegradationPolicy::Fail => "fail",
        }
    }
}

/// A resource-budget capability: what a run is allowed to spend. Passed
/// in explicitly — every node's certificate is checked against the
/// run's budget, not an ambient global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Automaton states the run may build ([`UNLIMITED`] = no cap).
    pub states: u64,
    /// Artifact/table bytes the run may hold resident.
    pub bytes: u64,
    /// Wall-clock allowance in milliseconds, enforced *in flight* by a
    /// cooperative [`Deadline`](crate::clock::Deadline) polled at
    /// coarse checkpoints (per dense batch, per 4096 bindings of a
    /// compiled program, before compilation). Expiry
    /// degrades structurally (SA41x, `Bounded`/`Unknown` verdict) at
    /// the checkpoint — and because degradations record the
    /// *checkpoint index*, never elapsed time, the event replays
    /// deterministically over a frozen virtual clock. The clean
    /// configuration leaves it [`UNLIMITED`].
    pub wall_time_ms: u64,
    /// Length bound for the bounded-search executor's assignment
    /// domain `Σ^{≤depth}`; subsumes the plan's `BoundedSearch
    /// { budget }` node operand (the executor runs the *minimum* of
    /// the two and reports SA404 when this capability clamps).
    pub search_depth: usize,
    /// What exhaustion does: degrade structurally or fail the run.
    pub degradation_policy: DegradationPolicy,
}

impl Budget {
    /// The all-unlimited capability (the back-compat default for plans
    /// whose certificate is zero — interpreter strategies build no
    /// automata).
    pub fn unlimited() -> Budget {
        Budget {
            states: UNLIMITED,
            bytes: UNLIMITED,
            wall_time_ms: UNLIMITED,
            search_depth: usize::MAX,
            degradation_policy: DegradationPolicy::Degrade,
        }
    }

    /// Seeds a budget from the plan's planlint certificate (a sound
    /// upper bound, so the seeded budget admits the certified run
    /// exactly — degradation only fires when a caller *narrows* the
    /// capability). A zero bound means the strategy builds no
    /// automata; that dimension is unlimited.
    pub fn seeded(cert: &ResourceCert, depth: usize) -> Budget {
        let dim = |hi: u64| match hi {
            0 => UNLIMITED,
            hi => hi,
        };
        Budget {
            states: dim(cert.states),
            bytes: dim(cert.bytes),
            wall_time_ms: UNLIMITED,
            search_depth: depth,
            degradation_policy: DegradationPolicy::Degrade,
        }
    }

    /// Switches the exhaustion policy.
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Budget {
        self.degradation_policy = policy;
        self
    }

    /// Whether this budget admits a certified demand in full.
    pub fn admits(&self, demand: &ResourceCert) -> bool {
        demand.states <= self.states && demand.bytes <= self.bytes
    }

    /// One-line rendering for EXPLAIN (`∞` for unlimited dimensions).
    pub fn summary(&self) -> String {
        let depth = if self.search_depth == usize::MAX {
            "∞".to_string()
        } else {
            self.search_depth.to_string()
        };
        format!(
            "states ≤{}, bytes ≤{}, depth ≤{}, wall ≤{}ms, policy {}",
            fmt_bound(self.states),
            fmt_bound(self.bytes),
            depth,
            fmt_bound(self.wall_time_ms),
            self.degradation_policy.name()
        )
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// One row of the per-node budget ledger: what a node's certificate
/// demanded and whether the run's budget admits it. Recorded for
/// *every* plan node — the ledger is the proof that no executor ran
/// against an ambient limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Path from the root, `root` / `root/0/1` (child indices).
    pub node: String,
    /// The node's operator name.
    pub op: String,
    /// The node's certificate; zero when the run's cached artifact is
    /// resident (serving it builds nothing).
    pub demand_states: u64,
    pub demand_bytes: u64,
    /// Whether the run's budget admits the demand.
    pub within: bool,
}

impl LedgerEntry {
    pub fn render(&self) -> String {
        format!(
            "{} {}: demand states {} bytes {} — {}",
            self.node,
            self.op,
            self.demand_states,
            self.demand_bytes,
            if self.within { "within" } else { "exhausted" }
        )
    }
}

/// The per-run budget ledger: one [`LedgerEntry`] per plan node, in
/// pre-order (parents before children).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetLedger {
    pub entries: Vec<LedgerEntry>,
}

impl BudgetLedger {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the run's budget admits every node's demand.
    pub fn all_within(&self) -> bool {
        self.entries.iter().all(|e| e.within)
    }
}

/// A structural degradation event: which SA4xx fired, at which plan
/// node, and why. Carried in the `ExecReport` — degradation is part of
/// the run's observable result, never silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    pub code: Code,
    /// Ledger-style node path (`root`, `root/0`, ...).
    pub node: String,
    pub detail: String,
}

impl Degradation {
    pub fn new(code: Code, node: impl Into<String>, detail: impl Into<String>) -> Degradation {
        Degradation {
            code,
            node: node.into(),
            detail: detail.into(),
        }
    }

    /// Stable one-line rendering, `SA402 at root: ...`.
    pub fn render(&self) -> String {
        format!("{} at {}: {}", self.code.as_str(), self.node, self.detail)
    }
}

/// The trustworthiness of a governed run's answer — the PR 2
/// `Validated`/`Refuted`/`Unknown` verdict shape adapted to execution.
/// (`strcalc-verify`'s own `Verdict` lives above this crate, so the
/// shape is mirrored here rather than imported.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecVerdict {
    /// The run completed as planned within its budget; the answer has
    /// the strategy's full semantics.
    Exact,
    /// The run degraded to a bounded evaluation (collapse domain or a
    /// clamped search depth): the answer is trustworthy only over the
    /// bounded domain and is reported as such, never as exact.
    Bounded { reason: String },
    /// The run could not produce a trustworthy answer within budget.
    Unknown { reason: String },
}

impl ExecVerdict {
    pub fn is_exact(&self) -> bool {
        matches!(self, ExecVerdict::Exact)
    }

    /// Stable rendering: `exact`, `bounded (...)` or `unknown (...)`.
    pub fn render(&self) -> String {
        match self {
            ExecVerdict::Exact => "exact".to_string(),
            ExecVerdict::Bounded { reason } => format!("bounded ({reason})"),
            ExecVerdict::Unknown { reason } => format!("unknown ({reason})"),
        }
    }
}

/// One cache interaction during execution, in order: the automaton
/// compile or a dense-table fetch, and whether the shared cache served
/// it. The sequence is part of the deterministic trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEvent {
    /// What kind of interaction this was.
    pub kind: CacheEventKind,
    /// `automaton` for the compiled artifact, `dense:<col>` for a
    /// dense filter table.
    pub label: String,
    pub hit: bool,
}

impl CacheEvent {
    /// A compile/fetch lookup event.
    pub fn lookup(label: impl Into<String>, hit: bool) -> CacheEvent {
        CacheEvent {
            kind: CacheEventKind::Lookup,
            label: label.into(),
            hit,
        }
    }
}

/// The kind of a [`CacheEvent`]. Traces record it, so a new kind of
/// interaction can join without changing the event's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEventKind {
    /// A compile or dense-table fetch through the cache.
    Lookup,
}

impl CacheEventKind {
    /// Stable name used in traces and EXPLAIN JSON.
    pub fn name(self) -> &'static str {
        match self {
            CacheEventKind::Lookup => "lookup",
        }
    }

    /// Parses a stable name back (trace deserialization).
    pub fn parse(s: &str) -> Option<CacheEventKind> {
        match s {
            "lookup" => Some(CacheEventKind::Lookup),
            _ => None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cert(states: u64, bytes: u64) -> ResourceCert {
        ResourceCert { states, bytes }
    }

    #[test]
    fn seeded_budget_admits_its_own_certificate() {
        let plan_cert = cert(4096, 1 << 22);
        let b = Budget::seeded(&plan_cert, 4);
        assert!(b.admits(&plan_cert));
        assert!(!b.admits(&cert(4097, 1 << 22)));
        assert_eq!((b.states, b.bytes), (4096, 1 << 22));
        assert_eq!(b.search_depth, 4);
    }

    #[test]
    fn zero_certificate_seeds_unlimited_dimensions() {
        let b = Budget::seeded(&ResourceCert::ZERO, 4);
        assert_eq!(b.states, UNLIMITED);
        assert_eq!(b.bytes, UNLIMITED);
        assert!(b.admits(&cert(u64::MAX, u64::MAX)));
    }

    #[test]
    fn verdicts_and_degradations_render_stably() {
        assert_eq!(ExecVerdict::Exact.render(), "exact");
        assert_eq!(
            ExecVerdict::Bounded {
                reason: "collapse domain".into()
            }
            .render(),
            "bounded (collapse domain)"
        );
        let d = Degradation::new(Code::DegradedDenseToSparse, "root", "tables over budget");
        assert_eq!(d.render(), "SA402 at root: tables over budget");
    }

    #[test]
    fn summary_renders_unlimited_as_infinity() {
        let s = Budget::unlimited().summary();
        assert!(s.contains("states ≤∞"));
        assert!(s.contains("policy degrade"));
        let t = Budget {
            states: 4096,
            ..Budget::unlimited()
        }
        .summary();
        assert!(t.contains("states ≤4096"));
    }
}
