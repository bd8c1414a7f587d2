//! The paper's contribution: string-extended relational calculi with
//! tame complexity and decidable safety analysis.
//!
//! * [`Calculus`] / [`Query`] — typed queries in `RC(S)`, `RC(S_left)`,
//!   `RC(S_reg)`, `RC(S_len)`, with fragment checking.
//! * [`AutomataEngine`] — **exact** natural-semantics evaluation via
//!   automatic structures (quantifiers truly range over the infinite
//!   `Σ*`), giving decidable state-safety (Proposition 7) for free.
//! * [`Planner`] — one decision procedure for every entry point: the
//!   relational route, automata, scans, the collapse route (quantification
//!   over a finite [`Domain`] derived from the database, per Proposition 2
//!   and Theorem 2) and bounded search, each run as a [`Plan`].
//! * [`DomainEvaluator`] — the naive, automaton-free reference every
//!   route is checked against: the paper's definitions evaluated over a
//!   finite [`Domain`] (the [`collapse_domain`], or `Σ^{≤B}`).
//! * [`safety`] — state-safety, the range-restriction construction of
//!   Theorem 3 / Theorem 7 (`(γ, φ)` queries), and the `S_len`
//!   finiteness sentence of Section 6.1.
//! * [`cqsafety`] — the conjunctive-query safety decision (Theorem 5 /
//!   Corollary 6) via the `∃^∞` construction on automatic structures.
//! * [`translate`] — algebra ↔ calculus translations backing Theorem 4 /
//!   Theorem 8.
//! * [`concat`](mod@concat) — bounded-search semantics for `RC_concat` plus the
//!   `{ww}` witness that concatenation escapes `S_len` (Proposition 1 /
//!   Figure 1 top edge).
//! * [`mso3col`] — the Proposition 5 construction: 3-colorability (an
//!   NP-complete MSO query) as a fixed `RC(S_len)` query over width-1
//!   string databases.
//! * [`separations`] — executable witnesses for Figure 1's strict
//!   inclusions.

pub mod budget;
pub mod cache;
pub mod clock;
pub mod collapse;
pub mod concat;
pub mod cqsafety;
pub mod effective;
pub mod engine;
pub mod enumeval;
pub mod faults;
mod generate;
pub mod json;
pub mod mso3col;
pub mod plan;
pub mod query;
pub mod safety;
pub mod separations;
pub mod trace;
pub mod translate;

pub use budget::{
    Budget, BudgetLedger, CacheEvent, CacheEventKind, Degradation, DegradationPolicy, ExecVerdict,
    LedgerEntry,
};
pub use cache::{AutomatonCache, CacheKey, CacheStatsSnapshot, CompiledArtifact};
pub use clock::{Clock, Deadline, MonotonicClock, VirtualClock};
pub use collapse::{collapse_holds_on, restrict_quantifiers, restricted_query};
pub use cqsafety::{ConjunctiveQuery, CqSafety, UnionOfCqs};
pub use effective::{FormulaEnumerator, SafeQueryEnumerator};
pub use engine::AutomataEngine;
pub use enumeval::{collapse_domain, DomainEvaluator};
pub use faults::FaultPlan;
pub use generate::Domain;
pub use plan::{ExecCx, ExecReport, PassTrace, Plan, PlanNode, PlanOp, Planner, Strategy};
pub use query::{Calculus, CoreError, EvalOutput, Query};
pub use safety::{RangeRestricted, StateSafety};
pub use trace::{replay, ExecTrace, ReplayReport, TraceActuals};
