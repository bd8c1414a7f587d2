//! Deterministic execution traces and replay.
//!
//! An [`ExecTrace`] captures everything a governed run observably did:
//! the plan fingerprint, the planning pass trace, the governor's
//! per-node budget ledger, the cache hit/miss sequence, the
//! post-execution actuals, every structural degradation event, the
//! verdict, and a fingerprint of the output relation. The trace is
//! written and read through [`crate::json`], so it parses back without
//! loss and a run can be archived next to its answer. This module holds
//! the trace schema (which fields, under which keys) and replay.
//!
//! [`replay`] is the audit entry point: given a trace and a database
//! snapshot, it re-plans the recorded query from its textual form,
//! re-executes under the *recorded* budget, and diffs the fresh trace
//! against the archived one field by field and ledger node by node.
//! Every divergence is an `SA420` line in the [`ReplayReport`]; an
//! empty report is the determinism certificate the `replay-corpus` CI
//! job enforces. There is **no sanctioned nondeterminism**: wall time,
//! which used to be excluded from the diff, is now recorded as the
//! checkpoint index at which the run's deadline fired (part of the
//! trace's [`FaultPlan`]); replay re-arms the deadline at that exact
//! checkpoint over a frozen virtual clock ([`crate::plan::ExecCx::replay`]),
//! so SA41x degradations — and every injected fault — reproduce bit
//! for bit and participate fully in the diff.

// Panic-audit round 7: the trace reader consumes untrusted JSON, so
// the module is unwrap-free end to end.
#![deny(clippy::unwrap_used)]

use strcalc_alphabet::{Alphabet, Str};
use strcalc_analyze::Code;
use strcalc_logic::{parse_formula, Fp};
use strcalc_relational::Database;

use crate::budget::{Budget, CacheEvent, CacheEventKind, DegradationPolicy, LedgerEntry};
use crate::engine::AutomataEngine;
use crate::faults::FaultPlan;
use crate::json::{self, FromJson, Json, JsonError};
use crate::plan::{ExecCx, ExecReport, PassTrace, Plan, PlanOp, Planner};
use crate::query::{Calculus, CoreError, EvalOutput, Query};

/// Trace format version; bumped on any field change. Version 2 added
/// the fault plan (including the recorded deadline-fire checkpoint)
/// and the `kind` discriminant on cache events; version 3 the bound of
/// a bounded-search plan; version 4 records only the rewrite pass, and
/// a pass without its `verified` flag; version 5 records the formula
/// the planner was given, before the rewrite, so replaying it
/// re-plans the same rewrite; version 6 drops the ledger rows' handed
/// capability (every node is checked against the recorded budget);
/// version 7 drops the fault plan's ledger-contention point.
pub const TRACE_VERSION: u64 = 7;

/// The post-execution actuals, as recorded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceActuals {
    pub automaton_states: u64,
    pub artifact_bytes: u64,
    pub cache_hit: bool,
    pub tuples_enumerated: u64,
    pub domain_size: u64,
}

/// A deterministic record of one governed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecTrace {
    pub version: u64,
    /// Calculus name (`RC(S)`, ..., or `RC_concat` for raw formulas).
    pub calculus: String,
    pub head: Vec<String>,
    /// The formula the planner was given (before the rewrite pass), in
    /// its rendered (re-parseable) form.
    pub formula: String,
    /// The alphabet's characters, in symbol order.
    pub alphabet: String,
    pub strategy: String,
    /// Fingerprint of the plan shape: strategy, source, and the
    /// pre-order operator sequence. Replay must reproduce it exactly.
    pub plan_fingerprint: u64,
    /// Fingerprint of the database snapshot the run executed against.
    pub db_fingerprint: u64,
    /// The budget capability the run was governed under.
    pub budget: Budget,
    /// The bound `B` of a `BoundedSearch` plan (`None` for the other
    /// strategies): replay plans with it, so a handed `search_depth`
    /// clamps the replayed run exactly as it clamped the recorded one.
    pub search_bound: Option<u64>,
    /// The fault plan the run executed under. For clean production
    /// runs this still carries the checkpoint at which the real-clock
    /// deadline fired (if it did), which is what lets replay re-arm
    /// the same event over a frozen virtual clock.
    pub faults: FaultPlan,
    pub passes: Vec<PassTrace>,
    /// The governor's per-node ledger.
    pub ledger: Vec<LedgerEntry>,
    /// Cache interactions in execution order.
    pub cache_events: Vec<CacheEvent>,
    /// Rendered SA4xx degradation events, in order.
    pub degradations: Vec<String>,
    /// Rendered [`crate::budget::ExecVerdict`].
    pub verdict: String,
    pub actuals: TraceActuals,
    /// Fingerprint of the output (tuple set, sample, or boolean).
    pub output_fp: u64,
    /// Output tuple count (0 or 1 for boolean runs).
    pub output_len: u64,
}

/// Fingerprint of the plan's shape: everything replay must reproduce
/// about *how* the query was evaluated, independent of the answer.
pub fn plan_fingerprint(plan: &Plan) -> u64 {
    let mut fp = Fp::new();
    fp.str(plan.strategy.name());
    fp.str(&calculus_name(plan.calculus()));
    fp.u64(plan.head().len() as u64);
    for h in plan.head() {
        fp.str(h);
    }
    fp.str(&plan.formula().render(plan.alphabet()));
    fp.u64(plan.alphabet().fingerprint());
    plan.root.visit(&mut |n| {
        fp.str(n.op.name());
        fp.u64(n.children.len() as u64);
    });
    fp.finish()
}

pub(crate) fn calculus_name(c: Option<Calculus>) -> String {
    match c {
        Some(c) => c.name().to_string(),
        None => "RC_concat".to_string(),
    }
}

fn alphabet_text(alphabet: &Alphabet) -> Result<String, CoreError> {
    alphabet
        .syms()
        .map(|s| {
            alphabet
                .char_of(s)
                .map_err(|e| CoreError::Unsupported(format!("trace: unmapped symbol: {e}")))
        })
        .collect()
}

/// Fingerprint and length of a run's answer: a sentence's truth value
/// (length 0 or 1), or an open query's tuples (or infinite sample).
fn output_fingerprint(plan: &Plan, out: &EvalOutput) -> (u64, u64) {
    let mut fp = Fp::new();
    if plan.is_boolean() {
        let holds = !out.is_empty();
        fp.str("boolean");
        fp.u8(holds as u8);
        return (fp.finish(), holds as u64);
    }
    let (tag, tuples): (_, Vec<&[Str]>) = match out {
        EvalOutput::Finite(rel) => ("finite", rel.iter().map(|t| &**t).collect()),
        EvalOutput::Infinite { sample } => (
            "infinite-sample",
            sample.iter().map(Vec::as_slice).collect(),
        ),
    };
    fp.str(tag);
    fp.u64(tuples.len() as u64);
    for t in &tuples {
        fp.u64(t.len() as u64);
        for s in t.iter() {
            fp.u64(s.syms().len() as u64);
            for &b in s.syms() {
                fp.u64(b as u64);
            }
        }
    }
    (fp.finish(), tuples.len() as u64)
}

impl ExecTrace {
    /// Records a run of `plan` under `budget` against `db`.
    pub fn record(
        plan: &Plan,
        budget: &Budget,
        report: &ExecReport,
        db: &Database,
        out: &EvalOutput,
    ) -> Result<ExecTrace, CoreError> {
        let (output_fp, output_len) = output_fingerprint(plan, out);
        Ok(ExecTrace {
            version: TRACE_VERSION,
            calculus: calculus_name(plan.calculus()),
            head: plan.head().to_vec(),
            formula: plan.given_formula().render(plan.alphabet()),
            alphabet: alphabet_text(plan.alphabet())?,
            strategy: plan.strategy.name().to_string(),
            plan_fingerprint: plan_fingerprint(plan),
            db_fingerprint: db.fingerprint(),
            budget: *budget,
            search_bound: match plan.root.op {
                PlanOp::BoundedSearch { budget } => Some(budget as u64),
                _ => None,
            },
            faults: report.faults,
            passes: plan.passes.clone(),
            ledger: report.ledger.entries.clone(),
            cache_events: report.cache_events.clone(),
            degradations: report.degradations.iter().map(|d| d.render()).collect(),
            verdict: report.verdict.render(),
            actuals: TraceActuals {
                automaton_states: report.automaton_states as u64,
                artifact_bytes: report.artifact_bytes as u64,
                cache_hit: report.cache_hit,
                tuples_enumerated: report.tuples_enumerated as u64,
                domain_size: report.domain_size as u64,
            },
            output_fp,
            output_len,
        })
    }

    /// Serializes the trace as a single-line JSON document with stable
    /// key order. `u64` fingerprints are written as raw integers, which
    /// [`ExecTrace::parse`] reads at full precision.
    pub fn to_json(&self) -> String {
        Json::from(self.clone()).to_string()
    }

    /// Parses a trace back from its JSON form (full `u64` precision —
    /// numbers never round-trip through a float).
    pub fn parse(text: &str) -> Result<ExecTrace, CoreError> {
        let doc = json::parse(text)?;
        let version: u64 = doc.field("version")?;
        if version != TRACE_VERSION {
            return Err(CoreError::Unsupported(format!(
                "trace version {version} is not supported (expected {TRACE_VERSION})"
            )));
        }
        Ok(ExecTrace::from_json(&doc, "trace")?)
    }
}

/// The trace schema: each record is an object whose keys are its field
/// names, in the order listed, and one field list serves both the
/// writer and the reader.
macro_rules! json_record {
    ($($t:ident { $($f:ident),* })*) => {$(
        impl From<$t> for Json {
            fn from(r: $t) -> Json {
                Json::obj([$((stringify!($f), Json::from(r.$f))),*])
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Json, _: &str) -> Result<Self, JsonError> {
                Ok($t { $($f: v.field(stringify!($f))?),* })
            }
        }
    )*};
}

json_record! {
    ExecTrace {
        version, calculus, head, formula, alphabet, strategy, plan_fingerprint,
        db_fingerprint, budget, search_bound, faults, passes, ledger, cache_events, degradations,
        verdict, actuals, output_fp, output_len
    }
    FaultPlan { seed, deadline_at_checkpoint, fail_cache_insert, abort_compile }
    PassTrace { pass, changed, detail }
    LedgerEntry { node, op, demand_states, demand_bytes, within }
    CacheEvent { kind, label, hit }
    TraceActuals { automaton_states, artifact_bytes, cache_hit, tuples_enumerated, domain_size }
}

/// The budget keeps `policy` as its key for the degradation policy.
impl From<Budget> for Json {
    fn from(b: Budget) -> Json {
        Json::obj([
            ("states", b.states.into()),
            ("bytes", b.bytes.into()),
            ("wall_time_ms", b.wall_time_ms.into()),
            ("search_depth", b.search_depth.into()),
            ("policy", b.degradation_policy.name().into()),
        ])
    }
}

impl FromJson for Budget {
    fn from_json(v: &Json, _: &str) -> Result<Self, JsonError> {
        let degradation_policy = match v.field::<String>("policy")?.as_str() {
            "degrade" => DegradationPolicy::Degrade,
            "fail" => DegradationPolicy::Fail,
            _ => return Err(JsonError::wrong_type("policy", "`degrade` or `fail`")),
        };
        Ok(Budget {
            states: v.field("states")?,
            bytes: v.field("bytes")?,
            wall_time_ms: v.field("wall_time_ms")?,
            search_depth: v.field::<u64>("search_depth")? as usize,
            degradation_policy,
        })
    }
}

impl From<CacheEventKind> for Json {
    fn from(kind: CacheEventKind) -> Json {
        kind.name().into()
    }
}

impl FromJson for CacheEventKind {
    fn from_json(v: &Json, what: &str) -> Result<Self, JsonError> {
        CacheEventKind::parse(v.as_str(what)?)
            .ok_or_else(|| JsonError::wrong_type(what, "a cache event kind"))
    }
}

/// The node-by-node diff of a replayed run against its recorded trace.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// One `SA420 ...` line per divergence; empty = deterministic.
    pub diffs: Vec<String>,
    /// The freshly recorded trace of the replayed run.
    pub replayed: ExecTrace,
}

impl ReplayReport {
    pub fn is_clean(&self) -> bool {
        self.diffs.is_empty()
    }
}

/// Re-executes a recorded trace against `db` and diffs the two runs.
///
/// The query is re-planned from its *textual* form (calculus, head,
/// rendered formula, alphabet) through `engine`'s planner and executed
/// under the recorded budget **and the recorded fault plan** (via
/// [`ExecCx::replay`]): the clock is a frozen [`crate::clock::VirtualClock`],
/// and any recorded deadline fire is re-armed at its exact checkpoint,
/// so SA41x degradations reproduce bit for bit. A replay exercises the
/// whole pipeline — parsing, fragment inference, planning, governance,
/// execution. To reproduce the recorded cache sequence,
/// hand in an engine whose cache is in the same state the recording
/// started from (the corpus harness uses a fresh cache on both sides).
pub fn replay(
    trace: &ExecTrace,
    engine: &AutomataEngine,
    db: &Database,
) -> Result<ReplayReport, CoreError> {
    let alphabet = Alphabet::new(&trace.alphabet)
        .map_err(|e| CoreError::Unsupported(format!("replay: bad alphabet: {e}")))?;
    let mut planner = Planner::for_engine(engine);
    if let Some(bound) = trace.search_bound {
        planner = planner.with_bound(bound as usize);
    }
    let plan = if trace.calculus == "RC_concat" {
        let formula = parse_formula(&alphabet, &trace.formula)
            .map_err(|e| CoreError::Unsupported(format!("replay: formula reparse: {e}")))?;
        planner.plan_formula(&alphabet, &trace.head, &formula)?
    } else {
        let calculus = [Calculus::S, Calculus::SLeft, Calculus::SReg, Calculus::SLen]
            .into_iter()
            .find(|c| c.name() == trace.calculus)
            .ok_or_else(|| {
                CoreError::Unsupported(format!("replay: unknown calculus `{}`", trace.calculus))
            })?;
        let query = Query::parse(
            calculus,
            alphabet.clone(),
            trace.head.clone(),
            &trace.formula,
        )?;
        planner.plan(&query)?
    };
    let cx = ExecCx::replay(trace.faults).with_budget(trace.budget);
    let (out, report) = plan.execute_in(db, &cx)?;
    let replayed = ExecTrace::record(&plan, &trace.budget, &report, db, &out)?;
    let diffs = diff_traces(trace, &replayed);
    Ok(ReplayReport { diffs, replayed })
}

fn diff_traces(recorded: &ExecTrace, replayed: &ExecTrace) -> Vec<String> {
    fn field(diffs: &mut Vec<String>, name: &str, a: &str, b: &str) {
        if a != b {
            diffs.push(format!(
                "{} {name}: recorded `{a}`, replayed `{b}`",
                Code::ReplayDivergence.as_str()
            ));
        }
    }
    let mut diffs = Vec::new();
    let sa420 = Code::ReplayDivergence.as_str();
    field(
        &mut diffs,
        "calculus",
        &recorded.calculus,
        &replayed.calculus,
    );
    field(&mut diffs, "formula", &recorded.formula, &replayed.formula);
    field(
        &mut diffs,
        "alphabet",
        &recorded.alphabet,
        &replayed.alphabet,
    );
    field(
        &mut diffs,
        "strategy",
        &recorded.strategy,
        &replayed.strategy,
    );
    field(
        &mut diffs,
        "plan_fingerprint",
        &recorded.plan_fingerprint.to_string(),
        &replayed.plan_fingerprint.to_string(),
    );
    field(
        &mut diffs,
        "db_fingerprint",
        &recorded.db_fingerprint.to_string(),
        &replayed.db_fingerprint.to_string(),
    );
    field(
        &mut diffs,
        "budget",
        &recorded.budget.summary(),
        &replayed.budget.summary(),
    );
    field(
        &mut diffs,
        "search_bound",
        &format!("{:?}", recorded.search_bound),
        &format!("{:?}", replayed.search_bound),
    );
    if recorded.faults != replayed.faults {
        diffs.push(format!(
            "{sa420} faults: recorded `{}` (deadline fire {:?}), replayed `{}` (deadline fire {:?})",
            recorded.faults.summary(),
            recorded.faults.deadline_at_checkpoint,
            replayed.faults.summary(),
            replayed.faults.deadline_at_checkpoint
        ));
    }
    if recorded.passes != replayed.passes {
        let first_diff = recorded
            .passes
            .iter()
            .zip(replayed.passes.iter())
            .find(|(a, b)| a != b)
            .map(|(a, b)| {
                format!(
                    " (first divergence: recorded `{} changed={} {}`, \
                     replayed `{} changed={} {}`)",
                    a.pass, a.changed, a.detail, b.pass, b.changed, b.detail
                )
            })
            .unwrap_or_default();
        diffs.push(format!(
            "{sa420} passes: recorded {} pass(es), replayed {} — pass traces differ{first_diff}",
            recorded.passes.len(),
            replayed.passes.len()
        ));
    }
    let node_count = recorded.ledger.len().max(replayed.ledger.len());
    for i in 0..node_count {
        match (recorded.ledger.get(i), replayed.ledger.get(i)) {
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => diffs.push(format!(
                "{sa420} ledger[{i}]: recorded `{}`, replayed `{}`",
                a.render(),
                b.render()
            )),
            (Some(a), None) => diffs.push(format!(
                "{sa420} ledger[{i}]: recorded `{}`, replayed <missing>",
                a.render()
            )),
            (None, Some(b)) => diffs.push(format!(
                "{sa420} ledger[{i}]: recorded <missing>, replayed `{}`",
                b.render()
            )),
            (None, None) => {}
        }
    }
    if recorded.cache_events != replayed.cache_events {
        let show = |evs: &[CacheEvent]| {
            evs.iter()
                .map(|e| {
                    format!(
                        "{}:{}:{}",
                        e.kind.name(),
                        e.label,
                        if e.hit { "hit" } else { "miss" }
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        diffs.push(format!(
            "{sa420} cache_events: recorded [{}], replayed [{}]",
            show(&recorded.cache_events),
            show(&replayed.cache_events)
        ));
    }
    // No exclusions: deadline degradations carry checkpoint indices,
    // not elapsed time, and the replay context re-arms the recorded
    // fire point — every degradation must reproduce verbatim.
    if recorded.degradations != replayed.degradations {
        diffs.push(format!(
            "{sa420} degradations: recorded [{}], replayed [{}]",
            recorded.degradations.join("; "),
            replayed.degradations.join("; ")
        ));
    }
    field(&mut diffs, "verdict", &recorded.verdict, &replayed.verdict);
    if recorded.actuals != replayed.actuals {
        diffs.push(format!(
            "{sa420} actuals: recorded states {} bytes {} cache_hit {} tuples {} domain {}, \
             replayed states {} bytes {} cache_hit {} tuples {} domain {}",
            recorded.actuals.automaton_states,
            recorded.actuals.artifact_bytes,
            recorded.actuals.cache_hit,
            recorded.actuals.tuples_enumerated,
            recorded.actuals.domain_size,
            replayed.actuals.automaton_states,
            replayed.actuals.artifact_bytes,
            replayed.actuals.cache_hit,
            replayed.actuals.tuples_enumerated,
            replayed.actuals.domain_size
        ));
    }
    field(
        &mut diffs,
        "output_fp",
        &recorded.output_fp.to_string(),
        &replayed.output_fp.to_string(),
    );
    field(
        &mut diffs,
        "output_len",
        &recorded.output_len.to_string(),
        &replayed.output_len.to_string(),
    );
    diffs
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::budget::UNLIMITED;
    use crate::cache::AutomatonCache;

    fn db() -> Database {
        let ab = Alphabet::ab();
        let mut db = Database::new();
        db.insert_unary_parsed(&ab, "U", &["a", "ab", "abb", "ba"])
            .unwrap();
        db
    }

    fn plan_for(formula: &str) -> Plan {
        let query =
            Query::parse(Calculus::S, Alphabet::ab(), vec!["x".to_string()], formula).unwrap();
        Planner::new().plan(&query).unwrap()
    }

    #[test]
    fn trace_round_trips_through_json() {
        let plan = plan_for("exists y. (U(y) & x <= y)");
        let database = db();
        let budget = plan.seeded_budget();
        let (out, report) = plan.execute(&database).unwrap();
        let trace = ExecTrace::record(&plan, &budget, &report, &database, &out).unwrap();
        let parsed = ExecTrace::parse(&trace.to_json()).unwrap();
        assert_eq!(trace, parsed);
        assert_eq!(parsed.to_json(), trace.to_json());
    }

    #[test]
    fn unlimited_budget_dimensions_survive_the_round_trip() {
        let plan = plan_for("U(x)");
        let database = db();
        let budget = Budget::unlimited();
        let cx = ExecCx::production().with_budget(budget);
        let (out, report) = plan.execute_in(&database, &cx).unwrap();
        let trace = ExecTrace::record(&plan, &budget, &report, &database, &out).unwrap();
        let parsed = ExecTrace::parse(&trace.to_json()).unwrap();
        assert_eq!(parsed.budget.states, UNLIMITED);
        assert_eq!(parsed.budget.wall_time_ms, UNLIMITED);
    }

    #[test]
    fn replay_of_an_unchanged_run_is_clean() {
        let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
        let database = db();
        let query = Query::parse(
            Calculus::S,
            Alphabet::ab(),
            vec!["x".to_string()],
            "exists y. (U(y) & x <= y)",
        )
        .unwrap();
        let plan = Planner::for_engine(&engine).plan(&query).unwrap();
        let budget = plan.seeded_budget();
        let (out, report) = plan.execute(&database).unwrap();
        let trace = ExecTrace::record(&plan, &budget, &report, &database, &out).unwrap();

        let replay_engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
        let report = replay(&trace, &replay_engine, &database).unwrap();
        assert!(report.is_clean(), "unexpected diffs: {:?}", report.diffs);
    }

    #[test]
    fn replay_against_a_changed_snapshot_diverges() {
        let engine = AutomataEngine::new();
        let database = db();
        let plan = plan_for("exists y. (U(y) & x <= y)");
        let budget = plan.seeded_budget();
        let (out, report) = plan.execute(&database).unwrap();
        let trace = ExecTrace::record(&plan, &budget, &report, &database, &out).unwrap();

        let ab = Alphabet::ab();
        let mut other = Database::new();
        other.insert_unary_parsed(&ab, "U", &["b", "bb"]).unwrap();
        let report = replay(&trace, &engine, &other).unwrap();
        assert!(!report.is_clean());
        assert!(report.diffs.iter().any(|d| d.starts_with("SA420")));
        assert!(report.diffs.iter().any(|d| d.contains("db_fingerprint")));
    }

    /// A bounded-search trace replays at its plan's bound, whatever the
    /// budget's `search_depth`: unlimited (which used to replay at the
    /// default bound 4) or narrower than the bound (which used to
    /// replay unclamped, losing SA404).
    #[test]
    fn replay_keeps_a_bounded_plans_bound() {
        let ab = Alphabet::ab();
        let mut database = Database::new();
        database
            .insert_unary_parsed(&ab, "R", &["aa", "abab", "bbbb"])
            .unwrap();
        let formula = parse_formula(&ab, "exists z. (concat(x, x, z) & R(z))").unwrap();
        let head = vec!["x".to_string()];
        let narrow = Budget {
            search_depth: 2,
            ..Budget::unlimited()
        };
        for (bound, budget) in [
            (3, Budget::unlimited()),
            (2, Budget::unlimited()),
            (3, narrow),
        ] {
            let plan = Planner::new()
                .with_bound(bound)
                .plan_formula(&ab, &head, &formula)
                .unwrap();
            let cx = ExecCx::production().with_budget(budget);
            let (out, report) = plan.execute_in(&database, &cx).unwrap();
            let trace = ExecTrace::record(&plan, &budget, &report, &database, &out).unwrap();
            let trace = ExecTrace::parse(&trace.to_json()).unwrap();
            assert_eq!(trace.search_bound, Some(bound as u64));
            assert_eq!(trace.output_len, 1, "only x = a fits Σ^≤{bound}");
            let clamped = budget.search_depth < bound;
            assert_eq!(
                trace.degradations.iter().any(|d| d.starts_with("SA404")),
                clamped
            );
            let replayed = replay(&trace, &AutomataEngine::new(), &database).unwrap();
            assert!(
                replayed.is_clean(),
                "bound {bound}, depth {}: {:?}",
                budget.search_depth,
                replayed.diffs
            );
        }
    }

    #[test]
    fn malformed_trace_json_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "[1,2",
            r#"{"version":1}"#,
            r#"{"version":2}"#,
            r#"{"version":3}"#,
            r#"{"version":4}"#,
            r#"{"version":5}"#,
            r#"{"version":6}"#,
            r#"{"version":7}"#,
            r#"{"version":99}"#,
            "nope",
            r#"{"version":2,"calculus":3}"#,
        ] {
            assert!(ExecTrace::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn a_deeply_nested_document_is_refused_not_overflowed() {
        let err = ExecTrace::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(
            matches!(err, CoreError::Json(JsonError::TooDeep { .. })),
            "{err:?}"
        );
    }
}
