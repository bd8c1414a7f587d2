//! Deterministic execution traces and replay.
//!
//! An [`ExecTrace`] captures everything a governed run observably did:
//! the plan fingerprint, the planning pass trace, the governor's
//! per-node budget ledger, the cache hit/miss sequence, the
//! post-execution actuals, every structural degradation event, the
//! verdict, and a fingerprint of the output relation. The trace
//! serializes to JSON (hand-rolled, like `EXPLAIN`'s — no
//! serialization dependency) and parses back without loss, so a run
//! can be archived next to its answer.
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

use std::fmt::Write as _;

use strcalc_alphabet::Alphabet;
use strcalc_analyze::Code;
use strcalc_logic::{parse_formula, Fp};
use strcalc_relational::Database;

use crate::budget::{
    Budget, CacheEvent, CacheEventKind, DegradationPolicy, LedgerEntry, UNLIMITED,
};
use crate::engine::AutomataEngine;
use crate::faults::FaultPlan;
use crate::json::escape;
use crate::plan::{ExecCx, ExecReport, Plan, Planner};
use crate::query::{Calculus, CoreError, EvalOutput, Query};

/// Trace format version; bumped on any field change. Version 2 added
/// the fault plan (including the recorded deadline-fire checkpoint)
/// and the `kind` discriminant on cache events.
pub const TRACE_VERSION: u64 = 2;

/// One planning pass, as recorded (mirrors `PassTrace` by value so the
/// trace stays self-contained).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePass {
    pub pass: String,
    pub changed: bool,
    pub verified: bool,
    pub detail: String,
}

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
    /// The formula in its rendered (re-parseable) form.
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
    /// The fault plan the run executed under. For clean production
    /// runs this still carries the checkpoint at which the real-clock
    /// deadline fired (if it did), which is what lets replay re-arm
    /// the same event over a frozen virtual clock.
    pub faults: FaultPlan,
    pub passes: Vec<TracePass>,
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

fn calculus_name(c: Option<Calculus>) -> String {
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
    let (tag, tuples) = match out {
        EvalOutput::Finite(rel) => ("finite", rel.iter().collect::<Vec<_>>()),
        EvalOutput::Infinite { sample } => ("infinite-sample", sample.iter().collect()),
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
            formula: plan.formula().render(plan.alphabet()),
            alphabet: alphabet_text(plan.alphabet())?,
            strategy: plan.strategy.name().to_string(),
            plan_fingerprint: plan_fingerprint(plan),
            db_fingerprint: db.fingerprint(),
            budget: *budget,
            faults: report.faults,
            passes: plan
                .passes
                .iter()
                .map(|p| TracePass {
                    pass: p.pass.to_string(),
                    changed: p.changed,
                    verified: p.verified,
                    detail: p.detail.clone(),
                })
                .collect(),
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
    /// key order. `u64` fingerprints are emitted as raw integers; the
    /// bundled [`ExecTrace::parse`] reads them at full precision.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"version\":{},\"calculus\":\"{}\",\"head\":[",
            self.version,
            escape(&self.calculus)
        );
        for (i, h) in self.head.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape(h));
        }
        let _ = write!(
            out,
            "],\"formula\":\"{}\",\"alphabet\":\"{}\",\"strategy\":\"{}\",\
             \"plan_fingerprint\":{},\"db_fingerprint\":{},\"budget\":{{\
             \"states\":{},\"bytes\":{},\"wall_time_ms\":{},\"search_depth\":{},\
             \"policy\":\"{}\"}},\"faults\":{{\"seed\":{},\"deadline_at_checkpoint\":{},\
             \"fail_cache_insert\":{},\"abort_compile\":{},\"ledger_contention\":{}}},\
             \"passes\":[",
            escape(&self.formula),
            escape(&self.alphabet),
            escape(&self.strategy),
            self.plan_fingerprint,
            self.db_fingerprint,
            self.budget.states,
            self.budget.bytes,
            self.budget.wall_time_ms,
            self.budget.search_depth,
            self.budget.degradation_policy.name(),
            self.faults.seed,
            match self.faults.deadline_at_checkpoint {
                Some(n) => n.to_string(),
                None => "null".to_string(),
            },
            self.faults.fail_cache_insert,
            self.faults.abort_compile,
            self.faults.ledger_contention
        );
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"pass\":\"{}\",\"changed\":{},\"verified\":{},\"detail\":\"{}\"}}",
                escape(&p.pass),
                p.changed,
                p.verified,
                escape(&p.detail)
            );
        }
        out.push_str("],\"ledger\":[");
        for (i, e) in self.ledger.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"node\":\"{}\",\"op\":\"{}\",\"handed_states\":{},\"handed_bytes\":{},\
                 \"demand_states\":{},\"demand_bytes\":{},\"within\":{}}}",
                escape(&e.node),
                escape(&e.op),
                e.handed_states,
                e.handed_bytes,
                e.demand_states,
                e.demand_bytes,
                e.within
            );
        }
        out.push_str("],\"cache_events\":[");
        for (i, e) in self.cache_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"label\":\"{}\",\"hit\":{}}}",
                e.kind.name(),
                escape(&e.label),
                e.hit
            );
        }
        out.push_str("],\"degradations\":[");
        for (i, d) in self.degradations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape(d));
        }
        let _ = write!(
            out,
            "],\"verdict\":\"{}\",\"actuals\":{{\"automaton_states\":{},\
             \"artifact_bytes\":{},\"cache_hit\":{},\"tuples_enumerated\":{},\
             \"domain_size\":{}}},\"output_fp\":{},\"output_len\":{}}}",
            escape(&self.verdict),
            self.actuals.automaton_states,
            self.actuals.artifact_bytes,
            self.actuals.cache_hit,
            self.actuals.tuples_enumerated,
            self.actuals.domain_size,
            self.output_fp,
            self.output_len
        );
        out
    }

    /// Parses a trace back from its JSON form (full `u64` precision —
    /// numbers never round-trip through a float).
    pub fn parse(text: &str) -> Result<ExecTrace, CoreError> {
        let json = JsonParser::new(text).parse_document()?;
        let obj = json.as_obj("trace")?;
        let version = obj.req("version")?.as_u64("version")?;
        if version != TRACE_VERSION {
            return Err(CoreError::Unsupported(format!(
                "trace version {version} is not supported (expected {TRACE_VERSION})"
            )));
        }
        let budget_obj = obj.req("budget")?.as_obj("budget")?;
        let policy = match budget_obj.req("policy")?.as_str("policy")? {
            "degrade" => DegradationPolicy::Degrade,
            "fail" => DegradationPolicy::Fail,
            other => {
                return Err(CoreError::Unsupported(format!(
                    "trace: unknown degradation policy `{other}`"
                )))
            }
        };
        let budget = Budget {
            states: budget_obj.req("states")?.as_u64("states")?,
            bytes: budget_obj.req("bytes")?.as_u64("bytes")?,
            wall_time_ms: budget_obj.req("wall_time_ms")?.as_u64("wall_time_ms")?,
            search_depth: budget_obj.req("search_depth")?.as_u64("search_depth")? as usize,
            degradation_policy: policy,
        };
        let faults_obj = obj.req("faults")?.as_obj("faults")?;
        let faults = FaultPlan {
            seed: faults_obj.req("seed")?.as_u64("seed")?,
            deadline_at_checkpoint: match faults_obj.req("deadline_at_checkpoint")? {
                Json::Null => None,
                v => Some(v.as_u64("deadline_at_checkpoint")?),
            },
            fail_cache_insert: faults_obj
                .req("fail_cache_insert")?
                .as_bool("fail_cache_insert")?,
            abort_compile: faults_obj.req("abort_compile")?.as_bool("abort_compile")?,
            ledger_contention: faults_obj
                .req("ledger_contention")?
                .as_bool("ledger_contention")?,
        };
        let mut passes = Vec::new();
        for p in obj.req("passes")?.as_arr("passes")? {
            let p = p.as_obj("pass")?;
            passes.push(TracePass {
                pass: p.req("pass")?.as_str("pass")?.to_string(),
                changed: p.req("changed")?.as_bool("changed")?,
                verified: p.req("verified")?.as_bool("verified")?,
                detail: p.req("detail")?.as_str("detail")?.to_string(),
            });
        }
        let mut ledger = Vec::new();
        for e in obj.req("ledger")?.as_arr("ledger")? {
            let e = e.as_obj("ledger entry")?;
            ledger.push(LedgerEntry {
                node: e.req("node")?.as_str("node")?.to_string(),
                op: e.req("op")?.as_str("op")?.to_string(),
                handed_states: e.req("handed_states")?.as_u64("handed_states")?,
                handed_bytes: e.req("handed_bytes")?.as_u64("handed_bytes")?,
                demand_states: e.req("demand_states")?.as_u64("demand_states")?,
                demand_bytes: e.req("demand_bytes")?.as_u64("demand_bytes")?,
                within: e.req("within")?.as_bool("within")?,
            });
        }
        let mut cache_events = Vec::new();
        for e in obj.req("cache_events")?.as_arr("cache_events")? {
            let e = e.as_obj("cache event")?;
            let kind_name = e.req("kind")?.as_str("kind")?;
            let kind = CacheEventKind::parse(kind_name).ok_or_else(|| {
                CoreError::Unsupported(format!("trace: unknown cache event kind `{kind_name}`"))
            })?;
            cache_events.push(CacheEvent {
                kind,
                label: e.req("label")?.as_str("label")?.to_string(),
                hit: e.req("hit")?.as_bool("hit")?,
            });
        }
        let mut degradations = Vec::new();
        for d in obj.req("degradations")?.as_arr("degradations")? {
            degradations.push(d.as_str("degradation")?.to_string());
        }
        let mut head = Vec::new();
        for h in obj.req("head")?.as_arr("head")? {
            head.push(h.as_str("head var")?.to_string());
        }
        let actuals_obj = obj.req("actuals")?.as_obj("actuals")?;
        Ok(ExecTrace {
            version,
            calculus: obj.req("calculus")?.as_str("calculus")?.to_string(),
            head,
            formula: obj.req("formula")?.as_str("formula")?.to_string(),
            alphabet: obj.req("alphabet")?.as_str("alphabet")?.to_string(),
            strategy: obj.req("strategy")?.as_str("strategy")?.to_string(),
            plan_fingerprint: obj.req("plan_fingerprint")?.as_u64("plan_fingerprint")?,
            db_fingerprint: obj.req("db_fingerprint")?.as_u64("db_fingerprint")?,
            budget,
            faults,
            passes,
            ledger,
            cache_events,
            degradations,
            verdict: obj.req("verdict")?.as_str("verdict")?.to_string(),
            actuals: TraceActuals {
                automaton_states: actuals_obj
                    .req("automaton_states")?
                    .as_u64("automaton_states")?,
                artifact_bytes: actuals_obj
                    .req("artifact_bytes")?
                    .as_u64("artifact_bytes")?,
                cache_hit: actuals_obj.req("cache_hit")?.as_bool("cache_hit")?,
                tuples_enumerated: actuals_obj
                    .req("tuples_enumerated")?
                    .as_u64("tuples_enumerated")?,
                domain_size: actuals_obj.req("domain_size")?.as_u64("domain_size")?,
            },
            output_fp: obj.req("output_fp")?.as_u64("output_fp")?,
            output_len: obj.req("output_len")?.as_u64("output_len")?,
        })
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
/// admission, execution. To reproduce the recorded cache sequence,
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
    if trace.budget.search_depth != usize::MAX {
        planner = planner.with_bound(trace.budget.search_depth);
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
                    " (first divergence: recorded `{} changed={} verified={} {}`, \
                     replayed `{} changed={} verified={} {}`)",
                    a.pass,
                    a.changed,
                    a.verified,
                    a.detail,
                    b.pass,
                    b.changed,
                    b.verified,
                    b.detail
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

/// Minimal JSON value for the trace reader. Numbers keep their raw
/// text so `u64::MAX` survives (a float detour would round it).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Typed accessors; every mismatch names the field it was reading.
impl Json {
    fn as_obj(&self, what: &str) -> Result<&[(String, Json)], CoreError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err(trace_err(what, "an object")),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], CoreError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(trace_err(what, "an array")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, CoreError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(trace_err(what, "a string")),
        }
    }

    fn as_bool(&self, what: &str) -> Result<bool, CoreError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(trace_err(what, "a boolean")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, CoreError> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| trace_err(what, "an unsigned 64-bit integer")),
            Json::Null => Ok(UNLIMITED),
            _ => Err(trace_err(what, "a number")),
        }
    }
}

/// Field lookup on a parsed object.
trait ObjExt {
    fn req(&self, key: &str) -> Result<&Json, CoreError>;
}

impl ObjExt for &[(String, Json)] {
    fn req(&self, key: &str) -> Result<&Json, CoreError> {
        self.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| CoreError::Unsupported(format!("trace: missing field `{key}`")))
    }
}

fn trace_err(what: &str, expected: &str) -> CoreError {
    CoreError::Unsupported(format!("trace: field `{what}` is not {expected}"))
}

/// Recursive-descent JSON reader (documents are machine-written
/// single-line traces, so the grammar is full JSON but diagnostics are
/// byte offsets only).
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> JsonParser<'a> {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Json, CoreError> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after the document"));
        }
        Ok(value)
    }

    fn err(&self, msg: &str) -> CoreError {
        CoreError::Unsupported(format!("trace: {msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), CoreError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, CoreError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_obj(),
            Some(b'[') => self.parse_arr(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_num(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, CoreError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_num(&mut self) -> Result<Json, CoreError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 number"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn parse_string(&mut self) -> Result<String, CoreError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Traces only escape control characters, so
                            // surrogate pairs never occur; reject them
                            // rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("non-utf8 string content"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Json, CoreError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_obj(&mut self) -> Result<Json, CoreError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::Arc;

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

    #[test]
    fn malformed_trace_json_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"version\":1}",
            "{\"version\":2}",
            "{\"version\":99}",
            "nope",
            "{\"version\":2,\"calculus\":3}",
        ] {
            assert!(ExecTrace::parse(bad).is_err(), "accepted: {bad}");
        }
    }
}
