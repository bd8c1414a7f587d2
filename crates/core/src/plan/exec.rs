//! Plan execution: the engines as node executors, governed by budgets.
//!
//! Every run takes one path, [`Plan::execute_in`]; [`Plan::execute`] is
//! that path in the production context. It dispatches on the plan's
//! root operator and hands the work to the matching executor — the
//! automata engine's artifact pipeline, a compiled program's nested
//! loops (the relational route over `Σ*`, bounded search over
//! `Σ^{≤B}`, and the collapse route over the query's collapse domain),
//! or a relation scan — and reports
//! post-execution actuals (states built, bytes held, cache hits, tuples
//! enumerated) for `EXPLAIN`. Before executing, the plan is re-verified
//! by planlint (defense in depth: a plan mutated after
//! `Planner::build` is rejected here), and afterwards the actuals are
//! cross-checked against the plan's resource certificate — an actual
//! exceeding its certified bound is a calibration bug in the abstract
//! domain and surfaces as an `SA240` entry in
//! [`ExecReport::cert_violations`].
//!
//! A sentence is a 0-ary query, as in the paper: it runs through the
//! same executors, and its answer is the 0-ary relation — `{()}` when
//! it holds, `∅` otherwise. Only the report is shaped by
//! [`Plan::is_boolean`]: a sentence enumerates no tuples, and a
//! truncated sentence without a witness is `Unknown`, not `Bounded`.
//!
//! Execution is *resource-governed*: every run holds a [`Budget`]
//! capability — the planner-seeded one unless its [`ExecCx`] carries
//! another. A pre-execution governor checks every node's certificate
//! against that one budget — not against ambient caps — and records the
//! result as a per-node [`BudgetLedger`]; a run whose cached artifact is
//! resident demands nothing. The run is exhausted at the first node, in
//! pre-order, whose certificate the budget does not admit, and then
//! degrades structurally per [`DegradationPolicy`]:
//!
//! * exact automata → a bounded collapse-domain verdict (SA401), in
//!   the translation validator's `Validated`/`Refuted`/`Unknown` shape
//!   ([`ExecVerdict`]); the collapse program is lowered only then, so an
//!   undegraded automata read plans nothing for it;
//! * dense batched tables → the sparse per-tuple DFA walk (SA402);
//! * a cold cache whose recompilation the budget denies → the same
//!   bounded fallback, surfaced as recompile-denied (SA403);
//! * a bounded search whose depth the capability clamps (SA404).
//!
//! Every degradation is an SA4xx event in the report — never silent —
//! and under `DegradationPolicy::Fail` the run is instead rejected
//! with `CoreError::BudgetExhausted`.
//!
//! Beyond the budget, the [`ExecCx`] (execution context) holds two
//! robustness hooks:
//!
//! * a [`Clock`] behind a cooperative [`Deadline`], polled at coarse
//!   checkpoints inside every long-running loop — a finite
//!   `wall_time_ms` terminates the run *in flight* (SA411 scan
//!   truncation, SA412 search clamp, SA413 compile abort);
//! * a [`FaultPlan`] of deterministic injection points (SA431),
//!   recorded into the report so traces replay injected runs —
//!   including real deadline fires, re-armed at their recorded
//!   checkpoint index — bit for bit.

use std::sync::Arc;

use strcalc_alphabet::{Str, Sym};
use strcalc_analyze::planlint::{fmt_bound, ResourceCert};
use strcalc_analyze::{Code, ScanPlan};
use strcalc_automata::{DenseDfa, Dfa};
use strcalc_logic::Lang;
use strcalc_relational::{Database, Relation, Row};

use crate::budget::{
    Budget, BudgetLedger, CacheEvent, Degradation, DegradationPolicy, ExecVerdict, LedgerEntry,
    UNLIMITED,
};
use crate::cache::{CompiledArtifact, DenseArtifact};
use crate::clock::{Clock, Deadline, MonotonicClock, VirtualClock};
use crate::engine::Slot;
use crate::enumeval::collapse_domain;
use crate::faults::FaultPlan;
use crate::generate::{Domain, DomainKind, Program, SIGMA_STAR};
use crate::query::{CoreError, EvalOutput, Query};

use super::ir::{Plan, PlanNode, PlanOp, PlanSource, Strategy};

/// Post-execution actuals, rendered into `EXPLAIN` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    pub strategy: Strategy,
    /// States of the compiled automaton (automata strategy; 0 otherwise).
    pub automaton_states: usize,
    /// Approximate bytes held by the compiled artifact (automata
    /// strategy; 0 otherwise). Same accounting as the cache budget.
    pub artifact_bytes: usize,
    /// Whether the compiled artifact was served by the shared cache.
    pub cache_hit: bool,
    /// Tuples materialized (or sampled, for infinite outputs).
    pub tuples_enumerated: usize,
    /// Size of the collapse domain on the collapse route and its SA401 /
    /// SA413 fallbacks; rows scanned on a scan; on the relational route
    /// and bounded search, the bindings the program produced; 0 for
    /// automata.
    pub domain_size: usize,
    /// SA240 calibration warnings: actuals that exceeded the plan's
    /// resource certificate. Empty when the certificate held (always,
    /// unless the abstract domain is miscalibrated).
    pub cert_violations: Vec<String>,
    /// Trustworthiness of the answer under the handed budget: `Exact`
    /// when the run completed as planned, `Bounded`/`Unknown` when it
    /// degraded. A degraded run is never reported as exact.
    pub verdict: ExecVerdict,
    /// SA4xx structural degradation events, in order. Empty iff the
    /// handed budget covered the run (the no-silent-truncation
    /// invariant: reduced work ⇒ a recorded event).
    pub degradations: Vec<Degradation>,
    /// The governor's per-node ledger: what each node's certificate
    /// demanded and whether the run's budget admits it.
    pub ledger: BudgetLedger,
    /// Cache interactions in execution order (the deterministic trace
    /// pins this sequence).
    pub cache_events: Vec<CacheEvent>,
    /// The fault plan this run is replayable under: the injected points
    /// it was armed with, plus — when a real clock fired the deadline —
    /// the checkpoint index of that fire, so replay re-arms the same
    /// event without a clock. `FaultPlan::none()` for an undisturbed
    /// run.
    pub faults: FaultPlan,
}

impl ExecReport {
    /// A clean (no-degradation) report skeleton for `strategy`.
    fn clean(strategy: Strategy) -> ExecReport {
        ExecReport {
            strategy,
            automaton_states: 0,
            artifact_bytes: 0,
            cache_hit: false,
            tuples_enumerated: 0,
            domain_size: 0,
            cert_violations: Vec::new(),
            verdict: ExecVerdict::Exact,
            degradations: Vec::new(),
            ledger: BudgetLedger::default(),
            cache_events: Vec::new(),
            faults: FaultPlan::none(),
        }
    }

    /// Stable one-line rendering for `EXPLAIN ... ANALYZE`-style output.
    pub fn summary(&self) -> String {
        let mut line = match self.strategy {
            Strategy::Automata => format!(
                "automaton states {}, bytes {}, cache {}, tuples enumerated {}",
                self.automaton_states,
                self.artifact_bytes,
                if self.cache_hit { "hit" } else { "miss" },
                self.tuples_enumerated
            ),
            Strategy::ActiveDomainEnum | Strategy::BoundedSearch => format!(
                "domain size {}, tuples enumerated {}",
                self.domain_size, self.tuples_enumerated
            ),
            Strategy::LikeLinearScan => format!(
                "rows scanned {}, tuples enumerated {}",
                self.domain_size, self.tuples_enumerated
            ),
            Strategy::DenseDfaScan => format!(
                "dense states {}, table bytes {}, cache {}, rows scanned {}, \
                 tuples enumerated {}",
                self.automaton_states,
                self.artifact_bytes,
                if self.cache_hit { "hit" } else { "miss" },
                self.domain_size,
                self.tuples_enumerated
            ),
        };
        for v in &self.cert_violations {
            line.push_str("; ");
            line.push_str(v);
        }
        for d in &self.degradations {
            line.push_str("; ");
            line.push_str(&d.render());
        }
        if !self.verdict.is_exact() {
            line.push_str("; verdict ");
            line.push_str(&self.verdict.render());
        }
        if !self.faults.is_none() {
            line.push_str("; faults ");
            line.push_str(&self.faults.summary());
        }
        line
    }
}

/// One governed run, threaded through every executor: its budget, its
/// context and deadline, and the report it writes into as
/// it goes. The governor's ledger, every degradation and every cache
/// event land in `report` in execution order; nothing is copied over
/// at the end.
struct Run<'a> {
    budget: Budget,
    cx: &'a ExecCx,
    deadline: Deadline,
    report: ExecReport,
    /// The cache slot of the plan's `CacheLookup` node, probed once by
    /// the governor; `None` when the plan reads no cache. A resident
    /// artifact is held here, so the executor serves exactly what the
    /// governor admitted at zero demand, even if another reader evicts
    /// it meanwhile.
    slot: Option<Slot>,
}

impl Run<'_> {
    /// The ledger entry of the first node, in pre-order, whose demand
    /// the run's budget does not admit, if any.
    fn exhausted(&self) -> Option<&LedgerEntry> {
        self.report.ledger.entries.iter().find(|e| !e.within)
    }

    /// Ledger path of the first exhausted node.
    fn exhausted_at(&self) -> String {
        self.exhausted()
            .map_or_else(|| "root".into(), |e| e.node.clone())
    }

    fn degrade(&mut self, code: Code, node: impl Into<String>, detail: impl Into<String>) {
        self.report
            .degradations
            .push(Degradation::new(code, node, detail));
    }
}

/// The execution context a governed run carries: the [`Budget`] it is
/// handed (the plan's seeded one unless set), the clock its deadline
/// reads, and the deterministic fault plan it is armed with.
/// [`Plan::execute`] uses [`ExecCx::production`]; trace replay uses
/// [`ExecCx::replay`] so recorded runs — including deadline fires and
/// injected faults — reproduce bit for bit.
#[derive(Clone)]
pub struct ExecCx {
    /// The budget capability for this run; `None` runs under the plan's
    /// seeded budget ([`Plan::seeded_budget`]).
    pub budget: Option<Budget>,
    /// Deterministic injection points for this run.
    pub faults: FaultPlan,
    /// The clock backing the run's deadline. Production: a monotonic
    /// clock; replay: a frozen [`VirtualClock`] (only a recorded fire
    /// checkpoint can expire the deadline).
    pub clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for ExecCx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCx")
            .field("budget", &self.budget)
            .field("faults", &self.faults)
            .finish()
    }
}

impl ExecCx {
    /// The production context: the plan's seeded budget, a real
    /// monotonic clock, no fault injection.
    pub fn production() -> ExecCx {
        ExecCx {
            budget: None,
            faults: FaultPlan::none(),
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// The replay context for a recorded fault plan: a frozen virtual
    /// clock, so wall time cannot fire anything; only the plan's
    /// recorded checkpoint can.
    pub fn replay(faults: FaultPlan) -> ExecCx {
        ExecCx {
            budget: None,
            faults,
            clock: Arc::new(VirtualClock::frozen()),
        }
    }

    /// Hands the run an explicit budget capability in place of the
    /// plan's seeded one.
    pub fn with_budget(mut self, budget: Budget) -> ExecCx {
        self.budget = Some(budget);
        self
    }

    /// Arms this context with a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> ExecCx {
        self.faults = faults;
        self
    }

    /// Substitutes the clock (tests drive a [`VirtualClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> ExecCx {
        self.clock = clock;
        self
    }

    /// The deadline this run polls: an injected fire point wins over
    /// the clock (replay and chaos runs must be clock-independent);
    /// otherwise a finite `wall_time_ms` arms the context's clock, and
    /// an unlimited budget costs one relaxed atomic per checkpoint.
    fn deadline_for(&self, budget: &Budget) -> Deadline {
        if let Some(n) = self.faults.deadline_at_checkpoint {
            Deadline::firing_at_checkpoint(n)
        } else if budget.wall_time_ms != UNLIMITED {
            Deadline::with_clock(Arc::clone(&self.clock), budget.wall_time_ms)
        } else {
            Deadline::unlimited()
        }
    }

    /// The fault plan to record into the report: the armed plan, plus
    /// the deadline's fire checkpoint when it fired — this is how a
    /// *real* clock expiry becomes a deterministic, replayable event.
    fn recorded(&self, deadline: &Deadline) -> FaultPlan {
        let mut plan = self.faults;
        // The trace records what *happened*, not what was armed: an
        // injected fire point the run never reached is dropped (the
        // run was exact; replay needs no deadline), and a real-clock
        // fire becomes the checkpoint index replay re-arms.
        plan.deadline_at_checkpoint = deadline.fired_at();
        plan
    }
}

impl Plan {
    /// Executes the plan against `db` in the production context, under
    /// the planner-seeded budget (see [`Plan::seeded_budget`]). Seeded
    /// budgets admit their own certificate, so this run is exact.
    pub fn execute(&self, db: &Database) -> Result<(EvalOutput, ExecReport), CoreError> {
        self.execute_in(db, &ExecCx::production())
    }

    /// Executes the plan under the context `cx`: its budget (the seeded
    /// one unless set) is the capability every node is governed by, its
    /// clock backs the in-flight deadline, and its fault plan arms
    /// deterministic injection points.
    ///
    /// The governor checks every plan node's certificate against the
    /// budget, records the [`BudgetLedger`], and on exhaustion degrades
    /// structurally per the budget's [`DegradationPolicy`] (or rejects
    /// the run under `Fail`). Degraded answers carry a non-`Exact` [`ExecVerdict`]
    /// and SA4xx events — never a silently truncated result.
    ///
    /// A sentence is a 0-ary query: its answer is the 0-ary relation,
    /// `{()}` when it holds and `∅` otherwise. A sentence enumerates no
    /// tuples, and a truncated sentence run reports `Bounded` only once
    /// it holds a witness (`true` over a prefix of the work is sound);
    /// without one it reports `Unknown`, since absence was not
    /// established.
    pub fn execute_in(
        &self,
        db: &Database,
        cx: &ExecCx,
    ) -> Result<(EvalOutput, ExecReport), CoreError> {
        self.lint_gate()?;
        let budget = cx.budget.unwrap_or(self.budget);
        let mut run = Run {
            budget,
            cx,
            deadline: cx.deadline_for(&budget),
            report: ExecReport::clean(self.strategy),
            slot: None,
        };
        self.govern(db, &mut run);
        self.fail_gate(&run)?;
        let out = match (&self.root.op, self.strategy) {
            (PlanOp::EnumerateFinite, Strategy::Automata) => self.run_automata(db, &mut run)?,
            (PlanOp::EnumerateFinite, Strategy::ActiveDomainEnum) => {
                EvalOutput::Finite(self.run_collapse(db, &mut run)?)
            }
            (PlanOp::Relational, Strategy::ActiveDomainEnum) => {
                EvalOutput::Finite(self.run_relational(db, &mut run)?)
            }
            (PlanOp::BoundedSearch { budget: bound }, Strategy::BoundedSearch) => {
                EvalOutput::Finite(self.run_search(*bound, db, &mut run)?)
            }
            (PlanOp::LikeScan { plan }, Strategy::LikeLinearScan)
            | (PlanOp::DenseScan { plan, .. }, Strategy::DenseDfaScan) => {
                EvalOutput::Finite(self.scan(plan, db, &mut run)?)
            }
            (op, strategy) => {
                return Err(CoreError::Unsupported(format!(
                    "malformed plan: root {} under strategy {}",
                    op.name(),
                    strategy.name()
                )))
            }
        };
        run.report.faults = cx.recorded(&run.deadline);
        Ok((out, run.report))
    }

    /// The tuple count a run reports as enumerated: its answer's size,
    /// or 0 for a sentence, which enumerates no tuples.
    fn enumerated(&self, answer: usize) -> usize {
        if self.is_boolean() {
            0
        } else {
            answer
        }
    }

    /// The fallback of a degraded automata run (SA401, SA413): lowers
    /// `q` over its collapse domain and runs it, under the run's
    /// deadline when `governed`. A truncation is SA411-visible with its
    /// bindings watermark. Returns the answer and the domain's size.
    fn collapse(
        &self,
        q: &Query,
        db: &Database,
        run: &mut Run,
        governed: bool,
    ) -> Result<(Relation, usize), CoreError> {
        let langs = &q.sheet().langs;
        let collapse = DomainKind::Collapse;
        let (program, _) = Program::lower_over(q.formula(), q.head(), langs, None, collapse)?;
        let domain = collapse_domain(q, db, self.slack);
        let deadline = if governed {
            run.deadline.clone()
        } else {
            Deadline::unlimited()
        };
        let out = program.run(db, &deadline, &domain)?;
        if out.truncated {
            let what = format!("generated {} bindings", out.bindings);
            self.truncate(run, Code::DeadlineScanTruncated, what, &out.answer)?;
        }
        let size = domain.size(q.alphabet());
        run.report.tuples_enumerated = self.enumerated(out.answer.len());
        run.report.domain_size = size;
        Ok((out.answer, size))
    }

    /// The automata executor: compiles the plan's automaton (through the
    /// cache when one is attached) and reads the answer off it — the
    /// tuples of an open query, the truth of a sentence. An exhausted
    /// budget degrades to the bounded collapse domain; a deadline fired
    /// before compiling abandons the compile.
    fn run_automata(&self, db: &Database, run: &mut Run) -> Result<EvalOutput, CoreError> {
        let q = self.typed_query()?;
        if run.exhausted().is_some() {
            return Ok(EvalOutput::Finite(self.degraded_bounded(q, db, run)?));
        }
        // One checkpoint covers the whole compile: product construction
        // is not incrementally interruptible, so the poll happens before
        // committing to it.
        if run.deadline.checkpoint() || run.cx.faults.abort_compile {
            return Ok(EvalOutput::Finite(self.compile_aborted(q, db, run)?));
        }
        let (artifact, fresh) = self.artifact(q, db, run)?;
        let out = if self.is_boolean() {
            EvalOutput::Finite(Relation::from_tuples(
                0,
                artifact.dfa().is_true().then(Vec::new),
            ))
        } else {
            self.engine.eval_artifact(q, db, &artifact)?
        };
        let tuples = match &out {
            EvalOutput::Finite(rel) => rel.len(),
            EvalOutput::Infinite { sample } => sample.len(),
        };
        let states = artifact.compiled_states();
        let bytes = artifact.compiled_bytes();
        let rep = &mut run.report;
        rep.automaton_states = states;
        rep.artifact_bytes = bytes;
        rep.cache_hit = !fresh;
        rep.tuples_enumerated = self.enumerated(tuples);
        rep.cert_violations = self.calibrate(states, bytes);
        if run.slot.is_some() {
            rep.cache_events
                .push(CacheEvent::lookup("automaton", !fresh));
        }
        Ok(out)
    }

    /// The collapse executor: the plan's compiled program over the
    /// query's collapse domain (Proposition 2, Theorem 2). A deadline
    /// expiry keeps the tuples completed so far (SA411).
    fn run_collapse(&self, db: &Database, run: &mut Run) -> Result<Relation, CoreError> {
        let q = self.typed_query()?;
        let domain = collapse_domain(q, db, self.slack);
        let rel = self.run_program(db, run, &domain, Code::DeadlineScanTruncated)?;
        run.report.domain_size = domain.size(q.alphabet());
        Ok(rel)
    }

    /// The relational executor: runs the plan's compiled program — nested
    /// loops in binding order, each variable bound by its generator. It
    /// builds no automaton. A deadline expiry keeps the tuples completed
    /// so far (SA411).
    fn run_relational(&self, db: &Database, run: &mut Run) -> Result<Relation, CoreError> {
        self.run_program(db, run, &SIGMA_STAR, Code::DeadlineScanTruncated)
    }

    /// Runs the plan's compiled program over `domain`; `domain_size`
    /// reports the bindings its generators produced. On a deadline
    /// expiry the tuples completed so far stay, and `code` records the
    /// truncation.
    fn run_program(
        &self,
        db: &Database,
        run: &mut Run,
        domain: &Domain,
        code: Code,
    ) -> Result<Relation, CoreError> {
        let program = self.program.as_ref().ok_or_else(|| {
            CoreError::Unsupported(format!(
                "malformed plan: a {} root without its compiled program",
                self.root.op.name()
            ))
        })?;
        let out = program.run(db, &run.deadline, domain)?;
        if out.truncated {
            let what = format!("generated {} bindings", out.bindings);
            run.report.verdict = self.truncate(run, code, what, &out.answer)?;
        }
        run.report.tuples_enumerated = self.enumerated(out.answer.len());
        run.report.domain_size = out.bindings as usize;
        Ok(out.answer)
    }

    /// The bounded-search executor, at the depth [`Plan::governed_depth`]
    /// allows: the plan's compiled program, whose generators bind what
    /// they can and whose `Domain` steps walk `Σ^{≤depth}`.
    fn run_search(
        &self,
        bound: usize,
        db: &Database,
        run: &mut Run,
    ) -> Result<Relation, CoreError> {
        let depth = self.governed_depth(bound, run);
        self.run_program(db, run, &Domain::UpTo(depth), Code::DeadlineSearchClamped)
    }

    /// The pre-execution governor: checks every node's certificate
    /// against the run's budget, in pre-order, into the ledger — this is
    /// where the ambient complement cap and `BoundedSearch { budget }`
    /// limits are subsumed into one capability. A run whose
    /// `CacheLookup` finds its artifact resident demands nothing
    /// (serving a hit builds no states or bytes); a cold one demands
    /// every certificate, which is what the recompile-denied path
    /// (SA403) keys off.
    fn govern(&self, db: &Database, run: &mut Run) {
        let mut has_cache_lookup = false;
        self.root.visit(&mut |n| {
            if matches!(n.op, PlanOp::CacheLookup { .. }) {
                has_cache_lookup = true;
            }
        });
        if let (true, Ok(q)) = (has_cache_lookup, self.typed_query()) {
            run.slot = self.engine.probe(q.sheet(), q.alphabet(), db);
        }
        let resident = run.slot.as_ref().is_some_and(|s| s.resident.is_some());
        record_ledger(
            &self.root,
            "root",
            &run.budget,
            resident,
            &mut run.report.ledger,
        );
    }

    /// The shared deadline-expiry response: records the SA41x event
    /// (checkpoint index and work-seen watermark — deterministic
    /// quantities, never elapsed time) and downgrades the verdict, or
    /// rejects the run outright under `DegradationPolicy::Fail`. The
    /// partial `answer` is a sound bound (`Bounded`) for an open query,
    /// and for a sentence once it holds a witness; a witness-less
    /// sentence established nothing (`Unknown`).
    fn truncate(
        &self,
        run: &mut Run,
        code: Code,
        what: String,
        answer: &Relation,
    ) -> Result<ExecVerdict, CoreError> {
        let checkpoint = run.deadline.fired_at().unwrap_or(0);
        let detail = format!("deadline fired at checkpoint {checkpoint}: {what}");
        if run.budget.degradation_policy == DegradationPolicy::Fail {
            return Err(CoreError::DeadlineExpired { checkpoint, detail });
        }
        run.degrade(code, "root", detail.clone());
        Ok(if !self.is_boolean() || !answer.is_empty() {
            ExecVerdict::Bounded { reason: detail }
        } else {
            ExecVerdict::Unknown { reason: detail }
        })
    }

    /// The deadline-fired-before-compile (or injected-abort) response:
    /// automaton compilation is abandoned and the query is evaluated
    /// over the bounded collapse domain instead (SA413). The collapse
    /// program runs without further deadline polls — the degradation
    /// *is* the response, and it must complete to report something
    /// sound rather than unwind into an empty answer.
    fn compile_aborted(
        &self,
        q: &Query,
        db: &Database,
        run: &mut Run,
    ) -> Result<Relation, CoreError> {
        let injected = run.cx.faults.abort_compile && run.deadline.fired_at().is_none();
        let checkpoint = run
            .deadline
            .fired_at()
            .unwrap_or_else(|| run.deadline.checkpoints());
        if run.budget.degradation_policy == DegradationPolicy::Fail {
            return Err(CoreError::DeadlineExpired {
                checkpoint,
                detail: "automaton compilation abandoned before it started".to_string(),
            });
        }
        if injected {
            run.degrade(Code::FaultInjected, "root", "injected compile abort");
        }
        let (rel, domain_size) = self.collapse(q, db, run, false)?;
        run.degrade(
            Code::DeadlineCompileAborted,
            "root",
            format!(
                "automaton compilation aborted at checkpoint {checkpoint}; evaluated over \
                 the bounded collapse domain ({domain_size} strings)"
            ),
        );
        run.report.verdict = ExecVerdict::Bounded {
            reason: format!(
                "compile aborted at checkpoint {checkpoint}: evaluated over the bounded \
                 collapse domain ({domain_size} strings)"
            ),
        };
        Ok(rel)
    }

    /// The plan's automaton, with whether it was freshly compiled: the
    /// artifact the governor found resident in the run's cache slot, or
    /// a fresh compile stored under that slot's key. An injected
    /// cache-insert failure (SA431-visible) still serves a resident
    /// artifact, but a fresh one is not retained.
    fn artifact(
        &self,
        q: &Query,
        db: &Database,
        run: &mut Run,
    ) -> Result<(Arc<CompiledArtifact>, bool), CoreError> {
        let retain = !run.cx.faults.fail_cache_insert;
        if !retain && self.engine.cache.is_some() {
            run.degrade(
                Code::FaultInjected,
                "root",
                "injected cache-insert failure: the compiled artifact is not retained",
            );
        }
        match &run.slot {
            Some(Slot {
                resident: Some(hit),
                ..
            }) => Ok((Arc::clone(hit), false)),
            slot => {
                let key = slot.as_ref().filter(|_| retain).map(|s| s.key);
                Ok((self.engine.fill(key, q.formula(), q.alphabet(), db)?, true))
            }
        }
    }

    /// Whether the dense executor may retain freshly densified tables
    /// in the cache; `false` under an injected cache-insert failure
    /// (SA431-recorded).
    fn dense_fault_gate(&self, run: &mut Run) -> bool {
        if run.cx.faults.fail_cache_insert && self.engine.cache.is_some() {
            run.degrade(
                Code::FaultInjected,
                "root",
                "injected cache-insert failure: densified tables are not retained",
            );
            return false;
        }
        true
    }

    /// Rejects the run under the fail policy when the governor found
    /// an exhausted node.
    fn fail_gate(&self, run: &Run) -> Result<(), CoreError> {
        match run.exhausted() {
            Some(entry) if run.budget.degradation_policy == DegradationPolicy::Fail => {
                Err(CoreError::BudgetExhausted {
                    node: entry.node.clone(),
                    detail: entry.render(),
                })
            }
            _ => Ok(()),
        }
    }

    /// The exact → bounded structural degradation: a node's certified
    /// demand exceeded the run's budget, so the query is evaluated over
    /// the bounded collapse domain instead and the answer carries a
    /// `Bounded` verdict (the validator's shape) — a sound statement
    /// about a bounded domain, never a silently truncated exact answer.
    /// Surfaced as SA403 when a shared cache could have served the run
    /// but the artifact was cold and the budget denies recompiling it,
    /// SA401 otherwise.
    fn degraded_bounded(
        &self,
        q: &Query,
        db: &Database,
        run: &mut Run,
    ) -> Result<Relation, CoreError> {
        let node = run.exhausted_at();
        let refused = run
            .exhausted()
            .map_or_else(String::new, |e| refusal(e, &run.budget));
        if matches!(run.slot, Some(Slot { resident: None, .. })) {
            run.degrade(
                Code::DegradedRecompileDenied,
                node.clone(),
                format!(
                    "artifact not resident and the budget denies recompiling it ({refused}); \
                     degrading to a bounded verdict"
                ),
            );
            run.degrade(
                Code::DegradedExactToBounded,
                node,
                "exact automata evaluation degraded to the bounded collapse domain",
            );
        } else {
            run.degrade(
                Code::DegradedExactToBounded,
                node,
                format!("{refused}; evaluating over the bounded collapse domain"),
            );
        }
        // The fallback can itself run out of time; the verdict stays
        // `Bounded` (a subset of a bounded answer is still a sound bound).
        let (rel, domain_size) = self.collapse(q, db, run, true)?;
        run.report.verdict = ExecVerdict::Bounded {
            reason: format!(
                "budget-exhausted: evaluated over the bounded collapse domain \
                 ({domain_size} strings)"
            ),
        };
        Ok(rel)
    }

    /// The scan executors: the LIKE scan, the dense scan, and the dense
    /// scan's SA402 degradation. All three run the one batched loop,
    /// [`run_scan`]; they differ only in where the language filters come
    /// from. The dense scan serves its tables from the engine's cache
    /// (or densifies them). The LIKE scan, and a dense scan whose
    /// tables' certified bytes exceed the run's budget, walk each
    /// language's sparse DFA instead. The sparse walk is exact, so the
    /// degraded verdict stays `Exact`, but the fallback is still
    /// SA402-recorded.
    fn scan(&self, plan: &ScanPlan, db: &Database, run: &mut Run) -> Result<Relation, CoreError> {
        let k = self.alphabet().len() as Sym;
        let dense = self.strategy == Strategy::DenseDfaScan;
        let fallback = dense && run.exhausted().is_some();
        if fallback {
            let node = run.exhausted_at();
            run.degrade(
                Code::DegradedDenseToSparse,
                node,
                "dense tables exceed the handed byte budget; falling back to the sparse \
                 per-tuple DFA walk",
            );
        }
        let rel = scan_relation(plan, db)?;
        let filters = if dense && !fallback {
            let retain = self.dense_fault_gate(run);
            self.dense_tables(plan, retain, &mut run.report)?
        } else {
            // General filters on this route walk the language's sparse
            // DFA per tuple (the planner routes them to the dense
            // tables; this keeps the LIKE scan total for hand-built
            // plans and is the dense scan's SA402 target).
            plan.dense_filters
                .iter()
                .map(|(col, lang, _)| Ok((*col, LangFilter::Sparse(self.filter_dfa(*col, lang)?))))
                .collect::<Result<_, CoreError>>()?
        };
        let (out, scanned, truncated) = run_scan(plan, rel, k, &filters, &run.deadline);
        run.report.domain_size = scanned;
        run.report.tuples_enumerated = self.enumerated(out.len());
        if truncated {
            let what = format!("scanned {scanned} rows");
            run.report.verdict = self.truncate(run, Code::DeadlineScanTruncated, what, &out)?;
        }
        Ok(out)
    }

    /// The bounded-search depth under governance: the *minimum* of the
    /// plan's declared bound and the handed `search_depth` capability
    /// (this subsumes the ambient `BoundedSearch { budget }` operand).
    /// When the capability clamps, the run records SA404 and its verdict
    /// becomes `Bounded`.
    fn governed_depth(&self, bound: usize, run: &mut Run) -> usize {
        let effective = bound.min(run.budget.search_depth);
        if effective < bound {
            run.degrade(
                Code::DegradedSearchDepthClamped,
                "root",
                format!(
                    "search depth clamped {bound} → {effective} by the handed budget; \
                     assignments range over Σ^≤{effective}"
                ),
            );
            run.report.verdict = ExecVerdict::Bounded {
                reason: format!("search depth clamped to {effective} by the handed budget"),
            };
        }
        effective
    }

    /// Re-verifies the plan before executing it, with the checker that
    /// verified it at plan time. `Planner::build` only hands out
    /// verified plans, so this rejects plans mutated after planning.
    fn lint_gate(&self) -> Result<(), CoreError> {
        let report = self.checker.reverify(self);
        if report.has_errors() {
            return Err(CoreError::PlanRejected {
                stage: "execute".to_string(),
                diagnostics: report.rendered_errors(),
            });
        }
        Ok(())
    }

    /// Cross-checks executed actuals against the plan's resource
    /// certificate; each violated bound yields one SA240 line. The
    /// certificate is a sound upper bound, so any violation means the
    /// abstract domain (not the executor) is miscalibrated.
    fn calibrate(&self, states: usize, bytes: usize) -> Vec<String> {
        let mut violations = Vec::new();
        let Some(cert) = self.root.cert else {
            return violations;
        };
        if cert.is_zero() {
            return violations;
        }
        if states as u64 > cert.states {
            violations.push(format!(
                "SA240: actual automaton states {} exceed the certified bound {}",
                states,
                fmt_bound(cert.states)
            ));
        }
        if bytes as u64 > cert.bytes {
            violations.push(format!(
                "SA240: actual artifact bytes {} exceed the certified bound {}",
                bytes,
                fmt_bound(cert.bytes)
            ));
        }
        violations
    }

    /// The dense scan's tables, one per language filter, served from
    /// the engine's shared cache when one is attached (keyed by language
    /// and alphabet only, so they survive instance changes). Dense
    /// tables report through the automaton channels of `rep` —
    /// `automaton_states` is the widest table, `artifact_bytes` the sum
    /// of all tables held — so the SA240 calibration cross-check runs
    /// against the dense certificate.
    fn dense_tables(
        &self,
        plan: &ScanPlan,
        retain: bool,
        rep: &mut ExecReport,
    ) -> Result<Vec<(usize, LangFilter<'_>)>, CoreError> {
        let engine = &self.engine;
        let alphabet = self.alphabet();
        let mut any_fresh = false;
        let mut tables = Vec::with_capacity(plan.dense_filters.len());
        for (col, lang, _) in &plan.dense_filters {
            let densify = || {
                let dfa = self.filter_dfa(*col, lang)?;
                Ok::<_, CoreError>(DenseArtifact::from_dense(DenseDfa::compile(dfa)))
            };
            let (artifact, fresh) = match engine.cache() {
                // An injected cache-insert failure (`retain == false`)
                // still probes the cache — a resident table serves — but
                // a fresh densification is not written back.
                Some(cache) if retain => cache
                    .get_or_insert_dense_with(engine.dense_cache_key(lang, alphabet), densify)?,
                Some(cache) => match cache.get_dense(&engine.dense_cache_key(lang, alphabet)) {
                    Some(hit) => (hit, false),
                    None => (Arc::new(densify()?), true),
                },
                None => (Arc::new(densify()?), true),
            };
            rep.automaton_states = rep.automaton_states.max(artifact.dfa.num_states() as usize);
            rep.artifact_bytes += artifact.bytes;
            any_fresh |= fresh;
            if engine.cache.is_some() {
                rep.cache_events
                    .push(CacheEvent::lookup(format!("dense:{col}"), !fresh));
            }
            tables.push((*col, LangFilter::Dense(artifact)));
        }
        rep.cache_hit = engine.cache.is_some() && !any_fresh;
        rep.cert_violations = self.calibrate(rep.automaton_states, rep.artifact_bytes);
        Ok(tables)
    }

    /// The DFA of a scan filter's language, compiled once into the
    /// plan's fact sheet. The scan plan is read off that sheet, so a
    /// language missing from it is a malformed plan.
    fn filter_dfa(&self, col: usize, lang: &Lang) -> Result<&Dfa, CoreError> {
        self.sheet().langs.dfa(lang).ok_or_else(|| {
            CoreError::Unsupported(format!(
                "malformed plan: the language filtering column {col} is not in the plan's \
                 fact sheet"
            ))
        })
    }

    fn typed_query(&self) -> Result<&crate::query::Query, CoreError> {
        match &self.source {
            PlanSource::Query(q) => Ok(q),
            PlanSource::Raw { .. } => Err(CoreError::Unsupported(
                "this strategy requires a typed query".into(),
            )),
        }
    }
}

/// Records the ledger rows of `node` (at `path`) and its descendants,
/// in pre-order: each node demands its certificate — nothing when the
/// run's cached artifact is `resident` — and is within when `budget`
/// admits the demand.
fn record_ledger(
    node: &PlanNode,
    path: &str,
    budget: &Budget,
    resident: bool,
    ledger: &mut BudgetLedger,
) {
    let demand = match node.cert {
        Some(cert) if !resident => cert,
        _ => ResourceCert::ZERO,
    };
    ledger.entries.push(LedgerEntry {
        node: path.to_string(),
        op: node.op.name().to_string(),
        demand_states: demand.states,
        demand_bytes: demand.bytes,
        within: budget.admits(&demand),
    });
    for (i, c) in node.children.iter().enumerate() {
        record_ledger(c, &format!("{path}/{i}"), budget, resident, ledger);
    }
}

/// An exhausted ledger row in each dimension the run's budget refused:
/// `root/0 Product: certified bytes ≤2^28 exceed the budget's ≤2^27`.
fn refusal(entry: &LedgerEntry, budget: &Budget) -> String {
    let dims = [
        ("states", entry.demand_states, budget.states),
        ("bytes", entry.demand_bytes, budget.bytes),
    ];
    let refused: Vec<String> = dims
        .iter()
        .filter(|(_, demand, allowed)| demand > allowed)
        .map(|(dim, demand, allowed)| {
            let (demand, allowed) = (fmt_bound(*demand), fmt_bound(*allowed));
            format!("{dim} ≤{demand} exceed the budget's ≤{allowed}")
        })
        .collect();
    format!(
        "{} {}: certified {}",
        entry.node,
        entry.op,
        refused.join(", ")
    )
}

/// Validates the scan plan's relation against the database.
fn scan_relation<'a>(plan: &ScanPlan, db: &'a Database) -> Result<&'a Relation, CoreError> {
    let rel = db.relation(&plan.relation).ok_or_else(|| {
        CoreError::Unsupported(format!(
            "scan plan names a relation `{}` the database does not hold",
            plan.relation
        ))
    })?;
    if rel.arity() != plan.arity {
        return Err(CoreError::Unsupported(format!(
            "scan plan expects `{}` with arity {}, database holds arity {}",
            plan.relation,
            plan.arity,
            rel.arity()
        )));
    }
    Ok(rel)
}

/// One language filter of a scan: a dense table streamed a batch at a
/// time through [`DenseDfa::match_mask`], or a sparse DFA walked row by
/// row.
enum LangFilter<'a> {
    Dense(Arc<DenseArtifact>),
    Sparse(&'a Dfa),
}

/// Rows per scan batch: small enough that the gather buffer and mask
/// stay cache-resident, large enough to amortize the per-batch setup.
/// The deadline is polled once per batch, not per row, to stay inside
/// the checkpoint-overhead gate.
const SCAN_BATCH: usize = 4096;

/// The batched scan loop. It walks the relation's rows in batches of
/// [`SCAN_BATCH`], and every filter runs as a batch kernel over a
/// gathered column. Per batch it polls the deadline, starts the batch's
/// keep flags all set without reading a row, and narrows them with the
/// column equalities, the alphabet guard (only when the relation's
/// symbol ceiling does not rule it out), each linear LIKE matcher
/// ([`LikeMatcher::match_mask`](strcalc_analyze::LikeMatcher::match_mask))
/// and each language filter — one table dispatch per batch for a dense
/// filter. When the projection is the identity the answer is
/// [`Relation::subsequence`] of the flags: the relation's own leaves
/// under new live-row masks, so building it reads, clones and compares
/// no row. Otherwise the kept rows' projections are sorted into a new
/// relation. No automaton is constructed here. Returns the answer, the
/// number of rows scanned (the `EXPLAIN` actuals report it as
/// `domain_size` — and, on truncation, the rows-seen watermark), and
/// whether the deadline cut the scan short.
///
/// The alphabet guard is every route's convention for stored strings
/// containing symbols outside `Σ`: a tuple with an out-of-`Σ` symbol in
/// *any* column denotes nothing (the relation trie and the generators
/// skip it too). The scans must agree, not silently match raw bytes.
fn run_scan(
    plan: &ScanPlan,
    rel: &Relation,
    k: Sym,
    filters: &[(usize, LangFilter)],
    deadline: &Deadline,
) -> (Relation, usize, bool) {
    // The alphabet guard, unless the ceiling shows every row passes it.
    let guarded = !rel.within(k);
    // One flag per scanned row, in the stored order.
    let mut keep: Vec<bool> = Vec::with_capacity(rel.len());
    let mut truncated = false;
    // Buffers sized to the relation when it is smaller than a batch: a
    // short scan must not pay for a full batch's allocation.
    let width = rel.len().min(SCAN_BATCH);
    let mut batch: Vec<&Row> = Vec::with_capacity(width);
    let mut col_buf: Vec<&Str> = Vec::with_capacity(width);
    let mut rows = rel.iter();
    loop {
        batch.clear();
        batch.extend(rows.by_ref().take(SCAN_BATCH));
        if batch.is_empty() {
            break;
        }
        // One deadline poll per batch, *before* committing to it: a
        // fire terminates the scan at a batch boundary with the
        // rows-seen watermark intact.
        if deadline.checkpoint() {
            truncated = true;
            break;
        }
        let start = keep.len();
        keep.resize(start + batch.len(), true);
        let live = &mut keep[start..];
        for &(i, j) in &plan.eq_cols {
            for (m, t) in live.iter_mut().zip(&batch) {
                *m &= t[i] == t[j];
            }
        }
        if guarded {
            for (m, t) in live.iter_mut().zip(&batch) {
                *m &= t.iter().all(|s| s.within(k));
            }
        }
        for (col, matcher, _) in &plan.filters {
            matcher.match_mask(gather(&mut col_buf, &batch, *col), live);
        }
        for (col, filter) in filters {
            match filter {
                LangFilter::Dense(artifact) => {
                    artifact
                        .dfa
                        .match_mask(gather(&mut col_buf, &batch, *col), live);
                }
                LangFilter::Sparse(dfa) => {
                    for (m, t) in live.iter_mut().zip(&batch) {
                        *m = *m && dfa.accepts(&t[*col]);
                    }
                }
            }
        }
    }
    let scanned = keep.len();
    let out = if plan.projection.iter().copied().eq(0..rel.arity()) {
        rel.subsequence(&keep)
    } else {
        let kept = rel.iter().zip(keep).filter(|(_, kept)| *kept);
        Relation::from_tuples(
            plan.projection.len(),
            kept.map(|(t, _)| {
                plan.projection
                    .iter()
                    .map(|&c| t[c].clone())
                    .collect::<Row>()
            }),
        )
    };
    (out, scanned, truncated)
}

/// Column `col` of the batch's rows, gathered into `buf`.
fn gather<'b, 'a>(buf: &'b mut Vec<&'a Str>, batch: &[&'a Row], col: usize) -> &'b [&'a Str] {
    buf.clear();
    buf.extend(batch.iter().map(|t| &t[col]));
    buf
}
