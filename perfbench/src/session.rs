//! One loaded instance of the program, and the calls into its layers.
//!
//! Every call into a layer's public entry point goes through
//! [`Tracer::span`], which records nothing unless the tracer is on. The
//! spans sit in this benchmark's own code, around the calls; nothing is
//! placed inside the program.

use std::sync::Arc;
use std::time::Instant;

use strcalc_alphabet::Str;
use strcalc_analyze::Analyzer;
use strcalc_core::{
    AutomataEngine, AutomatonCache, CoreError, EvalOutput, ExecReport, Plan, PlanOp, Planner,
    Strategy,
};
use strcalc_logic::parse_formula;
use strcalc_relational::Database;
use strcalc_sqlfront::{compile_select, parse_select, Catalog};

use crate::workload::{Inputs, Read, Statement, CONCAT_BOUND, WRITE_RELATION};

/// One recorded span: a call into a layer, or a whole operation.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing operation span; `None` for operations.
    pub parent: Option<u32>,
    pub op: u32,
}

/// In-memory span recorder, written out when the run ends.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    current: Option<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            current: None,
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span named `name` inside the current operation.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.current,
            op: self.op,
        });
        out
    }

    /// Runs operation `op` as a root span; the spans `f` records are its
    /// children.
    pub fn operation<T>(
        &mut self,
        name: &'static str,
        op: u32,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op,
        });
        self.current = Some(index);
        self.op = op;
        let out = f(self);
        self.spans[index as usize].end_ns = self.now_ns();
        self.current = None;
        out
    }
}

/// The span an execution is recorded under, by the strategy the planner
/// chose.
pub fn exec_span(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Automata => "exec.automata",
        Strategy::ActiveDomainEnum => "exec.enum",
        Strategy::BoundedSearch => "exec.bounded_search",
        Strategy::LikeLinearScan => "exec.like_scan",
        Strategy::DenseDfaScan => "exec.dense_scan",
    }
}

/// What one read did, from the report the executor returned.
pub struct ReadResult {
    pub output: EvalOutput,
    pub report: ExecReport,
    /// The relation a scan plan streamed, if the plan is a scan.
    pub scanned: Option<String>,
    /// Whether the plan looks its automaton up in the session's cache.
    pub cached: bool,
}

/// The program as one benchmark run loads it: the database, the SQL
/// catalog, and the planner (with the shared cache, when the workload
/// has one).
pub struct Session {
    pub db: Database,
    pub catalog: Catalog,
    pub planner: Planner,
    pub cache: Option<Arc<AutomatonCache>>,
    /// The instance as loaded, before any write.
    loaded: Database,
    /// Rows written since the instance was last `loaded`.
    pub written: usize,
}

impl Session {
    /// Loads the rows, builds the catalog and cache, and warms every
    /// distinct read once. This is the span `setup_s` times.
    pub fn setup(inputs: &Inputs) -> Result<Session, String> {
        let mut db = Database::new();
        let mut catalog = Catalog::new();
        for table in &inputs.tables {
            db.declare(table.name.clone(), table.arity)
                .map_err(|e| e.to_string())?;
            for row in &table.rows {
                db.insert(table.name.clone(), row.clone())
                    .map_err(|e| e.to_string())?;
            }
            if let Some(columns) = &table.columns {
                let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                catalog.add_table(table.name.clone(), &columns);
            }
        }
        let cache = inputs
            .cache_budget
            .map(|bytes| Arc::new(AutomatonCache::with_budget(bytes)));
        let engine = match &cache {
            Some(cache) => AutomataEngine::new().with_cache(Arc::clone(cache)),
            None => AutomataEngine::new(),
        };
        let session = Session {
            loaded: db.clone(),
            db,
            catalog,
            planner: Planner::for_engine(&engine).with_bound(CONCAT_BOUND),
            cache,
            written: 0,
        };
        let mut quiet = Tracer::new();
        for read in &inputs.reads {
            session
                .read(inputs, read, &mut quiet)
                .map_err(|e| format!("warm-up of {}: {e}", read.label))?;
        }
        Ok(session)
    }

    /// Parses `read`'s text and plans it under `planner`.
    pub fn plan(
        &self,
        inputs: &Inputs,
        read: &Read,
        planner: &Planner,
        tracer: &mut Tracer,
    ) -> Result<Plan, String> {
        let alphabet = &inputs.alphabet;
        match &read.statement {
            Statement::Sql(text) => {
                let stmt = tracer
                    .span("sqlfront.parse_select", || parse_select(alphabet, text))
                    .map_err(|e| e.to_string())?;
                let compiled = tracer
                    .span("sqlfront.compile_select", || {
                        compile_select(alphabet, &self.catalog, &stmt)
                    })
                    .map_err(|e| e.to_string())?;
                tracer
                    .span("plan.build", || compiled.plan(planner))
                    .map_err(|e| e.to_string())
            }
            Statement::Formula {
                calculus,
                head,
                text,
            } => {
                let formula = tracer
                    .span("logic.parse_formula", || parse_formula(alphabet, text))
                    .map_err(|e| e.to_string())?;
                if inputs.lint {
                    let analysis = tracer.span("analyze.analyze", || {
                        Analyzer::new(calculus.structure_class()).analyze(alphabet, &formula)
                    });
                    std::hint::black_box(analysis);
                }
                tracer
                    .span("plan.build", || {
                        planner.plan_formula(alphabet, head, &formula)
                    })
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// One read: the statement text through every layer, executed
    /// against the database.
    pub fn read(
        &self,
        inputs: &Inputs,
        read: &Read,
        tracer: &mut Tracer,
    ) -> Result<ReadResult, String> {
        let plan = self.plan(inputs, read, &self.planner, tracer)?;
        let (output, report) = tracer
            .span(exec_span(plan.strategy), || plan.execute(&self.db))
            .map_err(|e: CoreError| e.to_string())?;
        let mut cache_lookup = false;
        plan.root.visit(&mut |node| {
            cache_lookup |= matches!(node.op, PlanOp::CacheLookup { .. });
        });
        Ok(ReadResult {
            output,
            report,
            scanned: scanned_relation(&plan),
            cached: cache_lookup && self.cache.is_some(),
        })
    }

    /// One write: a small batch of rows into the write relation.
    pub fn write(&mut self, batch: &[Vec<Str>], tracer: &mut Tracer) -> Result<(), String> {
        let db = &mut self.db;
        self.written += batch.len();
        tracer.span("relational.insert", || {
            batch
                .iter()
                .try_for_each(|row| db.insert(WRITE_RELATION, row.clone()))
                .map_err(|e| e.to_string())
        })
    }

    /// Drops every written row: the instance is as loaded again.
    pub fn reset_writes(&mut self) {
        self.db = self.loaded.clone();
        self.written = 0;
    }
}

/// The relation a scan plan streams, found by walking the plan tree.
fn scanned_relation(plan: &Plan) -> Option<String> {
    let mut found = None;
    plan.root.visit(&mut |node| {
        if let PlanOp::LikeScan { plan } | PlanOp::DenseScan { plan, .. } = &node.op {
            found.get_or_insert_with(|| plan.relation.clone());
        }
    });
    found
}
