//! The sweeps behind `strcalc-verify`, one per mode: the
//! translation-validation corpus ([`validation`]), `--cache-smoke`
//! ([`cache_smoke`]), `--planlint` ([`planlint`]), `--replay`
//! ([`replay`]) and `--chaos` ([`chaos`]). Each sweep runs to the end and
//! returns a report: the counts the command line prints, its rows, and
//! every problem it met. A clean report has no problems. `main.rs`
//! prints the reports and sets the exit status; the root test
//! `tests/verify_sweeps.rs` includes this file and asserts that every
//! report is clean, so `cargo test` runs each sweep.
//!
//! This module owns the one loader of the `CALC | head | formula`
//! corpora (`tests/corpus/{fig2,fragments,sentences}.queries`, compiled
//! in) and the one database they run against ([`corpus_database`]).
//! Besides recording and replaying each corpus query, the replay sweep
//! checks its routes: every query lowers over a finite domain and
//! answers there as the automaton-free oracle does, a query on the
//! relational route answers as forced automata do, and a cache hit reads
//! the same answer as an uncached run.

use std::collections::BTreeSet;
use std::sync::Arc;

use strcalc::alphabet::{Alphabet, Str};
use strcalc::analyze::{EvalClass, FactSheet, Severity};
use strcalc::core::plan::PlanChecker;
use strcalc::core::{
    collapse_domain, replay as replay_trace, AutomataEngine, AutomatonCache, Budget,
    CacheStatsSnapshot, Calculus, CoreError, DomainEvaluator, EvalOutput, ExecCx, ExecTrace,
    FaultPlan, Plan, PlanOp, Planner, Query, Strategy,
};
use strcalc::logic::{parse_formula, Formula, Rewriter};
use strcalc::relational::{Database, RaExpr};
use strcalc::verify::{
    validate_calculus_to_algebra, validate_ra_to_calculus, Scope, Validator, Verdict,
};
use strcalc::workloads::Workload;

// ---- the corpora and their database --------------------------------------

/// One corpus line: the declared calculus, the head and the formula.
struct Case {
    calculus: Calculus,
    head: Vec<String>,
    src: String,
}

/// The corpora the trace sweeps run, by name.
const CORPORA: [(&str, &str); 3] = [
    ("fig2", include_str!("../../tests/corpus/fig2.queries")),
    (
        "fragments",
        include_str!("../../tests/corpus/fragments.queries"),
    ),
    (
        "sentences",
        include_str!("../../tests/corpus/sentences.queries"),
    ),
];

/// Parses the `CALC | head | formula` lines of corpus `name` (blank
/// lines and `#` comments skipped). A malformed line is a bug in the
/// corpus, so it panics.
fn parse_corpus(name: &str, text: &str) -> Vec<Case> {
    let lines = text.lines().map(str::trim);
    lines
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let parts: Vec<&str> = line.splitn(3, '|').collect();
            let [calc_txt, head_txt, formula_txt] = parts[..] else {
                panic!("corpus `{name}`: expected `CALC | head | formula`, got `{line}`");
            };
            let calculus = match calc_txt.trim() {
                "S" => Calculus::S,
                "S_left" | "Sleft" => Calculus::SLeft,
                "S_reg" | "Sreg" => Calculus::SReg,
                "S_len" | "Slen" => Calculus::SLen,
                other => panic!("corpus `{name}`: unknown calculus `{other}`"),
            };
            let head = head_txt.split_whitespace().map(str::to_string).collect();
            let src = formula_txt.trim().to_string();
            Case {
                calculus,
                head,
                src,
            }
        })
        .collect()
}

/// Every query of the three corpora, in file order.
fn corpus() -> Vec<Case> {
    CORPORA
        .iter()
        .flat_map(|(name, text)| parse_corpus(name, text))
        .collect()
}

/// The fig. 2 matrix instance used across the benches
/// (`strcalc_bench::unary_db(24, 6, 9)`).
fn fig2_database() -> Database {
    Workload::new(Alphabet::ab(), 9).unary_db(24, 6)
}

/// The database snapshot the corpora run against: the fig. 2 unary `U`
/// instance plus the `R`/`T` fixtures the fragment corpus queries
/// mention. Fixed extensions, so every recorded fingerprint is
/// reproducible run over run.
fn corpus_database(ab: &Alphabet) -> Database {
    let mut db = fig2_database();
    db.insert_unary_parsed(ab, "R", &["", "a", "ab", "ba", "bab", "abba"])
        .expect("fresh relation");
    for (l, r) in [("a", "ab"), ("a", "a"), ("ab", "abba"), ("ba", "b")] {
        db.insert(
            "T",
            vec![
                ab.parse(l).expect("ab string"),
                ab.parse(r).expect("ab string"),
            ],
        )
        .expect("arity 2");
    }
    db
}

/// Plans one corpus query under `engine`'s planner. A concat fixture is
/// declared `S` but lives in the `RC_concat` fragment (Proposition 1):
/// `Query::parse` rejects it by design, so it takes the formula-planning
/// entry point, exactly as `replay` itself re-plans `RC_concat` traces.
fn plan_case(ab: &Alphabet, case: &Case, engine: &AutomataEngine) -> Plan {
    match Query::parse(case.calculus, ab.clone(), case.head.clone(), &case.src) {
        Ok(q) => Planner::for_engine(engine)
            .plan(&q)
            .expect("corpus query plans"),
        Err(CoreError::FragmentViolation { .. }) => {
            let f = parse_formula(ab, &case.src).expect("corpus formula parses");
            Planner::for_engine(engine)
                .plan_formula(ab, &case.head, &f)
                .expect("corpus formula plans")
        }
        Err(e) => panic!("corpus query `{}`: {e}", case.src),
    }
}

/// The fresh engines a corpus query is recorded and replayed under:
/// each with a cold cache of its own, so a trace's cache sequence is a
/// cold-start sequence any replayer reproduces — unless the query takes
/// the relational route. A cached planner keeps automata, so such a
/// query runs uncached, and the route is what its trace records.
fn corpus_engine(plan_case: &dyn Fn(&AutomataEngine) -> Plan) -> impl Fn() -> AutomataEngine {
    let relational = matches!(
        plan_case(&AutomataEngine::new()).root.op,
        PlanOp::Relational
    );
    move || {
        if relational {
            AutomataEngine::new()
        } else {
            AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()))
        }
    }
}

/// `problems`, each prefixed with the query `src` they belong to.
fn prefixed<'a>(src: &'a str, problems: &'a [String]) -> impl Iterator<Item = String> + 'a {
    problems.iter().map(move |p| format!("{src}: {p}"))
}

/// The problems of replaying `trace`, recorded on `db`, through a fresh
/// engine after a JSON round trip, each prefixed with `label`.
fn replay_problems(
    label: &str,
    trace: &ExecTrace,
    engine: &AutomataEngine,
    db: &Database,
) -> Vec<String> {
    let json = trace.to_json();
    match ExecTrace::parse(&json) {
        Ok(parsed) if parsed == *trace && parsed.to_json() == json => {
            match replay_trace(&parsed, engine, db) {
                Ok(rep) => rep
                    .diffs
                    .into_iter()
                    .map(|d| format!("{label}{d}"))
                    .collect(),
                Err(e) => vec![format!("{label}replay failed: {e}")],
            }
        }
        Ok(_) => vec![format!("{label}JSON round trip is lossy")],
        Err(e) => vec![format!("{label}recorded trace does not re-parse: {e}")],
    }
}

// ---- the translation-validation corpus -----------------------------------

/// One validated check.
pub struct Check {
    pub section: &'static str,
    pub label: String,
    pub check: String,
    pub verdict: Verdict,
}

/// The report of the translation-validation corpus.
pub struct Validation {
    pub checks: Vec<Check>,
    pub validated: usize,
    pub unknown: usize,
    pub refuted: usize,
    /// Each refuted check, with its witness.
    pub problems: Vec<String>,
}

/// Collapses the per-step verdicts of one rewrite chain into the row's
/// verdict: any refutation wins, then any `Unknown`, else `Validated`.
fn chain_verdict(validator: &Validator, db: &Database, f: &Formula) -> (String, Verdict) {
    let trace = Rewriter::standard().rewrite_traced(f);
    let steps = validator.validate_trace_on(&trace, db);
    let names: Vec<&str> = steps.iter().map(|s| s.step).collect();
    let check = format!("rewrite {}", names.join("→"));
    if let Some(r) = steps.iter().find(|s| s.verdict.is_refuted()) {
        return (
            format!("rewrite {} (step `{}`)", names.join("→"), r.step),
            r.verdict.clone(),
        );
    }
    if let Some(u) = steps
        .iter()
        .find(|s| matches!(s.verdict, Verdict::Unknown { .. }))
    {
        return (
            format!("rewrite {} (step `{}`)", names.join("→"), u.step),
            u.verdict.clone(),
        );
    }
    let v = steps
        .into_iter()
        .next()
        .map(|s| s.verdict)
        .unwrap_or(Verdict::Validated {
            scope: Scope::AllDatabases,
        });
    (check, v)
}

fn push_chain(
    checks: &mut Vec<Check>,
    validator: &Validator,
    sigma: &Alphabet,
    db: &Database,
    section: &'static str,
    src: &str,
) {
    let f = parse_formula(sigma, src).expect("corpus query parses");
    let (check, verdict) = chain_verdict(validator, db, &f);
    checks.push(Check {
        section,
        label: src.to_string(),
        check,
        verdict,
    });
}

/// Fig. 2 matrix probes: one per calculus column (RC(S), RC(S_left),
/// RC(S_reg), RC(S_len)). Shared by the validation corpus, the
/// cache-smoke pass, and the planlint corpus.
const FIG2_PROBES: [&str; 4] = [
    "exists y. (U(y) & x <= y & last(x, 'a'))",
    "exists y. (U(y) & fa(y, x, 'a'))",
    "exists y. (U(y) & pl(x, y, /(ab)*/))",
    "exists y. (U(y) & el(x, y) & last(x, 'a'))",
];

/// The `adom_calculus_to_algebra` round-trip cases (head, formula).
const ADOM_CASES: [(&[&str], &str); 4] = [
    (&["x"], "U(x)"),
    (&["x"], "U(x) & last(x, 'a')"),
    (&["x", "y"], "U(x) & U(y) & x <= y"),
    (&[], "existsA x. (U(x) & last(x, 'a'))"),
];

/// The query corpora of the other examples (quickstart, insertion
/// extension, safety analysis), over the `ab` alphabet.
const EXAMPLE_QUERIES: [&str; 10] = [
    "R(x) & last(x, 'b')",
    "exists y. (R(y) & x <= y)",
    "exists y. (R(y) & y <= x)",
    "exists y. (R(y) & x = prepend('a', y))",
    "R(x) & in(x, /(ab|ba)+/)",
    "existsA x. existsA y. (R(x) & R(y) & el(x, y) & !(x = y))",
    // insertion_extension.rs
    "exists x. exists p. (R(x) & ins(x, p, y, 'a'))",
    "exists x. (R(x) & ins(x, \"\", y, 'a'))",
    "exists x. (R(x) & fa(x, y, 'a'))",
    // safety_analysis.rs
    "exists y. (R(y) & x <= y & last(x, 'b'))",
];

/// The genome-workload queries, over the `dna` alphabet.
const GENOME_QUERIES: [&str; 4] = [
    "reads(x) & in(x, /(acg)+t*/)",
    "primers(p) & reads(r) & pl(p, r, /(c|t)(a|c|g|t)*/)",
    "exists p. (primers(p) & pl(p, x, /(a|c|g|t)(a|c|g|t)/))",
    "exists p. (primers(p) & p <= x)",
];

/// Runs the full validation corpus through the given validators and
/// returns one check per row. Deterministic: the validator's generated
/// databases are seeded, so repeated runs produce identical verdicts
/// (and identical cache keys).
fn run_corpus(v_ab: &Validator, v_dna: &Validator, ab: &Alphabet, dna: &Alphabet) -> Vec<Check> {
    let mut checks: Vec<Check> = Vec::new();

    // ---- fig. 2 matrix: one probe per calculus column ----------------
    let fig2 = fig2_database();
    for src in FIG2_PROBES {
        push_chain(&mut checks, v_ab, ab, &fig2, "fig2", src);
    }

    // ---- round trip 1: ra_to_calculus on the fig. 2 instance ---------
    for e in [
        RaExpr::rel("U"),
        RaExpr::rel("U").product(RaExpr::rel("U")),
        RaExpr::rel("U").select(Formula::last_sym(RaExpr::col(0), 0)),
        RaExpr::rel("U").diff(RaExpr::rel("U").select(Formula::last_sym(RaExpr::col(0), 1))),
        RaExpr::rel("U").prefix(0),
        RaExpr::rel("U").add_left(0, 1),
        RaExpr::rel("U").down(0),
    ] {
        let verdict = validate_ra_to_calculus(v_ab, &e, &fig2);
        checks.push(Check {
            section: "roundtrip",
            label: format!("{e}"),
            check: "ra_to_calculus".into(),
            verdict,
        });
    }

    // ---- round trip 2: adom_calculus_to_algebra on fig. 2 ------------
    for (head, src) in ADOM_CASES {
        let head: Vec<String> = head.iter().map(|h| h.to_string()).collect();
        let q = Query::parse(Calculus::SLen, ab.clone(), head, src).expect("corpus query parses");
        let verdict = validate_calculus_to_algebra(v_ab, &q, &fig2);
        checks.push(Check {
            section: "roundtrip",
            label: src.to_string(),
            check: "adom_calculus_to_algebra".into(),
            verdict,
        });
    }

    // ---- the other examples' query corpora ---------------------------
    let mut quickstart = Database::new();
    for w in ["ab", "ba", "bab", "abba"] {
        quickstart
            .insert("R", vec![ab.parse(w).expect("ab string")])
            .expect("arity 1");
    }
    for src in EXAMPLE_QUERIES {
        push_chain(&mut checks, v_ab, ab, &quickstart, "examples", src);
    }

    let mut genome = Database::new();
    for read in [
        "acgtacgt",
        "ttacgg",
        "acgacgacg",
        "gattaca",
        "acgtt",
        "cgcgcg",
    ] {
        genome
            .insert("reads", vec![dna.parse(read).expect("dna string")])
            .expect("arity 1");
    }
    for primer in ["acg", "ga"] {
        genome
            .insert("primers", vec![dna.parse(primer).expect("dna string")])
            .expect("arity 1");
    }
    for src in GENOME_QUERIES {
        push_chain(&mut checks, v_dna, dna, &genome, "genome", src);
    }

    checks
}

/// The translation-validation corpus: the standard rewrite chain over
/// the fig. 2 matrix and the other examples' queries, and both
/// `translate.rs` round trips on the fig. 2 database. A refuted check is
/// a problem; an `Unknown` one is counted but is not.
pub fn validation(ab: &Alphabet, dna: &Alphabet) -> Validation {
    let checks = run_corpus(
        &Validator::new(ab.clone()),
        &Validator::new(dna.clone()),
        ab,
        dna,
    );
    let mut report = Validation {
        validated: 0,
        unknown: 0,
        refuted: 0,
        problems: Vec::new(),
        checks: Vec::new(),
    };
    for c in &checks {
        match &c.verdict {
            Verdict::Validated { .. } => report.validated += 1,
            Verdict::Unknown { .. } => report.unknown += 1,
            Verdict::Refuted(w) => {
                report.refuted += 1;
                let sigma = if c.section == "genome" { dna } else { ab };
                report.problems.push(format!(
                    "{} `{}`: {} refuted, witness {}",
                    c.section,
                    c.label,
                    c.check,
                    w.render(sigma)
                ));
            }
        }
    }
    report.checks = checks;
    report
}

// ---- --cache-smoke -------------------------------------------------------

/// The report of the cache smoke: the shared cache after the first pass,
/// and the second pass's lookups.
pub struct CacheSmoke {
    pub first: CacheStatsSnapshot,
    pub lookups: u64,
    pub hits: u64,
    pub problems: Vec<String>,
}

impl CacheSmoke {
    /// The second pass's hit rate, 0 when it looked nothing up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Runs the corpus twice through one shared cache; the second pass must
/// be a near-total cache hit (hit rate above 90%) and reproduce the
/// first verdict for verdict. Each pass runs the validation corpus
/// through cache-backed validators *and* evaluates the fig. 2 probe
/// queries through a cache-backed engine, so both cache clients (the
/// verify gate and the evaluation pipeline) are exercised.
pub fn cache_smoke(ab: &Alphabet, dna: &Alphabet) -> CacheSmoke {
    let cache = Arc::new(AutomatonCache::new());
    let v_ab = Validator::new(ab.clone()).with_cache(Arc::clone(&cache));
    let v_dna = Validator::new(dna.clone()).with_cache(Arc::clone(&cache));
    let engine = AutomataEngine::new().with_cache(Arc::clone(&cache));
    let fig2 = fig2_database();
    let probes: Vec<Query> = [Calculus::S, Calculus::SLeft, Calculus::SReg, Calculus::SLen]
        .into_iter()
        .zip(FIG2_PROBES)
        .map(|(calc, src)| {
            Query::parse(calc, ab.clone(), vec!["x".into()], src).expect("probe query parses")
        })
        .collect();
    let run_pass = || {
        let checks = run_corpus(&v_ab, &v_dna, ab, dna);
        let outputs: Vec<EvalOutput> = probes
            .iter()
            .map(|q| engine.eval(q, &fig2).expect("probe evaluates"))
            .collect();
        (checks, outputs)
    };

    let (first, out1) = run_pass();
    let warm = cache.stats();
    let (second, out2) = run_pass();
    let after = cache.stats();

    let mut report = CacheSmoke {
        first: warm,
        hits: after.hits - warm.hits,
        lookups: after.hits + after.misses - warm.hits - warm.misses,
        problems: Vec::new(),
    };
    let agree = first.len() == second.len()
        && first
            .iter()
            .zip(&second)
            .all(|(a, b)| a.label == b.label && a.verdict.label() == b.verdict.label());
    if !agree {
        report
            .problems
            .push("cached re-run changed a corpus verdict".into());
    }
    if out1 != out2 {
        report
            .problems
            .push("cached re-run changed a probe query's output".into());
    }
    if report.lookups == 0 {
        report
            .problems
            .push("second pass performed no cache lookups".into());
    } else if report.hit_rate() <= 0.9 {
        report.problems.push(format!(
            "second-pass hit rate {:.1}% <= 90%",
            report.hit_rate() * 100.0
        ));
    }
    report
}

// ---- --planlint ----------------------------------------------------------

/// One corpus formula planned by one planner.
pub struct PlanRow {
    pub section: &'static str,
    pub src: &'static str,
    /// The planner: `plain` or `cached`.
    pub tag: &'static str,
    /// The inferred evaluation class.
    pub class: &'static str,
    /// `ok [...]`, `REJECTED ...` or `NO PLAN: ...`.
    pub verdict: String,
    /// The rendered lines of each error-level diagnostic.
    pub errors: Vec<String>,
}

/// The report of the planlint corpus.
pub struct Planlint {
    pub rows: Vec<PlanRow>,
    /// Plans that were built and checked.
    pub plans: usize,
    /// One per rejected plan and per formula that failed to plan.
    pub problems: Vec<String>,
}

/// Plans every corpus formula — through a plain planner and through one
/// with an attached automaton cache, so `CacheLookup` nodes are covered
/// — and re-verifies each plan with the plan-IR checker. A problem is an
/// error-level SA2xx diagnostic, a formula that fails to plan, or a plan
/// whose strategy disagrees with the fragment inference (where it
/// demands automata, a verified relational root also passes).
pub fn planlint(ab: &Alphabet, dna: &Alphabet) -> Planlint {
    let planners = [
        ("plain", Planner::new()),
        (
            "cached",
            Planner::for_engine(&AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()))),
        ),
    ];

    let mut cases: Vec<(&'static str, &Alphabet, &'static str)> = Vec::new();
    cases.extend(FIG2_PROBES.iter().map(|s| ("fig2", ab, *s)));
    cases.extend(ADOM_CASES.iter().map(|(_, s)| ("roundtrip", ab, *s)));
    cases.extend(EXAMPLE_QUERIES.iter().map(|s| ("examples", ab, *s)));
    cases.extend(GENOME_QUERIES.iter().map(|s| ("genome", dna, *s)));

    let mut report = Planlint {
        rows: Vec::new(),
        plans: 0,
        problems: Vec::new(),
    };
    for (section, sigma, src) in cases {
        let f = parse_formula(sigma, src).expect("corpus query parses");
        // The head is exactly the free variables (sorted; `BTreeSet`
        // iteration order), matching how the examples run these queries.
        let head: Vec<String> = f.free_vars().into_iter().collect();
        // Strategy the fragment inference demands for an unforced plan.
        let sheet = FactSheet::build(&f, &head, sigma.len() as u8);
        let expected = match &sheet.class {
            EvalClass::LikeLinear(_) => "like-linear-scan",
            // General-class scans densify only when every language
            // filter's certified state bound fits the threshold the
            // (default-configured) planner uses.
            EvalClass::LikeGeneral(plan) => {
                let bound = strcalc_analyze::planlint::dense_scan_states(plan, &sheet.langs);
                if bound <= strcalc_analyze::planlint::DENSIFY_THRESHOLD {
                    "dense-dfa-scan"
                } else {
                    "automata"
                }
            }
            EvalClass::AutomataTame => "automata",
            EvalClass::ConcatBounded => "bounded-search",
        };
        for (tag, planner) in &planners {
            let mut row = PlanRow {
                section,
                src,
                tag,
                class: sheet.class.name(),
                verdict: String::new(),
                errors: Vec::new(),
            };
            match planner.plan_formula(sigma, &head, &f) {
                Ok(plan) => {
                    report.plans += 1;
                    let lint = PlanChecker::for_plan(&plan).check(&plan.root);
                    // Where the fragment demands automata, a formula
                    // whose every variable has a generator takes the
                    // relational route instead; the checker above has
                    // verified its binding order.
                    let relational =
                        expected == "automata" && matches!(plan.root.op, PlanOp::Relational);
                    row.verdict = if lint.has_errors() {
                        format!("REJECTED {:?}", lint.error_codes())
                    } else if relational {
                        "ok [relational route; no automaton bound]".to_string()
                    } else if plan.strategy.name() != expected {
                        format!(
                            "REJECTED [fragment {} demands {expected}, plan chose {}]",
                            sheet.class.name(),
                            plan.strategy.name()
                        )
                    } else {
                        match &lint.certificate {
                            Some(c) if !c.is_zero() => format!("ok [cert {}]", c.summary()),
                            _ => "ok [interpreted; no automaton bound]".to_string(),
                        }
                    };
                    let errors = lint
                        .diagnostics
                        .iter()
                        .filter(|d| d.severity == Severity::Error);
                    for d in errors {
                        row.errors.extend(d.render().lines().map(str::to_string));
                    }
                }
                Err(e) => row.verdict = format!("NO PLAN: {e}"),
            }
            if !row.verdict.starts_with("ok") {
                report
                    .problems
                    .push(format!("{src} ({tag}): {}", row.verdict));
            }
            report.rows.push(row);
        }
    }
    report
}

// ---- --replay ------------------------------------------------------------

/// One corpus query recorded and replayed.
pub struct TraceRow {
    pub src: String,
    pub strategy: &'static str,
    pub fingerprint: u64,
    pub problems: Vec<String>,
}

/// The report of the replay corpus.
pub struct Replay {
    pub rows: Vec<TraceRow>,
    /// Queries whose starved re-run degraded and replayed.
    pub degraded: usize,
    /// Queries whose run under their root certificate degraded and
    /// replayed.
    pub narrowed: usize,
    /// Each row's problems, prefixed with its query, then the route
    /// checks' corpus-wide ones.
    pub problems: Vec<String>,
}

/// Runs a corpus case on a fresh engine under the budget `budget` picks
/// for its plan and, when the run degraded, replays its trace through
/// another fresh engine. Every problem lands in `problems`, prefixed
/// with `label`; returns whether the run degraded.
fn replay_degraded(
    label: &str,
    budget: &dyn Fn(&Plan) -> Budget,
    plan_case: &dyn Fn(&AutomataEngine) -> Plan,
    fresh_engine: &dyn Fn() -> AutomataEngine,
    db: &Database,
    problems: &mut Vec<String>,
) -> bool {
    let plan = plan_case(&fresh_engine());
    let budget = budget(&plan);
    let (out, report) = plan
        .execute_in(db, &ExecCx::production().with_budget(budget))
        .expect("governed run");
    if !report.ledger.all_within() && report.degradations.is_empty() {
        problems.push(format!(
            "{label} run was silently truncated (no SA4xx recorded)"
        ));
    }
    if report.degradations.is_empty() {
        return false;
    }
    let trace = ExecTrace::record(&plan, &budget, &report, db, &out).expect("trace records");
    let label = format!("{label} replay: ");
    problems.extend(replay_problems(&label, &trace, &fresh_engine(), db));
    true
}

/// The deterministic-trace golden corpus. Every corpus query is executed
/// under its seeded budget with a trace recorded, round-tripped through
/// JSON, and replayed from the textual trace against the same database
/// through a *fresh* engine. A problem is any node-by-node divergence
/// (plan fingerprint, cache sequence, degradation events, output
/// fingerprint), any degradation or SA240 certificate violation in the
/// clean configuration, or a starved re-run that fails to record its
/// degradations. Each plan also runs under a budget of exactly its root
/// certificate, which exhausts the plans whose certificates peak below
/// the root at an inner node; every such degraded run is replayed too.
/// Each query's routes are checked as well (see [`check_routes`]).
pub fn replay(ab: &Alphabet) -> Replay {
    let db = corpus_database(ab);
    let mut report = Replay {
        rows: Vec::new(),
        degraded: 0,
        narrowed: 0,
        problems: Vec::new(),
    };
    let mut tally = RouteTally::default();
    for case in corpus() {
        let plan_case = |engine: &AutomataEngine| plan_case(ab, &case, engine);
        let fresh_engine = corpus_engine(&plan_case);
        // Record under a fresh cache so the trace's cache sequence is a
        // cold-start sequence any replayer can reproduce.
        let recorder = fresh_engine();
        let plan = plan_case(&recorder);
        let budget = plan.seeded_budget();
        let mut problems: Vec<String> = Vec::new();

        // Clean configuration: seeded budget, no degradation allowed.
        let (out, run) = plan
            .execute_in(&db, &ExecCx::production().with_budget(budget))
            .expect("governed run");
        if !run.verdict.is_exact() {
            problems.push(format!("clean run verdict: {}", run.verdict.render()));
        }
        for d in &run.degradations {
            problems.push(format!("clean run degraded: {}", d.render()));
        }
        // The certificate is an upper bound: an actual above it (SA240)
        // means the abstract domain is miscalibrated.
        for v in &run.cert_violations {
            problems.push(format!("clean run {v}"));
        }
        let trace = ExecTrace::record(&plan, &budget, &run, &db, &out).expect("trace records");
        // Replay through a fresh engine: the whole pipeline — parse,
        // plan, govern, execute — must reproduce the trace node for node.
        problems.extend(replay_problems("", &trace, &fresh_engine(), &db));

        // Starved configuration: degradations must be recorded, and the
        // degraded trace must replay deterministically too (the SA4xx
        // sequence is part of the trace). A fresh engine and plan — the
        // clean run above warmed `recorder`'s cache, and a replay
        // reproduces a trace only from the cache state the recording
        // started from.
        let starved = |_: &Plan| Budget {
            states: 1,
            bytes: 1,
            ..Budget::unlimited()
        };
        // Narrowed configuration: a budget of exactly the root
        // certificate. It exhausts a plan at the first node, in
        // pre-order, whose certificate peaks above the root.
        let narrowed = |plan: &Plan| {
            let cert = plan.certificate().expect("planned plans are certified");
            Budget {
                states: cert.states,
                bytes: cert.bytes,
                ..plan.seeded_budget()
            }
        };
        let mut degraded = |label, budget: &dyn Fn(&Plan) -> Budget| {
            let replayed =
                replay_degraded(label, budget, &plan_case, &fresh_engine, &db, &mut problems);
            usize::from(replayed)
        };
        report.degraded += degraded("starved", &starved);
        report.narrowed += degraded("narrowed", &narrowed);

        check_routes(ab, &case, &db, &mut tally, &mut problems);

        report.problems.extend(prefixed(&case.src, &problems));
        report.rows.push(TraceRow {
            src: case.src,
            strategy: plan.strategy.name(),
            fingerprint: trace.plan_fingerprint,
            problems,
        });
    }
    for case in parse_corpus("infinite", INFINITE_QUERIES) {
        let q = Query::parse(case.calculus, ab.clone(), case.head, &case.src)
            .expect("infinite-answer query parses");
        let mut problems = Vec::new();
        check_cache_hit(&q, &db, &mut tally, &mut problems);
        report.problems.extend(prefixed(&case.src, &problems));
    }
    report.problems.extend(tally.problems(report.rows.len()));
    report
}

// ---- the route checks of the replay corpus -------------------------------

/// The slack of the collapse domains the route checks compare over.
const SLACK: usize = 2;

/// Open queries with infinite answers, beside the corpora: a cache hit
/// must read the same sample off the stored DFA as an uncached run.
const INFINITE_QUERIES: &str = "\
S     | x   | exists y. (U(y) & y <= x)
S     | x y | R(x) & x <= y
S_len | y x | R(x) & el(x, y) | last(y, 'b')";

/// What the route checks saw across the corpus.
#[derive(Default)]
struct RouteTally {
    /// Queries that lowered over a finite domain.
    lowered: usize,
    /// Queries the default planner sent down the relational route.
    relational: usize,
    /// Queries read back from a cache hit.
    cached: usize,
    /// Of those, the ones with an infinite answer.
    infinite: usize,
}

impl RouteTally {
    /// The corpus-wide problems of a sweep over `cases` corpus queries:
    /// each must have lowered, at least seven (the four fig. 2 probes,
    /// the prefix join and two sentences) take the relational route, all
    /// but the concat fixtures compile, and the three infinite samples
    /// are compared.
    fn problems(&self, cases: usize) -> Vec<String> {
        let (lowered, relational) = (self.lowered, self.relational);
        let (cached, infinite) = (self.cached, self.infinite);
        [
            (
                lowered == cases,
                format!("{lowered} of {cases} queries lowered"),
            ),
            (
                relational >= 7,
                format!("{relational} took the relational route"),
            ),
            (cached >= 24, format!("{cached} were read from a cache hit")),
            (
                infinite == 3,
                format!("{infinite} infinite answers compared"),
            ),
        ]
        .into_iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| format!("routes: only {what}"))
        .collect()
    }
}

/// Checks one corpus query's routes on `db`. A concat fixture plans as
/// bounded search with every head variable bound by a `Generate` leaf.
/// Any other query lowers over its collapse domain: the forced collapse
/// plan, and the degraded answers of a forced automata plan starved of
/// states (SA401) and denied its compile (SA413), all equal the oracle
/// — the naive [`DomainEvaluator`] over the same domain (Proposition 2,
/// Theorem 2). When the default planner takes the relational route, its
/// answer is exact and equals forced automata's. Finally a cache hit
/// reads what an uncached run does ([`check_cache_hit`]).
fn check_routes(
    ab: &Alphabet,
    case: &Case,
    db: &Database,
    tally: &mut RouteTally,
    problems: &mut Vec<String>,
) {
    let q = match Query::parse(case.calculus, ab.clone(), case.head.clone(), &case.src) {
        Ok(q) => q,
        Err(_) => {
            let f = parse_formula(ab, &case.src).expect("corpus formula parses");
            let plan = Planner::new()
                .plan_formula(ab, &case.head, &f)
                .expect("concat fixture plans");
            let mut generated = BTreeSet::new();
            plan.root.visit(&mut |n| {
                if let PlanOp::Generate { var, .. } = &n.op {
                    generated.insert(var.clone());
                }
            });
            if !matches!(plan.root.op, PlanOp::BoundedSearch { .. }) {
                problems.push(format!(
                    "routes: a concat fixture planned {:?}",
                    plan.strategy
                ));
            }
            for v in case.head.iter().filter(|v| !generated.contains(*v)) {
                problems.push(format!("routes: no Generate leaf binds `{v}`"));
            }
            tally.lowered += 1;
            return;
        }
    };

    let domain = collapse_domain(&q, db, Some(SLACK));
    let oracle = DomainEvaluator::new(q.alphabet(), db, domain)
        .answer(q.formula(), q.head())
        .map(EvalOutput::Finite)
        .expect("the oracle answers");
    let planner = Planner::new().with_slack(SLACK);
    let collapse = planner.clone().force(Strategy::ActiveDomainEnum).plan(&q);
    let automata = planner.force(Strategy::Automata).plan(&q);
    let (collapse, automata) = (
        collapse.expect("collapse plans"),
        automata.expect("automata plans"),
    );
    let starved = ExecCx::production().with_budget(Budget {
        states: 1,
        ..Budget::unlimited()
    });
    let aborted = ExecCx::production().with_faults(FaultPlan {
        abort_compile: true,
        ..FaultPlan::none()
    });
    let runs = [
        ("forced collapse", &collapse, ExecCx::production(), true),
        ("SA401 fallback", &automata, starved, false),
        ("SA413 fallback", &automata, aborted, false),
    ];
    for (what, plan, cx, exact) in runs {
        let (out, run) = plan.execute_in(db, &cx).expect("lowered run");
        if out != oracle {
            problems.push(format!("routes: {what} disagrees with the oracle"));
        }
        if run.verdict.is_exact() != exact {
            problems.push(format!("routes: {what} verdict {}", run.verdict.render()));
        }
    }
    tally.lowered += 1;

    let default = Planner::new().plan(&q).expect("corpus query plans");
    if matches!(default.root.op, PlanOp::Relational) {
        tally.relational += 1;
        let (routed, run) = default.execute(db).expect("relational run");
        let (expected, _) = automata.execute(db).expect("automata run");
        if !run.verdict.is_exact() {
            problems.push(format!(
                "routes: relational verdict {}",
                run.verdict.render()
            ));
        }
        if routed != expected {
            problems.push("routes: the relational route disagrees with forced automata".into());
        }
    }
    check_cache_hit(&q, db, tally, problems);
}

/// A cache hit reads the same answer off the stored DFA as an uncached
/// run, infinite samples included, and agrees with it on `count`, and
/// on `eval_bool` for a sentence or on `contains` for a few tuples of an
/// open query. The first read compiles once; every later read hits.
fn check_cache_hit(q: &Query, db: &Database, tally: &mut RouteTally, problems: &mut Vec<String>) {
    let plain = AutomataEngine::new();
    let cache = Arc::new(AutomatonCache::new());
    let cached = AutomataEngine::new().with_cache(Arc::clone(&cache));
    cached.eval(q, db).expect("cold eval");
    let expected = plain.eval(q, db).expect("uncached eval");
    let mut agree = cached.eval(q, db).expect("cache hit") == expected
        && cached.count(q, db).expect("cached count") == plain.count(q, db).expect("count");
    if q.is_boolean() {
        agree &= cached.eval_bool(q, db).expect("cached eval_bool")
            == plain.eval_bool(q, db).expect("eval_bool");
    } else {
        let probes: Vec<Str> = q.alphabet().strings_up_to(2).collect();
        let mut tuple = vec![probes[0].clone(); q.arity()];
        for (i, probe) in probes.iter().enumerate() {
            tuple[i % q.arity()] = probe.clone();
            agree &= cached.contains(q, db, &tuple).expect("cached contains")
                == plain.contains(q, db, &tuple).expect("contains");
        }
    }
    if !agree {
        problems.push("routes: a cache hit reads another answer than an uncached run".into());
    }
    let stats = cache.stats();
    if stats.misses != 1 || stats.hits < 2 {
        problems.push(format!(
            "routes: cache {} misses and {} hits, not one compile and hits after it",
            stats.misses, stats.hits
        ));
    }
    tally.cached += 1;
    tally.infinite += usize::from(matches!(expected, EvalOutput::Infinite { .. }));
}

// ---- --chaos -------------------------------------------------------------

/// The fault seeds every corpus query runs under.
pub const SEEDS: std::ops::Range<u64> = 1..9;

/// The fault kinds a seed can arm, in [`Chaos::kinds`] order.
pub const FAULT_KINDS: [&str; 3] = ["deadline", "fail-cache-insert", "abort-compile"];

/// One corpus query under every seed.
pub struct ChaosRow {
    pub src: String,
    pub strategy: &'static str,
    pub problems: Vec<String>,
}

/// One batch-scale query under deadlines at checkpoints 1 to 3.
pub struct BatchRow {
    pub src: String,
    pub strategy: &'static str,
    /// Per run: the checkpoint armed and the SA41x degradation's code and
    /// detail, e.g. `SA411 deadline fired at checkpoint 2: scanned 4096
    /// rows`.
    pub truncations: Vec<(u64, String)>,
    pub problems: Vec<String>,
}

/// The report of the chaos corpus.
pub struct Chaos {
    pub rows: Vec<ChaosRow>,
    pub runs: usize,
    /// Runs in which the armed fault had an observable effect.
    pub fired: usize,
    /// Per fault kind in [`FAULT_KINDS`] order: runs armed with it, and
    /// runs where it had an observable effect.
    pub kinds: [(usize, usize); 3],
    /// Per seed in [`SEEDS`]: queries where its plan had an effect.
    pub seed_effects: Vec<usize>,
    pub batch: Vec<BatchRow>,
    /// Rows in the batch-scale relation.
    pub batch_rows: usize,
    /// Batch runs cut by a deadline after real work: at checkpoint 2 or
    /// later, with a nonzero watermark, and replayed bit for bit.
    pub after_work: usize,
    pub problems: Vec<String>,
}

/// The deterministic fault-injection corpus. Every corpus query runs
/// once per fault seed under an injected [`FaultPlan`] — deadline fires
/// at the first checkpoint, cache-insert failures, compile aborts —
/// through the replay execution context (frozen virtual clock). A fired
/// fault must surface as a typed SA4xx degradation (never a silent
/// partial answer), the recorded trace must replay bit for bit through a
/// fresh engine, injected degradation sequence included, and every fault
/// kind and every seed's plan must have an observable effect somewhere
/// in the corpus. A corpus run never reaches a second checkpoint, so the
/// batch-scale queries ([`chaos_batch`]) cut runs after real work.
pub fn chaos(ab: &Alphabet) -> Chaos {
    let db = corpus_database(ab);
    let mut report = Chaos {
        rows: Vec::new(),
        runs: 0,
        fired: 0,
        kinds: [(0, 0); 3],
        seed_effects: vec![0; SEEDS.count()],
        batch: Vec::new(),
        batch_rows: 0,
        after_work: 0,
        problems: Vec::new(),
    };
    for case in corpus() {
        let plan_case = |engine: &AutomataEngine| plan_case(ab, &case, engine);
        let fresh_engine = corpus_engine(&plan_case);
        let mut problems: Vec<String> = Vec::new();
        let mut strategy = "";
        for seed in SEEDS {
            let faults = FaultPlan::from_seed(seed);
            report.runs += 1;
            let kind = if faults.deadline_at_checkpoint.is_some() {
                0
            } else if faults.fail_cache_insert {
                1
            } else {
                2
            };
            report.kinds[kind].0 += 1;
            // Record under a fresh engine + cache per run so the cache
            // sequence (including injected insert failures) is a
            // cold-start sequence the replayer reproduces.
            let recorder = fresh_engine();
            let plan = plan_case(&recorder);
            strategy = plan.strategy.name();
            let budget = Budget::unlimited();
            let cx = ExecCx::replay(faults).with_budget(budget);
            let (out, run) = plan
                .execute_in(&db, &cx)
                .expect("chaos run answers under the degrade policy");
            let trace = ExecTrace::record(&plan, &budget, &run, &db, &out).expect("trace records");

            // A deadline that fired is never a quiet partial answer.
            let effect =
                run.faults.deadline_at_checkpoint.is_some() || !run.degradations.is_empty();
            if effect {
                report.fired += 1;
                report.kinds[kind].1 += 1;
                report.seed_effects[(seed - SEEDS.start) as usize] += 1;
            }
            if run.faults.deadline_at_checkpoint.is_some() {
                if run.verdict.is_exact() {
                    problems.push(format!("seed {seed}: deadline fired but verdict is exact"));
                }
                if !run
                    .degradations
                    .iter()
                    .any(|d| matches!(d.code.as_str(), "SA411" | "SA412" | "SA413"))
                {
                    problems.push(format!(
                        "seed {seed}: deadline fired without an SA41x degradation"
                    ));
                }
            }

            // The chaos gate: the trace (injected degradations and all)
            // replays bit for bit through a fresh engine.
            let label = format!("seed {seed}: ");
            problems.extend(replay_problems(&label, &trace, &fresh_engine(), &db));
        }
        report.problems.extend(prefixed(&case.src, &problems));
        report.rows.push(ChaosRow {
            src: case.src,
            strategy,
            problems,
        });
    }
    for (name, (_, effects)) in FAULT_KINDS.iter().zip(report.kinds) {
        if effects == 0 {
            report
                .problems
                .push(format!("no `{name}` fault had any observable effect"));
        }
    }
    for (seed, effects) in SEEDS.zip(&report.seed_effects) {
        if *effects == 0 {
            let plan = FaultPlan::from_seed(seed).summary();
            report.problems.push(format!(
                "seed {seed} ({plan}) had no observable effect on any query"
            ));
        }
    }
    chaos_batch(ab, &mut report);
    report
}

/// Rows per scan batch, and bindings per program checkpoint, in the
/// executors: a deadline armed at checkpoint `n` cuts a run after
/// `CHECKPOINT_EVERY × (n − 1)` of them.
const CHECKPOINT_EVERY: u64 = 4096;

/// The batch-scale chaos queries over [`batch_database`]'s `U`: a dense
/// scan (SA411 after whole scan batches), a relational program (SA411
/// after generated bindings) and a bounded search (SA412 mid-search).
const BATCH_QUERIES: &str = "\
S_reg | x     | U(x) & in(x, /b.*a.*/)
S     | x     | exists y. (U(y) & x <= y)
S     | u w x | U(w) & concat(x, u, w)";

/// A unary `U` of more than two scan batches of distinct words (length
/// below 32 over `{a, b}`) from a fixed xorshift stream.
fn batch_database() -> Database {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut db = Database::new();
    for _ in 0..3 * CHECKPOINT_EVERY {
        let len = next() % 32;
        let word = Str::from_syms((0..len).map(|_| (next() % 2) as u8).collect());
        db.insert("U", vec![word]).expect("arity 1");
    }
    db
}

/// The work-seen watermark of a deadline degradation's detail: the `k`
/// of `deadline fired at checkpoint n: scanned k rows` (or `generated k
/// bindings`).
fn watermark(detail: &str) -> Option<u64> {
    let (_, what) = detail.split_once(": ")?;
    what.split_whitespace().nth(1)?.parse().ok()
}

/// Runs each batch-scale query with its deadline armed at checkpoints
/// 1, 2 and 3 (explicit fault plans; the seeded ones fire at the first
/// checkpoint). Each run must be cut by exactly one SA411 (SA412 for
/// the bounded search) at the armed checkpoint, with a watermark of
/// `CHECKPOINT_EVERY × (n − 1)` rows or bindings, under a verdict that
/// is not exact, and must replay bit for bit. At least one SA411 after
/// real work is required.
fn chaos_batch(ab: &Alphabet, report: &mut Chaos) {
    let db = batch_database();
    report.batch_rows = db.relation("U").map_or(0, |r| r.len());
    if report.batch_rows <= 2 * CHECKPOINT_EVERY as usize {
        report.problems.push(format!(
            "batch scale: only {} distinct rows",
            report.batch_rows
        ));
    }
    let mut sa411_after_work = false;
    for case in parse_corpus("batch", BATCH_QUERIES) {
        let plan_case = |engine: &AutomataEngine| plan_case(ab, &case, engine);
        let fresh_engine = corpus_engine(&plan_case);
        let mut row = BatchRow {
            src: case.src.clone(),
            strategy: "",
            truncations: Vec::new(),
            problems: Vec::new(),
        };
        for n in 1..=3u64 {
            let plan = plan_case(&fresh_engine());
            row.strategy = plan.strategy.name();
            let code = match plan.strategy {
                Strategy::BoundedSearch => "SA412",
                _ => "SA411",
            };
            let faults = FaultPlan {
                deadline_at_checkpoint: Some(n),
                ..FaultPlan::none()
            };
            let budget = Budget::unlimited();
            let cx = ExecCx::replay(faults).with_budget(budget);
            let (out, run) = plan.execute_in(&db, &cx).expect("batch run answers");
            let cuts: Vec<_> = run
                .degradations
                .iter()
                .filter(|d| d.code.as_str().starts_with("SA41"))
                .collect();
            let want = CHECKPOINT_EVERY * (n - 1);
            let mut problems = Vec::new();
            match cuts[..] {
                [d] if d.code.as_str() == code
                    && d.detail
                        .starts_with(&format!("deadline fired at checkpoint {n}: "))
                    && watermark(&d.detail) == Some(want) =>
                {
                    row.truncations.push((n, format!("{code} {}", d.detail)));
                }
                _ => problems.push(format!(
                    "checkpoint {n}: expected one {code} with watermark {want}, got {:?}",
                    cuts.iter()
                        .map(|d| format!("{} {}", d.code.as_str(), d.detail))
                        .collect::<Vec<_>>()
                )),
            }
            if run.verdict.is_exact() {
                problems.push(format!(
                    "checkpoint {n}: a cut run reported an exact verdict"
                ));
            }
            let trace = ExecTrace::record(&plan, &budget, &run, &db, &out).expect("trace records");
            let label = format!("checkpoint {n}: ");
            problems.extend(replay_problems(&label, &trace, &fresh_engine(), &db));
            if problems.is_empty() && n >= 2 {
                report.after_work += 1;
                sa411_after_work |= code == "SA411";
            }
            row.problems.extend(problems);
        }
        report.problems.extend(prefixed(&row.src, &row.problems));
        report.batch.push(row);
    }
    if !sa411_after_work {
        report
            .problems
            .push("batch scale: no SA411 after real work replayed bit for bit".into());
    }
}
