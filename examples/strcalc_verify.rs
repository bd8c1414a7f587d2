//! `strcalc-verify` — the translation-validation corpus runner.
//!
//! Certifies the standard rewrite chain (`nnf → lower_terms → simplify`)
//! over the fig. 2 calculus matrix and the queries exercised by the
//! other examples, and validates both `translate.rs` round trips
//! (`ra_to_calculus`, `adom_calculus_to_algebra`) on the fig. 2
//! database. Prints a verdict table and exits non-zero if anything is
//! `Refuted` — CI runs this as the `verify-corpus` job.
//!
//! ```text
//! cargo run --release --example strcalc-verify
//! ```
//!
//! With `--cache-smoke`, the corpus runs **twice** through validators
//! sharing one [`AutomatonCache`]; the run fails unless the second pass
//! is served almost entirely from the cache (hit rate > 90%) and both
//! passes agree verdict-for-verdict — CI runs this as the `cache-smoke`
//! job.
//!
//! With `--planlint`, every corpus formula is instead planned (with and
//! without an attached automaton cache) and re-verified by the plan-IR
//! checker; the run prints each plan's resource certificate and fails on
//! any error-level SA2xx diagnostic — CI runs this as the
//! `planlint-corpus` job.
//!
//! With `--replay`, every query in the golden corpora
//! (`tests/corpus/fig2.queries` + `tests/corpus/fragments.queries`,
//! plus the Boolean queries of `tests/corpus/sentences.queries`) is
//! executed under its seeded budget with an execution trace recorded,
//! round-tripped through JSON, and replayed from the textual trace
//! against the same database snapshot through a *fresh* engine; the run
//! fails on any node-by-node divergence (plan fingerprint, cache
//! sequence, degradation events, output fingerprint), on any
//! degradation or SA240 certificate violation in the clean
//! configuration, or on a starved re-run that fails to record its
//! degradations. Each plan also runs under a budget of exactly its root
//! certificate, which exhausts the plans whose certificates peak below
//! the root at an inner node; every such degraded run is replayed too —
//! CI runs this as the `replay-corpus` job.
//!
//! With `--chaos`, every query of the same three corpora runs once per
//! fault seed under a deterministic injected fault plan (deadline fire
//! at the first checkpoint, cache-insert failure, compile abort); the run
//! fails if a fired fault is not surfaced as a typed SA4xx degradation,
//! if the recorded trace does not replay bit-for-bit, or if some fault
//! kind or some seed's plan has no observable effect on any query — CI
//! runs this as the `chaos-corpus` job.

use std::process::ExitCode;
use std::sync::Arc;

use strcalc::alphabet::Alphabet;
use strcalc::analyze::{EvalClass, FactSheet};
use strcalc::core::plan::PlanChecker;
use strcalc::core::{
    replay, AutomataEngine, AutomatonCache, Budget, Calculus, EvalOutput, ExecCx, ExecTrace,
    FaultPlan, Plan, PlanOp, Planner, Query,
};
use strcalc::logic::{parse_formula, Formula, Rewriter};
use strcalc::relational::{Database, RaExpr};
use strcalc::verify::{validate_calculus_to_algebra, validate_ra_to_calculus, Validator, Verdict};
use strcalc::workloads::Workload;

struct Row {
    section: &'static str,
    label: String,
    check: String,
    verdict: Verdict,
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
            scope: strcalc::verify::Scope::AllDatabases,
        });
    (check, v)
}

fn push_chain(
    rows: &mut Vec<Row>,
    validator: &Validator,
    sigma: &Alphabet,
    db: &Database,
    section: &'static str,
    src: &str,
) {
    let f = parse_formula(sigma, src).expect("corpus query parses");
    let (check, verdict) = chain_verdict(validator, db, &f);
    rows.push(Row {
        section,
        label: src.to_string(),
        check,
        verdict,
    });
}

fn fig2_database() -> Database {
    // Mirrors `strcalc_bench::unary_db(24, 6, 9)` — the fig. 2 matrix
    // instance used across the benches.
    Workload::new(Alphabet::ab(), 9).unary_db(24, 6)
}

/// Fig. 2 matrix probes: one per calculus column (RC(S), RC(S_left),
/// RC(S_reg), RC(S_len)). Shared by the verify corpus, the cache-smoke
/// pass, and the planlint corpus.
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
/// returns one row per check. Deterministic: the validator's generated
/// databases are seeded, so repeated runs produce identical verdicts
/// (and identical cache keys).
fn run_corpus(v_ab: &Validator, v_dna: &Validator, ab: &Alphabet, dna: &Alphabet) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();

    // ---- fig. 2 matrix: one probe per calculus column ----------------
    let fig2 = fig2_database();
    for src in FIG2_PROBES {
        push_chain(&mut rows, v_ab, ab, &fig2, "fig2", src);
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
        rows.push(Row {
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
        rows.push(Row {
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
        push_chain(&mut rows, v_ab, ab, &quickstart, "examples", src);
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
        push_chain(&mut rows, v_dna, dna, &genome, "genome", src);
    }

    rows
}

/// Prints the verdict table and returns the number of refuted checks.
fn report(rows: &[Row], ab: &Alphabet, dna: &Alphabet) -> usize {
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(0)
        .min(58);
    let check_w = rows.iter().map(|r| r.check.len()).max().unwrap_or(0);
    let mut refuted = 0usize;
    let mut unknown = 0usize;
    let mut validated = 0usize;
    let mut section = "";
    for row in rows {
        if row.section != section {
            section = row.section;
            println!("== {section} ==");
        }
        let sigma = if row.section == "genome" { dna } else { ab };
        let mut label = row.label.clone();
        if label.len() > label_w {
            label.truncate(label_w - 1);
            label.push('…');
        }
        println!(
            "  {label:<label_w$}  {:<check_w$}  {}",
            row.check,
            row.verdict.label()
        );
        match &row.verdict {
            Verdict::Refuted(w) => {
                refuted += 1;
                println!("  {:>label_w$}  witness: {}", "↳", w.render(sigma));
            }
            Verdict::Unknown { reason, checks } => {
                unknown += 1;
                println!("  {:>label_w$}  after {checks} checks: {reason}", "↳");
            }
            Verdict::Validated { .. } => validated += 1,
        }
    }
    println!(
        "\n{} checks: {validated} validated, {unknown} unknown, {refuted} refuted",
        rows.len()
    );
    refuted
}

/// `--cache-smoke`: run the corpus twice through one shared cache and
/// fail unless the second pass is a near-total cache hit. Each pass runs
/// the validation corpus through cache-backed validators *and* evaluates
/// the fig. 2 probe queries through a cache-backed engine, so both cache
/// clients (the verify gate and the evaluation pipeline) are exercised.
fn cache_smoke(ab: &Alphabet, dna: &Alphabet) -> ExitCode {
    let cache = Arc::new(AutomatonCache::new());
    let v_ab = Validator::new(ab.clone()).with_cache(Arc::clone(&cache));
    let v_dna = Validator::new(dna.clone()).with_cache(Arc::clone(&cache));
    let engine = AutomataEngine::new().with_cache(Arc::clone(&cache));
    let fig2 = fig2_database();
    let probes: Vec<Query> = [
        (Calculus::S, "exists y. (U(y) & x <= y & last(x, 'a'))"),
        (Calculus::SLeft, "exists y. (U(y) & fa(y, x, 'a'))"),
        (Calculus::SReg, "exists y. (U(y) & pl(x, y, /(ab)*/))"),
        (Calculus::SLen, "exists y. (U(y) & el(x, y) & last(x, 'a'))"),
    ]
    .into_iter()
    .map(|(calc, src)| {
        Query::parse(calc, ab.clone(), vec!["x".into()], src).expect("probe query parses")
    })
    .collect();
    let run_pass = || {
        let rows = run_corpus(&v_ab, &v_dna, ab, dna);
        let outputs: Vec<EvalOutput> = probes
            .iter()
            .map(|q| engine.eval(q, &fig2).expect("probe evaluates"))
            .collect();
        (rows, outputs)
    };

    let (first, out1) = run_pass();
    let warm = cache.stats();
    let (second, out2) = run_pass();
    let after = cache.stats();

    let hits = after.hits - warm.hits;
    let misses = after.misses - warm.misses;
    let lookups = hits + misses;
    let rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    println!(
        "cache smoke: pass 1 — {} lookups, {} compiles, {} entries ({} bytes)",
        warm.hits + warm.misses,
        warm.misses,
        warm.entries,
        warm.bytes,
    );
    println!(
        "cache smoke: pass 2 — {lookups} lookups, {hits} hits ({:.1}% hit rate)",
        rate * 100.0
    );

    let agree = first.len() == second.len()
        && first
            .iter()
            .zip(&second)
            .all(|(a, b)| a.label == b.label && a.verdict.label() == b.verdict.label());
    if !agree {
        eprintln!("cache smoke FAILED: cached re-run changed a corpus verdict");
        return ExitCode::FAILURE;
    }
    if out1 != out2 {
        eprintln!("cache smoke FAILED: cached re-run changed a probe query's output");
        return ExitCode::FAILURE;
    }
    if lookups == 0 {
        eprintln!("cache smoke FAILED: second pass performed no cache lookups");
        return ExitCode::FAILURE;
    }
    if rate <= 0.9 {
        eprintln!(
            "cache smoke FAILED: second-pass hit rate {:.1}% <= 90%",
            rate * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("cache smoke OK: verdicts identical, second pass served from cache");
    ExitCode::SUCCESS
}

/// `--planlint`: plan every corpus formula — through a plain planner and
/// through one with an attached automaton cache, so `CacheLookup` nodes
/// are covered — and re-verify each plan with the plan-IR checker.
/// Prints one row per plan with its inferred fragment class, chosen
/// strategy, and resource certificate; fails on any error-level SA2xx
/// diagnostic, on a formula that unexpectedly fails to plan, or on a
/// plan whose strategy disagrees with the fragment inference (where it
/// demands automata, a verified relational root also passes) — CI runs
/// this as the `planlint-corpus` job.
fn planlint_corpus(ab: &Alphabet, dna: &Alphabet) -> ExitCode {
    let planners = [
        ("plain", Planner::new()),
        (
            "cached",
            Planner::for_engine(&AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()))),
        ),
    ];

    let mut cases: Vec<(&str, &Alphabet, &str)> = Vec::new();
    cases.extend(FIG2_PROBES.iter().map(|s| ("fig2", ab, *s)));
    cases.extend(ADOM_CASES.iter().map(|(_, s)| ("roundtrip", ab, *s)));
    cases.extend(EXAMPLE_QUERIES.iter().map(|s| ("examples", ab, *s)));
    cases.extend(GENOME_QUERIES.iter().map(|s| ("genome", dna, *s)));

    let label_w = cases.iter().map(|(_, _, s)| s.len()).max().unwrap_or(0);
    let mut plans = 0usize;
    let mut failures = 0usize;
    let mut section = "";
    for (sec, sigma, src) in &cases {
        if *sec != section {
            section = sec;
            println!("== {section} ==");
        }
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
            match planner.plan_formula(sigma, &head, &f) {
                Ok(plan) => {
                    plans += 1;
                    let report = PlanChecker::for_plan(&plan).check(&plan.root);
                    // Where the fragment demands automata, a formula
                    // whose every variable has a generator takes the
                    // relational route instead; the checker above has
                    // verified its binding order.
                    let relational =
                        expected == "automata" && matches!(plan.root.op, PlanOp::Relational);
                    let verdict = if report.has_errors() {
                        failures += 1;
                        format!("REJECTED {:?}", report.error_codes())
                    } else if relational {
                        "ok [relational route; no automaton bound]".to_string()
                    } else if plan.strategy.name() != expected {
                        failures += 1;
                        format!(
                            "REJECTED [fragment {} demands {expected}, plan chose {}]",
                            sheet.class.name(),
                            plan.strategy.name()
                        )
                    } else {
                        match &report.certificate {
                            Some(c) if !c.is_zero() => format!("ok [cert {}]", c.summary()),
                            _ => "ok [interpreted; no automaton bound]".to_string(),
                        }
                    };
                    println!(
                        "  {src:<label_w$}  {tag:<6}  {:<16}  {verdict}",
                        sheet.class.name()
                    );
                    let errors = report
                        .diagnostics
                        .iter()
                        .filter(|d| d.severity == strcalc::analyze::Severity::Error);
                    for d in errors {
                        for line in d.render().lines() {
                            println!("  {line}");
                        }
                    }
                }
                Err(e) => {
                    failures += 1;
                    println!(
                        "  {src:<label_w$}  {tag:<6}  {:<16}  NO PLAN: {e}",
                        sheet.class.name()
                    );
                }
            }
        }
    }
    println!("\n{plans} plans verified, {failures} failure(s)");
    if failures > 0 {
        eprintln!("planlint REJECTED {failures} corpus plan(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses a `CALC | head | formula` corpus file (blank lines and `#`
/// comments skipped) into `(calculus, head, formula)` triples.
fn load_corpus(path: &str) -> Vec<(Calculus, Vec<String>, String)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("replay corpus `{path}`: {e}"));
    let mut cases = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(3, '|').collect();
        let [calc_txt, head_txt, formula_txt] = parts[..] else {
            panic!("replay corpus `{path}`: expected `CALC | head | formula`, got `{line}`");
        };
        let calculus = match calc_txt.trim() {
            "S" => Calculus::S,
            "S_left" | "Sleft" => Calculus::SLeft,
            "S_reg" | "Sreg" => Calculus::SReg,
            "S_len" | "Slen" => Calculus::SLen,
            other => panic!("replay corpus `{path}`: unknown calculus `{other}`"),
        };
        let head: Vec<String> = head_txt.split_whitespace().map(str::to_string).collect();
        cases.push((calculus, head, formula_txt.trim().to_string()));
    }
    cases
}

/// The database snapshot the replay corpus runs against: the fig. 2
/// unary `U` instance plus the `R`/`T` fixtures the fragment corpus
/// queries mention. Fixed extensions so every recorded fingerprint is
/// reproducible run-over-run.
fn replay_database(ab: &Alphabet) -> Database {
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

/// Plans one corpus query under `engine`'s planner. The concat-bounded
/// fixture is declared `S` but lives in the `RC_concat` fragment
/// (Proposition 1) — `Query::parse` rejects it by design, so it takes
/// the formula-planning entry point, exactly as `replay` itself
/// re-plans `RC_concat` traces.
fn plan_corpus_case(
    ab: &Alphabet,
    calculus: Calculus,
    head: &[String],
    src: &str,
    engine: &AutomataEngine,
) -> Plan {
    match Query::parse(calculus, ab.clone(), head.to_vec(), src) {
        Ok(q) => Planner::for_engine(engine)
            .plan(&q)
            .expect("corpus query plans"),
        Err(strcalc::core::CoreError::FragmentViolation { .. }) => {
            let f = parse_formula(ab, src).expect("corpus formula parses");
            Planner::for_engine(engine)
                .plan_formula(ab, head, &f)
                .expect("corpus formula plans")
        }
        Err(e) => panic!("corpus query `{src}`: {e}"),
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
    match replay(&trace, &fresh_engine(), db) {
        Ok(rep) => problems.extend(
            rep.diffs
                .into_iter()
                .map(|d| format!("{label} replay: {d}")),
        ),
        Err(e) => problems.push(format!("{label} replay failed: {e}")),
    }
    true
}

/// `--replay`: the deterministic-trace golden corpus. Every corpus
/// query is recorded, JSON-round-tripped, and replayed through a fresh
/// engine; see the module docs for the exact gate.
fn replay_corpus(ab: &Alphabet) -> ExitCode {
    let db = replay_database(ab);
    let mut cases = Vec::new();
    for path in [
        "tests/corpus/fig2.queries",
        "tests/corpus/fragments.queries",
        "tests/corpus/sentences.queries",
    ] {
        cases.extend(load_corpus(path));
    }

    let label_w = cases.iter().map(|(_, _, f)| f.len()).max().unwrap_or(0);
    let mut failures = 0usize;
    let mut degraded_replays = 0usize;
    let mut narrowed_replays = 0usize;
    for (calculus, head, src) in &cases {
        let plan_case =
            |engine: &AutomataEngine| plan_corpus_case(ab, *calculus, head, src, engine);
        let fresh_engine = corpus_engine(&plan_case);
        // Record under a fresh cache so the trace's cache sequence is a
        // cold-start sequence any replayer can reproduce.
        let recorder = fresh_engine();
        let plan = plan_case(&recorder);
        let budget = plan.seeded_budget();
        let mut problems: Vec<String> = Vec::new();

        // Clean configuration: seeded budget, no degradation allowed.
        let (out, report) = plan
            .execute_in(&db, &ExecCx::production().with_budget(budget))
            .expect("governed run");
        if !report.verdict.is_exact() {
            problems.push(format!("clean run verdict: {}", report.verdict.render()));
        }
        for d in &report.degradations {
            problems.push(format!("clean run degraded: {}", d.render()));
        }
        // The certificate is an upper bound: an actual above it (SA240)
        // means the abstract domain is miscalibrated.
        for v in &report.cert_violations {
            problems.push(format!("clean run {v}"));
        }
        let trace = ExecTrace::record(&plan, &budget, &report, &db, &out).expect("trace records");

        // The JSON round trip is lossless.
        let json = trace.to_json();
        match ExecTrace::parse(&json) {
            Ok(parsed) if parsed.to_json() == json => {
                // Replay through a fresh engine: the whole pipeline —
                // parse, plan, govern, execute — must reproduce the
                // trace node for node.
                match replay(&parsed, &fresh_engine(), &db) {
                    Ok(rep) => problems.extend(rep.diffs),
                    Err(e) => problems.push(format!("replay failed: {e}")),
                }
            }
            Ok(_) => problems.push("JSON round trip is not a fixed point".into()),
            Err(e) => problems.push(format!("recorded trace does not re-parse: {e}")),
        }

        // Starved configuration: degradations must be recorded, and the
        // degraded trace must replay deterministically too (the SA4xx
        // sequence is part of the trace). A fresh engine and plan —
        // the clean run above warmed `recorder`'s cache, and a replay
        // reproduces a trace only from the cache state the recording
        // started from.
        let starved = |_: &Plan| Budget {
            states: 1,
            bytes: 1,
            ..Budget::unlimited()
        };
        if replay_degraded(
            "starved",
            &starved,
            &plan_case,
            &fresh_engine,
            &db,
            &mut problems,
        ) {
            degraded_replays += 1;
        }

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
        if replay_degraded(
            "narrowed",
            &narrowed,
            &plan_case,
            &fresh_engine,
            &db,
            &mut problems,
        ) {
            narrowed_replays += 1;
        }

        let verdict = if problems.is_empty() {
            "ok"
        } else {
            "DIVERGED"
        };
        println!(
            "  {src:<label_w$}  {:<16}  {verdict} [fp {:016x}]",
            plan.strategy.name(),
            trace.plan_fingerprint,
        );
        for p in &problems {
            println!("    ↳ {p}");
        }
        if !problems.is_empty() {
            failures += 1;
        }
    }
    println!(
        "\n{narrowed_replays} of {} runs under their root certificate degraded and replayed",
        cases.len()
    );
    println!(
        "{} corpus traces replayed ({degraded_replays} degraded-mode), {failures} divergence(s)",
        cases.len()
    );
    if failures > 0 {
        eprintln!("replay corpus DIVERGED on {failures} trace(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--chaos`: the deterministic fault-injection corpus. Every golden
/// corpus query runs once per fault seed under an injected
/// [`FaultPlan`] — deadline fires at the first checkpoint, cache-insert
/// failures, compile aborts — through the replay execution context
/// (frozen virtual clock). The gate: a fired fault must surface as a
/// typed SA4xx degradation (never a silent partial answer), the
/// recorded trace must replay bit-for-bit through a fresh engine,
/// injected degradation sequence included, and every fault kind and
/// every seed's plan must have an observable effect somewhere in the
/// corpus — CI runs this as the `chaos-corpus` job.
fn chaos_corpus(ab: &Alphabet) -> ExitCode {
    const SEEDS: std::ops::Range<u64> = 1..9;
    let db = replay_database(ab);
    let mut cases = Vec::new();
    for path in [
        "tests/corpus/fig2.queries",
        "tests/corpus/fragments.queries",
        "tests/corpus/sentences.queries",
    ] {
        cases.extend(load_corpus(path));
    }

    let label_w = cases.iter().map(|(_, _, f)| f.len()).max().unwrap_or(0);
    let mut runs = 0usize;
    let mut fired = 0usize;
    let mut failures = 0usize;
    // Per fault kind: runs armed with it, and runs where it had an
    // observable effect.
    let mut kinds = [
        ("deadline", 0usize, 0usize),
        ("fail-cache-insert", 0, 0),
        ("abort-compile", 0, 0),
    ];
    // Per seed: queries where its plan had an observable effect.
    let mut seed_effects = vec![0usize; SEEDS.count()];
    for (calculus, head, src) in &cases {
        let plan_case =
            |engine: &AutomataEngine| plan_corpus_case(ab, *calculus, head, src, engine);
        let fresh_engine = corpus_engine(&plan_case);
        let mut problems: Vec<String> = Vec::new();
        let mut strategy = String::new();
        for seed in SEEDS {
            let faults = FaultPlan::from_seed(seed);
            runs += 1;
            let kind = if faults.deadline_at_checkpoint.is_some() {
                0
            } else if faults.fail_cache_insert {
                1
            } else {
                2
            };
            kinds[kind].1 += 1;
            // Record under a fresh engine + cache per run so the cache
            // sequence (including injected insert failures) is a
            // cold-start sequence the replayer reproduces.
            let recorder = fresh_engine();
            let plan = plan_case(&recorder);
            strategy = plan.strategy.name().to_string();
            let budget = Budget::unlimited();
            let cx = ExecCx::replay(faults).with_budget(budget);
            let (out, report) = plan
                .execute_in(&db, &cx)
                .expect("chaos run answers under the degrade policy");
            let trace =
                ExecTrace::record(&plan, &budget, &report, &db, &out).expect("trace records");

            // A deadline that fired is never a quiet partial answer.
            let effect =
                report.faults.deadline_at_checkpoint.is_some() || !report.degradations.is_empty();
            if effect {
                fired += 1;
                kinds[kind].2 += 1;
                seed_effects[(seed - SEEDS.start) as usize] += 1;
            }
            if report.faults.deadline_at_checkpoint.is_some() {
                if report.verdict.is_exact() {
                    problems.push(format!("seed {seed}: deadline fired but verdict is exact"));
                }
                if !report
                    .degradations
                    .iter()
                    .any(|d| matches!(d.code.as_str(), "SA411" | "SA412" | "SA413"))
                {
                    problems.push(format!(
                        "seed {seed}: deadline fired without an SA41x degradation"
                    ));
                }
            }

            // The chaos gate: the trace (injected degradations and
            // all) replays bit-for-bit through a fresh engine.
            match ExecTrace::parse(&trace.to_json()) {
                Ok(parsed) if parsed == trace => match replay(&parsed, &fresh_engine(), &db) {
                    Ok(rep) => {
                        problems.extend(rep.diffs.into_iter().map(|d| format!("seed {seed}: {d}")))
                    }
                    Err(e) => problems.push(format!("seed {seed}: replay failed: {e}")),
                },
                Ok(_) => problems.push(format!("seed {seed}: JSON round trip is lossy")),
                Err(e) => problems.push(format!("seed {seed}: trace does not re-parse: {e}")),
            }
        }
        let verdict = if problems.is_empty() {
            "ok"
        } else {
            "DIVERGED"
        };
        println!("  {src:<label_w$}  {strategy:<16}  {verdict}");
        for p in &problems {
            println!("    ↳ {p}");
        }
        if !problems.is_empty() {
            failures += 1;
        }
    }
    println!(
        "\n{runs} chaos runs over {} queries ({fired} with observable fault effects), \
         {failures} divergence(s)",
        cases.len()
    );
    let by_kind: Vec<String> = kinds
        .iter()
        .map(|(name, armed, effects)| format!("{name} {armed} runs ({effects} with effects)"))
        .collect();
    println!("by fault kind: {}", by_kind.join(", "));
    let by_seed: Vec<String> = SEEDS
        .zip(&seed_effects)
        .map(|(seed, effects)| {
            format!(
                "{seed} {} ({effects})",
                FaultPlan::from_seed(seed).summary()
            )
        })
        .collect();
    println!("by seed (queries with effects): {}", by_seed.join(", "));
    if let Some((name, ..)) = kinds.iter().find(|(_, _, effects)| *effects == 0) {
        eprintln!("chaos corpus FAILED: no `{name}` fault had any observable effect");
        return ExitCode::FAILURE;
    }
    if let Some((seed, _)) = SEEDS.zip(&seed_effects).find(|(_, effects)| **effects == 0) {
        let plan = FaultPlan::from_seed(seed).summary();
        eprintln!(
            "chaos corpus FAILED: seed {seed} ({plan}) had no observable effect on any query"
        );
        return ExitCode::FAILURE;
    }
    if failures > 0 {
        eprintln!("chaos corpus DIVERGED on {failures} query(ies)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let ab = Alphabet::ab();
    let dna = Alphabet::new("acgt").expect("distinct letters");
    if std::env::args().any(|a| a == "--cache-smoke") {
        return cache_smoke(&ab, &dna);
    }
    if std::env::args().any(|a| a == "--planlint") {
        return planlint_corpus(&ab, &dna);
    }
    if std::env::args().any(|a| a == "--replay") {
        return replay_corpus(&ab);
    }
    if std::env::args().any(|a| a == "--chaos") {
        return chaos_corpus(&ab);
    }

    let v_ab = Validator::new(ab.clone());
    let v_dna = Validator::new(dna.clone());
    let rows = run_corpus(&v_ab, &v_dna, &ab, &dna);
    let refuted = report(&rows, &ab, &dna);
    if refuted > 0 {
        eprintln!("translation validation REFUTED {refuted} corpus check(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
