//! `strcalc-analyze` — lint string-calculus queries without a database.
//!
//! ```sh
//! # Built-in demo (includes the Figure-2 probe queries):
//! cargo run --example strcalc-analyze
//!
//! # Lint query files; exits 1 if any query has error-level diagnostics:
//! cargo run --example strcalc-analyze -- queries.txt more.txt
//!
//! # Escalate or silence codes like a real lint driver:
//! cargo run --example strcalc-analyze -- -D SA031 -A SA030 queries.txt
//!
//! # Also print each query's execution plan (EXPLAIN, no database needed):
//! cargo run --example strcalc-analyze -- --explain queries.txt
//!
//! # Verify each query's plan and print its resource certificate:
//! cargo run --example strcalc-analyze -- --planlint queries.txt
//!
//! # Machine-readable output, one JSON object per query:
//! cargo run --example strcalc-analyze -- --json queries.txt
//! ```
//!
//! `-D CODE` denies a code (its diagnostics become errors and gate the
//! exit status), `-W CODE` restores its default severity, `-A CODE`
//! allows (silences) it. Later flags win. `--explain` additionally runs
//! each query through the planner and prints the plan it would execute.
//! `--planlint` plans each query, re-verifies the plan with the plan-IR
//! checker, and prints the SA2xx diagnostics (including the SA210
//! certificate note) through the same lint overrides; error-level plan
//! diagnostics gate the exit status like analyzer errors. `--json`
//! switches to machine-readable output: one JSON object per query with
//! the diagnostics (code, level, span, message) after lint overrides,
//! the fragment-inference verdict (lattice point, evaluation class,
//! justification), and — per diagnostic — the fragment point of the
//! subformula the diagnostic's span addresses. Exit-status semantics
//! are unchanged.
//!
//! Query-file format: one query per line,
//!
//! ```text
//! CALC | head vars (space separated, may be empty) | formula
//! ```
//!
//! e.g. `S | x | exists y. (R(y) & x <= y)`. `CALC` is one of `S`,
//! `S_left`, `S_reg`, `S_len`. Blank lines and lines starting with `#`
//! are skipped.

use std::process::ExitCode;

use strcalc::alphabet::Alphabet;
use strcalc::analyze::{Analyzer, Code, LintLevel, Severity};
use strcalc::core::json::Json;
use strcalc::core::plan::PlanChecker;
use strcalc::core::{Calculus, Planner};
use strcalc::logic::parse_formula;

fn parse_calculus(name: &str) -> Option<Calculus> {
    match name.trim() {
        "S" => Some(Calculus::S),
        "S_left" | "Sleft" => Some(Calculus::SLeft),
        "S_reg" | "Sreg" => Some(Calculus::SReg),
        "S_len" | "Slen" => Some(Calculus::SLen),
        _ => None,
    }
}

/// Output-shaping flags (everything except the lint overrides).
#[derive(Default, Clone, Copy)]
struct Opts {
    explain: bool,
    planlint: bool,
    json: bool,
}

/// `-D`/`-W`/`-A` overrides, last one wins per code.
#[derive(Default)]
struct Lints(Vec<(Code, LintLevel)>);

impl Lints {
    fn level_of(&self, code: Code) -> LintLevel {
        self.0
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map(|(_, l)| *l)
            .unwrap_or_default()
    }
}

fn parse_code(txt: &str) -> Option<Code> {
    Code::all().iter().copied().find(|c| c.as_str() == txt)
}

/// Applies the CLI overrides (`-A` drops a diagnostic, `-D` escalates
/// it to an error, `-W` restores the default), returning the surviving
/// re-leveled diagnostics.
fn shape_diagnostics(
    lints: &Lints,
    diagnostics: &[strcalc::analyze::Diagnostic],
) -> Vec<strcalc::analyze::Diagnostic> {
    diagnostics
        .iter()
        .filter_map(|d| {
            let severity = lints.level_of(d.code).apply(d.code)?;
            let mut d = d.clone();
            d.severity = severity;
            Some(d)
        })
        .collect()
}

/// Prints re-leveled diagnostics, indented under their query.
fn print_diagnostics(diagnostics: &[strcalc::analyze::Diagnostic]) {
    for d in diagnostics {
        for rendered_line in d.render().lines() {
            println!("  {rendered_line}");
        }
    }
}

/// Serializes re-leveled diagnostics; each carries its span (formula
/// path) and, when the span addresses a formula node the fragment pass
/// annotated, that subformula's lattice point.
fn diagnostics_json(
    diagnostics: &[strcalc::analyze::Diagnostic],
    fragment: &strcalc::analyze::FragmentAnalysis,
) -> Json {
    Json::arr(diagnostics.iter().map(|d| {
        let mut fields = vec![
            ("code", d.code.to_string().into()),
            ("level", d.severity.to_string().into()),
            ("span", d.path.to_string().into()),
            ("message", (&d.message).into()),
        ];
        if let Some(note) = &d.note {
            fields.push(("note", note.into()));
        }
        if let Some((_, point)) = fragment.table.iter().find(|(p, _)| *p == d.path) {
            fields.push(("fragment", point.summary().into()));
        }
        Json::obj(fields)
    }))
}

/// Analyzes one `CALC | head | formula` line and prints the result,
/// as text or (under `--json`) as one JSON object on one line. Returns
/// `Ok(true)` iff the query is free of error-level diagnostics under the
/// lint overrides.
fn lint_line(
    sigma: &Alphabet,
    lints: &Lints,
    opts: Opts,
    line: &str,
    label: &str,
) -> Result<bool, String> {
    let parts: Vec<&str> = line.splitn(3, '|').collect();
    let [calc_txt, head_txt, formula_txt] = parts[..] else {
        return Err(format!("{label}: expected `CALC | head | formula`"));
    };
    let calculus = parse_calculus(calc_txt)
        .ok_or_else(|| format!("{label}: unknown calculus {:?}", calc_txt.trim()))?;
    let formula = parse_formula(sigma, formula_txt).map_err(|e| format!("{label}: {e}"))?;

    let head: Vec<String> = head_txt.split_whitespace().map(str::to_string).collect();
    let analysis = Analyzer::new(calculus.structure_class()).analyze(sigma, &formula);
    let mut diagnostics = shape_diagnostics(lints, &analysis.diagnostics);
    let plan = (opts.explain || opts.planlint)
        .then(|| Planner::new().plan_formula(sigma, &head, &formula));
    let plan_diagnostics = match &plan {
        Some(Ok(plan)) if opts.planlint => {
            let report = PlanChecker::for_plan(plan).check(&plan.root);
            shape_diagnostics(lints, &report.diagnostics)
        }
        _ => Vec::new(),
    };
    let clean = diagnostics
        .iter()
        .chain(&plan_diagnostics)
        .all(|d| d.severity != Severity::Error);

    if opts.json {
        let fragment = &analysis.fragment;
        diagnostics.extend(plan_diagnostics);
        let mut fields = vec![
            ("query", label.into()),
            ("calculus", calculus.name().into()),
            ("formula", formula_txt.trim().into()),
            ("head", Json::arr(&head)),
            (
                "fragment",
                Json::obj([
                    ("point", fragment.root.summary().into()),
                    ("class", fragment.class.name().into()),
                    ("justification", fragment.class.justification().into()),
                ]),
            ),
            ("diagnostics", diagnostics_json(&diagnostics, fragment)),
        ];
        match plan {
            Some(Ok(plan)) if opts.explain => fields.push(("plan", plan.explain_doc(None))),
            Some(Err(e)) => fields.push(("plan_error", e.to_string().into())),
            _ => {}
        }
        fields.push(("clean", clean.into()));
        println!("{}", Json::obj(fields));
        return Ok(clean);
    }

    println!("{label}: {} [{}]", formula_txt.trim(), calculus.name());
    let free = formula.free_vars();
    for h in head.iter().filter(|h| !free.contains(*h)) {
        println!("  head variable {h} is not free in the formula");
    }
    print_diagnostics(&diagnostics);
    match plan {
        Some(Ok(plan)) => {
            if opts.explain {
                for plan_line in plan.explain_text().lines() {
                    println!("  {plan_line}");
                }
            }
            if opts.planlint {
                // `--explain` already prints the budget with the plan;
                // surface it here for planlint-only runs so the
                // certificate is read next to the capability the
                // planner seeds from it.
                if !opts.explain {
                    println!("  budget: {}", plan.seeded_budget().summary());
                }
                print_diagnostics(&plan_diagnostics);
            }
        }
        Some(Err(e)) => println!("  no plan: {e}"),
        None => {}
    }
    println!();
    Ok(clean)
}

fn lint_file(sigma: &Alphabet, lints: &Lints, opts: Opts, path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut clean = true;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // A malformed line is reported but does not stop the file scan.
        match lint_line(sigma, lints, opts, line, &format!("{path}:{}", i + 1)) {
            Ok(ok) => clean &= ok,
            Err(e) => {
                eprintln!("{e}");
                clean = false;
            }
        }
    }
    Ok(clean)
}

/// The built-in demo: the Figure-2 probe queries (one per calculus, all
/// clean) plus a rogue's gallery of queries the analyzer rejects or
/// warns about.
fn demo(sigma: &Alphabet, lints: &Lints, opts: Opts) -> bool {
    let queries = [
        // Figure-2 probes: cost report only.
        "S      | x | exists y. (U(y) & x <= y & last(x,'a'))",
        "S_left | x | exists y. (U(y) & fa(y, x, 'a'))",
        "S_reg  | x | exists y. (U(y) & pl(x, y, /(ab)*/))",
        "S_len  | x | exists y. (U(y) & el(x, y) & last(x,'a'))",
        // SA001: prepend needs S_left, declared RC(S).
        "S      | x y | y = prepend('a', x)",
        // SA010: complement of a relation is not range-restricted.
        "S      | x | !R(x)",
        // SA011 + SA010: unrestricted quantifier over an unbounded var.
        "S      | x | exists y. (x <= y & R(x))",
        // SA020/SA021/SA022: scope hygiene.
        "S      | x | R(x) & exists z. exists x. (R(x) & forall w. true)",
        // SA031: universal quantifier over a product of relations.
        "S      | x | forall y. (R(x) | !R(y) | exists z. (R(z) & y <= z))",
    ];
    let mut clean = true;
    for (i, q) in queries.iter().enumerate() {
        match lint_line(sigma, lints, opts, q, &format!("demo:{}", i + 1)) {
            Ok(ok) => clean &= ok,
            Err(e) => {
                eprintln!("{e}");
                clean = false;
            }
        }
    }
    clean
}

fn main() -> ExitCode {
    let sigma = Alphabet::ab();
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut lints = Lints::default();
    let mut opts = Opts::default();
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let level = match arg.as_str() {
            "-D" | "--deny" => LintLevel::Deny,
            "-W" | "--warn" => LintLevel::Warn,
            "-A" | "--allow" => LintLevel::Allow,
            "--explain" => {
                opts.explain = true;
                continue;
            }
            "--planlint" => {
                opts.planlint = true;
                continue;
            }
            "--json" => {
                opts.json = true;
                continue;
            }
            _ => {
                files.push(arg);
                continue;
            }
        };
        let Some(txt) = it.next() else {
            eprintln!("{arg} needs a diagnostic code (e.g. {arg} SA031)");
            return ExitCode::FAILURE;
        };
        let Some(code) = parse_code(txt) else {
            eprintln!("unknown diagnostic code {txt:?}; known codes:");
            for c in Code::all() {
                eprintln!("  {}", c.as_str());
            }
            return ExitCode::FAILURE;
        };
        lints.0.push((code, level));
    }

    let clean = if files.is_empty() {
        if !opts.json {
            println!("no query files given; running the built-in demo\n");
        }
        demo(&sigma, &lints, opts)
    } else {
        let mut clean = true;
        for path in &files {
            match lint_file(&sigma, &lints, opts, path) {
                Ok(ok) => clean &= ok,
                Err(e) => {
                    eprintln!("{e}");
                    clean = false;
                }
            }
        }
        clean
    };

    if clean {
        ExitCode::SUCCESS
    } else {
        if !opts.json {
            println!("error-level diagnostics found");
        }
        ExitCode::FAILURE
    }
}
