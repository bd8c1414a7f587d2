//! `strcalc-verify` — the verification corpus runner. The sweeps
//! themselves live in `sweeps.rs`, which returns one report per mode;
//! this file holds the flags, the printing and the exit codes. The root
//! test `tests/verify_sweeps.rs` runs the same sweeps under `cargo test`.
//!
//! ```text
//! cargo run --release --example strcalc-verify [-- MODE]
//! ```
//!
//! Without a mode, certifies the standard rewrite chain (`nnf →
//! lower_terms → simplify`) over the fig. 2 calculus matrix and the
//! queries exercised by the other examples, and validates both
//! `translate.rs` round trips (`ra_to_calculus`,
//! `adom_calculus_to_algebra`) on the fig. 2 database. Prints a verdict
//! table and exits non-zero if anything is `Refuted` — CI runs this as
//! the `verify-corpus` job.
//!
//! With `--cache-smoke`, the corpus runs **twice** through validators
//! sharing one [`AutomatonCache`](strcalc::core::AutomatonCache); the
//! run fails unless the second pass is served almost entirely from the
//! cache (hit rate > 90%) and both passes agree verdict for verdict — CI
//! runs this as the `cache-smoke` job.
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
//! against the same database snapshot through a *fresh* engine, clean,
//! starved and under a budget of exactly its root certificate. Each
//! query's routes are also checked against each other and against the
//! automaton-free oracle. The run fails on any divergence — CI runs this
//! as the `replay-corpus` job.
//!
//! With `--chaos`, every query of the same three corpora runs once per
//! fault seed under a deterministic injected fault plan (deadline fire
//! at the first checkpoint, cache-insert failure, compile abort), and
//! three batch-scale queries run with their deadline armed at
//! checkpoints 1 to 3; the run fails if a fired fault is not surfaced as
//! a typed SA4xx degradation, if a recorded trace does not replay bit
//! for bit, if some fault kind or some seed's plan has no observable
//! effect on any query, or if no deadline cuts a batch-scale run after
//! real work — CI runs this as the `chaos-corpus` job.

mod sweeps;

use std::process::ExitCode;

use strcalc::alphabet::Alphabet;
use strcalc::core::FaultPlan;
use strcalc::verify::Verdict;

/// Prints `problems` to stderr under `what`, and maps them to the exit
/// status.
fn exit_status(what: &str, problems: &[String]) -> ExitCode {
    for p in problems {
        eprintln!("{what}: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the verdict table of the validation corpus.
fn print_validation(report: &sweeps::Validation, ab: &Alphabet, dna: &Alphabet) -> ExitCode {
    let rows = &report.checks;
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(0)
        .min(58);
    let check_w = rows.iter().map(|r| r.check.len()).max().unwrap_or(0);
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
                println!("  {:>label_w$}  witness: {}", "↳", w.render(sigma));
            }
            Verdict::Unknown { reason, checks } => {
                println!("  {:>label_w$}  after {checks} checks: {reason}", "↳");
            }
            Verdict::Validated { .. } => {}
        }
    }
    println!(
        "\n{} checks: {} validated, {} unknown, {} refuted",
        rows.len(),
        report.validated,
        report.unknown,
        report.refuted
    );
    exit_status("translation validation REFUTED", &report.problems)
}

fn print_cache_smoke(report: &sweeps::CacheSmoke) -> ExitCode {
    let first = &report.first;
    println!(
        "cache smoke: pass 1 — {} lookups, {} compiles, {} entries ({} bytes)",
        first.hits + first.misses,
        first.misses,
        first.entries,
        first.bytes,
    );
    println!(
        "cache smoke: pass 2 — {} lookups, {} hits ({:.1}% hit rate)",
        report.lookups,
        report.hits,
        report.hit_rate() * 100.0
    );
    if report.problems.is_empty() {
        println!("cache smoke OK: verdicts identical, second pass served from cache");
    }
    exit_status("cache smoke FAILED", &report.problems)
}

fn print_planlint(report: &sweeps::Planlint) -> ExitCode {
    let label_w = report.rows.iter().map(|r| r.src.len()).max().unwrap_or(0);
    let mut section = "";
    for row in &report.rows {
        if row.section != section {
            section = row.section;
            println!("== {section} ==");
        }
        println!(
            "  {:<label_w$}  {:<6}  {:<16}  {}",
            row.src, row.tag, row.class, row.verdict
        );
        for line in &row.errors {
            println!("  {line}");
        }
    }
    println!(
        "\n{} plans verified, {} failure(s)",
        report.plans,
        report.problems.len()
    );
    exit_status("planlint REJECTED", &report.problems)
}

/// The verdict column of a corpus row.
fn verdict(problems: &[String]) -> &'static str {
    if problems.is_empty() {
        "ok"
    } else {
        "DIVERGED"
    }
}

fn print_replay(report: &sweeps::Replay) -> ExitCode {
    let label_w = report.rows.iter().map(|r| r.src.len()).max().unwrap_or(0);
    for row in &report.rows {
        println!(
            "  {:<label_w$}  {:<16}  {} [fp {:016x}]",
            row.src,
            row.strategy,
            verdict(&row.problems),
            row.fingerprint,
        );
        for p in &row.problems {
            println!("    ↳ {p}");
        }
    }
    let cases = report.rows.len();
    let divergences = report
        .rows
        .iter()
        .filter(|r| !r.problems.is_empty())
        .count();
    println!(
        "\n{} of {cases} runs under their root certificate degraded and replayed",
        report.narrowed
    );
    println!(
        "{cases} corpus traces replayed ({} degraded-mode), {divergences} divergence(s)",
        report.degraded
    );
    exit_status("replay corpus DIVERGED", &report.problems)
}

fn print_chaos(report: &sweeps::Chaos) -> ExitCode {
    let label_w = report.rows.iter().map(|r| r.src.len()).max().unwrap_or(0);
    for row in &report.rows {
        println!(
            "  {:<label_w$}  {:<16}  {}",
            row.src,
            row.strategy,
            verdict(&row.problems)
        );
        for p in &row.problems {
            println!("    ↳ {p}");
        }
    }
    let divergences = report
        .rows
        .iter()
        .filter(|r| !r.problems.is_empty())
        .count();
    println!(
        "\n{} chaos runs over {} queries ({} with observable fault effects), \
         {divergences} divergence(s)",
        report.runs,
        report.rows.len(),
        report.fired
    );
    let by_kind: Vec<String> = sweeps::FAULT_KINDS
        .iter()
        .zip(report.kinds)
        .map(|(name, (armed, effects))| format!("{name} {armed} runs ({effects} with effects)"))
        .collect();
    println!("by fault kind: {}", by_kind.join(", "));
    let by_seed: Vec<String> = sweeps::SEEDS
        .zip(&report.seed_effects)
        .map(|(seed, effects)| {
            format!(
                "{seed} {} ({effects})",
                FaultPlan::from_seed(seed).summary()
            )
        })
        .collect();
    println!("by seed (queries with effects): {}", by_seed.join(", "));

    println!(
        "\nbatch scale ({} rows, deadline at checkpoints 1-3):",
        report.batch_rows
    );
    let label_w = report.batch.iter().map(|r| r.src.len()).max().unwrap_or(0);
    for row in &report.batch {
        println!(
            "  {:<label_w$}  {:<16}  {}",
            row.src,
            row.strategy,
            verdict(&row.problems)
        );
        for (n, cut) in &row.truncations {
            println!("    @{n} {cut}");
        }
        for p in &row.problems {
            println!("    ↳ {p}");
        }
    }
    println!(
        "{} batch runs cut after real work (checkpoint >= 2) and replayed",
        report.after_work
    );
    exit_status("chaos corpus FAILED", &report.problems)
}

fn main() -> ExitCode {
    let ab = Alphabet::ab();
    let dna = Alphabet::new("acgt").expect("distinct letters");
    let mode = |flag: &str| std::env::args().any(|a| a == flag);
    if mode("--cache-smoke") {
        return print_cache_smoke(&sweeps::cache_smoke(&ab, &dna));
    }
    if mode("--planlint") {
        return print_planlint(&sweeps::planlint(&ab, &dna));
    }
    if mode("--replay") {
        return print_replay(&sweeps::replay(&ab));
    }
    if mode("--chaos") {
        return print_chaos(&sweeps::chaos(&ab));
    }
    print_validation(&sweeps::validation(&ab, &dna), &ab, &dna)
}
