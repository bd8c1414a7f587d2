//! `perfbench`: one closed-loop client driving the strcalc pipeline
//! through the public entry points of each layer.
//!
//! ```text
//! perfbench --workload <short_stmt|scan_large|cache_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           [--size tiny] [--spans <file>] [--state-dir <dir>]
//! ```
//!
//! A run executes a fixed, seeded sequence of operations whose length
//! follows from `--seconds` alone, with read kinds interleaved
//! round-robin and a write every few operations. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it records spans around
//! every call into a layer on alternate write periods and prints the
//! per-layer metrics, including the cost of tracing itself. The last line
//! of standard output is one JSON object. See `README.md` beside this
//! package.

mod cpus;
mod oracle;
mod session;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use strcalc_alphabet::{Str, Sym};
use strcalc_automata::{DenseDfa, Dfa, Regex};
use strcalc_core::budget::CacheEventKind;
use strcalc_relational::Database;

use session::{Session, Tracer};
use workload::{Inputs, Kind, Size};

struct Args {
    name: String,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    spans: Option<PathBuf>,
    state_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let name = get("workload")?.clone();
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let size = match flags.get("size").map(String::as_str) {
        None | Some("full") => Size::Full,
        Some("tiny") => Size::Tiny,
        Some(other) => return Err(format!("unknown size {other:?}")),
    };
    Ok(Args {
        name,
        kind,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        trace: number("trace")? != 0,
        size,
        spans: flags.get("spans").map(PathBuf::from),
        state_dir: flags.get("state-dir").map(PathBuf::from),
    })
}

/// The dense kernel alone over the workload's `U` column: the ceiling
/// any scan executor gain is bounded by.
struct KernelProbe {
    tables: Vec<DenseDfa>,
    column: Vec<Str>,
    bytes: usize,
}

impl KernelProbe {
    fn new(inputs: &Inputs, db: &Database) -> KernelProbe {
        let k = inputs.alphabet.len() as Sym;
        let tables = workload::DENSE_PATTERNS
            .iter()
            .map(|p| {
                let regex = Regex::parse(&inputs.alphabet, p).expect("benchmark pattern parses");
                DenseDfa::compile(&Dfa::from_regex(k, &regex))
            })
            .collect();
        let column: Vec<Str> = db
            .relation("U")
            .map(|r| r.iter().map(|t| t[0].clone()).collect())
            .unwrap_or_default();
        let bytes = column.iter().map(Str::len).sum();
        KernelProbe {
            tables,
            column,
            bytes,
        }
    }

    fn run(&self, tracer: &mut Tracer, turn: usize) {
        let dfa = &self.tables[turn % self.tables.len()];
        let refs: Vec<&Str> = self.column.iter().collect();
        let mut mask = vec![true; refs.len()];
        tracer.span("automata.match_mask", || dfa.match_mask(&refs, &mut mask));
        std::hint::black_box(&mask);
    }
}

/// Writes per kernel probe in a traced run. A probe over the column of
/// `scan_large` costs about as much as a pass over its reads, so probing
/// after every traced write would stretch the run by half.
const PROBE_EVERY: usize = 16;

/// Whole rotations of the client thread over the CPUs in one window of
/// the timing metrics: about two seconds of operations.
const ROTATIONS_PER_WINDOW: usize = 4;

/// Deterministic counts of one run. Every field is a function of the
/// workload, seed and length; the exact-count guard holds them to that.
#[derive(Default, Debug)]
struct Counts {
    reads: u64,
    writes: u64,
    rows_scanned: u64,
    tuples_out: u64,
    states_built: u64,
    degradations: u64,
    cached_reads: u64,
    report_lookups: u64,
    report_hits: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_bytes: u64,
    oracle_tuples: u64,
    final_tuples: u64,
}

impl Counts {
    fn line(&self) -> String {
        format!("{self:?}")
    }
}

struct Failures {
    count: u64,
    shown: usize,
}

impl Failures {
    fn note(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.count += n;
        if self.shown < 5 {
            self.shown += 1;
            eprintln!("perfbench: failed: {}", what());
        }
    }
}

fn relation_bytes(db: &Database, name: &str) -> u64 {
    db.relation(name).map_or(0, |r| {
        r.iter()
            .map(|t| t.iter().map(Str::len).sum::<usize>() as u64)
            .sum()
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the benchmark and prints its result. `Ok(false)` when the
/// exact-count guard tripped.
fn run(args: &Args) -> Result<bool, String> {
    let inputs = workload::generate(args.kind, args.size, args.seed, args.seconds);
    let cpus = cpus::Cpus::allowed();

    // Set-up is timed once before the first timed operation, and again at
    // evenly spaced points of the sequence, so that its samples see the
    // same drift as the operations do. The `k`-th set-up runs on the CPU
    // of rotation slot `k`, and its time is kept per slot.
    let reps = inputs.setup_reps;
    let mut setup_s: Vec<Vec<f64>> = vec![Vec::new(); cpus.len()];
    cpus.pin(0);
    let t = Instant::now();
    let mut session = Session::setup(&inputs)?;
    setup_s[0].push(t.elapsed().as_secs_f64());
    let extra_setups: Vec<usize> = (1..reps).map(|k| k * inputs.ops / reps).collect();

    let cache_base = session.cache.as_ref().map(|c| c.stats());
    let probe = args.trace.then(|| KernelProbe::new(&inputs, &session.db));
    let scan_bytes: BTreeMap<&str, u64> = inputs
        .tables
        .iter()
        .map(|t| (t.name.as_str(), relation_bytes(&session.db, &t.name)))
        .collect();

    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut failures = Failures { count: 0, shown: 0 };
    // Latencies are kept per window of whole CPU rotations and, inside a
    // window, per CPU (`stats::windowed`); throughput per window. The last
    // window takes the operations left over.
    let ncpu = cpus.len();
    let window_ops = inputs.cpu_turn * ncpu * ROTATIONS_PER_WINDOW;
    let windows = ((inputs.ops + window_ops / 2) / window_ops).max(1);
    let mut read_ms: Vec<Vec<f64>> = vec![Vec::new(); windows * ncpu];
    let mut write_ms: Vec<Vec<f64>> = vec![Vec::new(); windows * ncpu];
    // Seconds spent in operations, per window.
    let mut busy_s = vec![0.0f64; windows];
    let mut by_read: Vec<Vec<f64>> = vec![Vec::new(); inputs.reads.len()];
    // Per distinct read: executions and the tuple count they returned.
    let mut executions = vec![0u64; inputs.reads.len()];
    let mut answer_len: Vec<Option<usize>> = vec![None; inputs.reads.len()];
    // Trace mode: op time in traced and untraced periods, and the
    // traced scans' bytes and executor time.
    let mut period_ns = [0u128; 2];
    let mut period_ops = [0u64; 2];
    let mut traced_scan_bytes = 0u64;
    let mut traced_scan_ns = 0u64;

    let mut batches = inputs.write_batches();
    for i in 0..inputs.ops {
        if let Some(k) = extra_setups.iter().position(|&at| at == i) {
            cpus.pin(k + 1);
            let t_setup = Instant::now();
            let extra = Session::setup(&inputs)?;
            setup_s[(k + 1) % cpus.len()].push(t_setup.elapsed().as_secs_f64());
            drop(extra);
            cpus.pin(i / inputs.cpu_turn);
        } else if i % inputs.cpu_turn == 0 {
            cpus.pin(i / inputs.cpu_turn);
        }
        let window = (i / window_ops).min(windows - 1);
        let cell = window * ncpu + (i / inputs.cpu_turn) % ncpu;
        tracer.on = args.trace && (i / inputs.write_every) % 2 == 1;
        let t0 = Instant::now();
        match inputs.op(i) {
            Ok(r) => {
                let read = &inputs.reads[r];
                let result =
                    tracer.operation("op.read", i as u32, |t| session.read(&inputs, read, t));
                let dt = t0.elapsed();
                read_ms[cell].push(dt.as_secs_f64() * 1e3);
                busy_s[window] += dt.as_secs_f64();
                by_read[r].push(dt.as_secs_f64() * 1e3);
                period_ns[tracer.on as usize] += dt.as_nanos();
                period_ops[tracer.on as usize] += 1;
                counts.reads += 1;
                executions[r] += 1;
                let res = match result {
                    Ok(res) => res,
                    Err(e) => {
                        failures.note(1, || format!("{}: {e}", read.label));
                        continue;
                    }
                };
                let report = &res.report;
                counts.cached_reads += res.cached as u64;
                if let Some(rel) = &res.scanned {
                    counts.rows_scanned += session.db.relation(rel).map_or(0, |r| r.len()) as u64;
                    let bytes = scan_bytes.get(rel.as_str()).copied().unwrap_or(0);
                    if tracer.on {
                        let span = tracer.spans.last().expect("the executor span was recorded");
                        traced_scan_bytes += bytes;
                        traced_scan_ns += span.end_ns - span.start_ns;
                    }
                }
                counts.tuples_out += report.tuples_enumerated as u64;
                if !report.cache_hit {
                    counts.states_built += report.automaton_states as u64;
                }
                counts.degradations += report.degradations.len() as u64;
                for event in &report.cache_events {
                    if event.kind == CacheEventKind::Lookup {
                        counts.report_lookups += 1;
                        counts.report_hits += event.hit as u64;
                    }
                }
                if !report.verdict.is_exact() || !report.degradations.is_empty() {
                    failures.note(1, || {
                        format!("{}: degraded: {}", read.label, report.summary())
                    });
                }
                let len = res.output.len();
                match (answer_len[r], len) {
                    (_, None) => failures.note(1, || format!("{}: infinite answer", read.label)),
                    (None, Some(n)) => answer_len[r] = Some(n),
                    (Some(a), Some(n)) if a != n => failures.note(1, || {
                        format!("{}: answer changed size {a} -> {n}", read.label)
                    }),
                    _ => {}
                }
            }
            Err(w) => {
                let batch = batches.next().expect("the write stream is endless");
                let t0 = Instant::now();
                let result = tracer.operation("op.write", i as u32, |t| session.write(&batch, t));
                let dt = t0.elapsed();
                write_ms[cell].push(dt.as_secs_f64() * 1e3);
                busy_s[window] += dt.as_secs_f64();
                period_ns[tracer.on as usize] += dt.as_nanos();
                period_ops[tracer.on as usize] += 1;
                counts.writes += 1;
                if let Err(e) = result {
                    failures.note(1, || format!("write {w}: {e}"));
                }
                // Traced periods are the odd-numbered ones, so this probes
                // in one traced period of every `PROBE_EVERY`.
                if let (true, Some(probe)) = (w % PROBE_EVERY == 1, &probe) {
                    tracer.operation("probe", i as u32, |t| {
                        let db = &session.db;
                        std::hint::black_box(t.span("relational.fingerprint", || db.fingerprint()));
                        probe.run(t, w);
                    });
                }
                // Emptying `W` frees and rebuilds the whole instance. Done
                // right after a write, whatever it leaves the allocator to
                // do falls on the next read, which takes milliseconds, and
                // not on a write, which takes microseconds.
                if session.written >= workload::WRITE_CAP {
                    session.reset_writes();
                }
            }
        }
    }
    tracer.on = false;
    if let (Some(cache), Some(base)) = (&session.cache, cache_base) {
        let now = cache.stats();
        counts.cache_hits = now.hits - base.hits;
        counts.cache_misses = now.misses - base.misses;
        counts.cache_evictions = now.evictions - base.evictions;
        counts.cache_bytes = now.bytes as u64;
    }

    // Oracle: every distinct read against its independent route, outside
    // the timed region.
    for (r, read) in inputs.reads.iter().enumerate() {
        let expected = oracle::expected(&inputs, &session, read)
            .map_err(|e| format!("oracle for {}: {e}", read.label))?;
        let n = expected.len().unwrap_or(0);
        counts.oracle_tuples += n as u64 * executions[r];
        let routed = session.read(&inputs, read, &mut tracer)?;
        if routed.output != expected || answer_len[r] != Some(n) {
            failures.note(executions[r], || {
                format!(
                    "{}: answer differs from the oracle ({:?} vs {n} tuples)",
                    read.label, answer_len[r]
                )
            });
        }
    }
    counts.final_tuples = session.db.total_tuples() as u64;

    let mut consistent = true;
    let mut inconsistent = |what: String| {
        eprintln!("perfbench: inconsistent counters: {what}");
        consistent = false;
    };
    if counts.tuples_out != counts.oracle_tuples {
        inconsistent(format!(
            "exec.tuples_out {} != oracle {}",
            counts.tuples_out, counts.oracle_tuples
        ));
    }
    // The cache's own counters against the executor's reports: every
    // read of a cached plan reports exactly one lookup, and the cache
    // counts the same whole number of lookups for each such read, each
    // one a hit exactly when the read's reported lookup hit.
    let lookups = counts.cache_hits + counts.cache_misses;
    let per_read = lookups.checked_div(counts.report_lookups).unwrap_or(0);
    if counts.report_lookups != counts.cached_reads
        || lookups != per_read * counts.report_lookups
        || counts.cache_hits != per_read * counts.report_hits
    {
        inconsistent(format!(
            "cache counted {} hits + {} misses; {} cached reads reported {} lookups ({} hits)",
            counts.cache_hits,
            counts.cache_misses,
            counts.cached_reads,
            counts.report_lookups,
            counts.report_hits
        ));
    }
    let guard_ok = count_guard(args, &inputs, &counts)?;

    let attempted = counts.reads + counts.writes;
    let error_rate = failures.count as f64 / attempted as f64;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        let throughput = stats::median(
            read_ms
                .chunks(ncpu)
                .zip(&busy_s)
                .map(|(cells, s)| cells.iter().map(Vec::len).sum::<usize>() as f64 / s)
                .collect(),
        );
        metrics.extend([
            ("query_p50_ms", stats::windowed(&read_ms, ncpu, 0.50), "ms"),
            ("query_p95_ms", stats::windowed(&read_ms, ncpu, 0.95), "ms"),
            ("throughput_qps", throughput, "1/s"),
            ("write_p50_ms", stats::windowed(&write_ms, ncpu, 0.50), "ms"),
            ("write_p95_ms", stats::windowed(&write_ms, ncpu, 0.95), "ms"),
            ("setup_s", setup_seconds(setup_s.clone()), "s"),
            ("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ]);
    } else {
        let span_us = |name: &str| {
            stats::median(
                tracer
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                    .collect(),
            )
        };
        let span_ns_total = |name: &str| -> u64 {
            tracer
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns - s.start_ns)
                .sum()
        };
        let mb_s = |bytes: u64, ns: u64| {
            if ns == 0 {
                0.0
            } else {
                bytes as f64 * 1e3 / ns as f64
            }
        };
        let probes = tracer
            .spans
            .iter()
            .filter(|s| s.name == "automata.match_mask")
            .count();
        let mean = |k: usize| period_ns[k] as f64 / period_ops[k].max(1) as f64;
        metrics.extend([
            ("sqlfront.parse_us", span_us("sqlfront.parse_select"), "us"),
            (
                "sqlfront.compile_us",
                span_us("sqlfront.compile_select"),
                "us",
            ),
            (
                "logic.parse_formula_us",
                span_us("logic.parse_formula"),
                "us",
            ),
            ("analyze.analyze_us", span_us("analyze.analyze"), "us"),
            ("plan.build_us", span_us("plan.build"), "us"),
            ("exec.dense_scan_us", span_us("exec.dense_scan"), "us"),
            ("exec.like_scan_us", span_us("exec.like_scan"), "us"),
            ("exec.automata_us", span_us("exec.automata"), "us"),
            (
                "exec.bounded_search_us",
                span_us("exec.bounded_search"),
                "us",
            ),
            (
                "exec.scan_mb_s",
                mb_s(traced_scan_bytes, traced_scan_ns),
                "MB/s",
            ),
            ("exec.rows_scanned", counts.rows_scanned as f64, "count"),
            ("exec.tuples_out", counts.tuples_out as f64, "count"),
            ("exec.degradations", counts.degradations as f64, "count"),
            (
                "automata.match_mask_mb_s",
                mb_s(
                    probe.as_ref().map_or(0, |p| p.bytes) as u64 * probes as u64,
                    span_ns_total("automata.match_mask"),
                ),
                "MB/s",
            ),
            ("automata.states_built", counts.states_built as f64, "count"),
            ("cache.hits", counts.cache_hits as f64, "count"),
            ("cache.misses", counts.cache_misses as f64, "count"),
            ("cache.lookups", lookups as f64, "count"),
            (
                "cache.hit_rate",
                if lookups == 0 {
                    0.0
                } else {
                    counts.cache_hits as f64 / lookups as f64
                },
                "ratio",
            ),
            (
                "cache.lookups_per_read",
                lookups as f64 / counts.reads as f64,
                "count",
            ),
            ("cache.evictions", counts.cache_evictions as f64, "count"),
            ("cache.bytes", counts.cache_bytes as f64, "bytes"),
            ("relational.insert_us", span_us("relational.insert"), "us"),
            (
                "relational.fingerprint_us",
                span_us("relational.fingerprint"),
                "us",
            ),
            ("oracle.tuples", counts.oracle_tuples as f64, "count"),
            ("error_rate", error_rate, "ratio"),
            ("trace.overhead_pct", (mean(1) / mean(0) - 1.0) * 100.0, "%"),
        ]);
        if let Some(path) = &args.spans {
            write_spans(path, &tracer)?;
        }
    }

    let mut out = std::io::stdout().lock();
    let w = |e: std::io::Error| e.to_string();
    writeln!(
        out,
        "workload {} seed {} ops {} ({} reads, {} writes) trace {}",
        args.name, args.seed, inputs.ops, counts.reads, counts.writes, args.trace as u8
    )
    .map_err(w)?;
    // Each distinct read's own percentiles: where the mix's fall.
    for (read, ms) in inputs.reads.iter().zip(by_read) {
        let ms = stats::sorted(ms);
        writeln!(
            out,
            "read p50 {:>10.4} ms  p95 {:>10.4} ms  n {:>5}  {}",
            stats::percentile(&ms, 0.5),
            stats::percentile(&ms, 0.95),
            ms.len(),
            read.label
        )
        .map_err(w)?;
    }
    for (name, value, unit) in &metrics {
        writeln!(out, "{name:<28} {value:>16.6} {unit}").map_err(w)?;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.count == 0 && consistent && guard_ok,
        failures.count,
        body.join(", ")
    )
    .map_err(w)?;
    Ok(guard_ok)
}

/// The set-up time a run reports: the median of the set-ups on each CPU,
/// averaged over the CPUs. The median of all samples pooled would fall in
/// the gap between two CPUs' times whenever they run at different speeds.
fn setup_seconds(per_cpu: Vec<Vec<f64>>) -> f64 {
    let medians: Vec<f64> = per_cpu
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(stats::median)
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// FNV-1a of this executable's bytes: two runs share count records only
/// when they run the same build.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// The exact-count guard: the first run of a (build, workload, seed,
/// length) records its counts under `--state-dir`; every later run must
/// reproduce them exactly.
fn count_guard(args: &Args, inputs: &Inputs, counts: &Counts) -> Result<bool, String> {
    let Some(dir) = &args.state_dir else {
        return Ok(true);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "counts-{:016x}-{}-{}-{}-{:?}.txt",
        build_id()?,
        args.name,
        args.seed,
        inputs.ops,
        args.size
    ));
    let line = counts.line();
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == line => Ok(true),
        Ok(prev) => {
            eprintln!(
                "perfbench: EXACT-COUNT GUARD FAILED for {} seed {}:\n  recorded {}\n  this run {}",
                args.name,
                args.seed,
                prev.trim(),
                line
            );
            Ok(false)
        }
        Err(_) => std::fs::write(&path, line + "\n")
            .map(|_| true)
            .map_err(|e| e.to_string()),
    }
}

/// Writes the recorded spans as JSON lines.
fn write_spans(path: &PathBuf, tracer: &Tracer) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in &tracer.spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}
