//! Self-test of the benchmark: every workload at the tiny size, traced
//! and untraced. It checks that every metric `BENCHMARK.json` names is
//! printed with its unit, that the counters agree with each other and
//! with the oracle, and that the exact-count guard trips on a count that
//! does not repeat.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["short_stmt", "scan_large", "cache_churn"];

const END_TO_END: [(&str, &str); 7] = [
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [(&str, &str); 27] = [
    ("sqlfront.parse_us", "us"),
    ("sqlfront.compile_us", "us"),
    ("logic.parse_formula_us", "us"),
    ("analyze.analyze_us", "us"),
    ("plan.build_us", "us"),
    ("exec.dense_scan_us", "us"),
    ("exec.like_scan_us", "us"),
    ("exec.automata_us", "us"),
    ("exec.bounded_search_us", "us"),
    ("exec.scan_mb_s", "MB/s"),
    ("exec.rows_scanned", "count"),
    ("exec.tuples_out", "count"),
    ("exec.degradations", "count"),
    ("automata.match_mask_mb_s", "MB/s"),
    ("automata.states_built", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.lookups_per_read", "count"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("relational.insert_us", "us"),
    ("relational.fingerprint_us", "us"),
    ("oracle.tuples", "count"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
];

struct Result {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

impl Result {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .0
    }
}

fn field<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text
        .find(key)
        .unwrap_or_else(|| panic!("{key} missing in {text}"))
        + key.len();
    let rest = &text[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim()
}

/// Parses the benchmark's result line, whose shape the benchmark fixes:
/// `{"correct": b, "attempted": n, "failed": n, "metrics": {"name":
/// {"value": v, "unit": "u"}, ...}}`.
fn parse(line: &str) -> Result {
    let (head, body) = line
        .split_once("\"metrics\": {")
        .expect("result line has metrics");
    let mut metrics = BTreeMap::new();
    for entry in body.trim_end_matches('}').split("}, ") {
        let (name, rest) = entry.split_once(": {").expect("metric entry");
        let value: f64 = field(rest, "\"value\": ").parse().expect("numeric value");
        let unit = field(rest, "\"unit\": ").trim_matches('"').to_string();
        metrics.insert(name.trim_matches('"').to_string(), (value, unit));
    }
    Result {
        correct: field(head, "\"correct\": ") == "true",
        attempted: field(head, "\"attempted\": ").parse().expect("attempted"),
        failed: field(head, "\"failed\": ").parse().expect("failed"),
        metrics,
    }
}

fn bench(workload: &str, trace: u8, state: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"]);
    if let Some(dir) = state {
        cmd.arg("--state-dir").arg(dir);
    }
    cmd.output().expect("benchmark binary runs")
}

fn run(workload: &str, trace: u8) -> Result {
    let out = bench(workload, trace, None);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = parse(stdout.lines().last().expect("output has a result line"));
    assert!(result.correct, "{workload}: incorrect\n{stdout}");
    assert!(result.attempted >= 1);
    assert_eq!(result.failed, 0, "{workload}: failed operations");
    result
}

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
}

fn assert_exactly(result: &Result, expected: &[(&str, &str)], manifest: &str) {
    let names: Vec<&str> = result.metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    want.sort();
    assert_eq!(names, want);
    for (name, unit) in expected {
        assert_eq!(&result.metrics[*name].1, unit, "unit of {name}");
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn end_to_end_metrics_are_printed_with_units() {
    let manifest = manifest();
    for workload in WORKLOADS {
        let result = run(workload, 0);
        assert_exactly(&result, &END_TO_END, &manifest);
        for (name, _) in END_TO_END {
            assert!(result.get(name) > 0.0, "{workload}: {name} is not positive");
        }
    }
}

#[test]
fn per_layer_counters_are_consistent() {
    let manifest = manifest();
    for workload in WORKLOADS {
        let r = run(workload, 1);
        assert_exactly(&r, &PER_LAYER, &manifest);
        assert_eq!(
            r.get("exec.tuples_out"),
            r.get("oracle.tuples"),
            "{workload}"
        );
        assert!(r.get("exec.tuples_out") > 0.0, "{workload}");
        assert_eq!(r.get("exec.degradations"), 0.0, "{workload}");
        assert_eq!(r.get("error_rate"), 0.0, "{workload}");
        match workload {
            "cache_churn" => {
                // The run itself holds the cache's counters to the lookups
                // the execution reports record (`correct` above); every
                // read here is cached, so each makes the same whole
                // number of lookups.
                assert!(r.get("cache.hits") > 0.0 && r.get("cache.misses") > 0.0);
                let per_read = r.get("cache.lookups_per_read");
                assert!(per_read >= 1.0 && per_read.fract() == 0.0, "{per_read}");
                let rate = r.get("cache.hits") / r.get("cache.lookups");
                assert!((r.get("cache.hit_rate") - rate).abs() < 1e-9);
                assert!(r.get("exec.automata_us") > 0.0);
            }
            _ => {
                assert_eq!(r.get("cache.lookups"), 0.0, "{workload} runs uncached");
                assert!(r.get("exec.rows_scanned") > 0.0, "{workload} scans");
            }
        }
    }
}

#[test]
fn exact_count_guard_trips_on_a_changed_count() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("count-guard");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(bench("cache_churn", 0, Some(&dir)).status.success());
    assert!(
        bench("cache_churn", 1, Some(&dir)).status.success(),
        "a traced run reproduces the untraced run's counts"
    );
    let record = std::fs::read_dir(&dir)
        .expect("guard wrote its record")
        .next()
        .expect("one record")
        .expect("readable entry")
        .path();
    let tampered = std::fs::read_to_string(&record)
        .expect("record readable")
        .replacen("reads: ", "reads: 1", 1);
    std::fs::write(&record, tampered).expect("record writable");
    let out = bench("cache_churn", 0, Some(&dir));
    assert!(!out.status.success(), "the guard must fail loudly");
    assert!(String::from_utf8_lossy(&out.stderr).contains("EXACT-COUNT GUARD FAILED"));
}
