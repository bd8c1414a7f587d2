//! Shared fixtures for the benchmark harness.
//!
//! Every bench target reproduces one artifact of the paper's evaluation
//! surface (the experiment index lives in `DESIGN.md` §4; measured
//! results in `EXPERIMENTS.md`):
//!
//! | bench | experiment | paper artifact |
//! |---|---|---|
//! | `fig1_separations` | E1 | Figure 1 (expressiveness lattice) |
//! | `fig2_matrix` | E2 | Figure 2 (property matrix) |
//! | `data_complexity` | E4 | Cor. 2: `RC(S)` polynomial data complexity |
//! | `unary_linear` | E5 | Prop. 3: linear time on unary databases |
//! | `slen_blowup` | E6 | Cor. 4: `RC(S_len)` exponential behaviour |
//! | `three_col` | E7 | Prop. 5: NP-complete query on width-1 DBs |
//! | `state_safety` | E10 | Prop. 7: decidable state-safety |
//! | `cq_safety` | E11 | Thm. 5: decidable CQ safety |
//! | `concat_blowup` | E3 | Prop. 1: `RC_concat` bounded-search cost |
//! | `engines_ablate` | §7 of DESIGN.md | ablations (trie, memo, minimize) |
//! | `like_compile` | E13 | Section 4: LIKE compilation |
//! | `sql_pipeline` | E14 | Section 1 motivation: SQL end-to-end |
//! | `algebra_vs_calculus` | E12 | Thm. 4/8: algebra = safe calculus |

use strcalc_alphabet::Alphabet;
use strcalc_core::json::{self, Json};
use strcalc_core::{Calculus, Query};
use strcalc_relational::Database;
use strcalc_workloads::Workload;

/// The default bench alphabet `{a, b}`.
pub fn ab() -> Alphabet {
    Alphabet::ab()
}

/// A deterministic unary database of `n` strings.
pub fn unary_db(n: usize, max_len: usize, seed: u64) -> Database {
    Workload::new(ab(), seed).unary_db(n, max_len)
}

/// The standard `RC(S)` probe queries over a unary `U`.
pub fn s_query(head: &[&str], src: &str) -> Query {
    Query::parse(
        Calculus::S,
        ab(),
        head.iter().map(|h| h.to_string()).collect(),
        src,
    )
    .expect("bench query is valid")
}

/// As [`s_query`] for `RC(S_len)`.
pub fn slen_query(head: &[&str], src: &str) -> Query {
    Query::parse(
        Calculus::SLen,
        ab(),
        head.iter().map(|h| h.to_string()).collect(),
        src,
    )
    .expect("bench query is valid")
}

/// Merges one named section into the machine-readable bench report.
///
/// When the `BENCH_JSON` environment variable names a path, the
/// JSON-aware benches (`plan_overhead`, `prepare_amortization`, ...)
/// record their headline numbers there as `{"<section>": <body>, ...}`
/// — CI sets `BENCH_JSON=BENCH_6.json` and archives the file. A section
/// the file already holds is replaced in place, so a re-run keeps one
/// key per section. With the variable unset this is a no-op, so plain
/// `cargo bench` runs are unaffected.
pub fn record_bench_json(section: &str, body: Json) {
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    let report = std::fs::read_to_string(&path).unwrap_or_default();
    if let Err(e) = std::fs::write(&path, merge_section(&report, section, body).to_string()) {
        eprintln!("BENCH_JSON: cannot write {path}: {e}");
    }
}

/// `report` (a bench report's text, empty if there is none yet) with
/// `section` set to `body`, in place if the report has it.
fn merge_section(report: &str, section: &str, body: Json) -> Json {
    let mut fields = match json::parse(report) {
        Ok(Json::Obj(fields)) => fields,
        _ => {
            if !report.trim().is_empty() {
                eprintln!("BENCH_JSON: the report is not a JSON object; starting afresh");
            }
            Vec::new()
        }
    };
    match fields.iter_mut().find(|(k, _)| k == section) {
        Some((_, v)) => *v = body,
        None => fields.push((section.to_string(), body)),
    }
    Json::Obj(fields)
}

/// Criterion settings tuned for algorithmic (not microsecond) benches.
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
        .configure_from_args()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_a_section_twice_keeps_one_key() {
        let pattern = r#"say "a\b""#;
        let body = |n: u64| Json::obj([("pattern", pattern.into()), ("n", n.into())]);
        let mut report = merge_section("", "other", Json::Null).to_string();
        for n in [1, 2] {
            report = merge_section(&report, "dense", body(n)).to_string();
        }
        let Ok(Json::Obj(fields)) = json::parse(&report) else {
            panic!("the merged report is not a JSON object: {report}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["other", "dense"]);
        assert_eq!(fields[1].1.field::<String>("pattern"), Ok(pattern.into()));
        assert_eq!(fields[1].1.field::<u64>("n"), Ok(2));
    }
}
