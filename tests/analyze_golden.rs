//! Golden-file test for the analyzer's machine-readable output:
//! `strcalc-analyze --json` over the fig. 2 and fragment corpora must
//! print exactly `tests/golden/analyze_corpus.jsonl` — every diagnostic,
//! fragment attribution and safe-range verdict. To regenerate after an
//! intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test analyze_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

use strcalc::core::json;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/analyze_corpus.jsonl"
);
const CORPORA: [&str; 2] = [
    "tests/corpus/fig2.queries",
    "tests/corpus/fragments.queries",
];

/// The `strcalc-analyze` example binary of this build. `cargo test`
/// builds the examples beside the test targets; a run that selects only
/// this test builds it first.
fn analyze_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    // target/<profile>/deps/<test> → target/<profile>/examples/
    let profile_dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test executable lives in target/<profile>/deps");
    let bin = profile_dir
        .join("examples")
        .join(format!("strcalc-analyze{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let mut cargo = Command::new(env!("CARGO"));
        cargo
            .args(["build", "--quiet", "--example", "strcalc-analyze"])
            .current_dir(env!("CARGO_MANIFEST_DIR"));
        if profile_dir.ends_with("release") {
            cargo.arg("--release");
        }
        let status = cargo.status().expect("cargo runs");
        assert!(status.success(), "building strcalc-analyze failed");
    }
    bin
}

#[test]
fn analyze_json_matches_golden() {
    let output = Command::new(analyze_binary())
        .arg("--json")
        .args(CORPORA)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("strcalc-analyze runs");
    // The concat-bounded fixture is error-level (SA002), so the linter
    // exits 1; what matters is that it ran to the end.
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let rendered = String::from_utf8(output.stdout).expect("UTF-8 output");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "strcalc-analyze --json drifted from {GOLDEN}; if intentional, regenerate \
         with UPDATE_GOLDEN=1"
    );
}

/// Every line of the golden file is one JSON object with the keys CI
/// consumers read.
#[test]
fn every_golden_line_is_a_json_object() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file");
    for (i, line) in golden.lines().enumerate() {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        for key in ["query", "fragment", "diagnostics", "clean"] {
            assert!(doc.req(key).is_ok(), "line {}: no `{key}`", i + 1);
        }
    }
}
