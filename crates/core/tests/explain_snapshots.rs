//! Golden-file snapshot tests for `EXPLAIN` output on the Figure-2
//! probe queries (one per calculus). The rendering is part of the
//! stable surface: CI fails on drift. To regenerate after an
//! intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p strcalc-core --test explain_snapshots
//! ```

use strcalc_alphabet::Alphabet;
use strcalc_core::json;
use strcalc_core::{Calculus, Planner, Query};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/explain_fig2.txt");

/// The Figure-2 probe queries: one natural query per calculus.
fn fig2_matrix() -> Vec<(Calculus, &'static str)> {
    vec![
        (Calculus::S, "exists y. (U(y) & x <= y & last(x,'a'))"),
        (Calculus::SLeft, "exists y. (U(y) & fa(y, x, 'a'))"),
        (Calculus::SReg, "exists y. (U(y) & pl(x, y, /(ab)*/))"),
        (Calculus::SLen, "exists y. (U(y) & el(x, y) & last(x,'a'))"),
    ]
}

fn render_all() -> String {
    let planner = Planner::new();
    let mut out = String::new();
    for (calc, src) in fig2_matrix() {
        let q = Query::parse(calc, Alphabet::ab(), vec!["x".into()], src).expect("fig2 probe");
        let plan = planner.plan(&q).expect("fig2 probes always plan");
        out.push_str(&format!("=== {} ===\n", calc.name()));
        out.push_str(&plan.explain_text());
        out.push_str("--- json ---\n");
        out.push_str(&plan.explain_json());
        out.push_str("\n\n");
    }
    out
}

#[test]
fn explain_fig2_matches_golden() {
    let rendered = render_all();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "EXPLAIN output drifted from {GOLDEN}; if intentional, regenerate \
         with UPDATE_GOLDEN=1"
    );
}

#[test]
fn explain_json_is_single_line_and_balanced() {
    let planner = Planner::new();
    for (calc, src) in fig2_matrix() {
        let q = Query::parse(calc, Alphabet::ab(), vec!["x".into()], src).expect("fig2 probe");
        let json = planner.plan(&q).expect("plans").explain_json();
        assert!(!json.contains('\n'), "json is one line");
        let doc = json::parse(&json).unwrap_or_else(|e| panic!("{e} in {json}"));
        assert_eq!(doc.to_string(), json, "the document is in canonical form");
        assert_eq!(doc.field::<String>("calculus"), Ok(calc.name().to_string()));
        assert!(doc.req("plan").and_then(|p| p.req("children")).is_ok());
    }
}
