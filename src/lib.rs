//! # strcalc — String Operations in Query Languages
//!
//! A Rust implementation of the string-extended relational calculi of
//! Benedikt, Libkin, Schwentick & Segoufin, *String Operations in Query
//! Languages* (PODS 2001): `RC(S)`, `RC(S_left)`, `RC(S_reg)`,
//! `RC(S_len)`, their safe fragments and relational algebras, exact
//! evaluation via automatic-structure (synchronized-automata) techniques,
//! decidable state-safety, conjunctive-query safety, and a mini-SQL
//! front-end.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`alphabet`] — `Σ`, `Σ*`, string primitives;
//! * [`automata`] — regexes, NFA/DFA, star-free tests, LIKE/SIMILAR;
//! * [`synchro`] — multi-track synchronized automata (the exact engine's
//!   substrate);
//! * [`logic`] — first-order formulas over the string signatures;
//! * [`analyze`] — database-free static analysis with `SA0xx`
//!   diagnostics (signature, safe-range, scope hygiene, cost);
//! * [`relational`] — databases and the extended relational algebras;
//! * [`core`] — the calculi, engines, safety analysis, translations;
//! * [`verify`] — translation validation: rewrite/compile certificates
//!   with counterexample witnesses, and the verified-rewrite gate;
//! * [`sqlfront`] — the SQL-ish surface syntax;
//! * [`workloads`] — deterministic data/query generators.
//!
//! ## Quickstart
//!
//! ```
//! use strcalc::prelude::*;
//!
//! let sigma = Alphabet::ab();
//! let mut db = Database::new();
//! db.insert("R", vec![sigma.parse("ab").unwrap()]).unwrap();
//! db.insert("R", vec![sigma.parse("ba").unwrap()]).unwrap();
//!
//! // φ(x) = R(x) ∧ L_a(x)   — strings in R ending in 'a'
//! let phi = Formula::rel("R", vec![Term::var("x")])
//!     .and(Formula::last_sym(Term::var("x"), 0));
//! let q = Query::new(Calculus::S, sigma.clone(), vec!["x".into()], phi).unwrap();
//!
//! let engine = AutomataEngine::new();
//! let out = engine.eval(&q, &db).unwrap();
//! assert_eq!(out.expect_finite().len(), 1);
//! ```

pub use strcalc_alphabet as alphabet;
pub use strcalc_analyze as analyze;
pub use strcalc_automata as automata;
pub use strcalc_core as core;
pub use strcalc_logic as logic;
pub use strcalc_relational as relational;
pub use strcalc_sqlfront as sqlfront;
pub use strcalc_synchro as synchro;
pub use strcalc_verify as verify;
pub use strcalc_workloads as workloads;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use strcalc_alphabet::{Alphabet, Str, Sym};
    pub use strcalc_automata::{Dfa, Nfa, Regex};
    pub use strcalc_core::{AutomataEngine, Calculus, EvalOutput, Planner, Query, StateSafety};
    pub use strcalc_logic::{Formula, Term};
    pub use strcalc_relational::{Database, Relation, Schema};
}
