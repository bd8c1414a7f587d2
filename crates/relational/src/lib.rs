//! String databases and the paper's extended relational algebras.
//!
//! A database is a finite set of finite relations over `Σ*`
//! ([`Database`]). On top of the classical algebra (`σ`, `π`, `×`, `−`,
//! `∪`), Section 6.2 and 7.1 of the paper add:
//!
//! * `R_ε` — the constant relation `{(ε)}` ([`RaExpr::EpsilonRel`]);
//! * `σ_α` — selection by an arbitrary **pure** structure formula `α`
//!   (crucially, `α` does not refer to the database); the formula language
//!   of `α` is what distinguishes `RA(S)` from `RA(S_len)` etc.;
//! * `prefix_i` — adjoin a column ranging over the prefixes of column `i`;
//! * `add^r_{i,a}` — adjoin `s_i · a` (for `RA(S)` and all extensions);
//! * `add^l_{i,a}` — adjoin `a · s_i` (for `RA(S_left)`);
//! * `trim^l_{i,a}` — adjoin `s_i − a` (for `RA(S_left)`);
//! * `↓_i` — adjoin a column ranging over **all** strings of length at
//!   most `|s_i|` (for `RA(S_len)`; exponential, and the paper notes this
//!   is unavoidable because `RC(S_len)` contains NP-hard safe queries).
//!
//! [`RaExpr::algebra_class`] computes which algebra an expression lives
//! in, mirroring [`StructureClass`](strcalc_logic::StructureClass) on the
//! calculus side; Theorems 4 and 8 (safe calculus = algebra) are
//! exercised by the translation module in `strcalc-core` and the
//! `algebra_equiv` integration tests.

// Panic-audit round 7: the relational layer backs every execution
// strategy — arity and name errors are data-dependent and must surface
// as `DbError`/`RaError`, never as a panic.
#![deny(clippy::unwrap_used)]

pub mod algebra;
pub mod database;

pub use algebra::{RaError, RaEvaluator, RaExpr};
pub use database::{Database, DbError, Relation, Row, Schema};
