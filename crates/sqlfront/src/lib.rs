//! A mini-SQL front-end for the string calculi.
//!
//! The paper's introduction motivates the whole enterprise with SQL:
//! `WHERE FACULTY.NAME LIKE 'ny%'` is a string query, but SQL restricts
//! how such predicates compose with relational operations. This crate
//! closes the loop: a small SQL dialect is parsed and **compiled into the
//! relational calculus**, where string predicates compose freely, the
//! minimal sufficient calculus is inferred ([`CompiledSql::calculus`]),
//! and evaluation is exact via the automata engine.
//!
//! ```sql
//! SELECT f.name FROM faculty f
//! WHERE f.name LIKE 'ab%'                 -- RC(S)
//!   AND f.name SIMILAR TO '(ab)*'         -- RC(S_reg)
//!   AND LENGTH(f.name) <= LENGTH(f.dept)  -- RC(S_len)
//!   AND TRIM(LEADING 'a' FROM f.name) = f.nick   -- RC(S_left)
//!   AND EXISTS (SELECT d.head FROM dept d WHERE d.head = f.name)
//! ```
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! select  ::= SELECT colref (',' colref)* FROM table (',' table)*
//!             (WHERE cond)?
//! table   ::= ident ident?                       -- name + optional alias
//! cond    ::= disjunctions/conjunctions/NOT/parens over predicates
//! pred    ::= term (NOT)? LIKE 'pattern'
//!           | term (NOT)? SIMILAR TO 'pattern'
//!           | term ('=' | '<' | '<=') term       -- <, <= lexicographic
//!           | PREFIX '(' term ',' term ')'       -- the ⪯ relation
//!           | LENGTH '(' term ')' ('=' | '<' | '<=') LENGTH '(' term ')'
//!           | EXISTS '(' select ')'
//!           | term IN '(' select ')'
//! term    ::= colref | 'literal' | TRIM '(' LEADING 'c' FROM term ')'
//! colref  ::= ident ('.' ident)?
//! ```

// Panic-audit round 8: the SQL front-end is user-facing — a malformed
// statement must surface as a typed `SqlError`, never a panic. Test
// modules opt back in locally.
#![deny(clippy::unwrap_used)]

mod compilepipe;
mod parser;

pub use compilepipe::{compile_select, compile_select_with, CompileOptions, CompiledSql};
pub use parser::{
    parse_select, Catalog, Cond, Select, SqlError, SqlErrorKind, SqlTerm, TableRef,
    MAX_NESTING_DEPTH,
};

use strcalc_alphabet::Alphabet;
use strcalc_core::{CoreError, EvalOutput, ExecCx, ExecReport, Planner};
use strcalc_relational::Database;

/// End-to-end: parse, compile, plan, and evaluate a SELECT statement.
/// Evaluation is routed through the query [`Planner`], so the SQL
/// pipeline shares its strategy decision with every other entry point,
/// and runs under `cx` (see [`strcalc_core::Plan::execute_in`]):
/// [`ExecCx::production`] runs under the plan's own seeded budget, and
/// a multi-tenant caller hands its quota in with
/// [`ExecCx::with_budget`]. The returned [`ExecReport`] carries the
/// execution verdict, any SA4xx degradation events, and the per-node
/// budget ledger; a caller that must not serve degraded answers passes
/// a budget with [`strcalc_core::DegradationPolicy::Fail`] and maps the
/// resulting `CoreError::BudgetExhausted` to its own admission error.
pub fn run_sql(
    alphabet: &Alphabet,
    catalog: &Catalog,
    db: &Database,
    sql: &str,
    cx: &ExecCx,
) -> Result<(CompiledSql, EvalOutput, ExecReport), SqlRunError> {
    let stmt = parse_select(alphabet, sql)?;
    let compiled = compile_select(alphabet, catalog, &stmt)?;
    let plan = compiled.plan(&Planner::new())?;
    let (out, report) = plan.execute_in(db, cx)?;
    Ok((compiled, out, report))
}

/// Errors from the full SQL pipeline.
#[derive(Debug)]
pub enum SqlRunError {
    Sql(SqlError),
    Eval(CoreError),
}

impl std::fmt::Display for SqlRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlRunError::Sql(e) => write!(f, "{e}"),
            SqlRunError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlRunError {}

impl From<SqlError> for SqlRunError {
    fn from(e: SqlError) -> Self {
        SqlRunError::Sql(e)
    }
}

impl From<CoreError> for SqlRunError {
    fn from(e: CoreError) -> Self {
        SqlRunError::Eval(e)
    }
}
