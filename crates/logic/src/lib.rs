//! First-order logic over the string structures of the paper.
//!
//! The paper studies relational calculus `RC(SC, M)` where `M` ranges over
//!
//! * `S       = (Σ*, ≺, (L_a)_{a∈Σ})`
//! * `S_left  = S + (F_a)_{a∈Σ}`            (graph of `x ↦ a·x`)
//! * `S_reg   = S + (P_L)_{L regular}`
//! * `S_len   = S + el`                      (equal length)
//! * `S_concat` (the cautionary, computationally complete extension)
//!
//! This crate provides the shared formula language: [`Term`]s (variables,
//! constants, and the string functions `l_a`, `f_a`, `TRIM_a` which lower
//! to relational atoms), [`Atom`]s for every primitive of every structure,
//! [`Formula`]s with both unrestricted and *restricted* quantifiers (the
//! paper's `∃x ∈ adom`, `∃x ∈ dom↓`, `∃|x| ≤ adom`), a concrete-syntax
//! [`parser`], transformations (negation normal form, bound-variable
//! freshening, quantifier rank), and the lattice of structures of
//! Figure 1 ([`StructureClass`]) with the least class each atom and term
//! fits into ([`atom_class`], [`term_class`]).

pub mod compile;
pub mod formula;
pub mod intern;
pub mod parser;
pub mod rewrite;
pub mod transform;

pub use compile::{CompileError, Compiled, Compiler, RelResolver, Resolved};
pub use formula::{Atom, Formula, Lang, Restrict, Term};
pub use intern::{alpha_eq, fingerprint, lang_fingerprint, Fp};
pub use parser::{parse_formula, MAX_NESTING_DEPTH};
pub use rewrite::{RewriteStep, RewriteTrace, Rewriter, TraceEntry};
pub use transform::{atom_class, term_class, StructureClass};

use std::fmt;

/// Errors from formula construction, parsing and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicError {
    /// Concrete-syntax parse failure.
    Parse { pos: usize, msg: String },
    /// A regex inside `in`/`pl` failed to parse or compile.
    Lang(String),
    /// The input nests deeper than [`MAX_NESTING_DEPTH`] (parentheses,
    /// negations, quantifier bodies, implication chains, term functions,
    /// or a regex literal's groups); `pos` is where the limit was
    /// crossed.
    NestingTooDeep { pos: usize, limit: usize },
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::Parse { pos, msg } => write!(f, "parse error at {pos}: {msg}"),
            LogicError::Lang(msg) => write!(f, "language error: {msg}"),
            LogicError::NestingTooDeep { pos, limit } => {
                write!(
                    f,
                    "parse error at {pos}: nesting deeper than {limit} levels"
                )
            }
        }
    }
}

impl std::error::Error for LogicError {}
