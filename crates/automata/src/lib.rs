//! Regular-language machinery for the string calculi.
//!
//! The paper's structures are built from predicates whose unary slices are
//! *star-free* (`S`, `S_left`) or *regular* (`S_reg`, `S_len`) languages:
//!
//! * `S` definable subsets of `Σ*` are exactly the star-free languages
//!   (Section 4), and SQL `LIKE` patterns denote star-free languages;
//! * `S_reg` adds the predicates `P_L` for every **regular** `L`
//!   (Section 7), covering SQL3's `SIMILAR` matching;
//! * `S_len` definable subsets of `Σ*` are exactly the regular languages.
//!
//! This crate supplies that substrate: regular expressions ([`Regex`]),
//! nondeterministic and deterministic automata ([`Nfa`], [`Dfa`]), boolean
//! closure, minimization, decision procedures (emptiness, finiteness,
//! universality, equivalence), shortlex enumeration, the **aperiodicity
//! test** that decides star-freeness ([`starfree::is_star_free`]), and
//! compilers from SQL `LIKE` ([`like::compile_like`]) and `SIMILAR`
//! ([`similar::compile_similar`]) patterns.

pub mod dense;
pub mod derivative;
pub mod dfa;
pub mod like;
pub mod nfa;
pub mod regex;
pub mod similar;
pub mod starfree;
pub mod toregex;

pub use dense::DenseDfa;
pub use dfa::Dfa;
pub use like::{compile_like, LikePattern};
pub use nfa::Nfa;
pub use regex::Regex;
pub use similar::compile_similar;
pub use toregex::dfa_to_regex;

use std::fmt;

/// The deepest nesting the parsers of this workspace accept. In a
/// regex or `SIMILAR` pattern each group and each postfix operator on a
/// factor opens one level. The formula and SQL parsers re-export the
/// same cap as `strcalc_logic::MAX_NESTING_DEPTH`; there each
/// parenthesis, negation, quantifier body, implication, term function
/// and (in SQL) subquery opens one level, and so does each link of an
/// `&`, `|` or `<->` chain. Deeper input is refused with a typed error
/// instead of exhausting the stack of the recursive-descent parsers (or
/// of the recursive passes after them). The cap fits an 8 MiB stack — a
/// main thread's usual size — even in unoptimized builds.
pub const MAX_NESTING_DEPTH: usize = 512;

/// The most regex nodes one pattern may build. The regex and `SIMILAR`
/// parsers count the nodes as they build the tree, the copies an
/// operator makes included: `r+` is `r·r*` and copies `r` once, `r{n}`
/// copies it `n − 1` times (for `{n,m}` the count is an upper bound).
/// The count is checked before each copy is made, so a pattern past the
/// cap is refused with [`AutomataError::PatternTooLarge`] instead of
/// building a tree exponential in its length (`a++…+`) or linear in a
/// count it names (`a{1000000}`). A regex literal of up to 32 768
/// symbols fits.
pub const MAX_PATTERN_NODES: usize = 1 << 16;

/// The most cells the star-freeness decision
/// ([`starfree::is_star_free`]) may hold: each element of the
/// transition monoid it explores is a map `Q → Q` of `|Q|` cells, so
/// this bounds elements × `|Q|`, that is the decision's memory. A
/// language whose monoid does not fit is refused with
/// [`AutomataError::MonoidTooLarge`]; readers then take it to be not
/// star-free, which `S_reg` admits.
pub const MAX_MONOID_CELLS: usize = 1 << 24;

/// Runs `f` on a thread with the 8 MiB stack [`MAX_NESTING_DEPTH`] is
/// sized for: unoptimized builds overflow the test harness's 2 MiB
/// worker threads before reaching the cap.
#[cfg(test)]
pub(crate) fn with_main_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic");
}

/// State identifier within an automaton.
pub type StateId = u32;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutomataError {
    /// A regex / pattern failed to parse.
    Parse { pos: usize, msg: String },
    /// The transition monoid explored by the aperiodicity test holds
    /// more than [`MAX_MONOID_CELLS`] cells.
    MonoidTooLarge { limit: usize },
    /// A symbol was out of range for the automaton's alphabet size.
    SymOutOfRange(u8),
    /// A pattern nests deeper than [`MAX_NESTING_DEPTH`] levels; `pos`
    /// is where the limit was crossed.
    NestingTooDeep { pos: usize, limit: usize },
    /// A pattern builds more than [`MAX_PATTERN_NODES`] regex nodes;
    /// `pos` is where the limit was crossed.
    PatternTooLarge { pos: usize, limit: usize },
}

impl fmt::Display for AutomataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutomataError::Parse { pos, msg } => write!(f, "parse error at {pos}: {msg}"),
            AutomataError::MonoidTooLarge { limit } => {
                write!(
                    f,
                    "the transition monoid holds more than {limit} cells (elements × states)"
                )
            }
            AutomataError::SymOutOfRange(s) => write!(f, "symbol {s} out of alphabet range"),
            AutomataError::NestingTooDeep { pos, limit } => {
                write!(
                    f,
                    "parse error at {pos}: nesting deeper than {limit} levels"
                )
            }
            AutomataError::PatternTooLarge { pos, limit } => {
                write!(
                    f,
                    "parse error at {pos}: the pattern builds more than {limit} regex nodes"
                )
            }
        }
    }
}

impl std::error::Error for AutomataError {}
