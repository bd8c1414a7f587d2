//! Synchronized multi-track automata over padded convolutions.
//!
//! This crate is the engine room of the reproduction. The paper's four
//! tame structures — `S`, `S_left`, `S_reg`, `S_len` — are **automatic
//! structures**: every atomic relation (`⪯`, `L_a`, `el`, the graph of
//! `f_a`, `P_L`, `≤_lex`, …) is recognized by a finite automaton reading
//! the *convolution* of its arguments: the argument strings written one
//! per track and padded with `⊥` to a common length. (By contrast, the
//! graph of concatenation is **not** a synchronized-regular relation —
//! which is the formal boundary behind Proposition 1's computational
//! completeness of `RC_concat`.)
//!
//! First-order logic over automatic structures is decidable by the
//! classical closure argument, implemented here on [`SyncNfa`]:
//!
//! * conjunction → synchronized product ([`SyncNfa::intersect`]),
//! * disjunction → union ([`SyncNfa::union`]),
//! * negation → determinize + complement within the valid padded words
//!   ([`SyncNfa::complement`]),
//! * `∃x` → track projection + pad-closure ([`SyncNfa::project`]),
//! * `∃^∞ x` (infinitely many witnesses) → [`SyncNfa::exists_inf`], the
//!   construction powering the paper's conjunctive-query safety decision
//!   (Theorem 5).
//!
//! Because a *finite database relation* is itself a regular language of
//! convolutions ([`atoms::finite_relation`]), an entire `RC(SC, M)` query
//! over a concrete database compiles to one [`SyncNfa`] recognizing
//! exactly its output under the natural (infinite-domain) semantics. The
//! paper's **state-safety** decision (Proposition 7) is then literally
//! [`SyncNfa::finiteness`], read off the determinized, trimmed
//! [`SyncDfa`] that [`SyncNfa::to_dfa`] builds once.

pub mod atoms;
pub mod conv;
pub mod dfa;
pub mod nfa;

pub use conv::{ConvSym, TrackVec, MAX_TRACKS, PAD};
pub use dfa::SyncDfa;
pub use nfa::{SyncFiniteness, SyncNfa, Var};

use std::fmt;

/// Errors from the synchronized-automata layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynchroError {
    /// More tracks requested than [`MAX_TRACKS`]. Each *subformula* only
    /// carries its free variables, so this triggers only for formulas with
    /// more than eight free variables in a single subformula.
    TooManyTracks(usize),
    /// A complement/completion would enumerate more than the configured
    /// cap of convolution symbols.
    SymbolSpaceTooLarge { syms: usize, cap: usize },
    /// Mismatched alphabet sizes between combined automata.
    AlphabetMismatch { left: u8, right: u8 },
    /// A variable was expected on (or off) the automaton's track list.
    BadVariable(Var),
    /// Full enumeration was requested for an automaton whose language is
    /// infinite (see [`nfa::SyncNfa::try_enumerate_finite`]).
    InfiniteLanguage,
}

impl fmt::Display for SynchroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynchroError::TooManyTracks(n) => {
                write!(f, "{n} tracks exceed the maximum of {MAX_TRACKS}")
            }
            SynchroError::SymbolSpaceTooLarge { syms, cap } => {
                write!(f, "symbol space of {syms} exceeds cap {cap}")
            }
            SynchroError::AlphabetMismatch { left, right } => {
                write!(f, "alphabet size mismatch: {left} vs {right}")
            }
            SynchroError::BadVariable(v) => write!(f, "variable {v} not valid here"),
            SynchroError::InfiniteLanguage => {
                write!(f, "cannot fully enumerate an infinite language")
            }
        }
    }
}

impl std::error::Error for SynchroError {}
