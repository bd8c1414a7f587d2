//! The fact sheet of one query: what analysis decides about a formula
//! once, without a database. `strcalc_core::Query` builds one when it is
//! constructed; the diagnostic passes, routing, lowering, planlint,
//! EXPLAIN and the cache key read it instead of re-deriving.

use strcalc_alphabet::Sym;
use strcalc_logic::{Formula, StructureClass};

use crate::fragments::{eval_class, EvalClass};
use crate::langs::LangTable;
use crate::signature;

/// What analysis knows about one formula and head.
#[derive(Debug)]
pub struct FactSheet {
    /// Each distinct `in`/`pl` language, compiled once with its
    /// finiteness and star-freeness decided.
    pub langs: LangTable,
    /// The least structure class covering the formula; a language
    /// whose star-freeness is undecided counts as `S_reg`.
    pub inferred: StructureClass,
    /// The evaluation class; a scan-shaped class carries the scan plan,
    /// projected onto the head.
    pub class: EvalClass,
    /// The α-invariant formula fingerprint.
    pub fingerprint: u64,
    /// The fingerprint of [`FactSheet::class`].
    pub class_fingerprint: u64,
}

impl FactSheet {
    /// The sheet of formula `f` with output columns `head` over a
    /// `k`-symbol alphabet.
    pub fn build(f: &Formula, head: &[String], k: Sym) -> FactSheet {
        let langs = LangTable::build(f, k);
        let class = eval_class(head, f);
        FactSheet {
            inferred: signature::inferred(f, &langs),
            langs,
            class_fingerprint: class.fingerprint(),
            class,
            fingerprint: strcalc_logic::fingerprint(f),
        }
    }

    /// Whether a concatenation atom appears in the formula.
    pub fn contains_concat(&self) -> bool {
        matches!(self.class, EvalClass::ConcatBounded)
    }
}
