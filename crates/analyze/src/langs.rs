//! Language facts shared by the passes of one analysis.
//!
//! The signature, range-restriction and fragment passes all ask the same
//! two questions about every `in`/`pl` language: is it finite, and is it
//! star-free? [`LangTable::build`] compiles each distinct language of the
//! formula to its minimal DFA exactly once and records both answers, so
//! the passes read verdicts instead of re-determinizing. The table lives
//! for one analysis only: nothing is shared across statements.

use std::collections::HashMap;

use strcalc_alphabet::Sym;
use strcalc_automata::dfa::Finiteness;
use strcalc_automata::starfree::is_star_free;
use strcalc_automata::{AutomataError, Regex};
use strcalc_logic::{Atom, Formula, Lang};

/// What the passes need to know about one language.
pub(crate) struct LangFacts {
    /// The language is finite (or empty).
    pub(crate) finite: bool,
    /// Star-freeness of the language, or the monoid-cap error when the
    /// decision procedure gave up.
    pub(crate) star_free: Result<bool, AutomataError>,
}

/// The facts of every language of one formula, keyed by regex.
pub(crate) struct LangTable {
    facts: HashMap<Regex, LangFacts>,
}

impl LangTable {
    /// Compiles each distinct language of `f` once over a `k`-symbol
    /// alphabet, deciding star-freeness under `monoid_cap`.
    pub(crate) fn build(f: &Formula, k: Sym, monoid_cap: usize) -> LangTable {
        let mut facts = HashMap::new();
        f.visit(&mut |g| {
            if let Formula::Atom(Atom::InLang(_, l) | Atom::PL(_, _, l)) = g {
                if !facts.contains_key(&l.regex) {
                    let dfa = l.to_dfa(k);
                    let finite =
                        matches!(dfa.finiteness(), Finiteness::Empty | Finiteness::Finite(_));
                    let star_free = is_star_free(&dfa, monoid_cap);
                    facts.insert(l.regex.clone(), LangFacts { finite, star_free });
                }
            }
        });
        LangTable { facts }
    }

    /// The facts of `l`, which must occur in the formula the table was
    /// built from.
    pub(crate) fn get(&self, l: &Lang) -> &LangFacts {
        self.facts
            .get(&l.regex)
            .expect("every language of the analyzed formula is in its table")
    }
}
