//! Language facts shared by every stage that reads one query.
//!
//! The signature, range-restriction and fragment passes all ask the same
//! two questions about every `in`/`pl` language: is it finite, and is it
//! star-free? [`LangTable::build`] compiles each distinct language of the
//! formula to its DFA exactly once and decides both, so the passes read
//! verdicts instead of re-determinizing. It is the one place a query's
//! star-freeness is decided: a LIKE-shaped language (symbols, `.` and
//! `.*`) is star-free by construction, and any other runs the
//! aperiodicity test, which gives up past
//! [`MAX_MONOID_CELLS`](strcalc_automata::MAX_MONOID_CELLS). An undecided
//! language is read as not star-free, so it types at `S_reg`, which
//! admits every regular language. The planner's relational route
//! reads the same table: which languages are finite decides which atoms
//! can generate values, and the DFAs are the ones its filters run. A
//! query's [`FactSheet`](crate::FactSheet) holds its one table; nothing
//! is shared across statements.

use std::cell::Cell;
use std::collections::HashMap;

use strcalc_alphabet::Sym;
use strcalc_automata::dfa::Finiteness;
use strcalc_automata::starfree::is_star_free;
use strcalc_automata::{AutomataError, Dfa, Regex};
use strcalc_logic::{Atom, Formula, Lang};

use crate::fragments::is_like_shaped;

thread_local! {
    static COMPILED: Cell<u64> = const { Cell::new(0) };
}

/// How many languages [`LangTable::build`] has compiled on this thread.
pub fn compiled_on_this_thread() -> u64 {
    COMPILED.with(Cell::get)
}

/// What the passes need to know about one language.
#[derive(Debug)]
struct LangFacts {
    dfa: Dfa,
    /// The language is finite (or empty).
    finite: bool,
    /// Star-freeness of the language, or the error of the aperiodicity
    /// test when its monoid did not fit.
    star_free: Result<bool, AutomataError>,
}

/// The facts of every language of one formula, keyed by regex.
#[derive(Debug)]
pub struct LangTable {
    facts: HashMap<Regex, LangFacts>,
    k: Sym,
}

impl LangTable {
    /// Compiles each distinct language of `f` once over a `k`-symbol
    /// alphabet and decides its finiteness and star-freeness.
    pub fn build(f: &Formula, k: Sym) -> LangTable {
        let mut facts = HashMap::new();
        f.visit(&mut |g| {
            if let Formula::Atom(Atom::InLang(_, l) | Atom::PL(_, _, l)) = g {
                if !facts.contains_key(&l.regex) {
                    COMPILED.with(|n| n.set(n.get() + 1));
                    let dfa = l.to_dfa(k);
                    let finite =
                        matches!(dfa.finiteness(), Finiteness::Empty | Finiteness::Finite(_));
                    let star_free = if is_like_shaped(&l.regex) {
                        Ok(true)
                    } else {
                        is_star_free(&dfa)
                    };
                    facts.insert(
                        l.regex.clone(),
                        LangFacts {
                            dfa,
                            finite,
                            star_free,
                        },
                    );
                }
            }
        });
        LangTable { facts, k }
    }

    /// The alphabet size the languages are compiled over.
    pub fn k(&self) -> Sym {
        self.k
    }

    /// Whether `l` is finite (or empty); `false` for a language the
    /// table's formula does not hold.
    pub fn finite(&self, l: &Lang) -> bool {
        self.facts.get(&l.regex).is_some_and(|facts| facts.finite)
    }

    /// The DFA of `l`, if the table's formula holds it.
    pub fn dfa(&self, l: &Lang) -> Option<&Dfa> {
        self.facts.get(&l.regex).map(|facts| &facts.dfa)
    }

    /// Star-freeness of `l`, which must occur in the formula the table
    /// was built from.
    pub(crate) fn star_free(&self, l: &Lang) -> &Result<bool, AutomataError> {
        &self
            .facts
            .get(&l.regex)
            .expect("every language of the analyzed formula is in its table")
            .star_free
    }

    /// The state count of `l`'s DFA (at least 1), which the cost
    /// estimate and the certificates charge. A language outside the
    /// table (in a plan node grafted from another query) is compiled.
    pub(crate) fn states(&self, l: &Lang) -> usize {
        let dfa = self.dfa(l).map_or_else(|| l.to_dfa(self.k).len(), Dfa::len);
        dfa.max(1)
    }
}
