//! Language facts shared by the passes of one analysis.
//!
//! The signature, range-restriction and fragment passes all ask the same
//! two questions about every `in`/`pl` language: is it finite, and is it
//! star-free? [`LangTable::build`] compiles each distinct language of the
//! formula to its DFA exactly once and records its finiteness, so the
//! passes read verdicts instead of re-determinizing. Star-freeness is
//! decided on first request, since only some passes ask for it. The
//! planner's relational route reads the same table: which languages are
//! finite decides which atoms can generate values, and the DFAs are the
//! ones its filters run. The table lives for one formula only: nothing
//! is shared across statements.

use std::cell::OnceCell;
use std::collections::HashMap;

use strcalc_alphabet::Sym;
use strcalc_automata::dfa::Finiteness;
use strcalc_automata::starfree::is_star_free;
use strcalc_automata::{AutomataError, Dfa, Regex};
use strcalc_logic::{Atom, Formula, Lang};

/// What the passes need to know about one language.
struct LangFacts {
    dfa: Dfa,
    /// The language is finite (or empty).
    finite: bool,
    /// Star-freeness of the language, or the monoid-cap error when the
    /// decision procedure gave up; decided on first request.
    star_free: OnceCell<Result<bool, AutomataError>>,
}

/// The facts of every language of one formula, keyed by regex.
pub struct LangTable {
    facts: HashMap<Regex, LangFacts>,
    /// Monoid size at which the star-freeness decision gives up.
    monoid_cap: usize,
}

impl LangTable {
    /// Compiles each distinct language of `f` once over a `k`-symbol
    /// alphabet and decides its finiteness.
    pub fn build(f: &Formula, k: Sym) -> LangTable {
        let mut facts = HashMap::new();
        f.visit(&mut |g| {
            if let Formula::Atom(Atom::InLang(_, l) | Atom::PL(_, _, l)) = g {
                if !facts.contains_key(&l.regex) {
                    let dfa = l.to_dfa(k);
                    let finite =
                        matches!(dfa.finiteness(), Finiteness::Empty | Finiteness::Finite(_));
                    let star_free = OnceCell::new();
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
        LangTable {
            facts,
            monoid_cap: 100_000,
        }
    }

    /// Sets the monoid size at which star-freeness decisions give up.
    pub(crate) fn monoid_cap(mut self, cap: usize) -> LangTable {
        self.monoid_cap = cap;
        self
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
        let facts = self
            .facts
            .get(&l.regex)
            .expect("every language of the analyzed formula is in its table");
        facts
            .star_free
            .get_or_init(|| is_star_free(&facts.dfa, self.monoid_cap))
    }
}
