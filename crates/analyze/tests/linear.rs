//! Regression tests for exponential blow-up in the analyzer.
//!
//! Range restriction iterates a fixpoint over every `∧` chain, and the
//! fragment pass reads each node's safe-range verdict from that walk. A
//! fixpoint that re-ran every nested `∧` on each outer round, or a
//! fragment pass that re-derived safety per node, costs exponential
//! time in the nesting depth: neither formula below would finish. Both
//! must complete in well under a second, and their verdicts are checked
//! so the speed does not come from skipping work.

use strcalc_alphabet::Alphabet;
use strcalc_analyze::{Analyzer, Code};
use strcalc_automata::Regex;
use strcalc_logic::{Formula, Lang, StructureClass, Term};

/// The prefix pattern `w%` for the five-letter binary spelling of `i`:
/// 32 distinct infinite languages.
fn prefix_lang(i: usize) -> Lang {
    let word: String = (0..5)
        .map(|bit| if i >> bit & 1 == 1 { 'b' } else { 'a' })
        .collect();
    let src = format!("{word}.*");
    let re = Regex::parse(&Alphabet::ab(), &src).expect("prefix pattern parses");
    Lang::named(src, re)
}

fn var(i: usize) -> Term {
    Term::var(format!("x{i}"))
}

#[test]
fn long_conjunction_chain_is_analyzed_in_one_fixpoint() {
    // x0 ⪯ x1 ∧ in(x0, L0) ∧ … ∧ x30 ⪯ x31 ∧ in(x30, L30) ∧ in(x31, L31)
    // ∧ R(x31): 64 conjuncts, restricted by nothing but the last one, so
    // restriction flows right to left, one variable a round.
    let f = (0..31)
        .flat_map(|i| {
            [
                Formula::prefix(var(i), var(i + 1)),
                Formula::in_lang(var(i), prefix_lang(i)),
            ]
        })
        .chain([
            Formula::in_lang(var(31), prefix_lang(31)),
            Formula::rel("R", vec![var(31)]),
        ])
        .reduce(Formula::and)
        .expect("nonempty chain");

    let analysis = Analyzer::new(StructureClass::SReg).analyze(&Alphabet::ab(), &f);
    assert!(analysis.safe_range.unrestricted_free.is_empty());
    assert_eq!(analysis.safe_range.restricted.len(), 32);
    assert_eq!(analysis.with_code(Code::LikeLinearClass).count(), 32);
    assert!(analysis.fragment.root.safe_range);
    assert_eq!(analysis.fragment.table.len(), f.size());
    assert!(analysis.fragment.table.iter().all(|(_, p)| p.safe_range));
}

#[test]
fn deep_existential_nest_is_analyzed_once_per_level() {
    // ∃x1. (R(x1) ∧ x0 ⪯ x1 ∧ in(x1, L1) ∧ ∃x2. (R(x2) ∧ x1 ⪯ x2 ∧ …)),
    // twelve levels deep; x0 is free and restricted through x1.
    let depth = 12;
    let mut body = Formula::rel("R", vec![var(depth)])
        .and(Formula::prefix(var(depth - 1), var(depth)))
        .and(Formula::in_lang(var(depth), prefix_lang(depth)));
    for i in (1..depth).rev() {
        body = Formula::rel("R", vec![var(i)])
            .and(Formula::prefix(var(i - 1), var(i)))
            .and(Formula::in_lang(var(i), prefix_lang(i)))
            .and(Formula::exists(format!("x{}", i + 1), body));
    }
    let f = Formula::exists("x1", body);

    let analysis = Analyzer::new(StructureClass::SReg).analyze(&Alphabet::ab(), &f);
    assert_eq!(
        analysis.safe_range.restricted.iter().collect::<Vec<_>>(),
        ["x0"]
    );
    assert_eq!(
        analysis
            .with_code(Code::QuantifierNotRangeRestricted)
            .count(),
        0
    );
    assert_eq!(analysis.with_code(Code::LikeLinearClass).count(), depth);
    assert!(analysis.fragment.root.safe_range);
    assert_eq!(analysis.fragment.table.len(), f.size());
}
