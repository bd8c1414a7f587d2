//! Property-based differential testing of the synchronized-automata
//! layer against brute-force reference semantics: random trees of atoms
//! and first-order operations, checked pointwise on all small tuples.
//! The DFA reader ([`SyncNfa::to_dfa`]) is also checked against a
//! reference that determinizes and trims on every call.

use std::collections::BTreeSet;

use proptest::prelude::*;
use strcalc_alphabet::{Alphabet, Str};
use strcalc_synchro::{atoms, conv, ConvSym, SyncFiniteness, SyncNfa};

/// A tiny relational "expression" language we can interpret both as an
/// automaton and as a predicate on (x, y).
#[derive(Debug, Clone)]
enum Expr {
    Prefix,       // x ⪯ y
    StrictPrefix, // x ≺ y
    Eq,           // x = y
    El,           // |x| = |y|
    LastA(bool),  // L_a(x) or L_a(y)
    Lex,          // x ≤lex y
    PrependsA,    // y = a·x
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::Prefix),
        Just(Expr::StrictPrefix),
        Just(Expr::Eq),
        Just(Expr::El),
        Just(Expr::LastA(false)),
        Just(Expr::LastA(true)),
        Just(Expr::Lex),
        Just(Expr::PrependsA),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Expr::Not(Box::new(a))),
        ]
    })
}

fn to_auto(e: &Expr) -> SyncNfa {
    match e {
        Expr::Prefix => atoms::prefix(2, 0, 1),
        Expr::StrictPrefix => atoms::strict_prefix(2, 0, 1),
        Expr::Eq => atoms::eq(2, 0, 1),
        Expr::El => atoms::el(2, 0, 1),
        Expr::LastA(on_y) => atoms::last_sym(2, if *on_y { 1 } else { 0 }, 0),
        Expr::Lex => atoms::lex_leq(2, 0, 1),
        Expr::PrependsA => atoms::prepend_sym(2, 0, 1, 0),
        Expr::And(a, b) => to_auto(a).intersect(&to_auto(b)).unwrap(),
        Expr::Or(a, b) => to_auto(a).union(&to_auto(b)).unwrap(),
        Expr::Not(a) => {
            // Complement relative to both tracks: cylindrify first so the
            // complement space is always (x, y).
            let inner = to_auto(a).cylindrify(&[0, 1]).unwrap();
            inner.complement(100_000).unwrap()
        }
    }
}

fn truth(e: &Expr, x: &Str, y: &Str) -> bool {
    match e {
        Expr::Prefix => x.is_prefix_of(y),
        Expr::StrictPrefix => x.is_strict_prefix_of(y),
        Expr::Eq => x == y,
        Expr::El => x.len() == y.len(),
        Expr::LastA(on_y) => (if *on_y { y } else { x }).last() == Some(0),
        Expr::Lex => x.lex_cmp(y) != std::cmp::Ordering::Greater,
        Expr::PrependsA => *y == x.prepend(0),
        Expr::And(a, b) => truth(a, x, y) && truth(b, x, y),
        Expr::Or(a, b) => truth(a, x, y) || truth(b, x, y),
        Expr::Not(a) => !truth(a, x, y),
    }
}

fn all_strings(n: usize) -> Vec<Str> {
    Alphabet::ab().strings_up_to(n).collect()
}

/// `{ s : |s| ≤ n }` on one track (local helper; the logic crate has the
/// canonical version, but depending on it here would be a dev-cycle).
fn len_at_most(var: u32, n: usize) -> SyncNfa {
    let mut a = SyncNfa::empty(2, vec![var]);
    let states: Vec<_> = (0..=n).map(|_| a.add_state(true)).collect();
    a.starts = vec![states[0]];
    for i in 0..n {
        for s in 0..2u8 {
            a.add_edge(
                states[i],
                strcalc_synchro::conv::pack(&[Some(s)]),
                states[i + 1],
            );
        }
    }
    a
}

/// A random synchronized NFA built from `e`: the binary relation itself
/// (union makes it nondeterministic), its projection onto `x` (the pad
/// closure adds more nondeterminism), or either cut to strings of
/// length ≤ 2 (finite).
fn arb_nfa() -> impl Strategy<Value = SyncNfa> {
    (arb_expr(), 0..4u8).prop_map(|(e, shape)| {
        let auto = to_auto(&e).cylindrify(&[0, 1]).unwrap();
        let bound = len_at_most(0, 2).intersect(&len_at_most(1, 2)).unwrap();
        match shape {
            0 => auto,
            1 => auto.project(1).unwrap(),
            2 => auto.intersect(&bound).unwrap(),
            _ => auto.intersect(&bound).unwrap().project(1).unwrap(),
        }
    })
}

/// The reading each call made before the DFA was kept: determinize and
/// trim afresh, then walk the result breadth first.
fn reference_enumerate(a: &SyncNfa, max_len: usize, limit: usize) -> Vec<Vec<Str>> {
    let d = a.determinize().trim();
    let mut out = Vec::new();
    let mut frontier: Vec<(u32, Vec<ConvSym>)> =
        d.starts.iter().map(|&s| (s, Vec::new())).collect();
    for _ in 0..=max_len {
        for (q, w) in &frontier {
            if d.accepting[*q as usize] {
                out.push(conv::deconvolve(w, d.arity()));
                if out.len() >= limit {
                    return out;
                }
            }
        }
        let mut next = Vec::new();
        for (q, w) in &frontier {
            for (&sym, ts) in &d.trans[*q as usize] {
                for &t in ts {
                    let mut w2 = w.clone();
                    w2.push(sym);
                    next.push((t, w2));
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    out
}

/// The finiteness verdict of a fresh determinize-and-trim, decided by
/// peeling states of in-degree zero (Kahn): states left over lie on or
/// behind a cycle, and every trimmed state is useful, so the language is
/// infinite; otherwise accepted words are counted along the peel order.
fn reference_finiteness(a: &SyncNfa) -> SyncFiniteness {
    let d = a.determinize().trim();
    if !d.accepting.iter().any(|&acc| acc) {
        return SyncFiniteness::Empty;
    }
    let n = d.num_states();
    let mut indegree = vec![0usize; n];
    for ts in d.trans.iter().flat_map(|m| m.values()) {
        for &t in ts {
            indegree[t as usize] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&q| indegree[q] == 0).collect();
    let mut order = Vec::new();
    while let Some(q) = ready.pop() {
        order.push(q);
        for ts in d.trans[q].values() {
            for &t in ts {
                indegree[t as usize] -= 1;
                if indegree[t as usize] == 0 {
                    ready.push(t as usize);
                }
            }
        }
    }
    if order.len() < n {
        return SyncFiniteness::Infinite;
    }
    let mut paths = vec![0u64; n];
    for &s in &d.starts {
        paths[s as usize] = 1;
    }
    let mut count = 0u64;
    for &q in &order {
        if d.accepting[q] {
            count += paths[q];
        }
        for ts in d.trans[q].values() {
            for &t in ts {
                paths[t as usize] += paths[q];
            }
        }
    }
    SyncFiniteness::Finite(count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dfa_reader_matches_per_call_determinization(a in arb_nfa()) {
        let dfa = a.to_dfa();
        let verdict = dfa.finiteness();
        prop_assert_eq!(verdict, reference_finiteness(&a));
        match verdict {
            SyncFiniteness::Infinite => {
                // The answer reader's infinite sample: the first tuples in
                // the same order, so answers and EXPLAIN samples repeat.
                prop_assert_eq!(dfa.enumerate(6, 5), reference_enumerate(&a, 6, 5));
                prop_assert!(dfa.try_enumerate_finite().is_err());
            }
            SyncFiniteness::Empty | SyncFiniteness::Finite(_) => {
                let got = dfa.try_enumerate_finite().unwrap();
                let want = reference_enumerate(&a, usize::MAX, usize::MAX);
                let got_set: BTreeSet<&Vec<Str>> = got.iter().collect();
                let want_set: BTreeSet<&Vec<Str>> = want.iter().collect();
                prop_assert_eq!(got_set, want_set);
                prop_assert_eq!(got.len(), want.len(), "no tuple twice");
                prop_assert_eq!(dfa.enumerate_acyclic(), got.clone());
                for t in &got {
                    let refs: Vec<&Str> = t.iter().collect();
                    prop_assert!(a.accepts(&refs) && dfa.accepts(&refs));
                }
            }
        }
        prop_assert_eq!(a.finiteness(), verdict);
    }

    #[test]
    fn boolean_trees_match_reference(e in arb_expr()) {
        let auto = to_auto(&e).cylindrify(&[0, 1]).unwrap();
        for x in all_strings(3) {
            for y in all_strings(3) {
                prop_assert_eq!(
                    auto.accepts(&[&x, &y]),
                    truth(&e, &x, &y),
                    "expr {:?} on ({}, {})", e, x, y
                );
            }
        }
    }

    #[test]
    fn projection_is_existential(e in arb_expr()) {
        let auto = to_auto(&e).cylindrify(&[0, 1]).unwrap();
        let proj = auto.project(1).unwrap();
        // ∃y within a length window large enough for these atoms: every
        // atom relates strings whose lengths differ by ≤ 1, and the
        // boolean closure keeps witnesses near the diagonal; length
        // n + 4 is a safe exhaustive window for |x| ≤ 3... except
        // complements, which can make every long y a potential witness — so
        // test soundness one way and completeness via the automaton.
        for x in all_strings(3) {
            let by_auto = proj.accepts(&[&x]);
            let witness_exists = all_strings(5).iter().any(|y| truth(&e, &x, y));
            if witness_exists {
                prop_assert!(by_auto, "missed witness for {:?} at {}", e, x);
            }
            if !by_auto {
                // No witness at all (the automaton is exact).
                prop_assert!(!witness_exists);
            }
        }
    }

    #[test]
    fn minimize_preserves_language(e in arb_expr()) {
        let auto = to_auto(&e).cylindrify(&[0, 1]).unwrap();
        let min = auto.minimize();
        for x in all_strings(3) {
            for y in all_strings(3) {
                prop_assert_eq!(auto.accepts(&[&x, &y]), min.accepts(&[&x, &y]));
            }
        }
        prop_assert!(min.num_states() <= auto.determinize().num_states());
    }

    #[test]
    fn finiteness_counts_are_exact_on_bounded_exprs(e in arb_expr()) {
        // Intersect with a length bound to force finiteness, then count.
        let bound = len_at_most(0, 2).intersect(&len_at_most(1, 2)).unwrap();
        let auto = to_auto(&e).cylindrify(&[0, 1]).unwrap().intersect(&bound).unwrap();
        match auto.finiteness() {
            SyncFiniteness::Infinite => prop_assert!(false, "bounded language cannot be infinite"),
            SyncFiniteness::Empty => {
                for x in all_strings(2) {
                    for y in all_strings(2) {
                        prop_assert!(!truth(&e, &x, &y) || x.len() > 2 || y.len() > 2);
                    }
                }
            }
            SyncFiniteness::Finite(n) => {
                let mut count = 0u64;
                for x in all_strings(2) {
                    for y in all_strings(2) {
                        if truth(&e, &x, &y) {
                            count += 1;
                        }
                    }
                }
                prop_assert_eq!(n, count, "count mismatch for {:?}", e);
            }
        }
    }

    #[test]
    fn exists_inf_matches_unbounded_growth(e in arb_expr()) {
        // ∃^∞y: x belongs iff the y-section is infinite. Reference: the
        // section is infinite iff it contains some y with |y| in a window
        // beyond any finite bound — approximate by "has a witness longer
        // than 4" OR verified directly via automaton section finiteness.
        let auto = to_auto(&e).cylindrify(&[0, 1]).unwrap();
        let inf = auto.exists_inf(&[1]).unwrap();
        for x in all_strings(2) {
            // Exact reference: fix x by intersecting with const, project
            // to y, ask finiteness.
            let fixed = auto
                .intersect(&atoms::const_eq(2, 0, &x))
                .unwrap()
                .project(0)
                .unwrap();
            let section_infinite =
                matches!(fixed.finiteness(), SyncFiniteness::Infinite);
            prop_assert_eq!(
                inf.accepts(&[&x]),
                section_infinite,
                "∃^∞ mismatch for {:?} at {}", e, x
            );
        }
    }
}
