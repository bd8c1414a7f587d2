//! Automata for the atomic relations of the paper's structures.
//!
//! Each constructor builds a small [`SyncNfa`] recognizing one atomic
//! relation over named variables:
//!
//! | paper predicate | constructor | structure |
//! |---|---|---|
//! | `x = y` | [`eq`] | all |
//! | `x ⪯ y` / `x ≺ y` | [`prefix`], [`strict_prefix`] | `S` |
//! | `x < y` (extension by one) | [`ext_by_one`], [`ext_by_sym`] | `S` |
//! | `L_a(x)` | [`last_sym`] | `S` |
//! | `≤_lex` | [`lex_leq`] | `S` (definable) |
//! | `F_a(x,y)`, i.e. `y = a·x` | [`prepend_sym`] | `S_left` |
//! | `P_L(x,y)` | [`p_l`] | `S_reg` |
//! | `x ∈ L` | [`in_dfa`] | `S_reg` |
//! | `el(x,y)` | [`el`] | `S_len` |
//! | `|x| ≤ |y|`, `|x| < |y|` | [`shorter_eq`], [`shorter`] | `S_len` |
//! | database relation `R(x̄)` | [`finite_relation`] | any schema |
//!
//! The collection is deliberately *relational* (graphs instead of
//! functions), following the paper's move of replacing `l_a`, `f_a` and
//! `|·|` by `L_a`, `F_a`, `el`.

// Panic audit: these constructors feed every compiled formula, so any
// potential panic must be a messaged `expect` documenting its invariant
// (tests are exempt below).
#![deny(clippy::unwrap_used)]

use strcalc_alphabet::{Str, Sym};
use strcalc_automata::Dfa;

use crate::conv;
use crate::nfa::{StateId, SyncNfa, Var};

/// The universal unary relation: every string.
pub fn all_strings(k: Sym, x: Var) -> SyncNfa {
    let mut a = SyncNfa::empty(k, vec![x]);
    let q = a.add_state(true);
    a.starts = vec![q];
    for s in 0..k {
        a.add_edge(q, conv::pack(&[Some(s)]), q);
    }
    a
}

/// The empty unary relation.
pub fn no_strings(k: Sym, x: Var) -> SyncNfa {
    let mut a = SyncNfa::empty(k, vec![x]);
    let q = a.add_state(false);
    a.starts = vec![q];
    a
}

/// Packs a two-track symbol respecting the sorted-variable track order.
fn pack2(x: Var, y: Var, xl: Option<Sym>, yl: Option<Sym>) -> conv::ConvSym {
    debug_assert_ne!(x, y);
    if x < y {
        conv::pack(&[xl, yl])
    } else {
        conv::pack(&[yl, xl])
    }
}

fn binary(k: Sym, x: Var, y: Var) -> SyncNfa {
    let mut vars = vec![x, y];
    vars.sort_unstable();
    SyncNfa::empty(k, vars)
}

/// `x = y`.
pub fn eq(k: Sym, x: Var, y: Var) -> SyncNfa {
    if x == y {
        return all_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let q = a.add_state(true);
    a.starts = vec![q];
    for s in 0..k {
        a.add_edge(q, pack2(x, y, Some(s), Some(s)), q);
    }
    a
}

/// `x ⪯ y` (non-strict prefix).
pub fn prefix(k: Sym, x: Var, y: Var) -> SyncNfa {
    if x == y {
        return all_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let eq_phase = a.add_state(true);
    let tail = a.add_state(true);
    a.starts = vec![eq_phase];
    for s in 0..k {
        a.add_edge(eq_phase, pack2(x, y, Some(s), Some(s)), eq_phase);
        a.add_edge(eq_phase, pack2(x, y, None, Some(s)), tail);
        a.add_edge(tail, pack2(x, y, None, Some(s)), tail);
    }
    a
}

/// `x ≺ y` (strict prefix).
pub fn strict_prefix(k: Sym, x: Var, y: Var) -> SyncNfa {
    if x == y {
        return no_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let eq_phase = a.add_state(false);
    let tail = a.add_state(true);
    a.starts = vec![eq_phase];
    for s in 0..k {
        a.add_edge(eq_phase, pack2(x, y, Some(s), Some(s)), eq_phase);
        a.add_edge(eq_phase, pack2(x, y, None, Some(s)), tail);
        a.add_edge(tail, pack2(x, y, None, Some(s)), tail);
    }
    a
}

/// `x < y` in the paper's sense: `y` extends `x` by exactly one symbol.
pub fn ext_by_one(k: Sym, x: Var, y: Var) -> SyncNfa {
    if x == y {
        return no_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let eq_phase = a.add_state(false);
    let done = a.add_state(true);
    a.starts = vec![eq_phase];
    for s in 0..k {
        a.add_edge(eq_phase, pack2(x, y, Some(s), Some(s)), eq_phase);
        a.add_edge(eq_phase, pack2(x, y, None, Some(s)), done);
    }
    a
}

/// The graph of `l_a`: `y = x · a`.
pub fn ext_by_sym(k: Sym, x: Var, y: Var, sym: Sym) -> SyncNfa {
    if x == y {
        return no_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let eq_phase = a.add_state(false);
    let done = a.add_state(true);
    a.starts = vec![eq_phase];
    for s in 0..k {
        a.add_edge(eq_phase, pack2(x, y, Some(s), Some(s)), eq_phase);
    }
    a.add_edge(eq_phase, pack2(x, y, None, Some(sym)), done);
    a
}

/// `L_a(x)`: the last symbol of `x` is `a` (so `x ≠ ε`).
pub fn last_sym(k: Sym, x: Var, sym: Sym) -> SyncNfa {
    let mut a = SyncNfa::empty(k, vec![x]);
    let other = a.add_state(false);
    let hit = a.add_state(true);
    a.starts = vec![other];
    for s in 0..k {
        let from_states = [other, hit];
        for f in from_states {
            let to = if s == sym { hit } else { other };
            a.add_edge(f, conv::pack(&[Some(s)]), to);
        }
    }
    a
}

/// The first symbol of `x` is `a` (so `x ≠ ε`). Definable over `S`
/// (via the covering relation from `ε`); provided as a primitive for
/// convenience.
pub fn first_sym(k: Sym, x: Var, sym: Sym) -> SyncNfa {
    let mut a = SyncNfa::empty(k, vec![x]);
    let start = a.add_state(false);
    let rest = a.add_state(true);
    a.starts = vec![start];
    a.add_edge(start, conv::pack(&[Some(sym)]), rest);
    for s in 0..k {
        a.add_edge(rest, conv::pack(&[Some(s)]), rest);
    }
    a
}

/// The graph of `f_a` (the `S_left` primitive): `y = a · x`.
pub fn prepend_sym(k: Sym, x: Var, y: Var, sym: Sym) -> SyncNfa {
    if x == y {
        return no_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let start = a.add_state(false);
    // One "carry" state per alphabet symbol: remembers x's previous letter,
    // which y must reproduce one position later.
    let carry: Vec<StateId> = (0..k).map(|_| a.add_state(false)).collect();
    let done = a.add_state(true);
    a.starts = vec![start];
    // Position 0: y reads `sym`; x reads its first letter (or pads if x=ε).
    for b in 0..k {
        a.add_edge(start, pack2(x, y, Some(b), Some(sym)), carry[b as usize]);
    }
    a.add_edge(start, pack2(x, y, None, Some(sym)), done);
    // Position i ≥ 1: y reads the carried letter; x reads its next or pads.
    for b in 0..k {
        for c in 0..k {
            a.add_edge(
                carry[b as usize],
                pack2(x, y, Some(c), Some(b)),
                carry[c as usize],
            );
        }
        a.add_edge(carry[b as usize], pack2(x, y, None, Some(b)), done);
    }
    a
}

/// `el(x, y)`: `|x| = |y]` — the `S_len` primitive.
pub fn el(k: Sym, x: Var, y: Var) -> SyncNfa {
    if x == y {
        return all_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let q = a.add_state(true);
    a.starts = vec![q];
    for s in 0..k {
        for t in 0..k {
            a.add_edge(q, pack2(x, y, Some(s), Some(t)), q);
        }
    }
    a
}

/// `|x| ≤ |y|` (definable over `S_len`; provided directly).
pub fn shorter_eq(k: Sym, x: Var, y: Var) -> SyncNfa {
    if x == y {
        return all_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let both = a.add_state(true);
    let tail = a.add_state(true);
    a.starts = vec![both];
    for s in 0..k {
        for t in 0..k {
            a.add_edge(both, pack2(x, y, Some(s), Some(t)), both);
        }
        a.add_edge(both, pack2(x, y, None, Some(s)), tail);
        a.add_edge(tail, pack2(x, y, None, Some(s)), tail);
    }
    a
}

/// `|x| < |y|`.
pub fn shorter(k: Sym, x: Var, y: Var) -> SyncNfa {
    if x == y {
        return no_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let both = a.add_state(false);
    let tail = a.add_state(true);
    a.starts = vec![both];
    for s in 0..k {
        for t in 0..k {
            a.add_edge(both, pack2(x, y, Some(s), Some(t)), both);
        }
        a.add_edge(both, pack2(x, y, None, Some(s)), tail);
        a.add_edge(tail, pack2(x, y, None, Some(s)), tail);
    }
    a
}

/// `x ≤_lex y` in the symbol order `0 < 1 < … < k−1` (formula (2) of the
/// paper shows this is definable over `S`; here it is a 4-state atom).
pub fn lex_leq(k: Sym, x: Var, y: Var) -> SyncNfa {
    if x == y {
        return all_strings(k, x);
    }
    let mut a = binary(k, x, y);
    let eq_phase = a.add_state(true); // x = y so far (accepting: x = y)
    let won = a.add_state(true); // strictly smaller at some position
    let won_x_done = a.add_state(true);
    let won_y_done = a.add_state(true);
    a.starts = vec![eq_phase];
    for s in 0..k {
        a.add_edge(eq_phase, pack2(x, y, Some(s), Some(s)), eq_phase);
        for t in (s + 1)..k {
            a.add_edge(eq_phase, pack2(x, y, Some(s), Some(t)), won);
        }
        // x is a strict prefix of y: x <lex y.
        a.add_edge(eq_phase, pack2(x, y, None, Some(s)), won_x_done);
        a.add_edge(won_x_done, pack2(x, y, None, Some(s)), won_x_done);
        // Decided states: both strings continue freely.
        for t in 0..k {
            a.add_edge(won, pack2(x, y, Some(s), Some(t)), won);
        }
        a.add_edge(won, pack2(x, y, None, Some(s)), won_x_done);
        a.add_edge(won, pack2(x, y, Some(s), None), won_y_done);
        a.add_edge(won_y_done, pack2(x, y, Some(s), None), won_y_done);
    }
    a
}

/// `x ∈ L(dfa)` — membership in a regular language (`S_reg` / `S_len`
/// definable sets; for `S` use a star-free `dfa`).
pub fn in_dfa(k: Sym, x: Var, dfa: &Dfa) -> SyncNfa {
    assert_eq!(dfa.k, k, "DFA alphabet mismatch");
    let mut a = SyncNfa::empty(k, vec![x]);
    for q in 0..dfa.len() {
        a.add_state(dfa.accepting[q]);
    }
    a.starts = vec![dfa.start];
    for (q, row) in dfa.trans.iter().enumerate() {
        for (s, t) in row.iter().enumerate() {
            if let Some(t) = t {
                a.add_edge(q as StateId, conv::pack(&[Some(s as Sym)]), *t);
            }
        }
    }
    a
}

/// `P_L(x, y)`: `x ⪯ y` and `y − x ∈ L(dfa)` — the `S_reg` primitive.
///
/// Note: non-strict `⪯`, so `P_L(x, x)` holds iff `ε ∈ L`. The paper's
/// strict variant is `P_L(x,y) ∧ x ≠ y`.
pub fn p_l(k: Sym, x: Var, y: Var, dfa: &Dfa) -> SyncNfa {
    assert_eq!(dfa.k, k, "DFA alphabet mismatch");
    if x == y {
        return if dfa.accepts(&Str::epsilon()) {
            all_strings(k, x)
        } else {
            no_strings(k, x)
        };
    }
    let mut a = binary(k, x, y);
    let nullable = dfa.accepts(&Str::epsilon());
    let eq_phase = a.add_state(nullable);
    // DFA states, offset by 1.
    for q in 0..dfa.len() {
        a.add_state(dfa.accepting[q]);
    }
    a.starts = vec![eq_phase];
    let off = 1;
    for s in 0..k {
        a.add_edge(eq_phase, pack2(x, y, Some(s), Some(s)), eq_phase);
        // Switch into the suffix phase: x pads, y feeds the DFA.
        if let Some(t) = dfa.trans[dfa.start as usize][s as usize] {
            a.add_edge(eq_phase, pack2(x, y, None, Some(s)), t + off);
        }
    }
    for (q, row) in dfa.trans.iter().enumerate() {
        for (s, t) in row.iter().enumerate() {
            if let Some(t) = t {
                a.add_edge(
                    q as StateId + off,
                    pack2(x, y, None, Some(s as Sym)),
                    *t + off,
                );
            }
        }
    }
    a
}

/// The paper's Conclusion extension: `INS_a(x, p, y)` — `y` is `x` with
/// `a` inserted immediately after the prefix `p` (defined only when
/// `p ⪯ x`). With `p = ε` this is the graph of `f_a`, so the relation
/// generalizes the `S_left` primitive; it is synchronized-regular via a
/// one-letter carry, exactly like [`prepend_sym`].
///
/// Requires three distinct variables.
pub fn insert_after(k: Sym, x: Var, p: Var, y: Var, sym: Sym) -> SyncNfa {
    assert!(
        x != p && p != y && x != y,
        "insert_after needs distinct vars"
    );
    let mut vars = vec![x, p, y];
    vars.sort_unstable();
    let mut a = SyncNfa::empty(k, vars.clone());
    let pos = |v: Var| vars.iter().position(|&w| w == v).expect("present");
    let pack3 = |xl: Option<Sym>, pl: Option<Sym>, yl: Option<Sym>| {
        let mut letters = [None, None, None];
        letters[pos(x)] = xl;
        letters[pos(p)] = pl;
        letters[pos(y)] = yl;
        conv::pack(&letters)
    };

    let phase1 = a.add_state(false);
    let carry: Vec<StateId> = (0..k).map(|_| a.add_state(false)).collect();
    let done = a.add_state(true);
    a.starts = vec![phase1];
    for c in 0..k {
        // Inside the shared prefix: x, p, y march in lockstep.
        a.add_edge(phase1, pack3(Some(c), Some(c), Some(c)), phase1);
        // Boundary: p ends, y reads the inserted symbol, x feeds the carry.
        a.add_edge(phase1, pack3(Some(c), None, Some(sym)), carry[c as usize]);
        // Shifted region: y reproduces x's previous letter.
        for b in 0..k {
            a.add_edge(
                carry[b as usize],
                pack3(Some(c), None, Some(b)),
                carry[c as usize],
            );
        }
        a.add_edge(carry[c as usize], pack3(None, None, Some(c)), done);
    }
    // x = p (insertion at the very end): y = x·a.
    a.add_edge(phase1, pack3(None, None, Some(sym)), done);
    a
}

/// `x = w` for a constant string `w`.
pub fn const_eq(k: Sym, x: Var, w: &Str) -> SyncNfa {
    let mut a = SyncNfa::empty(k, vec![x]);
    let mut cur = a.add_state(w.is_empty());
    a.starts = vec![cur];
    let n = w.len();
    for (i, &s) in w.syms().iter().enumerate() {
        let next = a.add_state(i + 1 == n);
        a.add_edge(cur, conv::pack(&[Some(s)]), next);
        cur = next;
    }
    a
}

/// `x ∈ {w₁, …, wₙ}` for a finite set, as a trie.
pub fn finite_set<'a, I: IntoIterator<Item = &'a Str>>(k: Sym, x: Var, words: I) -> SyncNfa {
    let tuples: Vec<Vec<&Str>> = words.into_iter().map(|w| vec![w]).collect();
    finite_relation_refs(k, vec![x], &tuples)
}

/// A finite relation `{t̄₁, …, t̄ₙ} ⊆ (Σ*)^arity` over the given
/// variables, encoded as a trie over convolution symbols.
///
/// This is how database relations enter the automaton pipeline: the
/// convolution of each tuple is one word; the trie recognizes the finite
/// language of all of them. Every tuple must be over the first `k`
/// symbols: a stored row holding a symbol `≥ k` denotes nothing, and the
/// caller drops it (`Relation::rows_within` in `strcalc-relational`,
/// which checks no row when the relation's symbol ceiling is below `k`).
pub fn finite_relation<T: AsRef<[Str]>>(k: Sym, vars: Vec<Var>, tuples: &[T]) -> SyncNfa {
    let refs: Vec<Vec<&Str>> = tuples
        .iter()
        .map(|t| t.as_ref().iter().collect::<Vec<&Str>>())
        .collect();
    finite_relation_refs(k, vars, &refs)
}

/// Reference-taking variant of [`finite_relation`].
pub fn finite_relation_refs(k: Sym, vars: Vec<Var>, tuples: &[Vec<&Str>]) -> SyncNfa {
    // The variables arrive in tuple-component order; tracks must be in
    // sorted-variable order. Compute the permutation.
    let mut sorted = vars.clone();
    sorted.sort_unstable();
    debug_assert!(
        sorted.windows(2).all(|w| w[0] < w[1]),
        "duplicate variables in relation atom must be handled by the caller"
    );
    // perm[track] = index into the tuple for that track's variable.
    let perm: Vec<usize> = sorted
        .iter()
        .map(|v| vars.iter().position(|o| o == v).expect("present"))
        .collect();

    let mut a = SyncNfa::empty(k, sorted);
    let root = a.add_state(false);
    a.starts = vec![root];
    use std::collections::HashMap;
    let mut edges: HashMap<(StateId, conv::ConvSym), StateId> = HashMap::new();
    for t in tuples {
        debug_assert_eq!(t.len(), vars.len(), "tuple arity mismatch");
        debug_assert!(
            t.iter().all(|s| s.within(k)),
            "the caller drops tuples outside the alphabet"
        );
        let reordered: Vec<&Str> = perm.iter().map(|&i| t[i]).collect();
        let word = conv::convolve(&reordered);
        let mut cur = root;
        for sym in word {
            cur = match edges.get(&(cur, sym)) {
                Some(&t) => t,
                None => {
                    let t = a.add_state(false);
                    a.add_edge(cur, sym, t);
                    edges.insert((cur, sym), t);
                    t
                }
            };
        }
        a.accepting[cur as usize] = true;
    }
    a
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;
    use strcalc_automata::Regex;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn s(t: &str) -> Str {
        ab().parse(t).unwrap()
    }

    fn check2(a: &SyncNfa, n: usize, pred: impl Fn(&Str, &Str) -> bool, label: &str) {
        // a.vars must be [0, 1]; tuple order (var0, var1).
        for x in ab().strings_up_to(n) {
            for y in ab().strings_up_to(n) {
                assert_eq!(
                    a.accepts(&[&x, &y]),
                    pred(&x, &y),
                    "{label}: disagreement on ({x}, {y})"
                );
            }
        }
    }

    fn check1(a: &SyncNfa, n: usize, pred: impl Fn(&Str) -> bool, label: &str) {
        for x in ab().strings_up_to(n) {
            assert_eq!(a.accepts(&[&x]), pred(&x), "{label}: disagreement on {x}");
        }
    }

    #[test]
    fn eq_atom() {
        check2(&eq(2, 0, 1), 3, |x, y| x == y, "x=y");
    }

    #[test]
    fn prefix_atoms() {
        check2(&prefix(2, 0, 1), 3, |x, y| x.is_prefix_of(y), "x⪯y");
        check2(
            &strict_prefix(2, 0, 1),
            3,
            |x, y| x.is_strict_prefix_of(y),
            "x≺y",
        );
        // Reversed argument order exercises the track permutation.
        check2(&prefix(2, 1, 0), 3, |x, y| y.is_prefix_of(x), "y⪯x");
    }

    #[test]
    fn extension_atoms() {
        check2(&ext_by_one(2, 0, 1), 3, |x, y| x.extends_by_one(y), "x<y");
        check2(
            &ext_by_sym(2, 0, 1, 1),
            3,
            |x, y| *y == x.append(1),
            "y=x·b",
        );
    }

    #[test]
    fn last_and_first_sym() {
        check1(&last_sym(2, 0, 0), 4, |x| x.last() == Some(0), "L_a");
        check1(&last_sym(2, 0, 1), 4, |x| x.last() == Some(1), "L_b");
        check1(&first_sym(2, 0, 1), 4, |x| x.first() == Some(1), "F-sym b");
    }

    #[test]
    fn prepend_atom() {
        check2(
            &prepend_sym(2, 0, 1, 0),
            3,
            |x, y| *y == x.prepend(0),
            "y = a·x",
        );
        check2(
            &prepend_sym(2, 0, 1, 1),
            3,
            |x, y| *y == x.prepend(1),
            "y = b·x",
        );
    }

    #[test]
    fn length_atoms() {
        check2(&el(2, 0, 1), 3, |x, y| x.len() == y.len(), "el");
        check2(
            &shorter_eq(2, 0, 1),
            3,
            |x, y| x.len() <= y.len(),
            "|x|≤|y|",
        );
        check2(&shorter(2, 0, 1), 3, |x, y| x.len() < y.len(), "|x|<|y|");
    }

    #[test]
    fn lex_atom() {
        check2(
            &lex_leq(2, 0, 1),
            3,
            |x, y| x.lex_cmp(y) != std::cmp::Ordering::Greater,
            "x ≤lex y",
        );
    }

    #[test]
    fn membership_atoms() {
        let d = Dfa::from_regex(2, &Regex::parse(&ab(), "a(a|b)*").unwrap());
        check1(&in_dfa(2, 0, &d), 4, |x| x.first() == Some(0), "x ∈ a·Σ*");
    }

    #[test]
    fn p_l_atom() {
        // L = b* : P_L(x,y) iff x ⪯ y and y−x ∈ b*.
        let d = Dfa::from_regex(2, &Regex::parse(&ab(), "b*").unwrap());
        check2(
            &p_l(2, 0, 1, &d),
            3,
            |x, y| x.is_prefix_of(y) && y.subtract(x).syms().iter().all(|&c| c == 1),
            "P_{b*}",
        );
        // Membership via P_L(ε, x): handled by const ε ∧ P_L; here just
        // check the x=y diagonal logic.
        let same = p_l(2, 0, 0, &d);
        check1(&same, 3, |_| true, "P_{b*}(x,x) with ε∈L");
        let d2 = Dfa::from_regex(2, &Regex::parse(&ab(), "b+").unwrap());
        let same2 = p_l(2, 0, 0, &d2);
        check1(&same2, 3, |_| false, "P_{b+}(x,x) with ε∉L");
    }

    #[test]
    fn insert_after_atom() {
        // y = x with 'b' inserted after prefix p.
        let a = insert_after(2, 0, 1, 2, 1);
        for x in ab().strings_up_to(3) {
            for p in ab().strings_up_to(3) {
                for y in ab().strings_up_to(4) {
                    let expect = x.insert_after(&p, 1) == Some(y.clone());
                    assert_eq!(a.accepts(&[&x, &p, &y]), expect, "INS_b({x}, {p}) = {y}?");
                }
            }
        }
        // Insertion after ε is exactly prepending (subsumes F_a).
        let ins = insert_after(2, 0, 1, 2, 0);
        let eps = const_eq(2, 1, &s(""));
        let at_front = ins.intersect(&eps).unwrap().project(1).unwrap();
        let fa = prepend_sym(2, 0, 1, 0)
            .rename(|v| if v == 1 { 2 } else { v })
            .unwrap();
        assert!(at_front.equivalent(&fa, 1_000_000).unwrap());
    }

    #[test]
    fn const_and_finite_set() {
        check1(&const_eq(2, 0, &s("ab")), 3, |x| *x == s("ab"), "x=ab");
        check1(&const_eq(2, 0, &s("")), 3, |x| x.is_empty(), "x=ε");
        let set = [s(""), s("ab"), s("b")];
        let a = finite_set(2, 0, set.iter());
        check1(&a, 3, |x| set.contains(x), "x ∈ {ε,ab,b}");
    }

    #[test]
    fn finite_relation_atom() {
        let tuples = vec![
            vec![s("a"), s("bb")],
            vec![s("ab"), s("")],
            vec![s("a"), s("b")],
        ];
        let a = finite_relation(2, vec![0, 1], &tuples);
        check2(
            &a,
            2,
            |x, y| tuples.contains(&vec![x.clone(), y.clone()]),
            "R(x,y)",
        );
        // Reversed variable order must swap components.
        let a2 = finite_relation(2, vec![1, 0], &tuples);
        check2(
            &a2,
            2,
            |x, y| tuples.contains(&vec![y.clone(), x.clone()]),
            "R(y,x)",
        );
    }

    #[test]
    fn empty_relation() {
        let a = finite_relation::<Vec<Str>>(2, vec![0, 1], &[]);
        check2(&a, 2, |_, _| false, "empty R");
        assert!(a.is_empty_lang());
    }
}
