//! Deterministic finite automata: boolean closure, minimization, and the
//! decision procedures the calculi rely on (emptiness, finiteness,
//! universality, equivalence, shortlex enumeration).

// Panic audit: this module sits on the hot evaluation path, so every
// potential panic must be a messaged `expect` documenting its invariant
// (tests are exempt below).
#![deny(clippy::unwrap_used)]

use std::collections::VecDeque;

use strcalc_alphabet::{Str, Sym};

use crate::nfa::Nfa;
use crate::regex::Regex;
use crate::StateId;

/// A (possibly partial) DFA over symbol indices `0..k`.
///
/// `trans[q][a] == None` means the transition is missing, i.e. leads to an
/// implicit dead state. Completion materializes that state when needed
/// (complement, products over unions).
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Alphabet size.
    pub k: Sym,
    /// `trans[state][symbol]`.
    pub trans: Vec<Vec<Option<StateId>>>,
    pub start: StateId,
    pub accepting: Vec<bool>,
}

/// Verdict of [`Dfa::finiteness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finiteness {
    /// The language is empty.
    Empty,
    /// The language is finite and nonempty; carries its cardinality.
    Finite(u64),
    /// The language is infinite; carries a "pump": strings `(u, v, w)` with
    /// `u v^n w` accepted for all `n ≥ 0` and `|v| ≥ 1`.
    Infinite { u: Str, v: Str, w: Str },
}

impl Dfa {
    /// The DFA for `∅`.
    pub fn empty(k: Sym) -> Dfa {
        Dfa {
            k,
            trans: vec![vec![None; k as usize]],
            start: 0,
            accepting: vec![false],
        }
    }

    /// The DFA for `Σ*`.
    pub fn universal(k: Sym) -> Dfa {
        Dfa {
            k,
            trans: vec![vec![Some(0); k as usize]],
            start: 0,
            accepting: vec![true],
        }
    }

    /// Compile a regex to a minimal DFA.
    pub fn from_regex(k: Sym, re: &Regex) -> Dfa {
        Nfa::from_regex(k, re).determinize().minimize()
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.trans.len()
    }

    /// Membership test. A symbol outside `0..k` has no transition, so a
    /// word holding one is rejected.
    pub fn accepts(&self, w: &Str) -> bool {
        self.run_from(self.start, w)
            .is_some_and(|q| self.accepting[q as usize])
    }

    /// Runs the DFA from `state` over `w`; `None` if a transition is
    /// missing (a symbol outside `0..k` included).
    pub fn run_from(&self, state: StateId, w: &Str) -> Option<StateId> {
        let mut q = state;
        for &s in w.syms() {
            q = self.trans[q as usize].get(s as usize).copied().flatten()?;
        }
        Some(q)
    }

    /// Totalizes the transition function by adding a dead state if any
    /// transition is missing.
    pub fn complete(&self) -> Dfa {
        if self.trans.iter().all(|row| row.iter().all(Option::is_some)) {
            return self.clone();
        }
        let mut out = self.clone();
        let dead = out.trans.len() as StateId;
        out.trans.push(vec![Some(dead); out.k as usize]);
        out.accepting.push(false);
        for row in out.trans.iter_mut() {
            for cell in row.iter_mut() {
                if cell.is_none() {
                    *cell = Some(dead);
                }
            }
        }
        out
    }

    /// Complement `Σ* ∖ L`.
    pub fn complement(&self) -> Dfa {
        let mut out = self.complete();
        for a in out.accepting.iter_mut() {
            *a = !*a;
        }
        out
    }

    /// Product construction with a boolean combiner on acceptance.
    fn product(&self, other: &Dfa, combine: impl Fn(bool, bool) -> bool) -> Dfa {
        assert_eq!(self.k, other.k, "alphabet size mismatch");
        let a = self.complete();
        let b = other.complete();
        let k = a.k as usize;
        let nb = b.trans.len();
        let id = |qa: StateId, qb: StateId| (qa as usize * nb + qb as usize) as StateId;

        let mut trans = Vec::new();
        let mut accepting = Vec::new();
        // Dense product: fine at the sizes the calculi produce; the synchro
        // crate uses a sparse reachable-only product for its larger
        // alphabets.
        for qa in 0..a.trans.len() {
            for qb in 0..nb {
                let mut row = Vec::with_capacity(k);
                for s in 0..k {
                    let ta = a.trans[qa][s].expect("completed");
                    let tb = b.trans[qb][s].expect("completed");
                    row.push(Some(id(ta, tb)));
                }
                trans.push(row);
                accepting.push(combine(a.accepting[qa], b.accepting[qb]));
            }
        }
        Dfa {
            k: a.k,
            trans,
            start: id(a.start, b.start),
            accepting,
        }
        .trim()
    }

    /// Intersection `L₁ ∩ L₂`.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x && y)
    }

    /// Union `L₁ ∪ L₂`.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x || y)
    }

    /// Difference `L₁ ∖ L₂`.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x && !y)
    }

    /// Symmetric difference (used for equivalence checking).
    pub fn sym_diff(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x != y)
    }

    /// Restricts to states reachable from the start *and* co-reachable to
    /// an accepting state. The start state is always kept (possibly as a
    /// non-accepting sink-less state) so the automaton stays well-formed.
    pub fn trim(&self) -> Dfa {
        let n = self.trans.len();
        // Forward reachability.
        let mut reach = vec![false; n];
        let mut stack = vec![self.start];
        reach[self.start as usize] = true;
        while let Some(q) = stack.pop() {
            for t in self.trans[q as usize].iter().flatten() {
                if !reach[*t as usize] {
                    reach[*t as usize] = true;
                    stack.push(*t);
                }
            }
        }
        // Backward reachability from accepting states.
        let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for (q, row) in self.trans.iter().enumerate() {
            for t in row.iter().flatten() {
                preds[*t as usize].push(q as StateId);
            }
        }
        let mut coreach = vec![false; n];
        let mut stack: Vec<StateId> = (0..n as StateId)
            .filter(|&q| self.accepting[q as usize])
            .collect();
        for &q in &stack {
            coreach[q as usize] = true;
        }
        while let Some(q) = stack.pop() {
            for &p in &preds[q as usize] {
                if !coreach[p as usize] {
                    coreach[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        let useful: Vec<bool> = (0..n).map(|q| reach[q] && coreach[q]).collect();

        let mut map = vec![None; n];
        let mut next = 0 as StateId;
        for q in 0..n {
            if useful[q] || q as StateId == self.start {
                map[q] = Some(next);
                next += 1;
            }
        }
        let mut trans = vec![vec![None; self.k as usize]; next as usize];
        let mut accepting = vec![false; next as usize];
        for q in 0..n {
            let Some(nq) = map[q] else { continue };
            accepting[nq as usize] = self.accepting[q] && useful[q];
            for (s, t) in self.trans[q].iter().enumerate() {
                if let Some(t) = t {
                    if useful[*t as usize] {
                        trans[nq as usize][s] = map[*t as usize];
                    }
                }
            }
        }
        Dfa {
            k: self.k,
            trans,
            start: map[self.start as usize].expect("start kept"),
            accepting,
        }
    }

    /// Moore's partition-refinement minimization (on the completed,
    /// trimmed automaton). Returns a minimal DFA for the same language,
    /// with unreachable/dead states pruned back out.
    pub fn minimize(&self) -> Dfa {
        let d = self.trim().complete();
        let n = d.trans.len();
        if n == 0 {
            return d;
        }
        let k = d.k as usize;
        // Initial partition: accepting vs non-accepting. The refinement
        // loop stops when the class count is stable, so the initial count
        // must be the actual number of distinct classes — 1 when all
        // states agree on acceptance.
        let mut class: Vec<u32> = d.accepting.iter().map(|&a| if a { 1 } else { 0 }).collect();
        let mut num_classes = if d.accepting.iter().any(|&a| a) && d.accepting.iter().any(|&a| !a) {
            2
        } else {
            class.iter_mut().for_each(|c| *c = 0);
            1
        };
        loop {
            // Signature: (class, classes of successors).
            use std::collections::HashMap;
            let mut sig_index: HashMap<Vec<u32>, u32> = HashMap::new();
            let mut new_class = vec![0u32; n];
            for q in 0..n {
                let mut sig = Vec::with_capacity(k + 1);
                sig.push(class[q]);
                for s in 0..k {
                    sig.push(class[d.trans[q][s].expect("completed") as usize]);
                }
                let next_id = sig_index.len() as u32;
                let id = *sig_index.entry(sig).or_insert(next_id);
                new_class[q] = id;
            }
            let new_num = sig_index.len() as u32;
            if new_num == num_classes {
                class = new_class;
                break;
            }
            num_classes = new_num;
            class = new_class;
        }
        let m = num_classes as usize;
        let mut trans = vec![vec![None; k]; m];
        let mut accepting = vec![false; m];
        for q in 0..n {
            let c = class[q] as usize;
            accepting[c] = d.accepting[q];
            for s in 0..k {
                trans[c][s] = Some(class[d.trans[q][s].expect("completed") as usize]);
            }
        }
        Dfa {
            k: d.k,
            trans,
            start: class[d.start as usize],
            accepting,
        }
        .trim()
    }

    /// Is the language empty?
    pub fn is_empty(&self) -> bool {
        let t = self.trim();
        !t.accepting.iter().any(|&a| a)
    }

    /// Is the language `Σ*`?
    pub fn is_universal(&self) -> bool {
        self.complement().is_empty()
    }

    /// Language equivalence.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.sym_diff(other).is_empty()
    }

    /// Language inclusion `L(self) ⊆ L(other)`.
    pub fn subset_of(&self, other: &Dfa) -> bool {
        self.difference(other).is_empty()
    }

    /// Decides emptiness / finiteness / infiniteness, with a counting
    /// result for finite languages and a pumping witness for infinite
    /// ones.
    ///
    /// This is the engine behind the paper's **state-safety** decision
    /// (Proposition 7): a query output is a regular language of
    /// convolutions, and safety on a database is exactly finiteness.
    pub fn finiteness(&self) -> Finiteness {
        let t = self.trim();
        if !t.accepting.iter().any(|&a| a) {
            return Finiteness::Empty;
        }
        // A trimmed automaton's language is infinite iff it has a cycle
        // (every remaining state is on an accepting path).
        if let Some((entry, cycle)) = t.find_cycle() {
            let u = t.path_from_start(entry).expect("entry reachable");
            let w = t.path_to_accept(entry).expect("entry co-reachable");
            return Finiteness::Infinite { u, v: cycle, w };
        }
        // Acyclic: count accepted words by DAG DP (saturating).
        let mut count: Vec<Option<u64>> = vec![None; t.trans.len()];
        fn go(d: &Dfa, q: StateId, count: &mut Vec<Option<u64>>) -> u64 {
            if let Some(c) = count[q as usize] {
                return c;
            }
            let mut c: u64 = if d.accepting[q as usize] { 1 } else { 0 };
            for tq in d.trans[q as usize].iter().flatten() {
                c = c.saturating_add(go(d, *tq, count));
            }
            count[q as usize] = Some(c);
            c
        }
        let c = go(&t, t.start, &mut count);
        Finiteness::Finite(c)
    }

    /// Finds a cycle among useful states: returns `(entry_state,
    /// cycle_word)` with the cycle reading `cycle_word` from `entry_state`
    /// back to itself. Assumes `self` is trimmed.
    fn find_cycle(&self) -> Option<(StateId, Str)> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let n = self.trans.len();
        let mut mark = vec![Mark::White; n];
        // Iterative DFS tracking the path of (state, symbol taken).
        let mut path: Vec<(StateId, usize)> = Vec::new();
        for root in 0..n as StateId {
            if mark[root as usize] != Mark::White {
                continue;
            }
            path.clear();
            path.push((root, 0));
            mark[root as usize] = Mark::Grey;
            while let Some(&(q, s)) = path.last() {
                if s >= self.k as usize {
                    mark[q as usize] = Mark::Black;
                    path.pop();
                    continue;
                }
                let sym = s;
                path.last_mut().expect("nonempty").1 += 1;
                if let Some(t) = self.trans[q as usize][sym] {
                    match mark[t as usize] {
                        Mark::Grey => {
                            // Found a cycle t → … → q → t; reconstruct its word.
                            let mut word = Vec::new();
                            let start_idx = path
                                .iter()
                                .position(|&(p, _)| p == t)
                                .expect("grey state on path");
                            for &(_, taken) in &path[start_idx..] {
                                word.push((taken - 1) as Sym);
                            }
                            return Some((t, Str::from_syms(word)));
                        }
                        Mark::White => {
                            mark[t as usize] = Mark::Grey;
                            path.push((t, 0));
                        }
                        Mark::Black => {}
                    }
                }
            }
        }
        None
    }

    /// Some word leading from the start state to `target` (BFS; `None` if
    /// unreachable).
    pub fn path_from_start(&self, target: StateId) -> Option<Str> {
        if target == self.start {
            return Some(Str::epsilon());
        }
        let n = self.trans.len();
        let mut prev: Vec<Option<(StateId, Sym)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[self.start as usize] = true;
        let mut queue = VecDeque::from([self.start]);
        while let Some(q) = queue.pop_front() {
            for (s, t) in self.trans[q as usize].iter().enumerate() {
                let Some(t) = *t else { continue };
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    prev[t as usize] = Some((q, s as Sym));
                    if t == target {
                        let mut word = Vec::new();
                        let mut cur = target;
                        while let Some((p, sym)) = prev[cur as usize] {
                            word.push(sym);
                            cur = p;
                        }
                        word.reverse();
                        return Some(Str::from_syms(word));
                    }
                    queue.push_back(t);
                }
            }
        }
        None
    }

    /// Some word leading from `from` to an accepting state.
    pub fn path_to_accept(&self, from: StateId) -> Option<Str> {
        let mut alt = self.clone();
        alt.start = from;
        alt.shortest_accepted()
    }

    /// The shortlex-least accepted word, if any.
    pub fn shortest_accepted(&self) -> Option<Str> {
        if self.accepting[self.start as usize] {
            return Some(Str::epsilon());
        }
        let n = self.trans.len();
        let mut prev: Vec<Option<(StateId, Sym)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[self.start as usize] = true;
        let mut queue = VecDeque::from([self.start]);
        while let Some(q) = queue.pop_front() {
            for (s, t) in self.trans[q as usize].iter().enumerate() {
                let Some(t) = *t else { continue };
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    prev[t as usize] = Some((q, s as Sym));
                    if self.accepting[t as usize] {
                        let mut word = Vec::new();
                        let mut cur = t;
                        while let Some((p, sym)) = prev[cur as usize] {
                            word.push(sym);
                            cur = p;
                        }
                        word.reverse();
                        return Some(Str::from_syms(word));
                    }
                    queue.push_back(t);
                }
            }
        }
        None
    }

    /// Enumerates accepted words in shortlex order, up to `limit` words
    /// and length at most `max_len`.
    pub fn enumerate(&self, max_len: usize, limit: usize) -> Vec<Str> {
        let mut out = Vec::new();
        let mut frontier: Vec<(StateId, Str)> = vec![(self.start, Str::epsilon())];
        for len in 0..=max_len {
            let _ = len;
            for (q, w) in &frontier {
                if self.accepting[*q as usize] {
                    out.push(w.clone());
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
            let mut next = Vec::new();
            for (q, w) in &frontier {
                for (s, t) in self.trans[*q as usize].iter().enumerate() {
                    if let Some(t) = t {
                        next.push((*t, w.append(s as Sym)));
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

    /// Enumerates **all** words of a finite language. Panics if the
    /// language is infinite (check [`Dfa::finiteness`] first).
    pub fn enumerate_finite(&self) -> Vec<Str> {
        match self.finiteness() {
            Finiteness::Empty => Vec::new(),
            Finiteness::Finite(n) => {
                // In a trimmed acyclic automaton, no accepted word is longer
                // than the number of states.
                let t = self.trim();
                let words = t.enumerate(t.len(), usize::MAX);
                debug_assert_eq!(words.len() as u64, n);
                words
            }
            Finiteness::Infinite { .. } => {
                panic!("enumerate_finite called on an infinite language")
            }
        }
    }

    /// Number of accepted words of length exactly `n` (saturating).
    pub fn count_words_of_len(&self, n: usize) -> u64 {
        let mut cur = vec![0u64; self.trans.len()];
        cur[self.start as usize] = 1;
        for _ in 0..n {
            let mut next = vec![0u64; self.trans.len()];
            for (q, c) in cur.iter().enumerate() {
                if *c == 0 {
                    continue;
                }
                for t in self.trans[q].iter().flatten() {
                    next[*t as usize] = next[*t as usize].saturating_add(*c);
                }
            }
            cur = next;
        }
        cur.iter()
            .zip(self.accepting.iter())
            .filter(|(_, &a)| a)
            .fold(0u64, |acc, (c, _)| acc.saturating_add(*c))
    }

    /// Left quotient `w⁻¹L = { v : w·v ∈ L }` as a DFA (possibly empty).
    pub fn left_quotient(&self, w: &Str) -> Dfa {
        match self.run_from(self.start, w) {
            Some(q) => {
                let mut out = self.clone();
                out.start = q;
                out.trim()
            }
            None => Dfa::empty(self.k),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;

    fn s(t: &str) -> Str {
        Alphabet::ab().parse(t).unwrap()
    }

    fn dfa(t: &str) -> Dfa {
        Dfa::from_regex(2, &Regex::parse(&Alphabet::ab(), t).unwrap())
    }

    #[test]
    fn determinize_preserves_language() {
        let d = dfa("a(b|a)*b");
        assert!(d.accepts(&s("ab")));
        assert!(d.accepts(&s("aaab")));
        assert!(!d.accepts(&s("ba")));
        assert!(!d.accepts(&s("")));
    }

    /// A symbol outside `0..k` is a missing transition: `Σ*` and its
    /// complete DFAs reject a word holding one instead of panicking.
    #[test]
    fn symbols_outside_the_alphabet_are_rejected() {
        let w = Str::from_syms(vec![0, 2]);
        for d in [Dfa::universal(2), dfa("a.*"), dfa("a.*").complement()] {
            assert!(!d.accepts(&w));
            assert_eq!(d.run_from(d.start, &w), None);
        }
    }

    #[test]
    fn boolean_operations() {
        let a_star = dfa("a*");
        let all = Dfa::universal(2);
        assert!(a_star.subset_of(&all));
        assert!(!all.subset_of(&a_star));

        let comp = a_star.complement();
        assert!(comp.accepts(&s("b")));
        assert!(comp.accepts(&s("ab")));
        assert!(!comp.accepts(&s("aa")));
        assert!(!comp.accepts(&s("")));

        let i = a_star.intersect(&dfa("(aa)*"));
        assert!(i.accepts(&s("aa")));
        assert!(!i.accepts(&s("a")));

        let u = dfa("a").union(&dfa("b"));
        assert!(u.accepts(&s("a")) && u.accepts(&s("b")) && !u.accepts(&s("ab")));

        let d = dfa("a*").difference(&dfa("aa*"));
        assert!(d.accepts(&s("")));
        assert!(!d.accepts(&s("a")));
    }

    #[test]
    fn minimization_canonical_size() {
        // (a|b)*b — minimal DFA has 2 states.
        let d = dfa("(a|b)*b").minimize();
        assert_eq!(d.len(), 2);
        // Minimization preserves the language.
        assert!(d.accepts(&s("ab")) && d.accepts(&s("b")) && !d.accepts(&s("ba")));
        // Idempotent.
        assert_eq!(d.minimize().len(), 2);
    }

    #[test]
    fn emptiness_and_universality() {
        assert!(Dfa::empty(2).is_empty());
        assert!(Dfa::universal(2).is_universal());
        assert!(dfa("a").intersect(&dfa("b")).is_empty());
        assert!(dfa("a*").union(&dfa("a*").complement()).is_universal());
    }

    #[test]
    fn equivalence() {
        assert!(dfa("(a|b)*").equivalent(&Dfa::universal(2)));
        assert!(dfa("a(b|a)*").equivalent(&dfa("a(a|b)*")));
        assert!(!dfa("a*").equivalent(&dfa("b*")));
    }

    #[test]
    fn finiteness_verdicts() {
        assert_eq!(dfa("∅").finiteness(), Finiteness::Empty);
        assert_eq!(dfa("a|b|ab").finiteness(), Finiteness::Finite(3));
        match dfa("ab*a").finiteness() {
            Finiteness::Infinite { u, v, w } => {
                // u v^n w must all be accepted.
                let d = dfa("ab*a");
                assert!(!v.is_empty());
                for n in 0..4 {
                    let mut word = u.clone();
                    for _ in 0..n {
                        word = word.concat(&v);
                    }
                    word = word.concat(&w);
                    assert!(d.accepts(&word), "pump failed at n={n}");
                }
            }
            other => panic!("expected infinite, got {other:?}"),
        }
    }

    #[test]
    fn enumeration_shortlex() {
        let d = dfa("a|ab|b");
        let words = d.enumerate_finite();
        assert_eq!(words, vec![s("a"), s("b"), s("ab")]);

        let first = dfa("a*").enumerate(10, 3);
        assert_eq!(first, vec![s(""), s("a"), s("aa")]);
    }

    #[test]
    fn counting() {
        let d = dfa("(a|b)*");
        assert_eq!(d.count_words_of_len(3), 8);
        assert_eq!(dfa("(aa)*").count_words_of_len(3), 0);
        assert_eq!(dfa("(aa)*").count_words_of_len(4), 1);
    }

    #[test]
    fn quotient() {
        let d = dfa("abab|abb");
        let q = d.left_quotient(&s("ab"));
        assert!(q.accepts(&s("ab")));
        assert!(q.accepts(&s("b")));
        assert!(!q.accepts(&s("")));
        assert!(d.left_quotient(&s("bb")).is_empty());
    }

    #[test]
    fn shortest_word() {
        assert_eq!(dfa("a*b").shortest_accepted(), Some(s("b")));
        assert_eq!(dfa("∅").shortest_accepted(), None);
        assert_eq!(dfa("a*").shortest_accepted(), Some(s("")));
    }
}
