//! The [`SyncDfa`] type: a determinized, trimmed synchronized automaton,
//! the form every language-level read of a [`SyncNfa`] walks.
//!
//! Reading an answer off an automaton — the finiteness verdict, the
//! enumeration of accepted tuples, a shortest witness — needs a
//! deterministic automaton. [`SyncNfa::to_dfa`] is the one constructor:
//! it runs the subset construction and the trim once, so a caller that
//! keeps the result (the compilation cache does) never determinizes the
//! same automaton again.
//!
//! ## Invariants
//!
//! A `SyncDfa` wraps a `SyncNfa` that, besides the `SyncNfa` invariants,
//! has exactly one start state and at most one successor per state and
//! symbol, and whose states are all reachable from the start and
//! co-reachable to an accepting state — except for an empty language,
//! which is a single non-accepting start with no transitions.

use std::collections::VecDeque;

use strcalc_alphabet::Str;

use crate::conv::{self, ConvSym};
use crate::nfa::{StateId, SyncFiniteness, SyncNfa};
use crate::SynchroError;

/// A determinized, trimmed synchronized automaton. See the module docs
/// for its invariants; only [`SyncNfa::to_dfa`] makes one.
#[derive(Debug, Clone)]
pub struct SyncDfa {
    auto: SyncNfa,
}

impl SyncNfa {
    /// Determinizes and trims this automaton, once.
    pub fn to_dfa(&self) -> SyncDfa {
        SyncDfa {
            auto: self.determinize().trim(),
        }
    }
}

impl SyncDfa {
    /// The automaton as a plain [`SyncNfa`] (for the closure operations).
    pub fn as_nfa(&self) -> &SyncNfa {
        &self.auto
    }

    /// The arity (number of tracks).
    pub fn arity(&self) -> usize {
        self.auto.arity()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.auto.num_states()
    }

    /// Approximate heap footprint in bytes ([`SyncNfa::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.auto.approx_bytes()
    }

    fn start(&self) -> StateId {
        self.auto.starts[0]
    }

    /// The successor of `q` on `sym`, if any.
    fn step(&self, q: StateId, sym: ConvSym) -> Option<StateId> {
        self.auto.trans[q as usize].get(&sym).map(|ts| ts[0])
    }

    /// Membership: does the automaton accept the convolution of `tuple`?
    /// `tuple` is matched positionally against the tracks.
    pub fn accepts(&self, tuple: &[&Str]) -> bool {
        assert_eq!(tuple.len(), self.arity(), "tuple arity mismatch");
        let mut q = self.start();
        for sym in conv::convolve(tuple) {
            match self.step(q, sym) {
                Some(t) => q = t,
                None => return false,
            }
        }
        self.auto.accepting[q as usize]
    }

    /// For 0-arity automata (sentences): is the empty tuple accepted?
    pub fn is_true(&self) -> bool {
        assert_eq!(self.arity(), 0, "is_true requires a sentence (arity 0)");
        self.auto.accepting[self.start() as usize]
    }

    /// Exact finiteness verdict with counting — the state-safety decision.
    pub fn finiteness(&self) -> SyncFiniteness {
        let d = &self.auto;
        if !d.accepting.iter().any(|&a| a) {
            return SyncFiniteness::Empty;
        }
        // Every state is useful, so any cycle pumps infinitely many
        // accepted words.
        if self.has_cycle() {
            return SyncFiniteness::Infinite;
        }
        // DAG count of accepted words = accepted tuples (deterministic, so
        // no double counting; convolution is a bijection on tuples).
        let mut memo: Vec<Option<u64>> = vec![None; d.num_states()];
        fn count(d: &SyncNfa, q: usize, memo: &mut Vec<Option<u64>>) -> u64 {
            if let Some(c) = memo[q] {
                return c;
            }
            let mut c: u64 = if d.accepting[q] { 1 } else { 0 };
            for ts in d.trans[q].values() {
                for &t in ts {
                    c = c.saturating_add(count(d, t as usize, memo));
                }
            }
            memo[q] = Some(c);
            c
        }
        SyncFiniteness::Finite(count(d, self.start() as usize, &mut memo))
    }

    fn has_cycle(&self) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum M {
            W,
            G,
            B,
        }
        let n = self.num_states();
        let mut mark = vec![M::W; n];
        let succ: Vec<Vec<StateId>> = (0..n)
            .map(|q| {
                let mut s: Vec<StateId> = self.auto.trans[q]
                    .values()
                    .flat_map(|ts| ts.iter().copied())
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        for root in 0..n {
            if mark[root] != M::W {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            mark[root] = M::G;
            while let Some(top) = stack.last_mut() {
                let (q, i) = *top;
                if i >= succ[q].len() {
                    mark[q] = M::B;
                    stack.pop();
                    continue;
                }
                top.1 += 1;
                let t = succ[q][i] as usize;
                match mark[t] {
                    M::G => return true,
                    M::W => {
                        mark[t] = M::G;
                        stack.push((t, 0));
                    }
                    M::B => {}
                }
            }
        }
        false
    }

    /// Enumerates accepted tuples in order of convolution length, then
    /// symbol order, up to `limit` tuples and convolution length
    /// `max_len`.
    pub fn enumerate(&self, max_len: usize, limit: usize) -> Vec<Vec<Str>> {
        let d = &self.auto;
        let arity = d.arity();
        let mut out = Vec::new();
        let mut frontier: Vec<(StateId, Vec<ConvSym>)> = vec![(self.start(), Vec::new())];
        for _len in 0..=max_len {
            for (q, w) in &frontier {
                if d.accepting[*q as usize] {
                    out.push(conv::deconvolve(w, arity));
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
            let mut next = Vec::new();
            for (q, w) in &frontier {
                for (&sym, ts) in &d.trans[*q as usize] {
                    let mut w2 = w.clone();
                    w2.push(sym);
                    next.push((ts[0], w2));
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    /// Enumerates **all** tuples, or fails with
    /// [`SynchroError::InfiniteLanguage`] when there are infinitely many.
    pub fn try_enumerate_finite(&self) -> Result<Vec<Vec<Str>>, SynchroError> {
        match self.finiteness() {
            SyncFiniteness::Empty => Ok(Vec::new()),
            SyncFiniteness::Finite(n) => {
                let words = self.enumerate_acyclic();
                debug_assert_eq!(words.len() as u64, n);
                Ok(words)
            }
            SyncFiniteness::Infinite => Err(SynchroError::InfiniteLanguage),
        }
    }

    /// Every accepted tuple of a DFA whose verdict is `Empty` or
    /// `Finite`: such a trimmed DFA is acyclic, so no accepted word is
    /// longer than its state count. Callers that keep the verdict (the
    /// compilation cache) enumerate through this without recomputing it.
    pub fn enumerate_acyclic(&self) -> Vec<Vec<Str>> {
        self.enumerate(self.num_states(), usize::MAX)
    }

    /// The shortest (by convolution length, then symbol order) accepted
    /// tuple, if any.
    pub fn witness(&self) -> Option<Vec<Str>> {
        let d = &self.auto;
        let arity = d.arity();
        let start = self.start();
        if d.accepting[start as usize] {
            return Some(conv::deconvolve(&[], arity));
        }
        let n = d.num_states();
        let mut prev: Vec<Option<(StateId, ConvSym)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[start as usize] = true;
        let mut queue = VecDeque::from([start]);
        while let Some(q) = queue.pop_front() {
            for (&sym, ts) in &d.trans[q as usize] {
                let t = ts[0];
                if seen[t as usize] {
                    continue;
                }
                seen[t as usize] = true;
                prev[t as usize] = Some((q, sym));
                if d.accepting[t as usize] {
                    let mut word = Vec::new();
                    let mut cur = t;
                    while let Some((p, s)) = prev[cur as usize] {
                        word.push(s);
                        cur = p;
                    }
                    word.reverse();
                    return Some(conv::deconvolve(&word, arity));
                }
                queue.push_back(t);
            }
        }
        None
    }
}
