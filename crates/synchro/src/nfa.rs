//! The [`SyncNfa`] type: multi-track NFAs over packed convolution symbols,
//! closed under the first-order operations (product, union, complement,
//! projection) plus the `∃^∞` quantifier.
//!
//! ## Invariants
//!
//! Every `SyncNfa` maintains:
//!
//! 1. `vars` is sorted and duplicate-free; the *i*-th track carries the
//!    *i*-th variable of `vars`.
//! 2. The recognized language contains only **valid** convolutions:
//!    padding is suffix-only per track and no symbol is all-`⊥`.
//!    Constructors enforce this structurally (e.g. [`SyncNfa::cylindrify`]
//!    tracks which fresh tracks have padded).
//! 3. Transitions never carry the all-`⊥` symbol for the automaton's
//!    arity.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use strcalc_alphabet::{Str, Sym};

use crate::conv::{self, ConvSym, MAX_TRACKS};
use crate::SynchroError;

/// Variable identifier labelling a track.
pub type Var = u32;

/// State identifier.
pub type StateId = u32;

/// Finiteness verdict for a synchronized automaton's language — the
/// engine behind the paper's state-safety decision (Proposition 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncFiniteness {
    /// No tuple is accepted.
    Empty,
    /// Finitely many tuples, with the exact count.
    Finite(u64),
    /// Infinitely many tuples.
    Infinite,
}

/// A synchronized multi-track NFA. See the module docs for invariants.
#[derive(Debug, Clone)]
pub struct SyncNfa {
    /// Alphabet size `|Σ|`.
    pub k: Sym,
    /// Sorted, duplicate-free variables; one track each.
    pub vars: Vec<Var>,
    pub starts: Vec<StateId>,
    pub accepting: Vec<bool>,
    /// `trans[state]`: packed symbol → successor states (sorted, deduped).
    pub trans: Vec<BTreeMap<ConvSym, Vec<StateId>>>,
}

impl SyncNfa {
    /// The arity (number of tracks).
    #[inline]
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// Approximate heap footprint in bytes. Used by the compilation
    /// cache for byte-accounted eviction, so it only needs to be a fair
    /// estimate (per-entry `BTreeMap` overhead is approximated, not
    /// measured).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let fixed = size_of::<SyncNfa>()
            + self.vars.len() * size_of::<Var>()
            + self.starts.len() * size_of::<StateId>()
            + self.accepting.len();
        // Each map entry: key + Vec header + successors + ~3 words of
        // B-tree node bookkeeping amortized per entry.
        let per_entry = size_of::<ConvSym>() + size_of::<Vec<StateId>>() + 24;
        let edges: usize = self
            .trans
            .iter()
            .map(|m| {
                size_of::<BTreeMap<ConvSym, Vec<StateId>>>()
                    + m.len() * per_entry
                    + m.values()
                        .map(|v| v.len() * size_of::<StateId>())
                        .sum::<usize>()
            })
            .sum();
        fixed + edges
    }

    /// A fresh automaton with no states (empty language), given arity.
    pub fn empty(k: Sym, vars: Vec<Var>) -> SyncNfa {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be sorted");
        SyncNfa {
            k,
            vars,
            starts: Vec::new(),
            accepting: Vec::new(),
            trans: Vec::new(),
        }
    }

    /// The 0-arity automaton accepting the empty tuple (logical *true*).
    pub fn true_rel(k: Sym) -> SyncNfa {
        SyncNfa {
            k,
            vars: Vec::new(),
            starts: vec![0],
            accepting: vec![true],
            trans: vec![BTreeMap::new()],
        }
    }

    /// The 0-arity automaton rejecting everything (logical *false*).
    pub fn false_rel(k: Sym) -> SyncNfa {
        SyncNfa::empty(k, Vec::new())
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        self.trans.push(BTreeMap::new());
        self.accepting.push(accepting);
        (self.trans.len() - 1) as StateId
    }

    /// Adds a transition.
    pub fn add_edge(&mut self, from: StateId, sym: ConvSym, to: StateId) {
        debug_assert!(
            !conv::is_all_pad(sym, self.arity()) || self.arity() == 0,
            "all-pad symbols are not valid transitions"
        );
        let v = self.trans[from as usize].entry(sym).or_default();
        if let Err(pos) = v.binary_search(&to) {
            v.insert(pos, to);
        }
    }

    /// Membership: does the automaton accept the convolution of `tuple`?
    /// `tuple` is matched positionally against `vars`.
    pub fn accepts(&self, tuple: &[&Str]) -> bool {
        assert_eq!(tuple.len(), self.arity(), "tuple arity mismatch");
        let word = conv::convolve(tuple);
        let mut cur: BTreeSet<StateId> = self.starts.iter().copied().collect();
        for sym in word {
            let mut next = BTreeSet::new();
            for &q in &cur {
                if let Some(ts) = self.trans[q as usize].get(&sym) {
                    next.extend(ts.iter().copied());
                }
            }
            if next.is_empty() {
                return false;
            }
            cur = next;
        }
        cur.iter().any(|&q| self.accepting[q as usize])
    }

    /// For 0-arity automata (sentences): is the empty tuple accepted?
    pub fn is_true(&self) -> bool {
        assert_eq!(self.arity(), 0, "is_true requires a sentence (arity 0)");
        self.accepts(&[])
    }

    // ------------------------------------------------------------------
    // Cylindrification and renaming
    // ------------------------------------------------------------------

    /// Extends the automaton to a superset of variables: the new tracks
    /// carry arbitrary strings. Structurally enforces padding validity on
    /// the fresh tracks and appends a "tail" phase for fresh strings
    /// longer than all original ones.
    pub fn cylindrify(&self, new_vars: &[Var]) -> Result<SyncNfa, SynchroError> {
        let mut vars: Vec<Var> = self.vars.clone();
        for &v in new_vars {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars.sort_unstable();
        if vars == self.vars {
            return Ok(self.clone());
        }
        if vars.len() > MAX_TRACKS {
            return Err(SynchroError::TooManyTracks(vars.len()));
        }

        // Position of each new-layout track in the old layout (None = fresh).
        let old_pos: Vec<Option<usize>> = vars
            .iter()
            .map(|v| self.vars.iter().position(|ov| ov == v))
            .collect();
        let fresh: Vec<usize> = old_pos
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i)
            .collect();
        let f = fresh.len();
        let arity = vars.len();

        // New states: (old_state | TAIL) × padded-subset-of-fresh-tracks.
        // Encoded as `base * 2^f + padmask` with TAIL = num_states().
        let n_old = self.num_states();
        let tail_base = n_old;
        let n_bases = n_old + 1;
        let mask_count = 1usize << f;
        let id = |base: usize, mask: usize| (base * mask_count + mask) as StateId;

        let mut out = SyncNfa::empty(self.k, vars.clone());
        for base in 0..n_bases {
            for _mask in 0..mask_count {
                let acc = if base == tail_base {
                    true
                } else {
                    self.accepting[base]
                };
                out.add_state(acc);
            }
        }
        out.starts = self.starts.iter().map(|&s| id(s as usize, 0)).collect();
        // 0-arity original accepting ε: its accepting start already covers
        // the short case; the tail covers longer fresh strings.

        // Enumerate fresh-letter assignments: each fresh track is pad or a
        // letter, consistent with the current pad mask.
        let fresh_assignments = |mask: usize| -> Vec<(usize, Vec<Option<Sym>>)> {
            // Returns (new_mask, letters-for-fresh-tracks in `fresh` order).
            let mut outv = vec![(mask, Vec::new())];
            for (fi, _) in fresh.iter().enumerate() {
                let mut next = Vec::new();
                for (m, letters) in &outv {
                    // Pad this fresh track (always allowed; sets its bit).
                    let mut l1 = letters.clone();
                    l1.push(None);
                    next.push((m | (1 << fi), l1));
                    // A letter, only if not already padded.
                    if m & (1 << fi) == 0 {
                        for s in 0..self.k {
                            let mut l2 = letters.clone();
                            l2.push(Some(s));
                            next.push((*m, l2));
                        }
                    }
                }
                outv = next;
            }
            outv
        };

        let place = |old_sym: Option<ConvSym>, fresh_letters: &[Option<Sym>]| -> ConvSym {
            // Build the new-layout symbol from old symbol + fresh letters.
            let mut letters: Vec<Option<Sym>> = Vec::with_capacity(arity);
            let mut fi = 0;
            for pos in &old_pos {
                match pos {
                    Some(op) => letters.push(match old_sym {
                        Some(sym) => conv::get(sym, *op),
                        None => None,
                    }),
                    None => {
                        letters.push(fresh_letters[fi]);
                        fi += 1;
                    }
                }
            }
            conv::pack(&letters)
        };

        for mask in 0..mask_count {
            let assigns = fresh_assignments(mask);
            // (a) Old transitions, with every fresh-letter assignment.
            for (q, tmap) in self.trans.iter().enumerate() {
                for (&sym, ts) in tmap {
                    for (new_mask, letters) in &assigns {
                        let nsym = place(Some(sym), letters);
                        for &t in ts {
                            out.add_edge(id(q, mask), nsym, id(t as usize, *new_mask));
                        }
                    }
                }
            }
            // (b) Entry to tail: from accepting old states, old tracks all
            //     pad, at least one fresh letter.
            for q in 0..n_old {
                if !self.accepting[q] {
                    continue;
                }
                for (new_mask, letters) in &assigns {
                    if letters.iter().all(Option::is_none) {
                        continue; // would be an all-pad symbol
                    }
                    let nsym = place(None, letters);
                    out.add_edge(id(q, mask), nsym, id(tail_base, *new_mask));
                }
            }
            // (c) Tail self-transitions.
            for (new_mask, letters) in &assigns {
                if letters.iter().all(Option::is_none) {
                    continue;
                }
                let nsym = place(None, letters);
                out.add_edge(id(tail_base, mask), nsym, id(tail_base, *new_mask));
            }
        }
        Ok(out.trim())
    }

    /// Renames variables via `map` (must be injective on this automaton's
    /// variables). Track order is re-sorted to keep the invariant.
    pub fn rename(&self, map: impl Fn(Var) -> Var) -> Result<SyncNfa, SynchroError> {
        let renamed: Vec<Var> = self.vars.iter().map(|&v| map(v)).collect();
        let mut sorted = renamed.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(SynchroError::BadVariable(sorted[0]));
        }
        // perm[i] = old track index that lands in new track i.
        let perm: Vec<usize> = sorted
            .iter()
            .map(|v| {
                renamed
                    .iter()
                    .position(|r| r == v)
                    .expect("sorted is a permutation of renamed")
            })
            .collect();
        let arity = self.arity();
        let mut out = SyncNfa::empty(self.k, sorted);
        for acc in &self.accepting {
            out.add_state(*acc);
        }
        out.starts = self.starts.clone();
        for (q, tmap) in self.trans.iter().enumerate() {
            for (&sym, ts) in tmap {
                let nsym = conv::permute(sym, &perm, arity);
                for &t in ts {
                    out.add_edge(q as StateId, nsym, t);
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Boolean operations
    // ------------------------------------------------------------------

    fn check_alphabet(&self, other: &SyncNfa) -> Result<(), SynchroError> {
        if self.k != other.k {
            return Err(SynchroError::AlphabetMismatch {
                left: self.k,
                right: other.k,
            });
        }
        Ok(())
    }

    /// Aligns two automata onto the union of their variables.
    pub fn align(&self, other: &SyncNfa) -> Result<(SyncNfa, SyncNfa), SynchroError> {
        self.check_alphabet(other)?;
        let a = self.cylindrify(&other.vars)?;
        let b = other.cylindrify(&self.vars)?;
        debug_assert_eq!(a.vars, b.vars);
        Ok((a, b))
    }

    /// Conjunction: synchronized product over the aligned variables.
    pub fn intersect(&self, other: &SyncNfa) -> Result<SyncNfa, SynchroError> {
        let (a, b) = self.align(other)?;
        let mut out = SyncNfa::empty(a.k, a.vars.clone());
        let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut worklist: Vec<(StateId, StateId)> = Vec::new();
        for &p in &a.starts {
            for &q in &b.starts {
                let id = *index.entry((p, q)).or_insert_with(|| {
                    let id = out.add_state(a.accepting[p as usize] && b.accepting[q as usize]);
                    worklist.push((p, q));
                    id
                });
                if !out.starts.contains(&id) {
                    out.starts.push(id);
                }
            }
        }
        while let Some((p, q)) = worklist.pop() {
            let from = index[&(p, q)];
            for (&sym, ts) in &a.trans[p as usize] {
                let Some(us) = b.trans[q as usize].get(&sym) else {
                    continue;
                };
                for &t in ts {
                    for &u in us {
                        let to = *index.entry((t, u)).or_insert_with(|| {
                            let id =
                                out.add_state(a.accepting[t as usize] && b.accepting[u as usize]);
                            worklist.push((t, u));
                            id
                        });
                        out.add_edge(from, sym, to);
                    }
                }
            }
        }
        Ok(out.trim())
    }

    /// Disjunction: union after alignment.
    pub fn union(&self, other: &SyncNfa) -> Result<SyncNfa, SynchroError> {
        let (a, mut b) = self.align(other)?;
        let mut out = a;
        let off = out.num_states() as StateId;
        for (q, tmap) in b.trans.iter_mut().enumerate() {
            let id = out.add_state(b.accepting[q]);
            debug_assert_eq!(id, q as StateId + off);
            for (&sym, ts) in tmap.iter() {
                for &t in ts {
                    out.add_edge(id, sym, t + off);
                }
            }
        }
        let extra: Vec<StateId> = b.starts.iter().map(|&s| s + off).collect();
        out.starts.extend(extra);
        Ok(out)
    }

    /// Negation relative to the valid convolutions of this automaton's
    /// variables: returns an automaton for `Valid(vars) ∖ L(self)`.
    ///
    /// `cap` bounds the number of convolution symbols enumerated during
    /// completion (the symbol space is `(k+1)^arity − 1`).
    pub fn complement(&self, cap: usize) -> Result<SyncNfa, SynchroError> {
        let arity = self.arity();
        let space = conv::symbol_space(self.k, arity);
        if space > cap {
            return Err(SynchroError::SymbolSpaceTooLarge { syms: space, cap });
        }
        if arity == 0 {
            return Ok(if self.is_true() {
                SyncNfa::false_rel(self.k)
            } else {
                SyncNfa::true_rel(self.k)
            });
        }
        // Minimize first: the completed product below is linear in the
        // determinized size, so shrinking it up front matters.
        let det = self.minimize();
        let all_syms = conv::all_symbols(self.k, arity);

        // States: (validity padmask, det state or DEAD), built lazily so
        // only reachable (mask, state) pairs materialize. Validity: a
        // track that has padded must stay padded; the all-pad symbol is
        // excluded from `all_syms` already.
        let n_det = det.num_states();
        let dead = n_det; // virtual dead det-state

        let pad_mask_of = |sym: ConvSym| -> usize {
            let mut m = 0usize;
            for i in 0..arity {
                if conv::get(sym, i).is_none() {
                    m |= 1 << i;
                }
            }
            m
        };
        // Precompute each symbol's pad mask once.
        let sym_masks: Vec<(ConvSym, usize)> =
            all_syms.iter().map(|&s| (s, pad_mask_of(s))).collect();

        let mut out = SyncNfa::empty(self.k, self.vars.clone());
        let mut index: HashMap<(usize, usize), StateId> = HashMap::new();
        let mut worklist: Vec<(usize, usize)> = Vec::new();
        let intern = |mask: usize,
                      d: usize,
                      out: &mut SyncNfa,
                      worklist: &mut Vec<(usize, usize)>,
                      index: &mut HashMap<(usize, usize), StateId>|
         -> StateId {
            *index.entry((mask, d)).or_insert_with(|| {
                let det_accepting = d < n_det && det.accepting[d];
                let id = out.add_state(!det_accepting);
                worklist.push((mask, d));
                id
            })
        };
        let start_det = det.starts.first().copied().unwrap_or(dead as StateId) as usize;
        let s0 = intern(0, start_det, &mut out, &mut worklist, &mut index);
        out.starts = vec![s0];

        while let Some((mask, d)) = worklist.pop() {
            let from = index[&(mask, d)];
            for &(sym, pm) in &sym_masks {
                // Validity: previously padded tracks must still pad.
                if pm & mask != mask {
                    continue;
                }
                let next_d = if d < n_det {
                    det.trans[d]
                        .get(&sym)
                        .and_then(|ts| ts.first())
                        .map(|&t| t as usize)
                        .unwrap_or(dead)
                } else {
                    dead
                };
                let to = intern(pm, next_d, &mut out, &mut worklist, &mut index);
                out.add_edge(from, sym, to);
            }
        }
        Ok(out.minimize())
    }

    // ------------------------------------------------------------------
    // Projection (∃) and ∃^∞
    // ------------------------------------------------------------------

    /// Existential quantification: removes `var`'s track. Transitions
    /// whose remaining letters are all `⊥` become ε-moves (the projected
    /// string outlasted the others) and are eliminated.
    pub fn project(&self, var: Var) -> Result<SyncNfa, SynchroError> {
        let Some(track) = self.vars.iter().position(|&v| v == var) else {
            return Err(SynchroError::BadVariable(var));
        };
        let arity = self.arity();
        let new_vars: Vec<Var> = self.vars.iter().copied().filter(|&v| v != var).collect();
        let new_arity = arity - 1;

        // Raw transitions + ε edges.
        let n = self.num_states();
        let mut raw: Vec<BTreeMap<ConvSym, Vec<StateId>>> = vec![BTreeMap::new(); n];
        let mut eps: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for (q, tmap) in self.trans.iter().enumerate() {
            for (&sym, ts) in tmap {
                let nsym = conv::remove_track(sym, track, arity);
                if conv::is_all_pad(nsym, new_arity) {
                    for &t in ts {
                        eps[q].push(t);
                    }
                } else {
                    for &t in ts {
                        let v = raw[q].entry(nsym).or_default();
                        if let Err(pos) = v.binary_search(&t) {
                            v.insert(pos, t);
                        }
                    }
                }
            }
        }

        // ε-closure.
        let closure = |q: StateId| -> Vec<StateId> {
            let mut seen = BTreeSet::from([q]);
            let mut stack = vec![q];
            while let Some(p) = stack.pop() {
                for &e in &eps[p as usize] {
                    if seen.insert(e) {
                        stack.push(e);
                    }
                }
            }
            seen.into_iter().collect()
        };

        let mut out = SyncNfa::empty(self.k, new_vars);
        for q in 0..n {
            let cl = closure(q as StateId);
            let acc = cl.iter().any(|&p| self.accepting[p as usize]);
            let id = out.add_state(acc);
            debug_assert_eq!(id as usize, q);
        }
        for q in 0..n {
            let cl = closure(q as StateId);
            for &p in &cl {
                for (&sym, ts) in &raw[p as usize] {
                    for &t in ts {
                        out.add_edge(q as StateId, sym, t);
                    }
                }
            }
        }
        out.starts = self.starts.clone();
        Ok(out.trim())
    }

    /// The `∃^∞` quantifier: returns an automaton over the *remaining*
    /// variables accepting exactly those assignments whose section
    /// `{ x̄ : (p̄, x̄) ∈ L }` over `inf_vars` is **infinite**.
    ///
    /// This regularity-preserving construction is what makes the paper's
    /// conjunctive-query safety (Theorem 5 / Corollary 6) decidable in
    /// this implementation: a CQ is unsafe iff some single witness choice
    /// yields infinitely many outputs, a `∃ params ∃^∞ outputs` sentence.
    pub fn exists_inf(&self, inf_vars: &[Var]) -> Result<SyncNfa, SynchroError> {
        for &v in inf_vars {
            if !self.vars.contains(&v) {
                return Err(SynchroError::BadVariable(v));
            }
        }
        let det = self.determinize();
        let arity = det.arity();
        let keep_tracks: Vec<usize> = det
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| !inf_vars.contains(v))
            .map(|(i, _)| i)
            .collect();
        let inf_tracks: Vec<usize> = (0..arity).filter(|i| !keep_tracks.contains(i)).collect();
        let keep_vars: Vec<Var> = keep_tracks.iter().map(|&i| det.vars[i]).collect();

        // Sub-graph: transitions where every kept track is ⊥ (the region
        // after the parameters are exhausted).
        let n = det.num_states();
        let sub_edge = |sym: ConvSym| keep_tracks.iter().all(|&i| conv::get(sym, i).is_none());

        // Which states can reach an accepting state inside the sub-graph?
        let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for (q, tmap) in det.trans.iter().enumerate() {
            for (&sym, ts) in tmap {
                if sub_edge(sym) {
                    for &t in ts {
                        preds[t as usize].push(q as StateId);
                    }
                }
            }
        }
        let mut reach_acc = vec![false; n];
        let mut stack: Vec<StateId> = (0..n as StateId)
            .filter(|&q| det.accepting[q as usize])
            .collect();
        for &q in &stack {
            reach_acc[q as usize] = true;
        }
        while let Some(q) = stack.pop() {
            for &p in &preds[q as usize] {
                if !reach_acc[p as usize] {
                    reach_acc[p as usize] = true;
                    stack.push(p);
                }
            }
        }

        // Pumpable states: lie on a sub-graph cycle and can reach accept.
        // Tarjan-free approach: a state d is on a cycle iff d reaches d via
        // ≥1 sub-edge. With n modest, do per-state BFS (bounded by edges).
        let sub_succ: Vec<Vec<StateId>> = (0..n)
            .map(|q| {
                let mut s: Vec<StateId> = det.trans[q]
                    .iter()
                    .filter(|(sym, _)| sub_edge(**sym))
                    .flat_map(|(_, ts)| ts.iter().copied())
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let on_cycle = |d: usize| -> bool {
            let mut seen = vec![false; n];
            let mut stack: Vec<StateId> = sub_succ[d].clone();
            while let Some(q) = stack.pop() {
                if q as usize == d {
                    return true;
                }
                if !seen[q as usize] {
                    seen[q as usize] = true;
                    stack.extend(sub_succ[q as usize].iter().copied());
                }
            }
            false
        };
        let pumpable: Vec<bool> = (0..n).map(|d| reach_acc[d] && on_cycle(d)).collect();

        // Inf(q): q reaches a pumpable state within the sub-graph.
        let mut inf = pumpable.clone();
        // Reverse reachability over sub-graph towards pumpable states.
        let mut stack: Vec<StateId> = (0..n as StateId).filter(|&q| inf[q as usize]).collect();
        while let Some(q) = stack.pop() {
            for &p in &preds[q as usize] {
                if !inf[p as usize] {
                    inf[p as usize] = true;
                    stack.push(p);
                }
            }
        }

        // Result over kept variables: same states; transitions drop the
        // quantified tracks; only symbols where some kept track is active
        // (the parameter-reading phase); accepting = Inf.
        let mut out = SyncNfa::empty(det.k, keep_vars);
        for &acc in inf.iter().take(n) {
            out.add_state(acc);
        }
        out.starts = det.starts.clone();
        for (q, tmap) in det.trans.iter().enumerate() {
            for (&sym, ts) in tmap {
                if sub_edge(sym) {
                    continue;
                }
                let mut reduced = sym;
                // Remove inf tracks from highest index down so positions
                // stay valid.
                let mut ar = arity;
                for &i in inf_tracks.iter().rev() {
                    reduced = conv::remove_track(reduced, i, ar);
                    ar -= 1;
                }
                for &t in ts {
                    out.add_edge(q as StateId, reduced, t);
                }
            }
        }
        Ok(out.trim())
    }

    // ------------------------------------------------------------------
    // Determinization, minimization, trimming
    // ------------------------------------------------------------------

    /// Subset construction. The result is deterministic: one start state,
    /// at most one successor per symbol. Missing transitions are implicit
    /// dead ends.
    pub fn determinize(&self) -> SyncNfa {
        let mut out = SyncNfa::empty(self.k, self.vars.clone());
        let start_set: Vec<StateId> = {
            let mut s: Vec<StateId> = self.starts.clone();
            s.sort_unstable();
            s.dedup();
            s
        };
        let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
        let mut worklist: Vec<Vec<StateId>> = Vec::new();
        let sid = out.add_state(start_set.iter().any(|&q| self.accepting[q as usize]));
        out.starts = vec![sid];
        index.insert(start_set.clone(), sid);
        worklist.push(start_set);

        while let Some(set) = worklist.pop() {
            let from = index[&set];
            // Union of outgoing symbols of member states.
            let mut by_sym: BTreeMap<ConvSym, Vec<StateId>> = BTreeMap::new();
            for &q in &set {
                for (&sym, ts) in &self.trans[q as usize] {
                    let v = by_sym.entry(sym).or_default();
                    v.extend(ts.iter().copied());
                }
            }
            for (sym, mut ts) in by_sym {
                ts.sort_unstable();
                ts.dedup();
                let to = match index.get(&ts) {
                    Some(&id) => id,
                    None => {
                        let id = out.add_state(ts.iter().any(|&q| self.accepting[q as usize]));
                        index.insert(ts.clone(), id);
                        worklist.push(ts);
                        id
                    }
                };
                out.add_edge(from, sym, to);
            }
        }
        out
    }

    /// Restricts to states reachable from a start and co-reachable to an
    /// accepting state. Keeps at least one (possibly useless) start so the
    /// automaton stays well-formed; an empty language yields a single
    /// non-accepting start with no transitions.
    pub fn trim(&self) -> SyncNfa {
        let n = self.num_states();
        let mut reach = vec![false; n];
        let mut stack: Vec<StateId> = self.starts.clone();
        for &s in &self.starts {
            reach[s as usize] = true;
        }
        while let Some(q) = stack.pop() {
            for ts in self.trans[q as usize].values() {
                for &t in ts {
                    if !reach[t as usize] {
                        reach[t as usize] = true;
                        stack.push(t);
                    }
                }
            }
        }
        let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for (q, tmap) in self.trans.iter().enumerate() {
            for ts in tmap.values() {
                for &t in ts {
                    preds[t as usize].push(q as StateId);
                }
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
        let mut out = SyncNfa::empty(self.k, self.vars.clone());
        let mut map: Vec<Option<StateId>> = vec![None; n];
        for q in 0..n {
            if useful[q] {
                map[q] = Some(out.add_state(self.accepting[q]));
            }
        }
        if out.num_states() == 0 {
            // Empty language: keep a canonical single dead start.
            let s = out.add_state(false);
            out.starts = vec![s];
            return out;
        }
        for q in 0..n {
            let Some(nq) = map[q] else { continue };
            for (&sym, ts) in &self.trans[q] {
                for &t in ts {
                    if let Some(nt) = map[t as usize] {
                        out.add_edge(nq, sym, nt);
                    }
                }
            }
        }
        out.starts = self
            .starts
            .iter()
            .filter_map(|&s| map[s as usize])
            .collect();
        if out.starts.is_empty() {
            // Starts were all useless but accepting states exist elsewhere
            // — unreachable language is empty.
            let s = out.add_state(false);
            out.starts = vec![s];
        }
        out
    }

    /// Minimization: determinize, trim, then Moore partition refinement on
    /// the partial DFA (missing transitions = dead, which trimming has
    /// made consistent).
    pub fn minimize(&self) -> SyncNfa {
        let d = self.determinize().trim();
        let n = d.num_states();
        if n <= 1 {
            return d;
        }
        let mut class: Vec<u32> = d.accepting.iter().map(|&a| if a { 1 } else { 0 }).collect();
        // The refinement loop stops when the class count is stable, so the
        // initial count must be the *actual* number of distinct classes —
        // 1 when all states agree on acceptance, not a hardcoded 2.
        let mut num_classes = if d.accepting.iter().any(|&a| a) && d.accepting.iter().any(|&a| !a) {
            2u32
        } else {
            class.iter_mut().for_each(|c| *c = 0);
            1u32
        };
        loop {
            let mut sig_index: HashMap<(u32, Vec<(ConvSym, u32)>), u32> = HashMap::new();
            let mut new_class = vec![0u32; n];
            for q in 0..n {
                let sig: Vec<(ConvSym, u32)> = d.trans[q]
                    .iter()
                    .map(|(&sym, ts)| (sym, class[ts[0] as usize]))
                    .collect();
                let key = (class[q], sig);
                let next = sig_index.len() as u32;
                let id = *sig_index.entry(key).or_insert(next);
                new_class[q] = id;
            }
            let new_num = sig_index.len() as u32;
            class = new_class;
            if new_num == num_classes {
                break;
            }
            num_classes = new_num;
        }
        let m = num_classes as usize;
        let mut out = SyncNfa::empty(d.k, d.vars.clone());
        for _ in 0..m {
            out.add_state(false);
        }
        for q in 0..n {
            let c = class[q];
            out.accepting[c as usize] = d.accepting[q];
            for (&sym, ts) in &d.trans[q] {
                out.add_edge(c, sym, class[ts[0] as usize]);
            }
        }
        out.starts = vec![class[d.starts[0] as usize]];
        out.trim()
    }

    // ------------------------------------------------------------------
    // Decision procedures & enumeration
    // ------------------------------------------------------------------

    /// Is the language empty?
    pub fn is_empty_lang(&self) -> bool {
        let t = self.trim();
        !t.accepting.iter().any(|&a| a)
    }

    /// Language equivalence (via cross-complement emptiness).
    pub fn equivalent(&self, other: &SyncNfa, cap: usize) -> Result<bool, SynchroError> {
        let oc = other.complement(cap)?;
        if !self.intersect(&oc)?.is_empty_lang() {
            return Ok(false);
        }
        let sc = self.complement(cap)?;
        Ok(other.intersect(&sc)?.is_empty_lang())
    }

    /// Exact finiteness verdict with counting — the state-safety decision.
    pub fn finiteness(&self) -> SyncFiniteness {
        self.to_dfa().finiteness()
    }

    /// Enumerates accepted tuples in order of convolution length, up to
    /// `limit` tuples and convolution length `max_len`.
    pub fn enumerate(&self, max_len: usize, limit: usize) -> Vec<Vec<Str>> {
        self.to_dfa().enumerate(max_len, limit)
    }

    /// Enumerates **all** tuples of a finite language.
    ///
    /// # Panics
    ///
    /// Panics if the language is infinite; check [`SyncNfa::finiteness`]
    /// first, or use [`SyncNfa::try_enumerate_finite`] (fallible) or
    /// [`SyncNfa::enumerate`] (explicit bounds).
    pub fn enumerate_finite(&self) -> Vec<Vec<Str>> {
        self.try_enumerate_finite()
            .expect("enumerate_finite on an infinite language")
    }

    /// Enumerates **all** tuples, or fails with
    /// [`SynchroError::InfiniteLanguage`] when there are infinitely many —
    /// the non-panicking form for callers whose finiteness verdict comes
    /// from elsewhere.
    pub fn try_enumerate_finite(&self) -> Result<Vec<Vec<Str>>, SynchroError> {
        self.to_dfa().try_enumerate_finite()
    }

    /// The shortest (by convolution length) accepted tuple, if any.
    pub fn witness(&self) -> Option<Vec<Str>> {
        self.to_dfa().witness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms;
    use strcalc_alphabet::Alphabet;

    fn s(t: &str) -> Str {
        Alphabet::ab().parse(t).unwrap()
    }

    /// All tuples of `arity` strings with each component of length ≤ `n`.
    fn tuples(k: Sym, arity: usize, n: usize) -> Vec<Vec<Str>> {
        let alpha = Alphabet::new(&"abcdefgh"[..k as usize]).unwrap();
        let singles: Vec<Str> = alpha.strings_up_to(n).collect();
        let mut out: Vec<Vec<Str>> = vec![Vec::new()];
        for _ in 0..arity {
            let mut next = Vec::new();
            for t in &out {
                for w in &singles {
                    let mut t2 = t.clone();
                    t2.push(w.clone());
                    next.push(t2);
                }
            }
            out = next;
        }
        out
    }

    fn check_semantics(a: &SyncNfa, n: usize, pred: impl Fn(&[Str]) -> bool, label: &str) {
        for t in tuples(a.k, a.arity(), n) {
            let refs: Vec<&Str> = t.iter().collect();
            assert_eq!(a.accepts(&refs), pred(&t), "{label}: disagreement on {t:?}");
        }
    }

    #[test]
    fn true_false_sentences() {
        assert!(SyncNfa::true_rel(2).is_true());
        assert!(!SyncNfa::false_rel(2).is_true());
    }

    #[test]
    fn cylindrify_adds_free_tracks() {
        // prefix(x,y) over vars {0,1}, cylindrified with var 2.
        let p = atoms::prefix(2, 0, 1);
        let c = p.cylindrify(&[2]).unwrap();
        assert_eq!(c.vars, vec![0, 1, 2]);
        check_semantics(&c, 2, |t| t[0].is_prefix_of(&t[1]), "cylindrified prefix");
    }

    #[test]
    fn cylindrify_sentence_to_unary() {
        // true over {} cylindrified to {5} accepts every string.
        let t = SyncNfa::true_rel(2).cylindrify(&[5]).unwrap();
        assert_eq!(t.vars, vec![5]);
        check_semantics(&t, 3, |_| true, "true cylindrified");
    }

    #[test]
    fn intersect_and_union_semantics() {
        let px = atoms::prefix(2, 0, 1); // x ⪯ y
        let la = atoms::last_sym(2, 1, 0); // L_a(y)
        let both = px.intersect(&la).unwrap();
        check_semantics(
            &both,
            2,
            |t| t[0].is_prefix_of(&t[1]) && t[1].last() == Some(0),
            "x⪯y ∧ L_a(y)",
        );
        let either = px.union(&la).unwrap();
        check_semantics(
            &either,
            2,
            |t| t[0].is_prefix_of(&t[1]) || t[1].last() == Some(0),
            "x⪯y ∨ L_a(y)",
        );
    }

    #[test]
    fn complement_semantics() {
        let px = atoms::prefix(2, 0, 1);
        let not_px = px.complement(1_000_000).unwrap();
        check_semantics(&not_px, 2, |t| !t[0].is_prefix_of(&t[1]), "¬(x⪯y)");
        // Double complement is the identity on languages.
        let back = not_px.complement(1_000_000).unwrap();
        assert!(back.equivalent(&atoms::prefix(2, 0, 1), 1_000_000).unwrap());
    }

    #[test]
    fn project_semantics() {
        // ∃y (x ≺ y ∧ L_a(y)): for every x there is such a y, so this is
        // all of Σ*.
        let sp = atoms::strict_prefix(2, 0, 1);
        let la = atoms::last_sym(2, 1, 0);
        let conj = sp.intersect(&la).unwrap();
        let ex = conj.project(1).unwrap();
        assert_eq!(ex.vars, vec![0]);
        check_semantics(&ex, 3, |_| true, "∃y (x≺y ∧ L_a(y))");

        // ∃x (x ≺ y): holds iff y ≠ ε.
        let ex2 = atoms::strict_prefix(2, 0, 1).project(0).unwrap();
        check_semantics(&ex2, 3, |t| !t[0].is_empty(), "∃x (x≺y)");
    }

    #[test]
    fn project_to_sentence() {
        // ∃x L_a(x) — true.
        let la = atoms::last_sym(2, 0, 0);
        let sent = la.project(0).unwrap();
        assert_eq!(sent.arity(), 0);
        assert!(sent.is_true());
        // ∃x (L_a(x) ∧ ¬L_a(x)) — false.
        let contra = atoms::last_sym(2, 0, 0)
            .intersect(&atoms::last_sym(2, 0, 0).complement(1000).unwrap())
            .unwrap();
        assert!(!contra.project(0).unwrap().is_true());
    }

    #[test]
    fn finiteness_and_enumeration() {
        // {x : x ⪯ "ab"} — 3 strings.
        let c = atoms::const_eq(2, 1, &s("ab"));
        let within = atoms::prefix(2, 0, 1).intersect(&c).unwrap();
        let prefixes = within.project(1).unwrap();
        assert_eq!(prefixes.finiteness(), SyncFiniteness::Finite(3));
        let all = prefixes.enumerate_finite();
        let flat: Vec<Str> = all.into_iter().map(|mut t| t.remove(0)).collect();
        assert_eq!(flat, vec![s(""), s("a"), s("ab")]);

        // {x : "ab" ⪯ x} — infinite.
        let c = atoms::const_eq(2, 0, &s("ab"));
        let ext = atoms::prefix(2, 0, 1).intersect(&c).unwrap();
        let exts = ext.project(0).unwrap();
        assert_eq!(exts.finiteness(), SyncFiniteness::Infinite);

        // Contradiction — empty.
        let la = atoms::last_sym(2, 0, 0);
        let e = la.intersect(&la.complement(1000).unwrap()).unwrap();
        assert_eq!(e.finiteness(), SyncFiniteness::Empty);
    }

    #[test]
    fn witness_finds_shortest() {
        let la = atoms::last_sym(2, 0, 1); // ends in 'b'
        let w = la.witness().unwrap();
        assert_eq!(w, vec![s("b")]);
        let contra = atoms::last_sym(2, 0, 0)
            .intersect(&atoms::last_sym(2, 0, 0).complement(1000).unwrap())
            .unwrap();
        assert!(contra.witness().is_none());
    }

    #[test]
    fn rename_permutes_tracks() {
        let p = atoms::prefix(2, 0, 1); // 0 ⪯ 1
        let r = p.rename(|v| 1 - v).unwrap(); // now 1 ⪯ 0
        check_semantics(&r, 2, |t| t[1].is_prefix_of(&t[0]), "renamed prefix");
    }

    #[test]
    fn minimize_preserves_language() {
        let p = atoms::prefix(2, 0, 1)
            .union(&atoms::last_sym(2, 1, 0))
            .unwrap();
        let m = p.minimize();
        assert!(m.num_states() <= p.determinize().num_states());
        check_semantics(
            &m,
            2,
            |t| t[0].is_prefix_of(&t[1]) || t[1].last() == Some(0),
            "minimized union",
        );
    }

    #[test]
    fn exists_inf_basic() {
        // (x, y) with x ⪯ y: every x has infinitely many y extensions →
        // ∃^∞y gives all x.
        let p = atoms::prefix(2, 0, 1);
        let inf_x = p.exists_inf(&[1]).unwrap();
        assert_eq!(inf_x.vars, vec![0]);
        check_semantics(&inf_x, 3, |_| true, "∃^∞y (x⪯y)");

        // y ⪯ x (note order): sections over y are the prefixes of x —
        // always finite → ∃^∞y is empty.
        let p2 = atoms::prefix(2, 1, 0); // track var1 ⪯ var0... vars sorted [0,1]; arg order (1,0)
        let inf2 = p2.exists_inf(&[1]).unwrap();
        assert!(inf2.is_empty_lang(), "prefix sections are finite");
    }

    #[test]
    fn exists_inf_sentence() {
        // ∃^∞x (L_a(x)): infinitely many strings end in a → true sentence.
        let la = atoms::last_sym(2, 0, 0);
        let sent = la.exists_inf(&[0]).unwrap();
        assert_eq!(sent.arity(), 0);
        assert!(sent.is_true());

        // ∃^∞x (x ⪯ "ab"): finite section → false.
        let c = atoms::const_eq(2, 1, &s("ab"));
        let within = atoms::prefix(2, 0, 1)
            .intersect(&c)
            .unwrap()
            .project(1)
            .unwrap();
        assert!(!within.exists_inf(&[0]).unwrap().is_true());
    }

    #[test]
    fn exists_inf_conditional() {
        // R(x,y) := x ⪯ y ∧ L_a(x): sections over y infinite for x ending
        // in 'a', empty otherwise. ∃^∞y picks exactly L_a strings.
        let p = atoms::prefix(2, 0, 1)
            .intersect(&atoms::last_sym(2, 0, 0))
            .unwrap();
        let r = p.exists_inf(&[1]).unwrap();
        check_semantics(&r, 3, |t| t[0].last() == Some(0), "∃^∞y (x⪯y ∧ L_a(x))");
    }

    #[test]
    fn equivalence_decision() {
        let a = atoms::prefix(2, 0, 1);
        let b = atoms::prefix(2, 0, 1).minimize();
        assert!(a.equivalent(&b, 1_000_000).unwrap());
        let c = atoms::strict_prefix(2, 0, 1);
        assert!(!a.equivalent(&c, 1_000_000).unwrap());
    }
}
