//! Dense byte-class-compressed DFA tables: the raw-speed execution tier.
//!
//! A [`Dfa`] stores transitions as `Vec<Vec<Option<StateId>>>` — two
//! pointer chases plus an `Option` discriminant test per input symbol.
//! [`DenseDfa`] lowers a minimized automaton to a single contiguous
//! `Vec<u32>` indexed by `state_row + byte_class`, the layout used by
//! production regex engines:
//!
//! * **byte-class compression** — symbols with identical transition
//!   columns share one class, shrinking each state's row (a 256-entry
//!   map folds every input byte to its class);
//! * **premultiplied rows** — table entries store `next_state *
//!   num_classes`, so the hot loop is one add and one load per byte,
//!   with no multiply;
//! * **sink class** — every byte outside the alphabet `0..k` maps to a
//!   dedicated class whose column is a dead state, giving the ∅-outside-Σ
//!   convention (a string containing any out-of-Σ byte is in no
//!   language over Σ) without a branch in the loop.
//!
//! The sink reuses an existing dead state when the completed automaton
//! already has one, so densification never exceeds the state bounds the
//! plan verifier certifies from the LIKE shape taxonomy.
//!
//! A walk stops reading a string once its verdict is fixed. The table
//! records two sinks: the dead state (reject) and the *accepting sink*,
//! an accepting state every in-Σ class maps back to itself (`b.*a.*`
//! after its `a`). In the accepting sink the verdict is "no remaining
//! symbol is `≥ k`", one vectorizable pass instead of a table walk, so
//! the ∅-outside-Σ convention holds. [`DenseDfa::match_mask`] walks a
//! batch eight strings at a time in lockstep and retires a group once
//! every lane is decided.

// Panic audit: this module sits on the hot evaluation path, so every
// potential panic must be a messaged `expect` documenting its invariant
// (tests are exempt below).
#![deny(clippy::unwrap_used)]

use strcalc_alphabet::{Str, Sym};

use crate::dfa::Dfa;
use crate::StateId;

/// A dense, total, byte-class-compressed DFA transition table.
#[derive(Debug, Clone)]
pub struct DenseDfa {
    /// Alphabet size the table was compiled for.
    k: Sym,
    /// Input byte → class index. Bytes `>= k` map to the sink class.
    classes: Box<[u8; 256]>,
    /// Number of byte classes, including the sink class.
    num_classes: u32,
    /// Number of states, including the sink.
    num_states: u32,
    /// Row-major `num_states × num_classes` table; entries are
    /// premultiplied (`next_state * num_classes`).
    table: Vec<u32>,
    /// Pair-stride table: `num_states × num_classes²` entries
    /// premultiplied by `num_classes²`, advancing two bytes per load —
    /// the batched walker's fast path. Empty when `num_classes²`
    /// exceeds [`PAIR_COLS_CAP`].
    pair: Vec<u32>,
    /// `classes[b] × num_classes`, the high half of a pair-table column
    /// index (fits u16: both factors are at most 256).
    classes_hi: Box<[u16; 256]>,
    /// Premultiplied start row offset.
    start: u32,
    /// Premultiplied dead-state row offset. Minimization merges all
    /// doomed states into one, so `state == dead` is the complete
    /// "can never accept" test and walks may stop there early.
    dead: u32,
    /// Premultiplied accepting-sink row offset: the accepting state
    /// every in-Σ class maps back to itself (minimization leaves at
    /// most one). A walk there accepts iff no remaining symbol is
    /// `>= k`, so walks may stop there early too. Equals `dead` when
    /// the automaton has no accepting sink.
    accept: u32,
    /// Per-state acceptance (plain state index, not premultiplied).
    accepting: Vec<bool>,
}

/// Strings stepped per iteration of the batched walker. A single DFA
/// walk is latency-bound — each step waits on the previous table load —
/// so the batched matcher walks this many strings in lockstep to keep
/// several independent loads in flight per cycle. `lockstep` unrolls
/// the lanes into named locals (so states stay in registers), which
/// pins this at 8 — the destructuring there fails to compile otherwise.
const LANES: usize = 8;

/// How many bytes the lockstep walk steps between whole-group checks.
/// The check is how a group stops early once every lane is decided —
/// in the dead state (the batched analogue of the sparse walk's
/// missing-transition exit) or in the accepting sink; the stride keeps
/// it out of the per-byte path.
const DEAD_CHECK_STRIDE: usize = 8;

/// Widest pair-stride row (`num_classes²`) the compiler materializes.
/// At 4 bytes per entry this caps the pair table at 1 KiB per state;
/// automata with more byte classes keep only the single-step table.
/// [`strcalc_analyze`]'s `dense_table_bytes` certificate bound bakes in
/// the same cap, so raising it requires raising the bound with it.
const PAIR_COLS_CAP: u32 = 256;

impl DenseDfa {
    /// Lowers a DFA to a dense table. The input is minimized and
    /// completed first, so callers may pass any (partial) automaton.
    pub fn compile(dfa: &Dfa) -> DenseDfa {
        let d = dfa.minimize().complete();
        let k = d.k as usize;
        let n = d.trans.len();

        // Sink for out-of-Σ bytes: reuse an existing dead state (the
        // completion step materializes one whenever the minimized
        // automaton was partial) so the dense table has exactly the
        // certified state count; append one only if the automaton is
        // total with no dead state.
        let is_dead = |q: usize| -> bool {
            !d.accepting[q] && d.trans[q].iter().all(|t| *t == Some(q as StateId))
        };
        let (sink, trans, accepting) = match (0..n).find(|&q| is_dead(q)) {
            Some(q) => (q, d.trans.clone(), d.accepting.clone()),
            None => {
                let mut trans = d.trans.clone();
                let mut accepting = d.accepting.clone();
                trans.push(vec![Some(n as StateId); k]);
                accepting.push(false);
                (n, trans, accepting)
            }
        };
        let n = trans.len();
        // The accepting sink, if any: an accepting state that every
        // in-Σ symbol maps back to itself (its out-of-Σ column is the
        // dead sink, like every row's).
        let accept = (0..n)
            .find(|&q| accepting[q] && trans[q].iter().all(|t| *t == Some(q as StateId)))
            .unwrap_or(sink);
        // `complete()` totalized every original row; the appended sink
        // row is total by construction.
        debug_assert!(trans.iter().all(|r| r.iter().all(Option::is_some)));

        // Byte classes: symbols with identical transition columns share
        // a class. Class indices are assigned in first-seen symbol
        // order; the sink class comes last.
        let mut classes = Box::new([0u8; 256]);
        let mut reprs: Vec<Sym> = Vec::new();
        for s in 0..k {
            let found = reprs
                .iter()
                .position(|&r| trans.iter().all(|row| row[s] == row[r as usize]));
            let class = match found {
                Some(c) => c,
                None => {
                    reprs.push(s as Sym);
                    reprs.len() - 1
                }
            };
            debug_assert!(class < 255, "byte classes exceed u8 range");
            classes[s] = class as u8;
        }
        let sink_class = reprs.len();
        debug_assert!(sink_class < 256, "sink class exceeds u8 range");
        for b in k..256 {
            classes[b] = sink_class as u8;
        }
        let num_classes = sink_class + 1;

        // Premultiplied row-major table.
        let entries = (n as u64) * (num_classes as u64);
        debug_assert!(
            entries * (num_classes as u64) <= u32::MAX as u64,
            "dense table exceeds u32 offset range"
        );
        let mut table = Vec::with_capacity(entries as usize);
        for row in &trans {
            for &r in &reprs {
                let next = row[r as usize].expect("invariant: completed automaton rows are total");
                table.push(next * num_classes as u32);
            }
            table.push(sink as u32 * num_classes as u32);
        }

        // Pair-stride table: one row per state, one column per ordered
        // class pair, entries premultiplied by `num_classes²` so the
        // batched walker advances two bytes with a single load. The
        // single-step table above stays the source of truth (scalar
        // walks, odd tail bytes, conversion back to state space).
        let nc = num_classes as u32;
        let step = |state: u32, class: u32| -> u32 { table[(state * nc + class) as usize] / nc };
        let mut classes_hi = Box::new([0u16; 256]);
        for b in 0..256 {
            classes_hi[b] = classes[b] as u16 * nc as u16;
        }
        let pair = if nc * nc <= PAIR_COLS_CAP {
            let mut pair = Vec::with_capacity(n * (nc * nc) as usize);
            for state in 0..n as u32 {
                for c1 in 0..nc {
                    let mid = step(state, c1);
                    for c2 in 0..nc {
                        pair.push(step(mid, c2) * nc * nc);
                    }
                }
            }
            pair
        } else {
            Vec::new()
        };

        DenseDfa {
            k: d.k,
            classes,
            num_classes: nc,
            num_states: n as u32,
            table,
            pair,
            classes_hi,
            start: d.start * nc,
            dead: sink as u32 * nc,
            accept: accept as u32 * nc,
            accepting,
        }
    }

    /// Membership test over raw symbols. Any byte `>= k` routes through
    /// the sink class and rejects — the ∅-outside-Σ convention. Stops
    /// once the verdict is fixed: at the first byte that traps the walk
    /// in the dead state, like the sparse walk stops on a missing
    /// transition, or on reaching the accepting sink, where only the
    /// rest of the string's symbols being in `Σ` is left to check.
    #[inline]
    pub fn accepts_syms(&self, syms: &[Sym]) -> bool {
        self.finish(self.start, syms)
    }

    /// Membership test.
    #[inline]
    pub fn accepts(&self, w: &Str) -> bool {
        self.accepts_syms(w.syms())
    }

    /// Batched columnar matcher: runs every still-live row of a column
    /// through the table, clearing mask bits for non-members. One
    /// dispatch per batch, not per string; rows whose bit is already
    /// clear are not read.
    ///
    /// The batch is walked `LANES` (8) strings at a time in lockstep, so
    /// the dependent table loads of independent strings overlap instead
    /// of serializing on load latency. Rows are grouped by string
    /// length first (a cheap index sort) so the lockstep window — which
    /// only spans the group's shortest string — covers nearly every
    /// byte, leaving ragged tails too short to matter.
    ///
    /// A lane is *decided* once it sits in the dead state (reject) or
    /// in the accepting sink (accept iff no remaining symbol is `≥ k`,
    /// one vectorizable pass over the rest). Every 8 bytes a group
    /// stops stepping if every lane is decided; each lane then finishes
    /// with a scalar walk from its saved state.
    ///
    /// A call is bounded work — no retries, and index buffers no larger
    /// than the batch — proportional to the bytes in `col`.
    /// Deadline-governed callers exploit that: they poll their
    /// cooperative deadline once per batch *between* calls (4096 rows in
    /// the dense scan loop) rather than threading a cancellation token
    /// through the lockstep walk, which would put a branch in the
    /// hottest loop in the engine.
    ///
    /// # Panics
    ///
    /// Panics if `col` and `mask` differ in length.
    pub fn match_mask(&self, col: &[&Str], mask: &mut [bool]) {
        assert_eq!(col.len(), mask.len(), "column/mask length mismatch");
        if col.len() < 2 * LANES || self.pair.is_empty() {
            // Short columns, and exotically wide class maps that skip
            // the pair table, walk scalar on the single-step table.
            for (live, w) in mask.iter_mut().zip(col) {
                if *live {
                    *live = self.accepts_syms(w.syms());
                }
            }
            return;
        }
        // Length-grouped walk order of the live rows: (length, row).
        // Lengths and indices both fit u32 (a batch column is far below
        // 4G rows/bytes). A stored relation's rows arrive sorted by
        // length, and the pass that reads the lengths notices.
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(col.len());
        let mut sorted = true;
        for (i, w) in col.iter().enumerate() {
            if mask[i] {
                let len = w.syms().len() as u32;
                sorted &= order.last().is_none_or(|&(prev, _)| prev <= len);
                order.push((len, i as u32));
            }
        }
        if !sorted {
            order.sort_unstable();
        }
        // Pair space premultiplies states by `num_classes²`; the
        // single-step offsets are premultiplied by `num_classes`, so one
        // more factor converts in, and dividing it back converts out
        // (once per lane, when it finishes).
        let nc = self.num_classes;
        let (start, dead) = (self.start * nc, self.dead * nc);
        for group in order.chunks_exact(LANES) {
            let row: [usize; LANES] = std::array::from_fn(|i| group[i].1 as usize);
            let full: [&[Sym]; LANES] = std::array::from_fn(|i| col[row[i]].syms());
            let (states, stepped) = self.lockstep(full, start);
            for i in 0..LANES {
                // A dead lane needs no division to reject.
                let s = states[i];
                mask[row[i]] = s != dead && self.finish(s / nc, &full[i][stepped..]);
            }
        }
        for &(_, r) in order.chunks_exact(LANES).remainder() {
            mask[r as usize] = self.accepts_syms(col[r as usize].syms());
        }
    }

    /// Steps [`LANES`] strings in lockstep through the pair-stride
    /// table, two bytes per load, from the pair-space state `start`,
    /// and returns each lane's state and the bytes every lane stepped.
    /// The lanes come sorted by length, so the window is the first lane's
    /// even prefix: inside it every lane has a byte, so the inner loop
    /// carries no length or liveness branches — just [`LANES`]
    /// independent column-lookup/table-load pairs per iteration. The
    /// lanes are unrolled into named locals so the states live in
    /// registers, and each lane is pre-sliced to the window so the
    /// byte indexing needs one bounds check per step for all lanes.
    ///
    /// Every [`DEAD_CHECK_STRIDE`] bytes the walk stops if every lane is
    /// decided. It is compiled out of line, so the walk's register
    /// allocation does not depend on its caller.
    #[inline(never)]
    fn lockstep(&self, lanes: [&[Sym]; LANES], start: u32) -> ([u32; LANES], usize) {
        debug_assert!(lanes.windows(2).all(|w| w[0].len() <= w[1].len()));
        let even = lanes[0].len() & !1;
        let [w0, w1, w2, w3, w4, w5, w6, w7]: [&[Sym]; LANES] =
            std::array::from_fn(|i| &lanes[i][..even]);
        let nc = self.num_classes;
        let lo = &self.classes;
        let hi = &self.classes_hi;
        let tbl = self.pair.as_slice();
        let (dead, sink) = (self.dead * nc, self.accept * nc);
        let done = |s: u32| s == dead || s == sink;
        let [mut s0, mut s1, mut s2, mut s3, mut s4, mut s5, mut s6, mut s7] = [start; LANES];
        let mut t = 0;
        while t < even {
            // DEAD_CHECK_STRIDE is even, so `stop` stays pair-aligned.
            let stop = (t + DEAD_CHECK_STRIDE).min(even);
            let mut u = t;
            while u < stop {
                s0 = tbl[(s0 + hi[w0[u] as usize] as u32 + lo[w0[u + 1] as usize] as u32) as usize];
                s1 = tbl[(s1 + hi[w1[u] as usize] as u32 + lo[w1[u + 1] as usize] as u32) as usize];
                s2 = tbl[(s2 + hi[w2[u] as usize] as u32 + lo[w2[u + 1] as usize] as u32) as usize];
                s3 = tbl[(s3 + hi[w3[u] as usize] as u32 + lo[w3[u + 1] as usize] as u32) as usize];
                s4 = tbl[(s4 + hi[w4[u] as usize] as u32 + lo[w4[u + 1] as usize] as u32) as usize];
                s5 = tbl[(s5 + hi[w5[u] as usize] as u32 + lo[w5[u + 1] as usize] as u32) as usize];
                s6 = tbl[(s6 + hi[w6[u] as usize] as u32 + lo[w6[u + 1] as usize] as u32) as usize];
                s7 = tbl[(s7 + hi[w7[u] as usize] as u32 + lo[w7[u + 1] as usize] as u32) as usize];
                u += 2;
            }
            t = stop;
            if done(s0)
                && done(s1)
                && done(s2)
                && done(s3)
                && done(s4)
                && done(s5)
                && done(s6)
                && done(s7)
            {
                // Every lane is decided; `finish` reads each verdict.
                break;
            }
        }
        ([s0, s1, s2, s3, s4, s5, s6, s7], t)
    }

    /// Scalar walk from `s` over the remaining bytes of one lane,
    /// stopping once the verdict is fixed. In the dead state the string
    /// is rejected; in the accepting sink every in-`Σ` byte stays put
    /// and any other byte leads to the dead state, so the string is
    /// accepted iff no remaining symbol is `≥ k` — a pass the compiler
    /// vectorizes.
    #[inline]
    fn finish(&self, mut s: u32, mut rest: &[Sym]) -> bool {
        while let [b, tail @ ..] = rest {
            if s == self.dead {
                return false;
            }
            if s == self.accept {
                return rest.iter().fold(true, |all, &b| all & (b < self.k));
            }
            s = self.table[(s + self.classes[*b as usize] as u32) as usize];
            rest = tail;
        }
        self.accepting[(s / self.num_classes) as usize]
    }

    /// Alphabet size the table was compiled for.
    pub fn alphabet_size(&self) -> Sym {
        self.k
    }

    /// Number of states, including the out-of-Σ sink.
    pub fn num_states(&self) -> u32 {
        self.num_states
    }

    /// Number of byte classes, including the sink class.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Heap footprint of the tables in bytes, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<DenseDfa>()
            + 256
            + 512
            + (self.table.len() + self.pair.len()) * std::mem::size_of::<u32>()
            + self.accepting.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Regex;
    use strcalc_alphabet::Alphabet;

    fn dense(k: Sym, pattern: &str) -> (Dfa, DenseDfa) {
        let alpha = Alphabet::new(&"abcdefgh"[..k as usize]).unwrap();
        let dfa = Dfa::from_regex(k, &Regex::parse(&alpha, pattern).unwrap());
        let dense = DenseDfa::compile(&dfa);
        (dfa, dense)
    }

    /// All strings over `0..k` up to length `n`, plus out-of-Σ probes.
    fn strings(k: Sym, n: usize) -> Vec<Vec<Sym>> {
        let mut out: Vec<Vec<Sym>> = vec![vec![]];
        let mut frontier: Vec<Vec<Sym>> = vec![vec![]];
        for _ in 0..n {
            let mut next = Vec::new();
            for w in &frontier {
                for s in 0..k {
                    let mut v = w.clone();
                    v.push(s);
                    next.push(v);
                }
            }
            out.extend(next.iter().cloned());
            frontier = next;
        }
        out
    }

    #[test]
    fn dense_agrees_with_sparse_walk() {
        for pattern in [
            "a.*", ".*b", ".*ab.*", "a.b", "ab", ".*", "(aa)*", "b.*a.*", "",
        ] {
            let (dfa, dense) = dense(2, pattern);
            let complete = dfa.complete();
            for w in strings(2, 6) {
                let s = Str::from_syms(w.clone());
                assert_eq!(
                    dense.accepts(&s),
                    complete.accepts(&s),
                    "pattern {pattern:?} disagrees on {w:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_alphabet_bytes_reject() {
        // Even Σ* rejects strings containing bytes outside Σ: the
        // automaton route's ∅-outside-Σ convention.
        for pattern in [".*", "a.*", "(aa)*"] {
            let (_, dense) = dense(2, pattern);
            assert!(!dense.accepts_syms(&[2]), "{pattern:?} accepted sym 2");
            assert!(
                !dense.accepts_syms(&[0, 7, 1]),
                "{pattern:?} accepted embedded sym 7"
            );
            assert!(
                !dense.accepts_syms(&[0xFE]),
                "{pattern:?} accepted sym 0xFE"
            );
        }
        // But in-Σ strings still behave.
        let (_, dense) = dense(2, ".*");
        assert!(dense.accepts_syms(&[]));
        assert!(dense.accepts_syms(&[0, 1, 0]));
    }

    #[test]
    fn byte_classes_compress_equivalent_symbols() {
        // Over a 4-letter alphabet, `a.*` treats b, c, d identically:
        // classes = {a}, {b,c,d}, sink → 3.
        let (_, d4) = dense(4, "a.*");
        assert_eq!(d4.num_classes(), 3);
        // All 248 out-of-Σ byte values share the sink class.
        let (_, d2) = dense(2, "ab");
        assert!(d2.num_classes() <= 3 + 1);
    }

    #[test]
    fn sink_reuses_existing_dead_state() {
        // `ab` minimizes to a partial DFA; complete() adds a dead state
        // which the sink must reuse rather than appending another.
        let (dfa, dense) = dense(2, "ab");
        assert_eq!(dense.num_states(), dfa.minimize().complete().len() as u32);
    }

    #[test]
    fn universal_language_appends_a_sink() {
        // Σ* is total with no dead state, so the sink is appended.
        let (dfa, dense) = dense(2, ".*");
        assert_eq!(dfa.minimize().complete().len(), 1);
        assert_eq!(dense.num_states(), 2);
    }

    #[test]
    fn empty_language_rejects_everything() {
        let dfa = Dfa::empty(2);
        let dense = DenseDfa::compile(&dfa);
        for w in strings(2, 4) {
            assert!(!dense.accepts_syms(&w));
        }
    }

    #[test]
    fn match_mask_respects_and_clears_bits() {
        let (_, dense) = dense(2, "a.*");
        let alpha = Alphabet::ab();
        let col: Vec<Str> = ["ab", "ba", "a", "", "aa"]
            .iter()
            .map(|t| alpha.parse(t).unwrap())
            .collect();
        let refs: Vec<&Str> = col.iter().collect();
        let mut mask = vec![true, true, true, false, true];
        dense.match_mask(&refs, &mut mask);
        // "ab" ✓, "ba" ✗, "a" ✓, "" pre-cleared (stays false), "aa" ✓.
        assert_eq!(mask, vec![true, false, true, false, true]);
    }

    #[test]
    fn approx_bytes_covers_the_table() {
        let (_, dense) = dense(2, ".*ab.*");
        assert!(dense.approx_bytes() >= dense.table.len() * 4 + 256);
    }
}
