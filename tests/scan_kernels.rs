//! The scan kernels against their references. The batched dense
//! matcher (`DenseDfa::match_mask`), which retires a lane once it sits
//! in the dead state or in the accepting sink, agrees with a per-row
//! sparse `Dfa::accepts` on generated regexes and columns. The batch
//! kernel of every linear LIKE class (`LikeMatcher::match_mask`) — the
//! infix one reads each symbol once through a rolling window — agrees
//! with the dynamic-programming `LikePattern::matches`.

use proptest::prelude::*;
use strcalc::analyze::LikeMatcher;
use strcalc::automata::like::LikeItem;
use strcalc::automata::{DenseDfa, Dfa, LikePattern, Regex};
use strcalc::prelude::{Str, Sym};

/// Strings the batched matcher walks in lockstep; a column shorter than
/// two groups is walked scalar.
const LANES: usize = 8;

/// A raw regex over three symbols; [`fold`] maps it onto `k` of them.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        Just(Regex::Sym(0)),
        Just(Regex::Sym(1)),
        Just(Regex::Sym(2)),
        Just(Regex::Any),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Regex::Concat(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Regex::Union(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Regex::Star(Box::new(a))),
        ]
    })
}

/// `re` with every symbol taken modulo `k`.
fn fold(re: &Regex, k: Sym) -> Regex {
    let pair = |a: &Regex, b: &Regex| (Box::new(fold(a, k)), Box::new(fold(b, k)));
    match re {
        Regex::Sym(s) => Regex::Sym(s % k),
        Regex::Concat(a, b) => {
            let (a, b) = pair(a, b);
            Regex::Concat(a, b)
        }
        Regex::Union(a, b) => {
            let (a, b) = pair(a, b);
            Regex::Union(a, b)
        }
        Regex::Star(a) => Regex::Star(Box::new(fold(a, k))),
        other => other.clone(),
    }
}

/// A symbol: mostly in `Σ = 0..k`, now and then `k` itself or `0xFE`.
fn arb_sym() -> impl Strategy<Value = u8> {
    0u8..64
}

fn sym(raw: u8, k: Sym) -> Sym {
    match raw {
        62 => k,
        63 => 0xFE,
        s => s % k,
    }
}

/// A column of up to five lockstep groups of strings up to 48 symbols,
/// so lanes retire at different strides; some strings are empty.
fn arb_column() -> impl Strategy<Value = Vec<(Vec<u8>, u8)>> {
    prop::collection::vec(
        (prop::collection::vec(arb_sym(), 0..=48), 0u8..8),
        0..=5 * LANES,
    )
}

/// Whether the minimized automaton has an accepting sink: an accepting
/// state every symbol of `Σ` maps back to itself.
fn has_accepting_sink(dfa: &Dfa) -> bool {
    let d = dfa.minimize();
    (0..d.len()).any(|q| d.accepting[q] && d.trans[q].iter().all(|t| *t == Some(q as u32)))
}

/// Runs `match_mask` over `column` with the given initial bits and
/// checks every bit against `Dfa::accepts`: a clear bit stays clear, a
/// set bit stays set iff the row is in the language.
fn check_column(dfa: &Dfa, column: &[Str], init: &[bool]) {
    let dense = DenseDfa::compile(dfa);
    let refs: Vec<&Str> = column.iter().collect();
    let mut mask = init.to_vec();
    dense.match_mask(&refs, &mut mask);
    for (i, w) in column.iter().enumerate() {
        assert_eq!(
            mask[i],
            init[i] && dfa.accepts(w),
            "row {i} {:?} (bit was {})",
            w.syms(),
            init[i]
        );
    }
}

fn strs(k: Sym, raw: &[(Vec<u8>, u8)]) -> (Vec<Str>, Vec<bool>) {
    raw.iter()
        .map(|(w, bit)| {
            let syms = w.iter().map(|&r| sym(r, k)).collect();
            (Str::from_syms(syms), *bit != 0)
        })
        .unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn match_mask_agrees_with_the_sparse_walk(
        re in arb_regex(),
        k in 2u8..=3,
        sink in 0u8..2,
        column in arb_column(),
    ) {
        let mut re = fold(&re, k);
        if sink == 1 {
            // `R·Σ*` has an accepting sink whenever `R` is non-empty.
            re = Regex::Concat(Box::new(re), Box::new(Regex::Star(Box::new(Regex::Any))));
        }
        let dfa = Dfa::from_regex(k, &re);
        let (column, init) = strs(k, &column);
        check_column(&dfa, &column, &init);
    }
}

/// `n` strings over `{a, b}` whose lengths run through `0..64`, from a
/// fixed xorshift stream.
fn words(n: usize) -> Vec<Vec<Sym>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| (0..i % 64).map(|_| (next() % 2) as Sym).collect())
        .collect()
}

fn dfa(k: Sym, pattern: &str) -> Dfa {
    let alpha = strcalc::prelude::Alphabet::new(&"abc"[..k as usize]).unwrap();
    Dfa::from_regex(k, &Regex::parse(&alpha, pattern).unwrap())
}

#[test]
fn patterns_with_and_without_an_accepting_sink() {
    let sinks = ["b.*a.*", "b(a|b)*a(a|b)*", ".*", "ab.*", "(a|b)*bb(a|b)*"];
    let others = ["a.*b.*a", "(b*ab*a)*b*", "(aa)*", "", "ab"];
    for (patterns, sink) in [(sinks, true), (others, false)] {
        for pattern in patterns {
            let dfa = dfa(2, pattern);
            assert_eq!(has_accepting_sink(&dfa), sink, "/{pattern}/");
            for n in [0, 1, 2 * LANES - 1, 2 * LANES, 2 * LANES + 3, 300] {
                let column: Vec<Str> = words(n).into_iter().map(Str::from_syms).collect();
                let init: Vec<bool> = (0..n).map(|i| i % 7 != 3).collect();
                check_column(&dfa, &column, &init);
            }
            // Columns out of length order, with one string far longer
            // than the rest.
            for long in [70, 2_000] {
                let mut column: Vec<Str> =
                    words(40).into_iter().rev().map(Str::from_syms).collect();
                column[5] = Str::from_syms((0..long).map(|i| (i % 3 == 1) as Sym).collect());
                check_column(&dfa, &column, &vec![true; column.len()]);
            }
        }
    }
}

#[test]
fn a_row_in_the_accepting_sink_with_a_later_symbol_outside_sigma_rejects() {
    // Every row reaches the sink of `b.*a.*` at its second symbol, then
    // holds symbol 2 or 0xFE somewhere after it: inside the first
    // stride, inside a later one, in an odd tail, or last.
    let dfa = dfa(2, "b.*a.*");
    assert!(has_accepting_sink(&dfa));
    let mut column = Vec::new();
    for len in [3usize, 8, 9, 17, 40, 63] {
        for at in 2..len {
            for bad in [2, 0xFE] {
                let mut w: Vec<Sym> = (0..len).map(|i| (i % 3 == 0) as Sym).collect();
                w[0] = 1;
                w[1] = 0;
                w[at] = bad;
                column.push(Str::from_syms(w));
            }
        }
    }
    // And the same rows over Σ, which accept.
    let clean: Vec<Str> = column
        .iter()
        .map(|w| Str::from_syms(w.syms().iter().map(|&s| s.min(1)).collect()))
        .collect();
    column.extend(clean);
    let init = vec![true; column.len()];
    check_column(&dfa, &column, &init);
    let dense = DenseDfa::compile(&dfa);
    let refs: Vec<&Str> = column.iter().collect();
    let mut mask = init;
    dense.match_mask(&refs, &mut mask);
    let half = column.len() / 2;
    assert!(mask[..half].iter().all(|m| !m), "a row outside Σ matched");
    assert!(
        mask[half..].iter().all(|m| *m),
        "a row over Σ did not match"
    );
}

#[test]
fn lanes_retire_at_different_strides() {
    // Two rows in three hold a `bb` ending at symbol `i % 60`, where they
    // reach the sink of `.*bb.*`: retirements fall in every stride. The
    // rest alternate `a` and `b` and walk on to their last symbol,
    // which is a `b`.
    let dfa = dfa(2, ".*bb.*");
    let column: Vec<Str> = (0..200)
        .map(|i| {
            let len = 64 + i % 5;
            let at = if i % 3 == 0 { len } else { i % 60 };
            let w = (0..len)
                .map(|j| {
                    if j == at || j + 1 == at {
                        1
                    } else {
                        (j % 2) as Sym
                    }
                })
                .collect();
            Str::from_syms(w)
        })
        .collect();
    let init = vec![true; column.len()];
    check_column(&dfa, &column, &init);
}

/// Runs `matcher`'s batch kernel over `column` with the given initial
/// bits and checks every bit, and the one-word matcher, against the DP
/// reference: a clear bit stays clear, a set bit stays set iff the row
/// matches.
fn check_like(matcher: &LikeMatcher, reference: &LikePattern, column: &[Str], init: &[bool]) {
    let refs: Vec<&Str> = column.iter().collect();
    let mut mask = init.to_vec();
    matcher.match_mask(&refs, &mut mask);
    for (i, w) in column.iter().enumerate() {
        let want = reference.matches(w);
        assert_eq!(
            matcher.matches(w.syms()),
            want,
            "{matcher:?} on {:?}",
            w.syms()
        );
        assert_eq!(
            mask[i],
            init[i] && want,
            "{matcher:?} row {i} {:?} (bit was {})",
            w.syms(),
            init[i]
        );
    }
}

/// A linear-class matcher of class `class` built from literals `a` and
/// `b` (and `slots` for a fixed length), with its LIKE items.
fn linear(class: u8, a: &[Sym], b: &[Sym], slots: &[Option<Sym>]) -> (LikeMatcher, LikePattern) {
    let lits = |w: &[Sym]| w.iter().map(|&s| LikeItem::Lit(s)).collect::<Vec<_>>();
    let pct = || vec![LikeItem::Percent];
    let (matcher, items) = match class {
        0 => (LikeMatcher::AnyString, [pct(), pct()].concat()),
        1 => (LikeMatcher::Literal(a.to_vec()), lits(a)),
        2 => (
            LikeMatcher::FixedLength(slots.to_vec()),
            slots
                .iter()
                .map(|s| s.map_or(LikeItem::Underscore, LikeItem::Lit))
                .collect(),
        ),
        3 => (LikeMatcher::Prefix(a.to_vec()), [lits(a), pct()].concat()),
        4 => (LikeMatcher::Suffix(a.to_vec()), [pct(), lits(a)].concat()),
        5 => (
            LikeMatcher::Infix(a.to_vec()),
            [pct(), lits(a), pct()].concat(),
        ),
        _ => (
            LikeMatcher::PrefixSuffix(a.to_vec(), b.to_vec()),
            [lits(a), pct(), lits(b)].concat(),
        ),
    };
    (matcher, LikePattern { items })
}

/// A word of `reference`'s language: each `_` and each `%` is filled
/// from `fill` (a `%` takes up to ten symbols).
fn instance(reference: &LikePattern, fill: &[Sym]) -> Vec<Sym> {
    let mut fill = fill.iter().copied().cycle();
    let mut next = || fill.next().unwrap_or(0);
    let mut w = Vec::new();
    for item in &reference.items {
        match item {
            LikeItem::Lit(s) => w.push(*s),
            LikeItem::Underscore => w.push(next()),
            LikeItem::Percent => {
                let n = (3 * next() as usize + next() as usize) * 7 % 11;
                w.extend((0..n).map(|_| next()));
            }
            LikeItem::Unmatchable(_) => {}
        }
    }
    w
}

/// The DP reference for `%m%`.
fn infix_reference(m: &[Sym]) -> LikePattern {
    linear(5, m, &[], &[]).1
}

fn check_infix(m: &[Sym], w: &[Sym]) {
    let matcher = LikeMatcher::Infix(m.to_vec());
    check_like(
        &matcher,
        &infix_reference(m),
        &[Str::from_syms(w.to_vec())],
        &[true],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_like_kernel_agrees_with_the_dp_reference(
        k in 2u8..=3,
        class in 0u8..7,
        a in prop::collection::vec(0u8..3, 0..=12),
        b in prop::collection::vec(0u8..3, 0..=4),
        slots in prop::collection::vec(0u8..4, 0..=6),
        rows in prop::collection::vec(
            (0u8..4, prop::collection::vec(arb_sym(), 0..=24), 0u8..8),
            0..=40,
        ),
    ) {
        let fold = |w: &[u8]| w.iter().map(|s| s % k).collect::<Vec<Sym>>();
        let slots: Vec<Option<Sym>> = slots.iter().map(|&s| (s < 3).then_some(s % k)).collect();
        let (matcher, reference) = linear(class, &fold(&a), &fold(&b), &slots);
        // Per row: a random word (with symbols outside Σ now and then),
        // a word of the language, one with a symbol changed, or one a
        // symbol longer or shorter.
        let (column, init): (Vec<Str>, Vec<bool>) = rows
            .iter()
            .map(|(mode, raw, bit)| {
                let raw: Vec<Sym> = raw.iter().map(|&r| sym(r, k)).collect();
                let mut w = instance(&reference, &fold(&raw));
                match mode {
                    0 => w = raw.clone(),
                    1 => {}
                    2 if !w.is_empty() => {
                        let i = raw.len() % w.len();
                        w[i] = (w[i] + 1) % k;
                    }
                    _ if raw.len().is_multiple_of(2) => w.push(raw.first().copied().unwrap_or(0)),
                    _ => {
                        w.pop();
                    }
                }
                (Str::from_syms(w), *bit != 0)
            })
            .unzip();
        check_like(&matcher, &reference, &column, &init);
    }
}

#[test]
fn self_overlapping_infixes_match_where_they_start_late() {
    let cases: &[(&[Sym], &[Sym], bool)] = &[
        (&[0, 0, 1], &[0, 0, 0, 1], true),
        (&[0, 0, 1], &[0, 0, 0, 0], false),
        (&[0, 1, 0, 1, 1], &[0, 1, 0, 1, 0, 1, 1], true),
        (&[1, 1, 0, 1, 0, 0], &[1, 1, 1, 0, 1, 0, 0], true),
        // Longer than a word: the head matches at 0 and 1, the tail only
        // after the second.
        (
            &[0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
            &[0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
            true,
        ),
        (
            &[0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
            &[0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            false,
        ),
        // Symbol 0 is also the window's padding: a short string must
        // not match on it.
        (&[0, 1], &[1], false),
        (&[0, 0, 0], &[0, 0], false),
        (&[], &[], true),
    ];
    for &(m, w, want) in cases {
        assert_eq!(
            LikeMatcher::Infix(m.to_vec()).matches(w),
            want,
            "%{m:?}% on {w:?}"
        );
        check_infix(m, w);
    }
}
