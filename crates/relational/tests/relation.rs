//! Property-based tests of `Relation`'s storage: however a relation is
//! built, it holds the same strictly increasing rows as a `BTreeSet`
//! reference, answers `contains` as the reference does, and its symbol
//! ceiling bounds every stored symbol. Answers share their source's
//! leaves under live-row masks: a subsequence of a subsequence, lookups
//! and inserts on such an answer, and inserts into a clone each behave
//! as on the same rows built afresh, and leave the source unchanged.

use std::collections::BTreeSet;

use proptest::prelude::*;
use strcalc_alphabet::{Str, Sym};
use strcalc_relational::{Relation, Row};

/// Strings over four symbols, short enough that many share a length and
/// a six-symbol prefix (so rows tie on their sort keys) and long enough
/// to run past that prefix.
fn arb_str() -> impl Strategy<Value = Str> {
    prop::collection::vec(0u8..4, 0..=9).prop_map(Str::from_syms)
}

/// An arity and rows of that arity, enough to span several leaves, with
/// duplicates.
fn arb_rows() -> impl Strategy<Value = (usize, Vec<Vec<Str>>)> {
    let rows = prop::collection::vec(prop::collection::vec(arb_str(), 3), 0..300);
    (1usize..=3, rows).prop_map(|(arity, rows)| {
        let rows = rows.into_iter().map(|mut t| {
            t.truncate(arity);
            t
        });
        (arity, rows.collect())
    })
}

fn reference(rows: &[Vec<Str>]) -> BTreeSet<Vec<Str>> {
    rows.iter().cloned().collect()
}

fn rows_of(rel: &Relation) -> Vec<Vec<Str>> {
    rel.iter().map(|t| t.to_vec()).collect()
}

fn max_sym(rows: &[Vec<Str>]) -> Option<Sym> {
    rows.iter().flatten().filter_map(Str::max_sym).max()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inserts_and_bulk_builds_match_the_reference(case in arb_rows()) {
        let (arity, rows) = case;
        let expected: Vec<Vec<Str>> = reference(&rows).into_iter().collect();
        let mut inserted = Relation::new(arity);
        let mut fresh = 0;
        for t in &rows {
            fresh += usize::from(inserted.insert(t.clone()));
        }
        let bulk = Relation::from_tuples(arity, rows.clone());
        for rel in [&inserted, &bulk] {
            prop_assert_eq!(&rows_of(rel), &expected);
            prop_assert_eq!(rel.len(), expected.len());
            prop_assert!(rel.iter().zip(rel.iter().skip(1)).all(|(a, b)| a < b));
        }
        prop_assert_eq!(fresh, expected.len());
        prop_assert_eq!(&inserted, &bulk);
    }

    #[test]
    fn contains_agrees_with_the_reference(
        case in arb_rows(),
        probes in prop::collection::vec(prop::collection::vec(arb_str(), 3), 0..40),
    ) {
        let (arity, rows) = case;
        let expected = reference(&rows);
        let mut rel = Relation::new(arity);
        for t in &rows {
            rel.insert(t.clone());
        }
        let probes = probes.iter().map(|p| p[..arity].to_vec());
        for t in rows.iter().cloned().chain(probes) {
            prop_assert_eq!(rel.contains(&t), expected.contains(&t), "{:?}", t);
        }
    }

    #[test]
    fn the_ceiling_bounds_every_stored_symbol(case in arb_rows(), k in 0u8..6) {
        let (arity, rows) = case;
        let mut inserted = Relation::new(arity);
        for t in &rows {
            inserted.insert(t.clone());
        }
        let bulk = Relation::from_tuples(arity, rows.clone());
        let all_within = max_sym(&rows).is_none_or(|m| m < k);
        for rel in [&inserted, &bulk] {
            // Built row by row or in bulk, the ceiling is exact.
            prop_assert_eq!(rel.within(k), all_within);
            let kept: Vec<Vec<Str>> = rel.rows_within(k).map(|t| t.to_vec()).collect();
            let expected: Vec<Vec<Str>> = reference(&rows)
                .into_iter()
                .filter(|t| t.iter().all(|s| s.within(k)))
                .collect();
            prop_assert_eq!(kept, expected);
        }
    }

    #[test]
    fn a_subsequence_equals_the_same_rows_built_afresh(case in arb_rows(), k in 0u8..4) {
        let (arity, rows) = case;
        let rel = Relation::from_tuples(arity, rows);
        let kept: Vec<Row> = rel.iter().filter(|t| t[0].within(k)).cloned().collect();
        let keep: Vec<bool> = rel.iter().map(|t| t[0].within(k)).collect();
        let sub = rel.subsequence(&keep);
        let afresh = Relation::from_tuples(arity, kept.iter().map(|t| t.to_vec()));
        prop_assert_eq!(&sub, &afresh);
        prop_assert_eq!(sub.len(), kept.len());
        // The subsequence shares the stored rows.
        prop_assert!(sub.iter().zip(&kept).all(|(a, b)| Row::ptr_eq(a, b)));
        // Its ceiling is inherited: an upper bound, still sound.
        for j in 0..6 {
            if sub.within(j) {
                prop_assert!(sub.iter().all(|t| t.iter().all(|s| s.within(j))));
            }
        }
    }
}

/// Keep flags: about half set, and sometimes fewer flags than rows.
fn arb_keep() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(0u8..2, 0..300).prop_map(|f| f.into_iter().map(|b| b == 1).collect())
}

/// The rows of `rows` (in order) whose flag in `keep` is set.
fn kept(rows: &[Vec<Str>], keep: &[bool]) -> Vec<Vec<Str>> {
    rows.iter()
        .zip(keep)
        .filter(|(_, k)| **k)
        .map(|(t, _)| t.clone())
        .collect()
}

/// A relation of `rows` built row by row (leaves of every fill) or in
/// bulk (full leaves).
fn build(arity: usize, rows: &[Vec<Str>], by_insert: bool) -> Relation {
    if by_insert {
        let mut rel = Relation::new(arity);
        for t in rows {
            rel.insert(t.clone());
        }
        rel
    } else {
        Relation::from_tuples(arity, rows.to_vec())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn answers_of_answers_equal_the_same_rows_built_afresh(
        case in arb_rows(),
        by_insert in 0u8..2,
        first in arb_keep(),
        second in arb_keep(),
        probes in prop::collection::vec(prop::collection::vec(arb_str(), 3), 0..40),
    ) {
        let (arity, rows) = case;
        let rel = build(arity, &rows, by_insert == 1);
        let stored = rows_of(&rel);
        let once = kept(&stored, &first);
        let twice = kept(&once, &second);
        let sub = rel.subsequence(&first);
        let subsub = sub.subsequence(&second);
        for (answer, want) in [(&sub, &once), (&subsub, &twice)] {
            prop_assert_eq!(answer, &Relation::from_tuples(arity, want.clone()));
            prop_assert_eq!(&rows_of(answer), want);
            prop_assert_eq!(answer.len(), want.len());
        }
        // `contains` on an answer: its rows, the rows it left out, and
        // rows it never had.
        let reference: BTreeSet<Vec<Str>> = twice.iter().cloned().collect();
        let probes = probes.iter().map(|p| p[..arity].to_vec());
        for t in stored.iter().cloned().chain(probes) {
            prop_assert_eq!(subsub.contains(&t), reference.contains(&t), "{:?}", t);
        }
        prop_assert_eq!(&rows_of(&rel), &stored);
    }

    #[test]
    fn inserts_into_an_answer_or_a_clone_leave_the_source_unchanged(
        case in arb_rows(),
        by_insert in 0u8..2,
        keep in arb_keep(),
        inserts in prop::collection::vec(prop::collection::vec(arb_str(), 3), 0..80),
    ) {
        let (arity, rows) = case;
        let rel = build(arity, &rows, by_insert == 1);
        let stored = rows_of(&rel);
        let inserts: Vec<Vec<Str>> = inserts.iter().map(|t| t[..arity].to_vec()).collect();
        let answer = rel.subsequence(&keep);
        let kept_rows = kept(&stored, &keep);
        // Into an answer, into a clone of the relation, and into a clone
        // of the answer.
        for (start, base) in [(&answer, &kept_rows), (&rel, &stored), (&answer.clone(), &kept_rows)] {
            let mut grown = start.clone();
            let mut reference: BTreeSet<Vec<Str>> = base.iter().cloned().collect();
            for t in &inserts {
                prop_assert_eq!(grown.insert(t.clone()), reference.insert(t.clone()), "{:?}", t);
            }
            let reference: Vec<Vec<Str>> = reference.into_iter().collect();
            prop_assert_eq!(&grown, &Relation::from_tuples(arity, reference.clone()));
            prop_assert_eq!(grown.len(), reference.len());
            prop_assert!(reference.iter().all(|t| grown.contains(t)));
            prop_assert_eq!(&rows_of(start), base);
        }
        prop_assert_eq!(&rows_of(&rel), &stored);
        prop_assert_eq!(&rows_of(&answer), &kept_rows);
    }
}
