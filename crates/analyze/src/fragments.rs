//! Pass 5: fragment inference.
//!
//! A bottom-up attribute analysis that places **every subformula** at a
//! point in the paper's fragment lattice:
//!
//! * **structure** — the minimal structure class (`S ⊏ S_left ⊏ S_reg ⊏
//!   S_len ⊏ concat`, Figure 1) the subformula's atoms and term
//!   functions require;
//! * **quantifier-free** — no quantifier of any kind below the node;
//! * **safe-range** — every free variable of the subformula is
//!   range-restricted in its conjunction context (the static safety
//!   fragment of Theorem 7, read per node from the pass-2 walk);
//! * **collapse-safe** — safe-range *and* concat-free: the generic
//!   collapse / natural-restriction results (Proposition 2, Theorem 2)
//!   apply, so restricted quantifiers suffice;
//! * **automata-tame** — concat-free: every atom is
//!   synchronized-regular, so the exact automata engine represents the
//!   subformula (star-free atoms stay in `S`; otherwise
//!   `S_reg`/`S_len`);
//! * **concat-bounded** — a concatenation atom appears: by
//!   Proposition 1 the calculus is computationally complete and only
//!   bounded search admits the formula.
//!
//! On top of the lattice point the pass runs a Petersen-style **LIKE
//! pattern-class classifier** (arXiv 1903.06195): LIKE-shaped languages
//! (`lit`/`_`/`%` concatenations) are split into *linear* classes —
//! literal, fixed-length, prefix, suffix, infix, prefix+suffix — that a
//! scan matches in at most `O(|w|·|p|)` time (one pass for an infix of
//! up to eight symbols) without automaton construction, versus
//! the *general* class (≥3 literal segments, or `_` mixed with `%`)
//! that keeps the automaton path. [`eval_class`] combines both analyses
//! into the evaluation class the planner keys its strategy on, and
//! [`scan_plan`] extracts the executable scan program for
//! linear-class queries over a single stored relation.
//!
//! Findings are the stable `SA3xx` family: `SA300` (fragment report),
//! `SA301` (concat-bounded), `SA302`/`SA303` (LIKE linear/general
//! class), `SA304` (star-freeness undecided, typed `S_reg`). `SA305` is
//! reserved for the plan verifier, which reads the class from the
//! query's fact sheet and rejects plans that disagree with it.

use std::collections::BTreeMap;

use strcalc_alphabet::{Str, Sym};
use strcalc_automata::Regex;
use strcalc_logic::{Atom, Formula, Fp, Lang, StructureClass, Term};

use crate::diag::{children, Code, Finding, FormulaPath};
use crate::langs::LangTable;
use crate::saferange::NodeVerdicts;
use crate::signature::atom_findings;

// ---------------------------------------------------------------------
// LIKE pattern classes
// ---------------------------------------------------------------------

/// A linear-class LIKE pattern, compiled to a direct word matcher, with
/// no automaton. The anchored variants compare at most `|pattern|`
/// symbols. [`LikeMatcher::Infix`] reads each symbol of the word once
/// through a rolling window of the pattern's first eight symbols and
/// compares the rest of a longer pattern only where that head matches:
/// one pass for a pattern of at most eight symbols, `O(|w| · |pattern|)`
/// at worst beyond. [`LikeMatcher::match_mask`] runs a matcher over a
/// whole column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LikeMatcher {
    /// `%` (possibly repeated): any string.
    AnyString,
    /// No wildcards: exactly the literal word.
    Literal(Vec<Sym>),
    /// `_` wildcards only: fixed length, `None` slots match any symbol.
    FixedLength(Vec<Option<Sym>>),
    /// `lit%`.
    Prefix(Vec<Sym>),
    /// `%lit`.
    Suffix(Vec<Sym>),
    /// `%lit%`.
    Infix(Vec<Sym>),
    /// `lit₁%lit₂` (single interior wildcard).
    PrefixSuffix(Vec<Sym>, Vec<Sym>),
}

impl LikeMatcher {
    /// Decides membership of `w` in the pattern's language.
    pub fn matches(&self, w: &[Sym]) -> bool {
        match self {
            LikeMatcher::AnyString => true,
            LikeMatcher::Literal(lit) => is_literal(w, lit),
            LikeMatcher::FixedLength(slots) => fits(w, slots),
            LikeMatcher::Prefix(p) => starts_with(w, p),
            LikeMatcher::Suffix(s) => ends_with(w, s),
            LikeMatcher::Infix(m) => occurs_in(m, w),
            LikeMatcher::PrefixSuffix(p, s) => starts_and_ends(w, p, s),
        }
    }

    /// The batch kernel: clears the bit of each row of `col` outside the
    /// pattern's language. A clear bit stays clear. The anchored classes
    /// test every row with no early exit, so the loop does not branch
    /// on the data; the infix matcher reads only the rows still live.
    pub fn match_mask(&self, col: &[&Str], mask: &mut [bool]) {
        assert_eq!(col.len(), mask.len(), "column/mask length mismatch");
        fn narrow(col: &[&Str], mask: &mut [bool], test: impl Fn(&[Sym]) -> bool) {
            for (live, w) in mask.iter_mut().zip(col) {
                *live &= test(w.syms());
            }
        }
        match self {
            LikeMatcher::AnyString => {}
            LikeMatcher::Literal(lit) => narrow(col, mask, |w| is_literal(w, lit)),
            LikeMatcher::FixedLength(slots) => narrow(col, mask, |w| fits(w, slots)),
            LikeMatcher::Prefix(p) => narrow(col, mask, |w| starts_with(w, p)),
            LikeMatcher::Suffix(s) => narrow(col, mask, |w| ends_with(w, s)),
            LikeMatcher::PrefixSuffix(p, s) => narrow(col, mask, |w| starts_and_ends(w, p, s)),
            LikeMatcher::Infix(m) => {
                for (live, w) in mask.iter_mut().zip(col) {
                    if *live {
                        *live = occurs_in(m, w.syms());
                    }
                }
            }
        }
    }

    /// Stable class name (the Petersen taxonomy).
    pub fn class_name(&self) -> &'static str {
        match self {
            LikeMatcher::AnyString => "any",
            LikeMatcher::Literal(_) => "literal",
            LikeMatcher::FixedLength(_) => "fixed-length",
            LikeMatcher::Prefix(_) => "prefix",
            LikeMatcher::Suffix(_) => "suffix",
            LikeMatcher::Infix(_) => "infix",
            LikeMatcher::PrefixSuffix(..) => "prefix+suffix",
        }
    }

    fn fp_into(&self, fp: &mut Fp) {
        let (tag, parts): (u64, Vec<&[Sym]>) = match self {
            LikeMatcher::AnyString => (0, vec![]),
            LikeMatcher::Literal(l) => (1, vec![l]),
            LikeMatcher::FixedLength(slots) => {
                fp.u64(2).u64(slots.len() as u64);
                for slot in slots {
                    match slot {
                        Some(s) => fp.u64(1).u8(*s),
                        None => fp.u64(0),
                    };
                }
                return;
            }
            LikeMatcher::Prefix(p) => (3, vec![p]),
            LikeMatcher::Suffix(s) => (4, vec![s]),
            LikeMatcher::Infix(m) => (5, vec![m]),
            LikeMatcher::PrefixSuffix(p, s) => (6, vec![p, s]),
        };
        fp.u64(tag);
        for part in parts {
            fp.bytes(part);
        }
    }
}

/// Whether `a` and `b`, of equal length, hold the same symbols: a fold
/// with no early exit.
fn same(a: &[Sym], b: &[Sym]) -> bool {
    a.iter().zip(b).fold(0, |diff, (x, y)| diff | (x ^ y)) == 0
}

/// `w = lit`.
fn is_literal(w: &[Sym], lit: &[Sym]) -> bool {
    (w.len() == lit.len()) & same(w, lit)
}

/// `w` has one symbol per slot, equal to the slot's where it names one.
fn fits(w: &[Sym], slots: &[Option<Sym>]) -> bool {
    let hits = slots
        .iter()
        .zip(w)
        .fold(true, |ok, (slot, &x)| ok & (slot.unwrap_or(x) == x));
    (w.len() == slots.len()) & hits
}

/// `w ∈ p·Σ*`.
fn starts_with(w: &[Sym], p: &[Sym]) -> bool {
    let n = p.len().min(w.len());
    (w.len() >= p.len()) & same(&w[..n], &p[..n])
}

/// `w ∈ Σ*·s`.
fn ends_with(w: &[Sym], s: &[Sym]) -> bool {
    let n = s.len().min(w.len());
    (w.len() >= s.len()) & same(&w[w.len() - n..], &s[s.len() - n..])
}

/// `w ∈ p·Σ*·s`.
fn starts_and_ends(w: &[Sym], p: &[Sym], s: &[Sym]) -> bool {
    (w.len() >= p.len() + s.len()) & starts_with(w, p) & ends_with(w, s)
}

/// Symbols of an infix pattern compared as one word: eight bytes of a
/// `u64`.
const WORD_SYMS: usize = 8;

/// Whether `m` occurs in `w`, reading each symbol of `w` once. A rolling
/// window of the last [`WORD_SYMS`] symbols read, packed into a `u64`,
/// is compared with `m`'s first (at most eight) symbols; the rest of a
/// longer pattern is compared only where that head matches.
fn occurs_in(m: &[Sym], w: &[Sym]) -> bool {
    if m.len() > w.len() {
        return false;
    }
    let h = m.len().min(WORD_SYMS);
    if h == 0 {
        return true;
    }
    let pack = |syms: &[Sym]| syms.iter().fold(0u64, |acc, &s| acc << 8 | u64::from(s));
    let head = pack(&m[..h]);
    let keep = u64::MAX >> (8 * (WORD_SYMS - h));
    let tail = &m[h..];
    // The window starts primed with the first `h - 1` symbols, so after
    // each symbol read its low `h` bytes hold the `h` symbols ending at
    // it; `end` is where such a head match ends and the tail must begin.
    // A head ending past `last` leaves no room for the tail.
    let last = w.len() - tail.len();
    let found = |window: u64, end: usize| window & keep == head && w[end..][..tail.len()] == *tail;
    let mut window = pack(&w[..h - 1]);
    let mut end = h;
    // Two symbols per step: the window advances by one shift and one
    // `or` per pair, and both windows are checked off that chain.
    let mut pairs = w[h - 1..last].chunks_exact(2);
    for pair in &mut pairs {
        let (a, b) = (u64::from(pair[0]), u64::from(pair[1]));
        let first = window << 8 | a;
        window = window << 16 | a << 8 | b;
        if found(first, end) || found(window, end + 1) {
            return true;
        }
        end += 2;
    }
    if let [s] = pairs.remainder() {
        window = window << 8 | u64::from(*s);
        return found(window, end);
    }
    false
}

/// One slot of a flattened LIKE-shaped regex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LikeItem {
    Lit(Sym),
    Underscore,
    Percent,
}

/// Flattens a LIKE-shaped regex — a concatenation of symbols, `.` (SQL
/// `_`) and `.*` (SQL `%`) — into its item sequence. `None` when the
/// regex uses any other operator (union, non-trivial star, …).
pub(crate) fn like_items(re: &Regex) -> Option<Vec<LikeItem>> {
    fn flatten(re: &Regex, out: &mut Vec<LikeItem>) -> bool {
        match re {
            Regex::Epsilon => true,
            Regex::Sym(s) => {
                out.push(LikeItem::Lit(*s));
                true
            }
            Regex::Any => {
                out.push(LikeItem::Underscore);
                true
            }
            Regex::Star(inner) if **inner == Regex::Any => {
                out.push(LikeItem::Percent);
                true
            }
            Regex::Concat(a, b) => flatten(a, out) && flatten(b, out),
            _ => false,
        }
    }
    let mut items = Vec::new();
    flatten(re, &mut items).then_some(items)
}

/// Classifies a LIKE-shaped regex into a linear pattern class, or `None`
/// when the pattern is general (three or more literal segments, or `_`
/// mixed with `%`) or not LIKE-shaped at all.
pub fn like_matcher(re: &Regex) -> Option<LikeMatcher> {
    let items = like_items(re)?;
    let has_percent = items.contains(&LikeItem::Percent);
    let has_underscore = items.contains(&LikeItem::Underscore);
    if !has_percent {
        if has_underscore {
            return Some(LikeMatcher::FixedLength(
                items
                    .iter()
                    .map(|i| match i {
                        LikeItem::Lit(s) => Some(*s),
                        _ => None,
                    })
                    .collect(),
            ));
        }
        return Some(LikeMatcher::Literal(
            items
                .iter()
                .filter_map(|i| match i {
                    LikeItem::Lit(s) => Some(*s),
                    _ => None,
                })
                .collect(),
        ));
    }
    if has_underscore {
        // `_` mixed with `%` needs positional bookkeeping a plain scan
        // does not do: general class.
        return None;
    }
    // Split on `%` into literal segments; consecutive `%%` collapse.
    let mut segments: Vec<Vec<Sym>> = vec![Vec::new()];
    for item in &items {
        match item {
            LikeItem::Lit(s) => segments.last_mut().map(|seg| seg.push(*s)).unwrap_or(()),
            LikeItem::Percent => segments.push(Vec::new()),
            LikeItem::Underscore => {}
        }
    }
    let leading = segments.first().is_some_and(Vec::is_empty);
    let trailing = segments.last().is_some_and(Vec::is_empty);
    let literal: Vec<Vec<Sym>> = segments.into_iter().filter(|s| !s.is_empty()).collect();
    match (literal.len(), leading, trailing) {
        (0, _, _) => Some(LikeMatcher::AnyString),
        (1, false, true) => literal.into_iter().next().map(LikeMatcher::Prefix),
        (1, true, false) => literal.into_iter().next().map(LikeMatcher::Suffix),
        (1, true, true) => literal.into_iter().next().map(LikeMatcher::Infix),
        (2, false, false) => {
            let mut it = literal.into_iter();
            match (it.next(), it.next()) {
                (Some(p), Some(s)) => Some(LikeMatcher::PrefixSuffix(p, s)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// `true` iff `re` is LIKE-shaped (a `lit`/`_`/`%` concatenation),
/// linear-class or not.
pub fn is_like_shaped(re: &Regex) -> bool {
    like_items(re).is_some()
}

// ---------------------------------------------------------------------
// Scan programs for linear-class queries
// ---------------------------------------------------------------------

/// An executable scan over one stored relation: filter each tuple with
/// linear LIKE matchers and column equalities, then project the head
/// columns. Evaluates a linear-class query in one pass over the stored
/// tuples with no automaton construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanPlan {
    /// The scanned relation.
    pub relation: String,
    /// Expected arity (checked against the instance at execution).
    pub arity: usize,
    /// Column index per head variable, in head order.
    pub projection: Vec<usize>,
    /// `(column, matcher, label)` filters; `label` names the pattern for
    /// display (the original LIKE pattern when known).
    pub filters: Vec<(usize, LikeMatcher, String)>,
    /// `(column, language, label)` filters outside the linear classes:
    /// general LIKE patterns (three or more segments, `_`/`%` mixes) and
    /// arbitrary regular languages. These need a DFA; the planner
    /// decides between a densified table scan and the automata route
    /// from the language's state bound.
    pub dense_filters: Vec<(usize, Lang, String)>,
    /// Column pairs forced equal (repeated variables and `x = y`
    /// aliases).
    pub eq_cols: Vec<(usize, usize)>,
}

impl ScanPlan {
    fn fp_into(&self, fp: &mut Fp) {
        fp.str(&self.relation).u64(self.arity as u64);
        // The projection follows the query's head order, which the
        // compiled automaton a cache key names does not depend on.
        fp.u64(self.projection.len() as u64);
        fp.u64(self.filters.len() as u64);
        for (c, m, _) in &self.filters {
            fp.u64(*c as u64);
            m.fp_into(fp);
        }
        fp.u64(self.dense_filters.len() as u64);
        for (c, l, _) in &self.dense_filters {
            fp.u64(*c as u64).u64(strcalc_logic::lang_fingerprint(l));
        }
        fp.u64(self.eq_cols.len() as u64);
        for (a, b) in &self.eq_cols {
            fp.u64(*a as u64).u64(*b as u64);
        }
    }

    /// Short display summary for EXPLAIN (`t[filters: w like prefix]`).
    pub fn summary(&self) -> String {
        let filters: Vec<String> = self
            .filters
            .iter()
            .map(|(c, m, label)| format!("col {c} ~ {} ({label})", m.class_name()))
            .chain(
                self.dense_filters
                    .iter()
                    .map(|(c, _, label)| format!("col {c} ~ dense ({label})")),
            )
            .collect();
        if filters.is_empty() {
            format!("{}/{}", self.relation, self.arity)
        } else {
            format!("{}/{} [{}]", self.relation, self.arity, filters.join(", "))
        }
    }
}

/// Extracts a [`ScanPlan`] when the query is a linear-class LIKE lookup:
/// an ∃-prefix over a conjunction of **one** relation atom on distinct
/// variables, at least one linear-class LIKE filter, and optional
/// variable/constant equalities — the shape SQL `SELECT … FROM t WHERE
/// col LIKE 'pattern'` lowers to. `None` for any other shape.
///
/// Soundness of stripping the ∃-prefix regardless of its restriction:
/// every witness the scan produces is a stored tuple's field, hence in
/// the active domain, hence in all three restricted ranges.
pub fn scan_plan(head: &[String], f: &Formula) -> Option<ScanPlan> {
    let mut body = f;
    while let Formula::Exists(_, g) | Formula::ExistsR(_, _, g) = body {
        body = g;
    }
    let mut conjuncts = Vec::new();
    flatten_and(body, &mut conjuncts);

    let mut rel: Option<(&String, &Vec<Term>)> = None;
    // Filters and aliases gathered by variable name, resolved to
    // columns once the relation's variable→column map is known.
    let mut var_filters: Vec<(String, LikeMatcher, String)> = Vec::new();
    let mut var_dense: Vec<(String, Lang, String)> = Vec::new();
    let mut aliases: Vec<(String, String)> = Vec::new();
    let mut like_filters = 0usize;
    for c in conjuncts {
        match c {
            Formula::True => {}
            Formula::Atom(Atom::Rel(name, ts)) => {
                if rel.is_some() {
                    return None;
                }
                if !ts.iter().all(|t| matches!(t, Term::Var(_))) {
                    return None;
                }
                rel = Some((name, ts));
            }
            Formula::Atom(Atom::InLang(Term::Var(v), lang)) => {
                match like_matcher(&lang.regex) {
                    Some(matcher) => var_filters.push((v.clone(), matcher, lang_label(lang))),
                    // Outside the linear classes: still scannable, but
                    // the filter needs a (densifiable) DFA.
                    None => var_dense.push((v.clone(), lang.clone(), lang_label(lang))),
                }
                like_filters += 1;
            }
            Formula::Atom(Atom::Eq(Term::Var(a), Term::Var(b))) => {
                aliases.push((a.clone(), b.clone()));
            }
            Formula::Atom(Atom::Eq(Term::Var(v), Term::Const(s)))
            | Formula::Atom(Atom::Eq(Term::Const(s), Term::Var(v))) => {
                var_filters.push((
                    v.clone(),
                    LikeMatcher::Literal(s.syms().to_vec()),
                    "= constant".to_string(),
                ));
            }
            _ => return None,
        }
    }
    let (name, ts) = rel?;
    // The fast path exists for LIKE lookups; plain relation scans keep
    // the (equally linear) automata/enumeration routes.
    if like_filters == 0 {
        return None;
    }

    let mut cols: BTreeMap<String, usize> = BTreeMap::new();
    let mut eq_cols: Vec<(usize, usize)> = Vec::new();
    for (i, t) in ts.iter().enumerate() {
        let Term::Var(v) = t else { return None };
        match cols.get(v.as_str()) {
            Some(first) => eq_cols.push((*first, i)),
            None => {
                cols.insert(v.clone(), i);
            }
        }
    }
    // Alias fixpoint: `x = y` chains may bridge to the relation columns
    // in either direction and in any order.
    let mut pending = aliases;
    loop {
        let before = pending.len();
        pending.retain(
            |(a, b)| match (cols.get(a.as_str()), cols.get(b.as_str())) {
                (Some(ca), Some(cb)) => {
                    eq_cols.push((*ca, *cb));
                    false
                }
                (Some(ca), None) => {
                    let ca = *ca;
                    cols.insert(b.clone(), ca);
                    false
                }
                (None, Some(cb)) => {
                    let cb = *cb;
                    cols.insert(a.clone(), cb);
                    false
                }
                (None, None) => true,
            },
        );
        if pending.is_empty() {
            break;
        }
        if pending.len() == before {
            // An equality between variables that never reach the
            // relation: not a scan.
            return None;
        }
    }

    let mut filters = Vec::new();
    for (v, m, label) in var_filters {
        filters.push((*cols.get(v.as_str())?, m, label));
    }
    let mut dense_filters = Vec::new();
    for (v, l, label) in var_dense {
        dense_filters.push((*cols.get(v.as_str())?, l, label));
    }
    let mut projection = Vec::new();
    for h in head {
        projection.push(*cols.get(h.as_str())?);
    }
    Some(ScanPlan {
        relation: name.clone(),
        arity: ts.len(),
        projection,
        filters,
        dense_filters,
        eq_cols,
    })
}

/// The conjuncts of the maximal `∧` chain rooted at `f`, left to right.
pub fn flatten_and<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
    match f {
        Formula::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

pub(crate) fn lang_label(l: &Lang) -> String {
    l.name.clone().unwrap_or_else(|| "<anonymous>".to_string())
}

// ---------------------------------------------------------------------
// Evaluation classes
// ---------------------------------------------------------------------

/// The evaluation class the planner keys its strategy on, inferred from
/// the fragment attributes (replacing the old syntactic `ConcatEq`
/// scan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalClass {
    /// Linear-class LIKE lookup over one stored relation: evaluable by
    /// [`ScanPlan`] with no automaton construction.
    LikeLinear(ScanPlan),
    /// Scan-shaped lookup whose language filters fall outside the
    /// linear classes: evaluable by [`ScanPlan`] with densified DFA
    /// tables for the general filters. The planner picks the dense tier
    /// or the automata route from the languages' state bounds.
    LikeGeneral(ScanPlan),
    /// Concat-free: every atom is synchronized-regular, so the exact
    /// automata engine (and the enumeration strategies) apply.
    AutomataTame,
    /// Contains concatenation: only bounded search admits the formula
    /// (Proposition 1).
    ConcatBounded,
}

impl EvalClass {
    /// The scan program of a scan-shaped class.
    pub fn scan(&self) -> Option<&ScanPlan> {
        match self {
            EvalClass::LikeLinear(plan) | EvalClass::LikeGeneral(plan) => Some(plan),
            EvalClass::AutomataTame | EvalClass::ConcatBounded => None,
        }
    }

    /// Fingerprint of the class, including the full scan program of a
    /// scan-shaped one. Mixed into compilation cache keys so a formula
    /// re-classified after a rewrite can never alias a cache entry
    /// produced under the old class.
    pub fn fingerprint(&self) -> u64 {
        let tag = match self {
            EvalClass::ConcatBounded => 1,
            EvalClass::AutomataTame => 2,
            EvalClass::LikeLinear(_) => 3,
            EvalClass::LikeGeneral(_) => 4,
        };
        let mut fp = Fp::new();
        fp.u64(tag);
        if let Some(plan) = self.scan() {
            plan.fp_into(&mut fp);
        }
        fp.finish()
    }

    /// Stable class name.
    pub fn name(&self) -> &'static str {
        match self {
            EvalClass::LikeLinear(_) => "like-linear",
            EvalClass::LikeGeneral(_) => "like-general",
            EvalClass::AutomataTame => "automata-tame",
            EvalClass::ConcatBounded => "concat-bounded",
        }
    }

    /// One-line justification for EXPLAIN and the SA300 report.
    pub fn justification(&self) -> String {
        match self {
            EvalClass::LikeLinear(plan) => format!(
                "linear-class LIKE lookup over {}: scanned without automaton construction",
                plan.summary()
            ),
            EvalClass::LikeGeneral(plan) => format!(
                "general-class lookup over {}: scannable with dense DFA tables when the \
                 state bound admits densification",
                plan.summary()
            ),
            EvalClass::AutomataTame => "all atoms synchronized-regular; the exact automata \
                                        engine represents the formula"
                .to_string(),
            EvalClass::ConcatBounded => "concatenation atom present: the calculus is \
                                         computationally complete (Proposition 1), only \
                                         bounded search admits it"
                .to_string(),
        }
    }
}

/// `true` iff a concatenation atom appears anywhere in `f`.
fn contains_concat(f: &Formula) -> bool {
    let mut found = false;
    f.visit(&mut |g| {
        if matches!(g, Formula::Atom(Atom::ConcatEq(..))) {
            found = true;
        }
    });
    found
}

/// Infers the evaluation class of `f` with output columns `head`, which
/// the scan plan projects onto. Purely syntactic; a query's
/// [`FactSheet`](crate::FactSheet) holds the result.
pub fn eval_class(head: &[String], f: &Formula) -> EvalClass {
    if contains_concat(f) {
        return EvalClass::ConcatBounded;
    }
    match scan_plan(head, f) {
        Some(plan) if plan.dense_filters.is_empty() => EvalClass::LikeLinear(plan),
        Some(plan) => EvalClass::LikeGeneral(plan),
        None => EvalClass::AutomataTame,
    }
}

// ---------------------------------------------------------------------
// The fragment lattice
// ---------------------------------------------------------------------

/// A point in the fragment lattice, attached to every subformula.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentPoint {
    /// Minimal structure class (Figure 1) the subformula requires.
    pub structure: StructureClass,
    /// No quantifiers below this node.
    pub quantifier_free: bool,
    /// Every free variable is range-restricted in context (Theorem 7).
    pub safe_range: bool,
    /// Safe-range and concat-free: restricted quantifiers suffice
    /// (Proposition 2 / Theorem 2).
    pub collapse_safe: bool,
    /// Concat-free: representable by the exact automata engine.
    pub automata_tame: bool,
    /// A concatenation atom appears (Proposition 1 territory).
    pub concat_bounded: bool,
}

impl FragmentPoint {
    /// Compact human-readable rendering, e.g.
    /// `S_reg · safe-range · collapse-safe · automata-tame`.
    pub fn summary(&self) -> String {
        let mut parts = vec![self.structure.name().to_string()];
        if self.quantifier_free {
            parts.push("quantifier-free".to_string());
        }
        parts.push(if self.safe_range {
            "safe-range".to_string()
        } else {
            "not safe-range".to_string()
        });
        if self.collapse_safe {
            parts.push("collapse-safe".to_string());
        }
        if self.concat_bounded {
            parts.push("concat-bounded".to_string());
        } else if self.automata_tame {
            parts.push("automata-tame".to_string());
        }
        parts.join(" · ")
    }
}

/// Result of the fragment-inference pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentAnalysis {
    /// The whole formula's lattice point.
    pub root: FragmentPoint,
    /// The evaluation class the planner selects its strategy from.
    pub class: EvalClass,
    /// Per-subformula lattice points (postorder: children before their
    /// parent; the last entry is the root).
    pub table: Vec<(FormulaPath, FragmentPoint)>,
}

/// Attributes synthesized bottom-up alongside the table.
struct Attrs {
    structure: StructureClass,
    quantifier_free: bool,
    has_concat: bool,
    safe_range: bool,
}

struct Cx<'a> {
    declared: StructureClass,
    langs: &'a LangTable,
    safe: &'a NodeVerdicts,
    table: Vec<(FormulaPath, FragmentPoint)>,
    findings: Vec<Finding>,
}

/// Runs the pass over `f`, reading star-freeness from `langs`, the
/// safe-range attribute from the range-restriction pass's verdicts, and
/// the evaluation class from the query's fact sheet. At each atom it
/// also emits the signature pass's findings against `declared`.
pub(crate) fn check(
    f: &Formula,
    declared: StructureClass,
    langs: &LangTable,
    class: &EvalClass,
    safe: &NodeVerdicts,
) -> (FragmentAnalysis, Vec<Finding>) {
    let mut cx = Cx {
        declared,
        langs,
        safe,
        table: Vec::new(),
        findings: Vec::new(),
    };
    cx.walk(f, &FormulaPath::root());
    let (table, mut findings) = (cx.table, cx.findings);
    let root = table.last().expect("the root is the last table entry").1;

    findings.push(
        Finding::new(
            Code::FragmentReport,
            FormulaPath::root(),
            format!(
                "fragment: {}; evaluation class: {}",
                root.summary(),
                class.name()
            ),
        )
        .with_note(class.justification()),
    );
    if root.concat_bounded {
        findings.push(
            Finding::new(
                Code::ConcatBoundedFragment,
                FormulaPath::root(),
                "the formula sits in the concat-bounded fragment: only the bounded-search \
                 strategy admits it"
                    .to_string(),
            )
            .with_note(
                "RC over concatenation is computationally complete (Proposition 1)".to_string(),
            ),
        );
    }
    let class = class.clone();
    (FragmentAnalysis { root, class, table }, findings)
}

impl Cx<'_> {
    /// Synthesizes the node's attributes bottom-up and records every
    /// node's lattice point.
    fn walk(&mut self, f: &Formula, path: &FormulaPath) -> Attrs {
        let mut attrs = match f {
            Formula::True | Formula::False => Attrs {
                structure: StructureClass::S,
                quantifier_free: true,
                has_concat: false,
                safe_range: false,
            },
            Formula::Atom(a) => self.atom(a, path),
            _ => {
                let mut attrs = children(f)
                    .into_iter()
                    .map(|(seg, g)| self.walk(g, &path.child(seg)))
                    .reduce(join_attrs)
                    .expect("connectives and quantifiers have subformulas");
                attrs.quantifier_free &= !matches!(
                    f,
                    Formula::Exists(..)
                        | Formula::Forall(..)
                        | Formula::ExistsR(..)
                        | Formula::ForallR(..)
                );
                attrs
            }
        };
        // An `∧` joins its sides' verdicts (see `NodeVerdicts`).
        if !matches!(f, Formula::And(..)) {
            attrs.safe_range = self.safe[&(f as *const Formula)];
        }
        self.table.push((
            path.clone(),
            FragmentPoint {
                structure: attrs.structure,
                quantifier_free: attrs.quantifier_free,
                safe_range: attrs.safe_range,
                collapse_safe: attrs.safe_range && !attrs.has_concat,
                automata_tame: !attrs.has_concat,
                concat_bounded: attrs.has_concat,
            },
        ));
        attrs
    }

    fn atom(&mut self, a: &Atom, path: &FormulaPath) -> Attrs {
        let structure = atom_findings(a, path, self.declared, self.langs, &mut self.findings);
        if let Atom::InLang(_, l) | Atom::PL(_, _, l) = a {
            self.lang_findings(a, l, path);
        }
        Attrs {
            structure,
            quantifier_free: true,
            has_concat: matches!(a, Atom::ConcatEq(..)),
            safe_range: false,
        }
    }

    /// The LIKE-class (`SA302`/`SA303`) and star-free-fallback (`SA304`)
    /// findings of a language atom.
    fn lang_findings(&mut self, a: &Atom, l: &Lang, path: &FormulaPath) {
        if matches!(a, Atom::InLang(..)) && is_like_shaped(&l.regex) {
            match like_matcher(&l.regex) {
                Some(m) => self.findings.push(Finding::new(
                    Code::LikeLinearClass,
                    path.clone(),
                    format!(
                        "LIKE pattern {} is in the linear {} class: matched by a scan, no \
                         automaton needed",
                        lang_label(l),
                        m.class_name()
                    ),
                )),
                None => self.findings.push(Finding::new(
                    Code::LikeGeneralClass,
                    path.clone(),
                    format!(
                        "LIKE pattern {} is in the general class (multiple literal segments \
                         or `_` mixed with `%`): kept on the automaton path",
                        lang_label(l)
                    ),
                )),
            }
        }
        if let Err(e) = self.langs.star_free(l) {
            self.findings.push(
                Finding::new(
                    Code::FragmentStarFreeFallback,
                    path.clone(),
                    format!(
                        "star-freeness of language {} is undecided: its transition monoid \
                         is too large to explore; the language is typed S_reg",
                        lang_label(l)
                    ),
                )
                .with_note(e.to_string()),
            );
        }
    }
}

fn join_attrs(a: Attrs, b: Attrs) -> Attrs {
    Attrs {
        structure: a.structure.join(b.structure),
        quantifier_free: a.quantifier_free && b.quantifier_free,
        has_concat: a.has_concat || b.has_concat,
        safe_range: a.safe_range && b.safe_range,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;
    use strcalc_logic::Lang;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    /// The fragment pass on its own over a two-symbol alphabet, running
    /// the range-restriction pass it reads from.
    fn analyze(f: &Formula) -> (FragmentAnalysis, Vec<Finding>) {
        let langs = LangTable::build(f, 2);
        let (_, _, safe) = crate::saferange::check(f, &langs);
        check(f, StructureClass::Concat, &langs, &class_of(f), &safe)
    }

    /// The evaluation class with the free variables, sorted, as head.
    fn class_of(f: &Formula) -> EvalClass {
        let head: Vec<String> = f.free_vars().into_iter().collect();
        eval_class(&head, f)
    }

    fn re(src: &str) -> Regex {
        match Regex::parse(&ab(), src) {
            Ok(r) => r,
            Err(e) => panic!("{src}: {e}"),
        }
    }

    fn lang(src: &str) -> Lang {
        Lang::named(format!("LIKE {src}"), re(src))
    }

    fn w(src: &str) -> strcalc_alphabet::Str {
        match ab().parse(src) {
            Ok(s) => s,
            Err(e) => panic!("{src}: {e}"),
        }
    }

    #[test]
    fn like_classes_cover_the_taxonomy() {
        let cases = [
            (".*", "any"),
            ("ab", "literal"),
            ("a.b", "fixed-length"),
            ("ab.*", "prefix"),
            (".*ab", "suffix"),
            (".*ab.*", "infix"),
            ("a.*b", "prefix+suffix"),
        ];
        for (src, class) in cases {
            let m = like_matcher(&re(src));
            match m {
                Some(m) => assert_eq!(m.class_name(), class, "{src}"),
                None => panic!("{src} should classify as {class}"),
            }
        }
        // General class: three literal segments / `_` mixed with `%`.
        assert_eq!(like_matcher(&re("a.*b.*a")), None);
        assert!(is_like_shaped(&re("a.*b.*a")));
        assert_eq!(like_matcher(&re("a..*")), None);
        assert!(is_like_shaped(&re("a..*")));
        // Not LIKE-shaped at all.
        assert_eq!(like_matcher(&re("(ab)*")), None);
        assert!(!is_like_shaped(&re("(ab)*")));
        // Consecutive %% collapse to one.
        let m = like_matcher(&re("a.*.*b"));
        assert_eq!(m.map(|m| m.class_name()), Some("prefix+suffix"));
    }

    /// Every linear matcher agrees with its pattern's DFA on a word
    /// sample (the matcher is the *same language*, evaluated directly).
    #[test]
    fn matchers_agree_with_the_automaton() {
        let words = [
            "", "a", "b", "ab", "ba", "aa", "aab", "aba", "bab", "abab", "baba", "abba",
        ];
        for src in [".*", "ab", "a.b", "ab.*", ".*ab", ".*ab.*", "a.*b", "a.*a"] {
            let regex = re(src);
            let Some(m) = like_matcher(&regex) else {
                panic!("{src} should be linear");
            };
            let dfa = Lang::new(regex).to_dfa(2);
            for word in words {
                let s = w(word);
                assert_eq!(
                    m.matches(s.syms()),
                    dfa.accepts(&s),
                    "{src} on {word:?} ({})",
                    m.class_name()
                );
            }
        }
    }

    fn like_query(pattern: &str) -> Formula {
        Formula::rel("U", vec![Term::var("x")]).and(Formula::in_lang(Term::var("x"), lang(pattern)))
    }

    #[test]
    fn scan_plan_extracts_the_like_lookup() {
        let f = like_query("ab.*");
        let plan = match scan_plan(&["x".to_string()], &f) {
            Some(p) => p,
            None => panic!("prefix LIKE over one relation must be scannable"),
        };
        assert_eq!(plan.relation, "U");
        assert_eq!(plan.arity, 1);
        assert_eq!(plan.projection, vec![0]);
        assert_eq!(plan.filters.len(), 1);
        assert_eq!(plan.filters[0].0, 0);
        assert_eq!(plan.filters[0].1.class_name(), "prefix");
        assert!(plan.eq_cols.is_empty());
    }

    #[test]
    fn scan_plan_handles_exists_aliases_and_projection() {
        // ∃y. T(x, y) ∧ y = z ∧ in(z, a%): z aliases column 1.
        let f = Formula::exists(
            "y",
            Formula::rel("T", vec![Term::var("x"), Term::var("y")])
                .and(Formula::eq(Term::var("y"), Term::var("z")))
                .and(Formula::in_lang(Term::var("z"), lang("a.*"))),
        );
        let plan = match scan_plan(&["x".to_string(), "z".to_string()], &f) {
            Some(p) => p,
            None => panic!("alias chain must resolve"),
        };
        assert_eq!(plan.relation, "T");
        assert_eq!(plan.arity, 2);
        assert_eq!(plan.projection, vec![0, 1]);
        assert_eq!(plan.filters[0].0, 1);
    }

    #[test]
    fn scan_plan_rejects_non_scannable_shapes() {
        // No LIKE filter at all.
        let f = Formula::rel("U", vec![Term::var("x")]);
        assert_eq!(scan_plan(&["x".to_string()], &f), None);
        // Two relations.
        let f = Formula::rel("U", vec![Term::var("x")])
            .and(Formula::rel("V", vec![Term::var("x")]))
            .and(Formula::in_lang(Term::var("x"), lang("a.*")));
        assert_eq!(scan_plan(&["x".to_string()], &f), None);
        // General-class patterns are still scannable — the filter lands
        // in the dense list instead of the linear one.
        let f = like_query("a.*b.*a");
        let plan = scan_plan(&["x".to_string()], &f).expect("general filters scan densely");
        assert!(plan.filters.is_empty());
        assert_eq!(plan.dense_filters.len(), 1);
        assert_eq!(plan.dense_filters[0].0, 0);
        let f = Formula::rel("U", vec![Term::var("x")])
            .and(Formula::in_lang(Term::var("x"), Lang::new(re("(ab)*"))));
        let plan = scan_plan(&["x".to_string()], &f).expect("non-LIKE languages scan densely");
        assert_eq!(plan.dense_filters.len(), 1);
        // Negation in the conjunction.
        let f = like_query("ab.*").and(Formula::rel("V", vec![Term::var("x")]).not());
        assert_eq!(scan_plan(&["x".to_string()], &f), None);
        // Head variable that is not a column.
        let f = like_query("ab.*");
        assert_eq!(scan_plan(&["q".to_string()], &f), None);
    }

    #[test]
    fn eval_class_routes_the_three_ways() {
        assert_eq!(
            class_of(&like_query("ab.*")).name(),
            "like-linear",
            "linear LIKE lookup"
        );
        assert_eq!(
            class_of(&Formula::rel("U", vec![Term::var("x")])).name(),
            "automata-tame"
        );
        let concat = Formula::concat_eq(Term::var("x"), Term::var("y"), Term::var("z"));
        assert_eq!(class_of(&concat).name(), "concat-bounded");
        // A general-class LIKE routes to the dense-scannable class.
        assert_eq!(class_of(&like_query("a.*b.*a")).name(), "like-general");
        // ... but a shape outside the scan class stays automata-tame.
        assert_eq!(
            class_of(
                &Formula::rel("U", vec![Term::var("x")])
                    .and(Formula::rel("V", vec![Term::var("x")]))
                    .and(Formula::in_lang(Term::var("x"), lang("a.*b.*a")))
            )
            .name(),
            "automata-tame"
        );
    }

    #[test]
    fn class_fingerprint_separates_classes_and_plans() {
        let linear = like_query("ab.*");
        let other_pattern = like_query("ba.*");
        let tame = Formula::rel("U", vec![Term::var("x")]);
        let concat = Formula::concat_eq(Term::var("x"), Term::var("y"), Term::var("z"));
        let fps = [
            class_of(&linear).fingerprint(),
            class_of(&other_pattern).fingerprint(),
            class_of(&tame).fingerprint(),
            class_of(&concat).fingerprint(),
        ];
        let mut uniq = fps.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), fps.len(), "classes and plans must separate");
        // Same class, same plan: stable.
        assert_eq!(
            class_of(&linear).fingerprint(),
            class_of(&like_query("ab.*")).fingerprint()
        );
        // The head order moves the projection, not the fingerprint: the
        // automaton a cache key names does not depend on it.
        let pair = Formula::rel("T", vec![Term::var("x"), Term::var("y")])
            .and(Formula::in_lang(Term::var("x"), lang("ab.*")));
        let (xy, yx) = (
            ["x".to_string(), "y".to_string()],
            ["y".to_string(), "x".to_string()],
        );
        let (by_xy, by_yx) = (eval_class(&xy, &pair), eval_class(&yx, &pair));
        assert_ne!(by_xy, by_yx);
        assert_eq!(by_xy.fingerprint(), by_yx.fingerprint());
    }

    #[test]
    fn fragment_points_attach_to_every_subformula() {
        // ∃y. (U(y) ∧ x ⪯ y): safe-range, quantified, automata-tame.
        let f = Formula::exists(
            "y",
            Formula::rel("U", vec![Term::var("y")])
                .and(Formula::prefix(Term::var("x"), Term::var("y"))),
        );
        let (analysis, findings) = analyze(&f);
        assert_eq!(analysis.table.len(), 4, "root, and, and two atoms");
        assert!(analysis.root.safe_range);
        assert!(!analysis.root.quantifier_free);
        assert!(analysis.root.collapse_safe && analysis.root.automata_tame);
        assert_eq!(analysis.root.structure, StructureClass::S);
        // The atom x ⪯ y inherits x's restriction from the conjunction
        // context: safe-range *in context*.
        let atom_point = analysis
            .table
            .iter()
            .find(|(p, _)| p.to_string() == "root/quant(y)/and.rhs");
        match atom_point {
            Some((_, pt)) => assert!(pt.safe_range && pt.quantifier_free),
            None => panic!("missing table entry for the prefix atom"),
        }
        // Exactly one SA300 report, no concat warning.
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.code == Code::FragmentReport)
                .count(),
            1
        );
        assert!(!findings
            .iter()
            .any(|f| f.code == Code::ConcatBoundedFragment));
    }

    #[test]
    fn concat_formula_is_flagged_sa301() {
        let f = Formula::rel("U", vec![Term::var("z")]).and(Formula::concat_eq(
            Term::var("x"),
            Term::var("y"),
            Term::var("z"),
        ));
        let (analysis, findings) = analyze(&f);
        assert!(analysis.root.concat_bounded && !analysis.root.automata_tame);
        assert!(!analysis.root.collapse_safe);
        assert_eq!(analysis.root.structure, StructureClass::Concat);
        assert!(findings
            .iter()
            .any(|f| f.code == Code::ConcatBoundedFragment));
    }

    #[test]
    fn like_findings_name_the_class() {
        let (_, findings) = analyze(&like_query("ab.*"));
        let sa302: Vec<_> = findings
            .iter()
            .filter(|f| f.code == Code::LikeLinearClass)
            .collect();
        assert_eq!(sa302.len(), 1);
        assert!(sa302[0].message.contains("prefix"));

        let (_, findings) = analyze(&like_query("a.*b.*a"));
        assert!(findings.iter().any(|f| f.code == Code::LikeGeneralClass));
    }

    #[test]
    fn an_undecided_language_is_typed_sreg_with_one_note() {
        // Both languages are `.*a` then 11 symbols: 4 096 states, whose
        // transition monoid is past the cell bound. Spelled with `.`, the
        // language is LIKE-shaped and star-free by construction; spelled
        // with `(a|b)`, the aperiodicity test gives up on it.
        let like = Lang::new(re(&format!(".*a{}", ".".repeat(11))));
        let other = Lang::new(re(&format!("(a|b)*a{}", "(a|b)".repeat(11))));
        let like_atom = Formula::in_lang(Term::var("x"), like);
        let (analysis, findings) = analyze(&like_atom);
        assert_eq!(analysis.root.structure, StructureClass::S);
        assert!(!findings
            .iter()
            .any(|f| f.code == Code::FragmentStarFreeFallback));

        let f = like_atom.and(Formula::in_lang(Term::var("x"), other));
        let (analysis, findings) = analyze(&f);
        assert_eq!(analysis.root.structure, StructureClass::SReg);
        let sa304: Vec<_> = findings
            .iter()
            .filter(|f| f.code == Code::FragmentStarFreeFallback)
            .collect();
        assert_eq!(sa304.len(), 1);
        assert_eq!(sa304[0].path.to_string(), "root/and.rhs");
    }

    #[test]
    fn structure_tracks_the_figure_one_lattice() {
        let sl = Formula::prepends(Term::var("x"), Term::var("y"), 0);
        assert_eq!(analyze(&sl).0.root.structure, StructureClass::SLeft);
        let sr = Formula::in_lang(Term::var("x"), Lang::new(re("(aa)*")));
        assert_eq!(analyze(&sr).0.root.structure, StructureClass::SReg);
        let slen = Formula::eq_len(Term::var("x"), Term::var("y"));
        assert_eq!(analyze(&slen).0.root.structure, StructureClass::SLen);
    }
}
