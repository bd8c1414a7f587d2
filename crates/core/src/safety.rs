//! Safety analysis: state-safety (Proposition 7), range restriction
//! (Theorems 3 and 7), and the `S_len` finiteness sentence (Section 6.1).

use std::collections::HashMap;

use strcalc_alphabet::Str;
use strcalc_automata::Dfa;
use strcalc_logic::compile::length_at_most;
use strcalc_logic::transform::quantifier_rank;
use strcalc_logic::{Atom, Formula, Term};
use strcalc_relational::{Database, Relation};
use strcalc_synchro::nfa::Var;
use strcalc_synchro::{atoms, SyncFiniteness, SyncNfa};

use crate::cache::CompiledArtifact;
use crate::engine::AutomataEngine;
use crate::query::{Calculus, CoreError, EvalOutput, Query};

/// The state-safety verdict for a query on a concrete database —
/// decidable for all four calculi (Proposition 7 / Corollary 8), and
/// *implemented exactly* here via language finiteness.
#[derive(Debug, Clone, PartialEq)]
pub enum StateSafety {
    /// `φ(D)` is finite: the materialized output and its cardinality.
    Safe { output: Relation, count: u64 },
    /// `φ(D)` is infinite; `sample` holds a few witness tuples.
    Unsafe { sample: Vec<Vec<Str>> },
}

impl StateSafety {
    pub fn is_safe(&self) -> bool {
        matches!(self, StateSafety::Safe { .. })
    }
}

/// Decides state-safety of `q` on `db` (Proposition 7, algorithmically):
/// the answer read off the compiled automaton by the engine's one reader.
pub fn state_safety(
    engine: &AutomataEngine,
    q: &Query,
    db: &Database,
) -> Result<StateSafety, CoreError> {
    let artifact = CompiledArtifact::from_compiled(engine.compile(q, db)?);
    Ok(match engine.eval_artifact(q, db, &artifact)? {
        EvalOutput::Finite(output) => StateSafety::Safe {
            count: output.len() as u64,
            output,
        },
        EvalOutput::Infinite { sample } => StateSafety::Unsafe { sample },
    })
}

/// A range-restricted query `(γ_k, φ)` in the sense of Section 6.1:
/// evaluation returns `γ_k(adom(D)) ∩ φ(D)` — always finite, and equal
/// to `φ(D)` on every database where `φ` is safe, provided `k` is at
/// least the constant of Lemma 1 / Lemma 2.
///
/// The paper's `k` comes from an Ehrenfeucht–Fraïssé argument and is
/// effective for restricted-quantifier formulas; here `k` defaults to an
/// explicit syntactic bound ([`RangeRestricted::derive`]) and the
/// `checked` evaluation path verifies the theorem's conclusion at run
/// time by comparing with the exact engine.
#[derive(Debug, Clone)]
pub struct RangeRestricted {
    pub query: Query,
    /// The fringe width of `γ_k`.
    pub k: usize,
}

impl RangeRestricted {
    /// Derives a syntactic bound `k`: quantifier rank plus the longest
    /// constant plus the largest pattern automaton, plus one. This
    /// dominates the "distance a formula can see beyond the database"
    /// in the jumping lemmas for every query in the test corpus; the
    /// `checked` path makes any hypothetical violation loud.
    pub fn derive(query: Query) -> RangeRestricted {
        let mut max_const = 0usize;
        let mut max_dfa = 0usize;
        query.formula().visit(&mut |sub| {
            if let Formula::Atom(a) = sub {
                for t in a.terms() {
                    if let Term::Const(c) = t {
                        max_const = max_const.max(c.len());
                    }
                }
                if let Atom::InLang(_, l) | Atom::PL(_, _, l) = a {
                    max_dfa = max_dfa.max(query.sheet().langs.dfa(l).map_or(0, Dfa::len));
                }
            }
        });
        let k = quantifier_rank(query.formula()) + max_const + max_dfa + 1;
        RangeRestricted { query, k }
    }

    /// The automaton for the candidate set `γ_k(adom(D))` (one track):
    ///
    /// * `S`, `S_reg`: prefixes of `y·σ` with `y ∈ adom`, `|σ| ≤ k`
    ///   (Theorem 3's `γ` for `S`);
    /// * `S_left`: prefixes of `π·y·σ` with `|π|, |σ| ≤ k` (the left
    ///   operations can also move output strings leftwards — Theorem 7);
    /// * `S_len`: all strings of length ≤ maxlen(adom) + k (Theorem 3's
    ///   `γ` for `S_len`).
    pub fn gamma_automaton(&self, db: &Database, var: Var) -> SyncNfa {
        let k_alpha = self.query.alphabet().len() as u8;
        let adom: Vec<Str> = db.adom().into_iter().collect();
        match self.query.calculus() {
            Calculus::S | Calculus::SReg => prefix_extend_automaton(k_alpha, var, &adom, 0, self.k),
            Calculus::SLeft => prefix_extend_automaton(k_alpha, var, &adom, self.k, self.k),
            Calculus::SLen => {
                let max = adom.iter().map(Str::len).max().unwrap_or(0);
                length_at_most(k_alpha, var, max + self.k)
            }
        }
    }

    /// Evaluates the range-restricted query: `γ_k(adom) ∩ φ(D)`. The
    /// result is finite **by construction** (every output column is
    /// intersected with the bounded candidate set).
    pub fn eval(&self, engine: &AutomataEngine, db: &Database) -> Result<Relation, CoreError> {
        let compiled = engine.compile(&self.query, db)?;
        let mut auto = compiled.auto;
        for track in 0..self.query.arity() {
            let gamma = self.gamma_automaton(db, track as Var);
            auto = auto.intersect(&gamma)?;
        }
        let dfa = auto.to_dfa();
        debug_assert!(
            !matches!(dfa.finiteness(), SyncFiniteness::Infinite),
            "γ-bounded output must be finite"
        );
        let perm: Vec<usize> = self
            .query
            .head()
            .iter()
            .map(|h| {
                compiled
                    .var_names
                    .iter()
                    .position(|v| v == h)
                    .expect("validated head")
            })
            .collect();
        let tuples = dfa.try_enumerate_finite()?;
        Ok(Relation::from_tuples(
            self.query.arity(),
            tuples
                .into_iter()
                .map(|t| perm.iter().map(|&i| t[i].clone()).collect::<Vec<_>>()),
        ))
    }

    /// Evaluates with the Theorem-3 guarantee checked at run time: if the
    /// query is safe on `db`, assert the range-restricted output equals
    /// the exact output (growing `k` would be the remedy; no violation
    /// has ever been observed).
    pub fn eval_checked(
        &self,
        engine: &AutomataEngine,
        db: &Database,
    ) -> Result<Relation, CoreError> {
        let restricted = self.eval(engine, db)?;
        if let StateSafety::Safe { output, .. } = state_safety(engine, &self.query, db)? {
            if output != restricted {
                return Err(CoreError::Unsupported(format!(
                    "range-restriction bound k={} too small (exact {} vs restricted {} \
                     tuples); this would contradict the derived Lemma 1/2 constant",
                    self.k,
                    output.len(),
                    restricted.len()
                )));
            }
        }
        Ok(restricted)
    }
}

/// Automaton over one track for: prefixes of `π·y·σ` with `y ∈ words`,
/// `|π| ≤ pre`, `|σ| ≤ post`.
fn prefix_extend_automaton(k: u8, var: Var, words: &[Str], pre: usize, post: usize) -> SyncNfa {
    // Build as a classical DFA over the unary alphabet, then lift.
    // L = Σ^{≤pre} · W · Σ^{≤post}, then take the prefix closure.
    let trie = trie_dfa(k, words);
    let sig_pre = sigma_up_to(k, pre);
    let sig_post = sigma_up_to(k, post);
    let cat = strcalc_automata::starfree::concat_dfas(
        &strcalc_automata::starfree::concat_dfas(&sig_pre, &trie),
        &sig_post,
    );
    let closed = prefix_close_dfa(&cat);
    atoms::in_dfa(k, var, &closed)
}

fn trie_dfa(k: u8, words: &[Str]) -> Dfa {
    strcalc_automata::Nfa::from_finite(k, words.iter()).determinize()
}

fn sigma_up_to(k: u8, n: usize) -> Dfa {
    let mut trans: Vec<Vec<Option<u32>>> = Vec::new();
    let accepting = vec![true; n + 1];
    for i in 0..=n {
        let mut row = vec![None; k as usize];
        if i < n {
            for cell in row.iter_mut() {
                *cell = Some(i as u32 + 1);
            }
        }
        trans.push(row);
    }
    Dfa {
        k,
        trans,
        start: 0,
        accepting,
    }
}

/// Prefix closure of a regular language: mark every useful state
/// accepting.
fn prefix_close_dfa(d: &Dfa) -> Dfa {
    let mut t = d.trim();
    for a in t.accepting.iter_mut() {
        *a = true;
    }
    // After trimming, every state lies on a path to acceptance, so
    // marking all states accepting yields exactly the prefixes.
    t
}

/// The paper's Section-6.1 finiteness sentence for `RC(S_len)`:
///
/// ```text
/// Φ_fin  =  ∃y ∀x (U(x) → ∃z (z ⪯ y ∧ el(z, x)))
/// ```
///
/// `U` is finite iff all its strings are bounded in length by some `y`
/// (for a finite alphabet). `U` may be *virtual* — an automaton — which
/// is how the sentence is applied to a possibly-infinite query output.
pub fn finiteness_sentence() -> Formula {
    let u = Formula::rel("U", vec![Term::var("x")]);
    let bound = Formula::exists(
        "z",
        Formula::prefix(Term::var("z"), Term::var("y"))
            .and(Formula::eq_len(Term::var("z"), Term::var("x"))),
    );
    Formula::exists("y", Formula::forall("x", u.implies(bound)))
}

/// Applies [`finiteness_sentence`] to an arbitrary unary synchronized
/// relation: returns `true` iff `{x : u(x)}` is finite — and, being a
/// faithful transcription of the paper's sentence, agrees with the
/// direct automata-theoretic check [`SyncNfa::finiteness`] (tested in
/// `tests/finiteness.rs`).
pub fn finite_by_sentence(
    engine: &AutomataEngine,
    alphabet: &strcalc_alphabet::Alphabet,
    u: SyncNfa,
) -> Result<bool, CoreError> {
    let q = Query::new(
        Calculus::SLen,
        alphabet.clone(),
        vec![],
        finiteness_sentence(),
    )?;
    let db = Database::new();
    let compiled = engine.compile_with(&q, &db, HashMap::from([("U".to_string(), u)]))?;
    Ok(compiled.auto.is_true())
}

/// Demonstrates Proposition 6's flip side: the *candidate* finiteness
/// sentence for `RC(S)` (replacing `el` by prefix bounds) is **not**
/// correct — finiteness is not definable over `S`. Returns a unary
/// relation on which "all `U`-strings are prefixes of some `y`" and
/// actual finiteness disagree.
pub fn s_finiteness_gap_witness(k: u8) -> (SyncNfa, bool, bool) {
    // U = b* : infinite, but no single y bounds it prefix-wise anyway —
    // pick instead U = {a, b}* ∩ prefixes of a^ω = a*: infinite, yet every
    // string is a prefix of ... no single y. The *sentence* over S,
    // ∃y ∀x (U(x) → x ⪯ y), already fails to characterize finiteness in
    // the other direction: U = {a, b} is finite but has no common bound y
    // … it does: y must extend both "a" and "b" — impossible. So the S
    // sentence says "U is a chain with a top", not "U is finite".
    let u = atoms::finite_set(
        k,
        0,
        [Str::from_syms(vec![0]), Str::from_syms(vec![1])].iter(),
    );
    // Actual finiteness: true. S-sentence ∃y∀x(U(x) → x ⪯ y): false.
    (u, true, false)
}

/// Builds the unary automaton `{x : x ⪯ y for some y with U(y)}` — a
/// helper used by experiments around Lemma 1 (`prefix(D)` sets).
pub fn prefix_closure_automaton(k: u8, var: Var, words: &[Str]) -> SyncNfa {
    let closed = prefix_close_dfa(&trie_dfa(k, words));
    atoms::in_dfa(k, var, &closed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strcalc_alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn s(t: &str) -> Str {
        ab().parse(t).unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_unary_parsed(&ab(), "R", &["ab", "ba"]).unwrap();
        db
    }

    fn q(calc: Calculus, head: &[&str], src: &str) -> Query {
        Query::parse(
            calc,
            ab(),
            head.iter().map(|h| h.to_string()).collect(),
            src,
        )
        .unwrap()
    }

    #[test]
    fn state_safety_verdicts() {
        let e = AutomataEngine::new();
        let safe = q(Calculus::S, &["x"], "exists y. (R(y) & x <= y)");
        match state_safety(&e, &safe, &db()).unwrap() {
            StateSafety::Safe { count, output } => {
                assert_eq!(count, 5); // ε,a,ab,b,ba
                assert_eq!(output.len(), 5);
            }
            other => panic!("expected safe, got {other:?}"),
        }
        let unsafe_q = q(Calculus::S, &["x"], "exists y. (R(y) & y <= x)");
        assert!(!state_safety(&e, &unsafe_q, &db()).unwrap().is_safe());
        // The classic: ¬R(x) is unsafe on every database.
        let neg = q(Calculus::S, &["x"], "!R(x)");
        assert!(!state_safety(&e, &neg, &db()).unwrap().is_safe());
    }

    #[test]
    fn range_restriction_recovers_safe_outputs() {
        let e = AutomataEngine::new();
        for (calc, src) in [
            (Calculus::S, "exists y. (R(y) & x <= y)"),
            (Calculus::S, "R(x) & last(x,'b')"),
            (Calculus::SLen, "exists y. (R(y) & el(x,y))"),
            (Calculus::SLeft, "exists y. (R(y) & fa(y,x,'a'))"),
            (Calculus::SReg, "exists y. (R(y) & pl(x, y, /(ab)*/))"),
        ] {
            let query = q(calc, &["x"], src);
            let rr = RangeRestricted::derive(query);
            let out = rr.eval_checked(&e, &db()).unwrap();
            // eval_checked already asserts equality with the exact output.
            assert!(!out.is_empty(), "{src} should be nonempty");
        }
    }

    #[test]
    fn range_restriction_truncates_unsafe_queries_finitely() {
        let e = AutomataEngine::new();
        let unsafe_q = q(Calculus::S, &["x"], "exists y. (R(y) & y <= x)");
        let rr = RangeRestricted::derive(unsafe_q);
        // Must terminate with a finite relation even though φ(D) is
        // infinite.
        let out = rr.eval(&e, &db()).unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn gamma_shapes() {
        let query = q(Calculus::S, &["x"], "R(x)");
        let rr = RangeRestricted { query, k: 1 };
        let gamma = rr.gamma_automaton(&db(), 0);
        // prefixes of {ab,ba}·Σ^{≤1}.
        for (w, expect) in [
            ("", true),
            ("a", true),
            ("ab", true),
            ("aba", true),
            ("abab", false),
            ("bb", false),
        ] {
            assert_eq!(gamma.accepts(&[&s(w)]), expect, "gamma on {w}");
        }

        let query = q(Calculus::SLen, &["x"], "R(x)");
        let rr = RangeRestricted { query, k: 1 };
        let gamma = rr.gamma_automaton(&db(), 0);
        assert!(gamma.accepts(&[&s("bbb")])); // length 3 ≤ 2+1
        assert!(!gamma.accepts(&[&s("bbbb")]));
    }

    #[test]
    fn finiteness_sentence_agrees_with_automata() {
        let e = AutomataEngine::new();
        // Finite U.
        let u_fin = atoms::finite_set(2, 0, [s("ab"), s("b")].iter());
        assert!(finite_by_sentence(&e, &ab(), u_fin).unwrap());
        // Infinite U: all strings ending in a.
        let u_inf = atoms::last_sym(2, 0, 0);
        assert!(!finite_by_sentence(&e, &ab(), u_inf).unwrap());
        // Empty U is finite.
        let u_empty = atoms::no_strings(2, 0);
        assert!(finite_by_sentence(&e, &ab(), u_empty).unwrap());
    }

    #[test]
    fn prefix_closure_automaton_works() {
        let a = prefix_closure_automaton(2, 0, &[s("ab")]);
        assert!(a.accepts(&[&s("")]));
        assert!(a.accepts(&[&s("a")]));
        assert!(a.accepts(&[&s("ab")]));
        assert!(!a.accepts(&[&s("b")]));
        assert!(!a.accepts(&[&s("aba")]));
    }
}
