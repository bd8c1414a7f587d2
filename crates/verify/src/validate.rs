//! The validator: deciding formula equivalence where the fragment
//! permits it, and falling back to bounded differential checking where
//! it does not.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use strcalc_alphabet::{Alphabet, Str, Sym};
use strcalc_core::cache::{AutomatonCache, CompiledArtifact};
use strcalc_core::{AutomataEngine, CoreError, Domain, DomainEvaluator, Planner, Strategy};
use strcalc_logic::rewrite::RewriteTrace;
use strcalc_logic::Formula;
use strcalc_relational::Database;
use strcalc_synchro::nfa::Var;
use strcalc_synchro::{SyncNfa, SynchroError};

use crate::{Scope, Verdict, Witness};

/// The verdict for one named step of a rewrite chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepVerdict {
    pub step: &'static str,
    pub verdict: Verdict,
}

/// Deterministic split-mix generator for the differential fallback —
/// the validator must be reproducible, so it carries its own stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Translation-validation engine. See the crate docs for the verdict
/// semantics.
#[derive(Debug, Clone)]
pub struct Validator {
    pub alphabet: Alphabet,
    /// How many databases the differential fallback generates when no
    /// concrete database is supplied.
    pub fallback_databases: usize,
    /// Maximum string length in generated databases and bounded domains.
    pub fallback_len: usize,
    /// Cap on enumerated assignments per bounded differential check.
    pub fallback_assignments: usize,
    /// Seed for the generated databases (the validator is deterministic).
    pub seed: u64,
    /// The engine both sides of every automata decision compile
    /// through. With a cache attached ([`Validator::with_cache`]) they
    /// are looked up before compiling, so repeated validation of the
    /// same formulas (e.g. a corpus run) is amortized.
    pub(crate) engine: AutomataEngine,
}

impl Validator {
    pub fn new(alphabet: Alphabet) -> Validator {
        Validator {
            alphabet,
            fallback_databases: 4,
            fallback_len: 3,
            fallback_assignments: 4_096,
            seed: 0x5ca1_ab1e,
            engine: AutomataEngine::new(),
        }
    }

    /// Attaches a shared compilation cache.
    pub fn with_cache(mut self, cache: Arc<AutomatonCache>) -> Validator {
        self.engine = self.engine.with_cache(cache);
        self
    }

    fn k(&self) -> Sym {
        self.alphabet.len() as Sym
    }

    /// The query planner's routing decision, shared with every other
    /// entry point: `true` when either side falls in the concat
    /// fragment, where the automata decision procedure is unavailable
    /// (Proposition 1) and only bounded differential checking applies.
    fn bounded_only(&self, before: &Formula, after: &Formula) -> bool {
        let planner = Planner::new();
        [before, after].into_iter().any(|f| {
            matches!(
                planner.strategy_for(f, self.k()),
                Ok(Strategy::BoundedSearch)
            )
        })
    }

    // ------------------------------------------------------------------
    // Exact path: product construction over synchronized automata
    // ------------------------------------------------------------------

    /// Decides whether `before ≡ after`.
    ///
    /// Pure formulas (no relation atoms, no restricted quantifiers) are
    /// decided for **all** databases at once. Formulas that mention a
    /// database are checked exactly against [`Validator::fallback_databases`]
    /// generated instances — any disagreement is a real refutation, but
    /// agreement only yields `Unknown` (finitely many databases were
    /// tried). Undecidable or over-budget fragments degrade to bounded
    /// differential checking.
    pub fn equivalent(&self, before: &Formula, after: &Formula) -> Verdict {
        if before == after {
            return Verdict::Validated {
                scope: Scope::AllDatabases,
            };
        }
        if is_pure(before) && is_pure(after) {
            let empty = Database::new();
            if self.bounded_only(before, after) {
                return self.differential_bounded(before, after, &empty);
            }
            match self.decide_on(before, after, &empty, Scope::AllDatabases) {
                Ok(v) => v,
                Err(_) => self.differential_bounded(before, after, &empty),
            }
        } else {
            self.differential_databases(before, after)
        }
    }

    /// Decides whether `before ≡ after` over one concrete database —
    /// translation validation in the per-instance sense. Quantifiers
    /// still range over the infinite `Σ*`; only relation atoms and
    /// restricted quantifiers are interpreted by `db`.
    pub fn equivalent_on(&self, before: &Formula, after: &Formula, db: &Database) -> Verdict {
        if before == after {
            return Verdict::Validated {
                scope: Scope::Database("the given instance".into()),
            };
        }
        if self.bounded_only(before, after) {
            return self.differential_bounded(before, after, db);
        }
        let scope = Scope::Database("the given instance".into());
        match self.decide_on(before, after, db, scope) {
            Ok(v) => v,
            Err(_) => self.differential_bounded(before, after, db),
        }
    }

    /// Certifies every non-identity step of a rewrite trace (no
    /// database: pure formulas are decided outright, impure ones go
    /// through generated databases).
    pub fn validate_trace(&self, trace: &RewriteTrace) -> Vec<StepVerdict> {
        trace
            .steps
            .iter()
            .map(|s| StepVerdict {
                step: s.name,
                verdict: self.equivalent(&s.before, &s.after),
            })
            .collect()
    }

    /// Certifies every step of a rewrite trace against one database.
    pub fn validate_trace_on(&self, trace: &RewriteTrace, db: &Database) -> Vec<StepVerdict> {
        trace
            .steps
            .iter()
            .map(|s| StepVerdict {
                step: s.name,
                verdict: self.equivalent_on(&s.before, &s.after, db),
            })
            .collect()
    }

    /// Exact decision on one database. `Err` means the fragment escaped
    /// the automata path (concatenation, track/symbol budget).
    fn decide_on(
        &self,
        before: &Formula,
        after: &Formula,
        db: &Database,
        scope: Scope,
    ) -> Result<Verdict, CoreError> {
        let ca = self.engine.compile_shared(before, &self.alphabet, db)?;
        let cb = self.engine.compile_shared(after, &self.alphabet, db)?;
        let union = var_union(&ca, &cb);
        let a = align_to(&ca, &union)?;
        let b = align_to(&cb, &union)?;
        match disagreement(&a, &b, self.engine.cap)? {
            None => Ok(Verdict::Validated { scope }),
            Some((tuple, holds_before)) => Ok(Verdict::Refuted(Witness {
                vars: union,
                tuple,
                holds_before,
                scope,
            })),
        }
    }

    // ------------------------------------------------------------------
    // Differential fallbacks
    // ------------------------------------------------------------------

    /// Exact per-database checking over generated instances. Refutations
    /// are real; survival is only `Unknown`.
    fn differential_databases(&self, before: &Formula, after: &Formula) -> Verdict {
        let schema = match rel_arities(before, after) {
            Ok(s) => s,
            Err(reason) => return Verdict::Unknown { reason, checks: 0 },
        };
        if self.bounded_only(before, after) {
            // The planner routes the concat fragment straight to bounded
            // search; no generated instance will fare better.
            return self.differential_bounded(before, after, &self.generate_db(&schema, 0));
        }
        let mut checks = 0usize;
        for i in 0..self.fallback_databases {
            let db = self.generate_db(&schema, i);
            let scope = Scope::Database(format!("generated instance #{}", i + 1));
            match self.decide_on(before, after, &db, scope) {
                Ok(Verdict::Validated { .. }) => checks += 1,
                Ok(v) => return v,
                Err(_) => match self.differential_bounded(before, after, &db) {
                    Verdict::Refuted(w) => return Verdict::Refuted(w),
                    Verdict::Unknown {
                        checks: c,
                        reason: r,
                    } => {
                        // The automata path is out for this fragment:
                        // finish with the bounded evidence we have.
                        return Verdict::Unknown {
                            reason: r,
                            checks: checks + c,
                        };
                    }
                    Verdict::Validated { .. } => unreachable!("bounded check never validates"),
                },
            }
        }
        Verdict::Unknown {
            reason: "formula mentions database relations, so full equivalence covers \
                     infinitely many instances; all generated instances agreed"
                .into(),
            checks,
        }
    }

    /// Last resort: evaluate both formulas under bounded active-domain
    /// semantics on every assignment from a finite domain. Both sides
    /// run under the *same* bounded semantics, so a disagreement is a
    /// faithful witness for that semantics; agreement proves nothing.
    fn differential_bounded(&self, before: &Formula, after: &Formula, db: &Database) -> Verdict {
        // A row holding a symbol outside `Σ` denotes nothing on every
        // route, so it seeds no value.
        let mut domain: BTreeSet<Str> = db.adom_within(self.alphabet.len() as Sym);
        domain.extend(self.alphabet.strings_up_to(self.fallback_len));
        let domain: Vec<Str> = domain.into_iter().collect();
        let vars: Vec<String> = {
            let mut v = before.free_vars();
            v.extend(after.free_vars());
            v.into_iter().collect()
        };
        let eval = DomainEvaluator::new(&self.alphabet, db, Domain::Set(domain.clone()));
        let mut checks = 0usize;
        // Odometer over domain^|vars| (a single empty assignment for
        // sentences), capped at `fallback_assignments`.
        let mut idx = vec![0usize; vars.len()];
        loop {
            let env: HashMap<String, Str> = vars
                .iter()
                .zip(&idx)
                .map(|(v, &i)| (v.clone(), domain[i].clone()))
                .collect();
            let mut env_b = env.clone();
            let mut env_a = env;
            let vb = eval.eval(before, &mut env_b);
            let va = eval.eval(after, &mut env_a);
            match (vb, va) {
                (Ok(x), Ok(y)) => {
                    if x != y {
                        return Verdict::Refuted(Witness {
                            vars: vars.clone(),
                            tuple: idx.iter().map(|&i| domain[i].clone()).collect(),
                            holds_before: x,
                            scope: Scope::BoundedDomain(domain.len()),
                        });
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    return Verdict::Unknown {
                        reason: format!("bounded evaluation failed: {e}"),
                        checks,
                    };
                }
            }
            checks += 1;
            if checks >= self.fallback_assignments || !advance(&mut idx, domain.len()) {
                break;
            }
        }
        Verdict::Unknown {
            reason: "equivalence not decidable for this fragment (see Proposition 1); \
                     bounded differential checking found no disagreement"
                .into(),
            checks,
        }
    }

    /// A small deterministic database over the inferred schema.
    fn generate_db(&self, schema: &BTreeMap<String, usize>, index: usize) -> Database {
        let mut rng = Rng(self.seed ^ ((index as u64 + 1) * 0x9e37_79b9));
        let mut db = Database::new();
        for (name, &arity) in schema {
            db.declare(name.clone(), arity).expect("fresh database");
            let tuples = 2 + index % 3 + rng.below(3);
            for _ in 0..tuples {
                let tuple: Vec<Str> = (0..arity)
                    .map(|_| {
                        let len = rng.below(self.fallback_len + 1);
                        Str::from_syms(
                            (0..len)
                                .map(|_| rng.below(self.k() as usize) as Sym)
                                .collect(),
                        )
                    })
                    .collect();
                db.insert(name.clone(), tuple).expect("declared above");
            }
        }
        db
    }
}

/// Odometer increment; returns `false` on wrap-around (enumeration done).
fn advance(idx: &mut [usize], base: usize) -> bool {
    for slot in idx.iter_mut() {
        *slot += 1;
        if *slot < base {
            return true;
        }
        *slot = 0;
    }
    false
}

/// Pure formulas mention no database: no relation atoms, no restricted
/// quantifiers (whose ranges are derived from the active domain).
fn is_pure(f: &Formula) -> bool {
    let mut pure = f.rel_names().is_empty();
    f.visit(&mut |g| {
        if matches!(g, Formula::ExistsR(..) | Formula::ForallR(..)) {
            pure = false;
        }
    });
    pure
}

/// Relation name → arity across both formulas; an arity conflict means
/// the pair cannot be interpreted over a single schema.
fn rel_arities(before: &Formula, after: &Formula) -> Result<BTreeMap<String, usize>, String> {
    let mut out: BTreeMap<String, usize> = BTreeMap::new();
    let mut conflict: Option<String> = None;
    let mut collect = |f: &Formula| {
        f.visit(&mut |g| {
            if let Formula::Atom(strcalc_logic::Atom::Rel(name, terms)) = g {
                match out.get(name) {
                    Some(&a) if a != terms.len() => {
                        conflict = Some(format!(
                            "relation {name} used with arities {a} and {}",
                            terms.len()
                        ));
                    }
                    _ => {
                        out.insert(name.clone(), terms.len());
                    }
                }
            }
        });
    };
    collect(before);
    collect(after);
    match conflict {
        Some(c) => Err(c),
        None => Ok(out),
    }
}

/// Sorted union of the two compilations' free variables.
fn var_union(a: &CompiledArtifact, b: &CompiledArtifact) -> Vec<String> {
    let mut union: BTreeSet<String> = a.var_names().iter().cloned().collect();
    union.extend(b.var_names().iter().cloned());
    union.into_iter().collect()
}

/// Re-tracks a compiled automaton onto the sorted union variable list
/// (its own variables are a subset), cylindrifying the missing tracks.
fn align_to(c: &CompiledArtifact, union: &[String]) -> Result<SyncNfa, SynchroError> {
    let map: Vec<Var> = c
        .var_names()
        .iter()
        .map(|n| {
            union
                .iter()
                .position(|u| u == n)
                .expect("union contains every compiled variable") as Var
        })
        .collect();
    let renamed = c.dfa().as_nfa().rename(|v| map[v as usize])?;
    let want: Vec<Var> = (0..union.len() as Var).collect();
    renamed.cylindrify(&want)
}

/// The shortest assignment in the symmetric difference of two automata
/// over identical tracks, with the side that accepts it: `(tuple, true)`
/// means `a` accepts and `b` rejects. `None` means `a ≡ b`.
pub(crate) fn disagreement(
    a: &SyncNfa,
    b: &SyncNfa,
    cap: usize,
) -> Result<Option<(Vec<Str>, bool)>, SynchroError> {
    let only_a = a.intersect(&b.complement(cap)?)?.witness();
    let only_b = b.intersect(&a.complement(cap)?)?.witness();
    let conv_len = |t: &[Str]| t.iter().map(Str::len).max().unwrap_or(0);
    Ok(match (only_a, only_b) {
        (None, None) => None,
        (Some(t), None) => Some((t, true)),
        (None, Some(t)) => Some((t, false)),
        (Some(ta), Some(tb)) => {
            if conv_len(&ta) <= conv_len(&tb) {
                Some((ta, true))
            } else {
                Some((tb, false))
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strcalc_logic::rewrite::Rewriter;
    use strcalc_logic::{parse_formula, transform};

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn v() -> Validator {
        Validator::new(sigma())
    }

    fn f(src: &str) -> Formula {
        parse_formula(&sigma(), src).unwrap()
    }

    #[test]
    fn pure_rewrites_validate_for_all_databases() {
        let cases = [
            "!(exists y. (x <= y & !last(y, 'a')))",
            "x <= y & !(y <= x | last(x, 'b'))",
            "forall y. (x < y -> exists z. (y <= z & first(z, 'a')))",
            "y = append(x, 'a') & el(x, y)",
        ];
        for src in cases {
            let before = f(src);
            for (name, g) in [
                ("nnf", transform::nnf(&before)),
                ("lower_terms", transform::lower_terms(&before)),
                ("simplify", transform::simplify(&before)),
            ] {
                let verdict = v().equivalent(&before, &g);
                assert!(
                    verdict.is_validated(),
                    "{name} on {src}: {}",
                    verdict.render(&sigma())
                );
                assert!(matches!(
                    verdict,
                    Verdict::Validated {
                        scope: Scope::AllDatabases
                    }
                ));
            }
        }
    }

    #[test]
    fn broken_rewrite_is_refuted_with_shortest_witness() {
        // A "simplifier" that flips a conjunct: x ⪯ y vs x ⪯ y ∧ L_a(y).
        let before = f("x <= y");
        let after = f("x <= y & last(y, 'a')");
        let Verdict::Refuted(w) = v().equivalent(&before, &after) else {
            panic!("expected refutation");
        };
        assert_eq!(w.vars, vec!["x".to_string(), "y".to_string()]);
        assert!(w.holds_before, "x ⪯ y holds where the conjunct fails");
        // Shortest witness: the all-ε assignment (ε ⪯ ε but last(ε,a) fails).
        assert_eq!(w.tuple, vec![Str::epsilon(), Str::epsilon()]);
        assert_eq!(w.scope, Scope::AllDatabases);
    }

    #[test]
    fn refutation_reports_the_side_that_accepts() {
        let before = f("last(x, 'a')");
        let after = f("last(x, 'a') | last(x, 'b')");
        let Verdict::Refuted(w) = v().equivalent(&before, &after) else {
            panic!("expected refutation");
        };
        assert!(!w.holds_before, "the output accepts strings ending in b");
        assert_eq!(w.tuple.len(), 1);
        assert_eq!(w.tuple[0].last(), Some(1));
    }

    #[test]
    fn free_variable_dropping_rewrites_are_still_comparable() {
        // simplify can collapse a subformula and lose a free variable;
        // equivalence is then decided over the union of free variables.
        let before = f("x <= x");
        let after = Formula::True;
        assert!(v().equivalent(&before, &after).is_validated());

        let bad_after = f("last(x, 'a')");
        assert!(v().equivalent(&Formula::True, &bad_after).is_refuted());
    }

    #[test]
    fn relational_rewrites_refute_on_generated_databases() {
        let before = f("exists y. (U(y) & x <= y)");
        let after = f("exists y. (U(y) & x <= y & last(x, 'a'))");
        let Verdict::Refuted(w) = v().equivalent(&before, &after) else {
            panic!("expected refutation");
        };
        assert!(matches!(w.scope, Scope::Database(_)));
        assert!(w.holds_before);
    }

    #[test]
    fn relational_identity_like_rewrites_are_unknown_without_a_db() {
        let before = f("exists y. (U(y) & x <= y)");
        let after = f("exists y. (U(y) & x <= y & x <= y)");
        let verdict = v().equivalent(&before, &after);
        match verdict {
            Verdict::Unknown { checks, .. } => assert!(checks > 0),
            other => panic!("expected Unknown, got {}", other.render(&sigma())),
        }
    }

    #[test]
    fn relational_rewrites_validate_on_a_concrete_database() {
        let mut db = Database::new();
        db.insert_unary_parsed(&sigma(), "U", &["", "a", "ab", "bb"])
            .unwrap();
        let before = f("exists y. (U(y) & x <= y)");
        let after = transform::nnf(&f("!!(exists y. (U(y) & x <= y))"));
        let verdict = v().equivalent_on(&before, &after, &db);
        assert!(verdict.is_validated(), "{}", verdict.render(&sigma()));
    }

    #[test]
    fn concat_fragment_degrades_to_bounded_differential() {
        // Concatenation escapes the automata path (Proposition 1).
        let before = f("exists z. (concat(x, x, z) & z = \"aa\")");
        let after = f("x = \"a\"");
        // Equivalent under bounded semantics: Unknown, with checks done.
        match v().equivalent(&before, &after) {
            Verdict::Unknown { checks, .. } => assert!(checks > 0),
            other => panic!("expected Unknown, got {}", other.render(&sigma())),
        }
        // And a real difference is caught by the bounded fallback.
        let broken = f("x = \"b\"");
        let Verdict::Refuted(w) = v().equivalent(&before, &broken) else {
            panic!("expected refutation");
        };
        assert!(matches!(w.scope, Scope::BoundedDomain(_)));
    }

    /// A stored row holding a symbol outside `Σ` denotes nothing, so the
    /// bounded fallback's domain leaves it out: the language atom never
    /// sees it, and two orderings of the same conjunction agree.
    #[test]
    fn bounded_fallback_ignores_rows_outside_the_alphabet() {
        let mut db = Database::new();
        db.insert("R", vec![Str::from_syms(vec![0, 2])]).unwrap();
        let concat = "exists y. exists z. concat(y, z, x)";
        let before = f(&format!("R(x) & in(x, /a.*/) & {concat}"));
        let after = f(&format!("in(x, /a.*/) & {concat} & R(x)"));
        match v().equivalent_on(&before, &after, &db) {
            Verdict::Unknown { checks, .. } => assert!(checks > 0),
            other => panic!("expected Unknown, got {}", other.render(&sigma())),
        }
    }

    #[test]
    fn standard_chain_traces_validate_stepwise() {
        let before = f("!(exists y. (x <= y & !last(y, 'a'))) & !(x = x & false)");
        let trace = Rewriter::standard().rewrite_traced(&before);
        for sv in v().validate_trace(&trace) {
            assert!(
                sv.verdict.is_validated(),
                "step {}: {}",
                sv.step,
                sv.verdict.render(&sigma())
            );
        }
    }

    #[test]
    fn cached_validation_agrees_and_hits_on_repeat() {
        let cache = Arc::new(AutomatonCache::new());
        let cached = v().with_cache(Arc::clone(&cache));
        let plain = v();
        let cases = [
            ("!(exists y. (x <= y & !last(y, 'a')))", true),
            ("x <= y & !(y <= x | last(x, 'b'))", true),
        ];
        for (src, _) in cases {
            let before = f(src);
            let after = transform::nnf(&before);
            let a = cached.equivalent(&before, &after);
            let b = plain.equivalent(&before, &after);
            assert_eq!(a.is_validated(), b.is_validated(), "{src}");
        }
        let after_first = cache.stats();
        assert!(after_first.misses > 0, "first pass populates the cache");
        // Second pass over the same corpus: all compiles are hits.
        for (src, _) in cases {
            let before = f(src);
            let after = transform::nnf(&before);
            assert!(cached.equivalent(&before, &after).is_validated());
        }
        let after_second = cache.stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "no new compilations on the second pass"
        );
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn generated_databases_are_deterministic() {
        let schema: BTreeMap<String, usize> = [("U".to_string(), 1), ("R".to_string(), 2)]
            .into_iter()
            .collect();
        let a = v().generate_db(&schema, 0);
        let b = v().generate_db(&schema, 0);
        assert_eq!(a.adom(), b.adom());
        assert!(a.relation("U").is_some() && a.relation("R").is_some());
    }
}
