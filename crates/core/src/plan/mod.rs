//! The query planner: one decision procedure for all entry points.
//!
//! The SQL front-end, the collapse experiments and the concat demos
//! all plan through the [`Planner`], which makes the one choice of
//! route — the relational route when every variable of the formula has
//! a generator, automata for the rest of the synchro fragment, the
//! collapse domain when forced, bounded search for concat (the last
//! three all run `generate` programs) — and lowers the query into a
//! typed [`Plan`] that the engines *execute* rather than own. Planning
//! runs in one step: a traced rewrite of the formula, the route, a
//! lowering straight to the finished tree (flat products, the collapse
//! restriction and the cache lookup built in), and one planlint walk
//! that verifies the tree and writes every node's certificate into it.
//! Every plan renders a stable `EXPLAIN` (text and JSON) with per-node
//! cost estimates from
//! `strcalc-analyze` and post-execution actuals.
//!
//! ```
//! use strcalc_core::plan::Planner;
//! use strcalc_core::{Calculus, Query};
//! use strcalc_alphabet::Alphabet;
//!
//! let q = Query::parse(
//!     Calculus::S,
//!     Alphabet::ab(),
//!     vec!["x".into()],
//!     "exists y. (R(y) & x <= y)",
//! )
//! .unwrap();
//! let plan = Planner::new().plan(&q).unwrap();
//! println!("{}", plan.explain_text());
//! ```

// Panic-audit round 5: every plan is on the execution path of all
// three evaluators, so invariant-based panics must be spelled out as
// messaged `expect`s. The inner attribute covers the whole module tree
// (ir, passes, lint, exec, explain).
#![deny(clippy::unwrap_used)]

use std::sync::Arc;

mod exec;
mod explain;
mod ir;
pub mod lint;
mod passes;

pub use exec::{ExecCx, ExecReport};
pub(crate) use explain::restrict_name;
pub use ir::{Plan, PlanNode, PlanOp, Strategy};
pub use lint::{PlanChecker, PlanLintReport};
pub use passes::PassTrace;

use strcalc_alphabet::Alphabet;
use strcalc_analyze::cost;
use strcalc_analyze::langs::LangTable;
use strcalc_analyze::planlint::{self as cert_domain, DENSIFY_THRESHOLD};
use strcalc_analyze::{EvalClass, FactSheet, ScanPlan};
use strcalc_logic::Formula;

use crate::budget::Budget;
use crate::collapse::natural_restriction;
use crate::engine::AutomataEngine;
use crate::generate::{DomainKind, Program};
use crate::query::{check_head, CoreError, Query};

use ir::PlanSource;

/// Lowers analyzed queries into executable [`Plan`]s. Construction is
/// cheap; a planner is a bundle of configuration.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Engine configuration (cap, minimization, sampling, cache) the
    /// automata executor runs under.
    pub engine: AutomataEngine,
    /// Fringe width for the enumeration executor; `None` derives
    /// `quantifier_rank + 1` per query.
    pub slack: Option<usize>,
    /// Length bound `B` for the bounded-search executor.
    pub bound: usize,
    /// Force a strategy instead of letting the fragment decide (used by
    /// the collapse experiments and the differential tests). Forcing
    /// `Automata` or `ActiveDomainEnum` on a concat formula is an error.
    pub force: Option<Strategy>,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            engine: AutomataEngine::new(),
            slack: None,
            bound: 4,
            force: None,
        }
    }
}

impl Planner {
    pub fn new() -> Planner {
        Planner::default()
    }

    /// A planner whose automata executor inherits `engine`'s
    /// configuration, including any attached cache.
    pub fn for_engine(engine: &AutomataEngine) -> Planner {
        Planner {
            engine: engine.clone(),
            ..Planner::default()
        }
    }

    /// Forces a strategy (see [`Planner::force`]).
    pub fn force(mut self, strategy: Strategy) -> Planner {
        self.force = Some(strategy);
        self
    }

    /// Sets the enumeration slack.
    pub fn with_slack(mut self, slack: usize) -> Planner {
        self.slack = Some(slack);
        self
    }

    /// Sets the bounded-search length bound.
    pub fn with_bound(mut self, bound: usize) -> Planner {
        self.bound = bound;
        self
    }

    /// The strategy this planner would pick for `formula` over an
    /// alphabet of size `k` — the single decision procedure every entry
    /// point shares, a lookup on the evaluation class of the formula's
    /// fact sheet ([`strcalc_analyze::FactSheet`], built here for the
    /// call and dropped; a plan reads its query's): bounded search for
    /// the concat-bounded class, a linear relation scan for the linear
    /// LIKE class, a dense table scan for the general scan class when
    /// the certified state bound (which depends on `k`) fits the
    /// densification threshold, otherwise the forced strategy or (by
    /// default) exact automata evaluation.
    ///
    /// Where that lookup lands on unforced automata, a formula in which
    /// every variable — free or quantified — has a generator (the atom
    /// that range-restricts it, per `analyze::saferange`) takes the
    /// relational route instead: [`Strategy::ActiveDomainEnum`] under a
    /// [`PlanOp::Relational`] root. Forcing `ActiveDomainEnum` runs the
    /// formula over its collapse domain. A planner whose engine carries an
    /// [`AutomatonCache`](crate::AutomatonCache) keeps automata: its
    /// caller shares compiled automata across reads and accounts for
    /// them through the cache.
    pub fn strategy_for(&self, formula: &Formula, k: u8) -> Result<Strategy, CoreError> {
        let head: Vec<String> = formula.free_vars().into_iter().collect();
        let sheet = FactSheet::build(formula, &head, k);
        Ok(self.route(formula, &head, &sheet, None)?.0)
    }

    /// The strategy for `formula`, whose fact sheet is `sheet`, with the
    /// compiled relational program and its plan tree when the relational
    /// route takes it. Without an alphabet the tree carries no labels.
    fn route(
        &self,
        formula: &Formula,
        head: &[String],
        sheet: &FactSheet,
        alphabet: Option<&Alphabet>,
    ) -> Result<(Strategy, Option<(Program, PlanNode)>), CoreError> {
        let strategy = self.fragment_strategy(sheet)?;
        if strategy == Strategy::Automata && self.force.is_none() && self.engine.cache.is_none() {
            if let Some(lowered) = Program::lower(formula, head, &sheet.langs, alphabet, None) {
                return Ok((Strategy::ActiveDomainEnum, Some(lowered)));
            }
        }
        Ok((strategy, None))
    }

    /// The lookup on the evaluation class alone.
    fn fragment_strategy(&self, sheet: &FactSheet) -> Result<Strategy, CoreError> {
        let langs = &sheet.langs;
        match &sheet.class {
            EvalClass::ConcatBounded => match self.force {
                Some(Strategy::Automata)
                | Some(Strategy::ActiveDomainEnum)
                | Some(Strategy::LikeLinearScan)
                | Some(Strategy::DenseDfaScan) => Err(CoreError::Unsupported(
                    "concatenation queries admit only bounded search (Proposition 1)".into(),
                )),
                _ => Ok(Strategy::BoundedSearch),
            },
            EvalClass::LikeLinear(_) => match self.force {
                Some(Strategy::DenseDfaScan) => Err(CoreError::Unsupported(
                    "the dense-scan strategy requires general language filters; this formula \
                     is in the linear LIKE class"
                        .into(),
                )),
                _ => Ok(self.force.unwrap_or(Strategy::LikeLinearScan)),
            },
            EvalClass::LikeGeneral(plan) => {
                let bound = cert_domain::dense_scan_states(plan, langs);
                match self.force {
                    Some(Strategy::LikeLinearScan) => Err(CoreError::Unsupported(
                        "the linear-scan strategy requires a formula in the linear LIKE class"
                            .into(),
                    )),
                    Some(Strategy::DenseDfaScan) if bound > DENSIFY_THRESHOLD => {
                        Err(CoreError::Unsupported(format!(
                            "dense scan refused: certified state bound {bound} exceeds the \
                             densification threshold {DENSIFY_THRESHOLD}"
                        )))
                    }
                    Some(s) => Ok(s),
                    None if bound <= DENSIFY_THRESHOLD => Ok(Strategy::DenseDfaScan),
                    None => Ok(Strategy::Automata),
                }
            }
            EvalClass::AutomataTame => match self.force {
                Some(Strategy::LikeLinearScan) => Err(CoreError::Unsupported(
                    "the linear-scan strategy requires a formula in the linear LIKE class".into(),
                )),
                Some(Strategy::DenseDfaScan) => Err(CoreError::Unsupported(
                    "the dense-scan strategy requires a scan-shaped formula with general \
                     language filters"
                        .into(),
                )),
                _ => Ok(self.force.unwrap_or(Strategy::Automata)),
            },
        }
    }

    /// Plans a typed query.
    pub fn plan(&self, q: &Query) -> Result<Plan, CoreError> {
        self.build(PlanSource::Query(q.clone()))
    }

    /// Plans a raw formula, accepting the concat fragment (which
    /// [`Query`] rejects by design). Tame formulas are routed through
    /// [`Query::infer`] so they get the same validation as [`Planner::plan`].
    pub fn plan_formula(
        &self,
        alphabet: &Alphabet,
        head: &[String],
        formula: &Formula,
    ) -> Result<Plan, CoreError> {
        let sheet = FactSheet::build(formula, head, alphabet.len() as u8);
        let source = if sheet.contains_concat() {
            check_head(head, formula)?;
            PlanSource::Raw {
                alphabet: alphabet.clone(),
                head: head.to_vec(),
                formula: formula.clone(),
                sheet: Arc::new(sheet),
            }
        } else {
            let q = Query::typed(
                None,
                alphabet.clone(),
                head.to_vec(),
                formula.clone(),
                sheet,
            )?;
            check_head(head, formula)?;
            PlanSource::Query(q)
        };
        self.build(source)
    }

    fn build(&self, source: PlanSource) -> Result<Plan, CoreError> {
        // The rewrite pass (formula-level).
        let (source, given, rewrite) = passes::rewrite(source);

        // Lower the (possibly rewritten) formula to the operator tree.
        let (formula, alphabet, head, sheet) = match &source {
            PlanSource::Query(q) => (q.formula(), q.alphabet(), q.head(), &q.sheet),
            PlanSource::Raw {
                formula,
                alphabet,
                head,
                sheet,
            } => (formula, alphabet, head.as_slice(), sheet),
        };
        // Strategy selection runs on the *post-rewrite* formula: the
        // rewrite can move a formula into (or out of) the linear LIKE
        // class, and a strategy chosen from the stale pre-rewrite
        // classification could route a scan-eligible formula through
        // automaton construction — or worse, attach a scan plan the
        // rewritten formula no longer matches (SA305). Raw sources
        // enter only through the concat fragment and keep the
        // bounded-search executor even when the rewrite folds the
        // ConcatEq atom away: there is no typed query to hand to the
        // other executors.
        let (strategy, relational) = match &source {
            PlanSource::Raw { .. } => match self.force {
                Some(Strategy::BoundedSearch) | None => (Strategy::BoundedSearch, None),
                Some(_) => {
                    return Err(CoreError::Unsupported(
                        "concatenation queries admit only bounded search (Proposition 1)".into(),
                    ))
                }
            },
            PlanSource::Query(q) => self.route(q.formula(), q.head(), sheet, Some(alphabet))?,
        };
        // Bounded search and the forced collapse route run a compiled
        // program too, over `Σ^{≤B}` and the collapse domain.
        let is_relational = relational.is_some();
        let domain = match strategy {
            Strategy::BoundedSearch => Some(DomainKind::UpTo(self.bound)),
            Strategy::ActiveDomainEnum => Some(DomainKind::Collapse),
            _ => None,
        };
        let lowered = match (relational, domain) {
            (None, Some(d)) => Some(Program::lower_over(
                formula,
                head,
                &sheet.langs,
                Some(alphabet),
                d,
            )?),
            (lowered, _) => lowered,
        };
        let (program, tree) = match lowered {
            Some((program, tree)) => (Some(Arc::new(program)), tree),
            None => (None, self.lower(formula, alphabet, strategy, &sheet.langs)),
        };

        // The root operator, over the decoration its strategy carries: a
        // forced collapse plan restricts every unrestricted quantifier to
        // the calculus's natural collapse domain, and an automata plan
        // whose engine carries a cache serves its compiled artifact
        // through a `CacheLookup`.
        let estimate = cost::estimate(formula, &sheet.langs);
        let mut root = match strategy {
            Strategy::ActiveDomainEnum if is_relational => tree.wrap(PlanOp::Relational),
            Strategy::ActiveDomainEnum => {
                let tree = match &source {
                    PlanSource::Query(q) => tree.wrap(PlanOp::RestrictQuantifiers {
                        var: None,
                        restrict: natural_restriction(q.calculus()),
                    }),
                    // Raw sources plan only bounded search.
                    PlanSource::Raw { .. } => tree,
                };
                tree.wrap(PlanOp::EnumerateFinite)
            }
            Strategy::Automata if self.engine.cache.is_some() => tree
                .wrap(PlanOp::CacheLookup {
                    formula_fp: sheet.fingerprint,
                })
                .wrap(PlanOp::EnumerateFinite),
            Strategy::Automata => tree.wrap(PlanOp::EnumerateFinite),
            Strategy::BoundedSearch => tree.wrap(PlanOp::BoundedSearch { budget: self.bound }),
            // The class lookup picks the linear scan only for the linear
            // LIKE class and the dense scan only for the general one.
            Strategy::LikeLinearScan => tree.wrap(PlanOp::LikeScan {
                plan: scan_of(sheet)?,
            }),
            Strategy::DenseDfaScan => tree.wrap(PlanOp::DenseScan {
                plan: scan_of(sheet)?,
                threshold: DENSIFY_THRESHOLD,
            }),
        };

        // One planlint walk over the finished plan: typing, root and
        // strategy checks, and every node's certificate, written into
        // the tree as it goes.
        let checker = lint::PlanChecker::new(
            strategy,
            head,
            alphabet,
            Arc::clone(sheet),
            self.engine.cache.is_some(),
        );
        let report = checker.verify(lint::Tree::Write(&mut root));
        if report.has_errors() {
            return Err(CoreError::PlanRejected {
                stage: "plan".to_string(),
                diagnostics: report.rendered_errors(),
            });
        }

        // Seed the budget capability from the plan's *peak* certified
        // demand (certificates are not monotone down the tree — an
        // interior product can peak above the minimized root, and the
        // capability must cover the deepest intermediate). Every
        // automaton leaf certifies at least one state, so an automata
        // plan's peak is never zero; a zero peak means the strategy
        // builds no automata and leaves those dimensions unlimited.
        // The certificate is a sound upper bound, so the seeded budget
        // admits every node's certificate: `execute` never degrades
        // unless a caller narrows the capability. The seeded
        // `search_depth` is the planner's bound `B`, and the complement
        // cap's safety role moves to the exec governor, which checks
        // every node's states against the run's budget.
        let budget = Budget::seeded(&report.peak, self.bound);

        Ok(Plan {
            strategy,
            root,
            passes: vec![rewrite],
            estimate,
            source,
            given,
            engine: self.engine.clone(),
            slack: self.slack,
            checker,
            budget,
            program,
        })
    }

    /// Structural lowering of a formula into plan operators. Leaves are
    /// `CompileAutomaton` for the automata strategy and `Interpret` for
    /// the scans; derived connectives lower through their definitions
    /// (`∀ = ¬∃¬`, `→`/`↔` through `∨`/`∧`), exactly as the compiler
    /// treats them.
    fn lower(
        &self,
        f: &Formula,
        alphabet: &Alphabet,
        strategy: Strategy,
        langs: &LangTable,
    ) -> PlanNode {
        let est = |g: &Formula| cost::estimate(g, langs);
        let leaf = |g: &Formula| {
            let label = g.render(alphabet);
            // Leaf tracks come from the atom; interior nodes derive
            // theirs bottom-up from their children, exactly the sets
            // planlint re-derives across every edge (SA201).
            let tracks: Vec<String> = g.free_vars().into_iter().collect();
            match strategy {
                Strategy::Automata => {
                    let mut n = PlanNode::new(
                        PlanOp::CompileAutomaton {
                            label,
                            alphabet_fp: alphabet.fingerprint(),
                        },
                        est(g),
                        tracks,
                        Vec::new(),
                    );
                    // Seed the certificate with the atom's certified
                    // state bound; interior certs derive from these.
                    let atom = match g {
                        Formula::Atom(a) => Some(a),
                        _ => None,
                    };
                    n.cert = Some(cert_domain::leaf_cert(atom, langs, n.vars.len()));
                    n
                }
                _ => PlanNode::new(PlanOp::Interpret { label }, est(g), tracks, Vec::new()),
            }
        };
        match f {
            Formula::True | Formula::False | Formula::Atom(_) => leaf(f),
            Formula::Not(g) => {
                let child = self.lower(g, alphabet, strategy, langs);
                let vars = child.vars.clone();
                PlanNode::new(PlanOp::Complement, est(f), vars, vec![child])
            }
            Formula::And(a, b) => {
                let lhs = self.lower(a, alphabet, strategy, langs);
                let rhs = self.lower(b, alphabet, strategy, langs);
                let vars = union_sorted(&lhs.vars, &rhs.vars);
                PlanNode::product(est(f), vars, vec![lhs, rhs])
            }
            Formula::Or(a, b) => {
                let lhs = self.lower(a, alphabet, strategy, langs);
                let rhs = self.lower(b, alphabet, strategy, langs);
                let vars = union_sorted(&lhs.vars, &rhs.vars);
                PlanNode::new(PlanOp::Union, est(f), vars, vec![lhs, rhs])
            }
            // a → b ≡ ¬a ∨ b.
            Formula::Implies(a, b) => {
                let equiv = a.as_ref().clone().not().or(b.as_ref().clone());
                let mut node = self.lower(&equiv, alphabet, strategy, langs);
                node.cost = est(f);
                node
            }
            // a ↔ b ≡ (a ∧ b) ∨ (¬a ∧ ¬b).
            Formula::Iff(a, b) => {
                let pos = a.as_ref().clone().and(b.as_ref().clone());
                let neg = a.as_ref().clone().not().and(b.as_ref().clone().not());
                let lhs = self.lower(&pos, alphabet, strategy, langs);
                let rhs = self.lower(&neg, alphabet, strategy, langs);
                let vars = union_sorted(&lhs.vars, &rhs.vars);
                PlanNode::new(PlanOp::Union, est(f), vars, vec![lhs, rhs])
            }
            Formula::Exists(v, g) => {
                let child = self.lower(g, alphabet, strategy, langs);
                let vars = minus_var(&child.vars, v);
                PlanNode::new(
                    PlanOp::Project { var: v.clone() },
                    est(f),
                    vars,
                    vec![child],
                )
            }
            // ∀v g ≡ ¬∃v ¬g.
            Formula::Forall(v, g) => {
                let inner_not = g.as_ref().clone().not();
                let exists = Formula::exists(v.clone(), inner_not.clone());
                let child = self.lower(&inner_not, alphabet, strategy, langs);
                let vars = minus_var(&child.vars, v);
                let project = PlanNode::new(
                    PlanOp::Project { var: v.clone() },
                    est(&exists),
                    vars.clone(),
                    vec![child],
                );
                PlanNode::new(PlanOp::Complement, est(f), vars, vec![project])
            }
            Formula::ExistsR(r, v, g) => {
                let child = self.lower(g, alphabet, strategy, langs);
                let vars = minus_var(&child.vars, v);
                PlanNode::new(
                    PlanOp::RestrictQuantifiers {
                        var: Some(v.clone()),
                        restrict: *r,
                    },
                    est(f),
                    vars,
                    vec![child],
                )
            }
            // ∀v∈dom g ≡ ¬∃v∈dom ¬g.
            Formula::ForallR(r, v, g) => {
                let inner_not = g.as_ref().clone().not();
                let exists = Formula::exists_r(*r, v.clone(), inner_not.clone());
                let child = self.lower(&inner_not, alphabet, strategy, langs);
                let vars = minus_var(&child.vars, v);
                let restricted = PlanNode::new(
                    PlanOp::RestrictQuantifiers {
                        var: Some(v.clone()),
                        restrict: *r,
                    },
                    est(&exists),
                    vars.clone(),
                    vec![child],
                );
                PlanNode::new(PlanOp::Complement, est(f), vars, vec![restricted])
            }
        }
    }
}

/// The scan program of a scan-shaped formula, which the class lookup
/// alone routes to the scan strategies.
fn scan_of(sheet: &FactSheet) -> Result<ScanPlan, CoreError> {
    sheet.class.scan().cloned().ok_or_else(|| {
        CoreError::Unsupported("the scan strategies require a scan-shaped formula".into())
    })
}

/// Merge of two sorted, deduplicated track lists (plan-node `vars` are
/// kept sorted, so interior schemas derive by merging instead of
/// re-walking the subformula for its free variables).
fn union_sorted(a: &[String], b: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(a[i..].iter().cloned());
    out.extend(b[j..].iter().cloned());
    out
}

/// `vars` minus a bound variable (projection/restriction schemas).
fn minus_var(vars: &[String], v: &str) -> Vec<String> {
    vars.iter().filter(|x| x.as_str() != v).cloned().collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cache::AutomatonCache;
    use crate::query::Calculus;
    use std::sync::Arc;
    use strcalc_logic::parse_formula;
    use strcalc_relational::Database;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_unary_parsed(&ab(), "U", &["ab", "ba", "bab", "a"])
            .unwrap();
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
    fn strategy_follows_the_fragment() {
        let planner = Planner::new();
        // Safe-range with a generator for every variable: the relational
        // route, under the active-domain strategy.
        let tame = parse_formula(&ab(), "exists y. (U(y) & x <= y)").unwrap();
        assert_eq!(
            planner.strategy_for(&tame, 2).unwrap(),
            Strategy::ActiveDomainEnum
        );
        // `y` has no generator: exact automata.
        let open = parse_formula(&ab(), "U(x) & exists y. !(x <= y)").unwrap();
        assert_eq!(planner.strategy_for(&open, 2).unwrap(), Strategy::Automata);
        let concat = parse_formula(&ab(), "exists z. concat(x, x, z)").unwrap();
        assert_eq!(
            planner.strategy_for(&concat, 2).unwrap(),
            Strategy::BoundedSearch
        );
    }

    #[test]
    fn forcing_automata_on_concat_is_an_error() {
        let planner = Planner::new().force(Strategy::Automata);
        let concat = parse_formula(&ab(), "exists z. concat(x, x, z)").unwrap();
        let err = planner.strategy_for(&concat, 2).unwrap_err();
        assert!(err.to_string().contains("bounded search"));
    }

    #[test]
    fn linear_like_routes_to_the_scan_strategy() {
        let query = q(Calculus::SReg, &["x"], "U(x) & in(x, /a.*/)");
        let plan = Planner::new().plan(&query).unwrap();
        assert_eq!(plan.strategy, Strategy::LikeLinearScan);
        assert!(matches!(plan.root.op, PlanOp::LikeScan { .. }));
        let direct = AutomataEngine::new().eval(&query, &db()).unwrap();
        let (routed, report) = plan.execute(&db()).unwrap();
        assert_eq!(routed, direct);
        assert_eq!(report.automaton_states, 0, "the scan builds no automaton");
        assert_eq!(report.domain_size, 4, "every stored row is scanned once");
        assert!(plan.certificate().is_none_or(|c| c.is_zero()));
    }

    #[test]
    fn scan_strategy_answers_sentences() {
        let query = q(Calculus::SReg, &[], "exists x. (U(x) & in(x, /a.*/))");
        let plan = Planner::new().plan(&query).unwrap();
        assert_eq!(plan.strategy, Strategy::LikeLinearScan);
        let (out, report) = plan.execute(&db()).unwrap();
        assert!(!out.is_empty(), "'a' and 'ab' match LIKE 'a%'");
        assert!(report.domain_size > 0);
    }

    #[test]
    fn forcing_automata_still_evaluates_the_linear_class() {
        let query = q(Calculus::SReg, &["x"], "U(x) & in(x, /a.*/)");
        let forced = Planner::new()
            .force(Strategy::Automata)
            .plan(&query)
            .unwrap();
        assert_eq!(forced.strategy, Strategy::Automata);
        let (via_automata, _) = forced.execute(&db()).unwrap();
        let (via_scan, _) = Planner::new().plan(&query).unwrap().execute(&db()).unwrap();
        assert_eq!(via_automata, via_scan);
    }

    #[test]
    fn forcing_the_scan_outside_the_linear_class_is_an_error() {
        let planner = Planner::new().force(Strategy::LikeLinearScan);
        // (aa)* is not a LIKE pattern; the formula is automata-tame.
        let general = parse_formula(&ab(), "U(x) & in(x, /(aa)*/)").unwrap();
        let err = planner.strategy_for(&general, 2).unwrap_err();
        assert!(err.to_string().contains("linear LIKE class"));
        // ... and neither is a concat formula.
        let concat = parse_formula(&ab(), "exists z. concat(x, x, z)").unwrap();
        assert!(planner.strategy_for(&concat, 2).is_err());
    }

    #[test]
    fn strategy_is_chosen_after_the_rewrite() {
        // `φ | false` classifies as automata-tame (the disjunction is
        // not scannable), but the rewrite simplifies it to the bare
        // LIKE lookup. Strategy selection must see the rewritten
        // formula, or the plan would compile an automaton the formula
        // no longer needs — and carry a stale classification.
        let query = q(Calculus::SReg, &["x"], "(U(x) & in(x, /a.*/)) | false");
        let plan = Planner::new().plan(&query).unwrap();
        assert!(plan.passes[0].changed, "rewrite fires on `| false`");
        assert_eq!(plan.strategy, Strategy::LikeLinearScan);
        let (routed, _) = plan.execute(&db()).unwrap();
        let direct = AutomataEngine::new().eval(&query, &db()).unwrap();
        assert_eq!(routed, direct);
    }

    #[test]
    fn passes_run_in_order_and_are_traced() {
        let plan = Planner::new()
            .plan(&q(Calculus::S, &["x"], "exists y. (U(y) & x <= y)"))
            .unwrap();
        let names: Vec<&str> = plan.passes.iter().map(|t| t.pass.as_str()).collect();
        assert_eq!(names, vec!["rewrite"]);
        assert!(!plan.passes[0].changed, "nothing to simplify");
    }

    #[test]
    fn enum_strategy_restricts_quantifiers_and_reports_the_domain() {
        let query = q(Calculus::S, &[], "exists x. (U(x) & last(x, 'b'))");
        let plan = Planner::new()
            .force(Strategy::ActiveDomainEnum)
            .with_slack(2)
            .plan(&query)
            .unwrap();
        assert_eq!(
            plan.root.children[0].op,
            PlanOp::RestrictQuantifiers {
                var: None,
                restrict: natural_restriction(Calculus::S),
            },
            "the collapse restriction sits under the root"
        );
        let mut restricted = 0;
        plan.root.visit(&mut |n| {
            if matches!(n.op, PlanOp::RestrictQuantifiers { .. }) {
                restricted += 1;
            }
        });
        assert!(restricted > 0);
        let (out, report) = plan.execute(&db()).unwrap();
        assert!(!out.is_empty());
        assert!(report.domain_size > 0);
    }

    #[test]
    fn planner_agrees_with_direct_automata_eval() {
        let query = q(Calculus::S, &["x"], "exists y. (U(y) & x <= y)");
        let direct = AutomataEngine::new().eval(&query, &db()).unwrap();
        let plan = Planner::new()
            .force(Strategy::Automata)
            .plan(&query)
            .unwrap();
        assert_eq!(plan.strategy, Strategy::Automata);
        let (routed, report) = plan.execute(&db()).unwrap();
        assert_eq!(routed, direct);
        assert!(report.automaton_states > 0);
    }

    #[test]
    fn concat_head_mismatch_is_rejected() {
        let formula = parse_formula(&ab(), "exists z. concat(x, x, z)").unwrap();
        let err = Planner::new()
            .plan_formula(&ab(), &["y".to_string()], &formula)
            .unwrap_err();
        assert!(matches!(err, CoreError::HeadMismatch { .. }));
    }

    #[test]
    fn cache_assignment_wraps_and_execute_reports_hits() {
        let engine = AutomataEngine::new().with_cache(Arc::new(AutomatonCache::new()));
        let query = q(Calculus::S, &["x"], "exists y. (U(y) & x <= y)");
        let plan = Planner::for_engine(&engine).plan(&query).unwrap();
        assert!(
            matches!(plan.root.children[0].op, PlanOp::CacheLookup { .. }),
            "the cache lookup sits under the root"
        );
        let mut cache_nodes = 0;
        plan.root.visit(&mut |n| {
            if matches!(n.op, PlanOp::CacheLookup { .. }) {
                cache_nodes += 1;
            }
        });
        assert_eq!(cache_nodes, 1);
        let (_, first) = plan.execute(&db()).unwrap();
        let (_, second) = plan.execute(&db()).unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
    }

    #[test]
    fn explain_text_and_json_are_renderable() {
        let query = q(Calculus::S, &["x"], "exists y. (U(y) & x <= y)");
        let plan = Planner::new()
            .force(Strategy::Automata)
            .plan(&query)
            .unwrap();
        let text = plan.explain_text();
        assert!(text.contains("strategy: automata"));
        assert!(text.contains("EnumerateFinite"));
        assert!(text.contains("est 2^"));
        let json = plan.explain_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"strategy\":\"automata\""));
        let (_, report) = plan.execute(&db()).unwrap();
        assert!(plan
            .explain_text_with(Some(&report))
            .contains("actuals: automaton states"));
    }
}
