//! The typed query-plan IR.
//!
//! A [`Plan`] is a tree of [`PlanNode`]s describing how a query will be
//! evaluated, plus the trace of the rewrite pass that preceded it. The
//! tree is a faithful description of the work the executors perform —
//! product constructions and complements for the automata strategy, a
//! compiled program's generators and filters for the relational,
//! collapse and bounded-search routes — annotated with per-node cost
//! estimates from
//! `strcalc-analyze`'s cost model.

use std::sync::Arc;

use strcalc_alphabet::Alphabet;
use strcalc_analyze::cost::CostEstimate;
use strcalc_analyze::planlint::ResourceCert;
use strcalc_analyze::{FactSheet, ScanPlan};
use strcalc_logic::{Formula, Restrict};

use crate::budget::Budget;
use crate::engine::AutomataEngine;
use crate::generate::Program;
use crate::query::{Calculus, Query};

use super::lint::PlanChecker;
use super::passes::PassTrace;

/// The evaluation strategies the legacy entry points hard-coded, now
/// chosen in one place ([`super::Planner`]) by fragment inference
/// (`strcalc_analyze::fragments`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Compile to a synchronized automaton; quantifiers range over the
    /// infinite `Σ*` (exact semantics — the [`AutomataEngine`] path).
    Automata,
    /// Active-domain evaluation. By default the planner takes it for a
    /// safe-range formula in which every variable has a generator: the
    /// relational route (a [`PlanOp::Relational`] root) binds each
    /// variable from the atom that range-restricts it (Theorems 3–4).
    /// Forced, it runs the same kind of program over the finite collapse
    /// domain with a slack fringe (an [`PlanOp::EnumerateFinite`] root;
    /// Propositions 2 / Theorem 2).
    ActiveDomainEnum,
    /// Every variable ranges over `Σ^{≤B}`: the compiled `generate`
    /// program binds what the formula range-restricts and walks
    /// `Σ^{≤B}` for the rest — the only general strategy once
    /// concatenation appears (Proposition 1).
    BoundedSearch,
    /// Linear scan of one stored relation with Petersen-class LIKE
    /// filters evaluated directly on the tuples — no automaton is ever
    /// constructed. Selected when fragment inference places the formula
    /// in the linear LIKE class.
    LikeLinearScan,
    /// Batched scan of one stored relation whose general language
    /// filters run as dense byte-class-compressed DFA tables over whole
    /// columns. Selected when fragment inference yields a scan plan
    /// with general filters whose certified state bounds fit the
    /// densification threshold; otherwise those formulas fall back to
    /// [`Strategy::Automata`].
    DenseDfaScan,
}

impl Strategy {
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Automata => "automata",
            Strategy::ActiveDomainEnum => "active-domain-enum",
            Strategy::BoundedSearch => "bounded-search",
            Strategy::LikeLinearScan => "like-linear-scan",
            Strategy::DenseDfaScan => "dense-dfa-scan",
        }
    }
}

/// Plan operators. Leaf operators carry a rendered label of the atom
/// they evaluate; interior operators mirror the logical connective they
/// implement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Leaf: compile an atom to its synchronized automaton. Records the
    /// fingerprint of the alphabet it was lowered against so planlint
    /// can reject a leaf grafted from a differently-configured plan.
    CompileAutomaton { label: String, alphabet_fp: u64 },
    /// Leaf: on a compiled program, a filter over variables bound before
    /// it; on a scan, an atom the scan evaluates per row.
    Interpret { label: String },
    /// Leaf of a compiled program: bind `var` from the values the atom
    /// `label` generates — the atom that range-restricts it — or, over a
    /// finite domain, from the domain (`label` `Σ^≤B` or `collapse
    /// domain`) or a restricted quantifier's range (`adom`, `dom↓`,
    /// `len≤adom`).
    Generate { var: String, label: String },
    /// Conjunction: synchronized product (automata) or short-circuit
    /// `&&` (interpreters). N-ary: the planner builds products flat, with
    /// no `Product` child.
    Product,
    /// Disjunction.
    Union,
    /// Negation.
    Complement,
    /// Existential quantification: project the variable's track away.
    Project { var: String },
    /// Quantifier-range restriction. `var: Some(v)` restricts one
    /// quantifier (a restricted quantifier in the formula; on a compiled
    /// program its child binds `v` from the range first); `var: None`
    /// restricts *every* unrestricted quantifier to the collapse domain
    /// (under the root of a forced collapse plan).
    RestrictQuantifiers {
        var: Option<String>,
        restrict: Restrict,
    },
    /// Root of the materializing strategies: enumerate the finite output
    /// (or sample an infinite one).
    EnumerateFinite,
    /// Root of the concat strategy: every variable ranges over
    /// `Σ^{≤budget}`. Its compiled program's tree runs like
    /// [`PlanOp::Relational`].
    BoundedSearch { budget: usize },
    /// Root of the relational route (under
    /// [`Strategy::ActiveDomainEnum`]): nested loops over the tree below,
    /// whose `Product` children run in binding order — each `Generate`
    /// leaf binds its variable, every other child tests variables bound
    /// before it. Builds no automaton.
    Relational,
    /// Serve the compiled artifact below from the shared
    /// [`crate::cache::AutomatonCache`] (under the root of an automata
    /// plan whose engine carries a cache).
    /// `formula_fp` is the α-invariant formula fingerprint of the cache
    /// key the lookup will use; planlint checks it against the plan's
    /// formula so a stale lookup node cannot serve the wrong artifact.
    CacheLookup { formula_fp: u64 },
    /// Root of the linear-scan strategy: stream the stored relation,
    /// apply the LIKE matchers and column equalities tuple-by-tuple,
    /// and project the head columns. Planlint compares the scan plan
    /// with the formula's fact sheet and rejects a stale one (SA305).
    LikeScan { plan: ScanPlan },
    /// Root of the dense-scan strategy: run the relation's columns
    /// through byte-class-compressed dense DFA tables in batches (one
    /// dispatch per batch), then apply the linear matchers and column
    /// equalities and project. `threshold` is the densification bound
    /// the planner certified the tables against; planlint checks the
    /// scan plan against the fact sheet (SA305) and rejects a node whose
    /// certified state bound exceeds the threshold (SA206).
    DenseScan { plan: ScanPlan, threshold: u64 },
}

impl PlanOp {
    /// Stable operator name (used by both EXPLAIN renderings).
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::CompileAutomaton { .. } => "CompileAutomaton",
            PlanOp::Interpret { .. } => "Interpret",
            PlanOp::Generate { .. } => "Generate",
            PlanOp::Product => "Product",
            PlanOp::Union => "Union",
            PlanOp::Complement => "Complement",
            PlanOp::Project { .. } => "Project",
            PlanOp::RestrictQuantifiers { .. } => "RestrictQuantifiers",
            PlanOp::EnumerateFinite => "EnumerateFinite",
            PlanOp::BoundedSearch { .. } => "BoundedSearch",
            PlanOp::Relational => "Relational",
            PlanOp::CacheLookup { .. } => "CacheLookup",
            PlanOp::LikeScan { .. } => "LikeScan",
            PlanOp::DenseScan { .. } => "DenseScan",
        }
    }
}

/// One node of the plan tree, annotated with the cost estimate of the
/// subformula it evaluates, the variable tracks of its output schema,
/// and (once verified) its resource certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    pub op: PlanOp,
    pub cost: CostEstimate,
    /// The output schema: sorted, deduplicated variable tracks of the
    /// automaton/interpretation this subtree produces. Planlint checks
    /// these agree across every edge (SA201).
    pub vars: Vec<String>,
    /// Resource certificate (upper bounds) from planlint's abstract
    /// interpretation; `None` until the planner's verification walk
    /// writes it (leaves carry their seed from lowering).
    pub cert: Option<ResourceCert>,
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    pub(crate) fn new(
        op: PlanOp,
        cost: CostEstimate,
        vars: Vec<String>,
        children: Vec<PlanNode>,
    ) -> PlanNode {
        PlanNode {
            op,
            cost,
            vars,
            cert: None,
            children,
        }
    }

    /// A `Product` over `children`, with the children of any `Product`
    /// child spliced in, so products stay flat as the tree is built. The
    /// node keeps the given cost and tracks.
    pub(crate) fn product(
        cost: CostEstimate,
        vars: Vec<String>,
        children: Vec<PlanNode>,
    ) -> PlanNode {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            if c.op == PlanOp::Product {
                flat.extend(c.children);
            } else {
                flat.push(c);
            }
        }
        PlanNode::new(PlanOp::Product, cost, vars, flat)
    }

    /// Wraps this node under `op`, inheriting its cost estimate and
    /// output schema (all wrapper operators are schema-preserving).
    pub(crate) fn wrap(self, op: PlanOp) -> PlanNode {
        let cost = self.cost.clone();
        let vars = self.vars.clone();
        PlanNode {
            op,
            cost,
            vars,
            cert: None,
            children: vec![self],
        }
    }

    /// Number of nodes in this subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    /// Visits every node, parents before children.
    pub fn visit(&self, f: &mut impl FnMut(&PlanNode)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// What the plan evaluates: a validated [`Query`] (tame calculi) or a
/// raw formula (the concat fragment, which `Query` rejects by design).
#[derive(Debug, Clone)]
pub(crate) enum PlanSource {
    Query(Query),
    Raw {
        alphabet: Alphabet,
        head: Vec<String>,
        formula: Formula,
        sheet: Arc<FactSheet>,
    },
}

/// An executable, explainable query plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub strategy: Strategy,
    pub root: PlanNode,
    /// Trace of the planning passes: the formula rewrite.
    pub passes: Vec<PassTrace>,
    /// Whole-query cost estimate.
    pub estimate: CostEstimate,
    pub(crate) source: PlanSource,
    /// The formula the planner was given, when the rewrite pass replaced
    /// it (`None`: it is [`Plan::formula`]).
    pub(crate) given: Option<Formula>,
    /// Engine configuration the automata executor runs under.
    pub(crate) engine: AutomataEngine,
    /// Fringe width for the enumeration executor (`None` = derived).
    pub(crate) slack: Option<usize>,
    /// The checker that verified the plan, holding the invariants it
    /// derived from the formula once; the execute-time gate re-runs it.
    pub(crate) checker: PlanChecker,
    /// The budget capability the planner seeded from the plan's peak
    /// planlint certificate. `execute` runs under it unless the
    /// caller's `ExecCx` carries another.
    pub(crate) budget: Budget,
    /// The compiled program a `Relational` root, a `BoundedSearch` root
    /// and a forced collapse plan's `EnumerateFinite` root execute.
    pub(crate) program: Option<Arc<Program>>,
}

impl Plan {
    /// The formula this plan evaluates (after the rewrite pass).
    pub fn formula(&self) -> &Formula {
        match &self.source {
            PlanSource::Query(q) => q.formula(),
            PlanSource::Raw { formula, .. } => formula,
        }
    }

    /// The formula the planner was given, before the rewrite pass:
    /// re-planning it reproduces this plan, rewrite included.
    pub(crate) fn given_formula(&self) -> &Formula {
        self.given.as_ref().unwrap_or_else(|| self.formula())
    }

    /// The output column order.
    pub fn head(&self) -> &[String] {
        match &self.source {
            PlanSource::Query(q) => q.head(),
            PlanSource::Raw { head, .. } => head,
        }
    }

    pub fn alphabet(&self) -> &Alphabet {
        match &self.source {
            PlanSource::Query(q) => q.alphabet(),
            PlanSource::Raw { alphabet, .. } => alphabet,
        }
    }

    /// The fact sheet of the formula this plan evaluates.
    pub(crate) fn sheet(&self) -> &Arc<FactSheet> {
        match &self.source {
            PlanSource::Query(q) => &q.sheet,
            PlanSource::Raw { sheet, .. } => sheet,
        }
    }

    /// The declared calculus, or `None` for the concat fragment.
    pub fn calculus(&self) -> Option<Calculus> {
        match &self.source {
            PlanSource::Query(q) => Some(q.calculus()),
            PlanSource::Raw { .. } => None,
        }
    }

    /// `true` iff the plan evaluates a sentence.
    pub fn is_boolean(&self) -> bool {
        self.head().is_empty()
    }

    /// The whole-plan resource certificate: sound upper bounds on the
    /// states and bytes of the automaton this plan compiles to (zero
    /// for the interpreter strategies, which build no automata).
    pub fn certificate(&self) -> Option<ResourceCert> {
        self.root.cert
    }

    /// The budget capability the planner seeded this plan with, from
    /// the plan's peak planlint certificate.
    /// [`Plan::execute`](crate::plan::Plan) governs itself under this
    /// budget; an `ExecCx` budget overrides it.
    pub fn seeded_budget(&self) -> Budget {
        self.budget
    }

    /// Replaces the seeded budget (e.g. a tenant quota narrower than
    /// the certificate-derived default).
    pub fn with_budget(mut self, budget: Budget) -> Plan {
        self.budget = budget;
        self
    }
}
