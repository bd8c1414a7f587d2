//! planlint: the plan-IR verifier and resource-certifying abstract
//! interpreter.
//!
//! PR 1 lifted the paper's fragment and safe-range results into `SA0xx`
//! diagnostics over *formulas*; this module lifts the same discipline to
//! *plans*. A [`PlanChecker`] walks a plan tree and
//!
//! 1. **typechecks** every node — operator arity (SA200), variable-track
//!    agreement across `Product`/`Union`/`Project` edges and against the
//!    query head (SA201) and, on a compiled program, the binding order:
//!    no filter reads a variable before its `Generate` binds it (SA201),
//!    alphabet consistency into `CompileAutomaton`
//!    leaves (SA202), `CacheLookup` key consistency with the
//!    fingerprint scheme (SA204), and root/leaf agreement with the
//!    declared strategy (SA205);
//! 2. **abstractly interprets** the tree in the upper-bound domain of
//!    [`strcalc_analyze::planlint`], deriving a per-node
//!    [`ResourceCert`] — sound upper bounds on automaton states and
//!    bytes, charging each language leaf the exact DFA size in the
//!    query's language table.
//!
//! Both happen in one bottom-up walk. The planner runs it once on the
//! finished tree, which the walk annotates with every node's
//! certificate as it goes; an error-level diagnostic rejects the plan at
//! plan time, before any executor sees it. The checker reads the
//! formula's fingerprint, fragment and scan plan from the query's fact
//! sheet instead of deriving them, and the plan keeps the checker;
//! [`super::Plan::execute`]
//! re-runs its walk read-only (a plan mutated after planning is
//! rejected there) and cross-checks the executor's actuals against the
//! certificate, reporting SA240 calibration warnings when the model's
//! bounds are exceeded. Only [`PlanChecker::check`], the report that
//! `strcalc-analyze --planlint` and `CompiledSql::planlint` print, adds
//! the SA210 note that carries the certificate.

use std::collections::BTreeSet;
use std::sync::Arc;

use strcalc_alphabet::Alphabet;
use strcalc_analyze::diag::{Code, Diagnostic, FormulaPath, PathSeg};
use strcalc_analyze::planlint::{
    dense_scan_cert, dense_scan_states, ResourceCert, DENSIFY_THRESHOLD,
};
use strcalc_analyze::FactSheet;

use super::ir::{Plan, PlanNode, PlanOp, Strategy};

/// The result of one verification run: diagnostics (at their default
/// severities) plus the root resource certificate the abstract
/// interpretation derived.
#[derive(Debug, Clone)]
pub struct PlanLintReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Certificate of the checked (sub)tree's root.
    pub certificate: Option<ResourceCert>,
    /// The largest certificate of any node in each dimension: what a
    /// budget must cover to let the whole plan run (certificates are
    /// not monotone down the tree — an interior product can peak above
    /// the root).
    pub peak: ResourceCert,
}

impl PlanLintReport {
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == strcalc_analyze::Severity::Error)
    }

    /// Distinct error-level codes, in first-occurrence order.
    pub fn error_codes(&self) -> Vec<Code> {
        let mut out = Vec::new();
        for d in &self.diagnostics {
            if d.severity == strcalc_analyze::Severity::Error && !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }

    /// Rendered error-level diagnostics (for [`crate::CoreError`]).
    pub(crate) fn rendered_errors(&self) -> Vec<String> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == strcalc_analyze::Severity::Error)
            .map(Diagnostic::render)
            .collect()
    }
}

/// Verifies plan trees against one plan's invariants (strategy, head,
/// alphabet, cache attachment, and the formula's fact sheet).
#[derive(Debug, Clone)]
pub struct PlanChecker {
    strategy: Strategy,
    head: BTreeSet<String>,
    alphabet_fp: u64,
    cache_attached: bool,
    /// The formula's fact sheet: its fingerprint keys the cache lookup
    /// (SA204), a concat formula under a non-concat strategy is rejected
    /// with SA305 (Proposition 1), and a `LikeScan` or `DenseScan` root
    /// must carry exactly its scan plan (SA305).
    sheet: Arc<FactSheet>,
}

impl PlanChecker {
    /// A checker for an already-built plan.
    pub fn for_plan(plan: &Plan) -> PlanChecker {
        PlanChecker::new(
            plan.strategy,
            plan.head(),
            plan.alphabet(),
            Arc::clone(plan.sheet()),
            plan.engine.cache.is_some(),
        )
    }

    /// A checker for a plan under `strategy` of the formula whose fact
    /// sheet is `sheet`.
    pub fn new(
        strategy: Strategy,
        head: &[String],
        alphabet: &Alphabet,
        sheet: Arc<FactSheet>,
        cache_attached: bool,
    ) -> PlanChecker {
        PlanChecker {
            strategy,
            head: head.iter().cloned().collect(),
            alphabet_fp: alphabet.fingerprint(),
            cache_attached,
            sheet,
        }
    }

    /// Full verification of a finished plan, as a report: typing of
    /// every node, the root/strategy checks, and the certificate
    /// interpretation, plus an SA210 note carrying the certificate when
    /// the plan is clean.
    pub fn check(&self, root: &PlanNode) -> PlanLintReport {
        let mut report = self.verify(Tree::Read(root));
        let clean = !report.has_errors();
        if let Some(cert) = report.certificate.filter(|c| clean && !c.is_zero()) {
            report.diagnostics.push(Diagnostic {
                code: Code::PlanCertificate,
                severity: Code::PlanCertificate.default_severity(),
                path: FormulaPath::root(),
                message: format!("plan certificate: {}", cert.summary()),
                note: None,
            });
        }
        report
    }

    /// The verification itself, in one walk over `tree`: typing of every
    /// node, the root/strategy checks, and each node's certificate —
    /// written into the node when the walk is handed the planner's own
    /// tree. The report's `peak` is the largest certificate of any node.
    pub(crate) fn verify(&self, mut tree: Tree<'_>) -> PlanLintReport {
        let mut diagnostics = Vec::new();
        let mut stack = Vec::new();
        let mut peak = ResourceCert::ZERO;
        let mut program = false;
        let cert = self.walk(
            &mut tree,
            &mut stack,
            &mut diagnostics,
            &mut peak,
            &mut program,
        );
        let root = tree.node();
        if program {
            check_bindings(root, &mut BTreeSet::new(), &mut stack, &mut diagnostics);
        }
        self.check_root(root, &mut diagnostics);
        PlanLintReport {
            diagnostics,
            certificate: Some(cert),
            peak,
        }
    }

    /// The execute-time gate: re-verifies `plan`'s tree against the
    /// invariants this checker derived when the plan was built, and
    /// rejects a plan whose strategy changed since (SA205).
    pub(crate) fn reverify(&self, plan: &Plan) -> PlanLintReport {
        let mut report = self.verify(Tree::Read(&plan.root));
        if plan.strategy != self.strategy {
            report.diagnostics.push(Diagnostic {
                code: Code::PlanStrategyMismatch,
                severity: Code::PlanStrategyMismatch.default_severity(),
                path: FormulaPath::root(),
                message: format!(
                    "the plan declares strategy {} but was verified under {}",
                    plan.strategy.name(),
                    self.strategy.name()
                ),
                note: None,
            });
        }
        report
    }

    /// Bottom-up: typechecks the node, derives its certificate, writes
    /// it into a [`Tree::Write`] node, and folds it into `peak`; `program`
    /// records whether a compiled program's node (a `Generate` leaf or a
    /// `Relational` root) was seen, whose binding order is then checked.
    ///
    /// This runs on every plan ever built, so the clean path is kept
    /// allocation-light: `stack` holds the child
    /// indices from the root, and a [`FormulaPath`] is materialized from
    /// it only when a diagnostic actually fires; child certificates live
    /// in an inline buffer unless a (flat) product is unusually wide.
    fn walk(
        &self,
        tree: &mut Tree<'_>,
        stack: &mut Vec<usize>,
        diagnostics: &mut Vec<Diagnostic>,
        peak: &mut ResourceCert,
        program: &mut bool,
    ) -> ResourceCert {
        let n = tree.node().children.len();
        let mut inline = [ResourceCert::ZERO; INLINE_CHILDREN];
        let mut spill = Vec::new();
        let child_certs = if n <= INLINE_CHILDREN {
            &mut inline[..n]
        } else {
            spill.resize(n, ResourceCert::ZERO);
            &mut spill[..]
        };
        for (i, slot) in child_certs.iter_mut().enumerate() {
            stack.push(i);
            *slot = self.walk(&mut tree.child(i), stack, diagnostics, peak, program);
            stack.pop();
        }
        let node = tree.node();
        *program |= matches!(node.op, PlanOp::Generate { .. } | PlanOp::Relational);
        self.check_node(node, stack, diagnostics);
        let cert = self.node_cert(node, child_certs);
        *peak = peak.peak(cert);
        if let Tree::Write(node) = tree {
            node.cert = Some(cert);
        }
        cert
    }

    /// The per-node typing checks: arity, tracks across the edge, and
    /// the operator's own invariants.
    fn check_node(&self, node: &PlanNode, stack: &[usize], diagnostics: &mut Vec<Diagnostic>) {
        let n = node.children.len();
        let path = || FormulaPath(stack.iter().map(|&i| PathSeg::PlanChild(i)).collect());
        let mut emit = |code: Code, message: String, note: Option<String>| {
            diagnostics.push(Diagnostic {
                code,
                severity: code.default_severity(),
                path: path(),
                message,
                note,
            });
        };

        // SA200 — operator arity.
        let (min, max) = arity_of(&node.op);
        if n < min || n > max {
            let expected = match (min, max) {
                (lo, usize::MAX) => format!("at least {lo}"),
                (lo, hi) if lo == hi => format!("exactly {lo}"),
                (lo, hi) => format!("{lo}..{hi}"),
            };
            emit(
                Code::PlanOperatorArity,
                format!("{} has {n} child(ren), expected {expected}", node.op.name()),
                None,
            );
            // Schema derivation below would only cascade noise.
            return;
        }

        // SA201 — schema (variable-track) agreement across the edge.
        if let Some(expected) = derived_vars(&node.op, &node.children) {
            let mut declared: Vec<&str> = node.vars.iter().map(String::as_str).collect();
            declared.sort_unstable();
            declared.dedup();
            if declared != expected {
                emit(
                    Code::PlanTrackMismatch,
                    format!(
                        "{} declares tracks [{}] but its children derive [{}]",
                        node.op.name(),
                        node.vars.join(", "),
                        expected.join(", ")
                    ),
                    None,
                );
            }
        }

        // Per-operator checks.
        match &node.op {
            PlanOp::CompileAutomaton { alphabet_fp, .. } => {
                if self.strategy != Strategy::Automata {
                    emit(
                        Code::PlanStrategyMismatch,
                        format!(
                            "CompileAutomaton leaf under the {} strategy",
                            self.strategy.name()
                        ),
                        None,
                    );
                }
                if *alphabet_fp != self.alphabet_fp {
                    emit(
                        Code::PlanAlphabetMismatch,
                        "leaf was lowered against a different alphabet than the plan \
                         executes under"
                            .into(),
                        None,
                    );
                }
            }
            PlanOp::Interpret { .. } if self.strategy == Strategy::Automata => {
                emit(
                    Code::PlanStrategyMismatch,
                    "Interpret leaf under the automata strategy".into(),
                    None,
                );
            }
            PlanOp::Generate { .. } | PlanOp::Relational
                if self.strategy != Strategy::ActiveDomainEnum
                    && !(self.strategy == Strategy::BoundedSearch
                        && matches!(node.op, PlanOp::Generate { .. })) =>
            {
                emit(
                    Code::PlanStrategyMismatch,
                    format!(
                        "{} node under the {} strategy",
                        node.op.name(),
                        self.strategy.name()
                    ),
                    Some(
                        "a compiled program runs only under active-domain-enum (a \
                         Relational root) and bounded-search"
                            .into(),
                    ),
                );
            }
            PlanOp::CacheLookup { formula_fp } => {
                if !self.cache_attached {
                    emit(
                        Code::PlanCacheKeyMismatch,
                        "CacheLookup node but no shared cache is attached".into(),
                        None,
                    );
                }
                if *formula_fp != self.sheet.fingerprint {
                    emit(
                        Code::PlanCacheKeyMismatch,
                        "CacheLookup key fingerprint does not match the plan's formula".into(),
                        Some(
                            "a stale lookup key could serve another query's compiled \
                             artifact"
                                .into(),
                        ),
                    );
                }
            }
            PlanOp::LikeScan { plan } => {
                if self.strategy != Strategy::LikeLinearScan {
                    emit(
                        Code::PlanStrategyMismatch,
                        format!("LikeScan node under the {} strategy", self.strategy.name()),
                        None,
                    );
                }
                // SA305 — the scan plan must be exactly the one in the
                // formula's fact sheet; a node grafted from another plan
                // (or left stale by a rewrite) would scan the wrong
                // relation or columns.
                match self.sheet.class.scan() {
                    Some(expected) if expected == plan => {}
                    Some(_) => emit(
                        Code::PlanFragmentMismatch,
                        "LikeScan carries a stale scan plan: fragment inference derives \
                         a different plan from the formula"
                            .into(),
                        Some(
                            "a stale scan plan could stream the wrong relation or apply \
                             filters to the wrong columns"
                                .into(),
                        ),
                    ),
                    None => emit(
                        Code::PlanFragmentMismatch,
                        "LikeScan node but the formula is outside the linear LIKE class".into(),
                        None,
                    ),
                }
            }
            PlanOp::DenseScan { plan, threshold } => {
                if self.strategy != Strategy::DenseDfaScan {
                    emit(
                        Code::PlanStrategyMismatch,
                        format!("DenseScan node under the {} strategy", self.strategy.name()),
                        None,
                    );
                }
                // SA305 — as for LikeScan, the scan plan must be exactly
                // the fact sheet's, and it must carry at least one
                // general filter (a dense node with none would be a
                // LikeScan wearing the wrong certificate).
                match self.sheet.class.scan() {
                    Some(expected) if expected == plan && !plan.dense_filters.is_empty() => {}
                    Some(expected) if expected == plan => emit(
                        Code::PlanFragmentMismatch,
                        "DenseScan node but the formula's filters are all in the linear \
                         LIKE class"
                            .into(),
                        Some("linear filters scan tuple-at-a-time; nothing to densify".into()),
                    ),
                    Some(_) => emit(
                        Code::PlanFragmentMismatch,
                        "DenseScan carries a stale scan plan: fragment inference derives \
                         a different plan from the formula"
                            .into(),
                        Some(
                            "a stale scan plan could stream the wrong relation or apply \
                             filters to the wrong columns"
                                .into(),
                        ),
                    ),
                    None => emit(
                        Code::PlanFragmentMismatch,
                        "DenseScan node but the formula admits no scan plan".into(),
                        None,
                    ),
                }
                // SA206 — the node's threshold must be the planner's
                // constant one, and the certified state bound of the
                // dense tables must fit under it; otherwise the planner
                // should have routed the formula to the automata strategy.
                if *threshold != DENSIFY_THRESHOLD {
                    emit(
                        Code::PlanDenseOverThreshold,
                        format!(
                            "DenseScan certifies against threshold {threshold} but the \
                             densification threshold is {DENSIFY_THRESHOLD}"
                        ),
                        None,
                    );
                }
                let bound = dense_scan_states(plan, &self.sheet.langs);
                if bound > *threshold {
                    emit(
                        Code::PlanDenseOverThreshold,
                        format!(
                            "dense-scan certified state bound {bound} exceeds the \
                             densification threshold {threshold}"
                        ),
                        Some(
                            "a table this large must fall back to the automata strategy; \
                             densifying it would blow the byte certificate"
                                .into(),
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    /// Root-only checks: root operator and tracks versus the declared
    /// strategy and head.
    fn check_root(&self, root: &PlanNode, diagnostics: &mut Vec<Diagnostic>) {
        // SA305 — strategy versus the fact sheet's fragment: a concat
        // formula admits only bounded search (Proposition 1), whatever
        // the plan claims.
        if self.sheet.contains_concat() && self.strategy != Strategy::BoundedSearch {
            diagnostics.push(Diagnostic {
                code: Code::PlanFragmentMismatch,
                severity: Code::PlanFragmentMismatch.default_severity(),
                path: FormulaPath::root(),
                message: format!(
                    "the formula is in the concat-bounded fragment but the plan declares \
                     strategy {}",
                    self.strategy.name()
                ),
                note: Some(
                    "concatenation queries admit only bounded search (Proposition 1)".into(),
                ),
            });
        }
        let root_ok = matches!(
            (&root.op, self.strategy),
            (PlanOp::EnumerateFinite, Strategy::Automata)
                | (PlanOp::EnumerateFinite, Strategy::ActiveDomainEnum)
                | (PlanOp::Relational, Strategy::ActiveDomainEnum)
                | (PlanOp::BoundedSearch { .. }, Strategy::BoundedSearch)
                | (PlanOp::LikeScan { .. }, Strategy::LikeLinearScan)
                | (PlanOp::DenseScan { .. }, Strategy::DenseDfaScan)
        );
        if !root_ok {
            diagnostics.push(Diagnostic {
                code: Code::PlanStrategyMismatch,
                severity: Code::PlanStrategyMismatch.default_severity(),
                path: FormulaPath::root(),
                message: format!(
                    "root operator {} does not implement strategy {}",
                    root.op.name(),
                    self.strategy.name()
                ),
                note: None,
            });
        }
        let declared: BTreeSet<&String> = root.vars.iter().collect();
        let head: BTreeSet<&String> = self.head.iter().collect();
        if declared != head {
            diagnostics.push(Diagnostic {
                code: Code::PlanTrackMismatch,
                severity: Code::PlanTrackMismatch.default_severity(),
                path: FormulaPath::root(),
                message: format!(
                    "plan root tracks [{}] differ from the query head [{}]",
                    root.vars.join(", "),
                    self.head.iter().cloned().collect::<Vec<_>>().join(", ")
                ),
                note: None,
            });
        }
    }

    /// The abstract transfer function: this node's certificate from its
    /// children's. Only the automata strategy builds automata; the
    /// interpreter strategies certify zero. The dense-scan strategy
    /// certifies the dense-table bound of the fact sheet's scan plan at
    /// every node.
    fn node_cert(&self, node: &PlanNode, children: &[ResourceCert]) -> ResourceCert {
        if self.strategy == Strategy::DenseDfaScan {
            return self
                .sheet
                .class
                .scan()
                .map(|p| dense_scan_cert(p, &self.sheet.langs))
                .unwrap_or(ResourceCert::ZERO);
        }
        if self.strategy != Strategy::Automata {
            return ResourceCert::ZERO;
        }
        let (k, tracks) = (self.sheet.langs.k(), node.vars.len());
        match &node.op {
            PlanOp::CompileAutomaton { .. } => node.cert.unwrap_or_else(|| {
                // Hand-built leaf without a seed: fall back to the cost
                // estimate, rounded up.
                let hi = 2f64.powf(node.cost.log2_states.min(63.0)).ceil() as u64;
                ResourceCert::from_states(hi.max(1), k, tracks)
            }),
            PlanOp::Interpret { .. } | PlanOp::Generate { .. } => ResourceCert::ZERO,
            PlanOp::Product => ResourceCert::product(children, k, tracks),
            PlanOp::Union => ResourceCert::union(children, k, tracks),
            PlanOp::Complement => match children.first() {
                Some(c) => ResourceCert::complement(c, k, tracks),
                None => ResourceCert::ZERO,
            },
            PlanOp::Project { .. }
            | PlanOp::RestrictQuantifiers { .. }
            | PlanOp::EnumerateFinite
            | PlanOp::Relational
            | PlanOp::BoundedSearch { .. }
            | PlanOp::CacheLookup { .. }
            | PlanOp::LikeScan { .. }
            | PlanOp::DenseScan { .. } => match children.first() {
                Some(c) => ResourceCert::passthrough(c, k, tracks),
                None => ResourceCert::ZERO,
            },
        }
    }
}

/// `(min, max)` child counts per operator.
fn arity_of(op: &PlanOp) -> (usize, usize) {
    match op {
        PlanOp::CompileAutomaton { .. } | PlanOp::Interpret { .. } | PlanOp::Generate { .. } => {
            (0, 0)
        }
        PlanOp::Product => (2, usize::MAX),
        PlanOp::Union => (2, 2),
        PlanOp::Complement
        | PlanOp::Project { .. }
        | PlanOp::RestrictQuantifiers { .. }
        | PlanOp::EnumerateFinite
        | PlanOp::Relational
        | PlanOp::BoundedSearch { .. }
        | PlanOp::CacheLookup { .. }
        | PlanOp::LikeScan { .. }
        | PlanOp::DenseScan { .. } => (1, 1),
    }
}

/// Child certificates are buffered on the stack up to this width;
/// beyond it (an unusually wide flat product) they spill to the heap.
const INLINE_CHILDREN: usize = 4;

/// The tree a verification walks: a finished plan's, read only, or the
/// planner's own, into whose nodes the walk writes their certificates.
pub(crate) enum Tree<'a> {
    Read(&'a PlanNode),
    Write(&'a mut PlanNode),
}

impl Tree<'_> {
    fn node(&self) -> &PlanNode {
        match self {
            Tree::Read(node) => node,
            Tree::Write(node) => node,
        }
    }

    fn child(&mut self, i: usize) -> Tree<'_> {
        match self {
            Tree::Read(node) => Tree::Read(&node.children[i]),
            Tree::Write(node) => Tree::Write(&mut node.children[i]),
        }
    }
}

/// The sorted, deduplicated track set an operator derives from its
/// children, or `None` for leaves (their tracks are seeded from the
/// formula and trusted). Borrows the children's strings — the verifier
/// runs on every plan built, so the clean path avoids cloning.
fn derived_vars<'a>(op: &PlanOp, children: &'a [PlanNode]) -> Option<Vec<&'a str>> {
    let union = || {
        let mut vars: Vec<&str> = children
            .iter()
            .flat_map(|c| c.vars.iter().map(String::as_str))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    };
    match op {
        PlanOp::CompileAutomaton { .. } | PlanOp::Interpret { .. } | PlanOp::Generate { .. } => {
            None
        }
        PlanOp::Product | PlanOp::Union => Some(union()),
        PlanOp::Project { var } => {
            let mut vars = union();
            vars.retain(|v| *v != var.as_str());
            Some(vars)
        }
        PlanOp::RestrictQuantifiers { var, .. } => {
            let mut vars = union();
            if let Some(w) = var {
                vars.retain(|v| *v != w.as_str());
            }
            Some(vars)
        }
        PlanOp::Complement
        | PlanOp::EnumerateFinite
        | PlanOp::Relational
        | PlanOp::BoundedSearch { .. }
        | PlanOp::CacheLookup { .. }
        | PlanOp::LikeScan { .. }
        | PlanOp::DenseScan { .. } => Some(union()),
    }
}

/// SA201 on the relational route: walks the tree in execution order —
/// a `Product`'s children left to right — with `bound` the variables
/// bound so far. A `Generate` leaf binds its variable; a filter
/// (`Interpret`, `Complement`) must read only bound variables; `Project`
/// and a restricted quantifier hide their variable from the enclosing
/// binding; each `Union` branch must bind all of the union's variables.
fn check_bindings(
    node: &PlanNode,
    bound: &mut BTreeSet<String>,
    stack: &mut Vec<usize>,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let unbound = |b: &BTreeSet<String>| -> Vec<String> {
        node.vars
            .iter()
            .filter(|v| !b.contains(*v))
            .cloned()
            .collect()
    };
    match &node.op {
        PlanOp::Generate { var, .. } => {
            bound.insert(var.clone());
        }
        PlanOp::Interpret { .. } | PlanOp::Complement => {
            let missing = unbound(bound);
            if !missing.is_empty() {
                unbound_diagnostic(
                    stack,
                    format!(
                        "{} reads [{}] before a Generate binds it",
                        node.op.name(),
                        missing.join(", ")
                    ),
                    diagnostics,
                );
            }
            bind_children(node, &mut bound.clone(), stack, diagnostics);
        }
        PlanOp::Project { var } | PlanOp::RestrictQuantifiers { var: Some(var), .. } => {
            let mut inner = bound.clone();
            inner.remove(var);
            bind_children(node, &mut inner, stack, diagnostics);
            bound.extend(node.vars.iter().cloned());
        }
        PlanOp::Union => {
            for (i, c) in node.children.iter().enumerate() {
                let mut branch = bound.clone();
                stack.push(i);
                check_bindings(c, &mut branch, stack, diagnostics);
                let missing = unbound(&branch);
                if !missing.is_empty() {
                    unbound_diagnostic(
                        stack,
                        format!("Union branch leaves [{}] unbound", missing.join(", ")),
                        diagnostics,
                    );
                }
                stack.pop();
            }
            bound.extend(node.vars.iter().cloned());
        }
        _ => bind_children(node, bound, stack, diagnostics),
    }
}

/// [`check_bindings`] over `node`'s children in order, sharing `bound`.
fn bind_children(
    node: &PlanNode,
    bound: &mut BTreeSet<String>,
    stack: &mut Vec<usize>,
    diagnostics: &mut Vec<Diagnostic>,
) {
    for (i, c) in node.children.iter().enumerate() {
        stack.push(i);
        check_bindings(c, bound, stack, diagnostics);
        stack.pop();
    }
}

fn unbound_diagnostic(stack: &[usize], message: String, diagnostics: &mut Vec<Diagnostic>) {
    diagnostics.push(Diagnostic {
        code: Code::PlanTrackMismatch,
        severity: Code::PlanTrackMismatch.default_severity(),
        path: FormulaPath(stack.iter().map(|&i| PathSeg::PlanChild(i)).collect()),
        message,
        note: Some(
            "on the relational route a filter runs on values its generators already \
             bound; an unbound variable has no finite range to test"
                .into(),
        ),
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::query::{Calculus, Query};

    fn probe() -> Plan {
        let q = Query::parse(
            Calculus::S,
            Alphabet::ab(),
            vec!["x".into()],
            "exists y. (U(y) & x <= y)",
        )
        .unwrap();
        Planner::new().force(Strategy::Automata).plan(&q).unwrap()
    }

    #[test]
    fn planner_output_is_clean_and_certified() {
        let plan = probe();
        let report = PlanChecker::for_plan(&plan).check(&plan.root);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        let cert = plan.certificate().expect("automata plans are certified");
        assert!(cert.states > 0);
        assert!(cert.bytes > cert.states);
        // Every node is annotated.
        plan.root.visit(&mut |n| assert!(n.cert.is_some()));
        // The SA210 note carries the certificate summary.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::PlanCertificate));
    }

    #[test]
    fn sa240_calibration_fires_when_actuals_exceed_certificate() {
        use strcalc_relational::Database;
        let mut plan = probe();
        // Forge an absurdly tight certificate: one state, one byte.
        let tiny = ResourceCert {
            states: 1,
            bytes: 1,
        };
        plan.root.cert = Some(tiny);
        let mut db = Database::new();
        db.insert_unary_parsed(&Alphabet::ab(), "U", &["ab", "ba", "a"])
            .unwrap();
        let (_, report) = plan.execute(&db).unwrap();
        assert!(
            report
                .cert_violations
                .iter()
                .any(|v| v.contains("SA240") && v.contains("states")),
            "expected an SA240 state calibration warning, got {:?}",
            report.cert_violations
        );
        assert!(report
            .cert_violations
            .iter()
            .any(|v| v.contains("SA240") && v.contains("bytes")));
    }

    #[test]
    fn stale_scan_plans_are_rejected_with_sa305() {
        let plan_for = |re: &str| {
            let q = Query::parse(
                Calculus::SReg,
                Alphabet::ab(),
                vec!["x".into()],
                &format!("U(x) & in(x, /{re}/)"),
            )
            .unwrap();
            Planner::new().plan(&q).unwrap()
        };
        let a = plan_for("a.*");
        let b = plan_for("b.*");
        assert_eq!(a.strategy, Strategy::LikeLinearScan);
        // Graft the other query's scan plan onto this plan's root: the
        // checker reads the scan from the formula's fact sheet and
        // refuses.
        let mut forged = a.clone();
        forged.root.op = b.root.op.clone();
        let report = PlanChecker::for_plan(&forged).check(&forged.root);
        assert!(
            report.error_codes().contains(&Code::PlanFragmentMismatch),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn concat_formula_under_a_non_search_strategy_is_sa305() {
        use strcalc_logic::parse_formula;
        let formula = parse_formula(&Alphabet::ab(), "exists z. concat(x, x, z)").unwrap();
        let plan = Planner::new()
            .plan_formula(&Alphabet::ab(), &["x".to_string()], &formula)
            .unwrap();
        let mut forged = plan.clone();
        forged.strategy = Strategy::Automata;
        let report = PlanChecker::for_plan(&forged).check(&forged.root);
        assert!(
            report.error_codes().contains(&Code::PlanFragmentMismatch),
            "{:?}",
            report.diagnostics
        );
    }
}
