//! The pass manager: rewrite → restrict → fuse-adjacent-products →
//! cache-assignment, each leaving a [`PassTrace`] on the plan.

use strcalc_logic::transform::{fragment, simplify};
use strcalc_logic::Formula;

use crate::collapse::natural_restriction;
use crate::query::Query;

use super::ir::{PlanNode, PlanOp, PlanSource, Strategy};

/// What one planning pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTrace {
    /// Stable pass name (`rewrite`, `restrict`, `fuse-products`,
    /// `cache-assignment`).
    pub pass: String,
    /// Whether the pass changed the plan.
    pub changed: bool,
    /// Whether planlint re-verified the plan after this pass ran (set
    /// by the pass manager's verify step; a built `Plan` always has
    /// every trace verified, since verification failure rejects it).
    pub verified: bool,
    /// Human-readable note on what happened.
    pub detail: String,
}

impl PassTrace {
    fn new(pass: &'static str, changed: bool, detail: impl Into<String>) -> PassTrace {
        PassTrace {
            pass: pass.to_string(),
            changed,
            verified: false,
            detail: detail.into(),
        }
    }
}

/// Pass 1 — rewrite: light constant folding via `simplify`, accepted
/// only when it provably stays in-fragment. The guard mirrors
/// `sqlfront`'s verified-rewrite gate: the rewritten formula must keep
/// the same free variables, and (for a typed query) must still validate
/// against the declared calculus. A rejected rewrite leaves the source
/// untouched and records why.
pub(super) fn rewrite(source: PlanSource) -> (PlanSource, PassTrace) {
    const PASS: &str = "rewrite";
    let formula = match &source {
        PlanSource::Query(q) => &q.formula,
        PlanSource::Raw { formula, .. } => formula,
    };
    let simplified = simplify(formula);
    if simplified == *formula {
        return (source, PassTrace::new(PASS, false, "simplify is identity"));
    }
    if simplified.free_vars() != formula.free_vars() {
        return (
            source,
            PassTrace::new(PASS, false, "rejected: rewrite changes the free variables"),
        );
    }
    match source {
        PlanSource::Query(ref q) => {
            match Query::new(q.calculus, q.alphabet.clone(), q.head.clone(), simplified) {
                Ok(rewritten) => (
                    PlanSource::Query(rewritten),
                    PassTrace::new(PASS, true, "simplified constant subformulas"),
                ),
                Err(_) => (
                    source,
                    PassTrace::new(
                        PASS,
                        false,
                        "rejected: rewrite leaves the declared calculus",
                    ),
                ),
            }
        }
        PlanSource::Raw {
            alphabet,
            head,
            formula,
        } => {
            // The concat fragment has no declared calculus to violate,
            // but the rewrite must still parse as *some* fragment.
            let k = alphabet.len() as u8;
            if fragment(&simplified, k, 1_000_000).is_err() {
                return (
                    PlanSource::Raw {
                        alphabet,
                        head,
                        formula,
                    },
                    PassTrace::new(PASS, false, "rejected: rewrite fails fragment inference"),
                );
            }
            (
                PlanSource::Raw {
                    alphabet,
                    head,
                    formula: simplified,
                },
                PassTrace::new(PASS, true, "simplified constant subformulas"),
            )
        }
    }
}

/// Pass 2 — restrict: for the enumeration strategy, wraps the tree in a
/// `RestrictQuantifiers` node pinning every unrestricted quantifier (and
/// the output search) to the calculus's natural collapse domain. The
/// relational route needs no restriction — each variable ranges over what
/// its generator yields — and the other strategies keep their native
/// quantifier semantics.
pub(super) fn restrict(
    node: PlanNode,
    strategy: Strategy,
    relational: bool,
    source: &PlanSource,
    slack: Option<usize>,
) -> (PlanNode, PassTrace) {
    const PASS: &str = "restrict";
    match (strategy, source) {
        (Strategy::BoundedSearch, _) => (
            node,
            PassTrace::new(
                PASS,
                false,
                "quantifiers already bounded by the search root",
            ),
        ),
        _ if relational => (
            node,
            PassTrace::new(
                PASS,
                false,
                "every variable is bound by the atom that range-restricts it",
            ),
        ),
        (Strategy::ActiveDomainEnum, PlanSource::Query(q)) => {
            let r = natural_restriction(q.calculus);
            let slack_note = match slack {
                Some(s) => format!("slack {s}"),
                None => "slack = quantifier rank + 1".to_string(),
            };
            let wrapped = node.wrap(PlanOp::RestrictQuantifiers {
                var: None,
                restrict: r,
            });
            (
                wrapped,
                PassTrace::new(
                    PASS,
                    true,
                    format!("quantifiers restricted to the collapse domain ({slack_note})"),
                ),
            )
        }
        (Strategy::LikeLinearScan | Strategy::DenseDfaScan, _) => (
            node,
            PassTrace::new(
                PASS,
                false,
                "scan plan binds every variable to stored tuples",
            ),
        ),
        _ => (
            node,
            PassTrace::new(PASS, false, "exact semantics: quantifiers range over Σ*"),
        ),
    }
}

/// Pass 3 — fuse-adjacent-products: flattens `Product(Product(a,b),c)`
/// into one n-ary `Product(a,b,c)`, mirroring the compiler's conjunct-
/// chain flattening (which joins the factors greedily smallest-first).
pub(super) fn fuse_products(mut node: PlanNode) -> (PlanNode, PassTrace) {
    const PASS: &str = "fuse-products";
    let mut fused = 0usize;
    fuse_rec(&mut node, &mut fused);
    let trace = if fused > 0 {
        PassTrace::new(PASS, true, format!("fused {fused} adjacent product(s)"))
    } else {
        PassTrace::new(PASS, false, "no adjacent products")
    };
    (node, trace)
}

fn fuse_rec(node: &mut PlanNode, fused: &mut usize) {
    for c in &mut node.children {
        fuse_rec(c, fused);
    }
    if node.op == PlanOp::Product {
        let mut flat: Vec<PlanNode> = Vec::with_capacity(node.children.len());
        for c in node.children.drain(..) {
            if c.op == PlanOp::Product {
                *fused += 1;
                flat.extend(c.children);
            } else {
                flat.push(c);
            }
        }
        node.children = flat;
    }
}

/// Pass 4 — cache-assignment: when the automata strategy runs with a
/// shared [`crate::cache::AutomatonCache`] attached, the compile subtree
/// is served through a `CacheLookup` node.
pub(super) fn cache_assignment(
    node: PlanNode,
    strategy: Strategy,
    cache_attached: bool,
    formula_fp: u64,
) -> (PlanNode, PassTrace) {
    const PASS: &str = "cache-assignment";
    match strategy {
        Strategy::Automata if cache_attached => (
            node.wrap(PlanOp::CacheLookup { formula_fp }),
            PassTrace::new(PASS, true, "compiled artifact served via the shared cache"),
        ),
        Strategy::Automata => (node, PassTrace::new(PASS, false, "no cache attached")),
        _ => (
            node,
            PassTrace::new(PASS, false, "not applicable to this strategy"),
        ),
    }
}

/// Shared helper for the rewrite guard: does `f` still mention exactly
/// the variables in `head` freely? (Used by `Planner::plan_formula` for
/// the raw-concat entry, where no `Query` validates the head.)
pub(super) fn head_matches(head: &[String], f: &Formula) -> bool {
    let mut sorted: Vec<String> = head.to_vec();
    sorted.sort();
    sorted.dedup();
    let free: Vec<String> = f.free_vars().into_iter().collect();
    sorted == free && sorted.len() == head.len()
}
