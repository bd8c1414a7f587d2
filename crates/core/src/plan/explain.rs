//! Stable `EXPLAIN` renderings of a [`Plan`]: an indented text tree and
//! a [`Json`] document, both with
//! per-node cost estimates, per-node resource certificates from
//! planlint's abstract interpretation, and optional post-execution
//! actuals.

use std::fmt::Write as _;

use strcalc_analyze::planlint::ResourceCert;
use strcalc_logic::Restrict;

use crate::budget::{Budget, UNLIMITED};
use crate::json::Json;
use crate::trace::calculus_name;

use super::exec::ExecReport;
use super::ir::{Plan, PlanNode, PlanOp};

/// The name a plan gives a restricted quantifier's range.
pub(crate) fn restrict_name(r: Restrict) -> &'static str {
    match r {
        Restrict::Active => "adom",
        Restrict::PrefixDom => "dom↓",
        Restrict::LengthDom => "len≤adom",
    }
}

/// The operator with its operands, e.g. `Project y` or
/// `BoundedSearch (budget 4)`.
fn op_label(op: &PlanOp) -> String {
    match op {
        PlanOp::CompileAutomaton { label, .. } => format!("CompileAutomaton {label}"),
        PlanOp::Interpret { label } => format!("Interpret {label}"),
        PlanOp::Generate { var, label } => format!("Generate {var} ← {label}"),
        PlanOp::Product => "Product".to_string(),
        PlanOp::Union => "Union".to_string(),
        PlanOp::Complement => "Complement".to_string(),
        PlanOp::Project { var } => format!("Project {var}"),
        PlanOp::RestrictQuantifiers { var, restrict } => match var {
            Some(v) => format!("RestrictQuantifiers {v} ∈ {}", restrict_name(*restrict)),
            None => format!("RestrictQuantifiers * ∈ {}", restrict_name(*restrict)),
        },
        PlanOp::EnumerateFinite => "EnumerateFinite".to_string(),
        PlanOp::BoundedSearch { budget } => format!("BoundedSearch (budget {budget})"),
        PlanOp::Relational => "Relational".to_string(),
        PlanOp::CacheLookup { .. } => "CacheLookup".to_string(),
        PlanOp::LikeScan { plan } => format!("LikeScan {}", plan.summary()),
        PlanOp::DenseScan { plan, threshold } => {
            format!("DenseScan {} (threshold {threshold})", plan.summary())
        }
    }
}

/// `[cert states ≤8, bytes ≤2^12]` for a certified node; empty for
/// interpreter nodes (whose certificate is all-zero — they build no
/// automata) and unverified trees.
fn cert_suffix(cert: Option<&ResourceCert>) -> String {
    match cert {
        Some(c) if !c.is_zero() => format!(" [cert {}]", c.summary()),
        _ => String::new(),
    }
}

fn render_node(out: &mut String, node: &PlanNode, prefix: &str, connector: &str, cont: &str) {
    let _ = writeln!(
        out,
        "{prefix}{connector}{} [est 2^{:.1}]{}",
        op_label(&node.op),
        node.cost.log2_states,
        cert_suffix(node.cert.as_ref())
    );
    let child_prefix = format!("{prefix}{cont}");
    let last = node.children.len().saturating_sub(1);
    for (i, c) in node.children.iter().enumerate() {
        if i == last {
            render_node(out, c, &child_prefix, "└─ ", "   ");
        } else {
            render_node(out, c, &child_prefix, "├─ ", "│  ");
        }
    }
}

fn cert_json(cert: &ResourceCert) -> Json {
    Json::obj([("states", cert.states.into()), ("bytes", cert.bytes.into())])
}

/// Unlimited dimensions render as `null` (stable across integer-width
/// JSON readers; `u64::MAX` would silently round in an f64 parser).
fn budget_dim(v: u64) -> Json {
    Json::from((v != UNLIMITED).then_some(v))
}

fn budget_json(b: &Budget) -> Json {
    Json::obj([
        ("states", budget_dim(b.states)),
        ("bytes", budget_dim(b.bytes)),
        ("wall_time_ms", budget_dim(b.wall_time_ms)),
        (
            "search_depth",
            Json::from((b.search_depth != usize::MAX).then_some(b.search_depth)),
        ),
        ("policy", b.degradation_policy.name().into()),
    ])
}

fn node_json(node: &PlanNode) -> Json {
    let mut fields = vec![
        ("op", node.op.name().into()),
        ("label", op_label(&node.op).into()),
        ("est_log2_states", Json::fixed(node.cost.log2_states, 1)),
    ];
    if let Some(cert) = node.cert.as_ref().filter(|c| !c.is_zero()) {
        fields.push(("cert", cert_json(cert)));
    }
    fields.push((
        "children",
        Json::Arr(node.children.iter().map(node_json).collect()),
    ));
    Json::obj(fields)
}

impl Plan {
    /// The stable text rendering (the `EXPLAIN` golden files pin it).
    pub fn explain_text(&self) -> String {
        self.explain_text_with(None)
    }

    /// Text rendering with post-execution actuals appended.
    pub fn explain_text_with(&self, actuals: Option<&ExecReport>) -> String {
        let mut out = String::new();
        let sigma = self.alphabet();
        let calculus = calculus_name(self.calculus());
        let _ = writeln!(
            out,
            "query: {calculus} | head [{}] | {}",
            self.head().join(", "),
            self.formula().render(sigma)
        );
        let _ = writeln!(out, "strategy: {}", self.strategy.name());
        let class = &self.sheet().class;
        let _ = writeln!(
            out,
            "fragment: {} — {}",
            class.name(),
            class.justification()
        );
        let passes: Vec<String> = self
            .passes
            .iter()
            .map(|p| {
                let changed = if p.changed { "changed" } else { "no-op" };
                format!("{} {changed} — {}", p.pass, p.detail)
            })
            .collect();
        let _ = writeln!(out, "passes: {}", passes.join("; "));
        let _ = writeln!(out, "estimate: {}", self.estimate.summary());
        if let Some(cert) = self.root.cert.filter(|c| !c.is_zero()) {
            let _ = writeln!(out, "certificate: {}", cert.summary());
        }
        let _ = writeln!(out, "budget: {}", self.budget.summary());
        let _ = writeln!(out, "plan:");
        render_node(&mut out, &self.root, "  ", "", "");
        if let Some(r) = actuals {
            let _ = writeln!(out, "actuals: {}", r.summary());
        }
        out
    }

    /// The JSON rendering (single line, stable key order).
    pub fn explain_json(&self) -> String {
        self.explain_doc(None).to_string()
    }

    /// The `EXPLAIN` document, with post-execution actuals as an extra
    /// object.
    pub fn explain_doc(&self, actuals: Option<&ExecReport>) -> Json {
        let class = &self.sheet().class;
        let mut fields = vec![
            ("strategy", self.strategy.name().into()),
            (
                "fragment",
                Json::obj([
                    ("class", class.name().into()),
                    ("justification", class.justification().into()),
                ]),
            ),
            ("calculus", calculus_name(self.calculus()).into()),
            ("head", Json::arr(self.head())),
            ("formula", self.formula().render(self.alphabet()).into()),
            ("passes", Json::arr(self.passes.iter().cloned())),
            (
                "estimate",
                Json::obj([
                    ("quantifier_rank", self.estimate.quantifier_rank.into()),
                    ("alternation_depth", self.estimate.alternation_depth.into()),
                    ("log2_states", Json::fixed(self.estimate.log2_states, 1)),
                    ("rel_atoms", self.estimate.rel_atoms.into()),
                    ("lang_atoms", self.estimate.lang_atoms.into()),
                ]),
            ),
            ("plan", node_json(&self.root)),
        ];
        if let Some(cert) = self.root.cert.filter(|c| !c.is_zero()) {
            fields.push(("certificate", cert_json(&cert)));
        }
        fields.push(("budget", budget_json(&self.budget)));
        if let Some(r) = actuals {
            fields.push((
                "actuals",
                Json::obj([
                    ("strategy", r.strategy.name().into()),
                    ("automaton_states", r.automaton_states.into()),
                    ("artifact_bytes", r.artifact_bytes.into()),
                    ("cache_hit", r.cache_hit.into()),
                    ("tuples_enumerated", r.tuples_enumerated.into()),
                    ("domain_size", r.domain_size.into()),
                    ("cert_violations", Json::arr(&r.cert_violations)),
                    ("verdict", r.verdict.render().into()),
                    (
                        "degradations",
                        Json::arr(r.degradations.iter().map(|d| d.render())),
                    ),
                    ("cache_events", Json::arr(r.cache_events.iter().cloned())),
                ]),
            ));
        }
        Json::obj(fields)
    }
}
