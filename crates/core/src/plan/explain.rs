//! Stable `EXPLAIN` renderings of a [`Plan`]: an indented text tree and
//! a hand-rolled JSON document (no serialization dependency), both with
//! per-node cost estimates, per-node resource certificates from
//! planlint's abstract interpretation, and optional post-execution
//! actuals.

use std::fmt::Write as _;

use strcalc_analyze::planlint::ResourceCert;
use strcalc_logic::Restrict;

use crate::budget::{Budget, UNLIMITED};
use crate::json::escape;

use super::exec::ExecReport;
use super::ir::{Plan, PlanNode, PlanOp};

fn restrict_name(r: Restrict) -> &'static str {
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
        PlanOp::Complement { cap } => format!("Complement (cap {cap})"),
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

fn cert_json(cert: &ResourceCert) -> String {
    format!(
        "{{\"states\":[{},{}],\"bytes\":[{},{}]}}",
        cert.states.lo, cert.states.hi, cert.bytes.lo, cert.bytes.hi
    )
}

/// Unlimited dimensions render as `null` (stable across integer-width
/// JSON readers; `u64::MAX` would silently round in an f64 parser).
fn budget_dim(v: u64) -> String {
    if v == UNLIMITED {
        "null".to_string()
    } else {
        v.to_string()
    }
}

fn budget_json(b: &Budget) -> String {
    format!(
        "{{\"states\":{},\"bytes\":{},\"wall_time_ms\":{},\"search_depth\":{},\
         \"policy\":\"{}\"}}",
        budget_dim(b.states),
        budget_dim(b.bytes),
        budget_dim(b.wall_time_ms),
        if b.search_depth == usize::MAX {
            "null".to_string()
        } else {
            b.search_depth.to_string()
        },
        b.degradation_policy.name()
    )
}

fn node_json(out: &mut String, node: &PlanNode) {
    let _ = write!(
        out,
        "{{\"op\":\"{}\",\"label\":\"{}\",\"est_log2_states\":{:.1}",
        node.op.name(),
        escape(&op_label(&node.op)),
        node.cost.log2_states
    );
    if let Some(cert) = node.cert.as_ref().filter(|c| !c.is_zero()) {
        let _ = write!(out, ",\"cert\":{}", cert_json(cert));
    }
    out.push_str(",\"children\":[");
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        node_json(out, c);
    }
    out.push_str("]}");
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
        let calculus = match self.calculus() {
            Some(c) => c.name().to_string(),
            None => "RC_concat".to_string(),
        };
        let _ = writeln!(
            out,
            "query: {calculus} | head [{}] | {}",
            self.head().join(", "),
            self.formula().render(sigma)
        );
        let _ = writeln!(out, "strategy: {}", self.strategy.name());
        let class = strcalc_analyze::fragments::eval_class(self.formula());
        let _ = writeln!(
            out,
            "fragment: {} — {}",
            class.name(),
            class.justification()
        );
        let _ = writeln!(out, "passes:");
        for p in &self.passes {
            let _ = writeln!(
                out,
                "  {:<16} {:<7} {:<10} {}",
                p.pass,
                if p.changed { "changed" } else { "no-op" },
                if p.verified { "verified" } else { "unverified" },
                p.detail
            );
        }
        let _ = writeln!(out, "estimate: {}", self.estimate.summary());
        if let Some(cert) = self.root_cert.filter(|c| !c.is_zero()) {
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
        self.explain_json_with(None)
    }

    /// JSON rendering with post-execution actuals as an extra object.
    pub fn explain_json_with(&self, actuals: Option<&ExecReport>) -> String {
        let mut out = String::from("{");
        let calculus = match self.calculus() {
            Some(c) => c.name().to_string(),
            None => "RC_concat".to_string(),
        };
        let class = strcalc_analyze::fragments::eval_class(self.formula());
        let _ = write!(
            out,
            "\"strategy\":\"{}\",\"fragment\":{{\"class\":\"{}\",\"justification\":\"{}\"}},\
             \"calculus\":\"{}\",\"head\":[",
            self.strategy.name(),
            escape(class.name()),
            escape(&class.justification()),
            escape(&calculus)
        );
        for (i, h) in self.head().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape(h));
        }
        let _ = write!(
            out,
            "],\"formula\":\"{}\",\"passes\":[",
            escape(&self.formula().render(self.alphabet()))
        );
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"pass\":\"{}\",\"changed\":{},\"verified\":{},\"detail\":\"{}\"}}",
                escape(p.pass),
                p.changed,
                p.verified,
                escape(&p.detail)
            );
        }
        let _ = write!(
            out,
            "],\"estimate\":{{\"quantifier_rank\":{},\"alternation_depth\":{},\
             \"log2_states\":{:.1},\"rel_atoms\":{},\"lang_atoms\":{}}},\"plan\":",
            self.estimate.quantifier_rank,
            self.estimate.alternation_depth,
            self.estimate.log2_states,
            self.estimate.rel_atoms,
            self.estimate.lang_atoms
        );
        node_json(&mut out, &self.root);
        if let Some(cert) = self.root_cert.filter(|c| !c.is_zero()) {
            let _ = write!(out, ",\"certificate\":{}", cert_json(&cert));
        }
        let _ = write!(out, ",\"budget\":{}", budget_json(&self.budget));
        if let Some(r) = actuals {
            let _ = write!(
                out,
                ",\"actuals\":{{\"strategy\":\"{}\",\"automaton_states\":{},\
                 \"artifact_bytes\":{},\"cache_hit\":{},\"tuples_enumerated\":{},\
                 \"domain_size\":{},\"cert_violations\":[",
                r.strategy.name(),
                r.automaton_states,
                r.artifact_bytes,
                r.cache_hit,
                r.tuples_enumerated,
                r.domain_size
            );
            for (i, v) in r.cert_violations.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", escape(v));
            }
            let _ = write!(out, "],\"verdict\":\"{}\"", escape(&r.verdict.render()));
            out.push_str(",\"degradations\":[");
            for (i, d) in r.degradations.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", escape(&d.render()));
            }
            out.push_str("],\"cache_events\":[");
            for (i, e) in r.cache_events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"kind\":\"{}\",\"label\":\"{}\",\"hit\":{}}}",
                    e.kind.name(),
                    escape(&e.label),
                    e.hit
                );
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}
