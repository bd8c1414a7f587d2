//! Structured diagnostics: stable `SA0xx` codes, severities, lint
//! levels, and paths into the formula tree.

use std::fmt;

use strcalc_logic::Formula;

/// Stable diagnostic codes. The numeric ranges group the passes:
///
/// | range   | pass                                   |
/// |---------|----------------------------------------|
/// | `SA00x` | signature / fragment checking          |
/// | `SA01x` | range restriction (static safety)      |
/// | `SA02x` | scope hygiene                          |
/// | `SA03x` | cost estimation                        |
/// | `SA10x` | translation validation (strcalc-verify)|
/// | `SA20x` | plan-IR typechecking (planlint)        |
/// | `SA21x` | plan resource certificates             |
/// | `SA24x` | certificate/actuals calibration        |
/// | `SA30x` | fragment inference (lattice + LIKE)    |
/// | `SA40x` | budget governance & structural degradation |
/// | `SA410` | budget reports (informational)         |
/// | `SA411`–`SA41x` | in-flight deadline degradation |
/// | `SA42x` | trace replay                           |
/// | `SA43x` | fault injection                        |
///
/// Codes are append-only: a code's meaning never changes once released,
/// so lint-level configuration stays stable across versions. A retired
/// code's number is never reused: `SA003`, `SA203`, `SA220`, `SA221`,
/// `SA400`, `SA430`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A term or atom requires a structure beyond the declared calculus.
    SignatureExceedsDeclared,
    /// A concatenation atom appears in a tame-calculus query
    /// (`RC_concat` is computationally complete — Proposition 1).
    ConcatInTameCalculus,
    /// A free (head) variable is not range-restricted: the output can be
    /// infinite on some database (static unsafety; Theorems 3 and 7).
    FreeVarNotRangeRestricted,
    /// An existentially quantified variable is not range-restricted
    /// within its scope: the engine must search an unbounded domain.
    QuantifierNotRangeRestricted,
    /// A quantified variable is never used in its body.
    UnusedQuantifiedVar,
    /// A quantifier shadows an enclosing binding or a free variable.
    ShadowedVar,
    /// A quantifier over a constant (`true`/`false`) body.
    VacuousQuantifier,
    /// Informational cost report: quantifier rank, alternation depth and
    /// the product-construction state bound.
    CostReport,
    /// The estimated product-construction state bound exceeds the budget
    /// of 2^20 states.
    StateBoundExceedsBudget,
    /// The translation validator refuted a rewrite step: the pre- and
    /// post-rewrite formulas disagree on a concrete witness assignment.
    RewriteRefuted,
    /// The translation validator could not certify a rewrite step
    /// (equivalence undecidable under the configured budget); bounded
    /// differential checking found no disagreement.
    RewriteUnverified,
    /// Informational report from the verified-rewrite gate: every step
    /// in the rewrite chain was certified `Validated`.
    RewriteValidated,
    /// A plan operator has the wrong number of children (e.g. a unary
    /// `Project` with two children, a `Product` with fewer than two).
    PlanOperatorArity,
    /// Variable tracks (the node's output schema) disagree across a plan
    /// edge: a node's track set is not what its operator derives from
    /// its children's, or the root's tracks differ from the query head.
    PlanTrackMismatch,
    /// A `CompileAutomaton` leaf was lowered against a different
    /// alphabet than the plan executes under.
    PlanAlphabetMismatch,
    /// A `CacheLookup` node's key is inconsistent with the fingerprint
    /// scheme: its formula fingerprint does not match the plan's
    /// formula, or no shared cache is attached to serve it.
    PlanCacheKeyMismatch,
    /// The plan's root operator or leaf kind does not match its declared
    /// strategy (e.g. an `Interpret` leaf under the automata strategy).
    PlanStrategyMismatch,
    /// A dense-scan node's certified DFA state bound exceeds the plan's
    /// densification threshold: the planner promised a cache-resident
    /// table it cannot certify, so the plan is rejected.
    PlanDenseOverThreshold,
    /// Informational: the plan's resource certificate (state/byte upper
    /// bounds from the planlint abstract domain).
    PlanCertificate,
    /// Post-execution calibration: the executor's actuals exceeded the
    /// certified upper bounds, i.e. the cost model's certificate was
    /// unsound for this database.
    ActualsExceedCertificate,
    /// Informational fragment report: the point in the fragment lattice
    /// the formula was inferred into (quantifier-free / safe-range /
    /// collapse-safe / automata-tame / concat-bounded) and the
    /// evaluation class the planner will select from it.
    FragmentReport,
    /// The formula sits in the concat-bounded fragment: a concatenation
    /// atom forces bounded search (`RC_concat` is computationally
    /// complete — Proposition 1), so only the bounded-search strategy
    /// admits it.
    ConcatBoundedFragment,
    /// A LIKE-shaped language atom falls into a linear pattern class
    /// (literal / fixed-length / prefix / suffix / infix /
    /// prefix+suffix): it admits linear-time scanning without automaton
    /// construction.
    LikeLinearClass,
    /// A LIKE-shaped language atom falls into the general pattern class
    /// (three or more literal segments, or `_` mixed with `%`): it
    /// needs the automaton-backed evaluation path.
    LikeGeneralClass,
    /// The star-freeness of an `in`/`pl` language was left undecided
    /// (its transition monoid exceeds
    /// [`MAX_MONOID_CELLS`](strcalc_automata::MAX_MONOID_CELLS)); the
    /// language is typed `S_reg`, which admits every regular language.
    FragmentStarFreeFallback,
    /// The plan's strategy or scan program disagrees with the fragment
    /// the formula's fact sheet records: the plan is stale relative to
    /// the fragment the formula actually inhabits.
    PlanFragmentMismatch,
    /// Structural degradation: a plan node's certificate exceeded the
    /// run's budget, and the exact automata evaluation fell back to a
    /// bounded (collapse-domain) verdict in the
    /// `Validated`/`Refuted`/`Unknown` shape.
    DegradedExactToBounded,
    /// Structural degradation: the dense batched DFA tables exceeded
    /// the run's byte budget and the scan fell back to the sparse
    /// per-tuple DFA walk (same answer, no dense tables held).
    DegradedDenseToSparse,
    /// Structural degradation: the artifact was not resident in the
    /// shared cache and the run's budget denies recompilation, so the
    /// run degraded instead of compiling fresh.
    DegradedRecompileDenied,
    /// Structural degradation: the bounded-search depth was clamped to
    /// the run's `search_depth` capability, shrinking the searched
    /// domain below the plan's declared bound.
    DegradedSearchDepthClamped,
    /// Informational: the budget capability a plan was seeded with
    /// (from the plan's planlint certificate).
    BudgetReport,
    /// Structural degradation: a cooperative deadline fired at a scan
    /// checkpoint and the scan was truncated; the report carries a
    /// rows-seen watermark and a `Bounded` verdict.
    DeadlineScanTruncated,
    /// Structural degradation: a cooperative deadline fired during a
    /// bounded concat search; the search stopped at the checkpoint and
    /// the verdict is `Bounded` (or `Unknown` for boolean runs).
    DeadlineSearchClamped,
    /// Structural degradation: a cooperative deadline fired (or a fault
    /// aborted) before automaton compilation; the run fell back to the
    /// bounded collapse-domain evaluation instead of compiling.
    DeadlineCompileAborted,
    /// Replaying a recorded execution trace diverged from the original
    /// run: the node-by-node diff is non-empty.
    ReplayDivergence,
    /// A deterministic fault-injection point fired (cache-insert
    /// failure, compile abort); the structural
    /// response is recorded so the run replays bit-for-bit.
    FaultInjected,
}

impl Code {
    /// The stable `SA0xx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::SignatureExceedsDeclared => "SA001",
            Code::ConcatInTameCalculus => "SA002",
            Code::FreeVarNotRangeRestricted => "SA010",
            Code::QuantifierNotRangeRestricted => "SA011",
            Code::UnusedQuantifiedVar => "SA020",
            Code::ShadowedVar => "SA021",
            Code::VacuousQuantifier => "SA022",
            Code::CostReport => "SA030",
            Code::StateBoundExceedsBudget => "SA031",
            Code::RewriteRefuted => "SA100",
            Code::RewriteUnverified => "SA101",
            Code::RewriteValidated => "SA102",
            Code::PlanOperatorArity => "SA200",
            Code::PlanTrackMismatch => "SA201",
            Code::PlanAlphabetMismatch => "SA202",
            Code::PlanCacheKeyMismatch => "SA204",
            Code::PlanStrategyMismatch => "SA205",
            Code::PlanDenseOverThreshold => "SA206",
            Code::PlanCertificate => "SA210",
            Code::ActualsExceedCertificate => "SA240",
            Code::FragmentReport => "SA300",
            Code::ConcatBoundedFragment => "SA301",
            Code::LikeLinearClass => "SA302",
            Code::LikeGeneralClass => "SA303",
            Code::FragmentStarFreeFallback => "SA304",
            Code::PlanFragmentMismatch => "SA305",
            Code::DegradedExactToBounded => "SA401",
            Code::DegradedDenseToSparse => "SA402",
            Code::DegradedRecompileDenied => "SA403",
            Code::DegradedSearchDepthClamped => "SA404",
            Code::BudgetReport => "SA410",
            Code::DeadlineScanTruncated => "SA411",
            Code::DeadlineSearchClamped => "SA412",
            Code::DeadlineCompileAborted => "SA413",
            Code::ReplayDivergence => "SA420",
            Code::FaultInjected => "SA431",
        }
    }

    /// Parses an `SA0xx` identifier back into its code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::all().into_iter().find(|c| c.as_str() == s)
    }

    /// Every released code, in numeric order.
    pub fn all() -> Vec<Code> {
        vec![
            Code::SignatureExceedsDeclared,
            Code::ConcatInTameCalculus,
            Code::FreeVarNotRangeRestricted,
            Code::QuantifierNotRangeRestricted,
            Code::UnusedQuantifiedVar,
            Code::ShadowedVar,
            Code::VacuousQuantifier,
            Code::CostReport,
            Code::StateBoundExceedsBudget,
            Code::RewriteRefuted,
            Code::RewriteUnverified,
            Code::RewriteValidated,
            Code::PlanOperatorArity,
            Code::PlanTrackMismatch,
            Code::PlanAlphabetMismatch,
            Code::PlanCacheKeyMismatch,
            Code::PlanStrategyMismatch,
            Code::PlanDenseOverThreshold,
            Code::PlanCertificate,
            Code::ActualsExceedCertificate,
            Code::FragmentReport,
            Code::ConcatBoundedFragment,
            Code::LikeLinearClass,
            Code::LikeGeneralClass,
            Code::FragmentStarFreeFallback,
            Code::PlanFragmentMismatch,
            Code::DegradedExactToBounded,
            Code::DegradedDenseToSparse,
            Code::DegradedRecompileDenied,
            Code::DegradedSearchDepthClamped,
            Code::BudgetReport,
            Code::DeadlineScanTruncated,
            Code::DeadlineSearchClamped,
            Code::DeadlineCompileAborted,
            Code::ReplayDivergence,
            Code::FaultInjected,
        ]
    }

    /// The severity the code carries when its lint level is the default.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::SignatureExceedsDeclared
            | Code::ConcatInTameCalculus
            | Code::RewriteRefuted
            | Code::PlanOperatorArity
            | Code::PlanTrackMismatch
            | Code::PlanAlphabetMismatch
            | Code::PlanCacheKeyMismatch
            | Code::PlanStrategyMismatch
            | Code::PlanDenseOverThreshold
            | Code::PlanFragmentMismatch
            | Code::ReplayDivergence => Severity::Error,
            Code::CostReport
            | Code::RewriteValidated
            | Code::PlanCertificate
            | Code::FragmentReport
            | Code::LikeLinearClass
            | Code::LikeGeneralClass
            | Code::BudgetReport => Severity::Note,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostic severity, ordered `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Per-code lint configuration, mirroring rustc's `allow`/`warn`/`deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LintLevel {
    /// Drop the diagnostic entirely.
    Allow,
    /// Emit at the code's default severity (errors stay errors).
    #[default]
    Warn,
    /// Escalate to an error.
    Deny,
}

impl LintLevel {
    /// The effective severity under this level, or `None` to drop.
    pub fn apply(self, code: Code) -> Option<Severity> {
        match self {
            LintLevel::Allow => None,
            LintLevel::Warn => Some(code.default_severity()),
            LintLevel::Deny => Some(Severity::Error),
        }
    }
}

/// One step from a formula node down to a child.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathSeg {
    NotArg,
    AndLhs,
    AndRhs,
    OrLhs,
    OrRhs,
    ImpliesLhs,
    ImpliesRhs,
    IffLhs,
    IffRhs,
    /// The body of a quantifier, tagged with the bound variable.
    QuantBody(String),
    /// The `i`-th term slot of an atom.
    Term(usize),
    /// The `i`-th child of a plan node (planlint diagnostics address
    /// plan trees with the same path machinery as formula trees).
    PlanChild(usize),
}

impl fmt::Display for PathSeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathSeg::NotArg => f.write_str("not"),
            PathSeg::AndLhs => f.write_str("and.lhs"),
            PathSeg::AndRhs => f.write_str("and.rhs"),
            PathSeg::OrLhs => f.write_str("or.lhs"),
            PathSeg::OrRhs => f.write_str("or.rhs"),
            PathSeg::ImpliesLhs => f.write_str("implies.lhs"),
            PathSeg::ImpliesRhs => f.write_str("implies.rhs"),
            PathSeg::IffLhs => f.write_str("iff.lhs"),
            PathSeg::IffRhs => f.write_str("iff.rhs"),
            PathSeg::QuantBody(v) => write!(f, "quant({v})"),
            PathSeg::Term(i) => write!(f, "term[{i}]"),
            PathSeg::PlanChild(i) => write!(f, "child[{i}]"),
        }
    }
}

/// A path from the formula root to the node a diagnostic is about.
/// Renders as `root` or `root/and.lhs/quant(y)/term[0]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FormulaPath(pub Vec<PathSeg>);

impl FormulaPath {
    pub fn root() -> FormulaPath {
        FormulaPath(Vec::new())
    }

    pub fn child(&self, seg: PathSeg) -> FormulaPath {
        let mut segs = self.0.clone();
        segs.push(seg);
        FormulaPath(segs)
    }

    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Depth of the referenced node below the root.
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

/// The immediate subformulas of `f`, left to right, each with the path
/// segment that leads to it.
pub(crate) fn children(f: &Formula) -> Vec<(PathSeg, &Formula)> {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => Vec::new(),
        Formula::Not(g) => vec![(PathSeg::NotArg, g.as_ref())],
        Formula::And(a, b) => vec![(PathSeg::AndLhs, a.as_ref()), (PathSeg::AndRhs, b.as_ref())],
        Formula::Or(a, b) => vec![(PathSeg::OrLhs, a.as_ref()), (PathSeg::OrRhs, b.as_ref())],
        Formula::Implies(a, b) => vec![
            (PathSeg::ImpliesLhs, a.as_ref()),
            (PathSeg::ImpliesRhs, b.as_ref()),
        ],
        Formula::Iff(a, b) => vec![(PathSeg::IffLhs, a.as_ref()), (PathSeg::IffRhs, b.as_ref())],
        Formula::Exists(v, g)
        | Formula::Forall(v, g)
        | Formula::ExistsR(_, v, g)
        | Formula::ForallR(_, v, g) => vec![(PathSeg::QuantBody(v.clone()), g.as_ref())],
    }
}

impl fmt::Display for FormulaPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("root")?;
        for seg in &self.0 {
            write!(f, "/{seg}")?;
        }
        Ok(())
    }
}

/// A pass-produced finding, before lint-level configuration assigns the
/// effective severity (or drops it).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Finding {
    pub code: Code,
    pub path: FormulaPath,
    pub message: String,
    pub note: Option<String>,
}

impl Finding {
    pub(crate) fn new(code: Code, path: FormulaPath, message: impl Into<String>) -> Finding {
        Finding {
            code,
            path,
            message: message.into(),
            note: None,
        }
    }

    pub(crate) fn with_note(mut self, note: impl Into<String>) -> Finding {
        self.note = Some(note.into());
        self
    }
}

/// A rendered static-analysis diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// Path into the formula tree (the diagnostic's span).
    pub path: FormulaPath,
    /// Human-readable message (already rendered with the alphabet).
    pub message: String,
    /// Optional elaboration, e.g. the paper theorem being cited.
    pub note: Option<String>,
}

impl Diagnostic {
    /// One-or-two-line rendering:
    /// `SA001 error at root/and.lhs: message` (+ indented note).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} {} at {}: {}",
            self.code, self.severity, self.path, self.message
        );
        if let Some(note) = &self.note {
            out.push_str("\n  note: ");
            out.push_str(note);
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for code in Code::all() {
            assert_eq!(Code::parse(code.as_str()), Some(code), "{code}");
        }
        assert_eq!(Code::parse("SA999"), None);
    }

    #[test]
    fn codes_are_unique_and_sorted() {
        let strs: Vec<&str> = Code::all().iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(strs, sorted, "codes must be unique and numerically ordered");
    }

    #[test]
    fn lint_levels() {
        assert_eq!(LintLevel::Allow.apply(Code::CostReport), None);
        assert_eq!(
            LintLevel::Warn.apply(Code::SignatureExceedsDeclared),
            Some(Severity::Error)
        );
        assert_eq!(
            LintLevel::Warn.apply(Code::UnusedQuantifiedVar),
            Some(Severity::Warning)
        );
        assert_eq!(
            LintLevel::Deny.apply(Code::CostReport),
            Some(Severity::Error)
        );
    }

    #[test]
    fn paths_render() {
        let p = FormulaPath::root()
            .child(PathSeg::AndLhs)
            .child(PathSeg::QuantBody("y".into()))
            .child(PathSeg::Term(1));
        assert_eq!(p.to_string(), "root/and.lhs/quant(y)/term[1]");
        assert_eq!(p.depth(), 3);
        assert!(FormulaPath::root().is_root());
    }

    #[test]
    fn diagnostic_renders_note() {
        let d = Diagnostic {
            code: Code::FreeVarNotRangeRestricted,
            severity: Severity::Warning,
            path: FormulaPath::root(),
            message: "free variable x is not range-restricted".into(),
            note: Some("Theorems 3 and 7".into()),
        };
        let r = d.render();
        assert!(r.contains("SA010 warning at root"));
        assert!(r.contains("note: Theorems 3 and 7"));
    }
}
