//! Static analysis for string-calculus queries.
//!
//! `strcalc-analyze` inspects a [`Formula`] *without any database* and
//! produces structured [`Diagnostic`]s with stable `SA0xx` codes, a
//! severity, a path into the formula tree, and a rendered message. Five
//! passes run in sequence:
//!
//! 1. **Signature check** ([`signature`]): infers the minimal structure
//!    (`S` / `S_left` / `S_reg` / `S_len` / concatenation) the query
//!    requires, once, in its [`FactSheet`]; the fragment pass's walk
//!    errors at each atom or term that exceeds the declared calculus
//!    (`SA001`, `SA002`).
//! 2. **Range restriction** ([`saferange`]): a sound under-approximation
//!    of the safe-range fragment; free variables that are not provably
//!    confined to a finite range get `SA010`, unbounded existentials get
//!    `SA011`.
//! 3. **Scope hygiene** ([`scope`]): unused quantified variables
//!    (`SA020`), shadowing (`SA021`), vacuous quantifiers (`SA022`).
//! 4. **Cost estimation** ([`cost`]): quantifier rank, `∃/∀` alternation
//!    depth and a product-construction state bound (`SA030` report,
//!    `SA031` when the bound exceeds 2^20 states).
//! 5. **Fragment inference** ([`fragments`]): places every subformula at
//!    a point in the paper's fragment lattice (quantifier-free /
//!    safe-range / collapse-safe / automata-tame / concat-bounded),
//!    classifies LIKE patterns into linear vs. general classes, and
//!    infers the evaluation class the planner keys its strategy on
//!    (`SA300`–`SA304`; `SA305` belongs to the plan verifier).
//!
//! The passes share their work through the query's [`FactSheet`]: each
//! distinct `in`/`pl` language is compiled to its minimal DFA once per
//! query, and its finiteness and star-freeness are read by every pass
//! and every later stage that needs them; the signature and the
//! evaluation class are inferred once with them. Range restriction is
//! one walk that iterates each flattened `∧` chain to its
//! fixpoint, re-evaluating a conjunct only when another one restricts
//! its free variables, and the fragment pass reads its safe-range
//! verdicts, so analysis time tracks formula size instead of growing
//! exponentially with conjunction nesting.
//!
//! Severities are shaped by per-code [`LintLevel`]s (allow / warn /
//! deny), mirroring a compiler's lint configuration. The analyzer is
//! used standalone (see the `strcalc-analyze` example binary), and by
//! `strcalc_core::Query::analyzed` and the SQL front-end's
//! analyze-then-compile pipeline, which run it over the sheet their
//! query already holds ([`Analyzer::diagnose`]).
//!
//! ```
//! use strcalc_alphabet::Alphabet;
//! use strcalc_analyze::{Analyzer, Code};
//! use strcalc_logic::{parse_formula, StructureClass};
//!
//! let ab = Alphabet::ab();
//! // prepend needs S_left, but the query is declared RC(S):
//! let f = parse_formula(&ab, "y = prepend('a', x)").unwrap();
//! let analysis = Analyzer::new(StructureClass::S).analyze(&ab, &f);
//! assert!(analysis.has_errors());
//! assert!(analysis.diagnostics.iter().any(|d| d.code == Code::SignatureExceedsDeclared));
//! ```

#![deny(clippy::unwrap_used)]

use std::collections::BTreeMap;

use strcalc_alphabet::{Alphabet, Sym};
use strcalc_logic::{Formula, StructureClass};

pub mod cost;
pub mod diag;
pub mod fragments;
pub mod langs;
pub mod planlint;
pub mod saferange;
pub mod scope;
pub mod sheet;
pub mod signature;

pub use cost::CostEstimate;
pub use diag::{Code, Diagnostic, FormulaPath, LintLevel, PathSeg, Severity};
pub use fragments::{EvalClass, FragmentAnalysis, FragmentPoint, LikeMatcher, ScanPlan};
pub use planlint::ResourceCert;
pub use saferange::SafeRangeInfo;
pub use sheet::FactSheet;

/// Configured analyzer. Build one with [`Analyzer::new`], adjust lint
/// levels with [`Analyzer::lint`], then call [`Analyzer::analyze`] (the
/// analyzer is reusable across queries).
#[derive(Debug, Clone)]
pub struct Analyzer {
    declared: StructureClass,
    levels: BTreeMap<Code, LintLevel>,
}

impl Analyzer {
    /// Analyzer for a query declared to live in `declared`, with default
    /// lint levels (everything at [`LintLevel::Warn`]).
    pub fn new(declared: StructureClass) -> Analyzer {
        Analyzer {
            declared,
            levels: BTreeMap::new(),
        }
    }

    /// Sets the lint level for one code.
    pub fn lint(mut self, code: Code, level: LintLevel) -> Analyzer {
        self.levels.insert(code, level);
        self
    }

    fn level(&self, code: Code) -> LintLevel {
        self.levels.get(&code).copied().unwrap_or_default()
    }

    /// Runs all five passes over `f` and returns the aggregated
    /// [`Analysis`]. The alphabet supplies the symbol count for language
    /// compilation; no database is consulted.
    pub fn analyze(&self, alphabet: &Alphabet, f: &Formula) -> Analysis {
        let head: Vec<String> = f.free_vars().into_iter().collect();
        let sheet = FactSheet::build(f, &head, alphabet.len() as Sym);
        self.diagnose(f, &sheet)
    }

    /// [`Analyzer::analyze`] over the fact sheet already built for `f`:
    /// the diagnostic passes read its language table, signature and
    /// evaluation class instead of deriving them again.
    pub fn diagnose(&self, f: &Formula, sheet: &FactSheet) -> Analysis {
        let (safe_range, mut findings, node_safe) = saferange::check(f, &sheet.langs);

        findings.extend(scope::check(f));

        let (cost, cost_findings) = cost::check(f, &sheet.langs);
        findings.extend(cost_findings);

        let (fragment, fragment_findings) =
            fragments::check(f, self.declared, &sheet.langs, &sheet.class, &node_safe);
        findings.extend(fragment_findings);

        let mut diagnostics: Vec<Diagnostic> = findings
            .into_iter()
            .filter_map(|fi| {
                self.level(fi.code)
                    .apply(fi.code)
                    .map(|severity| Diagnostic {
                        code: fi.code,
                        severity,
                        path: fi.path,
                        message: fi.message,
                        note: fi.note,
                    })
            })
            .collect();
        // Most severe first; ties ordered by code, then by position.
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.cmp(&b.code))
                .then(a.path.0.len().cmp(&b.path.0.len()))
        });

        Analysis {
            declared: self.declared,
            inferred: sheet.inferred,
            safe_range,
            cost,
            fragment,
            diagnostics,
        }
    }
}

/// Aggregated result of the five analysis passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// The calculus the query was declared in.
    pub declared: StructureClass,
    /// The minimal structure the formula actually requires.
    pub inferred: StructureClass,
    /// Range-restriction details.
    pub safe_range: SafeRangeInfo,
    /// Cost estimate.
    pub cost: CostEstimate,
    /// Fragment-inference details (lattice points + evaluation class).
    pub fragment: FragmentAnalysis,
    /// All diagnostics after lint-level shaping, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// `true` iff any diagnostic has [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.worst() == Some(Severity::Error)
    }

    /// The highest severity present, if any diagnostics survived lint
    /// configuration.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Diagnostics with a given code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Multi-line report: header plus one entry per diagnostic.
    pub fn render(&self) -> String {
        let mut out = format!(
            "declared RC({}), inferred RC({}); {}\n",
            self.declared.name(),
            self.inferred.name(),
            self.cost.summary()
        );
        if self.diagnostics.is_empty() {
            out.push_str("no diagnostics\n");
        }
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use strcalc_logic::{parse_formula, Term};

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn parse(text: &str) -> Formula {
        parse_formula(&ab(), text).unwrap()
    }

    #[test]
    fn prepend_in_rc_s_is_sa001_error() {
        let f = parse("y = prepend('a', x)");
        let analysis = Analyzer::new(StructureClass::S).analyze(&ab(), &f);
        assert!(analysis.has_errors());
        let d = analysis
            .with_code(Code::SignatureExceedsDeclared)
            .next()
            .expect("SA001 expected");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(analysis.inferred, StructureClass::SLeft);
    }

    #[test]
    fn clean_safe_query_has_only_the_cost_and_fragment_notes() {
        let f = Formula::rel("R", vec![Term::var("x")]);
        let analysis = Analyzer::new(StructureClass::S).analyze(&ab(), &f);
        assert!(!analysis.has_errors());
        let codes: Vec<Code> = analysis.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::CostReport, Code::FragmentReport]);
        assert_eq!(analysis.worst(), Some(Severity::Note));
        assert!(analysis.fragment.root.safe_range);
        assert_eq!(analysis.fragment.class.name(), "automata-tame");
    }

    #[test]
    fn unsafe_query_flagged_sa010() {
        let f = parse("x <= y");
        let analysis = Analyzer::new(StructureClass::S).analyze(&ab(), &f);
        let flagged: Vec<_> = analysis
            .with_code(Code::FreeVarNotRangeRestricted)
            .collect();
        assert_eq!(flagged.len(), 2);
        assert!(analysis.worst() >= Some(Severity::Warning));
    }

    #[test]
    fn lint_allow_drops_and_deny_escalates() {
        let f = parse("x <= y");
        let allowed = Analyzer::new(StructureClass::S)
            .lint(Code::FreeVarNotRangeRestricted, LintLevel::Allow)
            .lint(Code::CostReport, LintLevel::Allow)
            .analyze(&ab(), &f);
        assert_eq!(
            allowed.with_code(Code::FreeVarNotRangeRestricted).count(),
            0
        );

        let denied = Analyzer::new(StructureClass::S)
            .lint(Code::FreeVarNotRangeRestricted, LintLevel::Deny)
            .analyze(&ab(), &f);
        assert!(denied.has_errors());
    }

    #[test]
    fn diagnostics_sorted_most_severe_first() {
        // SA001 error + SA010 warning + SA030 note in one query.
        let f = Formula::eq(Term::var("y"), Term::var("x").prepend(0));
        let analysis = Analyzer::new(StructureClass::S).analyze(&ab(), &f);
        let sevs: Vec<Severity> = analysis.diagnostics.iter().map(|d| d.severity).collect();
        let mut sorted = sevs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(sevs, sorted);
        assert_eq!(sevs.first(), Some(&Severity::Error));
    }

    #[test]
    fn render_is_presentable() {
        let f = parse("exists y. R(y) & x <= y");
        let analysis = Analyzer::new(StructureClass::S).analyze(&ab(), &f);
        let report = analysis.render();
        assert!(report.contains("declared RC(S)"));
        assert!(report.contains("SA030"));
    }

    #[test]
    fn analyzer_is_reusable() {
        let analyzer = Analyzer::new(StructureClass::SLen);
        let a = analyzer.analyze(&ab(), &parse("el(x, y) & R(x)"));
        let b = analyzer.analyze(&ab(), &parse("R(x)"));
        assert!(!a.has_errors());
        assert!(!b.has_errors());
    }
}
