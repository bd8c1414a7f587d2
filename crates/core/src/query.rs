//! Typed queries over the four tame calculi.

use std::fmt;
use std::sync::Arc;

use strcalc_alphabet::{Alphabet, Str};
use strcalc_analyze::{Analysis, Analyzer, FactSheet};
use strcalc_logic::{CompileError, Formula, LogicError, StructureClass};
use strcalc_relational::{DbError, RaError, Relation};
use strcalc_synchro::SynchroError;

use crate::json::JsonError;

/// The four tame calculi of the paper (Figure 1, minus the
/// computationally complete `RC_concat`, which lives in
/// [`crate::concat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Calculus {
    /// `RC(S)`: prefix order and last-symbol tests — `LIKE` and `≤_lex`.
    S,
    /// `RC(S_left)`: adds prepend/trim-leading (`F_a`).
    SLeft,
    /// `RC(S_reg)`: adds regular pattern matching (`P_L`, `SIMILAR`).
    SReg,
    /// `RC(S_len)`: adds length comparison (`el`); PH-hard data
    /// complexity (Corollary 4).
    SLen,
}

impl Calculus {
    /// The corresponding point of the structure lattice.
    pub fn structure_class(self) -> StructureClass {
        match self {
            Calculus::S => StructureClass::S,
            Calculus::SLeft => StructureClass::SLeft,
            Calculus::SReg => StructureClass::SReg,
            Calculus::SLen => StructureClass::SLen,
        }
    }

    /// All four calculi, in lattice-compatible order.
    pub fn all() -> [Calculus; 4] {
        [Calculus::S, Calculus::SLeft, Calculus::SReg, Calculus::SLen]
    }

    pub fn name(self) -> &'static str {
        match self {
            Calculus::S => "RC(S)",
            Calculus::SLeft => "RC(S_left)",
            Calculus::SReg => "RC(S_reg)",
            Calculus::SLen => "RC(S_len)",
        }
    }
}

impl fmt::Display for Calculus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from the core layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The formula uses atoms outside the declared calculus.
    FragmentViolation {
        declared: Calculus,
        inferred: StructureClass,
    },
    /// The head lists a variable that is not free in the formula, or
    /// misses one that is.
    HeadMismatch {
        head: Vec<String>,
        free: Vec<String>,
    },
    /// Formula-level analysis failed.
    Logic(LogicError),
    /// Compilation failed.
    Compile(CompileError),
    /// Automata-layer failure.
    Synchro(SynchroError),
    /// Database error.
    Db(DbError),
    /// Algebra error.
    Ra(RaError),
    /// Static analysis produced error-level diagnostics (only from the
    /// opt-in [`Query::analyzed`] path). The full [`Analysis`] is
    /// carried so callers can render every diagnostic, not just the
    /// errors.
    StaticAnalysis(Box<Analysis>),
    /// Planlint rejected the plan: its tree fails typing or disagrees
    /// with its strategy or fragment (SA20x, SA305). `stage` is `plan`
    /// when the planner's verification of the finished plan failed and
    /// `execute` when the execute-time gate did; `diagnostics` are the
    /// rendered error-level diagnostics.
    PlanRejected {
        stage: String,
        diagnostics: Vec<String>,
    },
    /// The query output is infinite but a finite result was required.
    InfiniteOutput,
    /// The run's budget capability was exhausted under the fail policy
    /// (`DegradationPolicy::Fail`): the run is rejected instead of
    /// degrading. `node` is the ledger path of the first plan node, in
    /// pre-order, whose certificate the budget does not admit, and
    /// `detail` its rendered ledger row.
    BudgetExhausted { node: String, detail: String },
    /// A cooperative deadline fired under `DegradationPolicy::Fail`:
    /// the run is rejected at the checkpoint instead of degrading.
    /// `checkpoint` is the (deterministic, replayable) checkpoint index
    /// at which the deadline fired.
    DeadlineExpired { checkpoint: u64, detail: String },
    /// Operation not supported for this query shape (documented per API).
    Unsupported(String),
    /// A JSON document (an archived trace) could not be read.
    Json(JsonError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::FragmentViolation { declared, inferred } => write!(
                f,
                "formula needs {} but the query declares {declared}",
                inferred.name()
            ),
            CoreError::HeadMismatch { head, free } => write!(
                f,
                "query head {head:?} does not match the free variables {free:?}"
            ),
            CoreError::Logic(e) => write!(f, "{e}"),
            CoreError::Compile(e) => write!(f, "{e}"),
            CoreError::Synchro(e) => write!(f, "{e}"),
            CoreError::Db(e) => write!(f, "{e}"),
            CoreError::Ra(e) => write!(f, "{e}"),
            CoreError::StaticAnalysis(analysis) => {
                let errors: Vec<String> = analysis
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == strcalc_analyze::Severity::Error)
                    .map(|d| d.render())
                    .collect();
                write!(
                    f,
                    "static analysis rejected the query:\n{}",
                    errors.join("\n")
                )
            }
            CoreError::PlanRejected { stage, diagnostics } => write!(
                f,
                "planlint rejected the plan after the {stage} stage:\n{}",
                diagnostics.join("\n")
            ),
            CoreError::InfiniteOutput => write!(f, "query output is infinite"),
            CoreError::BudgetExhausted { node, detail } => write!(
                f,
                "budget exhausted at {node} under the fail policy: {detail}"
            ),
            CoreError::DeadlineExpired { checkpoint, detail } => write!(
                f,
                "deadline expired at checkpoint {checkpoint} under the fail policy: {detail}"
            ),
            CoreError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            CoreError::Json(e) => write!(f, "unreadable JSON: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<JsonError> for CoreError {
    fn from(e: JsonError) -> Self {
        CoreError::Json(e)
    }
}

impl From<LogicError> for CoreError {
    fn from(e: LogicError) -> Self {
        CoreError::Logic(e)
    }
}

impl From<CompileError> for CoreError {
    fn from(e: CompileError) -> Self {
        CoreError::Compile(e)
    }
}

impl From<SynchroError> for CoreError {
    fn from(e: SynchroError) -> Self {
        CoreError::Synchro(e)
    }
}

impl From<DbError> for CoreError {
    fn from(e: DbError) -> Self {
        CoreError::Db(e)
    }
}

impl From<RaError> for CoreError {
    fn from(e: RaError) -> Self {
        CoreError::Ra(e)
    }
}

/// A typed query: a calculus, an alphabet, a head (the output column
/// order) and a formula whose free variables are exactly the head.
///
/// A query carries the [`FactSheet`] of its formula and head, built
/// once when the query is: every later stage (analysis, routing,
/// lowering, planlint, EXPLAIN, the cache key) reads it. The parts are
/// read-only, so the sheet always describes the query; a query with
/// another formula is a new query.
#[derive(Debug, Clone)]
pub struct Query {
    calculus: Calculus,
    alphabet: Alphabet,
    head: Vec<String>,
    formula: Formula,
    pub(crate) sheet: Arc<FactSheet>,
}

impl Query {
    /// Builds and validates a query: the head must list exactly the free
    /// variables, and every atom must fit the declared calculus. A
    /// language of an `in`/`pl` atom fits `S` or `S_left` only when it is
    /// known to be star-free: a LIKE-shaped one always is, and one whose
    /// transition monoid exceeds
    /// [`MAX_MONOID_CELLS`](strcalc_automata::MAX_MONOID_CELLS) is left
    /// undecided and needs `S_reg`.
    pub fn new(
        calculus: Calculus,
        alphabet: Alphabet,
        head: Vec<String>,
        formula: Formula,
    ) -> Result<Query, CoreError> {
        check_head(&head, &formula)?;
        let sheet = FactSheet::build(&formula, &head, alphabet.len() as u8);
        Query::typed(Some(calculus), alphabet, head, formula, sheet)
    }

    /// Builds a query, inferring the least sufficient calculus. The
    /// fragment is decided once: the inferred calculus admits the
    /// formula by construction.
    pub fn infer(
        alphabet: Alphabet,
        head: Vec<String>,
        formula: Formula,
    ) -> Result<Query, CoreError> {
        let sheet = FactSheet::build(&formula, &head, alphabet.len() as u8);
        let q = Query::typed(None, alphabet, head, formula, sheet)?;
        check_head(&q.head, &q.formula)?;
        Ok(q)
    }

    /// A query over `sheet`, the fact sheet of `formula` and `head`, in
    /// the `declared` calculus, or in the least one the sheet infers
    /// when `None`. The head is the caller's to check.
    pub(crate) fn typed(
        declared: Option<Calculus>,
        alphabet: Alphabet,
        head: Vec<String>,
        formula: Formula,
        sheet: FactSheet,
    ) -> Result<Query, CoreError> {
        let inferred = sheet.inferred;
        let calculus = match (declared, inferred) {
            (Some(declared), _) if !inferred.leq(declared.structure_class()) => {
                return Err(CoreError::FragmentViolation { declared, inferred })
            }
            (Some(declared), _) => declared,
            (None, StructureClass::S) => Calculus::S,
            (None, StructureClass::SLeft) => Calculus::SLeft,
            (None, StructureClass::SReg) => Calculus::SReg,
            (None, StructureClass::SLen) => Calculus::SLen,
            (None, StructureClass::Concat) => return Err(CoreError::Unsupported(
                "concatenation queries belong to RC_concat; plan them with Planner::plan_formula"
                    .into(),
            )),
        };
        Ok(Query {
            calculus,
            alphabet,
            head,
            formula,
            sheet: Arc::new(sheet),
        })
    }

    /// Parses the formula from concrete syntax and builds a query.
    pub fn parse(
        calculus: Calculus,
        alphabet: Alphabet,
        head: Vec<String>,
        src: &str,
    ) -> Result<Query, CoreError> {
        let formula = strcalc_logic::parse_formula(&alphabet, src)?;
        Query::new(calculus, alphabet, head, formula)
    }

    /// Builds a query with the full static analyzer in the loop
    /// (opt-in: [`Query::new`] only enforces the fragment check). Runs
    /// `strcalc-analyze`'s passes over the query's fact sheet with
    /// default lint levels; if any diagnostic is error-level the query is
    /// rejected with [`CoreError::StaticAnalysis`], otherwise the query
    /// is returned together with the [`Analysis`] (whose warnings and
    /// notes the caller can surface). Other lint levels apply through
    /// [`Analyzer::diagnose`] over [`Query::sheet`].
    pub fn analyzed(
        calculus: Calculus,
        alphabet: Alphabet,
        head: Vec<String>,
        formula: Formula,
    ) -> Result<(Query, Analysis), CoreError> {
        let sheet = FactSheet::build(&formula, &head, alphabet.len() as u8);
        let analysis = Analyzer::new(calculus.structure_class()).diagnose(&formula, &sheet);
        if analysis.has_errors() {
            return Err(CoreError::StaticAnalysis(Box::new(analysis)));
        }
        check_head(&head, &formula)?;
        let query = Query::typed(Some(calculus), alphabet, head, formula, sheet)?;
        Ok((query, analysis))
    }

    /// The calculus the query was declared in, or the least one it was
    /// inferred to need.
    pub fn calculus(&self) -> Calculus {
        self.calculus
    }

    /// The alphabet the query's strings range over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Output column order: the formula's free variables, each once. A
    /// sentence has an empty head.
    pub fn head(&self) -> &[String] {
        &self.head
    }

    /// The formula the query evaluates.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The formula, taken out of a query that is no longer needed.
    pub(crate) fn into_formula(self) -> Formula {
        self.formula
    }

    /// The fact sheet of the query's formula and head.
    pub fn sheet(&self) -> &FactSheet {
        &self.sheet
    }

    /// `true` iff this is a sentence (Boolean query).
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }
}

/// The head must list exactly the formula's free variables, each once.
pub(crate) fn check_head(head: &[String], formula: &Formula) -> Result<(), CoreError> {
    let free: Vec<String> = formula.free_vars().into_iter().collect();
    let mut head_sorted = head.to_vec();
    head_sorted.sort();
    head_sorted.dedup();
    if head_sorted != free || head_sorted.len() != head.len() {
        return Err(CoreError::HeadMismatch {
            head: head.to_vec(),
            free,
        });
    }
    Ok(())
}

/// The result of exact evaluation: either a finite relation (with tuples
/// in head order) or a proof that the output is infinite.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutput {
    /// The output is finite; tuples are materialized.
    Finite(Relation),
    /// The output is infinite. `sample` holds the first few tuples (in
    /// convolution-length order) as evidence.
    Infinite { sample: Vec<Vec<Str>> },
}

impl EvalOutput {
    /// Unwraps the finite case.
    ///
    /// # Panics
    ///
    /// Panics if the output is infinite.
    pub fn expect_finite(self) -> Relation {
        match self {
            EvalOutput::Finite(r) => r,
            EvalOutput::Infinite { .. } => panic!("query output is infinite"),
        }
    }

    pub fn is_finite(&self) -> bool {
        matches!(self, EvalOutput::Finite(_))
    }

    /// Number of tuples, if finite.
    pub fn len(&self) -> Option<usize> {
        match self {
            EvalOutput::Finite(r) => Some(r.len()),
            EvalOutput::Infinite { .. } => None,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strcalc_logic::Term;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    #[test]
    fn head_must_match_free_vars() {
        let f = Formula::prefix(Term::var("x"), Term::var("y"));
        assert!(Query::new(Calculus::S, ab(), vec!["x".into(), "y".into()], f.clone()).is_ok());
        assert!(matches!(
            Query::new(Calculus::S, ab(), vec!["x".into()], f.clone()),
            Err(CoreError::HeadMismatch { .. })
        ));
        assert!(matches!(
            Query::new(
                Calculus::S,
                ab(),
                vec!["x".into(), "x".into(), "y".into()],
                f
            ),
            Err(CoreError::HeadMismatch { .. })
        ));
    }

    #[test]
    fn fragment_is_enforced() {
        let f = Formula::eq_len(Term::var("x"), Term::var("y"));
        assert!(matches!(
            Query::new(Calculus::S, ab(), vec!["x".into(), "y".into()], f.clone()),
            Err(CoreError::FragmentViolation { .. })
        ));
        assert!(Query::new(Calculus::SLen, ab(), vec!["x".into(), "y".into()], f).is_ok());
    }

    #[test]
    fn inference_picks_least_calculus() {
        let f = Formula::prepends(Term::var("x"), Term::var("y"), 0);
        let q = Query::infer(ab(), vec!["x".into(), "y".into()], f).unwrap();
        assert_eq!(q.calculus, Calculus::SLeft);
        let f = Formula::prefix(Term::var("x"), Term::var("y"));
        let q = Query::infer(ab(), vec!["x".into(), "y".into()], f).unwrap();
        assert_eq!(q.calculus, Calculus::S);
    }

    #[test]
    fn calculus_lattice_names() {
        for c in Calculus::all() {
            assert!(c.name().starts_with("RC("));
            assert!(StructureClass::S.leq(c.structure_class()));
        }
    }

    #[test]
    fn analyzed_rejects_fragment_violations_with_diagnostics() {
        use strcalc_analyze::Code;
        // prepend term in RC(S): SA001 at a precise path.
        let f = Formula::eq(Term::var("y"), Term::var("x").prepend(0));
        let err = Query::analyzed(Calculus::S, ab(), vec!["x".into(), "y".into()], f).unwrap_err();
        match err {
            CoreError::StaticAnalysis(analysis) => {
                assert!(analysis.has_errors());
                assert!(analysis
                    .with_code(Code::SignatureExceedsDeclared)
                    .next()
                    .is_some());
            }
            other => panic!("expected StaticAnalysis, got {other:?}"),
        }
    }

    #[test]
    fn analyzed_accepts_clean_queries_with_warnings_attached() {
        use strcalc_analyze::Code;
        // Safe query: only the SA030 cost note survives.
        let f = Formula::rel("R", vec![Term::var("x")]);
        let (q, analysis) = Query::analyzed(Calculus::S, ab(), vec!["x".into()], f).unwrap();
        assert_eq!(q.arity(), 1);
        assert!(!analysis.has_errors());
        assert!(analysis.with_code(Code::CostReport).next().is_some());

        // Unsafe but well-formed query: accepted, SA010 warning attached.
        let f = Formula::prefix(Term::var("x"), Term::var("y"));
        let (_, analysis) =
            Query::analyzed(Calculus::S, ab(), vec!["x".into(), "y".into()], f).unwrap();
        assert_eq!(
            analysis.with_code(Code::FreeVarNotRangeRestricted).count(),
            2
        );
    }

    #[test]
    fn lint_levels_apply_to_the_query_sheet() {
        use strcalc_analyze::{Code, LintLevel};
        let f = Formula::prefix(Term::var("x"), Term::var("y"));
        let q = Query::new(Calculus::S, ab(), vec!["x".into(), "y".into()], f).unwrap();
        let sa010 = Code::FreeVarNotRangeRestricted;
        let under = |level| Analyzer::new(StructureClass::S).lint(sa010, level);
        // Deny SA010: the unsafe query is now rejected.
        assert!(under(LintLevel::Deny)
            .diagnose(&q.formula, q.sheet())
            .has_errors());
        // Allow it: no SA010 diagnostic at all.
        let allowed = under(LintLevel::Allow).diagnose(&q.formula, q.sheet());
        assert_eq!(allowed.with_code(sa010).count(), 0);
    }

    #[test]
    fn parse_builds_queries() {
        let q = Query::parse(
            Calculus::S,
            ab(),
            vec!["x".into()],
            "exists y. (R(y) & x <= y)",
        )
        .unwrap();
        assert_eq!(q.arity(), 1);
        assert!(!q.is_boolean());
        let q = Query::parse(Calculus::S, ab(), vec![], "exists y. R(y)").unwrap();
        assert!(q.is_boolean());
    }
}
