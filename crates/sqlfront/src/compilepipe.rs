//! Compilation of SELECT statements into calculus queries, with static
//! analysis in the loop: every compile runs `strcalc-analyze` over the
//! generated formula (analyze-then-compile), and per-code lint levels
//! decide whether its diagnostics are dropped, attached, or fatal.

use std::sync::Arc;

use strcalc_alphabet::Alphabet;
use strcalc_analyze::{Analysis, Analyzer, Code, LintLevel, Severity};
use strcalc_automata::{compile_similar, like, AutomataError};
use strcalc_core::plan::{PlanChecker, PlanLintReport};
use strcalc_core::{AutomatonCache, Calculus, CoreError, Plan, Planner, Query};
use strcalc_logic::{Formula, Lang, Rewriter, Term};
use strcalc_verify::{Validator, VerifiedRewriter};

use crate::parser::{Catalog, Cond, LenOp, Select, SqlError, SqlErrorKind, SqlTerm};

/// The result of compiling a SELECT: a validated calculus [`Query`] (its
/// `calculus` field is the **least sufficient** calculus for the
/// statement's string predicates), display names for the output columns,
/// and the static [`Analysis`] of the generated formula.
#[derive(Debug, Clone)]
pub struct CompiledSql {
    pub query: Query,
    pub column_names: Vec<String>,
    /// Static analysis of the compiled formula, shaped by the lint
    /// configuration the statement was compiled under. `None` only when
    /// every code was set to [`LintLevel::Allow`] *and* no diagnostics
    /// survived — the field always carries the pass summaries otherwise.
    pub analysis: Option<Analysis>,
}

impl CompiledSql {
    /// The inferred minimal calculus.
    pub fn calculus(&self) -> Calculus {
        self.query.calculus()
    }

    /// Surviving diagnostics at warning level or above.
    pub fn warnings(&self) -> Vec<String> {
        match &self.analysis {
            None => Vec::new(),
            Some(a) => a
                .diagnostics
                .iter()
                .filter(|d| d.severity >= Severity::Warning)
                .map(|d| d.render())
                .collect(),
        }
    }

    /// Lowers the compiled query into an executable [`Plan`] under
    /// `planner` — the same decision procedure `run_sql` evaluates
    /// through. Plan once, execute many times: under a planner whose
    /// engine carries an [`AutomatonCache`], every execution after the
    /// first reuses the compiled automaton.
    pub fn plan(&self, planner: &Planner) -> Result<Plan, CoreError> {
        planner.plan(&self.query)
    }

    /// `EXPLAIN`: the plan for this SELECT, rendered as text, without
    /// executing anything.
    pub fn explain(&self) -> Result<String, CoreError> {
        Ok(self.plan(&Planner::new())?.explain_text())
    }

    /// `EXPLAIN (FORMAT JSON)`: the plan as a JSON document, without
    /// executing anything.
    pub fn explain_json(&self) -> Result<String, CoreError> {
        Ok(self.plan(&Planner::new())?.explain_json())
    }

    /// Runs the plan-IR verifier over this statement's plan and returns
    /// the full [`PlanLintReport`] — the SQL-facing planlint entry. The
    /// planner verifies every plan it builds and refuses one that fails,
    /// so this report carries no errors; its payload is the SA210
    /// certificate note and the per-node upper bounds on [`Plan::root`].
    pub fn planlint(&self, planner: &Planner) -> Result<PlanLintReport, CoreError> {
        let plan = self.plan(planner)?;
        Ok(PlanChecker::for_plan(&plan).check(&plan.root))
    }
}

/// One in-scope table occurrence.
#[derive(Debug, Clone)]
struct ScopeEntry {
    alias: String,
    table: String,
    /// Unique prefix for this occurrence's column variables.
    prefix: String,
}

struct Ctx<'a> {
    alphabet: &'a Alphabet,
    catalog: &'a Catalog,
    counter: usize,
}

impl<'a> Ctx<'a> {
    fn fresh_prefix(&mut self, alias: &str) -> String {
        self.counter += 1;
        format!("{}_{}", alias, self.counter)
    }
}

/// How [`compile_select_with`] compiles a statement.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Per-code lint levels over the warn-by-default baseline:
    /// [`LintLevel::Allow`] drops a code, [`LintLevel::Deny`] escalates
    /// it to an error.
    pub lints: Vec<(Code, LintLevel)>,
    /// The verified-rewrite gate: when set, this rewrite chain runs
    /// under translation validation after analysis. `None` compiles
    /// without the gate.
    pub verify: Option<Rewriter>,
    /// A shared compilation cache for the gate's validator: each rewrite
    /// step's formulas compile through it, so re-compiling the same
    /// statement (or an α-equivalent one — the key is the α-invariant
    /// formula fingerprint) skips every automaton construction the
    /// cache already holds. Unused without the gate.
    pub cache: Option<Arc<AutomatonCache>>,
}

impl CompileOptions {
    /// Options that run the standard optimizer chain
    /// (`nnf → lower_terms → simplify`) through the verified-rewrite gate.
    pub fn verified() -> CompileOptions {
        CompileOptions {
            verify: Some(Rewriter::standard()),
            ..CompileOptions::default()
        }
    }
}

/// Compiles a SELECT statement with default lints (everything at
/// [`LintLevel::Warn`]) and no rewrite gate: the analysis rides along
/// on the result and never fails a statement the calculus itself
/// accepts.
pub fn compile_select(
    alphabet: &Alphabet,
    catalog: &Catalog,
    stmt: &Select,
) -> Result<CompiledSql, SqlError> {
    compile_select_with(alphabet, catalog, stmt, &CompileOptions::default())
}

/// Compiles a SELECT statement under `opts`.
///
/// Every compile is analyzed under `opts.lints`, and compilation
/// **fails** when any diagnostic lands at error level, with every error
/// rendered into the message.
///
/// With `opts.verify` set, the rewrite chain then runs under
/// translation validation, and its `SA1xx` verdicts join the
/// statement's diagnostics. A refuted step (`SA100`, or `SA101` under
/// [`LintLevel::Deny`]) fails the compile with the counterexample
/// witness in the message; otherwise the certified rewritten formula
/// replaces the compiled one (falling back to the original when the
/// gate could not certify the chain).
pub fn compile_select_with(
    alphabet: &Alphabet,
    catalog: &Catalog,
    stmt: &Select,
    opts: &CompileOptions,
) -> Result<CompiledSql, SqlError> {
    let mut compiled = compile_raw(alphabet, catalog, stmt)?;
    // Analyze against the calculus the query was inferred into, over the
    // fact sheet `Query::infer` built, so the two layers share one
    // language table and one set of star-freeness verdicts.
    let mut analyzer = Analyzer::new(compiled.query.calculus().structure_class());
    for (code, level) in &opts.lints {
        analyzer = analyzer.lint(*code, *level);
    }
    let query = &compiled.query;
    let mut analysis = analyzer.diagnose(query.formula(), query.sheet());
    if analysis.has_errors() {
        return Err(rejection(
            "static analysis rejected the query",
            &analysis.diagnostics,
        ));
    }
    if let Some(rewriter) = &opts.verify {
        let mut validator = Validator::new(alphabet.clone());
        if let Some(cache) = &opts.cache {
            validator = validator.with_cache(Arc::clone(cache));
        }
        let mut gate = VerifiedRewriter::new(validator).with_rewriter(rewriter.clone());
        for (code, level) in &opts.lints {
            gate = gate.lint(*code, *level);
        }
        let outcome = gate.rewrite(compiled.query.formula());
        if outcome.rejected() {
            return Err(rejection(
                "translation validation rejected the rewrite",
                &outcome.diagnostics,
            ));
        }
        if outcome.certified() {
            // Swap in the certified rewritten formula. Keep the original
            // when the rewrite changed the free variables (e.g. a head
            // column collapsed away) or no longer fits the calculus.
            if let Some(output) = outcome.output() {
                if output.free_vars() == compiled.query.formula().free_vars() {
                    if let Ok(q) = Query::new(
                        compiled.query.calculus(),
                        alphabet.clone(),
                        compiled.query.head().to_vec(),
                        output.clone(),
                    ) {
                        compiled.query = q;
                    }
                }
            }
        }
        analysis.diagnostics.extend(outcome.diagnostics);
    }
    compiled.analysis = Some(analysis);
    Ok(compiled)
}

/// The compile error for a stage that rejected the statement: every
/// error-level diagnostic rendered under `stage`, coded by the first.
fn rejection(stage: &str, diagnostics: &[strcalc_analyze::Diagnostic]) -> SqlError {
    let errors: Vec<&strcalc_analyze::Diagnostic> = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    let rendered: Vec<String> = errors.iter().map(|d| d.render()).collect();
    let err = SqlError::new(0, format!("{stage}:\n{}", rendered.join("\n")));
    match errors.first() {
        Some(first) => err.with_code(first.code.as_str()),
        None => err,
    }
}

/// The compilation itself, without analysis.
fn compile_raw(
    alphabet: &Alphabet,
    catalog: &Catalog,
    stmt: &Select,
) -> Result<CompiledSql, SqlError> {
    let mut ctx = Ctx {
        alphabet,
        catalog,
        counter: 0,
    };
    let scopes: Vec<Vec<ScopeEntry>> = Vec::new();
    let (body, head_defs) = compile_block(&mut ctx, stmt, &scopes, true)?;

    let head: Vec<String> = (0..head_defs.len()).map(|i| format!("col{i}")).collect();
    let mut formula = body;
    for (i, def) in head_defs.iter().enumerate() {
        formula = formula.and(Formula::eq(Term::var(head[i].clone()), def.clone()));
    }
    // ∃-close everything except the head columns.
    let mut bound: Vec<String> = formula
        .free_vars()
        .into_iter()
        .filter(|v| !head.contains(v))
        .collect();
    bound.reverse();
    for v in bound {
        formula = Formula::exists(v, formula);
    }

    let column_names: Vec<String> = stmt.columns.iter().map(render_term_name).collect();

    let query = Query::infer(alphabet.clone(), head, formula)
        .map_err(|e| SqlError::new(0, format!("compilation failed: {e}")))?;
    Ok(CompiledSql {
        query,
        column_names,
        analysis: None,
    })
}

/// Compiles one SELECT block's FROM/WHERE into a conjunction (free over
/// its own table-column variables and any correlated outer variables).
/// Returns the formula plus the lowered head terms (only when
/// `want_head`).
fn compile_block(
    ctx: &mut Ctx<'_>,
    stmt: &Select,
    outer: &[Vec<ScopeEntry>],
    want_head: bool,
) -> Result<(Formula, Vec<Term>), SqlError> {
    // Bind table occurrences.
    let mut local: Vec<ScopeEntry> = Vec::new();
    for tr in &stmt.from {
        if ctx.catalog.columns(&tr.table).is_none() {
            return Err(SqlError::new(0, format!("unknown table {}", tr.table)));
        }
        if local.iter().any(|e| e.alias == tr.alias) {
            return Err(SqlError::new(0, format!("duplicate alias {}", tr.alias)));
        }
        local.push(ScopeEntry {
            alias: tr.alias.clone(),
            table: tr.table.clone(),
            prefix: ctx.fresh_prefix(&tr.alias),
        });
    }
    let mut scopes = outer.to_vec();
    scopes.push(local.clone());

    // Relation atoms.
    let mut formula = Formula::and_all(local.iter().map(|e| {
        let cols = ctx.catalog.columns(&e.table).expect("checked");
        Formula::rel(
            e.table.clone(),
            cols.iter()
                .map(|c| Term::var(format!("{}__{}", e.prefix, c)))
                .collect(),
        )
    }));

    if let Some(cond) = &stmt.cond {
        formula = formula.and(compile_cond(ctx, cond, &scopes)?);
    }

    let head_defs = if want_head {
        stmt.columns
            .iter()
            .map(|t| compile_term(ctx, t, &scopes))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    Ok((formula, head_defs))
}

fn compile_cond(
    ctx: &mut Ctx<'_>,
    cond: &Cond,
    scopes: &[Vec<ScopeEntry>],
) -> Result<Formula, SqlError> {
    Ok(match cond {
        Cond::And(a, b) => compile_cond(ctx, a, scopes)?.and(compile_cond(ctx, b, scopes)?),
        Cond::Or(a, b) => compile_cond(ctx, a, scopes)?.or(compile_cond(ctx, b, scopes)?),
        Cond::Not(a) => compile_cond(ctx, a, scopes)?.not(),
        Cond::Like {
            term,
            pattern,
            negated,
        } => {
            let t = compile_term(ctx, term, scopes)?;
            let regex = like::compile_like(ctx.alphabet, pattern)
                .map_err(|e| SqlError::new(0, format!("bad LIKE pattern {pattern:?}: {e}")))?;
            let f = Formula::in_lang(t, Lang::named(format!("LIKE {pattern}"), regex));
            if *negated {
                f.not()
            } else {
                f
            }
        }
        Cond::Similar {
            term,
            pattern,
            negated,
        } => {
            let t = compile_term(ctx, term, scopes)?;
            let regex = compile_similar(ctx.alphabet, pattern).map_err(|e| {
                let mut err = SqlError::new(0, format!("bad SIMILAR pattern {pattern:?}: {e}"));
                if matches!(e, AutomataError::NestingTooDeep { .. }) {
                    err.kind = SqlErrorKind::NestingTooDeep;
                }
                err
            })?;
            let f = Formula::in_lang(t, Lang::named(format!("SIMILAR {pattern}"), regex));
            if *negated {
                f.not()
            } else {
                f
            }
        }
        Cond::Eq(a, b) => Formula::eq(compile_term(ctx, a, scopes)?, compile_term(ctx, b, scopes)?),
        Cond::LexLt(a, b) => {
            let (ta, tb) = (compile_term(ctx, a, scopes)?, compile_term(ctx, b, scopes)?);
            Formula::lex_leq(ta.clone(), tb.clone()).and(Formula::eq(ta, tb).not())
        }
        Cond::LexLe(a, b) => {
            Formula::lex_leq(compile_term(ctx, a, scopes)?, compile_term(ctx, b, scopes)?)
        }
        Cond::Prefix(a, b) => {
            Formula::prefix(compile_term(ctx, a, scopes)?, compile_term(ctx, b, scopes)?)
        }
        Cond::LenCmp { left, right, op } => {
            let (ta, tb) = (
                compile_term(ctx, left, scopes)?,
                compile_term(ctx, right, scopes)?,
            );
            match op {
                LenOp::Eq => Formula::eq_len(ta, tb),
                LenOp::Lt => Formula::shorter(ta, tb),
                LenOp::Le => Formula::shorter_eq(ta, tb),
            }
        }
        Cond::Exists(sub) => {
            let (body, _) = compile_block(ctx, sub, scopes, false)?;
            close_subquery(body, scopes)
        }
        Cond::In { term, subquery } => {
            let t = compile_term(ctx, term, scopes)?;
            let (body, heads) = compile_block(ctx, subquery, scopes, true)?;
            if heads.len() != 1 {
                return Err(SqlError::new(
                    0,
                    "IN subquery must select exactly one column",
                ));
            }
            close_subquery(body.and(Formula::eq(t, heads[0].clone())), scopes)
        }
    })
}

/// Existentially closes a subquery body over its *own* variables (those
/// not visible in the enclosing scopes).
fn close_subquery(body: Formula, outer_scopes: &[Vec<ScopeEntry>]) -> Formula {
    let outer_prefixes: Vec<&str> = outer_scopes
        .iter()
        .flat_map(|s| s.iter().map(|e| e.prefix.as_str()))
        .collect();
    let is_outer = |v: &str| -> bool {
        outer_prefixes
            .iter()
            .any(|p| v.starts_with(p) && v[p.len()..].starts_with("__"))
    };
    let mut own: Vec<String> = body
        .free_vars()
        .into_iter()
        .filter(|v| !is_outer(v))
        .collect();
    own.reverse();
    let mut f = body;
    for v in own {
        f = Formula::exists(v, f);
    }
    f
}

fn compile_term(
    ctx: &mut Ctx<'_>,
    t: &SqlTerm,
    scopes: &[Vec<ScopeEntry>],
) -> Result<Term, SqlError> {
    Ok(match t {
        SqlTerm::Lit(s) => Term::konst(s.clone()),
        SqlTerm::TrimLeading(sym, inner) => compile_term(ctx, inner, scopes)?.trim_leading(*sym),
        SqlTerm::Col { qualifier, column } => {
            // Innermost scope first.
            for scope in scopes.iter().rev() {
                for entry in scope {
                    let alias_ok = match qualifier {
                        Some(q) => &entry.alias == q,
                        None => true,
                    };
                    if !alias_ok {
                        continue;
                    }
                    let cols = ctx.catalog.columns(&entry.table).expect("validated");
                    if cols.iter().any(|c| c == column) {
                        return Ok(Term::var(format!("{}__{}", entry.prefix, column)));
                    }
                    if qualifier.is_some() {
                        return Err(SqlError::new(
                            0,
                            format!("table {} has no column {column}", entry.table),
                        ));
                    }
                }
            }
            return Err(SqlError::new(
                0,
                format!(
                    "unresolved column {}{column}",
                    qualifier
                        .as_ref()
                        .map(|q| format!("{q}."))
                        .unwrap_or_default()
                ),
            ));
        }
    })
}

fn render_term_name(t: &SqlTerm) -> String {
    match t {
        SqlTerm::Col { qualifier, column } => match qualifier {
            Some(q) => format!("{q}.{column}"),
            None => column.clone(),
        },
        SqlTerm::Lit(_) => "literal".into(),
        SqlTerm::TrimLeading(_, inner) => format!("trim({})", render_term_name(inner)),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use strcalc_core::AutomataEngine;
    use strcalc_relational::Database;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("faculty", &["name", "dept"]);
        c.add_table("dept", &["head"]);
        c
    }

    fn db() -> Database {
        let mut db = Database::new();
        let s = |t: &str| ab().parse(t).unwrap();
        db.insert("faculty", vec![s("ab"), s("b")]).unwrap();
        db.insert("faculty", vec![s("ba"), s("b")]).unwrap();
        db.insert("faculty", vec![s("abb"), s("a")]).unwrap();
        db.insert("dept", vec![s("ab")]).unwrap();
        db
    }

    fn run(sql: &str) -> (CompiledSql, Vec<Vec<strcalc_alphabet::Str>>) {
        let stmt = parse_select(&ab(), sql).unwrap();
        let compiled = compile_select(&ab(), &catalog(), &stmt).unwrap();
        let out = AutomataEngine::new()
            .eval(&compiled.query, &db())
            .unwrap()
            .expect_finite();
        let tuples: Vec<Vec<strcalc_alphabet::Str>> = out.iter().map(|t| t.to_vec()).collect();
        (compiled, tuples)
    }

    #[test]
    fn like_query() {
        let (compiled, rows) = run("SELECT f.name FROM faculty f WHERE f.name LIKE 'a%'");
        assert_eq!(compiled.calculus(), Calculus::S);
        assert_eq!(rows.len(), 2); // ab, abb
    }

    #[test]
    fn similar_query_needs_sreg() {
        // Even length is regular but not star-free; (ab)* alone would be
        // star-free and stay in RC(S).
        let (compiled, rows) =
            run("SELECT f.name FROM faculty f WHERE f.name SIMILAR TO '((a|b)(a|b))*'");
        assert_eq!(compiled.calculus(), Calculus::SReg);
        assert_eq!(rows.len(), 2); // ab, ba

        let (compiled, rows) = run("SELECT f.name FROM faculty f WHERE f.name SIMILAR TO '(ab)*'");
        assert_eq!(compiled.calculus(), Calculus::S);
        assert_eq!(rows.len(), 1); // ab
    }

    #[test]
    fn length_needs_slen() {
        let (compiled, rows) =
            run("SELECT f.name FROM faculty f WHERE LENGTH(f.dept) < LENGTH(f.name)");
        assert_eq!(compiled.calculus(), Calculus::SLen);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn trim_needs_sleft() {
        let (compiled, rows) =
            run("SELECT f.name FROM faculty f WHERE TRIM(LEADING 'a' FROM f.name) = 'b'");
        assert_eq!(compiled.calculus(), Calculus::SLeft);
        assert_eq!(rows.len(), 1); // ab
    }

    #[test]
    fn exists_subquery_correlates() {
        let (compiled, rows) = run("SELECT f.name FROM faculty f WHERE EXISTS \
             (SELECT d.head FROM dept d WHERE d.head = f.name)");
        assert_eq!(compiled.calculus(), Calculus::S);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], ab().parse("ab").unwrap());
    }

    #[test]
    fn in_subquery() {
        let (_c, rows) = run("SELECT f.dept FROM faculty f WHERE f.name IN \
             (SELECT d.head FROM dept d)");
        assert_eq!(rows.len(), 1); // dept of 'ab' = 'b'
    }

    #[test]
    fn join_and_lex_order() {
        let (_c, rows) =
            run("SELECT f.name, g.name FROM faculty f, faculty g WHERE f.name < g.name");
        // pairs with f.name <lex g.name among {ab, ba, abb}: ab<abb,
        // ab<ba, abb<ba → 3.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn projection_of_literals_and_trims() {
        let (_c, rows) =
            run("SELECT TRIM(LEADING 'a' FROM f.name) FROM faculty f WHERE f.name LIKE 'a%'");
        let s = |t: &str| ab().parse(t).unwrap();
        let flat: Vec<_> = rows.iter().map(|r| r[0].clone()).collect();
        assert!(flat.contains(&s("b")));
        assert!(flat.contains(&s("bb")));
    }

    #[test]
    fn analysis_rides_along_on_every_compile() {
        let (compiled, _) = run("SELECT f.name FROM faculty f WHERE f.name LIKE 'a%'");
        let analysis = compiled.analysis.expect("analysis attached");
        assert!(!analysis.has_errors());
        // SELECT-generated formulas are safe-range by construction:
        // every head column equals a relation-bound variable.
        assert!(analysis.safe_range.unrestricted_free.is_empty());
        assert!(analysis.cost.quantifier_rank >= 1);
    }

    #[test]
    fn deny_lint_fails_compilation() {
        use strcalc_analyze::{Code, LintLevel};
        let stmt = parse_select(
            &ab(),
            "SELECT f.name FROM faculty f, faculty g WHERE f.name < g.name",
        )
        .unwrap();
        // Denying the always-emitted SA030 cost report makes any
        // statement fatal — the bluntest demonstration that deny works.
        let opts = CompileOptions {
            lints: vec![(Code::CostReport, LintLevel::Deny)],
            ..CompileOptions::default()
        };
        let err = compile_select_with(&ab(), &catalog(), &stmt, &opts).unwrap_err();
        assert!(err.msg.contains("static analysis rejected"));
        assert!(err.msg.contains("SA030"));
    }

    #[test]
    fn allow_lint_drops_diagnostics() {
        use strcalc_analyze::{Code, LintLevel};
        let stmt = parse_select(&ab(), "SELECT f.name FROM faculty f").unwrap();
        let opts = CompileOptions {
            lints: vec![(Code::CostReport, LintLevel::Allow)],
            ..CompileOptions::default()
        };
        let compiled = compile_select_with(&ab(), &catalog(), &stmt, &opts).unwrap();
        assert!(compiled.warnings().is_empty());
        let analysis = compiled.analysis.expect("analysis attached");
        assert!(analysis.with_code(Code::CostReport).next().is_none());
    }

    #[test]
    fn verified_compile_attaches_sa1xx_and_preserves_results() {
        let stmt =
            parse_select(&ab(), "SELECT f.name FROM faculty f WHERE f.name LIKE 'a%'").unwrap();
        let compiled =
            compile_select_with(&ab(), &catalog(), &stmt, &CompileOptions::verified()).unwrap();
        // The gate ran: SA1xx diagnostics are attached (identity steps
        // certify outright; database-dependent ones may stay SA101).
        let analysis = compiled.analysis.as_ref().expect("analysis attached");
        assert!(analysis.diagnostics.iter().any(|d| matches!(
            d.code,
            Code::RewriteValidated | Code::RewriteUnverified | Code::RewriteRefuted
        )));
        assert!(!analysis
            .diagnostics
            .iter()
            .any(|d| d.code == Code::RewriteRefuted));
        // And the (possibly rewritten) query still computes the same rows.
        let out = AutomataEngine::new()
            .eval(&compiled.query, &db())
            .unwrap()
            .expect_finite();
        assert_eq!(out.len(), 2); // ab, abb
    }

    #[test]
    fn verified_compile_rejects_a_broken_rewrite_with_sa100() {
        use strcalc_logic::Rewriter;
        let stmt =
            parse_select(&ab(), "SELECT f.name FROM faculty f WHERE f.name LIKE 'a%'").unwrap();
        // A "simplify" that deletes the WHERE clause entirely.
        let broken = Rewriter::new().step("simplify", |g: &Formula| match g {
            Formula::Exists(v, _) => Formula::exists(v.clone(), Formula::True),
            other => other.clone(),
        });
        let opts = CompileOptions {
            verify: Some(broken),
            ..CompileOptions::default()
        };
        let err = compile_select_with(&ab(), &catalog(), &stmt, &opts).unwrap_err();
        assert!(
            err.msg.contains("translation validation rejected"),
            "{}",
            err.msg
        );
        assert!(err.msg.contains("SA100"), "{}", err.msg);
        assert!(err.msg.contains("simplify"), "{}", err.msg);
    }

    #[test]
    fn unverified_steps_can_be_denied() {
        use strcalc_logic::Rewriter;
        let stmt =
            parse_select(&ab(), "SELECT f.name FROM faculty f WHERE f.name LIKE 'a%'").unwrap();
        // A semantics-preserving but syntactically visible no-op: the
        // validator cannot certify it without a database (the formula
        // mentions `faculty`), so SA101 fires — denied, it is fatal.
        let noop = Rewriter::new().step("noop", |g: &Formula| g.clone().and(Formula::True));
        let opts = CompileOptions {
            lints: vec![(Code::RewriteUnverified, LintLevel::Deny)],
            verify: Some(noop),
            cache: None,
        };
        let err = compile_select_with(&ab(), &catalog(), &stmt, &opts).unwrap_err();
        assert!(err.msg.contains("SA101"), "{}", err.msg);
    }

    #[test]
    fn cached_verified_compile_hits_on_the_second_statement() {
        let cache = Arc::new(AutomatonCache::new());
        // The double negation makes `nnf` a real (non-identity) step, so
        // the gate actually compiles both sides against its generated
        // databases — the identity short-circuit never touches the cache.
        let stmt = parse_select(
            &ab(),
            "SELECT f.name FROM faculty f WHERE NOT NOT f.name LIKE 'a%'",
        )
        .unwrap();
        let opts = CompileOptions {
            cache: Some(Arc::clone(&cache)),
            ..CompileOptions::verified()
        };
        let first = compile_select_with(&ab(), &catalog(), &stmt, &opts).unwrap();
        let after_first = cache.stats();
        assert!(after_first.misses > 0, "gate compiles populate the cache");
        let second = compile_select_with(&ab(), &catalog(), &stmt, &opts).unwrap();
        let after_second = cache.stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "recompiling the same statement constructs no new automata"
        );
        assert!(after_second.hits > after_first.hits);
        // Identical output either way.
        assert_eq!(first.query.formula(), second.query.formula());
        let out = AutomataEngine::new()
            .eval(&second.query, &db())
            .unwrap()
            .expect_finite();
        assert_eq!(out.len(), 2); // ab, abb
    }

    #[test]
    fn sql_statement_planned_once_runs_many_times() {
        let stmt =
            parse_select(&ab(), "SELECT f.name FROM faculty f WHERE f.name LIKE 'a%'").unwrap();
        let compiled = compile_select(&ab(), &catalog(), &stmt).unwrap();
        let direct = AutomataEngine::new().eval(&compiled.query, &db()).unwrap();
        let cache = Arc::new(AutomatonCache::new());
        let engine = AutomataEngine::new().with_cache(Arc::clone(&cache));
        let planner = Planner::for_engine(&engine).force(strcalc_core::Strategy::Automata);
        let plan = compiled.plan(&planner).unwrap();
        let (first, cold) = plan.execute(&db()).unwrap();
        let (second, warm) = plan.execute(&db()).unwrap();
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        assert!(
            !cold.cache_hit && warm.cache_hit,
            "second run reused the automaton"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn explain_renders_the_resource_certificate() {
        // Every SQL column is bound by its FROM table, so the default
        // planner takes the relational route, which builds no automaton;
        // the certificate is an automata-plan artifact, so force that
        // route.
        let stmt = parse_select(
            &ab(),
            "SELECT f.name FROM faculty f WHERE NOT f.name LIKE 'a%'",
        )
        .unwrap();
        let compiled = compile_select(&ab(), &catalog(), &stmt).unwrap();
        let plan = compiled
            .plan(&Planner::new().force(strcalc_core::Strategy::Automata))
            .unwrap();
        let text = plan.explain_text();
        assert!(text.contains("strategy: automata"), "{text}");
        assert!(text.contains("certificate: states ≤"), "{text}");
        assert!(text.contains("passes: rewrite "), "{text}");
        let json = plan.explain_json();
        let cert = plan.certificate().unwrap();
        let pinned = format!(
            "\"certificate\":{{\"states\":{},\"bytes\":{}}}",
            cert.states, cert.bytes
        );
        assert!(json.contains(&pinned), "{json}");
        let default = compiled.explain().unwrap();
        assert!(
            default.contains("strategy: active-domain-enum"),
            "{default}"
        );
        assert!(default.contains("Relational"), "{default}");
    }

    #[test]
    fn linear_like_routes_to_the_scan_strategy() {
        // Fragment inference classifies the bare LIKE lookup as linear:
        // the plan streams the stored relation, builds no automaton (a
        // zero resource certificate), and agrees with the automata
        // engine on the output.
        let stmt =
            parse_select(&ab(), "SELECT f.name FROM faculty f WHERE f.name LIKE 'a%'").unwrap();
        let compiled = compile_select(&ab(), &catalog(), &stmt).unwrap();
        let plan = compiled.plan(&Planner::new()).unwrap();
        assert_eq!(plan.strategy.name(), "like-linear-scan");
        let text = compiled.explain().unwrap();
        assert!(text.contains("strategy: like-linear-scan"), "{text}");
        assert!(text.contains("fragment: like-linear"), "{text}");
        assert!(text.contains("LikeScan"), "{text}");
        assert!(!text.contains("certificate: states ≤"), "{text}");
        let (scanned, report) = plan.execute(&db()).unwrap();
        assert_eq!(report.automaton_states, 0, "the scan builds no automaton");
        let direct = AutomataEngine::new().eval(&compiled.query, &db()).unwrap();
        assert_eq!(scanned, direct);
    }

    #[test]
    fn planlint_report_is_clean_and_carries_sa210() {
        use strcalc_analyze::Code;
        // The certificate note is an automata-strategy artifact, so pin
        // a query the scan strategy does not claim, and force automata
        // over the relational route.
        let stmt = parse_select(
            &ab(),
            "SELECT f.name FROM faculty f WHERE NOT f.name LIKE 'a%'",
        )
        .unwrap();
        let compiled = compile_select(&ab(), &catalog(), &stmt).unwrap();
        let report = compiled
            .planlint(&Planner::new().force(strcalc_core::Strategy::Automata))
            .unwrap();
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::PlanCertificate));
        assert!(report.certificate.is_some());
    }

    #[test]
    fn planlint_is_clean_on_the_scan_strategy() {
        let stmt =
            parse_select(&ab(), "SELECT f.name FROM faculty f WHERE f.name LIKE 'a%'").unwrap();
        let compiled = compile_select(&ab(), &catalog(), &stmt).unwrap();
        let report = compiled.planlint(&Planner::new()).unwrap();
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
    }

    #[test]
    fn analyzer_rejections_carry_their_code() {
        use strcalc_analyze::{Code, LintLevel};
        let stmt = parse_select(&ab(), "SELECT f.name FROM faculty f").unwrap();
        let opts = CompileOptions {
            lints: vec![(Code::CostReport, LintLevel::Deny)],
            ..CompileOptions::default()
        };
        let err = compile_select_with(&ab(), &catalog(), &stmt, &opts).unwrap_err();
        assert_eq!(err.code.as_deref(), Some("SA030"));
        assert!(err.to_string().contains("[SA030]"));
        // Parse errors stay code-less.
        let parse_err = parse_select(&ab(), "SELECT ?").unwrap_err();
        assert_eq!(parse_err.code, None);
    }

    #[test]
    fn unknown_names_error() {
        let stmt = parse_select(&ab(), "SELECT t.x FROM missing t").unwrap();
        assert!(compile_select(&ab(), &catalog(), &stmt).is_err());
        let stmt = parse_select(&ab(), "SELECT f.nope FROM faculty f").unwrap();
        assert!(compile_select(&ab(), &catalog(), &stmt).is_err());
    }
}
