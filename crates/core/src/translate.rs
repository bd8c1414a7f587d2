//! Calculus ↔ algebra translations (Theorems 4 and 8 of the paper:
//! `safe RC(M) = RA(M)` for all four tame structures).
//!
//! **Algebra → calculus** ([`ra_to_calculus`]) is compositional and
//! total: every operator has a defining formula, and the operator set of
//! each algebra lands exactly in the matching calculus (`add^l`/`trim^l`
//! → `F_a` atoms, `↓` → length comparison, `σ_α` → `α` inlined).
//!
//! **Calculus → algebra** ([`adom_calculus_to_algebra`]) implements the
//! classical Codd-style translation for queries in **active-domain
//! normal form** (every quantifier `∃x ∈ adom` / `∀x ∈ adom`), which is
//! the normal form the collapse theorems (Theorem 1 for `S`, Theorem 2
//! for `S_len`, Theorem 6 for `S_left`/`S_reg`) reduce arbitrary queries
//! to. Structure atoms become `σ_α` selections over powers of the
//! active-domain expression; Boolean subformulas are threaded through
//! `R_ε`-flag relations (arity-1 `{(ε)}`/`{}`), which is exactly what the
//! paper's `R_ε` constant is for.
//!
//! Combined with the range-restriction bounds of
//! [`crate::safety::RangeRestricted`] (whose `γ` candidate sets are
//! themselves algebra-expressible — see [`gamma_candidates_expr`]), this
//! realizes the proof plan of Theorem 4: "the bounds can be computed by
//! relational algebra expressions".

use std::collections::BTreeSet;

use strcalc_alphabet::Sym;
use strcalc_logic::{Formula, Restrict, Term};
use strcalc_relational::{RaExpr, Schema};

use crate::query::{Calculus, CoreError};

// ---------------------------------------------------------------------
// Algebra → calculus
// ---------------------------------------------------------------------

/// Translates an algebra expression into a calculus formula whose free
/// variables are `c0..c(arity-1)` (in column order).
pub fn ra_to_calculus(e: &RaExpr, schema: &Schema) -> Result<Formula, CoreError> {
    let arity = e.arity(schema)?;
    let out: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
    let mut ctr = 0usize;
    go_ra(e, schema, &out, &mut ctr)
}

fn fresh(ctr: &mut usize) -> String {
    *ctr += 1;
    format!("_d{ctr}")
}

fn go_ra(
    e: &RaExpr,
    schema: &Schema,
    out: &[String],
    ctr: &mut usize,
) -> Result<Formula, CoreError> {
    Ok(match e {
        RaExpr::Rel(r) => Formula::rel(
            r.clone(),
            out.iter().map(|v| Term::var(v.clone())).collect(),
        ),
        RaExpr::EpsilonRel => Formula::eq(Term::var(out[0].clone()), Term::epsilon()),
        RaExpr::Select(inner, alpha) => {
            let body = go_ra(inner, schema, out, ctr)?;
            // Rename α's column variables cN onto the actual out names.
            let mut renamed = alpha.clone();
            for (i, v) in out.iter().enumerate() {
                let from = format!("c{i}");
                if &from != v {
                    renamed = renamed.rename_free(&from, v);
                }
            }
            body.and(renamed)
        }
        RaExpr::Project(inner, cols) => {
            let m = inner.arity(schema)?;
            let inner_vars: Vec<String> = (0..m).map(|_| fresh(ctr)).collect();
            let mut f = go_ra(inner, schema, &inner_vars, ctr)?;
            for (i, &c) in cols.iter().enumerate() {
                f = f.and(Formula::eq(
                    Term::var(out[i].clone()),
                    Term::var(inner_vars[c].clone()),
                ));
            }
            for v in inner_vars.into_iter().rev() {
                f = Formula::exists(v, f);
            }
            f
        }
        RaExpr::Product(a, b) => {
            let na = a.arity(schema)?;
            let fa = go_ra(a, schema, &out[..na], ctr)?;
            let fb = go_ra(b, schema, &out[na..], ctr)?;
            fa.and(fb)
        }
        RaExpr::Union(a, b) => go_ra(a, schema, out, ctr)?.or(go_ra(b, schema, out, ctr)?),
        RaExpr::Diff(a, b) => go_ra(a, schema, out, ctr)?.and(go_ra(b, schema, out, ctr)?.not()),
        RaExpr::Prefix(inner, i) => {
            let m = out.len() - 1;
            let f = go_ra(inner, schema, &out[..m], ctr)?;
            f.and(Formula::prefix(
                Term::var(out[m].clone()),
                Term::var(out[*i].clone()),
            ))
        }
        RaExpr::AddRight(inner, i, a) => {
            let m = out.len() - 1;
            let f = go_ra(inner, schema, &out[..m], ctr)?;
            f.and(Formula::cover(
                Term::var(out[*i].clone()),
                Term::var(out[m].clone()),
            ))
            .and(Formula::last_sym(Term::var(out[m].clone()), *a))
        }
        RaExpr::AddLeft(inner, i, a) => {
            let m = out.len() - 1;
            let f = go_ra(inner, schema, &out[..m], ctr)?;
            f.and(Formula::prepends(
                Term::var(out[*i].clone()),
                Term::var(out[m].clone()),
                *a,
            ))
        }
        RaExpr::TrimLeft(inner, i, a) => {
            let m = out.len() - 1;
            let f = go_ra(inner, schema, &out[..m], ctr)?;
            let is_trim =
                Formula::prepends(Term::var(out[m].clone()), Term::var(out[*i].clone()), *a).or(
                    Formula::first_sym(Term::var(out[*i].clone()), *a)
                        .not()
                        .and(Formula::eq(Term::var(out[m].clone()), Term::epsilon())),
                );
            f.and(is_trim)
        }
        RaExpr::Down(inner, i) => {
            let m = out.len() - 1;
            let f = go_ra(inner, schema, &out[..m], ctr)?;
            f.and(Formula::shorter_eq(
                Term::var(out[m].clone()),
                Term::var(out[*i].clone()),
            ))
        }
        RaExpr::InsertAt(inner, i, j, a) => {
            let m = out.len() - 1;
            let f = go_ra(inner, schema, &out[..m], ctr)?;
            f.and(Formula::insert_after(
                Term::var(out[*i].clone()),
                Term::var(out[*j].clone()),
                Term::var(out[m].clone()),
                *a,
            ))
        }
    })
}

// ---------------------------------------------------------------------
// Calculus → algebra (active-domain normal form)
// ---------------------------------------------------------------------

/// The active-domain expression `A = ⋃_R ⋃_i π_i(R)` (arity 1).
pub fn adom_expr(schema: &Schema) -> Option<RaExpr> {
    let mut acc: Option<RaExpr> = None;
    for name in schema.names() {
        let arity = schema
            .arity(name)
            .expect("schema.names() only yields declared relations");
        for i in 0..arity {
            let piece = RaExpr::rel(name).project(vec![i]);
            acc = Some(match acc {
                None => piece,
                Some(prev) => prev.union(piece),
            });
        }
    }
    acc
}

/// A translated subformula: an expression whose columns (left to right)
/// carry the values of `cols` (sorted variable names). A closed
/// subformula (`cols` empty) is an arity-1 **flag**: `{(ε)}` for true,
/// `{}` for false.
#[derive(Clone)]
struct Tr {
    expr: RaExpr,
    cols: Vec<String>,
}

/// Translates an active-domain-normal-form query body into the algebra.
/// The result's columns follow `head` (which must list the free
/// variables). Boolean queries yield the arity-1 flag convention.
///
/// Unrestricted (or prefix-/length-restricted) quantifiers are rejected:
/// apply the collapse first (Theorems 1/2/6 justify that this loses no
/// expressive power for *generic* evaluation; our exact engine covers the
/// general case directly).
pub fn adom_calculus_to_algebra(
    formula: &Formula,
    head: &[String],
    schema: &Schema,
) -> Result<RaExpr, CoreError> {
    let adom = adom_expr(schema).ok_or_else(|| {
        CoreError::Unsupported("empty schema: no active-domain expression".into())
    })?;
    let tr = go_calc(formula, schema, &adom)?;
    // Check cols match head as sets.
    let free: BTreeSet<&String> = tr.cols.iter().collect();
    let head_set: BTreeSet<&String> = head.iter().collect();
    if free != head_set {
        return Err(CoreError::HeadMismatch {
            head: head.to_vec(),
            free: tr.cols.clone(),
        });
    }
    if head.is_empty() {
        return Ok(flagged(tr.expr));
    }
    // Permute columns to head order.
    let perm: Vec<usize> = head
        .iter()
        .map(|h| {
            tr.cols
                .iter()
                .position(|c| c == h)
                .expect("head and cols were checked equal as sets above")
        })
        .collect();
    Ok(tr.expr.project(perm))
}

/// Normalizes a (possibly multi-column) expression to an arity-1 flag:
/// `{(ε)}` iff nonempty.
fn flagged(e: RaExpr) -> RaExpr {
    let arity_hint = 0; // position of R_ε column = e's arity — computed at eval
    let _ = arity_hint;
    // π_{last}(e × R_ε): the ε column is the last one.
    // We don't know e's arity statically here without a schema, so use a
    // trick: R_ε × e, project column 0.
    RaExpr::EpsilonRel.product(e).project(vec![0])
}

fn go_calc(f: &Formula, schema: &Schema, adom: &RaExpr) -> Result<Tr, CoreError> {
    match f {
        Formula::True => Ok(Tr {
            expr: RaExpr::EpsilonRel,
            cols: vec![],
        }),
        Formula::False => Ok(Tr {
            expr: RaExpr::EpsilonRel.diff(RaExpr::EpsilonRel),
            cols: vec![],
        }),
        Formula::Atom(a) => atom_to_tr(a, schema, adom),
        Formula::And(x, y) => {
            let a = go_calc(x, schema, adom)?;
            let b = go_calc(y, schema, adom)?;
            Ok(join(a, b))
        }
        Formula::Or(x, y) => {
            let a = go_calc(x, schema, adom)?;
            let b = go_calc(y, schema, adom)?;
            let (a, b) = align(a, b, adom);
            Ok(Tr {
                expr: a.expr.union(b.expr),
                cols: a.cols,
            })
        }
        Formula::Not(x) => {
            let a = go_calc(x, schema, adom)?;
            // Complement against adom^n (flag complement for n = 0).
            if a.cols.is_empty() {
                Ok(Tr {
                    expr: RaExpr::EpsilonRel.diff(a.expr),
                    cols: vec![],
                })
            } else {
                let mut dom = adom.clone();
                for _ in 1..a.cols.len() {
                    dom = dom.product(adom.clone());
                }
                Ok(Tr {
                    expr: dom.diff(a.expr),
                    cols: a.cols,
                })
            }
        }
        Formula::Implies(x, y) => {
            let rewritten = x.clone().not().or((**y).clone());
            go_calc(&rewritten, schema, adom)
        }
        Formula::Iff(x, y) => {
            let pos = (**x).clone().and((**y).clone());
            let neg = x.clone().not().and(y.clone().not());
            go_calc(&pos.or(neg), schema, adom)
        }
        Formula::ExistsR(Restrict::Active, v, body) => {
            let b = go_calc(body, schema, adom)?;
            match b.cols.iter().position(|c| c == v) {
                Some(idx) => {
                    let keep: Vec<usize> = (0..b.cols.len()).filter(|&i| i != idx).collect();
                    let cols: Vec<String> = keep.iter().map(|&i| b.cols[i].clone()).collect();
                    let expr = if keep.is_empty() {
                        flagged(b.expr)
                    } else {
                        b.expr.project(keep)
                    };
                    Ok(Tr { expr, cols })
                }
                None => {
                    // v unused: ∃v∈adom φ ⟺ (adom ≠ ∅) ∧ φ.
                    let flag = Tr {
                        expr: flagged(adom.clone()),
                        cols: vec![],
                    };
                    Ok(join(flag, b))
                }
            }
        }
        Formula::ForallR(Restrict::Active, v, body) => {
            // ∀v∈adom φ ⟺ ¬∃v∈adom ¬φ.
            let rewritten =
                Formula::exists_r(Restrict::Active, v.clone(), body.clone().not()).not();
            go_calc(&rewritten, schema, adom)
        }
        Formula::Exists(..) | Formula::Forall(..) | Formula::ExistsR(..) | Formula::ForallR(..) => {
            Err(CoreError::Unsupported(
                "calculus→algebra translation requires active-domain normal form \
             (quantifiers ∃x∈adom / ∀x∈adom); apply the collapse first"
                    .into(),
            ))
        }
    }
}

/// Natural join of two translated subformulas on their shared columns.
fn join(a: Tr, b: Tr) -> Tr {
    // Result columns: sorted union.
    let mut cols: Vec<String> = a.cols.clone();
    for c in &b.cols {
        if !cols.contains(c) {
            cols.push(c.clone());
        }
    }
    cols.sort();

    let na = a.cols.len().max(1);
    let product = a.expr.clone().product(b.expr.clone());
    // Equalities for shared variables.
    let mut alpha: Option<Formula> = None;
    for (j, c) in b.cols.iter().enumerate() {
        if let Some(i) = a.cols.iter().position(|x| x == c) {
            let eq = Formula::eq(RaExpr::col(i), RaExpr::col(na + j));
            alpha = Some(match alpha {
                None => eq,
                Some(prev) => prev.and(eq),
            });
        }
    }
    let selected = match alpha {
        Some(alpha) => product.select(alpha),
        None => product,
    };
    // Projection: for each result column, its position in the product.
    let pos_of = |c: &String| -> usize {
        if let Some(i) = a.cols.iter().position(|x| x == c) {
            i
        } else {
            let j = b
                .cols
                .iter()
                .position(|x| x == c)
                .expect("cols is the union of a.cols and b.cols");
            na + j
        }
    };
    if cols.is_empty() {
        // Both nullary: flags at positions 0 and max(na,1)… the product of
        // two flags is arity 2; project column 0.
        return Tr {
            expr: selected.project(vec![0]),
            cols,
        };
    }
    let keep: Vec<usize> = cols.iter().map(pos_of).collect();
    Tr {
        expr: selected.project(keep),
        cols,
    }
}

/// Aligns two translated subformulas onto the same (sorted-union) column
/// list, padding missing variables with the active-domain expression.
fn align(a: Tr, b: Tr, adom: &RaExpr) -> (Tr, Tr) {
    let mut cols: Vec<String> = a.cols.clone();
    for c in &b.cols {
        if !cols.contains(c) {
            cols.push(c.clone());
        }
    }
    cols.sort();
    (pad(a, &cols, adom), pad(b, &cols, adom))
}

fn pad(t: Tr, cols: &[String], adom: &RaExpr) -> Tr {
    if t.cols == cols {
        return t;
    }
    let base_arity = t.cols.len().max(1);
    let missing: Vec<&String> = cols.iter().filter(|c| !t.cols.contains(c)).collect();
    let mut expr = t.expr;
    for _ in &missing {
        expr = expr.product(adom.clone());
    }
    // Position of each target column.
    let keep: Vec<usize> = cols
        .iter()
        .map(|c| {
            if let Some(i) = t.cols.iter().position(|x| x == c) {
                i
            } else {
                let j = missing
                    .iter()
                    .position(|m| *m == c)
                    .expect("a column absent from t.cols is in missing by construction");
                base_arity + j
            }
        })
        .collect();
    Tr {
        expr: expr.project(keep),
        cols: cols.to_vec(),
    }
}

/// Translates one atom.
fn atom_to_tr(a: &strcalc_logic::Atom, schema: &Schema, adom: &RaExpr) -> Result<Tr, CoreError> {
    use strcalc_logic::Atom;
    match a {
        Atom::Rel(r, terms) => {
            let arity = schema
                .arity(r)
                .ok_or_else(|| CoreError::Unsupported(format!("unknown relation {r}")))?;
            if arity != terms.len() {
                return Err(CoreError::Unsupported(format!("arity mismatch on {r}")));
            }
            // Select constants and duplicate variables; project to one
            // column per distinct variable, sorted.
            let mut alpha: Option<Formula> = None;
            let add = |f: Formula, alpha: &mut Option<Formula>| {
                *alpha = Some(match alpha.take() {
                    None => f,
                    Some(prev) => prev.and(f),
                });
            };
            let mut seen: Vec<(String, usize)> = Vec::new();
            for (i, t) in terms.iter().enumerate() {
                match t {
                    Term::Const(c) => add(
                        Formula::eq(RaExpr::col(i), Term::konst(c.clone())),
                        &mut alpha,
                    ),
                    Term::Var(v) => match seen.iter().find(|(name, _)| name == v) {
                        Some(&(_, first)) => {
                            add(Formula::eq(RaExpr::col(first), RaExpr::col(i)), &mut alpha)
                        }
                        None => seen.push((v.clone(), i)),
                    },
                    _ => {
                        return Err(CoreError::Unsupported(
                            "function terms must be lowered before translation".into(),
                        ))
                    }
                }
            }
            let mut expr = RaExpr::rel(r);
            if let Some(alpha) = alpha {
                expr = expr.select(alpha);
            }
            seen.sort();
            if seen.is_empty() {
                return Ok(Tr {
                    expr: flagged(expr),
                    cols: vec![],
                });
            }
            let keep: Vec<usize> = seen.iter().map(|&(_, i)| i).collect();
            Ok(Tr {
                expr: expr.project(keep),
                cols: seen.into_iter().map(|(v, _)| v).collect(),
            })
        }
        other => {
            // A pure structure atom over distinct variables (sorted):
            // σ_α(adom^m), with α renaming variables to columns.
            let mut vars: BTreeSet<String> = BTreeSet::new();
            for t in other.terms() {
                if let Term::Var(v) = t {
                    vars.insert(v.clone());
                } else if !t.is_flat() {
                    return Err(CoreError::Unsupported(
                        "function terms must be lowered before translation".into(),
                    ));
                }
            }
            let cols: Vec<String> = vars.into_iter().collect();
            let alpha = Formula::Atom(other.map_terms(|t| match t {
                Term::Var(v) => {
                    let i = cols
                        .iter()
                        .position(|c| c == v)
                        .expect("cols collects every variable of this atom");
                    RaExpr::col(i)
                }
                t => t.clone(),
            }));
            if cols.is_empty() {
                // Ground structure atom: flag via σ over R_ε.
                return Ok(Tr {
                    expr: RaExpr::EpsilonRel.select(alpha),
                    cols,
                });
            }
            let mut dom = adom.clone();
            for _ in 1..cols.len() {
                dom = dom.product(adom.clone());
            }
            Ok(Tr {
                expr: dom.select(alpha),
                cols,
            })
        }
    }
}

/// The `γ_k` candidate set as an **algebra expression** (arity 1) —
/// the missing piece of Theorem 4's proof plan, "the bounds can be
/// computed by relational algebra expressions":
///
/// * `S`/`S_reg`: prefixes of `adom`-strings extended by ≤ `k` symbols:
///   `k` rounds of `add^r` over all letters, then `prefix`;
/// * `S_left`: additionally `k` rounds of `add^l`;
/// * `S_len`: `↓` applied to `adom` strings extended by `k` symbols.
pub fn gamma_candidates_expr(
    calculus: Calculus,
    schema: &Schema,
    alphabet_size: Sym,
    k: usize,
) -> Result<RaExpr, CoreError> {
    let adom = adom_expr(schema).ok_or_else(|| {
        CoreError::Unsupported("empty schema: no active-domain expression".into())
    })?;
    // Extend right by ≤ k symbols: C_{j+1} = C_j ∪ ⋃_a π_1(add^r_a(C_j)).
    let extend_right = |mut c: RaExpr, rounds: usize| -> RaExpr {
        for _ in 0..rounds {
            let mut next = c.clone();
            for a in 0..alphabet_size {
                next = next.union(c.clone().add_right(0, a).project(vec![1]));
            }
            c = next;
        }
        c
    };
    let extend_left = |mut c: RaExpr, rounds: usize| -> RaExpr {
        for _ in 0..rounds {
            let mut next = c.clone();
            for a in 0..alphabet_size {
                next = next.union(c.clone().add_left(0, a).project(vec![1]));
            }
            c = next;
        }
        c
    };
    let prefixes = |c: RaExpr| -> RaExpr { c.prefix(0).project(vec![1]) };
    Ok(match calculus {
        Calculus::S | Calculus::SReg => prefixes(extend_right(adom, k)),
        Calculus::SLeft => prefixes(extend_left(extend_right(adom, k), k)),
        Calculus::SLen => extend_right(adom, k).down(0).project(vec![1]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AutomataEngine;
    use crate::query::Query;
    use strcalc_alphabet::{Alphabet, Str};
    use strcalc_relational::{Database, RaEvaluator};

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    fn s(t: &str) -> Str {
        ab().parse(t).unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert("R", vec![s("ab"), s("b")]).unwrap();
        db.insert("R", vec![s("a"), s("ab")]).unwrap();
        db.insert("U", vec![s("ab")]).unwrap();
        db.insert("U", vec![s("ba")]).unwrap();
        db
    }

    /// Round trip: evaluate an algebra expression directly, and evaluate
    /// its calculus translation with the exact engine; compare.
    fn check_ra_roundtrip(e: &RaExpr) {
        let database = db();
        let schema = database.schema();
        let direct = RaEvaluator::new(ab()).eval(e, &database).unwrap();

        let formula = ra_to_calculus(e, &schema).unwrap();
        let head: Vec<String> = (0..e.arity(&schema).unwrap())
            .map(|i| format!("c{i}"))
            .collect();
        let q = Query::infer(ab(), head, formula).unwrap();
        let via_calculus = AutomataEngine::new()
            .eval(&q, &database)
            .unwrap()
            .expect_finite();
        assert_eq!(direct, via_calculus, "round trip failed for {e}");
    }

    #[test]
    fn ra_to_calculus_round_trips() {
        let cases = vec![
            RaExpr::rel("U"),
            RaExpr::EpsilonRel,
            RaExpr::rel("R").project(vec![1, 0]),
            RaExpr::rel("U").product(RaExpr::rel("U")),
            RaExpr::rel("U").union(RaExpr::rel("R").project(vec![0])),
            RaExpr::rel("U").diff(RaExpr::rel("R").project(vec![1])),
            RaExpr::rel("U").select(Formula::last_sym(RaExpr::col(0), 1)),
            RaExpr::rel("U").prefix(0),
            RaExpr::rel("U").add_right(0, 0),
            RaExpr::rel("U").add_left(0, 1),
            RaExpr::rel("U").trim_left(0, 0),
            RaExpr::rel("U").down(0),
            RaExpr::rel("R")
                .select(Formula::prefix(RaExpr::col(0), RaExpr::col(1)))
                .project(vec![0])
                .prefix(0),
        ];
        for e in &cases {
            check_ra_roundtrip(e);
        }
    }

    /// Round trip in the other direction: an active-domain-normal-form
    /// formula translated to the algebra must agree with the exact
    /// engine.
    fn check_calc_roundtrip(head: &[&str], src: &str) {
        let database = db();
        let schema = database.schema();
        let head: Vec<String> = head.iter().map(|h| h.to_string()).collect();
        let q = Query::parse(Calculus::SLen, ab(), head.clone(), src).unwrap();
        let exact = AutomataEngine::new()
            .eval(&q, &database)
            .unwrap()
            .expect_finite();

        let expr = adom_calculus_to_algebra(q.formula(), &head, &schema).unwrap();
        let via_algebra = RaEvaluator::new(ab()).eval(&expr, &database).unwrap();
        if head.is_empty() {
            // Flag convention.
            let truth = !via_algebra.is_empty();
            let exact_truth = AutomataEngine::new().eval_bool(&q, &database).unwrap();
            assert_eq!(truth, exact_truth, "{src}");
        } else {
            assert_eq!(exact, via_algebra, "{src}");
        }
    }

    #[test]
    fn adom_calculus_to_algebra_round_trips() {
        // Queries with adom-guarded heads and active-domain quantifiers.
        check_calc_roundtrip(&["x"], "U(x)");
        check_calc_roundtrip(&["x"], "U(x) & last(x, 'b')");
        check_calc_roundtrip(&["x"], "U(x) & !existsA y. (R(x, y))");
        check_calc_roundtrip(&["x", "y"], "R(x, y) & x <= y");
        check_calc_roundtrip(&["x"], "existsA y. (R(y, x) & lex(y, x))");
        check_calc_roundtrip(&["x"], "U(x) & forallA y. (U(y) -> lex(x, y))");
        check_calc_roundtrip(&["x"], "U(x) | existsA y. R(y, x)");
        check_calc_roundtrip(&[], "existsA x. (U(x) & last(x,'a'))");
        check_calc_roundtrip(&[], "existsA x. existsA y. (R(x,y) & el(x,y))");
        check_calc_roundtrip(&["x"], "U(x) & x = \"ab\"");
        check_calc_roundtrip(&["x"], "R(x, x)"); // duplicate-variable atom
    }

    #[test]
    fn unrestricted_quantifiers_are_rejected() {
        let database = db();
        let schema = database.schema();
        let f = strcalc_logic::parse_formula(&ab(), "exists y. R(x, y)").unwrap();
        assert!(matches!(
            adom_calculus_to_algebra(&f, &["x".to_string()], &schema),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn gamma_candidates_match_automaton() {
        use crate::safety::RangeRestricted;
        let database = db();
        let schema = database.schema();
        for calc in [Calculus::S, Calculus::SLeft, Calculus::SLen] {
            let k = 1usize;
            let expr = gamma_candidates_expr(calc, &schema, 2, k).unwrap();
            let rel = RaEvaluator::new(ab()).eval(&expr, &database).unwrap();
            // Compare with the automaton-built γ of RangeRestricted.
            let q = Query::parse(calc, ab(), vec!["x".into()], "U(x)").unwrap();
            let rr = RangeRestricted { query: q, k };
            let gamma = rr.gamma_automaton(&database, 0);
            for w in ab().strings_up_to(4) {
                assert_eq!(
                    rel.contains(std::slice::from_ref(&w)),
                    gamma.accepts(&[&w]),
                    "{calc:?} γ disagreement on {w}"
                );
            }
        }
    }
}
