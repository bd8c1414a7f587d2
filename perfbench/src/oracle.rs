//! Independent answers for every distinct read, computed once per run
//! outside the timed region.

use std::collections::BTreeSet;

use strcalc_alphabet::{Str, Sym};
use strcalc_automata::Dfa;
use strcalc_core::{EvalOutput, Planner, Strategy};
use strcalc_relational::{Database, Relation};

use crate::session::{Session, Tracer};
use crate::workload::{Inputs, Oracle, Read, CONCAT_BOUND};

fn unary_column<'a>(db: &'a Database, relation: &str) -> Result<&'a Relation, String> {
    db.relation(relation)
        .ok_or_else(|| format!("relation {relation} is missing"))
}

/// The answer `read` must produce on the session's database, by its
/// oracle's route.
pub fn expected(inputs: &Inputs, session: &Session, read: &Read) -> Result<EvalOutput, String> {
    match &read.oracle {
        Oracle::DfaFilter { relation, regex } => {
            let dfa = Dfa::from_regex(inputs.alphabet.len() as Sym, regex);
            let rel = unary_column(&session.db, relation)?;
            let rows = rel.iter().filter(|t| dfa.accepts(&t[0])).cloned();
            Ok(EvalOutput::Finite(Relation::from_tuples(1, rows)))
        }
        Oracle::ForcedAutomata => {
            let planner = Planner::new().force(Strategy::Automata);
            let plan = session.plan(inputs, read, &planner, &mut Tracer::new())?;
            let (output, report) = plan.execute(&session.db).map_err(|e| e.to_string())?;
            if !report.verdict.is_exact() {
                return Err(format!(
                    "forced automata route degraded: {:?}",
                    report.verdict
                ));
            }
            Ok(output)
        }
        Oracle::ConcatPairs { relation } => {
            let column: Vec<&Str> = unary_column(&session.db, relation)?
                .iter()
                .map(|t| &t[0])
                .collect();
            let rows: BTreeSet<Vec<Str>> = column
                .iter()
                .flat_map(|x| column.iter().map(move |y| (*x, *y)))
                .filter(|(x, y)| x.len() + y.len() <= CONCAT_BOUND)
                .map(|(x, y)| vec![x.clone(), y.clone(), x.concat(y)])
                .collect();
            Ok(EvalOutput::Finite(Relation::from_tuples(3, rows)))
        }
    }
}
