//! The paper's Section-1 motivation, end to end: SQL string predicates
//! (`FACULTY.NAME LIKE …`) compiled into the composable calculi, with
//! the minimal sufficient calculus inferred per query.
//!
//! ```sh
//! cargo run --example employee_directory
//! ```

use strcalc::alphabet::Alphabet;
use strcalc::core::ExecCx;
use strcalc::relational::Database;
use strcalc::sqlfront::{run_sql, Catalog};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small name alphabet (keep it lean: automata over Σ pay per
    // letter in the complement steps).
    let sigma = Alphabet::new("abcdeglnorsy")?;

    let mut catalog = Catalog::new();
    catalog.add_table("faculty", &["name", "dept"]);
    catalog.add_table("dept", &["head"]);

    let mut db = Database::new();
    let rows = [
        ("nyberg", "cs"),
        ("nycole", "cs"),
        ("anders", "ee"),
        ("llosa", "cs"),
        ("nyssa", "ee"),
        ("barnes", "cs"),
    ];
    for (name, dept) in rows {
        db.insert("faculty", vec![sigma.parse(name)?, sigma.parse(dept)?])?;
    }
    db.insert("dept", vec![sigma.parse("nyberg")?])?;
    db.insert("dept", vec![sigma.parse("anders")?])?;

    let queries = [
        // The paper's literal example (modulo spelling): names starting
        // with "ny" — a LIKE query, pure RC(S).
        "SELECT f.name FROM faculty f WHERE f.name LIKE 'ny%'",
        // Composed string + relational logic: department heads whose name
        // starts with 'n' — LIKE over a subquery'd column, which SQL
        // proper cannot compose freely (the paper's complaint).
        "SELECT f.name, f.dept FROM faculty f WHERE f.name LIKE 'n%' AND \
         f.name IN (SELECT d.head FROM dept d)",
        // SIMILAR (regular) pattern: alternating 'n'/'y' blocks — needs
        // RC(S_reg) when the language is not star-free.
        "SELECT f.name FROM faculty f WHERE f.name SIMILAR TO '(ny)+%'",
        // Length comparison — jumps to RC(S_len).
        "SELECT f.name FROM faculty f WHERE LENGTH(f.dept) < LENGTH(f.name)",
        // TRIM LEADING — RC(S_left).
        "SELECT f.name FROM faculty f WHERE TRIM(LEADING 'n' FROM f.name) LIKE 'y%'",
        // Lexicographic self-join.
        "SELECT f.name, g.name FROM faculty f, faculty g \
         WHERE f.dept = g.dept AND f.name < g.name",
    ];

    for sql in queries {
        println!("SQL> {sql}");
        let (compiled, out, _) = run_sql(&sigma, &catalog, &db, sql, &ExecCx::production())?;
        println!("  minimal calculus: {}", compiled.calculus());
        match out {
            strcalc::core::EvalOutput::Finite(rel) => {
                for t in rel.iter() {
                    let row: Vec<String> = t.iter().map(|s| sigma.render(s)).collect();
                    println!("  {}", row.join(" | "));
                }
                if rel.is_empty() {
                    println!("  (no rows)");
                }
            }
            strcalc::core::EvalOutput::Infinite { .. } => {
                println!("  (infinite — not a safe query)");
            }
        }
        println!();
    }
    Ok(())
}
