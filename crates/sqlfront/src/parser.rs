//! SQL tokenizer, AST and parser.

use std::collections::BTreeMap;
use std::fmt;

use strcalc_alphabet::{Alphabet, Str, Sym};
pub use strcalc_logic::MAX_NESTING_DEPTH;

/// Table schema catalog: table name → ordered column names.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Vec<String>>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn add_table(&mut self, name: impl Into<String>, columns: &[&str]) -> &mut Catalog {
        self.tables.insert(
            name.into().to_lowercase(),
            columns.iter().map(|c| c.to_lowercase()).collect(),
        );
        self
    }

    pub fn columns(&self, table: &str) -> Option<&[String]> {
        self.tables.get(&table.to_lowercase()).map(Vec::as_slice)
    }
}

/// Parse/compile errors. Errors that originate from a stable analyzer
/// diagnostic (static analysis, translation validation, planlint)
/// carry its code so callers can dispatch without parsing the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    pub pos: usize,
    pub msg: String,
    /// Stable diagnostic code (`SA0xx`/`SA1xx`/`SA2xx`) when the error
    /// came from an analyzer pass; `None` for parse/catalog errors.
    pub code: Option<String>,
    pub kind: SqlErrorKind,
}

/// What a [`SqlError`] refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlErrorKind {
    /// A malformed or unsupported statement.
    Invalid,
    /// A statement nesting deeper than [`MAX_NESTING_DEPTH`] levels:
    /// one per parenthesis, `NOT` and `TRIM` term and `AND`/`OR` chain
    /// link, two per subquery; or a `SIMILAR` pattern whose groups and
    /// postfix operators nest past the same cap.
    NestingTooDeep,
}

impl SqlError {
    pub fn new(pos: usize, msg: impl Into<String>) -> SqlError {
        SqlError {
            pos,
            msg: msg.into(),
            code: None,
            kind: SqlErrorKind::Invalid,
        }
    }

    /// Attaches the diagnostic code the error originated from.
    pub fn with_code(mut self, code: impl Into<String>) -> SqlError {
        self.code = Some(code.into());
        self
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.code {
            Some(code) => write!(f, "SQL error [{code}] at {}: {}", self.pos, self.msg),
            None => write!(f, "SQL error at {}: {}", self.pos, self.msg),
        }
    }
}

impl std::error::Error for SqlError {}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: String,
    pub alias: String,
}

/// A term in a condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlTerm {
    /// `alias.column` or bare `column`.
    Col {
        qualifier: Option<String>,
        column: String,
    },
    /// A string literal.
    Lit(Str),
    /// `TRIM(LEADING 'c' FROM t)`.
    TrimLeading(Sym, Box<SqlTerm>),
}

/// A WHERE condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    And(Box<Cond>, Box<Cond>),
    Or(Box<Cond>, Box<Cond>),
    Not(Box<Cond>),
    Like {
        term: SqlTerm,
        pattern: String,
        negated: bool,
    },
    Similar {
        term: SqlTerm,
        pattern: String,
        negated: bool,
    },
    Eq(SqlTerm, SqlTerm),
    LexLt(SqlTerm, SqlTerm),
    LexLe(SqlTerm, SqlTerm),
    Prefix(SqlTerm, SqlTerm),
    LenCmp {
        left: SqlTerm,
        right: SqlTerm,
        op: LenOp,
    },
    Exists(Box<Select>),
    In {
        term: SqlTerm,
        subquery: Box<Select>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LenOp {
    Eq,
    Lt,
    Le,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub columns: Vec<SqlTerm>,
    pub from: Vec<TableRef>,
    pub cond: Option<Cond>,
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String), // lowercased identifier or keyword
    Lit(String),  // 'single quoted'
    Comma,
    Dot,
    LParen,
    RParen,
    Eq,
    Lt,
    Le,
}

fn tokenize(sql: &str) -> Result<Vec<(usize, Tok)>, SqlError> {
    let chars: Vec<char> = sql.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let start = i;
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                out.push((start, Tok::Comma));
                i += 1;
            }
            '.' => {
                out.push((start, Tok::Dot));
                i += 1;
            }
            '(' => {
                out.push((start, Tok::LParen));
                i += 1;
            }
            ')' => {
                out.push((start, Tok::RParen));
                i += 1;
            }
            '=' => {
                out.push((start, Tok::Eq));
                i += 1;
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push((start, Tok::Le));
                    i += 2;
                } else {
                    out.push((start, Tok::Lt));
                    i += 1;
                }
            }
            '\'' => {
                i += 1;
                let lit_start = i;
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(SqlError::new(start, "unterminated string literal"));
                }
                out.push((start, Tok::Lit(chars[lit_start..i].iter().collect())));
                i += 1;
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                out.push((start, Tok::Word(word.to_lowercase())));
                i = j;
            }
            other => return Err(SqlError::new(i, format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Parses a SELECT statement. The alphabet validates string literals
/// inside `TRIM(LEADING 'c' …)`; `LIKE`/`SIMILAR` patterns are validated
/// at compile time.
pub fn parse_select(alphabet: &Alphabet, sql: &str) -> Result<Select, SqlError> {
    let tokens = tokenize(sql)?;
    let mut p = P {
        alphabet,
        toks: &tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.select()?;
    if p.pos != p.toks.len() {
        return Err(p.err("trailing input"));
    }
    Ok(stmt)
}

struct P<'a> {
    alphabet: &'a Alphabet,
    toks: &'a [(usize, Tok)],
    pos: usize,
    /// Levels currently open; see [`MAX_NESTING_DEPTH`].
    depth: usize,
}

impl<'a> P<'a> {
    /// Runs `f` one nesting level deeper. The level is closed again
    /// whatever `f` returns, so the count stays balanced on error paths.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// The refusal of input nested past [`MAX_NESTING_DEPTH`].
    fn too_deep(&self) -> SqlError {
        let mut e = self.err(format!("nesting deeper than {MAX_NESTING_DEPTH} levels"));
        e.kind = SqlErrorKind::NestingTooDeep;
        e
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(_, t)| t)
    }

    fn err(&self, msg: impl Into<String>) -> SqlError {
        SqlError::new(
            self.toks
                .get(self.pos)
                .map(|(p, _)| *p)
                .unwrap_or(usize::MAX),
            msg,
        )
    }

    fn keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        match self.peek() {
            Some(Tok::Word(w)) if w == kw => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {}", kw.to_uppercase()))),
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w == kw)
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.peek() {
            Some(Tok::Word(w)) if !is_reserved(w) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.err("expected an identifier")),
        }
    }

    fn eat(&mut self, t: &Tok) -> Result<(), SqlError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn select(&mut self) -> Result<Select, SqlError> {
        self.keyword("select")?;
        let mut columns = vec![self.term()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            columns.push(self.term()?);
        }
        self.keyword("from")?;
        let mut from = vec![self.table_ref()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            from.push(self.table_ref()?);
        }
        let cond = if self.is_keyword("where") {
            self.pos += 1;
            Some(self.cond()?)
        } else {
            None
        };
        Ok(Select {
            columns,
            from,
            cond,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let table = self.ident()?;
        let alias = match self.peek() {
            Some(Tok::Word(w)) if !is_reserved(w) => {
                let a = w.clone();
                self.pos += 1;
                a
            }
            _ => table.clone(),
        };
        Ok(TableRef { table, alias })
    }

    fn cond(&mut self) -> Result<Cond, SqlError> {
        self.chain("or", Self::cond_and, Cond::Or)
    }

    fn cond_and(&mut self) -> Result<Cond, SqlError> {
        self.chain("and", Self::cond_unary, Cond::And)
    }

    /// A left-deep chain `operand (keyword operand)*`. As in the formula
    /// parser, the `n`-th link nests the chain so far `n` levels deep, so
    /// it counts as `n` open levels; the operands parse at the chain's.
    fn chain(
        &mut self,
        keyword: &str,
        operand: fn(&mut Self) -> Result<Cond, SqlError>,
        join: fn(Box<Cond>, Box<Cond>) -> Cond,
    ) -> Result<Cond, SqlError> {
        let mut c = operand(self)?;
        let mut links = 0;
        while self.is_keyword(keyword) {
            links += 1;
            if self.depth + links > MAX_NESTING_DEPTH {
                return Err(self.too_deep());
            }
            self.pos += 1;
            c = join(Box::new(c), Box::new(operand(self)?));
        }
        Ok(c)
    }

    fn cond_unary(&mut self) -> Result<Cond, SqlError> {
        if self.is_keyword("not") {
            self.pos += 1;
            return Ok(Cond::Not(Box::new(self.nested(Self::cond_unary)?)));
        }
        if self.is_keyword("exists") {
            self.pos += 1;
            self.eat(&Tok::LParen)?;
            let sub = self.subquery()?;
            self.eat(&Tok::RParen)?;
            return Ok(Cond::Exists(Box::new(sub)));
        }
        if self.peek() == Some(&Tok::LParen) && self.looks_like_cond_paren() {
            self.pos += 1;
            let c = self.nested(Self::cond)?;
            self.eat(&Tok::RParen)?;
            return Ok(c);
        }
        if self.is_keyword("length") {
            return self.len_cmp();
        }
        if self.is_keyword("prefix") {
            self.pos += 1;
            self.eat(&Tok::LParen)?;
            let a = self.term()?;
            self.eat(&Tok::Comma)?;
            let b = self.term()?;
            self.eat(&Tok::RParen)?;
            return Ok(Cond::Prefix(a, b));
        }
        // term-headed predicates.
        let t = self.term()?;
        if self.is_keyword("not") {
            self.pos += 1;
            if self.is_keyword("like") {
                self.pos += 1;
                let pat = self.literal()?;
                return Ok(Cond::Like {
                    term: t,
                    pattern: pat,
                    negated: true,
                });
            }
            if self.is_keyword("similar") {
                self.pos += 1;
                self.keyword("to")?;
                let pat = self.literal()?;
                return Ok(Cond::Similar {
                    term: t,
                    pattern: pat,
                    negated: true,
                });
            }
            return Err(self.err("expected LIKE or SIMILAR after NOT"));
        }
        if self.is_keyword("like") {
            self.pos += 1;
            let pat = self.literal()?;
            return Ok(Cond::Like {
                term: t,
                pattern: pat,
                negated: false,
            });
        }
        if self.is_keyword("similar") {
            self.pos += 1;
            self.keyword("to")?;
            let pat = self.literal()?;
            return Ok(Cond::Similar {
                term: t,
                pattern: pat,
                negated: false,
            });
        }
        if self.is_keyword("in") {
            self.pos += 1;
            self.eat(&Tok::LParen)?;
            let sub = self.subquery()?;
            self.eat(&Tok::RParen)?;
            return Ok(Cond::In {
                term: t,
                subquery: Box::new(sub),
            });
        }
        match self.peek() {
            Some(Tok::Eq) => {
                self.pos += 1;
                Ok(Cond::Eq(t, self.term()?))
            }
            Some(Tok::Lt) => {
                self.pos += 1;
                Ok(Cond::LexLt(t, self.term()?))
            }
            Some(Tok::Le) => {
                self.pos += 1;
                Ok(Cond::LexLe(t, self.term()?))
            }
            _ => Err(self.err("expected a predicate")),
        }
    }

    /// The `SELECT` of an `EXISTS` / `IN` subquery, whose `(` is
    /// consumed: two levels, the parenthesis and the statement it opens.
    fn subquery(&mut self) -> Result<Select, SqlError> {
        self.nested(|p| p.nested(Self::select))
    }

    /// Disambiguates `( cond )` from a parenthesized… we have no
    /// parenthesized terms, so any `(` here opens a condition.
    fn looks_like_cond_paren(&self) -> bool {
        true
    }

    fn len_cmp(&mut self) -> Result<Cond, SqlError> {
        self.keyword("length")?;
        self.eat(&Tok::LParen)?;
        let left = self.term()?;
        self.eat(&Tok::RParen)?;
        let op = match self.peek() {
            Some(Tok::Eq) => LenOp::Eq,
            Some(Tok::Lt) => LenOp::Lt,
            Some(Tok::Le) => LenOp::Le,
            _ => return Err(self.err("expected =, < or <= after LENGTH(…)")),
        };
        self.pos += 1;
        self.keyword("length")?;
        self.eat(&Tok::LParen)?;
        let right = self.term()?;
        self.eat(&Tok::RParen)?;
        Ok(Cond::LenCmp { left, right, op })
    }

    fn term(&mut self) -> Result<SqlTerm, SqlError> {
        if self.is_keyword("trim") {
            self.pos += 1;
            self.eat(&Tok::LParen)?;
            self.keyword("leading")?;
            let lit = self.literal()?;
            let mut chars = lit.chars();
            let (Some(c), None) = (chars.next(), chars.next()) else {
                return Err(self.err("TRIM LEADING takes a single character"));
            };
            let sym = self
                .alphabet
                .sym_of(c)
                .map_err(|e| self.err(e.to_string()))?;
            self.keyword("from")?;
            let inner = self.nested(Self::term)?;
            self.eat(&Tok::RParen)?;
            return Ok(SqlTerm::TrimLeading(sym, Box::new(inner)));
        }
        match self.peek().cloned() {
            Some(Tok::Lit(text)) => {
                self.pos += 1;
                let s = self
                    .alphabet
                    .parse(&text)
                    .map_err(|e| self.err(e.to_string()))?;
                Ok(SqlTerm::Lit(s))
            }
            Some(Tok::Word(w)) if !is_reserved(&w) => {
                self.pos += 1;
                if self.peek() == Some(&Tok::Dot) {
                    if let Some(Tok::Word(col)) = self.peek2().cloned() {
                        self.pos += 2;
                        return Ok(SqlTerm::Col {
                            qualifier: Some(w),
                            column: col,
                        });
                    }
                    return Err(self.err("expected a column after '.'"));
                }
                Ok(SqlTerm::Col {
                    qualifier: None,
                    column: w,
                })
            }
            _ => Err(self.err("expected a term")),
        }
    }

    fn literal(&mut self) -> Result<String, SqlError> {
        match self.peek().cloned() {
            Some(Tok::Lit(text)) => {
                self.pos += 1;
                Ok(text)
            }
            _ => Err(self.err("expected a string literal")),
        }
    }
}

fn is_reserved(w: &str) -> bool {
    matches!(
        w,
        "select"
            | "from"
            | "where"
            | "and"
            | "or"
            | "not"
            | "like"
            | "similar"
            | "to"
            | "exists"
            | "in"
            | "length"
            | "prefix"
            | "trim"
            | "leading"
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::ab()
    }

    #[test]
    fn parses_basic_select() {
        let s = parse_select(&ab(), "SELECT f.name FROM faculty f WHERE f.name LIKE 'a%'").unwrap();
        assert_eq!(s.columns.len(), 1);
        assert_eq!(s.from[0].table, "faculty");
        assert_eq!(s.from[0].alias, "f");
        assert!(matches!(s.cond, Some(Cond::Like { negated: false, .. })));
    }

    #[test]
    fn parses_connectives_and_predicates() {
        let s = parse_select(
            &ab(),
            "SELECT r.x FROM r WHERE (r.x LIKE 'a%' OR r.x SIMILAR TO '(ab)*') \
             AND NOT r.x = 'ab' AND LENGTH(r.x) <= LENGTH(r.y) AND PREFIX(r.x, r.y) \
             AND r.x < r.y",
        )
        .unwrap();
        let cond = s.cond.unwrap();
        // Just structural smoke tests.
        fn count_preds(c: &Cond) -> usize {
            match c {
                Cond::And(a, b) | Cond::Or(a, b) => count_preds(a) + count_preds(b),
                Cond::Not(a) => count_preds(a),
                _ => 1,
            }
        }
        assert_eq!(count_preds(&cond), 6);
    }

    #[test]
    fn parses_subqueries() {
        let s = parse_select(
            &ab(),
            "SELECT f.name FROM faculty f WHERE EXISTS (SELECT d.head FROM dept d \
             WHERE d.head = f.name) AND f.name IN (SELECT u.x FROM u)",
        )
        .unwrap();
        assert!(matches!(s.cond, Some(Cond::And(..))));
    }

    #[test]
    fn parses_trim() {
        let s = parse_select(
            &ab(),
            "SELECT r.x FROM r WHERE TRIM(LEADING 'a' FROM r.x) = r.y",
        )
        .unwrap();
        match s.cond.unwrap() {
            Cond::Eq(SqlTerm::TrimLeading(0, _), _) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_select(&ab(), "SELECT FROM r").is_err());
        assert!(parse_select(&ab(), "SELECT r.x FROM r WHERE").is_err());
        assert!(parse_select(&ab(), "SELECT r.x FROM r WHERE r.x LIKE").is_err());
        assert!(parse_select(&ab(), "SELECT r.x FROM r WHERE r.x = 'unterminated").is_err());
        assert!(parse_select(&ab(), "SELECT r.x FROM r extra garbage ( ").is_err());
        assert!(parse_select(
            &ab(),
            "SELECT r.x FROM r WHERE TRIM(LEADING 'ab' FROM r.x) = r.y"
        )
        .is_err());
    }

    fn kind(sql: &str) -> Option<SqlErrorKind> {
        parse_select(&ab(), sql).err().map(|e| e.kind)
    }

    #[test]
    fn nesting_is_capped() {
        // The cap is sized for a main thread's 8 MiB stack; unoptimized
        // builds overflow the test harness's 2 MiB worker threads first.
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(nesting_cap)
            .expect("spawn")
            .join()
            .expect("no panic");
    }

    fn nesting_cap() {
        let deep = Some(SqlErrorKind::NestingTooDeep);
        let select = "SELECT r.x FROM r WHERE ";
        let n = 10_000;
        let parens = |n: usize| format!("{select}{}r.x = r.y{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(kind(&parens(n)), deep);
        assert_eq!(
            kind(&format!("{select}{}r.x = r.y", "NOT ".repeat(n))),
            deep
        );
        let subqueries = |n: usize| {
            format!(
                "{select}{}r.x = r.y{}",
                "EXISTS (SELECT r.x FROM r WHERE ".repeat(n),
                ")".repeat(n)
            )
        };
        assert_eq!(kind(&subqueries(n)), deep);
        let trims = format!(
            "{select}{}r.x{} = r.y",
            "TRIM(LEADING 'a' FROM ".repeat(n),
            ")".repeat(n)
        );
        assert_eq!(kind(&trims), deep);
        // At the cap the statement parses; one level more does not. A
        // subquery opens two levels.
        assert_eq!(kind(&parens(MAX_NESTING_DEPTH)), None);
        assert_eq!(kind(&parens(MAX_NESTING_DEPTH + 1)), deep);
        assert_eq!(kind(&subqueries(MAX_NESTING_DEPTH / 2)), None);
        assert_eq!(kind(&subqueries(MAX_NESTING_DEPTH / 2 + 1)), deep);
        // Each link of an AND/OR chain counts one level, as in the
        // formula parser.
        let chain =
            |sep: &str, links: usize| format!("{select}{}", vec!["r.x = r.y"; links + 1].join(sep));
        for sep in [" AND ", " OR "] {
            assert_eq!(kind(&chain(sep, MAX_NESTING_DEPTH)), None);
            assert_eq!(kind(&chain(sep, MAX_NESTING_DEPTH + 1)), deep);
        }
        // Other errors keep their kind.
        assert_eq!(kind("SELECT FROM r"), Some(SqlErrorKind::Invalid));
    }
}
