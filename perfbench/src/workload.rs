//! The three workloads: their seeded inputs and their fixed operation
//! sequences.
//!
//! Everything here is input generation from the seed: the
//! `strcalc-workloads` generator for relations and literals, and a
//! seeded `StdRng` for the rows writes insert. It runs outside the timed
//! regions, so the program under test receives nothing but the generated
//! rows and statement texts.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strcalc_alphabet::{Alphabet, Str};
use strcalc_automata::Regex;
use strcalc_core::Calculus;
use strcalc_workloads::Workload;

/// The frozen formula corpus of `short_stmt`: the fig. 2 probes and the
/// fragment-inference fixtures.
const CORPUS: &str = include_str!("../corpus/short_stmt.queries");

/// Full-scan general filters: none is LIKE-shaped, so each routes to the
/// dense tier, and none has a reachable dead state, so every byte of the
/// column is scanned.
pub const DENSE_PATTERNS: [&str; 3] = ["b.*a.*", "(b*ab*a)*b*", "a.*b.*a"];

/// The trap filter: `(aa)*` dies on the first `b` of almost every row.
const TRAP_PATTERN: &str = "(aa)*";

/// The length bound of the bounded search the concat fragment runs
/// under: its variables range over `Σ^{≤B}`.
pub const CONCAT_BOUND: usize = 4;

/// Ternary relation written by every workload. No read names it, so every
/// read's answer is fixed for a whole run, while each write still changes
/// the instance fingerprint that the automaton cache keys on. Its strings
/// are drawn from those already stored, so writes never grow the active
/// domain that some reads enumerate. Triples over even the smallest
/// catalog's strings number about 10⁵, so a write almost never repeats
/// rows already stored and leaves the fingerprint as it was.
pub const WRITE_RELATION: &str = "W";

/// Rows one write inserts into [`WRITE_RELATION`]: enough that a write's
/// latency is not decided by the state of the CPU caches the read before
/// it left behind.
const WRITE_BATCH: usize = 32;

/// Rows `W` may hold before the run empties it again, outside the timed
/// region. Every cached read fingerprints the whole instance, `W`
/// included, so an unbounded `W` would make each read slower than the
/// one before and a run's figures depend on its length.
pub const WRITE_CAP: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ShortStmt,
    ScanLarge,
    CacheChurn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "short_stmt" => Some(Kind::ShortStmt),
            "scan_large" => Some(Kind::ScanLarge),
            "cache_churn" => Some(Kind::CacheChurn),
            _ => None,
        }
    }
}

/// Full size, or the tiny size the self-test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The text a read submits.
pub enum Statement {
    Sql(String),
    Formula {
        calculus: Calculus,
        head: Vec<String>,
        text: String,
    },
}

/// The independent route a read's answer is checked against.
pub enum Oracle {
    /// A sparse `Dfa::accepts` filter over the single column of a unary
    /// relation.
    DfaFilter { relation: String, regex: Regex },
    /// The same statement planned with `Strategy::Automata` forced and no
    /// cache.
    ForcedAutomata,
    /// `{(x, y, xy) : x, y ∈ relation, |xy| <= CONCAT_BOUND}`, computed
    /// directly: the bounded answer of the concat fragment, which has no
    /// automata route.
    ConcatPairs { relation: String },
}

pub struct Read {
    pub label: String,
    pub statement: Statement,
    pub oracle: Oracle,
}

/// A stored relation and the rows set-up loads into it.
pub struct Table {
    pub name: String,
    /// Column names, for the SQL catalog; `None` keeps the table out of
    /// the catalog.
    pub columns: Option<Vec<String>>,
    pub arity: usize,
    pub rows: Vec<Vec<Str>>,
}

/// What one workload runs, generated from its seed.
pub struct Inputs {
    pub alphabet: Alphabet,
    pub tables: Vec<Table>,
    /// The distinct reads, in round-robin order.
    pub reads: Vec<Read>,
    /// The distinct stored strings the written rows are drawn from.
    pool: Vec<Str>,
    /// Seeds the stream of written rows.
    seed: u64,
    /// Every `write_every`-th operation is a write; the rest are reads.
    pub write_every: usize,
    /// Operations in the run.
    pub ops: usize,
    /// Operations the client thread runs on one CPU before it moves to
    /// the next (see `cpus.rs`): whole write periods.
    pub cpu_turn: usize,
    /// Byte budget of the shared automaton cache; `None` runs uncached.
    pub cache_budget: Option<usize>,
    /// How often set-up is timed in one run, on each CPU in turn.
    pub setup_reps: usize,
    /// Whether formula reads run the static analyzer before planning, as
    /// a client linting each statement would.
    pub lint: bool,
}

impl Inputs {
    /// The stream of write batches, in order. Batches are drawn as the
    /// run reaches them, so memory does not grow with the run's length.
    pub fn write_batches(&self) -> impl Iterator<Item = Vec<Vec<Str>>> + '_ {
        let mut rng = StdRng::seed_from_u64(self.seed);
        std::iter::repeat_with(move || {
            let mut pick = || self.pool[rng.gen_range(0..self.pool.len())].clone();
            (0..WRITE_BATCH)
                .map(|_| vec![pick(), pick(), pick()])
                .collect()
        })
    }

    /// The operation at position `i` of the sequence: `Err(w)` for the
    /// `w`-th write, `Ok(r)` for a read of `reads[r]`.
    pub fn op(&self, i: usize) -> Result<usize, usize> {
        let writes_before = (i + 1) / self.write_every;
        if (i + 1).is_multiple_of(self.write_every) {
            Err(writes_before - 1)
        } else {
            Ok((i - writes_before) % self.reads.len())
        }
    }
}

/// Operations per second of `--seconds` each workload runs. The count is
/// fixed from the requested seconds, never from measured speed, so every
/// count a run reports is a function of its seed and its length alone.
fn nominal_ops_per_second(kind: Kind) -> f64 {
    match kind {
        Kind::ShortStmt => 800.0,
        Kind::ScanLarge => 350.0,
        Kind::CacheChurn => 5000.0,
    }
}

pub fn generate(kind: Kind, size: Size, seed: u64, seconds: u64) -> Inputs {
    let alphabet = Alphabet::ab();
    let mut w = Workload::new(alphabet.clone(), seed);
    let mut inputs = match kind {
        Kind::ShortStmt => short_stmt(&alphabet, &mut w),
        Kind::ScanLarge => scan_large(&alphabet, &mut w, size),
        Kind::CacheChurn => cache_churn(&alphabet, &mut w),
    };
    inputs.ops = match size {
        // Two passes over every read, with the writes between them.
        Size::Tiny => 2 * inputs.reads.len() + 2 * inputs.reads.len() / inputs.write_every,
        Size::Full => (seconds as f64 * nominal_ops_per_second(kind)).round() as usize,
    };
    // Whole write periods, at least two, so each run ends on the same
    // phase and every run writes.
    inputs.ops = inputs.ops.div_ceil(inputs.write_every).max(2) * inputs.write_every;
    // About a quarter of a second per CPU: a run of a few seconds visits
    // each CPU many times, and a move's cold caches cost little beside it.
    let turn_ops = match size {
        Size::Tiny => 1,
        Size::Full => (0.25 * nominal_ops_per_second(kind)) as usize,
    };
    inputs.cpu_turn = turn_ops.div_ceil(inputs.write_every) * inputs.write_every;
    let stored: BTreeSet<&Str> = inputs
        .tables
        .iter()
        .flat_map(|t| t.rows.iter().flatten())
        .collect();
    inputs.pool = stored.into_iter().cloned().collect();
    inputs.seed = seed;
    inputs.tables.push(Table {
        name: WRITE_RELATION.into(),
        columns: None,
        arity: 3,
        rows: Vec::new(),
    });
    inputs
}

fn unary(name: &str, rows: Vec<Str>) -> Table {
    Table {
        name: name.into(),
        columns: None,
        arity: 1,
        rows: rows.into_iter().map(|s| vec![s]).collect(),
    }
}

/// A seeded half of the strings of each length in `lengths`. The
/// relation's size, length profile and (nearly complete) prefix closure
/// are the same for every seed, so the automata built over it, and the
/// answers read from it, cost about the same whatever the seed.
fn half_of_each_length(
    alphabet: &Alphabet,
    w: &mut Workload,
    lengths: std::ops::RangeInclusive<usize>,
) -> Vec<Str> {
    let mut out = Vec::new();
    for len in lengths {
        let mut keyed: Vec<(Str, Str)> = alphabet
            .strings_exactly(len)
            .map(|s| (w.random_string(32, 32), s))
            .collect();
        let half = keyed.len().div_ceil(2);
        keyed.sort();
        out.extend(keyed.into_iter().take(half).map(|(_, s)| s));
    }
    out
}

/// The two letters of the `ab` alphabet in seeded order. A template
/// written over `x` and `y` costs the same under either order, because
/// generated strings are as likely to hold `a` as `b`.
fn letters(w: &mut Workload) -> (char, char) {
    if w.random_string(1, 1).first() == Some(0) {
        ('a', 'b')
    } else {
        ('b', 'a')
    }
}

fn s_reg_filter(relation: &str, pattern: &str) -> Statement {
    Statement::Formula {
        calculus: Calculus::SReg,
        head: vec!["x".into()],
        text: format!("{relation}(x) & in(x, /{pattern}/)"),
    }
}

fn corpus_reads() -> Vec<Read> {
    CORPUS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let parts: Vec<&str> = line.splitn(3, '|').map(str::trim).collect();
            let calculus = match parts[0] {
                "S" => Calculus::S,
                "S_left" => Calculus::SLeft,
                "S_reg" => Calculus::SReg,
                "S_len" => Calculus::SLen,
                other => panic!("corpus line names unknown calculus {other:?}"),
            };
            let text = parts[2].to_string();
            let oracle = if text.contains("concat(") {
                Oracle::ConcatPairs {
                    relation: "R".into(),
                }
            } else {
                Oracle::ForcedAutomata
            };
            Read {
                label: format!("{} | {} | {}", parts[0], parts[1], text),
                statement: Statement::Formula {
                    calculus,
                    head: parts[1].split_whitespace().map(String::from).collect(),
                    text,
                },
                oracle,
            }
        })
        .collect()
}

/// Planning-heavy: every statement runs cold through the whole front end
/// over a small catalog.
fn short_stmt(alphabet: &Alphabet, w: &mut Workload) -> Inputs {
    let faculty: Vec<Vec<Str>> = (0..200)
        .map(|_| vec![w.random_string(1, 8), w.random_string(1, 4)])
        .collect();
    let dept: Vec<Vec<Str>> = (0..16).map(|_| vec![w.random_string(1, 8)]).collect();
    let u = half_of_each_length(alphabet, w, 0..=5);
    let r = half_of_each_length(alphabet, w, 1..=5);
    let mut t: Vec<Vec<Str>> = (0..32)
        .map(|_| vec![w.random_string(1, 6), w.random_string(1, 6)])
        .collect();
    t.extend((0..8).map(|_| {
        let s = w.random_string(1, 6);
        vec![s.clone(), s]
    }));

    let lit = |w: &mut Workload, len: usize| alphabet.render(&w.random_string(len, len));
    // A template's shape is fixed and the seed picks only among literals
    // of the same selectivity on generated data: any two letters as a
    // prefix or suffix, a two-letter infix of distinct letters, and the
    // letter order of a SIMILAR pattern.
    //
    // The counts place both percentiles inside one class of statement.
    // Sorted by cost, the 37 reads are 11 single-relation filters
    // (≈0.2 ms), 22 LIKE / SIMILAR statements and probes (≈0.5–0.9 ms),
    // one comparison join, two EXISTS statements (≈4 ms) and the concat
    // search (≈10 ms): the median falls among the 22, the 95th percentile
    // in the middle of the EXISTS pair.
    let mut sql = Vec::new();
    for i in 0..9 {
        if i % 4 == 0 && i > 0 {
            sql.push(format!(
                "SELECT f.name FROM faculty f WHERE EXISTS \
                 (SELECT d.head FROM dept d WHERE PREFIX(d.head, f.name)) \
                 AND f.dept LIKE '{}%'",
                lit(w, 2)
            ));
        }
        let (x, y) = letters(w);
        let like = match i % 3 {
            0 => format!("{}%", lit(w, 2)),
            1 => format!("%{}", lit(w, 2)),
            _ => format!("%{x}{y}%"),
        };
        sql.push(format!(
            "SELECT f.name FROM faculty f WHERE f.name LIKE '{like}'"
        ));
        let similar = match i / 3 {
            0 => format!("({x}|{x}{y})+"),
            1 => format!("({x}|{y}{x})+"),
            _ => format!("({x}|{y}{y})+"),
        };
        sql.push(format!(
            "SELECT f.name FROM faculty f WHERE f.name SIMILAR TO '{similar}'"
        ));
    }
    let corpus = corpus_reads();
    // Interleave the two halves so drift lands on both alike.
    let mut reads = Vec::new();
    let mut sql = sql.into_iter().map(|text| Read {
        label: text.clone(),
        statement: Statement::Sql(text),
        oracle: Oracle::ForcedAutomata,
    });
    let mut corpus = corpus.into_iter();
    loop {
        match (sql.next(), corpus.next()) {
            (None, None) => break,
            (a, b) => reads.extend(a.into_iter().chain(b)),
        }
    }

    Inputs {
        alphabet: alphabet.clone(),
        tables: vec![
            Table {
                name: "faculty".into(),
                columns: Some(vec!["name".into(), "dept".into()]),
                arity: 2,
                rows: faculty,
            },
            Table {
                name: "dept".into(),
                columns: Some(vec!["head".into()]),
                arity: 1,
                rows: dept,
            },
            unary("U", u),
            unary("R", r),
            Table {
                name: "T".into(),
                columns: None,
                arity: 2,
                rows: t,
            },
        ],
        // A write after every pass over the reads, so each write follows
        // the same read (a SIMILAR TO statement, the last in the order).
        // Writes that followed the heavy reads paid for the memory those
        // reads' answers freed, and formed a slow class at the p95.
        write_every: reads.len() + 1,
        reads,
        pool: Vec::new(),
        seed: 0,
        ops: 0,
        cpu_turn: 0,
        cache_budget: None,
        setup_reps: 21,
        lint: true,
    }
}

/// Execution-heavy: uncached filters over one large unary column.
///
/// The column holds 10⁴ strings (≈0.7 MB), which fits in the CPU's
/// private cache. A column ten times larger is bound by memory
/// bandwidth, which a shared host's other tenants move from one minute
/// to the next.
fn scan_large(alphabet: &Alphabet, w: &mut Workload, size: Size) -> Inputs {
    let n = match size {
        Size::Full => 10_000,
        Size::Tiny => 2_000,
    };
    let u = w.random_strings(n, 16, 128);
    let mut patterns: Vec<String> = DENSE_PATTERNS.iter().map(|p| p.to_string()).collect();
    let prefix = alphabet.render(&w.random_string(2, 2));
    let suffix = alphabet.render(&w.random_string(2, 2));
    // How often a word occurs in random text depends on how it overlaps
    // itself, so the infix has a fixed shape and the seed picks only its
    // letter order.
    let (x, y) = letters(w);
    let infix = format!("{x}{x}{y}{x}{y}{y}");
    patterns.push(format!("{prefix}.*"));
    patterns.push(format!(".*{suffix}"));
    patterns.push(format!(".*{infix}.*"));
    // The trap comes last: it answers almost nothing, so the write after
    // each pass over the reads does not follow a read that has just freed
    // thousands of answer tuples.
    patterns.push(TRAP_PATTERN.into());
    let reads: Vec<Read> = patterns
        .into_iter()
        .map(|p| Read {
            label: format!("S_reg | x | U(x) & in(x, /{p}/)"),
            statement: s_reg_filter("U", &p),
            oracle: Oracle::DfaFilter {
                relation: "U".into(),
                regex: Regex::parse(alphabet, &p).expect("benchmark pattern parses"),
            },
        })
        .collect();
    Inputs {
        alphabet: alphabet.clone(),
        tables: vec![unary("U", u)],
        pool: Vec::new(),
        seed: 0,
        // A write after every pass over the reads, so each write follows
        // the same read; writes cost microseconds beside the reads'
        // milliseconds.
        write_every: reads.len() + 1,
        reads,
        ops: 0,
        cpu_turn: 0,
        cache_budget: None,
        setup_reps: 21,
        lint: true,
    }
}

/// Writes beside cached reads: each write changes the instance
/// fingerprint, so the next read of each kind misses and the rest hit.
///
/// Six read kinds, ten rounds of them between writes: a tenth of the
/// reads miss, so the median falls in the middle of the hits and the
/// 95th percentile in the middle of the misses, where the host's slow
/// moments move it least. Reads skip the static analyzer, whose
/// cost on the comparison-atom kinds would otherwise sit between the two
/// modes.
fn cache_churn(alphabet: &Alphabet, w: &mut Workload) -> Inputs {
    let u = half_of_each_length(alphabet, w, 0..=5);
    let r = half_of_each_length(alphabet, w, 1..=4);
    let mut reads: Vec<Read> = corpus_reads()
        .into_iter()
        .filter(|r| r.label.contains("U(y)"))
        .collect();
    for first in ["a", "b"] {
        let text = format!("R(x) & in(x, /{first}.*/) & x <= y & R(y)");
        reads.push(Read {
            label: format!("S | x y | {text}"),
            statement: Statement::Formula {
                calculus: Calculus::S,
                head: vec!["x".into(), "y".into()],
                text,
            },
            oracle: Oracle::ForcedAutomata,
        });
    }
    Inputs {
        alphabet: alphabet.clone(),
        tables: vec![unary("U", u), unary("R", r)],
        write_every: 10 * reads.len() + 1,
        reads,
        pool: Vec::new(),
        seed: 0,
        ops: 0,
        cpu_turn: 0,
        cache_budget: Some(320 * 1024),
        setup_reps: 21,
        lint: false,
    }
}
