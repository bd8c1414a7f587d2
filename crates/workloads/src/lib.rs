//! Deterministic workload generators for tests, examples and benchmarks.
//!
//! Everything is seeded ([`rand::rngs::StdRng`]) so experiment runs are
//! reproducible. The generators mirror the shapes the paper's results
//! care about:
//!
//! * uniform and trie-shaped (high prefix-sharing) string databases;
//! * **width-k** databases (Section 5.2: width = longest prefix chain in
//!   the active domain) — width 1 is the hypothesis of the MSO encoding;
//! * unary databases (Proposition 3's linear-time hypothesis);
//! * random graphs for the 3-colorability experiment;
//! * random formula corpora per calculus, for differential testing of
//!   the engines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use strcalc_alphabet::{Alphabet, Str, Sym};
use strcalc_core::mso3col::Graph;
use strcalc_logic::{Formula, Term};
use strcalc_relational::Database;

/// A reproducible generator.
pub struct Workload {
    pub alphabet: Alphabet,
    rng: StdRng,
}

impl Workload {
    pub fn new(alphabet: Alphabet, seed: u64) -> Workload {
        Workload {
            alphabet,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn k(&self) -> Sym {
        self.alphabet.len() as Sym
    }

    /// A uniformly random string with length in `[min_len, max_len]`.
    pub fn random_string(&mut self, min_len: usize, max_len: usize) -> Str {
        let len = self.rng.gen_range(min_len..=max_len);
        let k = self.k();
        Str::from_syms((0..len).map(|_| self.rng.gen_range(0..k)).collect())
    }

    /// `n` random strings (possibly with duplicates removed — the count
    /// is of *attempts*, so the result can be slightly smaller).
    pub fn random_strings(&mut self, n: usize, min_len: usize, max_len: usize) -> Vec<Str> {
        let mut out: Vec<Str> = (0..n)
            .map(|_| self.random_string(min_len, max_len))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// A unary database `U` with ~`n` random strings (Proposition 3's
    /// shape).
    pub fn unary_db(&mut self, n: usize, max_len: usize) -> Database {
        let mut db = Database::new();
        db.declare("U", 1).expect("fresh");
        for s in self.random_strings(n, 0, max_len) {
            db.insert("U", vec![s]).expect("arity 1");
        }
        db
    }

    /// A binary database `R` with ~`n` random pairs.
    pub fn binary_db(&mut self, n: usize, max_len: usize) -> Database {
        let mut db = Database::new();
        db.declare("R", 2).expect("fresh");
        for _ in 0..n {
            let a = self.random_string(0, max_len);
            let b = self.random_string(0, max_len);
            db.insert("R", vec![a, b]).expect("arity 2");
        }
        db
    }

    /// A **trie-shaped** unary database: strings drawn by random walks
    /// from a small set of shared roots, maximizing prefix sharing (the
    /// favourable case for the trie encoding ablation).
    pub fn trie_db(&mut self, n: usize, roots: usize, extension: usize) -> Database {
        let root_strings: Vec<Str> = (0..roots).map(|_| self.random_string(1, 3)).collect();
        let mut db = Database::new();
        db.declare("U", 1).expect("fresh");
        for _ in 0..n {
            let root = &root_strings[self.rng.gen_range(0..root_strings.len())];
            let ext = self.random_string(0, extension);
            db.insert("U", vec![root.concat(&ext)]).expect("arity 1");
        }
        db
    }

    /// A width-1 unary database: `n` pairwise prefix-incomparable strings
    /// of the form `aⁱb·w` (Section 5.2's normal form).
    pub fn width_one_db(&mut self, n: usize, tail_len: usize) -> Database {
        let mut db = Database::new();
        db.declare("U", 1).expect("fresh");
        for i in 1..=n {
            let mut syms = vec![0u8; i];
            syms.push(1);
            let tail = self.random_string(0, tail_len);
            syms.extend_from_slice(tail.syms());
            db.insert("U", vec![Str::from_syms(syms)]).expect("arity 1");
        }
        db
    }

    /// A database whose active domain has width exactly `k` (Section
    /// 5.2): `k`-deep prefix chains hanging off pairwise-incomparable
    /// roots `aⁱb`.
    pub fn width_k_db(&mut self, roots: usize, k: usize) -> Database {
        assert!(k >= 1, "width is at least 1");
        let mut db = Database::new();
        db.declare("U", 1).expect("fresh");
        for i in 1..=roots {
            let mut syms = vec![0u8; i];
            syms.push(1);
            let mut cur = Str::from_syms(syms);
            db.insert("U", vec![cur.clone()]).expect("arity 1");
            for _ in 1..k {
                cur = cur.append(self.rng.gen_range(0..self.k()));
                db.insert("U", vec![cur.clone()]).expect("arity 1");
            }
        }
        db
    }

    /// Strings with Zipf-ish length distribution: most strings short, a
    /// heavy tail up to `max_len` — the shape of real identifier columns.
    pub fn zipf_strings(&mut self, n: usize, max_len: usize) -> Vec<Str> {
        (0..n)
            .map(|_| {
                // P(len = ℓ) ∝ 1/(ℓ+1): inverse-CDF by rejection.
                let len = loop {
                    let l = self.rng.gen_range(0..=max_len);
                    if self.rng.gen_range(0.0..1.0) < 1.0 / (l as f64 + 1.0) {
                        break l;
                    }
                };
                let k = self.k();
                Str::from_syms((0..len).map(|_| self.rng.gen_range(0..k)).collect())
            })
            .collect()
    }

    /// A prefix-chain database of width exactly `n`: `ε ≺ w₁ ≺ w₁w₂ ≺ …`.
    pub fn chain_db(&mut self, n: usize) -> Database {
        let mut db = Database::new();
        db.declare("U", 1).expect("fresh");
        let mut cur = Str::epsilon();
        for _ in 0..n {
            cur = cur.append(self.rng.gen_range(0..self.k()));
            db.insert("U", vec![cur.clone()]).expect("arity 1");
        }
        db
    }

    /// An Erdős–Rényi random graph `G(n, p)`.
    pub fn random_graph(&mut self, n: usize, p: f64) -> Graph {
        let mut edges = Vec::new();
        for i in 1..=n {
            for j in (i + 1)..=n {
                if self.rng.gen_bool(p) {
                    edges.push((i, j));
                }
            }
        }
        Graph { n, edges }
    }

    /// A random `LIKE` pattern of the given length over literals, `%`,
    /// `_`.
    pub fn random_like_pattern(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| match self.rng.gen_range(0..4u8) {
                0 => '%',
                1 => '_',
                _ => {
                    let s = self.rng.gen_range(0..self.k());
                    self.alphabet.char_of(s).expect("in range")
                }
            })
            .collect()
    }

    /// A random pure `S`-formula with one free variable `x`, of bounded
    /// quantifier depth — used for differential engine testing and for
    /// the star-freeness invariant check.
    pub fn random_s_formula(&mut self, depth: usize) -> Formula {
        self.random_formula_depth(depth, &mut vec!["x".to_string()], false)
    }

    /// As [`Workload::random_s_formula`] but allowing `el` atoms
    /// (an `S_len` formula).
    pub fn random_slen_formula(&mut self, depth: usize) -> Formula {
        self.random_formula_depth(depth, &mut vec!["x".to_string()], true)
    }

    fn random_formula_depth(
        &mut self,
        depth: usize,
        scope: &mut Vec<String>,
        allow_len: bool,
    ) -> Formula {
        let leaf = depth == 0 || self.rng.gen_bool(0.3);
        if leaf {
            return self.random_atom(scope, allow_len);
        }
        match self.rng.gen_range(0..5u8) {
            0 => self.random_formula_depth(depth - 1, scope, allow_len).not(),
            1 => self
                .random_formula_depth(depth - 1, scope, allow_len)
                .and(self.random_formula_depth(depth - 1, scope, allow_len)),
            2 => self
                .random_formula_depth(depth - 1, scope, allow_len)
                .or(self.random_formula_depth(depth - 1, scope, allow_len)),
            _ => {
                let v = format!("q{}", scope.len());
                scope.push(v.clone());
                let body = self.random_formula_depth(depth - 1, scope, allow_len);
                scope.pop();
                if self.rng.gen_bool(0.5) {
                    Formula::exists(v, body)
                } else {
                    Formula::forall(v, body)
                }
            }
        }
    }

    fn random_atom(&mut self, scope: &[String], allow_len: bool) -> Formula {
        let var = |w: &mut Self, scope: &[String]| -> Term {
            Term::var(scope[w.rng.gen_range(0..scope.len())].clone())
        };
        let choices = if allow_len { 6 } else { 5 };
        match self.rng.gen_range(0..choices) {
            0 => Formula::prefix(var(self, scope), var(self, scope)),
            1 => Formula::strict_prefix(var(self, scope), var(self, scope)),
            2 => Formula::last_sym(var(self, scope), self.rng.gen_range(0..self.k())),
            3 => Formula::eq(var(self, scope), var(self, scope)),
            4 => {
                let c = self.random_string(0, 2);
                Formula::prefix(Term::konst(c), var(self, scope))
            }
            _ => Formula::eq_len(var(self, scope), var(self, scope)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> Workload {
        Workload::new(Alphabet::ab(), 42)
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Workload::new(Alphabet::ab(), 7).random_strings(20, 0, 6);
        let b = Workload::new(Alphabet::ab(), 7).random_strings(20, 0, 6);
        assert_eq!(a, b);
        let c = Workload::new(Alphabet::ab(), 8).random_strings(20, 0, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn db_shapes() {
        let mut wl = w();
        let u = wl.unary_db(30, 5);
        assert!(u.schema().is_unary());
        assert!(u.total_tuples() <= 30);

        let b = wl.binary_db(10, 4);
        assert_eq!(b.schema().arity("R"), Some(2));

        let w1 = wl.width_one_db(5, 2);
        assert_eq!(w1.adom_width(), 1);

        let chain = wl.chain_db(6);
        assert_eq!(chain.adom_width(), 6);
    }

    #[test]
    fn width_k_has_exact_width() {
        let mut wl = w();
        for k in 1..=4 {
            let db = wl.width_k_db(3, k);
            assert_eq!(db.adom_width(), k, "width-{k} generator");
        }
    }

    #[test]
    fn zipf_lengths_skew_short() {
        let mut wl = w();
        let strings = wl.zipf_strings(300, 10);
        assert_eq!(strings.len(), 300);
        let short = strings.iter().filter(|s| s.len() <= 3).count();
        let long = strings.iter().filter(|s| s.len() >= 8).count();
        assert!(short > long, "Zipf shape: short {short} vs long {long}");
    }

    #[test]
    fn trie_db_shares_prefixes() {
        let mut wl = w();
        let db = wl.trie_db(50, 2, 4);
        // With only two roots, the prefix closure is much smaller than
        // 50 × average length.
        let adom = db.adom();
        assert!(!adom.is_empty());
    }

    #[test]
    fn graphs() {
        let mut wl = w();
        let g = wl.random_graph(6, 1.0);
        assert_eq!(g.edges.len(), 15);
        let g = wl.random_graph(6, 0.0);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn random_formulas_have_one_free_var() {
        let mut wl = w();
        for _ in 0..30 {
            let f = wl.random_s_formula(2);
            let fv = f.free_vars();
            assert!(fv.len() <= 1);
            for v in fv {
                assert_eq!(v, "x");
            }
        }
    }

    #[test]
    fn like_patterns_parse() {
        use strcalc_automata::LikePattern;
        let mut wl = w();
        for _ in 0..20 {
            let p = wl.random_like_pattern(5);
            LikePattern::parse(&Alphabet::ab(), &p).expect("generated pattern parses");
        }
    }
}
