//! Formula identity: stable α-invariant fingerprints and α-equivalence.
//!
//! The compilation pipeline re-pays the formula → automaton cost on every
//! call even for the same query, so `strcalc-core` keys a compilation
//! cache on a **fingerprint** of the formula. Two requirements shape the
//! design here:
//!
//! 1. **Stability.** The fingerprint must not depend on `std`'s unspecified
//!    `Hash` output: it is a documented 64-bit value computed by explicit
//!    structural encoding (FNV-1a with a splitmix finalizer).
//! 2. **α-invariance.** The rewrite chain freshens bound variables
//!    (`freshen_bound`), so syntactically different but α-equivalent
//!    formulas must collide *on purpose*: bound variables are encoded by
//!    de Bruijn index, free variables by name. `∃x.P(x)` and `∃y.P(y)`
//!    fingerprint identically.
//!
//! Language atoms (`in`/`pl`) carry an optional display name next to their
//! [`Regex`]; the name is presentation-only, so fingerprints and
//! [`alpha_eq`] look at the regex alone — `LIKE 'a%'` and an equivalent
//! hand-written `/a.*/` with identical ASTs dedupe.

use strcalc_automata::Regex;

use crate::formula::{Atom, Formula, Lang, Restrict, Term};

/// Incremental FNV-1a/splitmix fingerprint writer. Public so downstream
/// crates (`strcalc-relational`, `strcalc-core`) can build compatible
/// stable fingerprints for their own cache-key components.
#[derive(Debug, Clone)]
pub struct Fp(u64);

impl Default for Fp {
    fn default() -> Self {
        Fp::new()
    }
}

impl Fp {
    pub fn new() -> Fp {
        Fp(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn u8(&mut self, b: u8) -> &mut Self {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    #[inline]
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.u8(b);
        }
        self
    }

    pub fn bytes(&mut self, bs: &[u8]) -> &mut Self {
        self.u64(bs.len() as u64);
        for &b in bs {
            self.u8(b);
        }
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Finalizes with a splitmix-style mixer (FNV alone clusters in the
    /// low bits, which would skew shard selection downstream).
    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

// Node tags. Every syntactic construct gets a distinct byte so that
// structurally different formulas cannot collide by concatenation
// ambiguity (lengths are also encoded for all variable-width parts).
mod tag {
    pub const TRUE: u8 = 0x01;
    pub const FALSE: u8 = 0x02;
    pub const NOT: u8 = 0x03;
    pub const AND: u8 = 0x04;
    pub const OR: u8 = 0x05;
    pub const IMPLIES: u8 = 0x06;
    pub const IFF: u8 = 0x07;
    pub const EXISTS: u8 = 0x08;
    pub const FORALL: u8 = 0x09;
    pub const EXISTS_R: u8 = 0x0a;
    pub const FORALL_R: u8 = 0x0b;

    pub const VAR_BOUND: u8 = 0x10;
    pub const VAR_FREE: u8 = 0x11;
    pub const CONST: u8 = 0x12;
    pub const APPEND: u8 = 0x13;
    pub const PREPEND: u8 = 0x14;
    pub const TRIM_LEADING: u8 = 0x15;

    pub const REL: u8 = 0x20;
    pub const EQ: u8 = 0x21;
    pub const PREFIX: u8 = 0x22;
    pub const STRICT_PREFIX: u8 = 0x23;
    pub const COVER: u8 = 0x24;
    pub const LAST_SYM: u8 = 0x25;
    pub const FIRST_SYM: u8 = 0x26;
    pub const PREPENDS: u8 = 0x27;
    pub const EQ_LEN: u8 = 0x28;
    pub const SHORTER_EQ: u8 = 0x29;
    pub const SHORTER: u8 = 0x2a;
    pub const LEX_LEQ: u8 = 0x2b;
    pub const IN_LANG: u8 = 0x2c;
    pub const PL: u8 = 0x2d;
    pub const CONCAT_EQ: u8 = 0x2e;
    pub const INSERT_AFTER: u8 = 0x2f;

    pub const RE_EMPTY: u8 = 0x30;
    pub const RE_EPSILON: u8 = 0x31;
    pub const RE_SYM: u8 = 0x32;
    pub const RE_ANY: u8 = 0x33;
    pub const RE_CONCAT: u8 = 0x34;
    pub const RE_UNION: u8 = 0x35;
    pub const RE_STAR: u8 = 0x36;

    pub const R_ACTIVE: u8 = 0x40;
    pub const R_PREFIX_DOM: u8 = 0x41;
    pub const R_LENGTH_DOM: u8 = 0x42;
}

/// The stable α-invariant fingerprint of a formula. See the module docs
/// for the exact invariance contract: `alpha_eq(f, g)` implies
/// `fingerprint(f) == fingerprint(g)`.
pub fn fingerprint(f: &Formula) -> u64 {
    let mut fp = Fp::new();
    let mut env: Vec<&str> = Vec::new();
    hash_formula(f, &mut env, &mut fp);
    fp.finish()
}

fn hash_formula<'a>(f: &'a Formula, env: &mut Vec<&'a str>, fp: &mut Fp) {
    match f {
        Formula::True => {
            fp.u8(tag::TRUE);
        }
        Formula::False => {
            fp.u8(tag::FALSE);
        }
        Formula::Atom(a) => hash_atom(a, env, fp),
        Formula::Not(g) => {
            fp.u8(tag::NOT);
            hash_formula(g, env, fp);
        }
        Formula::And(a, b) => {
            fp.u8(tag::AND);
            hash_formula(a, env, fp);
            hash_formula(b, env, fp);
        }
        Formula::Or(a, b) => {
            fp.u8(tag::OR);
            hash_formula(a, env, fp);
            hash_formula(b, env, fp);
        }
        Formula::Implies(a, b) => {
            fp.u8(tag::IMPLIES);
            hash_formula(a, env, fp);
            hash_formula(b, env, fp);
        }
        Formula::Iff(a, b) => {
            fp.u8(tag::IFF);
            hash_formula(a, env, fp);
            hash_formula(b, env, fp);
        }
        Formula::Exists(v, g) => {
            fp.u8(tag::EXISTS);
            env.push(v);
            hash_formula(g, env, fp);
            env.pop();
        }
        Formula::Forall(v, g) => {
            fp.u8(tag::FORALL);
            env.push(v);
            hash_formula(g, env, fp);
            env.pop();
        }
        Formula::ExistsR(r, v, g) => {
            fp.u8(tag::EXISTS_R);
            hash_restrict(*r, fp);
            env.push(v);
            hash_formula(g, env, fp);
            env.pop();
        }
        Formula::ForallR(r, v, g) => {
            fp.u8(tag::FORALL_R);
            hash_restrict(*r, fp);
            env.push(v);
            hash_formula(g, env, fp);
            env.pop();
        }
    }
}

fn hash_restrict(r: Restrict, fp: &mut Fp) {
    fp.u8(match r {
        Restrict::Active => tag::R_ACTIVE,
        Restrict::PrefixDom => tag::R_PREFIX_DOM,
        Restrict::LengthDom => tag::R_LENGTH_DOM,
    });
}

fn hash_atom(a: &Atom, env: &[&str], fp: &mut Fp) {
    let two = |x: &Term, y: &Term, t: u8, fp: &mut Fp| {
        fp.u8(t);
        hash_term(x, env, fp);
        hash_term(y, env, fp);
    };
    match a {
        Atom::Rel(name, terms) => {
            fp.u8(tag::REL);
            fp.str(name);
            fp.u64(terms.len() as u64);
            for t in terms {
                hash_term(t, env, fp);
            }
        }
        Atom::Eq(x, y) => two(x, y, tag::EQ, fp),
        Atom::Prefix(x, y) => two(x, y, tag::PREFIX, fp),
        Atom::StrictPrefix(x, y) => two(x, y, tag::STRICT_PREFIX, fp),
        Atom::Cover(x, y) => two(x, y, tag::COVER, fp),
        Atom::LastSym(t, s) => {
            fp.u8(tag::LAST_SYM);
            hash_term(t, env, fp);
            fp.u8(*s);
        }
        Atom::FirstSym(t, s) => {
            fp.u8(tag::FIRST_SYM);
            hash_term(t, env, fp);
            fp.u8(*s);
        }
        Atom::Prepends(x, y, s) => {
            fp.u8(tag::PREPENDS);
            hash_term(x, env, fp);
            hash_term(y, env, fp);
            fp.u8(*s);
        }
        Atom::EqLen(x, y) => two(x, y, tag::EQ_LEN, fp),
        Atom::ShorterEq(x, y) => two(x, y, tag::SHORTER_EQ, fp),
        Atom::Shorter(x, y) => two(x, y, tag::SHORTER, fp),
        Atom::LexLeq(x, y) => two(x, y, tag::LEX_LEQ, fp),
        Atom::InLang(t, l) => {
            fp.u8(tag::IN_LANG);
            hash_term(t, env, fp);
            hash_lang(l, fp);
        }
        Atom::PL(x, y, l) => {
            fp.u8(tag::PL);
            hash_term(x, env, fp);
            hash_term(y, env, fp);
            hash_lang(l, fp);
        }
        Atom::ConcatEq(x, y, z) => {
            fp.u8(tag::CONCAT_EQ);
            hash_term(x, env, fp);
            hash_term(y, env, fp);
            hash_term(z, env, fp);
        }
        Atom::InsertAfter(x, p, y, s) => {
            fp.u8(tag::INSERT_AFTER);
            hash_term(x, env, fp);
            hash_term(p, env, fp);
            hash_term(y, env, fp);
            fp.u8(*s);
        }
    }
}

fn hash_term(t: &Term, env: &[&str], fp: &mut Fp) {
    match t {
        Term::Var(v) => {
            // Innermost binder wins, matching shadowing semantics.
            match env.iter().rposition(|b| b == v) {
                Some(i) => {
                    fp.u8(tag::VAR_BOUND);
                    // De Bruijn index: distance to the binder.
                    fp.u64((env.len() - 1 - i) as u64);
                }
                None => {
                    fp.u8(tag::VAR_FREE);
                    fp.str(v);
                }
            }
        }
        Term::Const(s) => {
            fp.u8(tag::CONST);
            fp.bytes(s.syms());
        }
        Term::Append(inner, s) => {
            fp.u8(tag::APPEND);
            hash_term(inner, env, fp);
            fp.u8(*s);
        }
        Term::Prepend(s, inner) => {
            fp.u8(tag::PREPEND);
            fp.u8(*s);
            hash_term(inner, env, fp);
        }
        Term::TrimLeading(s, inner) => {
            fp.u8(tag::TRIM_LEADING);
            fp.u8(*s);
            hash_term(inner, env, fp);
        }
    }
}

fn hash_regex(r: &Regex, fp: &mut Fp) {
    match r {
        Regex::Empty => {
            fp.u8(tag::RE_EMPTY);
        }
        Regex::Epsilon => {
            fp.u8(tag::RE_EPSILON);
        }
        Regex::Sym(s) => {
            fp.u8(tag::RE_SYM);
            fp.u8(*s);
        }
        Regex::Any => {
            fp.u8(tag::RE_ANY);
        }
        Regex::Concat(a, b) => {
            fp.u8(tag::RE_CONCAT);
            hash_regex(a, fp);
            hash_regex(b, fp);
        }
        Regex::Union(a, b) => {
            fp.u8(tag::RE_UNION);
            hash_regex(a, fp);
            hash_regex(b, fp);
        }
        Regex::Star(a) => {
            fp.u8(tag::RE_STAR);
            hash_regex(a, fp);
        }
    }
}

fn hash_lang(l: &Lang, fp: &mut Fp) {
    // Display name deliberately excluded: it does not affect semantics.
    hash_regex(&l.regex, fp);
}

/// Stable fingerprint of a language atom's regex (display name
/// excluded, like [`fingerprint`]). Keys dense-DFA cache artifacts,
/// which depend only on the language and alphabet — not on the formula
/// or instance around them.
pub fn lang_fingerprint(l: &Lang) -> u64 {
    let mut fp = Fp::new();
    hash_lang(l, &mut fp);
    fp.finish()
}

/// α-equivalence: structural equality modulo bound-variable names (and
/// modulo `Lang` display names). The decision procedure the interner
/// uses to rule out fingerprint collisions.
pub fn alpha_eq(a: &Formula, b: &Formula) -> bool {
    let mut env_a: Vec<&str> = Vec::new();
    let mut env_b: Vec<&str> = Vec::new();
    alpha_eq_in(a, b, &mut env_a, &mut env_b)
}

fn alpha_eq_in<'a>(
    a: &'a Formula,
    b: &'a Formula,
    env_a: &mut Vec<&'a str>,
    env_b: &mut Vec<&'a str>,
) -> bool {
    use Formula::*;
    match (a, b) {
        (True, True) | (False, False) => true,
        (Atom(x), Atom(y)) => atom_eq(x, y, env_a, env_b),
        (Not(x), Not(y)) => alpha_eq_in(x, y, env_a, env_b),
        (And(x1, x2), And(y1, y2))
        | (Or(x1, x2), Or(y1, y2))
        | (Implies(x1, x2), Implies(y1, y2))
        | (Iff(x1, x2), Iff(y1, y2)) => {
            alpha_eq_in(x1, y1, env_a, env_b) && alpha_eq_in(x2, y2, env_a, env_b)
        }
        (Exists(va, fa), Exists(vb, fb)) | (Forall(va, fa), Forall(vb, fb)) => {
            env_a.push(va);
            env_b.push(vb);
            let out = alpha_eq_in(fa, fb, env_a, env_b);
            env_a.pop();
            env_b.pop();
            out
        }
        (ExistsR(ra, va, fa), ExistsR(rb, vb, fb)) | (ForallR(ra, va, fa), ForallR(rb, vb, fb)) => {
            if ra != rb {
                return false;
            }
            env_a.push(va);
            env_b.push(vb);
            let out = alpha_eq_in(fa, fb, env_a, env_b);
            env_a.pop();
            env_b.pop();
            out
        }
        _ => false,
    }
}

fn atom_eq(a: &Atom, b: &Atom, env_a: &[&str], env_b: &[&str]) -> bool {
    use Atom::*;
    let t = |x: &Term, y: &Term| term_eq(x, y, env_a, env_b);
    match (a, b) {
        (Rel(na, ta), Rel(nb, tb)) => {
            na == nb && ta.len() == tb.len() && ta.iter().zip(tb).all(|(x, y)| t(x, y))
        }
        (Eq(x1, x2), Eq(y1, y2))
        | (Prefix(x1, x2), Prefix(y1, y2))
        | (StrictPrefix(x1, x2), StrictPrefix(y1, y2))
        | (Cover(x1, x2), Cover(y1, y2))
        | (EqLen(x1, x2), EqLen(y1, y2))
        | (ShorterEq(x1, x2), ShorterEq(y1, y2))
        | (Shorter(x1, x2), Shorter(y1, y2))
        | (LexLeq(x1, x2), LexLeq(y1, y2)) => t(x1, y1) && t(x2, y2),
        (LastSym(x, sa), LastSym(y, sb)) | (FirstSym(x, sa), FirstSym(y, sb)) => {
            sa == sb && t(x, y)
        }
        (Prepends(x1, x2, sa), Prepends(y1, y2, sb)) => sa == sb && t(x1, y1) && t(x2, y2),
        (InLang(x, la), InLang(y, lb)) => la.regex == lb.regex && t(x, y),
        (PL(x1, x2, la), PL(y1, y2, lb)) => la.regex == lb.regex && t(x1, y1) && t(x2, y2),
        (ConcatEq(x1, x2, x3), ConcatEq(y1, y2, y3)) => t(x1, y1) && t(x2, y2) && t(x3, y3),
        (InsertAfter(x1, x2, x3, sa), InsertAfter(y1, y2, y3, sb)) => {
            sa == sb && t(x1, y1) && t(x2, y2) && t(x3, y3)
        }
        _ => false,
    }
}

fn term_eq(a: &Term, b: &Term, env_a: &[&str], env_b: &[&str]) -> bool {
    match (a, b) {
        (Term::Var(va), Term::Var(vb)) => {
            let ia = env_a.iter().rposition(|x| x == va);
            let ib = env_b.iter().rposition(|x| x == vb);
            match (ia, ib) {
                // Both bound: same de Bruijn index.
                (Some(i), Some(j)) => env_a.len() - 1 - i == env_b.len() - 1 - j,
                // Both free: same name.
                (None, None) => va == vb,
                _ => false,
            }
        }
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Append(x, sa), Term::Append(y, sb)) => sa == sb && term_eq(x, y, env_a, env_b),
        (Term::Prepend(sa, x), Term::Prepend(sb, y))
        | (Term::TrimLeading(sa, x), Term::TrimLeading(sb, y)) => {
            sa == sb && term_eq(x, y, env_a, env_b)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use crate::transform::freshen_bound;
    use std::collections::HashMap;
    use strcalc_alphabet::Alphabet;

    fn f(src: &str) -> Formula {
        parse_formula(&Alphabet::ab(), src).unwrap()
    }

    #[test]
    fn alpha_equivalent_formulas_share_a_fingerprint() {
        let cases = [
            ("exists y. (x <= y)", "exists z. (x <= z)"),
            (
                "exists y. (U(y) & x <= y & last(x, 'a'))",
                "exists q. (U(q) & x <= q & last(x, 'a'))",
            ),
            (
                "forall y. exists z. (y <= z & el(y, z))",
                "forall a. exists b. (a <= b & el(a, b))",
            ),
        ];
        for (a, b) in cases {
            let (fa, fb) = (f(a), f(b));
            assert!(alpha_eq(&fa, &fb), "{a} !~ {b}");
            assert_eq!(fingerprint(&fa), fingerprint(&fb), "{a} vs {b}");
        }
    }

    #[test]
    fn shadowing_is_respected() {
        // Inner binder shadows: the x in the body refers to different
        // binders in these two, so they are NOT α-equivalent.
        let a = f("exists x. exists y. last(x, 'a')");
        let b = f("exists x. exists y. last(y, 'a')");
        assert!(!alpha_eq(&a, &b));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // But consistent renaming of the shadowing binder is fine.
        let c = f("exists x. exists z. last(z, 'a')");
        assert!(alpha_eq(&b, &c));
        assert_eq!(fingerprint(&b), fingerprint(&c));
    }

    #[test]
    fn free_variables_fingerprint_by_name() {
        assert_ne!(
            fingerprint(&f("last(x, 'a')")),
            fingerprint(&f("last(y, 'a')"))
        );
        assert!(!alpha_eq(&f("last(x, 'a')"), &f("last(y, 'a')")));
        // A free occurrence is not the same as a bound one.
        assert!(!alpha_eq(
            &f("exists x. last(x, 'a')"),
            &f("exists y. last(x, 'a')")
        ));
    }

    #[test]
    fn distinct_formulas_fingerprint_apart() {
        let pool = [
            "x <= y",
            "x < y",
            "y <= x",
            "x = y",
            "el(x, y)",
            "last(x, 'a')",
            "last(x, 'b')",
            "first(x, 'a')",
            "U(x)",
            "V(x)",
            "U(x) & U(y)",
            "exists y. (x <= y)",
            "existsA y. (x <= y)",
            "forall y. (x <= y)",
            "in(x, /(ab)*/)",
            "in(x, /(ba)*/)",
        ];
        let mut seen = HashMap::new();
        for src in pool {
            let fp = fingerprint(&f(src));
            if let Some(prev) = seen.insert(fp, src) {
                panic!("collision between {prev:?} and {src:?}");
            }
        }
    }

    #[test]
    fn freshened_rewrites_keep_their_identity() {
        let orig = f("exists y. (U(y) & x <= y) & exists y. (U(y) & y <= x)");
        let fresh = freshen_bound(&orig);
        assert_ne!(orig, fresh, "freshening renames bound vars");
        assert!(alpha_eq(&orig, &fresh));
        assert_eq!(fingerprint(&orig), fingerprint(&fresh));
    }

    #[test]
    fn lang_display_names_do_not_affect_identity() {
        use crate::formula::{Lang, Term};
        use strcalc_automata::Regex;
        let named = Formula::in_lang(
            Term::var("x"),
            Lang::named("LIKE a%", Regex::Sym(0).concat(Regex::any_string())),
        );
        let anon = Formula::in_lang(
            Term::var("x"),
            Lang::new(Regex::Sym(0).concat(Regex::any_string())),
        );
        assert!(alpha_eq(&named, &anon));
        assert_eq!(fingerprint(&named), fingerprint(&anon));
    }

    #[test]
    fn fingerprints_are_stable_across_runs() {
        // Pinned value: the fingerprint is part of the cache-key contract,
        // so an accidental encoding change should fail loudly here.
        assert_eq!(fingerprint(&Formula::True), 12254457192590784505);
    }
}
