//! Canonical content hashing of rules and terms.
//!
//! The incremental analyzer keys its per-SCC memo on the *content* of the
//! SCC's rules, so the hash must be stable across processes (interned
//! [`Sym`] ids are assigned in first-sight order and are not) and must
//! ignore source spans (re-indenting a file or editing an unrelated clause
//! shifts every later span without changing any analysis result). The
//! functions here therefore walk terms structurally, feeding symbol *names*
//! and arity/shape tags into an FNV-1a accumulator, and never look at
//! spans.
//!
//! Variable names are hashed literally: the analyzer's reports print call
//! atoms verbatim in blame messages, so alpha-renaming a clause is a real
//! output-visible change and must miss the cache.

use crate::program::{Atom, Literal, Rule};
use crate::term::Term;

/// Incremental FNV-1a (64-bit) accumulator: the published offset basis
/// and 64-bit FNV prime `0x100_0000_01b3`.
///
/// FNV is not collision-resistant; memo layers that use these hashes as
/// lookup keys must store the full canonical key alongside the entry and
/// compare it on every hit (see `argus-core`'s incremental cache).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// One-shot digest of `bytes`: the content address of the serve report
    /// cache and the SCC memo, and the checksum and file name of on-disk
    /// `.argusscc` entries. A change to its values orphans every entry on
    /// disk, so it goes with a `SCHEMA_VERSION` bump in `argus-core`.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Absorb a length-prefixed string (prefixing prevents `"ab" + "c"`
    /// colliding with `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Absorb a term: a shape tag, then the symbol name, then (for
/// applications) arity and arguments.
pub fn hash_term(h: &mut Fnv64, t: &Term) {
    match t {
        Term::Var(v) => {
            h.write(&[0x01]);
            h.write_str(v.as_str());
        }
        Term::App(f, args) => {
            h.write(&[0x02]);
            h.write_str(f.as_str());
            h.write_usize(args.len());
            for a in args {
                hash_term(h, a);
            }
        }
    }
}

/// Absorb an atom: predicate name, arity, argument terms. Spans are ignored.
pub fn hash_atom(h: &mut Fnv64, a: &Atom) {
    h.write_str(a.name.as_str());
    h.write_usize(a.args.len());
    for t in &a.args {
        hash_term(h, t);
    }
}

/// Absorb a literal: polarity tag, then the atom.
pub fn hash_literal(h: &mut Fnv64, l: &Literal) {
    h.write(&[if l.positive { 0x01 } else { 0x00 }]);
    hash_atom(h, &l.atom);
}

/// Absorb a whole rule: head, body length, body literals. Spans are
/// ignored, so shifting a clause within its file leaves the hash unchanged.
pub fn hash_rule(h: &mut Fnv64, r: &Rule) {
    hash_atom(h, &r.head);
    h.write_usize(r.body.len());
    for l in &r.body {
        hash_literal(h, l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn rule_digest(src: &str) -> u64 {
        let p = parse_program(src).unwrap();
        let mut h = Fnv64::new();
        hash_rule(&mut h, &p.rules[0]);
        h.finish()
    }

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn digest_known_vectors() {
        assert_eq!(Fnv64::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::digest(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv64::digest(b"foobar"));
    }

    #[test]
    fn span_transparent() {
        assert_eq!(rule_digest("p(X) :- q(X)."), rule_digest("% shifted\n\n   p(X)   :-   q(X)."),);
    }

    #[test]
    fn content_sensitive() {
        let base = rule_digest("p(X) :- q(X).");
        assert_ne!(base, rule_digest("p(X) :- r(X)."), "predicate rename");
        assert_ne!(base, rule_digest("p(Y) :- q(Y)."), "variable rename");
        assert_ne!(base, rule_digest("p(X) :- \\+ q(X)."), "polarity");
        assert_ne!(rule_digest("p(a, b)."), rule_digest("p(ab)."), "no concat collisions");
    }
}
