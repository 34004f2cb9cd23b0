//! Arena-allocated flat terms.
//!
//! [`Term`] is a pointer tree: every `App` owns a `Vec` of children, so a
//! million-clause program pays one heap allocation per compound subterm
//! and a pointer chase per edge on every traversal. [`TermArena`] stores
//! the same terms as index-linked flat nodes: a node is a [`Sym`] plus a
//! packed `(start, len)` range into one shared argument buffer, and a
//! [`TermId`] is a 4-byte handle. Nodes are *hash-consed* — structurally
//! equal subterms get the same id — so equality of interned terms is an
//! id compare, repeated subterms are stored once, and per-node analyses
//! (size polynomials) can be memoized by id.
//!
//! The arena is a cache-friendly *view* of the substrate, not a
//! replacement for it: [`TermArena::insert`] brings a [`Term`] in,
//! [`TermArena::view`] materializes one back out, and the traversals the
//! size-relation fixpoint runs per iteration — the size-norm polynomials
//! [`TermArena::size_polynomial_into`] and [`TermArena::right_spine_into`]
//! — run on indices without touching the tree form at all. Unification
//! stays on the tree form ([`crate::unify`]).
//!
//! Ids are arena-local and assigned in insertion order; nothing
//! output-visible may depend on them (the same discipline as interner
//! ids — see [`crate::intern`]).

use crate::intern::Sym;
use crate::term::{SizePolynomial, Term};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes currently held by all live [`TermArena`]s in the process (node,
/// argument, and dedup-table storage). A gauge, not a counter: arenas
/// subtract themselves on drop. Surfaced by `argus analyze --stats`.
static ARENA_BYTES: AtomicU64 = AtomicU64::new(0);

/// Current process-wide [`TermArena`] footprint in bytes.
pub fn arena_bytes() -> u64 {
    ARENA_BYTES.load(Ordering::Relaxed)
}

/// Handle to a term in a [`TermArena`]. 4 bytes, `Copy`; equal ids mean
/// structurally equal terms *within the same arena*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    fn ix(self) -> usize {
        self.0 as usize
    }
}

/// Packed argument range: `args[start..start + len]` in the arena's
/// shared argument buffer.
#[derive(Debug, Clone, Copy)]
struct ArgRange {
    start: u32,
    len: u32,
}

#[derive(Debug, Clone, Copy)]
enum Node {
    Var(Sym),
    App(Sym, ArgRange),
}

/// A borrowed view of one arena node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef<'a> {
    /// A logical variable.
    Var(Sym),
    /// A function symbol applied to already-interned arguments.
    App(Sym, &'a [TermId]),
}

/// A bump arena of hash-consed flat term nodes.
#[derive(Debug, Default)]
pub struct TermArena {
    nodes: Vec<Node>,
    /// Shared argument buffer; each `App` owns one contiguous range.
    args: Vec<TermId>,
    /// Hash-cons table: node hash → candidate ids (collision chain).
    dedup: HashMap<u64, Vec<u32>>,
    /// Total ids across all dedup chains (so [`TermArena::bytes`] is O(1)).
    dedup_entries: usize,
    /// Bytes last reported into the process-wide gauge.
    reported_bytes: u64,
}

impl TermArena {
    /// An empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Number of distinct nodes (hash-consed subterms).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap footprint of this arena in bytes.
    pub fn bytes(&self) -> u64 {
        let nodes = self.nodes.capacity() * std::mem::size_of::<Node>();
        let args = self.args.capacity() * std::mem::size_of::<TermId>();
        let dedup = self.dedup.capacity()
            * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>())
            + self.dedup_entries * std::mem::size_of::<u32>();
        (nodes + args + dedup) as u64
    }

    fn sync_gauge(&mut self) {
        let now = self.bytes();
        if now >= self.reported_bytes {
            ARENA_BYTES.fetch_add(now - self.reported_bytes, Ordering::Relaxed);
        } else {
            ARENA_BYTES.fetch_sub(self.reported_bytes - now, Ordering::Relaxed);
        }
        self.reported_bytes = now;
    }

    /// The node behind `id`.
    pub fn get(&self, id: TermId) -> NodeRef<'_> {
        match self.nodes[id.ix()] {
            Node::Var(v) => NodeRef::Var(v),
            Node::App(f, r) => {
                NodeRef::App(f, &self.args[r.start as usize..(r.start + r.len) as usize])
            }
        }
    }

    /// Intern a variable node.
    pub fn var(&mut self, v: Sym) -> TermId {
        self.intern_node(Node::Var(v), &[])
    }

    /// Intern an application node over already-interned arguments.
    pub fn app(&mut self, functor: Sym, args: &[TermId]) -> TermId {
        self.intern_node(Node::App(functor, ArgRange { start: 0, len: 0 }), args)
    }

    /// Intern a whole [`Term`] tree, returning the id of its root.
    /// Structurally equal subterms (within this arena) share ids.
    pub fn insert(&mut self, t: &Term) -> TermId {
        match t {
            Term::Var(v) => self.var(*v),
            Term::App(f, children) => {
                let ids: Vec<TermId> = children.iter().map(|c| self.insert(c)).collect();
                self.app(*f, &ids)
            }
        }
    }

    fn intern_node(&mut self, node: Node, args: &[TermId]) -> TermId {
        let h = node_hash(&node, args);
        if let Some(cands) = self.dedup.get(&h) {
            for &id in cands {
                if self.node_matches(id, &node, args) {
                    return TermId(id);
                }
            }
        }
        let id = u32::try_from(self.nodes.len()).expect("term arena capacity exceeded");
        let stored = match node {
            Node::Var(v) => Node::Var(v),
            Node::App(f, _) => {
                let start = u32::try_from(self.args.len()).expect("term arena args exceeded");
                self.args.extend_from_slice(args);
                Node::App(f, ArgRange { start, len: args.len() as u32 })
            }
        };
        self.nodes.push(stored);
        self.dedup.entry(h).or_default().push(id);
        self.dedup_entries += 1;
        self.sync_gauge();
        TermId(id)
    }

    fn node_matches(&self, id: u32, node: &Node, args: &[TermId]) -> bool {
        match (&self.nodes[id as usize], node) {
            (Node::Var(a), Node::Var(b)) => a == b,
            (Node::App(f, r), Node::App(g, _)) => {
                f == g
                    && r.len as usize == args.len()
                    && &self.args[r.start as usize..(r.start + r.len) as usize] == args
            }
            _ => false,
        }
    }

    /// Materialize the term behind `id` back into tree form.
    pub fn view(&self, id: TermId) -> Term {
        match self.get(id) {
            NodeRef::Var(v) => Term::Var(v),
            NodeRef::App(f, args) => Term::App(f, args.iter().map(|&a| self.view(a)).collect()),
        }
    }

    /// Accumulate the structural-size polynomial of `id` into `p`
    /// (paper §2.2): constant += arity per application node, coefficient
    /// += 1 per variable occurrence. Iterative, so deep right-spine lists
    /// cannot overflow the stack.
    pub fn size_polynomial_into(&self, id: TermId, p: &mut SizePolynomial) {
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            match self.get(id) {
                NodeRef::Var(v) => *p.coeffs.entry(v).or_insert(0) += 1,
                NodeRef::App(_, args) => {
                    p.constant += args.len() as u64;
                    stack.extend_from_slice(args);
                }
            }
        }
    }

    /// Accumulate the right-spine (list-length) polynomial of `id` into
    /// `p`: `|v| = v`, `|c| = 0`, `|f(t1…tn)| = 1 + |tn|`.
    pub fn right_spine_into(&self, id: TermId, p: &mut SizePolynomial) {
        let mut cur = id;
        loop {
            match self.get(cur) {
                NodeRef::Var(v) => {
                    *p.coeffs.entry(v).or_insert(0) += 1;
                    return;
                }
                NodeRef::App(_, args) => match args.last() {
                    None => return,
                    Some(&last) => {
                        p.constant += 1;
                        cur = last;
                    }
                },
            }
        }
    }
}

impl Drop for TermArena {
    fn drop(&mut self) {
        ARENA_BYTES.fetch_sub(self.reported_bytes, Ordering::Relaxed);
    }
}

fn node_hash(node: &Node, args: &[TermId]) -> u64 {
    // FNV-1a-style over the node's shape. Sym ids are stable within a
    // process, which is all a private dedup table needs. It mixes whole
    // words, not bytes, so it is not `hash::Fnv64` and stays separate.
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    match node {
        Node::Var(v) => {
            mix(1);
            mix(v.id() as u64);
        }
        Node::App(f, _) => {
            mix(2);
            mix(f.id() as u64);
            mix(args.len() as u64);
            for a in args {
                mix(a.0 as u64);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;

    fn t(src: &str) -> Term {
        parse_term(src).unwrap()
    }

    #[test]
    fn insert_view_round_trips() {
        let mut arena = TermArena::new();
        for src in ["X", "a", "[]", "f(X, g(Y, a), [1, 2 | T])", "[a, b, c]", "'it''s'(X)"] {
            let term = t(src);
            let id = arena.insert(&term);
            assert_eq!(arena.view(id), term, "{src}");
            assert_eq!(arena.view(id).to_string(), term.to_string(), "{src}");
        }
    }

    #[test]
    fn hash_consing_shares_subterms() {
        let mut arena = TermArena::new();
        let a = arena.insert(&t("f(g(X), g(X))"));
        let before = arena.node_count();
        // g(X), X, f-node: the two g(X) occurrences share one node.
        assert_eq!(before, 3);
        let b = arena.insert(&t("f(g(X), g(X))"));
        assert_eq!(a, b, "equal terms must get equal ids");
        assert_eq!(arena.node_count(), before, "re-insert allocates nothing");
        let c = arena.insert(&t("f(g(X), g(Y))"));
        assert_ne!(a, c);
    }

    #[test]
    fn size_polynomial_matches_tree_form() {
        let mut arena = TermArena::new();
        for src in ["f(v1, g(v2), v2)", "[a, b, c]", "X", "f(u, v, a)"] {
            let term = t(src);
            let id = arena.insert(&term);
            let mut p = SizePolynomial::default();
            arena.size_polynomial_into(id, &mut p);
            assert_eq!(p, term.size_polynomial(), "{src}");
        }
    }

    #[test]
    fn right_spine_matches_norm() {
        let mut arena = TermArena::new();
        for src in ["[a, b | T]", "node(Big, x, leaf)", "[]", "X", "[f(f(a))]"] {
            let term = t(src);
            let id = arena.insert(&term);
            let mut p = SizePolynomial::default();
            arena.right_spine_into(id, &mut p);
            assert_eq!(p, crate::Norm::ListLength.polynomial(&term), "{src}");
        }
    }

    #[test]
    fn deep_list_does_not_overflow() {
        // 100k-element list, built directly on indices — a depth the
        // pointer-tree `Term` cannot even *drop* without overflowing.
        // The iterative polynomial walks must survive it.
        let mut arena = TermArena::new();
        let cons = crate::term::sym_cons();
        let mut id = arena.app(crate::term::sym_nil(), &[]);
        for i in 0..100_000u32 {
            let elem = arena.app(Sym::new(i.to_string()), &[]);
            id = arena.app(cons, &[elem, id]);
        }
        let mut p = SizePolynomial::default();
        arena.size_polynomial_into(id, &mut p);
        assert_eq!(p.constant, 200_000);
        let mut spine = SizePolynomial::default();
        arena.right_spine_into(id, &mut spine);
        assert_eq!(spine.constant, 100_000);
    }
}
