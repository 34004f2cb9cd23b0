//! Incremental per-SCC analysis: a content-addressed memo over the two
//! per-SCC computations of the pipeline, backed by an optional persistent
//! on-disk store.
//!
//! The paper's method is SCC-modular: an SCC's θ-vectors depend only on its
//! own rules plus the size relations imported from its callee SCCs (§6.2).
//! The same is true of the size-relation inference itself — each SCC's
//! fixpoint reads only its rules and the already-inferred callee polyhedra.
//! Both computations are therefore memoizable on a *content key*:
//!
//! - **Size entry** (phase A): keyed on the SCC's rules (canonical,
//!   span-transparent digests via [`argus_logic::hash`]), the inference
//!   options, and the *work-state* polyhedra of every callee predicate the
//!   rules mention. Stores, per member, the work-state polyhedron (the
//!   value downstream fixpoints consume) and its minimized form (the value
//!   the θ analysis consumes).
//! - **θ entry** (phase B): keyed on the SCC's rules, the analysis options
//!   that affect results (δ mode, norm, lexicographic fallback, FM tier),
//!   each mentioned predicate's adornment, and the final (minimized,
//!   post-import, post-restriction) size relation of every predicate the
//!   rules mention. Stores the outcome, the reduced θ system, blame (as
//!   indices into the SCC's rule list, so spans are re-attached from the
//!   *current* program text on a hit), and the deterministic FM counters.
//!
//! After an edit, every SCC whose key is unchanged — everything outside the
//! dirty cone — is a pure hit, and the replayed result is byte-identical
//! to a cold run (the fuzz oracle `argus fuzz --incremental` and the
//! byte-identity test tier enforce this). Keys deliberately exclude source
//! spans, worker counts, and the deadline; the first is rendering-only
//! metadata re-derived on hit, the rest are byte-identical knobs (a
//! deadline that actually fired suppresses the `put`, so degraded results
//! are never cached).
//!
//! The on-disk format (one file per entry under `--cache-dir`, default
//! `$ARGUS_CACHE_DIR`, `$XDG_CACHE_HOME/argus`, or `~/.cache/argus`) is a
//! fixed header — magic, schema version, payload length, FNV-1a64 checksum
//! — followed by the full canonical key and the entry body. Readers verify
//! all four plus the key bytes; *any* mismatch (truncation, bit flips, a
//! foreign schema, a 64-bit filename collision) is silently a miss, never
//! an error and never a wrong answer. Writers create a temp file and
//! `rename` it into place, so concurrent writers — multiple CLI runs, or a
//! CLI run racing `argus serve` — can share a directory without torn
//! entries.

use crate::analyze::{BlameKind, PairBlame, SccAnalysis, SccOutcome, SccStats};
use crate::lexico::LexicographicProof;
use crate::theta::ThetaSpace;
use argus_linear::fm::FmStats;
use argus_linear::{Constraint, ConstraintSystem, LinExpr, Poly, Rat, Rel};
use argus_logic::hash::{hash_rule, Fnv64};
use argus_logic::modes::ModeMap;
use argus_logic::{PredKey, Rule};
use argus_sizerel::{InferOptions, SizeRelations};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version tag of both the key grammar and the entry encoding. Bump on any
/// change to either; old entries then miss and age out.
pub const SCHEMA_VERSION: u32 = 2;

/// Magic prefix of on-disk entry files.
const MAGIC: &[u8; 8] = b"ARGSCC\x01\n";

/// Fixed per-entry overhead charged against the in-memory byte budget.
const ENTRY_OVERHEAD: usize = 96;

/// Counters of one incremental run (`--stats` only; never part of the
/// default report, which must stay byte-identical to a cold run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalRunStats {
    /// Size-relation SCCs answered from the memo.
    pub size_hits: u64,
    /// Size-relation SCCs recomputed.
    pub size_misses: u64,
    /// θ-analysis SCCs answered from the memo.
    pub theta_hits: u64,
    /// θ-analysis SCCs recomputed (the dirty cone, plus any entry the
    /// deadline kept out of the cache).
    pub theta_misses: u64,
}

impl IncrementalRunStats {
    /// Add another run's counters into these.
    pub fn merge(&mut self, other: &IncrementalRunStats) {
        self.size_hits += other.size_hits;
        self.size_misses += other.size_misses;
        self.theta_hits += other.theta_hits;
        self.theta_misses += other.theta_misses;
    }

    /// Every counter with its name, in field order: the one list the
    /// `--stats` text and JSON, the LSP `$/argus/stats` notification and
    /// the bench suites walk, so none of them spells the fields out.
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("size_hits", self.size_hits),
            ("size_misses", self.size_misses),
            ("theta_hits", self.theta_hits),
            ("theta_misses", self.theta_misses),
        ]
    }

    /// SCC computations that had to run (both phases).
    pub fn dirty(&self) -> u64 {
        self.size_misses + self.theta_misses
    }

    /// SCC computations considered (both phases).
    pub fn total(&self) -> u64 {
        self.size_hits + self.size_misses + self.theta_hits + self.theta_misses
    }
}

// ---------------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------------

/// Digest of a polyhedron: dimension, emptiness, and every constraint row
/// in stored order (row order is semantically redundant but determinism-
/// relevant — downstream FM walks rows in order — so it is part of the
/// content).
pub(crate) fn poly_digest(p: &Poly) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(p.dim());
    h.write(&[u8::from(p.is_empty())]);
    let rows = p.constraints().constraints();
    h.write_usize(rows.len());
    for c in rows {
        h.write(&[match c.rel {
            Rel::Le => 0x01,
            Rel::Eq => 0x02,
        }]);
        h.write_str(&c.expr.constant_term().to_string());
        for (v, k) in c.expr.terms() {
            h.write_usize(v);
            h.write_str(&k.to_string());
        }
    }
    h.finish()
}

/// Digest of a rule sequence in consumption order.
fn rules_digest<'a>(rules: impl Iterator<Item = &'a Rule>) -> u64 {
    let mut h = Fnv64::new();
    for r in rules {
        hash_rule(&mut h, r);
    }
    h.finish()
}

/// Render one `name/arity:digest` environment component (`:T` when the
/// predicate has no relation — the implicit top element).
fn poly_component(key: &mut String, p: &PredKey, digest: Option<u64>) {
    use std::fmt::Write as _;
    match digest {
        None => {
            let _ = write!(key, "{p}:T");
        }
        Some(d) => {
            let _ = write!(key, "{p}:{d:016x}");
        }
    }
}

/// Canonical key of one phase-A (size-relation) SCC computation.
///
/// `members` must be the SCC's rule-bearing predicates in
/// [`argus_logic::DepGraph::scc`] order; `callee_rels` holds the work-state
/// polyhedra of every earlier SCC; `digest_memo` caches per-predicate poly
/// digests across SCCs (a callee is consulted by every caller).
/// `body_preds` lists every predicate occurring in a member rule body that
/// is not itself a member (a superset is sound: it can only cause spurious
/// misses, never stale hits).
pub(crate) fn size_key(
    members: &[PredKey],
    recursive: bool,
    member_rules: &[&Rule],
    body_preds: &[PredKey],
    callee_rels: &SizeRelations,
    digest_memo: &mut HashMap<PredKey, u64>,
    options: &InferOptions,
) -> String {
    use std::fmt::Write as _;
    let mut key = format!(
        "A{SCHEMA_VERSION}|norm={:?}|wd={}|mi={}|rec={}|m=",
        options.norm,
        options.widening_delay,
        options.max_iterations,
        u8::from(recursive),
    );
    for p in members {
        let _ = write!(key, "{p},");
    }
    let _ = write!(key, "|r={:016x}|env=", rules_digest(member_rules.iter().copied()));
    for p in body_preds {
        let digest = callee_rels
            .get(p)
            .map(|poly| *digest_memo.entry(p.clone()).or_insert_with(|| poly_digest(poly)));
        poly_component(&mut key, p, digest);
        key.push(',');
    }
    key
}

/// Canonical key of one phase-B (θ-analysis) SCC computation.
///
/// `members` is the full SCC ([`argus_logic::DepGraph::scc`] order,
/// including rule-less predicates — they get θ variables too); `rules` the
/// [`argus_logic::DepGraph::scc_rules`] list; `rel_digests` the
/// pre-computed digests of the final size relations the analysis consumes
/// (absent = top), keyed into the result for every predicate occurring in
/// those rules (heads and bodies) together with its adornment.
pub(crate) fn theta_key(
    members: &[PredKey],
    rules: &[&Rule],
    modes: &ModeMap,
    rel_digests: &HashMap<PredKey, u64>,
    options: &crate::analyze::AnalysisOptions,
) -> String {
    use std::fmt::Write as _;
    let mut key = format!(
        "B{SCHEMA_VERSION}|norm={:?}|delta={:?}|lex={}|tier={:?}|m=",
        options.norm,
        options.delta_mode,
        u8::from(options.lexicographic),
        options.fm_tier,
    );
    for p in members {
        let _ = write!(key, "{p}:");
        match modes.get(p) {
            Some(a) => {
                let _ = write!(key, "{a}");
            }
            None => key.push('-'),
        }
        key.push(',');
    }
    let _ = write!(key, "|r={:016x}|env=", rules_digest(rules.iter().copied()));
    let mentioned: BTreeSet<PredKey> = rules
        .iter()
        .flat_map(|r| std::iter::once(&r.head).chain(r.body.iter().map(|l| &l.atom)))
        .map(|a| PredKey { name: a.name, arity: a.args.len() })
        .collect();
    for p in &mentioned {
        poly_component(&mut key, p, rel_digests.get(p).copied());
        key.push(':');
        match modes.get(p) {
            Some(a) => {
                let _ = write!(key, "{a}");
            }
            None => key.push('-'),
        }
        key.push(',');
    }
    key
}

/// Phase A of an incremental run: per-SCC memoized size-relation
/// inference, byte-identical to [`argus_sizerel::infer_size_relations`].
///
/// Walks SCCs bottom-up exactly like the cold fixpoint, but keys each
/// SCC's computation on its rules plus its callees' *work-state* polyhedra
/// and answers unchanged SCCs from `memo`. Each entry stores, per member,
/// both the work-state polyhedron (what downstream fixpoints consume) and
/// its minimized form (what the cold path's final canonicalization pass
/// would produce); the returned map holds the minimized forms.
pub(crate) fn incremental_size_relations(
    program: &argus_logic::Program,
    graph: &argus_logic::DepGraph,
    index: &argus_logic::program::ProcIndex,
    options: &InferOptions,
    memo: &SccCache,
    stats: &mut IncrementalRunStats,
) -> SizeRelations {
    let mut work = SizeRelations::new();
    let mut finals: BTreeMap<PredKey, Poly> = BTreeMap::new();
    let mut digest_memo: HashMap<PredKey, u64> = HashMap::new();
    for scc_id in graph.sccs_bottom_up() {
        let members: Vec<PredKey> =
            graph.scc(scc_id).into_iter().filter(|p| !index.rule_indices(p).is_empty()).collect();
        if members.is_empty() {
            continue; // EDB-only SCC; stays at implicit top.
        }
        let recursive = members.iter().any(|p| graph.is_recursive(p));
        let mut member_rules: Vec<&Rule> = Vec::new();
        for p in &members {
            for &ri in index.rule_indices(p) {
                member_rules.push(&program.rules[ri]);
            }
        }
        let member_set: BTreeSet<&PredKey> = members.iter().collect();
        let body_preds: Vec<PredKey> = member_rules
            .iter()
            .flat_map(|r| {
                r.body.iter().map(|l| PredKey { name: l.atom.name, arity: l.atom.args.len() })
            })
            .filter(|p| !member_set.contains(p))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let key = size_key(
            &members,
            recursive,
            &member_rules,
            &body_preds,
            &work,
            &mut digest_memo,
            options,
        );
        let decoded = memo.get(&key).and_then(|b| decode_size_entry(&b)).filter(|entry| {
            entry.len() == members.len() && entry.iter().zip(&members).all(|((p, _, _), m)| p == m)
        });
        match decoded {
            Some(entry) => {
                stats.size_hits += 1;
                for (p, w, f) in entry {
                    work.insert(p.clone(), w);
                    finals.insert(p, f);
                }
            }
            None => {
                stats.size_misses += 1;
                argus_sizerel::infer_scc_sizes(
                    program, index, &members, recursive, &mut work, options,
                );
                let mut encoded = Vec::with_capacity(members.len());
                for p in &members {
                    let w = work.get(p).cloned().unwrap_or_else(|| Poly::nonneg_universe(p.arity));
                    let f = w.minimized();
                    finals.insert(p.clone(), f.clone());
                    encoded.push((p.clone(), w, f));
                }
                memo.put(&key, &encode_size_entry(&encoded));
            }
        }
    }
    let mut rels = SizeRelations::new();
    for (p, f) in finals {
        rels.insert(p, f);
    }
    rels
}

// ---------------------------------------------------------------------------
// Entry encoding
// ---------------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn new(tag: u8) -> Enc {
        Enc(vec![tag])
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }
    fn rat(&mut self, r: &Rat) {
        self.str(&r.to_string());
    }
    fn pred(&mut self, p: &PredKey) {
        self.str(p.name.as_str());
        self.usize(p.arity);
    }
    fn expr(&mut self, e: &LinExpr) {
        self.rat(e.constant_term());
        let terms: Vec<_> = e.terms().collect();
        self.usize(terms.len());
        for (v, k) in terms {
            self.usize(v);
            self.rat(k);
        }
    }
    fn constraint(&mut self, c: &Constraint) {
        self.u8(match c.rel {
            Rel::Le => 1,
            Rel::Eq => 2,
        });
        self.expr(&c.expr);
    }
    fn sys(&mut self, s: &ConstraintSystem) {
        let rows = s.constraints();
        self.usize(rows.len());
        for c in rows {
            self.constraint(c);
        }
    }
    fn poly(&mut self, p: &Poly) {
        self.usize(p.dim());
        self.u8(u8::from(p.is_empty()));
        self.sys(p.constraints());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
    fn len(&mut self) -> Option<usize> {
        // Element-count fields gate allocations. Every encoded element is
        // at least one byte, so a count exceeding the remaining bytes is
        // malformed — rejecting it here keeps `with_capacity` bounded by
        // the file size even on corrupt input.
        let n = self.usize()?;
        (n <= self.buf.len().saturating_sub(self.pos)).then_some(n)
    }
    fn str(&mut self) -> Option<&'a str> {
        let n = self.usize()?;
        std::str::from_utf8(self.take(n)?).ok()
    }
    fn rat(&mut self) -> Option<Rat> {
        self.str()?.parse().ok()
    }
    fn pred(&mut self) -> Option<PredKey> {
        let name = self.str()?;
        let arity = self.usize()?;
        Some(PredKey::new(name, arity))
    }
    fn expr(&mut self) -> Option<LinExpr> {
        let constant = self.rat()?;
        let n = self.len()?;
        let mut terms = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let v = self.usize()?;
            let k = self.rat()?;
            terms.push((v, k));
        }
        Some(LinExpr::from_terms(terms, constant))
    }
    fn constraint(&mut self) -> Option<Constraint> {
        let rel = match self.u8()? {
            1 => Rel::Le,
            2 => Rel::Eq,
            _ => return None,
        };
        let expr = self.expr()?;
        Some(Constraint { expr, rel })
    }
    fn sys(&mut self) -> Option<ConstraintSystem> {
        let n = self.len()?;
        let mut rows = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            rows.push(self.constraint()?);
        }
        Some(ConstraintSystem::from_constraints(rows))
    }
    fn poly(&mut self) -> Option<Poly> {
        let dim = self.usize()?;
        let empty = match self.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let sys = self.sys()?;
        if sys.vars().iter().any(|&v| v >= dim) {
            return None;
        }
        Some(Poly::from_raw_parts(dim, sys, empty))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

const TAG_SIZE: u8 = 1;
const TAG_THETA: u8 = 2;

/// Encode a phase-A entry: per member, the work-state polyhedron and its
/// minimized (final) form.
pub(crate) fn encode_size_entry(members: &[(PredKey, Poly, Poly)]) -> Vec<u8> {
    let mut e = Enc::new(TAG_SIZE);
    e.usize(members.len());
    for (p, work, fin) in members {
        e.pred(p);
        e.poly(work);
        e.poly(fin);
    }
    e.0
}

/// Decode a phase-A entry; `None` on any malformation.
pub(crate) fn decode_size_entry(bytes: &[u8]) -> Option<Vec<(PredKey, Poly, Poly)>> {
    let mut d = Dec::new(bytes);
    if d.u8()? != TAG_SIZE {
        return None;
    }
    let n = d.len()?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let p = d.pred()?;
        let work = d.poly()?;
        let fin = d.poly()?;
        if work.dim() != p.arity || fin.dim() != p.arity {
            return None;
        }
        out.push((p, work, fin));
    }
    d.done().then_some(out)
}

/// Encode a phase-B entry from a finished [`SccAnalysis`]. `members`,
/// `theta_space` and blame's `Rule` are *not* stored — they are
/// reconstructed from the current program on decode, so spans track the
/// edited file. `wall_nanos` is re-measured on hit.
pub(crate) fn encode_theta_entry(a: &SccAnalysis) -> Vec<u8> {
    let mut e = Enc::new(TAG_THETA);
    match &a.outcome {
        SccOutcome::NonRecursive => e.u8(0),
        SccOutcome::Proved { witness, deltas } => {
            e.u8(1);
            e.usize(witness.len());
            for (p, th) in witness {
                e.pred(p);
                e.usize(th.len());
                for r in th {
                    e.rat(r);
                }
            }
            e.usize(deltas.len());
            for ((h, s), d) in deltas {
                e.pred(h);
                e.pred(s);
                e.rat(d);
            }
        }
        SccOutcome::ProvedLexicographic { proof } => {
            e.u8(2);
            e.usize(proof.levels.len());
            for level in &proof.levels {
                e.usize(level.len());
                for (p, th) in level {
                    e.pred(p);
                    e.usize(th.len());
                    for r in th {
                        e.rat(r);
                    }
                }
            }
            e.usize(proof.discharged_at.len());
            for ((ri, si), lv) in &proof.discharged_at {
                e.usize(*ri);
                e.usize(*si);
                e.usize(*lv);
            }
        }
        SccOutcome::ZeroWeightCycle(cycle) => {
            e.u8(3);
            e.usize(cycle.len());
            for p in cycle {
                e.pred(p);
            }
        }
        SccOutcome::NoLinearDecrease { refutation } => {
            e.u8(4);
            match refutation {
                None => e.u8(0),
                Some(cert) => {
                    e.u8(1);
                    e.usize(cert.multipliers.len());
                    for (idx, lambda) in &cert.multipliers {
                        e.usize(*idx);
                        e.rat(lambda);
                    }
                }
            }
        }
    }
    e.sys(&a.theta_constraints);
    e.usize(a.pair_count);
    match &a.blame {
        None => e.u8(0),
        Some(b) => {
            e.u8(1);
            e.pred(&b.head_pred);
            e.pred(&b.sub_pred);
            e.usize(b.rule_index);
            e.usize(b.subgoal_index);
            e.u8(match b.kind {
                BlameKind::Alone => 1,
                BlameKind::Conjunction => 2,
            });
        }
    }
    for (_, v) in a.stats.fm.counters() {
        e.u64(v);
    }
    e.u64(a.stats.projections);
    e.0
}

/// Decode a phase-B entry against the *current* SCC context, rebuilding the
/// θ space from `members` + `modes` and re-attaching blame to the current
/// rule (so spans match a cold run on the edited file). `None` on any
/// malformation or index out of range.
pub(crate) fn decode_theta_entry(
    bytes: &[u8],
    members: &[PredKey],
    rules: &[&Rule],
    modes: &ModeMap,
) -> Option<SccAnalysis> {
    let mut d = Dec::new(bytes);
    if d.u8()? != TAG_THETA {
        return None;
    }
    let outcome = match d.u8()? {
        0 => SccOutcome::NonRecursive,
        1 => {
            let nw = d.len()?;
            let mut witness = BTreeMap::new();
            for _ in 0..nw {
                let p = d.pred()?;
                let nt = d.len()?;
                let mut th = Vec::with_capacity(nt.min(1024));
                for _ in 0..nt {
                    th.push(d.rat()?);
                }
                witness.insert(p, th);
            }
            let nd = d.len()?;
            let mut deltas = BTreeMap::new();
            for _ in 0..nd {
                let h = d.pred()?;
                let s = d.pred()?;
                let r = d.rat()?;
                deltas.insert((h, s), r);
            }
            SccOutcome::Proved { witness, deltas }
        }
        2 => {
            let nl = d.len()?;
            let mut levels = Vec::with_capacity(nl.min(1024));
            for _ in 0..nl {
                let np = d.len()?;
                let mut level = BTreeMap::new();
                for _ in 0..np {
                    let p = d.pred()?;
                    let nt = d.len()?;
                    let mut th = Vec::with_capacity(nt.min(1024));
                    for _ in 0..nt {
                        th.push(d.rat()?);
                    }
                    level.insert(p, th);
                }
                levels.push(level);
            }
            let nd = d.len()?;
            let mut discharged_at = BTreeMap::new();
            for _ in 0..nd {
                let ri = d.usize()?;
                let si = d.usize()?;
                let lv = d.usize()?;
                discharged_at.insert((ri, si), lv);
            }
            SccOutcome::ProvedLexicographic { proof: LexicographicProof { levels, discharged_at } }
        }
        3 => {
            let n = d.len()?;
            let mut cycle = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                cycle.push(d.pred()?);
            }
            SccOutcome::ZeroWeightCycle(cycle)
        }
        4 => {
            let refutation = match d.u8()? {
                0 => None,
                1 => {
                    let n = d.len()?;
                    let mut multipliers = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        let idx = d.usize()?;
                        let lambda = d.rat()?;
                        multipliers.push((idx, lambda));
                    }
                    Some(argus_linear::FarkasCertificate { multipliers })
                }
                _ => return None,
            };
            SccOutcome::NoLinearDecrease { refutation }
        }
        _ => return None,
    };
    let theta_constraints = d.sys()?;
    let pair_count = d.usize()?;
    let blame = match d.u8()? {
        0 => None,
        1 => {
            let head_pred = d.pred()?;
            let sub_pred = d.pred()?;
            let rule_index = d.usize()?;
            let subgoal_index = d.usize()?;
            let kind = match d.u8()? {
                1 => BlameKind::Alone,
                2 => BlameKind::Conjunction,
                _ => return None,
            };
            let rule = (*rules.get(rule_index)?).clone();
            Some(PairBlame { head_pred, sub_pred, rule, rule_index, subgoal_index, kind })
        }
        _ => return None,
    };
    let mut counters = [0u64; 12];
    for slot in &mut counters {
        *slot = d.u64()?;
    }
    let projections = d.u64()?;
    if !d.done() {
        return None;
    }
    // Rebuild the θ space exactly as `analyze_scc` does.
    let space = ThetaSpace::for_scc(members, modes);
    Some(SccAnalysis {
        members: members.to_vec(),
        outcome,
        theta_constraints,
        theta_space: space,
        pair_count,
        blame,
        stats: SccStats { wall_nanos: 0, fm: FmStats::from_counters(counters), projections },
    })
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

struct MemEntry {
    key: Arc<str>,
    body: Arc<[u8]>,
    stamp: u64,
    bytes: usize,
}

#[derive(Default)]
struct MemInner {
    map: HashMap<u64, Vec<MemEntry>>,
    by_stamp: BTreeMap<u64, u64>,
    bytes: usize,
    clock: u64,
}

/// A content-addressed, byte-budgeted LRU of immutable bodies with an
/// optional disk mirror.
///
/// A body is stored under a canonical key string that names everything the
/// body depends on; probes hash the key with FNV-1a64 and compare the full
/// key, so a hash collision costs speed, never correctness. Past the byte
/// budget the least recently used entries are evicted, always keeping at
/// least one. The first insert of a key wins. This one store backs the
/// per-SCC memo of every surface and `argus serve`'s report and condition
/// caches.
///
/// Thread-safe; cheap to share behind an [`Arc`]. A disk failure or a
/// poisoned lock is a silent miss.
pub struct SccCache {
    inner: Mutex<MemInner>,
    disk: Option<PathBuf>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for SccCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SccCache")
            .field("disk", &self.disk)
            .field("budget", &self.budget)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl SccCache {
    /// In-memory cache with a byte budget (least-recently-used eviction
    /// past the budget, always keeping at least one entry).
    pub fn new(budget_bytes: usize) -> SccCache {
        SccCache {
            inner: Mutex::new(MemInner::default()),
            disk: None,
            budget: budget_bytes.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// In-memory cache without an effective budget (a single CLI run).
    pub fn unbounded() -> SccCache {
        SccCache::new(usize::MAX)
    }

    /// Attach a persistent directory: probes fall through to disk on a
    /// memory miss, and stores are mirrored to disk. The directory is
    /// created eagerly; on failure the cache silently stays memory-only.
    pub fn with_disk(budget_bytes: usize, dir: impl Into<PathBuf>) -> SccCache {
        let dir: PathBuf = dir.into();
        let disk = std::fs::create_dir_all(&dir).ok().map(|()| dir);
        SccCache { disk, ..SccCache::new(budget_bytes) }
    }

    /// The conventional persistent location: `$ARGUS_CACHE_DIR`, else
    /// `$XDG_CACHE_HOME/argus`, else `$HOME/.cache/argus`.
    pub fn default_disk_dir() -> Option<PathBuf> {
        if let Some(d) = std::env::var_os("ARGUS_CACHE_DIR") {
            return Some(PathBuf::from(d));
        }
        if let Some(d) = std::env::var_os("XDG_CACHE_HOME") {
            return Some(Path::new(&d).join("argus"));
        }
        std::env::var_os("HOME").map(|h| Path::new(&h).join(".cache").join("argus"))
    }

    /// Probes answered (memory or disk).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that missed everywhere.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bodies inserted into memory (a disk hit's promotion counts; a
    /// repeated key does not).
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// In-memory entries evicted by the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// In-memory entry count.
    pub fn entries(&self) -> u64 {
        self.inner.lock().map(|i| i.by_stamp.len() as u64).unwrap_or(0)
    }

    /// In-memory resident bytes (bodies + keys + bookkeeping overhead).
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().map(|i| i.bytes as u64).unwrap_or(0)
    }

    /// Look up `key`, consulting memory then disk. A disk hit is promoted
    /// into memory.
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        let hash = Fnv64::digest(key.as_bytes());
        if let Ok(mut inner) = self.inner.lock() {
            inner.clock += 1;
            let clock = inner.clock;
            let mut found: Option<(u64, Arc<[u8]>)> = None;
            if let Some(bucket) = inner.map.get_mut(&hash) {
                if let Some(entry) = bucket.iter_mut().find(|e| &*e.key == key) {
                    found = Some((entry.stamp, Arc::clone(&entry.body)));
                    entry.stamp = clock;
                }
            }
            if let Some((old, body)) = found {
                inner.by_stamp.remove(&old);
                inner.by_stamp.insert(clock, hash);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(body);
            }
        }
        if let Some(dir) = &self.disk {
            if let Some(body) = disk_load(dir, hash, key) {
                let body: Arc<[u8]> = body.into();
                self.insert_mem(hash, key, Arc::clone(&body));
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(body);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Publish an entry (first insert wins in memory; disk is best-effort).
    pub fn put(&self, key: &str, body: &[u8]) {
        let hash = Fnv64::digest(key.as_bytes());
        let arc: Arc<[u8]> = body.into();
        self.insert_mem(hash, key, arc);
        if let Some(dir) = &self.disk {
            disk_store(dir, hash, key, body);
        }
    }

    fn insert_mem(&self, hash: u64, key: &str, body: Arc<[u8]>) {
        let Ok(mut inner) = self.inner.lock() else { return };
        inner.clock += 1;
        let stamp = inner.clock;
        let bytes = key.len() + body.len() + ENTRY_OVERHEAD;
        {
            let bucket = inner.map.entry(hash).or_default();
            if bucket.iter().any(|e| &*e.key == key) {
                return; // first insert wins
            }
            bucket.push(MemEntry { key: key.into(), body, stamp, bytes });
        }
        inner.by_stamp.insert(stamp, hash);
        inner.bytes += bytes;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0u64;
        while inner.bytes > self.budget && inner.by_stamp.len() > 1 {
            let Some((&oldest, &h)) = inner.by_stamp.iter().next() else { break };
            inner.by_stamp.remove(&oldest);
            let mut freed = 0;
            let mut emptied = false;
            if let Some(bucket) = inner.map.get_mut(&h) {
                if let Some(pos) = bucket.iter().position(|e| e.stamp == oldest) {
                    freed = bucket.swap_remove(pos).bytes;
                    evicted += 1;
                }
                emptied = bucket.is_empty();
            }
            inner.bytes -= freed;
            if emptied {
                inner.map.remove(&h);
            }
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Disk store
// ---------------------------------------------------------------------------

fn entry_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.argusscc"))
}

/// Read and fully verify one entry file: magic, schema version, payload
/// length, checksum, and the embedded canonical key. Any mismatch is a
/// silent miss.
fn disk_load(dir: &Path, hash: u64, key: &str) -> Option<Vec<u8>> {
    let data = std::fs::read(entry_path(dir, hash)).ok()?;
    let header = 8 + 4 + 8 + 8;
    if data.len() < header || &data[..8] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(data[8..12].try_into().ok()?);
    if version != SCHEMA_VERSION {
        return None;
    }
    let payload_len = u64::from_le_bytes(data[12..20].try_into().ok()?);
    let checksum = u64::from_le_bytes(data[20..28].try_into().ok()?);
    let payload = data.get(header..)?;
    if payload.len() as u64 != payload_len || Fnv64::digest(payload) != checksum {
        return None;
    }
    let mut d = Dec::new(payload);
    let stored_key = d.str()?;
    if stored_key != key {
        return None; // 64-bit file-name collision: treat as absent
    }
    Some(payload[d.pos..].to_vec())
}

/// Write one entry file atomically (temp file + rename). All errors are
/// swallowed: the cache is an accelerator, never a correctness dependency.
fn disk_store(dir: &Path, hash: u64, key: &str, body: &[u8]) {
    let mut payload = Vec::with_capacity(8 + key.len() + body.len());
    {
        let mut e = Enc(Vec::new());
        e.str(key);
        payload.extend_from_slice(&e.0);
    }
    payload.extend_from_slice(body);
    let mut file = Vec::with_capacity(28 + payload.len());
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&Fnv64::digest(&payload).to_le_bytes());
    file.extend_from_slice(&payload);
    let tmp = dir.join(format!(
        ".{hash:016x}.tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    match std::fs::write(&tmp, &file) {
        Ok(()) => {
            if std::fs::rename(&tmp, entry_path(dir, hash)).is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
        }
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_roundtrip_and_counters() {
        let cache = SccCache::unbounded();
        assert!(cache.get("k1").is_none());
        cache.put("k1", b"hello");
        assert_eq!(cache.get("k1").as_deref(), Some(&b"hello"[..]));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn first_insert_wins() {
        let cache = SccCache::unbounded();
        cache.put("k", b"first");
        cache.put("k", b"second");
        assert_eq!(cache.get("k").as_deref(), Some(&b"first"[..]));
        assert_eq!((cache.insertions(), cache.entries()), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let cache = SccCache::new(2 * (ENTRY_OVERHEAD + 8));
        cache.put("aaaa", &[0u8; 4]);
        cache.put("bbbb", &[1u8; 4]);
        assert!(cache.get("aaaa").is_some()); // refresh a
        cache.put("cccc", &[2u8; 4]); // evicts b (oldest)
        assert!(cache.evictions() >= 1);
        assert!(cache.get("bbbb").is_none());
        assert!(cache.get("aaaa").is_some());
        assert!(cache.get("cccc").is_some());
    }

    /// The θ entry bytes of one corpus SCC, pinned by digest: a reordered
    /// or renamed FM counter list changes the on-disk format without a
    /// `SCHEMA_VERSION` bump and fails here.
    #[test]
    fn theta_entry_bytes_are_pinned() {
        let entry = argus_corpus::find("perm").expect("corpus entry");
        let report =
            crate::analyze::analyze_source(entry.source, entry.query, entry.adornment).unwrap();
        let perm = PredKey::new("perm", 2);
        let scc = report.sccs.iter().find(|s| s.members.contains(&perm)).expect("perm SCC");
        let bytes = encode_theta_entry(scc);
        assert_eq!((bytes.len(), Fnv64::digest(&bytes)), (263, 0x3a3c_fa3c_feee_ef9d));
        let decoded = decode_theta_entry(&bytes, &scc.members, &[], &report.modes).unwrap();
        assert_eq!((decoded.stats.fm, decoded.stats.projections), (scc.stats.fm, 1));
    }

    /// The on-disk entry format: the file name and checksum are `Fnv64`
    /// digests, pinned here against values computed outside this code
    /// base. A change to either needs a `SCHEMA_VERSION` bump.
    #[test]
    fn disk_entry_name_and_checksum_are_pinned() {
        let dir = std::env::temp_dir().join(format!("argus-scc-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SccCache::with_disk(usize::MAX, &dir).put("key-a", b"body-a");
        let path = dir.join("71132af295f22d16.argusscc");
        let data = std::fs::read(&path).expect("entry file named by the digest of the key");
        assert_eq!(data[12..20], 19u64.to_le_bytes(), "payload length");
        assert_eq!(data[20..28], 0x5d38_1695_5218_ba3bu64.to_le_bytes(), "payload checksum");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("argus-scc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = SccCache::with_disk(usize::MAX, &dir);
            cache.put("key-a", b"body-a");
        }
        // Fresh instance: memory empty, disk hit.
        let cache = SccCache::with_disk(usize::MAX, &dir);
        assert_eq!(cache.get("key-a").as_deref(), Some(&b"body-a"[..]));
        // Different key hashing to a different file: miss.
        assert!(cache.get("key-b").is_none());
        // Corrupt every byte position in turn: must never panic, and a
        // fresh instance must treat the damaged file as a miss.
        let path = entry_path(&dir, Fnv64::digest(b"key-a"));
        let original = std::fs::read(&path).unwrap();
        for i in 0..original.len() {
            let mut bad = original.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let fresh = SccCache::with_disk(usize::MAX, &dir);
            if let Some(body) = fresh.get("key-a") {
                // Flipping a bit inside the *body* region is caught by the
                // checksum, so any successful load must be byte-identical.
                assert_eq!(&*body, &b"body-a"[..]);
            }
        }
        // Truncations.
        for cut in [0, 7, 12, 27, original.len() - 1] {
            std::fs::write(&path, &original[..cut]).unwrap();
            let fresh = SccCache::with_disk(usize::MAX, &dir);
            assert!(fresh.get("key-a").is_none(), "truncated at {cut}");
        }
        // Wrong schema version.
        let mut wrong = original.clone();
        wrong[8] = wrong[8].wrapping_add(1);
        std::fs::write(&path, &wrong).unwrap();
        let fresh = SccCache::with_disk(usize::MAX, &dir);
        assert!(fresh.get("key-a").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
