//! Fourier–Motzkin elimination with tiered redundancy control.
//!
//! Given a conjunction of linear constraints, eliminate a variable `v` so
//! that the resulting system has exactly the satisfying assignments of the
//! original projected onto the remaining variables. Equalities mentioning
//! `v` are used as substitutions (Gaussian step); otherwise every pair of a
//! lower bound and an upper bound on `v` is combined.
//!
//! This is the engine behind the paper's reduction of the dual system
//! (its Eq. 8) down to constraints on the distinguished θ variables
//! (its Eq. 9), and behind polyhedron projection and convex hull in
//! [`crate::poly`].
//!
//! FM's pairwise products blow up superexponentially without redundancy
//! control, so the kernel works on canonical integer rows
//! ([`crate::canon::IntRow`]) and filters every derived row through a
//! tier ladder ([`FmTier`]):
//!
//! * **tier 0** — exact-duplicate dedup (canonical rows are equal iff
//!   structurally equal, so this is one index probe);
//! * **tier 1** — syntactic subsumption: rows with the same coefficient
//!   direction keep only the tightest constant;
//! * **tier 2** (default) — Chernikov/Imbert ancestor counting: a row
//!   derived after `k` eliminations from more than `k + 1` original rows
//!   is redundant and dropped — the classic quasi-redundancy cut;
//! * **tier 3** — budgeted LP implication tests: each derived row is
//!   checked with [`crate::simplex::is_implied`] against a snapshot of
//!   the round's untouched rows and dropped if they imply it.
//!
//! Every tier preserves the projected solution set exactly (lower tiers
//! just carry more redundant rows), which the proptests in
//! `tests/proptests.rs` check against both simplex and tier 0.
//!
//! Offering a row to the filter allocates nothing. Each row carries its
//! hash, its coefficient gcd and the hash of its direction (coefficients
//! ÷ gcd), computed once when the row is made, so an untouched row
//! offered again in a later round costs only index probes. Dedup is an
//! index from row hash to the accepted rows; a row that subsumption
//! replaces moves to a retired list and stays in that index, so it still
//! counts as seen. Subsumption is an index from direction hash to the
//! survivors, whose directions and bounds are compared by
//! cross-multiplying with the gcds, on `i128` unless a value is outside
//! `i64`. Ancestor sets are bitsets. These indexes decide exactly what a
//! set of rows and a map from direction to tightest rational bound would,
//! so the survivors, their order and every [`FmStats`] counter are those
//! of that simpler filter, a copy of which the unit tests keep as an
//! oracle.

use crate::bigint::BigInt;
use crate::canon::{self, IntRow};
use crate::expr::{ConstraintSystem, Rel, Var};
use crate::simplex;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Outcome of a Fourier–Motzkin elimination round: the projected rows as
/// a [`ConstraintSystem`] or, from [`project_int_rows_with`], as canonical
/// [`IntRow`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmResult<S = ConstraintSystem> {
    /// The projected system (the variable no longer occurs).
    Projected(S),
    /// Elimination exposed a contradictory constant constraint: the input
    /// system is unsatisfiable.
    Infeasible,
}

impl<S> FmResult<S> {
    /// Unwrap the projected system, panicking on infeasibility.
    pub fn expect_projected(self) -> S {
        match self {
            FmResult::Projected(s) => s,
            FmResult::Infeasible => panic!("system became infeasible during elimination"),
        }
    }

    /// The projected system, or `None` if infeasible.
    pub fn projected(self) -> Option<S> {
        match self {
            FmResult::Projected(s) => Some(s),
            FmResult::Infeasible => None,
        }
    }
}

/// Row-cap bailout: the elimination materialized more rows than the
/// configured bound allows. Carries the offending count for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmBlowup {
    /// Rows materialized when the cap tripped (the offending count).
    pub rows: usize,
    /// The configured cap.
    pub max_rows: usize,
    /// The bailout was the wall-clock deadline ([`FmConfig::deadline`]),
    /// not the row cap. Deadline bailouts depend on machine speed, so
    /// callers caching projection results must not publish them.
    pub timed_out: bool,
}

impl fmt::Display for FmBlowup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.timed_out {
            write!(f, "fourier-motzkin deadline exceeded at {} rows", self.rows)
        } else {
            write!(
                f,
                "fourier-motzkin blowup: {} rows exceed the cap of {}",
                self.rows, self.max_rows
            )
        }
    }
}

/// Redundancy-elimination tier. Each tier includes all cheaper ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum FmTier {
    /// Exact-duplicate hash dedup only.
    Dedup,
    /// Plus syntactic subsumption (same direction, weaker constant).
    Subsume,
    /// Plus Chernikov/Imbert ancestor-count quasi-redundancy drops.
    #[default]
    Chernikov,
    /// Plus budgeted LP implication tests against the untouched rows.
    Lp,
}

impl FmTier {
    /// All tiers, cheapest first.
    pub const ALL: [FmTier; 4] = [FmTier::Dedup, FmTier::Subsume, FmTier::Chernikov, FmTier::Lp];

    /// Numeric level (0–3).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Maximum LP implication tests per projection (tier 3 only).
const LP_PROBE_BUDGET: usize = 256;

/// Knobs for one elimination/projection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmConfig {
    /// Redundancy tier.
    pub tier: FmTier,
    /// Hard bound on materialized rows; exceeding it aborts with
    /// [`FmBlowup`]. `usize::MAX` disables the cap.
    pub max_rows: usize,
    /// Wall-clock deadline: once `Instant::now()` passes it, the run aborts
    /// with [`FmBlowup`] marked `timed_out`. Checked at round boundaries
    /// and periodically inside the pair-combination loop, so a runaway
    /// elimination stops within a bounded amount of extra work. `None`
    /// (the default) disables the check and keeps the engine fully
    /// deterministic.
    pub deadline: Option<std::time::Instant>,
}

impl Default for FmConfig {
    fn default() -> FmConfig {
        FmConfig { tier: FmTier::default(), max_rows: usize::MAX, deadline: None }
    }
}

impl FmConfig {
    /// Default tier with a row cap.
    pub fn capped(max_rows: usize) -> FmConfig {
        FmConfig { max_rows, ..FmConfig::default() }
    }

    /// A specific tier, uncapped.
    pub fn tiered(tier: FmTier) -> FmConfig {
        FmConfig { tier, ..FmConfig::default() }
    }
}

/// Counters describing one or more elimination runs. All fields are exact
/// deterministic counts (no wall-clock), so they are stable across worker
/// counts and safe to pin in CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FmStats {
    /// Variable eliminations performed (Gaussian or pairwise).
    pub eliminations: u64,
    /// Eliminations resolved by a Gaussian equality substitution.
    pub gauss_steps: u64,
    /// Rows entering elimination rounds (summed over rounds).
    pub rows_in: u64,
    /// Rows surviving elimination rounds (summed over rounds).
    pub rows_out: u64,
    /// Lower×upper pairs combined.
    pub pairs_combined: u64,
    /// Rows dropped as exact duplicates (tier ≥ 0).
    pub dedup_hits: u64,
    /// Rows dropped or replaced by syntactic subsumption (tier ≥ 1).
    pub subsume_hits: u64,
    /// Rows dropped by the Chernikov/Imbert ancestor bound (tier ≥ 2).
    pub chernikov_drops: u64,
    /// Rows dropped by LP implication tests (tier 3).
    pub lp_drops: u64,
    /// Maximum rows materialized at any point.
    pub peak_rows: u64,
    /// Row combinations completed by the batched `i64` kernel.
    pub small_combs: u64,
    /// Row combinations that promoted to big-integer arithmetic.
    pub big_combs: u64,
}

impl FmStats {
    /// Accumulate another run's counters (sums; `peak_rows` takes the max).
    pub fn merge(&mut self, other: &FmStats) {
        self.eliminations += other.eliminations;
        self.gauss_steps += other.gauss_steps;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.pairs_combined += other.pairs_combined;
        self.dedup_hits += other.dedup_hits;
        self.subsume_hits += other.subsume_hits;
        self.chernikov_drops += other.chernikov_drops;
        self.lp_drops += other.lp_drops;
        self.peak_rows = self.peak_rows.max(other.peak_rows);
        self.small_combs += other.small_combs;
        self.big_combs += other.big_combs;
    }

    /// Every counter with its name, in field order: the one list that
    /// the report JSON, the `/metrics` block and the θ memo codec all
    /// walk, so none of them spells the fields out.
    pub fn counters(&self) -> [(&'static str, u64); 12] {
        [
            ("eliminations", self.eliminations),
            ("gauss_steps", self.gauss_steps),
            ("rows_in", self.rows_in),
            ("rows_out", self.rows_out),
            ("pairs_combined", self.pairs_combined),
            ("dedup_hits", self.dedup_hits),
            ("subsume_hits", self.subsume_hits),
            ("chernikov_drops", self.chernikov_drops),
            ("lp_drops", self.lp_drops),
            ("peak_rows", self.peak_rows),
            ("small_combs", self.small_combs),
            ("big_combs", self.big_combs),
        ]
    }

    /// The inverse of [`FmStats::counters`]: values in field order.
    pub fn from_counters(values: [u64; 12]) -> FmStats {
        FmStats {
            eliminations: values[0],
            gauss_steps: values[1],
            rows_in: values[2],
            rows_out: values[3],
            pairs_combined: values[4],
            dedup_hits: values[5],
            subsume_hits: values[6],
            chernikov_drops: values[7],
            lp_drops: values[8],
            peak_rows: values[9],
            small_combs: values[10],
            big_combs: values[11],
        }
    }
}

// ------------------------------------------------------------------ kernel

/// The multiplier of the FxHash word mix.
const KEY_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Hasher for the reducer's row and direction keys: an FxHash-style
/// rotate-xor-multiply per word, finished with the murmur3 avalanche so
/// the low bits a hash table buckets on are as mixed as the high ones.
/// Keys are compared exactly on a hash match, so the hash only has to
/// spread, never to decide. The keys derive from the analysed program,
/// so crafted collisions are possible, but they cost at most a
/// comparison with each row the reducer holds, which is bounded by the
/// row cap like FM's own pairwise combine.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn word(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(KEY_MUL);
    }

    /// Values that fit an `i64` hash as one word; larger ones hash their
    /// limbs (a `BigInt` that fits an `i64` is always stored inline, so a
    /// number always takes the same branch).
    fn int(&mut self, x: &BigInt) {
        match x.to_i64() {
            Some(k) => self.word(k as u64),
            None => x.hash(self),
        }
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.word(x);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Hasher for maps keyed by an already mixed [`KeyHasher`] value: the
/// key is its own hash.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keys are pre-hashed u64 values");
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash → head of a chain of index nodes.
type KeyIndex = HashMap<u64, u32, BuildHasherDefault<PreHashed>>;

/// End of an index chain.
const NIL: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Unit-test instrumentation: counts [`Reducer::new`] calls, so the
    /// tests can pin one reducer per projection.
    static REDUCERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A row's ancestor set: a bitset over the ids of the original rows it
/// was combined from (an original row's id is its index in the input
/// system). Imbert's bound says a row with more than `k + 1` ancestors
/// after `k` eliminations is redundant. Systems of up to 128 rows keep
/// the set inline; wider ones spill to the heap.
#[derive(Debug)]
enum Ancestors {
    Inline([u64; 2]),
    Spilled(Box<[u64]>),
}

impl Ancestors {
    /// The set `{id}` sized for a system of `originals` rows.
    fn single(id: usize, originals: usize) -> Ancestors {
        let (word, bit) = (id / 64, 1u64 << (id % 64));
        if originals <= 128 {
            let mut w = [0; 2];
            w[word] = bit;
            Ancestors::Inline(w)
        } else {
            let mut w = vec![0; originals.div_ceil(64)].into_boxed_slice();
            w[word] = bit;
            Ancestors::Spilled(w)
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            Ancestors::Inline(w) => w,
            Ancestors::Spilled(w) => w,
        }
    }

    /// Set union: a word-wise OR.
    fn union(&self, other: &Ancestors) -> Ancestors {
        if let (Ancestors::Inline(a), Ancestors::Inline(b)) = (self, other) {
            return Ancestors::Inline([a[0] | b[0], a[1] | b[1]]);
        }
        let (a, b) = (self.words(), other.words());
        let word = |w: &[u64], i: usize| w.get(i).copied().unwrap_or(0);
        Ancestors::Spilled((0..a.len().max(b.len())).map(|i| word(a, i) | word(b, i)).collect())
    }

    /// Set size: a popcount.
    fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// A row in flight with its ancestor set and the keys the [`Reducer`]
/// looks it up by. The keys are computed once, when the row is made, so
/// an untouched row offered again in a later round costs only the index
/// probes.
#[derive(Debug)]
struct DRow {
    row: IntRow,
    hist: Ancestors,
    /// Hash of the whole canonical row: the dedup key.
    hash: u64,
    /// The gcd of the coefficients alone (`≤` rows only, else 0). The
    /// row's direction is `coeffs / gcd` and its bound `constant / gcd`.
    gcd: BigInt,
    /// Hash of the direction `coeffs / gcd` (`≤` rows only): the
    /// subsumption key.
    dir: u64,
}

impl DRow {
    fn new(row: IntRow, hist: Ancestors) -> DRow {
        let mut h = KeyHasher::default();
        for (v, k) in &row.coeffs {
            h.word(*v as u64);
            h.int(k);
        }
        h.int(&row.constant);
        h.word(row.rel as u64);
        let (gcd, dir) = if row.rel == Rel::Le {
            let mut g = BigInt::zero();
            for (_, k) in &row.coeffs {
                g = g.gcd(k);
            }
            let mut d = KeyHasher::default();
            for (v, k) in &row.coeffs {
                d.word(*v as u64);
                match (k.to_i64(), g.to_i64()) {
                    (Some(k), Some(g)) => d.word((k / g) as u64),
                    _ => d.int(&(k / &g)),
                }
            }
            (g, d.finish())
        } else {
            (BigInt::zero(), 0)
        };
        DRow { hash: h.finish(), row, hist, gcd, dir }
    }

    /// Whether `self` and `other` (both `≤` rows) have the same
    /// direction: the same variables, with coefficients in the ratio
    /// of their gcds.
    fn same_direction(&self, other: &DRow) -> bool {
        self.row.coeffs.len() == other.row.coeffs.len()
            && self.row.coeffs.iter().zip(&other.row.coeffs).all(|((va, ka), (vb, kb))| {
                va == vb && cross_cmp(ka, &other.gcd, kb, &self.gcd) == Ordering::Equal
            })
    }

    /// Whether the bound of `self` is at most that of `other`, a row of
    /// the same direction: `constant / gcd` compared across the two.
    fn bound_at_most(&self, other: &DRow) -> bool {
        cross_cmp(&self.row.constant, &other.gcd, &other.row.constant, &self.gcd)
            != Ordering::Greater
    }
}

/// Compare `x·p` with `y·q`: on `i128` when all four fit an `i64` (two
/// such products cannot overflow), else on big integers.
fn cross_cmp(x: &BigInt, p: &BigInt, y: &BigInt, q: &BigInt) -> Ordering {
    match (x.to_i64(), p.to_i64(), y.to_i64(), q.to_i64()) {
        (Some(x), Some(p), Some(y), Some(q)) => {
            (i128::from(x) * i128::from(p)).cmp(&(i128::from(y) * i128::from(q)))
        }
        _ => (x * p).cmp(&(y * q)),
    }
}

/// What happened to a row offered to the [`Reducer`].
enum Push {
    /// Appended as a new row.
    Added,
    /// Replaced a weaker row in place (row count unchanged).
    Replaced,
    /// Dropped (trivial or redundant).
    Dropped,
    /// The row is a contradictory constant: the system is infeasible.
    Infeasible,
}

/// Where a row the [`Reducer`] has accepted lives now.
#[derive(Debug, Clone, Copy)]
enum Seen {
    /// A survivor: `out[i]`.
    Live(u32),
    /// Replaced by a tighter row of its direction: `retired[i]`.
    Retired(u32),
}

/// The tiered redundancy filter: rows are offered one at a time; the
/// survivor list preserves offer order (subsumption tightens in place).
///
/// Two indexes keep an offer free of allocation. The dedup index maps a
/// row hash to every accepted row with that hash, survivors and retired
/// rows alike: a row replaced by subsumption moves to `retired` and
/// still counts as seen, so offering it again is a dedup hit, as it was
/// when every accepted row went into one set (dropping it from the index
/// would turn that hit into a subsumption hit). The subsumption index
/// maps a direction hash to the survivors of that direction (at most
/// one per direction, and a replacement keeps the direction, so entries
/// never move), compared by cross-multiplication against the rows'
/// coefficient gcds. Both answer exactly the questions a set of rows and
/// a map from direction to tightest bound would, so every drop,
/// replacement and counter is the same as with those structures.
///
/// One reducer serves a whole projection: [`Reducer::reset`] empties it
/// between rounds and keeps its allocations.
struct Reducer {
    tier: FmTier,
    /// Chernikov ancestor bound for derived rows (`usize::MAX` disables).
    hist_bound: usize,
    out: Vec<DRow>,
    retired: Vec<IntRow>,
    /// Row hash → chain in `seen`.
    seen_heads: KeyIndex,
    /// Dedup chain nodes: (where the row lives, next node or [`NIL`]).
    seen: Vec<(Seen, u32)>,
    /// Direction hash → chain in `dirs` (`≤` rows, tier ≥ 1 only).
    dir_heads: KeyIndex,
    /// Subsumption chain nodes: (survivor index, next node or [`NIL`]).
    dirs: Vec<(u32, u32)>,
}

impl Reducer {
    fn new(tier: FmTier, capacity: usize) -> Reducer {
        #[cfg(test)]
        REDUCERS.with(|c| c.set(c.get() + 1));
        Reducer {
            tier,
            hist_bound: usize::MAX,
            out: Vec::with_capacity(capacity),
            retired: Vec::new(),
            seen_heads: KeyIndex::with_capacity_and_hasher(capacity, Default::default()),
            seen: Vec::with_capacity(capacity),
            dir_heads: KeyIndex::with_capacity_and_hasher(capacity, Default::default()),
            dirs: Vec::with_capacity(capacity),
        }
    }

    /// Empty every list and index for a new round with ancestor bound
    /// `hist_bound`, keeping the allocations.
    fn reset(&mut self, hist_bound: usize) {
        self.hist_bound = hist_bound;
        self.out.clear();
        self.retired.clear();
        self.seen_heads.clear();
        self.seen.clear();
        self.dir_heads.clear();
        self.dirs.clear();
    }

    /// The survivors, with the emptied `spare` taking their place as the
    /// next round's output buffer.
    fn take_out(&mut self, spare: Vec<DRow>) -> Vec<DRow> {
        debug_assert!(spare.is_empty());
        std::mem::replace(&mut self.out, spare)
    }

    fn seen_row(&self, at: Seen) -> &IntRow {
        match at {
            Seen::Live(i) => &self.out[i as usize].row,
            Seen::Retired(i) => &self.retired[i as usize],
        }
    }

    fn is_seen(&self, d: &DRow) -> bool {
        let mut node = self.seen_heads.get(&d.hash).copied().unwrap_or(NIL);
        while node != NIL {
            let (at, next) = self.seen[node as usize];
            if *self.seen_row(at) == d.row {
                return true;
            }
            node = next;
        }
        false
    }

    fn note_seen(&mut self, hash: u64, at: Seen) {
        let head = self.seen_heads.entry(hash).or_insert(NIL);
        self.seen.push((at, *head));
        *head = (self.seen.len() - 1) as u32;
    }

    /// The survivor with the direction of `d`, if any.
    fn same_direction(&self, d: &DRow) -> Option<usize> {
        let mut node = self.dir_heads.get(&d.dir).copied().unwrap_or(NIL);
        while node != NIL {
            let (i, next) = self.dirs[node as usize];
            if self.out[i as usize].same_direction(d) {
                return Some(i as usize);
            }
            node = next;
        }
        None
    }

    fn push(
        &mut self,
        d: DRow,
        derived: bool,
        stats: &mut FmStats,
        mut lp: Option<(&ConstraintSystem, &mut usize)>,
    ) -> Push {
        match d.row.constant_truth() {
            Some(true) => return Push::Dropped,
            Some(false) => return Push::Infeasible,
            None => {}
        }
        if self.is_seen(&d) {
            stats.dedup_hits += 1;
            return Push::Dropped;
        }
        if derived && self.tier >= FmTier::Chernikov && d.hist.len() > self.hist_bound {
            stats.chernikov_drops += 1;
            return Push::Dropped;
        }
        // Subsumption lookup (mutation deferred until the LP test passes).
        let subsumes = self.tier >= FmTier::Subsume && d.row.rel == Rel::Le;
        let twin = if subsumes { self.same_direction(&d) } else { None };
        if let Some(i) = twin {
            if d.bound_at_most(&self.out[i]) {
                // An existing row is at least as tight: drop this one.
                stats.subsume_hits += 1;
                return Push::Dropped;
            }
        }
        if derived && self.tier >= FmTier::Lp && d.row.rel == Rel::Le {
            if let Some((untouched, budget)) = lp.as_mut() {
                if **budget > 0 {
                    **budget -= 1;
                    if simplex::is_implied(untouched, &BTreeSet::new(), &d.row.to_constraint()) {
                        stats.lp_drops += 1;
                        return Push::Dropped;
                    }
                }
            }
        }
        if let Some(i) = twin {
            // This row is strictly tighter: replace the weaker survivor,
            // which stays seen from the retired list.
            stats.subsume_hits += 1;
            let hash = d.hash;
            let weaker = std::mem::replace(&mut self.out[i], d);
            let mut node = self.seen_heads[&weaker.hash];
            while !matches!(self.seen[node as usize].0, Seen::Live(j) if j as usize == i) {
                node = self.seen[node as usize].1;
            }
            self.seen[node as usize].0 = Seen::Retired(self.retired.len() as u32);
            self.retired.push(weaker.row);
            self.note_seen(hash, Seen::Live(i as u32));
            return Push::Replaced;
        }
        let i = self.out.len() as u32;
        self.note_seen(d.hash, Seen::Live(i));
        if subsumes {
            let head = self.dir_heads.entry(d.dir).or_insert(NIL);
            self.dirs.push((i, *head));
            *head = (self.dirs.len() - 1) as u32;
        }
        self.out.push(d);
        Push::Added
    }
}

enum RoundOut {
    Rows(Vec<DRow>),
    Infeasible,
}

/// Deadline probe shared by the round drivers: `Err` when the configured
/// wall-clock budget is spent. `rows` is the current materialized count,
/// reported in the bailout for diagnostics.
fn check_deadline(cfg: &FmConfig, rows: usize) -> Result<(), FmBlowup> {
    match cfg.deadline {
        Some(d) if std::time::Instant::now() >= d => {
            Err(FmBlowup { rows, max_rows: cfg.max_rows, timed_out: true })
        }
        _ => Ok(()),
    }
}

/// How many lower×upper combinations the pair loop performs between
/// deadline probes. `Instant::now()` is tens of nanoseconds while one
/// combination is microseconds, so even probing this often is noise — the
/// stride just keeps the common (no-deadline) path branch-cheap.
const DEADLINE_STRIDE: u64 = 256;

/// Initially reduce the input rows. Every row gets a fresh ancestor id;
/// the Chernikov bound never applies to originals.
fn init_rows(rows: Vec<IntRow>, red: &mut Reducer, stats: &mut FmStats) -> RoundOut {
    let originals = rows.len();
    red.reset(usize::MAX);
    for (i, row) in rows.into_iter().enumerate() {
        let d = DRow::new(row, Ancestors::single(i, originals));
        if let Push::Infeasible = red.push(d, false, stats, None) {
            return RoundOut::Infeasible;
        }
    }
    RoundOut::Rows(red.take_out(Vec::with_capacity(originals)))
}

/// One elimination round for `v` over `rows`, through the projection's
/// reducer `red`. `steps_done` is the number of variables already
/// eliminated (sets the Imbert ancestor bound); `lp_budget` is decremented
/// per tier-3 LP.
fn eliminate_round(
    mut rows: Vec<DRow>,
    red: &mut Reducer,
    v: Var,
    steps_done: usize,
    cfg: &FmConfig,
    stats: &mut FmStats,
    lp_budget: &mut usize,
) -> Result<RoundOut, FmBlowup> {
    stats.eliminations += 1;
    stats.rows_in += rows.len() as u64;
    check_deadline(cfg, rows.len())?;
    red.reset(steps_done.saturating_add(2));

    // Gaussian step: the first equality mentioning v substitutes it away.
    let pivot_idx = rows.iter().position(|d| d.row.rel == Rel::Eq && d.row.coeff(v).is_some());
    if let Some(pi) = pivot_idx {
        stats.gauss_steps += 1;
        let pivot = rows.remove(pi);
        let ce = pivot.row.coeff(v).expect("pivot coefficient").clone();
        let p = ce.abs();
        let offered = rows.len();
        for d in rows.drain(..) {
            let Some(cr) = d.row.coeff(v) else {
                if let Push::Infeasible = red.push(d, false, stats, None) {
                    return Ok(RoundOut::Infeasible);
                }
                continue;
            };
            // r' = |ce|·r − sign(ce)·cr·e: v cancels, `≤` direction kept.
            let q = if ce.is_positive() { -cr } else { cr.clone() };
            let (row, small) = d.row.linear_comb_counted(&p, &pivot.row, &q, v);
            if small {
                stats.small_combs += 1;
            } else {
                stats.big_combs += 1;
            }
            let hist = d.hist.union(&pivot.hist);
            if let Push::Infeasible = red.push(DRow::new(row, hist), true, stats, None) {
                return Ok(RoundOut::Infeasible);
            }
        }
        // The round returns fewer rows than it received (the pivot is
        // gone), and `project_rows` bails out on an input over the cap, so
        // no row cap check is needed here.
        debug_assert!(red.out.len() <= offered);
        stats.rows_out += red.out.len() as u64;
        return Ok(RoundOut::Rows(red.take_out(rows)));
    }

    // Pure inequality elimination. A row (a·v + rest ≤ 0) with a > 0 is an
    // upper bound on v; with a < 0 a lower bound.
    let mut uppers: Vec<(BigInt, DRow)> = Vec::new();
    let mut lowers: Vec<(BigInt, DRow)> = Vec::new();
    for d in rows.drain(..) {
        let Some(a) = d.row.coeff(v) else {
            if let Push::Infeasible = red.push(d, false, stats, None) {
                return Ok(RoundOut::Infeasible);
            }
            continue;
        };
        debug_assert_ne!(d.row.rel, Rel::Eq, "equalities mentioning v take the Gaussian step");
        let a = a.clone();
        if a.is_positive() {
            uppers.push((a, d));
        } else {
            lowers.push((a, d));
        }
    }

    // Tier 3: test derived rows against a snapshot of the untouched rows,
    // one exact LP per row.
    let untouched = if cfg.tier >= FmTier::Lp
        && *lp_budget > 0
        && !red.out.is_empty()
        && !lowers.is_empty()
        && !uppers.is_empty()
    {
        let rows = red.out.iter().map(|d| d.row.to_constraint()).collect();
        Some(ConstraintSystem::from_constraints(rows))
    } else {
        None
    };

    // Combine each (lower, upper) pair: from b·v + rl ≤ 0 (b < 0) and
    // a·v + ru ≤ 0 (a > 0), the positive combination a·L + (−b)·U
    // cancels v, giving a·rl − b·ru ≤ 0 — the same direction the rational
    // bound comparison −rl/b ≤ −ru/a yields after canonicalization.
    for (b, lo) in &lowers {
        let nb = -b;
        for (a, up) in &uppers {
            stats.pairs_combined += 1;
            if cfg.deadline.is_some() && stats.pairs_combined.is_multiple_of(DEADLINE_STRIDE) {
                check_deadline(cfg, red.out.len())?;
            }
            let (row, small) = lo.row.linear_comb_counted(a, &up.row, &nb, v);
            if small {
                stats.small_combs += 1;
            } else {
                stats.big_combs += 1;
            }
            let hist = lo.hist.union(&up.hist);
            let res = red.push(
                DRow::new(row, hist),
                true,
                stats,
                untouched.as_ref().map(|sys| (sys, &mut *lp_budget)),
            );
            match res {
                Push::Infeasible => return Ok(RoundOut::Infeasible),
                Push::Added if red.out.len() > cfg.max_rows => {
                    return Err(FmBlowup {
                        rows: red.out.len(),
                        max_rows: cfg.max_rows,
                        timed_out: false,
                    });
                }
                _ => {}
            }
        }
    }
    stats.rows_out += red.out.len() as u64;
    Ok(RoundOut::Rows(red.take_out(rows)))
}

// ------------------------------------------------------------------ driver

/// Project `sys` onto `keep`: eliminate every variable not in `keep`.
/// Variables are eliminated in a greedy order that minimizes the product of
/// positive and negative occurrence counts at each step (a standard
/// heuristic that curbs FM's row blowup).
pub fn project_onto(sys: &ConstraintSystem, keep: &BTreeSet<Var>) -> FmResult {
    let mut stats = FmStats::default();
    project_onto_with(sys, keep, &FmConfig::default(), &mut stats)
        .expect("uncapped projection cannot overflow")
}

/// How a variable still to be eliminated occurs in the current rows.
struct Occurrences {
    var: Var,
    /// `≤` rows with a positive coefficient (upper bounds).
    pos: usize,
    /// `≤` rows with a negative coefficient (lower bounds).
    neg: usize,
    /// Whether an equality mentions it.
    eq: bool,
}

impl Occurrences {
    /// The greedy order's key: the rows its elimination derives.
    fn cost(&self) -> usize {
        if self.eq {
            0 // Gaussian elimination is always cheapest.
        } else {
            self.pos * self.neg + 1
        }
    }
}

/// [`project_onto`] with explicit configuration and counters.
///
/// Gives up (returning [`FmBlowup`]) once an intermediate system exceeds
/// `cfg.max_rows` rows ([`FmConfig::capped`]): callers bound FM's
/// worst-case doubly-exponential blowup this way and fall back to a sound
/// over-approximation.
pub fn project_onto_with(
    sys: &ConstraintSystem,
    keep: &BTreeSet<Var>,
    cfg: &FmConfig,
    stats: &mut FmStats,
) -> Result<FmResult, FmBlowup> {
    let rows = sys.constraints().iter().map(IntRow::of_constraint).collect();
    Ok(match project_int_rows_with(rows, keep, cfg, stats)? {
        FmResult::Projected(rows) => FmResult::Projected(ConstraintSystem::of_rows(&rows)),
        FmResult::Infeasible => FmResult::Infeasible,
    })
}

/// [`project_onto_with`] on a system already in canonical integer form,
/// returning the projected rows in that form; no row is converted. The
/// surviving rows go through [`canon::dedup`]: equalities in derivation
/// order, then inequalities sorted by coefficients, the tightest of each.
pub fn project_int_rows_with(
    rows: Vec<IntRow>,
    keep: &BTreeSet<Var>,
    cfg: &FmConfig,
    stats: &mut FmStats,
) -> Result<FmResult<Vec<IntRow>>, FmBlowup> {
    Ok(match project_rows(rows, keep, cfg, stats)? {
        RoundOut::Rows(rows) => FmResult::Projected(canon::dedup(rows.into_iter().map(|d| d.row))),
        RoundOut::Infeasible => FmResult::Infeasible,
    })
}

/// The elimination loop of [`project_int_rows_with`], with one reducer
/// for every round: the surviving rows in survivor order, before
/// [`canon::dedup`] orders them.
fn project_rows(
    rows: Vec<IntRow>,
    keep: &BTreeSet<Var>,
    cfg: &FmConfig,
    stats: &mut FmStats,
) -> Result<RoundOut, FmBlowup> {
    let mut red = Reducer::new(cfg.tier, rows.len());
    let mut rows = match init_rows(rows, &mut red, stats) {
        RoundOut::Infeasible => return Ok(RoundOut::Infeasible),
        RoundOut::Rows(rows) => rows,
    };
    let mut steps = 0usize;
    let mut lp_budget = LP_PROBE_BUDGET;
    let mut occurrences: Vec<Occurrences> = Vec::new();
    loop {
        stats.peak_rows = stats.peak_rows.max(rows.len() as u64);
        if rows.len() > cfg.max_rows {
            return Err(FmBlowup { rows: rows.len(), max_rows: cfg.max_rows, timed_out: false });
        }
        // One pass counts every variable still to go, sorted by variable.
        occurrences.clear();
        for d in &rows {
            for (v, a) in &d.row.coeffs {
                if keep.contains(v) {
                    continue;
                }
                let at = match occurrences.binary_search_by_key(v, |o| o.var) {
                    Ok(at) => at,
                    Err(at) => {
                        occurrences.insert(at, Occurrences { var: *v, pos: 0, neg: 0, eq: false });
                        at
                    }
                };
                let o = &mut occurrences[at];
                if d.row.rel == Rel::Eq {
                    o.eq = true;
                } else if a.is_positive() {
                    o.pos += 1;
                } else {
                    o.neg += 1;
                }
            }
        }
        // Pick the variable whose elimination creates the fewest new rows,
        // the lowest-numbered one on a tie.
        let Some(best) = occurrences.iter().min_by_key(|o| o.cost()) else {
            return Ok(RoundOut::Rows(rows));
        };
        rows = match eliminate_round(rows, &mut red, best.var, steps, cfg, stats, &mut lp_budget)? {
            RoundOut::Infeasible => return Ok(RoundOut::Infeasible),
            RoundOut::Rows(next) => next,
        };
        steps += 1;
    }
}

/// Decide satisfiability of `sys` (over the rationals, all variables free)
/// purely with Fourier–Motzkin. Intended for small systems and as a test
/// oracle for the simplex solver. Uses the same greedy variable ordering
/// as [`project_onto`].
pub fn is_satisfiable_fm(sys: &ConstraintSystem) -> bool {
    match project_onto(sys, &BTreeSet::new()) {
        FmResult::Infeasible => false,
        FmResult::Projected(rest) => rest.simplify_trivial().is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Constraint, LinExpr};
    use crate::rat::Rat;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(n.into(), d.into())
    }

    fn le(e: LinExpr, bound: i64) -> Constraint {
        Constraint::le(e, LinExpr::constant(r(bound, 1)))
    }

    #[test]
    fn box_projection() {
        // 0 <= x <= 1, 0 <= y <= 1, x + y <= 3/2; eliminate y.
        let x = 0;
        let y = 1;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(x), LinExpr::zero()));
        sys.push(le(LinExpr::var(x), 1));
        sys.push(Constraint::ge(LinExpr::var(y), LinExpr::zero()));
        sys.push(le(LinExpr::var(y), 1));
        sys.push(Constraint::le(&LinExpr::var(x) + &LinExpr::var(y), LinExpr::constant(r(3, 2))));
        let out = project_onto(&sys, &[x].into()).expect_projected();
        // Projection is 0 <= x <= 1 (x + y <= 3/2 is subsumed for x <= 1).
        let mut p = std::collections::BTreeMap::new();
        p.insert(x, r(1, 1));
        assert!(out.holds_at(&p));
        p.insert(x, r(0, 1));
        assert!(out.holds_at(&p));
        p.insert(x, r(2, 1));
        assert!(!out.holds_at(&p));
        assert!(!out.vars().contains(&y));
    }

    #[test]
    fn gaussian_step_for_equalities() {
        // x = y + 1, x <= 3 => after eliminating x: y <= 2.
        let x = 0;
        let y = 1;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(LinExpr::var(x), &LinExpr::var(y) + &LinExpr::constant(r(1, 1))));
        sys.push(le(LinExpr::var(x), 3));
        let out = project_onto(&sys, &[y].into()).expect_projected();
        let mut p = std::collections::BTreeMap::new();
        p.insert(y, r(2, 1));
        assert!(out.holds_at(&p));
        p.insert(y, r(5, 2));
        assert!(!out.holds_at(&p));
    }

    #[test]
    fn detects_infeasibility() {
        // x >= 2 and x <= 1.
        let x = 0;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(x), LinExpr::constant(r(2, 1))));
        sys.push(le(LinExpr::var(x), 1));
        assert_eq!(project_onto(&sys, &BTreeSet::new()), FmResult::Infeasible);
        assert!(!is_satisfiable_fm(&sys));
    }

    #[test]
    fn unconstrained_var_elimination_drops_rows() {
        // x free with only a lower bound: eliminating x keeps nothing
        // involving x, but unrelated constraints survive.
        let x = 0;
        let y = 1;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(x), LinExpr::var(y)));
        sys.push(le(LinExpr::var(y), 7));
        let out = project_onto(&sys, &[y].into()).expect_projected();
        assert_eq!(out.len(), 1);
        assert!(!out.vars().contains(&x));
    }

    #[test]
    fn project_onto_keeps_requested_vars() {
        // x <= y, y <= z, project onto {x, z} => x <= z.
        let (x, y, z) = (0, 1, 2);
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::le(LinExpr::var(x), LinExpr::var(y)));
        sys.push(Constraint::le(LinExpr::var(y), LinExpr::var(z)));
        let keep: BTreeSet<Var> = [x, z].into_iter().collect();
        let out = project_onto(&sys, &keep).expect_projected();
        let mut p = std::collections::BTreeMap::new();
        p.insert(x, r(1, 1));
        p.insert(z, r(2, 1));
        assert!(out.holds_at(&p));
        p.insert(z, r(0, 1));
        assert!(!out.holds_at(&p));
    }

    #[test]
    fn satisfiable_system_with_equalities() {
        // x + y = 1, x >= 0, y >= 0 is satisfiable.
        let (x, y) = (0, 1);
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(&LinExpr::var(x) + &LinExpr::var(y), LinExpr::constant(r(1, 1))));
        sys.push(Constraint::nonneg(x));
        sys.push(Constraint::nonneg(y));
        assert!(is_satisfiable_fm(&sys));
        // Adding x + y = 2 makes it unsatisfiable.
        let mut bad = sys.clone();
        bad.push(Constraint::eq(&LinExpr::var(x) + &LinExpr::var(y), LinExpr::constant(r(2, 1))));
        assert!(!is_satisfiable_fm(&bad));
    }

    #[test]
    fn paper_perm_reduction_shape() {
        // A miniature of the paper's Example 4.1 final step: the system
        //   2*theta >= delta, theta >= 0, with delta = 1
        // is satisfiable (theta = 1/2).
        let theta = 0;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::term(theta, r(2, 1)), LinExpr::constant(r(1, 1))));
        sys.push(Constraint::nonneg(theta));
        assert!(is_satisfiable_fm(&sys));
    }

    /// A dense random-ish system for tier-equivalence checks.
    fn dense_system(seed: u64, nvars: usize, nrows: usize) -> ConstraintSystem {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut sys = ConstraintSystem::new();
        for _ in 0..nrows {
            let mut e = LinExpr::zero();
            for v in 0..nvars {
                let k = (next() % 7) as i64 - 3;
                if k != 0 {
                    e.add_term(v, r(k, 1));
                }
            }
            e.add_constant(&r((next() % 11) as i64 - 5, 1));
            sys.push(Constraint { expr: e, rel: Rel::Le });
        }
        // A couple of nonnegativity rows so the system is usually feasible.
        for v in 0..nvars.min(2) {
            sys.push(Constraint::nonneg(v));
        }
        sys
    }

    #[test]
    fn counters_walk_the_fields_in_order_and_invert() {
        let values: [u64; 12] = std::array::from_fn(|i| i as u64 + 1);
        let stats = FmStats::from_counters(values);
        assert_eq!(stats.counters().map(|(_, v)| v), values);
        // `Debug` prints the fields in declaration order.
        let debug = format!("{stats:?}");
        let expected: Vec<String> =
            stats.counters().iter().map(|(name, v)| format!("{name}: {v}")).collect();
        assert!(debug.contains(&expected.join(", ")), "{debug}");
    }

    #[test]
    fn tiers_agree_on_satisfiability() {
        // Projection preserves satisfiability, so every tier's output must
        // be simplex-feasible exactly when the input is. (Syntactic row
        // sets may differ across tiers; the feasible set may not.)
        for seed in 0..20u64 {
            let sys = dense_system(seed, 4, 7);
            let truth = crate::simplex::feasible_point(&sys, &BTreeSet::new()).is_some();
            let keep: BTreeSet<Var> = [0usize].into_iter().collect();
            for tier in FmTier::ALL {
                let mut stats = FmStats::default();
                let out = project_onto_with(&sys, &keep, &FmConfig::tiered(tier), &mut stats)
                    .expect("uncapped");
                let sat = match out {
                    FmResult::Infeasible => false,
                    FmResult::Projected(rest) => {
                        crate::simplex::feasible_point(&rest, &BTreeSet::new()).is_some()
                    }
                };
                assert_eq!(sat, truth, "tier {tier:?} broke satisfiability on seed {seed}");
                // With nothing kept, FM is a complete decision procedure at
                // every tier.
                let all = project_onto_with(
                    &sys,
                    &BTreeSet::new(),
                    &FmConfig::tiered(tier),
                    &mut FmStats::default(),
                )
                .expect("uncapped");
                let decided = match all {
                    FmResult::Infeasible => false,
                    FmResult::Projected(rest) => rest.simplify_trivial().is_some(),
                };
                assert_eq!(decided, truth, "tier {tier:?} misdecided seed {seed}");
            }
        }
    }

    #[test]
    fn higher_tiers_never_grow_the_row_count() {
        for seed in 0..10u64 {
            let sys = dense_system(seed, 5, 9);
            let keep: BTreeSet<Var> = [0usize, 1].into_iter().collect();
            let mut peaks = Vec::new();
            for tier in FmTier::ALL {
                let mut stats = FmStats::default();
                let _ = project_onto_with(&sys, &keep, &FmConfig::tiered(tier), &mut stats)
                    .expect("uncapped");
                peaks.push(stats.peak_rows);
            }
            assert!(
                peaks.windows(2).all(|w| w[0] >= w[1]),
                "peak rows increased with tier on seed {seed}: {peaks:?}"
            );
        }
    }

    #[test]
    fn capped_elimination_reports_offending_count() {
        let sys = dense_system(3, 5, 12);
        let keep: BTreeSet<Var> = BTreeSet::new();
        match project_onto_with(&sys, &keep, &FmConfig::capped(4), &mut FmStats::default()) {
            Err(blowup) => {
                assert!(blowup.rows > 4, "offending count must exceed the cap: {blowup}");
                assert_eq!(blowup.max_rows, 4);
            }
            Ok(_) => panic!("a 12-row dense system cannot project under a 4-row cap"),
        }
    }

    #[test]
    fn gaussian_step_respects_the_cap() {
        // Many inequalities hanging off one equality: 11 input rows over a
        // 3-row cap, so the projection bails out on its input, before any
        // substitution (a Gaussian round never adds rows).
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(LinExpr::var(0), LinExpr::var(1)));
        for i in 0..10 {
            sys.push(le(&LinExpr::var(0) + &LinExpr::term(2 + i, r(1, 1)), i as i64));
        }
        let keep: BTreeSet<Var> = (1..12).collect();
        match project_onto_with(&sys, &keep, &FmConfig::capped(3), &mut FmStats::default()) {
            Err(blowup) => assert!(blowup.rows > 3),
            Ok(_) => panic!("10 substituted rows cannot fit a 3-row cap"),
        }
    }

    #[test]
    fn stats_count_reductions() {
        // Duplicate rows must register as dedup hits.
        let mut sys = ConstraintSystem::new();
        sys.push(le(&LinExpr::var(0) + &LinExpr::var(1), 1));
        sys.push(le(&LinExpr::var(0) + &LinExpr::var(1), 1));
        sys.push(le(
            &(&LinExpr::var(0) + &LinExpr::var(0)) + &(&LinExpr::var(1) + &LinExpr::var(1)),
            2,
        ));
        let mut stats = FmStats::default();
        let keep: BTreeSet<Var> = [0usize, 1].into_iter().collect();
        let _ = project_onto_with(&sys, &keep, &FmConfig::default(), &mut stats).unwrap();
        assert!(stats.dedup_hits >= 2, "scaled and exact duplicates dedup: {stats:?}");
    }

    /// A seeded system that reaches every branch of the reducer: sparse
    /// `≤` rows, equalities (Gaussian steps), scaled copies of earlier
    /// rows (dedup hits, also of rows a tighter twin has since replaced),
    /// same-direction rows with other constants (subsumption drops and
    /// replacements), and now and then a coefficient past `i64` once
    /// combined (the big-integer keys and comparisons). Returns the system
    /// and the variables to keep.
    fn reducer_system(seed: u64) -> (ConstraintSystem, BTreeSet<Var>) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) ^ 0x2545f4914f6cdd1d;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let nvars = 2 + next(4) as usize;
        let wide = next(8) == 0;
        let mut rows: Vec<Constraint> = Vec::new();
        for _ in 0..3 + next(8) {
            let pick = if rows.is_empty() { 0 } else { next(rows.len() as u64) as usize };
            let c = match next(8) {
                // A scaled copy: the same canonical row.
                0 | 1 if !rows.is_empty() => {
                    let mut c = rows[pick].clone();
                    c.expr.scale(&r(2 + next(3) as i64, 1 + next(2) as i64));
                    c
                }
                // The same direction with another constant.
                2 | 3 if !rows.is_empty() && rows[pick].rel == Rel::Le => {
                    let old = &rows[pick].expr;
                    let k = r(1 + next(3) as i64, 1 + next(2) as i64);
                    let terms = old.terms().map(|(v, a)| (v, a * &k)).collect::<Vec<_>>();
                    let constant = r(next(13) as i64 - 6, 1 + next(3) as i64);
                    Constraint { expr: LinExpr::from_terms(terms, constant), rel: Rel::Le }
                }
                pick_rel => {
                    let mut e = LinExpr::zero();
                    for v in 0..nvars {
                        if next(2) == 0 {
                            let mut k = next(7) as i64 - 3;
                            if wide && k != 0 && next(3) == 0 {
                                k *= 1 << 33;
                            }
                            if k != 0 {
                                e.add_term(v, r(k, 1));
                            }
                        }
                    }
                    e.add_constant(&r(next(11) as i64 - 5, 1));
                    let rel = if pick_rel == 4 { Rel::Eq } else { Rel::Le };
                    Constraint { expr: e, rel }
                }
            };
            rows.push(c);
        }
        let keep = (0..nvars).filter(|_| next(3) == 0).collect();
        (ConstraintSystem::from_constraints(rows), keep)
    }

    /// The ancestor ids of a row, ascending, as the reference keeps them.
    fn ancestor_ids(hist: &Ancestors) -> Vec<u32> {
        let mut ids = Vec::new();
        for (w, word) in hist.words().iter().enumerate() {
            for bit in 0..64 {
                if word & (1 << bit) != 0 {
                    ids.push((w * 64 + bit) as u32);
                }
            }
        }
        ids
    }

    /// Run the indexed kernel and the reference on one system and require
    /// the same outcome, the same rows in the same order with the same
    /// ancestors, and the same counters. Returns the counters.
    fn assert_kernels_agree(
        sys: &ConstraintSystem,
        keep: &BTreeSet<Var>,
        cfg: &FmConfig,
        what: &str,
    ) -> FmStats {
        let (mut got_stats, mut want_stats) = (FmStats::default(), FmStats::default());
        let rows = sys.constraints().iter().map(IntRow::of_constraint).collect();
        let got = project_rows(rows, keep, cfg, &mut got_stats);
        let want = reference::project_rows(sys, keep, cfg, &mut want_stats);
        assert_eq!(got_stats, want_stats, "counters differ on {what}");
        match (got, want) {
            (Ok(RoundOut::Rows(got)), Ok(reference::RoundOut::Rows(want))) => {
                let got: Vec<_> = got.iter().map(|d| (&d.row, ancestor_ids(&d.hist))).collect();
                let want: Vec<_> = want.iter().map(|d| (&d.row, d.hist.clone())).collect();
                assert_eq!(got, want, "survivors differ on {what}");
            }
            (Ok(RoundOut::Infeasible), Ok(reference::RoundOut::Infeasible)) => {}
            (Err(got), Err(want)) => assert_eq!(got, want, "bailouts differ on {what}"),
            (got, want) => panic!(
                "outcomes differ on {what}: infeasible/blowup {:?} vs {:?}",
                got.map(|o| matches!(o, RoundOut::Infeasible)),
                want.map(|o| matches!(o, reference::RoundOut::Infeasible)),
            ),
        }
        got_stats
    }

    #[test]
    fn one_reducer_per_projection() {
        for seed in 0..200u64 {
            let (sys, keep) = reducer_system(seed);
            let before = REDUCERS.with(|c| c.get());
            let _ = project_onto_with(&sys, &keep, &FmConfig::capped(400), &mut FmStats::default());
            assert_eq!(REDUCERS.with(|c| c.get()) - before, 1, "seed {seed}");
        }
    }

    #[test]
    fn indexed_reducer_matches_the_reference_reducer() {
        let mut total = FmStats::default();
        for seed in 0..2400u64 {
            let (sys, keep) = reducer_system(seed);
            let max_rows = if seed % 5 == 0 { 4 + (seed % 17) as usize } else { 400 };
            for tier in [FmTier::Dedup, FmTier::Subsume, FmTier::Chernikov] {
                let cfg = FmConfig { tier, max_rows, deadline: None };
                let stats =
                    assert_kernels_agree(&sys, &keep, &cfg, &format!("seed {seed} {tier:?}"));
                total.merge(&stats);
            }
            if seed % 10 == 0 {
                let cfg = FmConfig { tier: FmTier::Lp, max_rows, deadline: None };
                assert_kernels_agree(&sys, &keep, &cfg, &format!("seed {seed} Lp"));
            }
        }
        // The sweep reaches every decision the reducer makes.
        for (name, value) in total.counters() {
            if name != "lp_drops" {
                assert!(value > 0, "no {name} across the sweep: {total:?}");
            }
        }
    }

    #[test]
    fn a_replaced_row_offered_again_is_a_dedup_hit() {
        // x ≤ 5, then x ≤ 3 (replaces it), then x ≤ 5 again: the retired
        // row still counts as seen, so the third offer is a duplicate, not
        // a second subsumption.
        let mut sys = ConstraintSystem::new();
        for bound in [5, 3, 5] {
            sys.push(le(LinExpr::var(0), bound));
        }
        let keep: BTreeSet<Var> = [0].into_iter().collect();
        let stats = assert_kernels_agree(&sys, &keep, &FmConfig::default(), "x ≤ 5, 3, 5");
        assert_eq!((stats.subsume_hits, stats.dedup_hits), (1, 1), "{stats:?}");
    }

    #[test]
    fn systems_past_128_rows_spill_the_ancestor_sets() {
        // 128 bounds on variables that stay, then rows over x0, x1 and x2
        // whose ids pass 128: every combination unions spilled sets.
        let mut sys = ConstraintSystem::new();
        for i in 0..128 {
            sys.push(le(LinExpr::var(3 + i), i as i64));
        }
        for (k0, k1, k2, c) in [
            (1, -1, 0, 0),
            (-1, 2, 0, 3),
            (2, 0, -1, 1),
            (-1, 0, 1, -2),
            (1, 1, 1, 5),
            (-2, -1, 0, 4),
            (0, 1, -2, 0),
            (0, -1, 1, 2),
            (3, -1, 2, 7),
            (-1, 1, -1, 1),
        ] {
            let e = LinExpr::from_terms([(0, r(k0, 1)), (1, r(k1, 1)), (2, r(k2, 1))], r(c, 1));
            sys.push(Constraint { expr: e, rel: Rel::Le });
        }
        for tier in [FmTier::Dedup, FmTier::Subsume, FmTier::Chernikov] {
            for first in [1, 2, 3] {
                let keep: BTreeSet<Var> = (first..3 + 128).collect();
                let cfg = FmConfig { tier, max_rows: 400, deadline: None };
                assert_kernels_agree(&sys, &keep, &cfg, &format!("{tier:?} from x{first}"));
            }
        }
    }

    /// The reducer as it stood before the indexed rewrite, kept verbatim
    /// as an oracle: a `HashSet` of every accepted row for dedup, and a
    /// map from the gcd-divided coefficient vector to the survivor and
    /// its rational bound for subsumption. Its elimination driver scans
    /// the rows once per candidate variable for the greedy order. Its
    /// tier-3 test asks `simplex::is_implied`, as the kernel does.
    mod reference {
        use crate::bigint::BigInt;
        use crate::canon::IntRow;
        use crate::expr::{ConstraintSystem, Rel, Var};
        use crate::fm::{
            check_deadline, FmBlowup, FmConfig, FmStats, FmTier, DEADLINE_STRIDE, LP_PROBE_BUDGET,
        };
        use crate::rat::Rat;
        use crate::simplex;
        use std::collections::{BTreeSet, HashMap, HashSet};

        /// A derived row with its ancestor set: the indices of the original
        /// (post-initial-dedup) rows it was combined from, kept sorted. Imbert's
        /// bound says a row with more than `k + 1` ancestors after `k` eliminations
        /// is redundant.
        #[derive(Debug, Clone)]
        pub(super) struct DRow {
            pub(super) row: IntRow,
            pub(super) hist: Vec<u32>,
        }

        fn union_hist(a: &[u32], b: &[u32]) -> Vec<u32> {
            let mut out = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                match (a.get(i), b.get(j)) {
                    (Some(&x), Some(&y)) if x == y => {
                        out.push(x);
                        i += 1;
                        j += 1;
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        out.push(x);
                        i += 1;
                    }
                    (Some(_), Some(&y)) => {
                        out.push(y);
                        j += 1;
                    }
                    (Some(&x), None) => {
                        out.push(x);
                        i += 1;
                    }
                    (None, Some(&y)) => {
                        out.push(y);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            out
        }

        /// What happened to a row offered to the [`Reducer`].
        enum Push {
            /// Appended as a new row.
            Added,
            /// Replaced a weaker row in place (row count unchanged).
            Replaced,
            /// Dropped (trivial or redundant).
            Dropped,
            /// The row is a contradictory constant: the system is infeasible.
            Infeasible,
        }

        /// The tiered redundancy filter: rows are offered one at a time; the
        /// survivor list preserves offer order (subsumption tightens in place).
        struct Reducer {
            tier: FmTier,
            /// Chernikov ancestor bound for derived rows (`usize::MAX` disables).
            hist_bound: usize,
            out: Vec<DRow>,
            seen: HashSet<IntRow>,
            /// Subsumption index for `≤` rows: coefficient direction (divided by
            /// the coefficient-only gcd) → (survivor index, constant ÷ gcd). The
            /// rational constant makes `2x ≤ 3` and `x ≤ 2` comparable even though
            /// their canonical integer forms differ.
            le_best: HashMap<Vec<(Var, BigInt)>, (usize, Rat)>,
        }

        impl Reducer {
            fn new(tier: FmTier, hist_bound: usize) -> Reducer {
                Reducer {
                    tier,
                    hist_bound,
                    out: Vec::new(),
                    seen: HashSet::new(),
                    le_best: HashMap::new(),
                }
            }

            fn push(
                &mut self,
                d: DRow,
                derived: bool,
                stats: &mut FmStats,
                mut lp: Option<(&ConstraintSystem, &mut usize)>,
            ) -> Push {
                match d.row.constant_truth() {
                    Some(true) => return Push::Dropped,
                    Some(false) => return Push::Infeasible,
                    None => {}
                }
                if self.seen.contains(&d.row) {
                    stats.dedup_hits += 1;
                    return Push::Dropped;
                }
                if derived && self.tier >= FmTier::Chernikov && d.hist.len() > self.hist_bound {
                    stats.chernikov_drops += 1;
                    return Push::Dropped;
                }
                // Subsumption lookup (mutation deferred until the LP test passes).
                let subsume_key = if self.tier >= FmTier::Subsume && d.row.rel == Rel::Le {
                    let mut g = BigInt::zero();
                    for (_, k) in &d.row.coeffs {
                        g = g.gcd(k);
                    }
                    let key: Vec<(Var, BigInt)> =
                        d.row.coeffs.iter().map(|(v, k)| (*v, k / &g)).collect();
                    let cst = Rat::new(d.row.constant.clone(), g);
                    if let Some((_, best)) = self.le_best.get(&key) {
                        if cst <= *best {
                            // An existing row is at least as tight: drop this one.
                            stats.subsume_hits += 1;
                            return Push::Dropped;
                        }
                    }
                    Some((key, cst))
                } else {
                    None
                };
                if derived && self.tier >= FmTier::Lp && d.row.rel == Rel::Le {
                    if let Some((untouched, budget)) = lp.as_mut() {
                        if **budget > 0 {
                            **budget -= 1;
                            if simplex::is_implied(
                                untouched,
                                &BTreeSet::new(),
                                &d.row.to_constraint(),
                            ) {
                                stats.lp_drops += 1;
                                return Push::Dropped;
                            }
                        }
                    }
                }
                self.seen.insert(d.row.clone());
                if let Some((key, cst)) = subsume_key {
                    if let Some(&(idx, _)) = self.le_best.get(&key) {
                        // This row is strictly tighter: replace the weaker survivor.
                        stats.subsume_hits += 1;
                        self.le_best.insert(key, (idx, cst));
                        self.out[idx] = d;
                        return Push::Replaced;
                    }
                    self.le_best.insert(key, (self.out.len(), cst));
                }
                self.out.push(d);
                Push::Added
            }
        }

        pub(super) enum RoundOut {
            Rows(Vec<DRow>),
            Infeasible,
        }

        /// Convert and initially reduce the input system. Every row gets a fresh
        /// ancestor id; the Chernikov bound never applies to originals.
        fn init_rows(sys: &ConstraintSystem, cfg: &FmConfig, stats: &mut FmStats) -> RoundOut {
            let mut red = Reducer::new(cfg.tier, usize::MAX);
            for (i, c) in sys.constraints().iter().enumerate() {
                let d = DRow { row: IntRow::of_constraint(c), hist: vec![i as u32] };
                if let Push::Infeasible = red.push(d, false, stats, None) {
                    return RoundOut::Infeasible;
                }
            }
            RoundOut::Rows(red.out)
        }

        /// One elimination round for `v` over `rows`. `steps_done` is the number of
        /// variables already eliminated (sets the Imbert ancestor bound);
        /// `lp_budget` is decremented per tier-3 LP.
        fn eliminate_round(
            rows: Vec<DRow>,
            v: Var,
            steps_done: usize,
            cfg: &FmConfig,
            stats: &mut FmStats,
            lp_budget: &mut usize,
        ) -> Result<RoundOut, FmBlowup> {
            stats.eliminations += 1;
            stats.rows_in += rows.len() as u64;
            check_deadline(cfg, rows.len())?;
            let hist_bound = steps_done.saturating_add(2);

            // Gaussian step: the first equality mentioning v substitutes it away.
            let pivot_idx =
                rows.iter().position(|d| d.row.rel == Rel::Eq && d.row.coeff(v).is_some());
            if let Some(pi) = pivot_idx {
                stats.gauss_steps += 1;
                let pivot = rows[pi].clone();
                let ce = pivot.row.coeff(v).expect("pivot coefficient").clone();
                let p = ce.abs();
                let mut red = Reducer::new(cfg.tier, hist_bound);
                for (j, d) in rows.into_iter().enumerate() {
                    if j == pi {
                        continue;
                    }
                    let Some(cr) = d.row.coeff(v) else {
                        if let Push::Infeasible = red.push(d, false, stats, None) {
                            return Ok(RoundOut::Infeasible);
                        }
                        continue;
                    };
                    // r' = |ce|·r − sign(ce)·cr·e: v cancels, `≤` direction kept.
                    let q = if ce.is_positive() { -cr } else { cr.clone() };
                    let (row, small) = d.row.linear_comb_counted(&p, &pivot.row, &q, v);
                    if small {
                        stats.small_combs += 1;
                    } else {
                        stats.big_combs += 1;
                    }
                    let hist = union_hist(&d.hist, &pivot.hist);
                    match red.push(DRow { row, hist }, true, stats, None) {
                        Push::Infeasible => return Ok(RoundOut::Infeasible),
                        Push::Added if red.out.len() > cfg.max_rows => {
                            return Err(FmBlowup {
                                rows: red.out.len(),
                                max_rows: cfg.max_rows,
                                timed_out: false,
                            });
                        }
                        _ => {}
                    }
                }
                stats.rows_out += red.out.len() as u64;
                return Ok(RoundOut::Rows(red.out));
            }

            // Pure inequality elimination. A row (a·v + rest ≤ 0) with a > 0 is an
            // upper bound on v; with a < 0 a lower bound.
            let mut uppers: Vec<(BigInt, DRow)> = Vec::new();
            let mut lowers: Vec<(BigInt, DRow)> = Vec::new();
            let mut red = Reducer::new(cfg.tier, hist_bound);
            for d in rows {
                let Some(a) = d.row.coeff(v) else {
                    if let Push::Infeasible = red.push(d, false, stats, None) {
                        return Ok(RoundOut::Infeasible);
                    }
                    continue;
                };
                debug_assert_ne!(
                    d.row.rel,
                    Rel::Eq,
                    "equalities mentioning v take the Gaussian step"
                );
                let a = a.clone();
                if a.is_positive() {
                    uppers.push((a, d));
                } else {
                    lowers.push((a, d));
                }
            }

            // Tier 3: test derived rows against a snapshot of the untouched rows,
            // one exact LP per row.
            let untouched = if cfg.tier >= FmTier::Lp
                && *lp_budget > 0
                && !red.out.is_empty()
                && !lowers.is_empty()
                && !uppers.is_empty()
            {
                let rows = red.out.iter().map(|d| d.row.to_constraint()).collect();
                Some(ConstraintSystem::from_constraints(rows))
            } else {
                None
            };

            // Combine each (lower, upper) pair: from b·v + rl ≤ 0 (b < 0) and
            // a·v + ru ≤ 0 (a > 0), the positive combination a·L + (−b)·U
            // cancels v, giving a·rl − b·ru ≤ 0 — the same direction the rational
            // bound comparison −rl/b ≤ −ru/a yields after canonicalization.
            for (b, lo) in &lowers {
                let nb = -b;
                for (a, up) in &uppers {
                    stats.pairs_combined += 1;
                    if cfg.deadline.is_some()
                        && stats.pairs_combined.is_multiple_of(DEADLINE_STRIDE)
                    {
                        check_deadline(cfg, red.out.len())?;
                    }
                    let (row, small) = lo.row.linear_comb_counted(a, &up.row, &nb, v);
                    if small {
                        stats.small_combs += 1;
                    } else {
                        stats.big_combs += 1;
                    }
                    let hist = union_hist(&lo.hist, &up.hist);
                    let res = red.push(
                        DRow { row, hist },
                        true,
                        stats,
                        untouched.as_ref().map(|sys| (sys, &mut *lp_budget)),
                    );
                    match res {
                        Push::Infeasible => return Ok(RoundOut::Infeasible),
                        Push::Added if red.out.len() > cfg.max_rows => {
                            return Err(FmBlowup {
                                rows: red.out.len(),
                                max_rows: cfg.max_rows,
                                timed_out: false,
                            });
                        }
                        _ => {}
                    }
                }
            }
            stats.rows_out += red.out.len() as u64;
            Ok(RoundOut::Rows(red.out))
        }

        pub(super) fn project_rows(
            sys: &ConstraintSystem,
            keep: &BTreeSet<Var>,
            cfg: &FmConfig,
            stats: &mut FmStats,
        ) -> Result<RoundOut, FmBlowup> {
            let mut rows = match init_rows(sys, cfg, stats) {
                RoundOut::Infeasible => return Ok(RoundOut::Infeasible),
                RoundOut::Rows(rows) => rows,
            };
            let mut steps = 0usize;
            let mut lp_budget = LP_PROBE_BUDGET;
            loop {
                stats.peak_rows = stats.peak_rows.max(rows.len() as u64);
                if rows.len() > cfg.max_rows {
                    return Err(FmBlowup {
                        rows: rows.len(),
                        max_rows: cfg.max_rows,
                        timed_out: false,
                    });
                }
                let mut to_go: BTreeSet<Var> = BTreeSet::new();
                for d in &rows {
                    for (v, _) in &d.row.coeffs {
                        if !keep.contains(v) {
                            to_go.insert(*v);
                        }
                    }
                }
                if to_go.is_empty() {
                    return Ok(RoundOut::Rows(rows));
                }
                // Pick the variable whose elimination creates the fewest new rows.
                let best = to_go
                    .into_iter()
                    .min_by_key(|&v| {
                        let mut pos = 0usize;
                        let mut neg = 0usize;
                        let mut has_eq = false;
                        for d in &rows {
                            let Some(a) = d.row.coeff(v) else {
                                continue;
                            };
                            if d.row.rel == Rel::Eq {
                                has_eq = true;
                            } else if a.is_positive() {
                                pos += 1;
                            } else {
                                neg += 1;
                            }
                        }
                        if has_eq {
                            0 // Gaussian elimination is always cheapest.
                        } else {
                            pos * neg + 1
                        }
                    })
                    .expect("nonempty");
                rows = match eliminate_round(rows, best, steps, cfg, stats, &mut lp_budget)? {
                    RoundOut::Infeasible => return Ok(RoundOut::Infeasible),
                    RoundOut::Rows(next) => next,
                };
                steps += 1;
            }
        }
    }
}
