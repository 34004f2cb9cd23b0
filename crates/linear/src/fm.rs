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
//! * **tier 0** — exact-duplicate hash dedup (canonical rows are
//!   hash-equal iff structurally equal, so this is one set probe);
//! * **tier 1** — syntactic subsumption: rows with the same coefficient
//!   direction keep only the tightest constant;
//! * **tier 2** (default) — Chernikov/Imbert ancestor counting: a row
//!   derived after `k` eliminations from more than `k + 1` original rows
//!   is redundant and dropped — the classic quasi-redundancy cut;
//! * **tier 3** — budgeted LP implication probes against the round's
//!   untouched rows, sharing one warm-started simplex tableau
//!   ([`crate::simplex::ImplicationProbe`]) across the batch.
//!
//! Every tier preserves the projected solution set exactly (lower tiers
//! just carry more redundant rows), which the proptests in
//! `tests/proptests.rs` check against both simplex and tier 0.

use crate::bigint::BigInt;
use crate::canon::IntRow;
use crate::expr::{ConstraintSystem, Rel, Var};
use crate::rat::Rat;
use crate::simplex::ImplicationProbe;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// Outcome of a Fourier–Motzkin elimination round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmResult {
    /// The projected system (the variable no longer occurs).
    Projected(ConstraintSystem),
    /// Elimination exposed a contradictory constant constraint: the input
    /// system is unsatisfiable.
    Infeasible,
}

impl FmResult {
    /// Unwrap the projected system, panicking on infeasibility.
    pub fn expect_projected(self) -> ConstraintSystem {
        match self {
            FmResult::Projected(s) => s,
            FmResult::Infeasible => panic!("system became infeasible during elimination"),
        }
    }

    /// The projected system, or `None` if infeasible.
    pub fn projected(self) -> Option<ConstraintSystem> {
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
    /// Plus budgeted LP implication probes with a warm-started tableau.
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

/// Maximum LP implication probes per projection (tier 3 only).
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
    /// Rows dropped by LP implication probes (tier 3).
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

/// A derived row with its ancestor set: the indices of the original
/// (post-initial-dedup) rows it was combined from, kept sorted. Imbert's
/// bound says a row with more than `k + 1` ancestors after `k` eliminations
/// is redundant.
#[derive(Debug, Clone)]
struct DRow {
    row: IntRow,
    hist: Vec<u32>,
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
        Reducer { tier, hist_bound, out: Vec::new(), seen: HashSet::new(), le_best: HashMap::new() }
    }

    fn push(
        &mut self,
        d: DRow,
        derived: bool,
        stats: &mut FmStats,
        mut probe: Option<(&mut ImplicationProbe, &mut usize)>,
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
        // Subsumption lookup (mutation deferred until the LP probe passes).
        let subsume_key = if self.tier >= FmTier::Subsume && d.row.rel == Rel::Le {
            let mut g = BigInt::zero();
            for (_, k) in &d.row.coeffs {
                g = g.gcd(k);
            }
            let key: Vec<(Var, BigInt)> = d.row.coeffs.iter().map(|(v, k)| (*v, k / &g)).collect();
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
            if let Some((probe, budget)) = probe.as_mut() {
                if **budget > 0 {
                    **budget -= 1;
                    if probe.implies_le(&d.row.to_constraint().expr) {
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
/// `lp_budget` is decremented per tier-3 probe.
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
    let pivot_idx = rows.iter().position(|d| d.row.rel == Rel::Eq && d.row.coeff(v).is_some());
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
        debug_assert_ne!(d.row.rel, Rel::Eq, "equalities mentioning v take the Gaussian step");
        let a = a.clone();
        if a.is_positive() {
            uppers.push((a, d));
        } else {
            lowers.push((a, d));
        }
    }

    // Tier 3: probe derived rows against the untouched rows with one
    // warm-started tableau (phase 1 solved once, re-priced per row).
    let mut probe = if cfg.tier >= FmTier::Lp
        && *lp_budget > 0
        && !red.out.is_empty()
        && !lowers.is_empty()
        && !uppers.is_empty()
    {
        let mut kept_sys = ConstraintSystem::new();
        for d in &red.out {
            kept_sys.push(d.row.to_constraint());
        }
        Some(ImplicationProbe::new(&kept_sys, &BTreeSet::new()))
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
            let hist = union_hist(&lo.hist, &up.hist);
            let res = red.push(
                DRow { row, hist },
                true,
                stats,
                probe.as_mut().map(|p| (p, &mut *lp_budget)),
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

/// Render surviving rows back to a [`ConstraintSystem`]: equalities first
/// in derivation order, then inequalities sorted by canonical form — the
/// same shape [`ConstraintSystem::dedup`] produces.
fn rows_to_system(rows: Vec<DRow>) -> ConstraintSystem {
    let mut eqs: Vec<IntRow> = Vec::new();
    let mut les: Vec<IntRow> = Vec::new();
    for d in rows {
        match d.row.rel {
            Rel::Eq => eqs.push(d.row),
            Rel::Le => les.push(d.row),
        }
    }
    les.sort_by(|x, y| x.coeffs.cmp(&y.coeffs).then_with(|| x.constant.cmp(&y.constant)));
    let mut out = ConstraintSystem::new();
    for r in eqs.iter().chain(les.iter()) {
        out.push(r.to_constraint());
    }
    out
}

// ------------------------------------------------------------------ driver

/// Eliminate a single variable from `sys` by Fourier–Motzkin.
///
/// The result mentions every variable of `sys` except `v` and is satisfiable
/// by exactly the projections of satisfying points of `sys`. Trivially true
/// rows are dropped; a trivially false row yields [`FmResult::Infeasible`].
pub fn eliminate(sys: &ConstraintSystem, v: Var) -> FmResult {
    let mut stats = FmStats::default();
    eliminate_with(sys, v, &FmConfig::default(), &mut stats)
        .expect("uncapped elimination cannot overflow")
}

/// [`eliminate`] with explicit configuration and counters.
pub fn eliminate_with(
    sys: &ConstraintSystem,
    v: Var,
    cfg: &FmConfig,
    stats: &mut FmStats,
) -> Result<FmResult, FmBlowup> {
    let rows = match init_rows(sys, cfg, stats) {
        RoundOut::Infeasible => return Ok(FmResult::Infeasible),
        RoundOut::Rows(rows) => rows,
    };
    if rows.len() > cfg.max_rows {
        return Err(FmBlowup { rows: rows.len(), max_rows: cfg.max_rows, timed_out: false });
    }
    stats.peak_rows = stats.peak_rows.max(rows.len() as u64);
    let mut lp_budget = LP_PROBE_BUDGET;
    match eliminate_round(rows, v, 0, cfg, stats, &mut lp_budget)? {
        RoundOut::Infeasible => Ok(FmResult::Infeasible),
        RoundOut::Rows(rows) => {
            stats.peak_rows = stats.peak_rows.max(rows.len() as u64);
            Ok(FmResult::Projected(rows_to_system(rows)))
        }
    }
}

/// Project `sys` onto `keep`: eliminate every variable not in `keep`.
/// Variables are eliminated in a greedy order that minimizes the product of
/// positive and negative occurrence counts at each step (a standard
/// heuristic that curbs FM's row blowup).
pub fn project_onto(sys: &ConstraintSystem, keep: &BTreeSet<Var>) -> FmResult {
    let mut stats = FmStats::default();
    project_onto_with(sys, keep, &FmConfig::default(), &mut stats)
        .expect("uncapped projection cannot overflow")
}

/// Like [`project_onto`] but gives up (returning [`FmBlowup`]) if any
/// intermediate system exceeds `max_rows` rows. Callers use this to bound
/// FM's worst-case doubly-exponential blowup and fall back to a sound
/// over-approximation.
pub fn project_onto_capped(
    sys: &ConstraintSystem,
    keep: &BTreeSet<Var>,
    max_rows: usize,
) -> Result<FmResult, FmBlowup> {
    let mut stats = FmStats::default();
    project_onto_with(sys, keep, &FmConfig::capped(max_rows), &mut stats)
}

/// [`project_onto`] with explicit configuration and counters.
pub fn project_onto_with(
    sys: &ConstraintSystem,
    keep: &BTreeSet<Var>,
    cfg: &FmConfig,
    stats: &mut FmStats,
) -> Result<FmResult, FmBlowup> {
    let mut rows = match init_rows(sys, cfg, stats) {
        RoundOut::Infeasible => return Ok(FmResult::Infeasible),
        RoundOut::Rows(rows) => rows,
    };
    let mut steps = 0usize;
    let mut lp_budget = LP_PROBE_BUDGET;
    loop {
        stats.peak_rows = stats.peak_rows.max(rows.len() as u64);
        if rows.len() > cfg.max_rows {
            return Err(FmBlowup { rows: rows.len(), max_rows: cfg.max_rows, timed_out: false });
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
            return Ok(FmResult::Projected(rows_to_system(rows)));
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
            RoundOut::Infeasible => return Ok(FmResult::Infeasible),
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
        let out = eliminate(&sys, y).expect_projected();
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
        let out = eliminate(&sys, x).expect_projected();
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
        assert_eq!(eliminate(&sys, x), FmResult::Infeasible);
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
        let out = eliminate(&sys, x).expect_projected();
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
        match project_onto_capped(&sys, &keep, 4) {
            Err(blowup) => {
                assert!(blowup.rows > 4, "offending count must exceed the cap: {blowup}");
                assert_eq!(blowup.max_rows, 4);
            }
            Ok(_) => panic!("a 12-row dense system cannot project under a 4-row cap"),
        }
    }

    #[test]
    fn gaussian_step_respects_the_cap() {
        // Many inequalities hanging off one equality: the substitution step
        // itself must honor the row bound.
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(LinExpr::var(0), LinExpr::var(1)));
        for i in 0..10 {
            sys.push(le(&LinExpr::var(0) + &LinExpr::term(2 + i, r(1, 1)), i as i64));
        }
        match eliminate_with(&sys, 0, &FmConfig::capped(3), &mut FmStats::default()) {
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
}
