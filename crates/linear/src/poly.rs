//! Closed convex polyhedra over ℚⁿ, in constraint representation.
//!
//! This is the abstract domain used by `argus-sizerel` to infer the
//! inter-argument size relations the paper imports from \[VG90\] (e.g.
//! `append: a1 + a2 = a3`). Dimensions are `0..dim`, each standing for one
//! argument-size variable. Operations:
//!
//! * meet (conjunction) — concatenate constraints;
//! * projection — Fourier–Motzkin ([`crate::fm`]);
//! * emptiness — no generator with `t > 0` ([`crate::generators`]), or an
//!   exact LP ([`crate::simplex`]);
//! * implication and inclusion — from the polyhedron's generators
//!   ([`crate::generators`]): a row holds on it iff it holds on every
//!   vertex and ray and is constant along every line;
//! * convex hull — from generators: the facets of the cone spanned by both
//!   operands' generators, read off its polar cone
//!   ([`Generators::hull_rows`]), already irredundant. Above
//!   [`GENERATOR_DIM_MAX`] or when a conversion gives up, the λ-combination
//!   encoding projected by FM (Benoy–King: the hull of P₁ ∪ P₂ is the
//!   projection of `x = y + z, y ∈ σ₁·P₁, z ∈ σ₂·P₂, σ₁ + σ₂ = 1, σ ≥ 0`);
//! * widening — the standard constraint widening (keep the constraints of
//!   the old polyhedron that the new one still entails), which guarantees
//!   fixpoint termination;
//! * minimization — the facet-defining rows, read off the generators'
//!   saturation sets when the polyhedron is full-dimensional, by LP
//!   redundancy removal ([`simplex::irredundant`]) when it has implicit
//!   equalities.
//!
//! Implication batches against one fixed system (widening, inclusion, the
//! weak join) test each row against that system's generators, solving no
//! LP. Above [`GENERATOR_DIM_MAX`] dimensions, where the generator count
//! can blow up, and when a conversion gives up (see [`Generators::of`]),
//! each row goes to the exact LP test [`simplex::is_implied`] instead.
//! Both routes are exact, so they give the same answers. The two hull
//! routes give the same set, though not always the same rows.
//!
//! A polyhedron converts its rows to generators at most once: the first
//! operation that needs them fills a cache that clones share, and
//! emptiness, implication, inclusion, hulls, widening and minimization
//! all read it. A second cache holds the rows in canonical integer form
//! ([`Poly::int_rows`]), the form Fourier–Motzkin and the generators take
//! them in.
//!
//! The hull computed this way is the *closure* of the convex hull, which is
//! the correct over-approximation for abstract interpretation.

use crate::canon::IntRow;
use crate::expr::{Constraint, ConstraintSystem, LinExpr, Var};
use crate::fm::{self, FmResult};
use crate::generators::Generators;
use crate::rat::Rat;
use crate::simplex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Row cap for [`Poly::hull`]. On the generator route it caps the exact
/// hull's rows; on the FM route, the lifted projection's. Past it the hull
/// falls back to the sound weak join: a hull with that many facets is a
/// costly iterate to carry, and FM risks its worst-case blowup.
pub const HULL_ROW_CAP: usize = 120;

/// Highest dimension at which emptiness, implication, inclusion, hulls and
/// minimization are answered from generators. A polyhedron with m rows in
/// n dimensions can have on the order of m^⌊n/2⌋ vertices, so above this
/// the LP and FM routes guard high-arity predicates against that blowup.
pub const GENERATOR_DIM_MAX: usize = 6;

/// A closed convex polyhedron over dimensions `0..dim`.
///
/// An explicitly-empty polyhedron is represented by `empty = true`; the
/// constraint system is then irrelevant.
#[derive(Clone)]
pub struct Poly {
    dim: usize,
    sys: ConstraintSystem,
    empty: bool,
    /// The rows are known to be exactly what [`Poly::minimized`] returns
    /// for them: deduplicated and irredundant. Set by the LP path of
    /// `minimized` and kept by [`Poly::widen`] (a row subset of such a
    /// system is one too); every other constructor clears it. A cache of a
    /// derived property, so equality ignores it.
    minimal: bool,
    /// `Generators::of` of exactly these rows over `0..dim`,
    /// filled on first use: `None` above [`GENERATOR_DIM_MAX`] or when the
    /// conversion gives up. Only a polyhedron with the same `dim` and rows
    /// may share it, because the generators' order and the hull rows read
    /// off them depend on how the rows are written, not only on the set.
    gens: OnceLock<Option<Arc<Generators>>>,
    /// The rows in canonical integer form, `IntRow::of_constraint` of
    /// each, filled on first use.
    int_rows: OnceLock<Arc<[IntRow]>>,
}

impl PartialEq for Poly {
    fn eq(&self, other: &Poly) -> bool {
        self.dim == other.dim && self.sys == other.sys && self.empty == other.empty
    }
}

impl Eq for Poly {}

/// The fields a derived `Debug` printed before the caches existed: the
/// caches are derived data and never part of any output.
impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Poly")
            .field("dim", &self.dim)
            .field("sys", &self.sys)
            .field("empty", &self.empty)
            .field("minimal", &self.minimal)
            .finish()
    }
}

impl Poly {
    /// A polyhedron with empty caches.
    fn new(dim: usize, sys: ConstraintSystem, empty: bool, minimal: bool) -> Poly {
        Poly { dim, sys, empty, minimal, gens: OnceLock::new(), int_rows: OnceLock::new() }
    }

    /// The full space ℚⁿ, restricted by nothing (note: *not* restricted to
    /// nonnegatives; callers wanting size semantics should use
    /// [`Poly::nonneg_universe`]).
    pub fn universe(dim: usize) -> Poly {
        Poly::new(dim, ConstraintSystem::new(), false, false)
    }

    /// The nonnegative orthant `xᵢ ≥ 0` for all dimensions — the natural
    /// starting point for argument sizes, which are sizes of terms and hence
    /// nonnegative (paper §2.2).
    pub fn nonneg_universe(dim: usize) -> Poly {
        let mut sys = ConstraintSystem::new();
        for v in 0..dim {
            sys.push(Constraint::nonneg(v));
        }
        Poly::new(dim, sys, false, false)
    }

    /// The empty polyhedron.
    pub fn empty(dim: usize) -> Poly {
        Poly::new(dim, ConstraintSystem::new(), true, false)
    }

    /// Build from constraints (variables must be `< dim`).
    pub fn from_constraints(dim: usize, sys: ConstraintSystem) -> Poly {
        debug_assert!(sys.vars().iter().all(|&v| v < dim));
        let mut p = Poly::new(dim, sys, false, false);
        if p.compute_is_empty() {
            p.empty = true;
        }
        p
    }

    /// Reassemble a polyhedron from parts previously observed via
    /// [`Poly::dim`], [`Poly::constraints`] and [`Poly::is_empty`],
    /// trusting `empty` instead of re-running the feasibility LP. Intended
    /// for deserializing polyhedra this library produced (e.g. the
    /// incremental analyzer's on-disk cache); handing it an inconsistent
    /// `empty` flag yields a polyhedron that misreports emptiness. Its
    /// caches start empty.
    pub fn from_raw_parts(dim: usize, sys: ConstraintSystem, empty: bool) -> Poly {
        debug_assert!(sys.vars().iter().all(|&v| v < dim));
        Poly::new(dim, sys, empty, false)
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The constraints (meaningless if [`Poly::is_empty`]).
    pub fn constraints(&self) -> &ConstraintSystem {
        &self.sys
    }

    /// The constraints in canonical integer form, in order: each row's
    /// `IntRow::of_constraint`, converted once per polyhedron and shared
    /// by its clones.
    pub fn int_rows(&self) -> &[IntRow] {
        self.int_rows
            .get_or_init(|| self.sys.constraints().iter().map(IntRow::of_constraint).collect())
    }

    /// True iff the polyhedron has no points.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// True iff the rows are known to be minimal: [`Poly::minimized`] would
    /// return them unchanged, without solving an LP. Holds for the output of
    /// `minimized`'s LP path and for a [`Poly::widen`] of such a polyhedron.
    pub fn is_minimal(&self) -> bool {
        self.minimal
    }

    fn compute_is_empty(&self) -> bool {
        match self.generators() {
            Some(gens) => gens.is_empty(),
            None => simplex::feasible_point(&self.sys, &BTreeSet::new()).is_none(),
        }
    }

    /// Membership test.
    pub fn contains_point(&self, point: &BTreeMap<Var, Rat>) -> bool {
        !self.empty && self.sys.holds_at(point)
    }

    /// A sample point, if nonempty.
    pub fn sample_point(&self) -> Option<BTreeMap<Var, Rat>> {
        if self.empty {
            None
        } else {
            simplex::feasible_point(&self.sys, &BTreeSet::new())
        }
    }

    /// Intersection.
    pub fn meet(&self, other: &Poly) -> Poly {
        assert_eq!(self.dim, other.dim, "dimension mismatch in meet");
        if self.empty || other.empty {
            return Poly::empty(self.dim);
        }
        let mut sys = self.sys.clone();
        sys.extend(&other.sys);
        Poly::from_constraints(self.dim, sys.dedup())
    }

    /// Inclusion test: `self ⊆ other`.
    pub fn includes_in(&self, other: &Poly) -> bool {
        assert_eq!(self.dim, other.dim, "dimension mismatch in inclusion");
        if self.empty {
            return true;
        }
        if other.empty {
            return false;
        }
        if other.sys.is_empty() {
            return true;
        }
        let implier = Implier::new(self);
        other.rows().all(|row| implier.implies(row))
    }

    /// Does every point of the polyhedron satisfy `c`? An empty polyhedron
    /// implies everything; a nonempty one leaves the variables outside
    /// `0..dim` free, so it implies no row that mentions one.
    pub fn implies(&self, c: &Constraint) -> bool {
        if self.empty {
            return true;
        }
        c.expr.vars().all(|v| v < self.dim)
            && Implier::new(self).implies((c, &IntRow::of_constraint(c)))
    }

    /// Semantic equality (mutual inclusion).
    pub fn same_set(&self, other: &Poly) -> bool {
        self.includes_in(other) && other.includes_in(self)
    }

    /// Project onto a subset of dimensions, *keeping the dimension count*:
    /// constraints on dropped dimensions are existentially quantified away
    /// and the dropped dimensions become unconstrained.
    pub fn forget(&self, drop: &BTreeSet<Var>) -> Poly {
        if self.empty {
            return self.clone();
        }
        let keep: BTreeSet<Var> = (0..self.dim).filter(|v| !drop.contains(v)).collect();
        match fm::project_onto(&self.sys, &keep) {
            FmResult::Projected(sys) => Poly::new(self.dim, sys, false, false),
            FmResult::Infeasible => Poly::empty(self.dim),
        }
    }

    /// Project onto the first `new_dim` dimensions, dropping the rest and
    /// shrinking the space.
    pub fn project_prefix(&self, new_dim: usize) -> Poly {
        assert!(new_dim <= self.dim);
        if self.empty {
            return Poly::empty(new_dim);
        }
        let keep: BTreeSet<Var> = (0..new_dim).collect();
        match fm::project_onto(&self.sys, &keep) {
            FmResult::Projected(sys) => Poly::new(new_dim, sys, false, false),
            FmResult::Infeasible => Poly::empty(new_dim),
        }
    }

    /// Rename dimensions through `map` (entries absent map to themselves).
    pub fn rename(&self, map: &BTreeMap<Var, Var>, new_dim: usize) -> Poly {
        Poly::new(new_dim, self.sys.rename(map), self.empty, false)
    }

    /// Closed convex hull of the union (the abstract `join`), with the
    /// [`HULL_ROW_CAP`] row cap: past it, the cheap weak join stands in.
    pub fn hull(&self, other: &Poly) -> Poly {
        let cfg = fm::FmConfig { max_rows: HULL_ROW_CAP, ..fm::FmConfig::default() };
        self.hull_with(other, &cfg, &mut fm::FmStats::default())
    }

    /// [`Poly::hull`] under an explicit row cap `cfg.max_rows`: a hull with
    /// more rows falls back to the weak join.
    ///
    /// Within [`GENERATOR_DIM_MAX`] the hull comes from both operands'
    /// generators, exact and irredundant, and the cap applies to its rows.
    /// Above the bound, or when a conversion gives up, it is the lifted FM
    /// projection under `cfg` (tier, row cap, LP budget), which accumulates
    /// its work into `stats`; the cap then applies to FM's rows.
    ///
    /// The result's emptiness comes from the operands' flags, not from an
    /// LP: it is empty iff both operands are. Every constructor keeps the
    /// flag exact (a projection or hull of a nonempty polyhedron is
    /// nonempty), except a [`Poly::from_raw_parts`] handed a wrong one.
    pub fn hull_with(&self, other: &Poly, cfg: &fm::FmConfig, stats: &mut fm::FmStats) -> Poly {
        assert_eq!(self.dim, other.dim, "dimension mismatch in hull");
        if self.empty {
            return other.clone();
        }
        if other.empty {
            return self.clone();
        }
        match self.generator_hull(other) {
            Some(rows) if rows.len() > cfg.max_rows => self.weak_join(other),
            // Irredundant, so `minimized` would return the deduplicated
            // rows unchanged.
            Some(rows) => {
                Poly::new(self.dim, ConstraintSystem::from_constraints(rows).dedup(), false, true)
            }
            None => self.lifted_hull(other, cfg, stats),
        }
    }

    /// The rows of the closed hull of two nonempty polyhedra, from their
    /// generators; `None` where [`Poly::generators`] gives none or a
    /// conversion gives up.
    fn generator_hull(&self, other: &Poly) -> Option<Vec<Constraint>> {
        let (a, b) = (self.generators()?, other.generators()?);
        if a.is_empty() || b.is_empty() {
            // Only a `from_raw_parts` flag can disagree with the rows;
            // the FM route keeps its old answer for that.
            return None;
        }
        Generators::hull_rows(self.dim, &[a, b])
    }

    /// The Benoy–King hull: the λ-lift of both operands projected onto
    /// `x` by FM under `cfg`, or the weak join past `cfg.max_rows`.
    fn lifted_hull(&self, other: &Poly, cfg: &fm::FmConfig, stats: &mut fm::FmStats) -> Poly {
        let n = self.dim;
        // Variable layout in the big system:
        //   0..n        : x (result)
        //   n..2n       : y (σ1-scaled point of self)
        //   2n..3n      : z (σ2-scaled point of other)
        //   3n          : σ1
        //   3n + 1      : σ2
        let y0 = n;
        let z0 = 2 * n;
        let s1 = 3 * n;
        let s2 = 3 * n + 1;

        let mut big = ConstraintSystem::new();
        // x_i = y_i + z_i
        for i in 0..n {
            big.push(Constraint::eq(
                LinExpr::var(i),
                &LinExpr::var(y0 + i) + &LinExpr::var(z0 + i),
            ));
        }
        // σ1 + σ2 = 1, σ ≥ 0
        big.push(Constraint::eq(
            &LinExpr::var(s1) + &LinExpr::var(s2),
            LinExpr::constant(Rat::one()),
        ));
        big.push(Constraint::nonneg(s1));
        big.push(Constraint::nonneg(s2));
        // Scaled copies: for a constraint Σa·x + c REL 0 of self,
        // emit Σa·y + c·σ1 REL 0 (homogenization).
        let scale_into = |sys: &ConstraintSystem, base: Var, sigma: Var| {
            let mut out = Vec::new();
            for c in sys.constraints() {
                let mut e = LinExpr::zero();
                for (v, a) in c.expr.terms() {
                    e.add_term(base + v, a.clone());
                }
                e.add_term(sigma, c.expr.constant_term().clone());
                out.push(Constraint { expr: e, rel: c.rel });
            }
            out
        };
        for c in scale_into(&self.sys, y0, s1) {
            big.push(c);
        }
        for c in scale_into(&other.sys, z0, s2) {
            big.push(c);
        }

        let keep: BTreeSet<Var> = (0..n).collect();
        // The row cap guards against FM's blowup; past it, fall back to the
        // cheap weak join, which is sound (it contains the hull) and still
        // keeps the invariants that appear as rows of either argument.
        match fm::project_onto_with(&big, &keep, cfg, stats) {
            Ok(FmResult::Projected(sys)) => {
                // The hull contains both operands, and neither is empty, so
                // it is not empty either: no feasibility LP on the result.
                let hull = Poly::new(n, sys.dedup(), false, false);
                debug_assert!(!hull.compute_is_empty(), "hull of nonempty operands is empty");
                hull
            }
            Ok(FmResult::Infeasible) => Poly::empty(n),
            Err(_) => self.weak_join(other),
        }
    }

    /// A cheap over-approximation of [`Poly::hull`]: keep each constraint
    /// of either polyhedron that the other one also satisfies. Any point of
    /// `self ∪ other` satisfies every kept row, so the result contains the
    /// hull; it may be strictly larger (a valid join for abstract
    /// interpretation, used when exact hull computation is too expensive).
    pub fn weak_join(&self, other: &Poly) -> Poly {
        assert_eq!(self.dim, other.dim, "dimension mismatch in weak_join");
        if self.empty {
            return other.clone();
        }
        if other.empty {
            return self.clone();
        }
        let mut rows = ConstraintSystem::new();
        for c in self.rows_implied_by(other).chain(other.rows_implied_by(self)) {
            rows.push(c.clone());
        }
        Poly::new(self.dim, rows.dedup(), false, false)
    }

    /// Standard widening: keep those constraints of `self` (the previous
    /// iterate) that `other` (the next iterate) still satisfies.
    ///
    /// `other` need not contain `self`: a row of `self` holds on the closed
    /// hull of `self ∪ other` iff it holds on `other`, and the same goes for
    /// the [`Poly::weak_join`] that stands in for an over-cap hull. So
    /// `self.widen(other)` equals `self.widen(&self.hull(other))`, and a
    /// fixpoint engine widens against the next iterate without joining
    /// first. The kept rows are a subset of `self`'s, in order, so a
    /// [`Poly::is_minimal`] `self` gives a minimal result. A widening that
    /// keeps every row is `self` again, caches included.
    pub fn widen(&self, other: &Poly) -> Poly {
        assert_eq!(self.dim, other.dim, "dimension mismatch in widen");
        if self.empty {
            return other.clone();
        }
        if other.empty {
            return self.clone();
        }
        let kept: Vec<Constraint> = self.rows_implied_by(other).cloned().collect();
        if kept.len() == self.sys.len() {
            return self.clone();
        }
        Poly::new(self.dim, ConstraintSystem::from_constraints(kept), false, self.minimal)
    }

    /// The rows of `self`, in order, that `other`'s system implies, all
    /// answered against `other`'s generators.
    fn rows_implied_by<'a>(&'a self, other: &'a Poly) -> impl Iterator<Item = &'a Constraint> {
        let implier = Implier::new(other);
        self.rows().filter(move |&row| implier.implies(row)).map(|(c, _)| c)
    }

    /// Each row with its canonical integer form.
    fn rows(&self) -> impl Iterator<Item = (&Constraint, &IntRow)> {
        self.sys.constraints().iter().zip(self.int_rows())
    }

    /// The generators of this polyhedron's rows, from the cache (converted
    /// on first use); `None` above [`GENERATOR_DIM_MAX`] or when the
    /// conversion gives up.
    fn generators(&self) -> Option<&Generators> {
        self.gens
            .get_or_init(|| {
                let gens = (self.dim <= GENERATOR_DIM_MAX)
                    .then(|| Generators::of(self.dim, self.int_rows()));
                gens.flatten().map(Arc::new)
            })
            .as_deref()
    }

    /// Remove redundant constraints (each one implied by the others) to get
    /// a small canonical-ish representation: dedup, then what
    /// [`simplex::irredundant`]'s in-order leave-one-out pass keeps.
    ///
    /// On a full-dimensional polyhedron within [`GENERATOR_DIM_MAX`] that
    /// is the facet-defining rows, in order, read off the generators
    /// ([`Generators::facets`]) without an LP; with implicit equalities,
    /// above the bound, or when the conversion gives up, the LP pass runs.
    /// Minimization is quadratic in the row count; beyond a threshold only
    /// the cheap syntactic dedup is applied (the result is the same set,
    /// just less canonical). A [`Poly::is_minimal`] input is returned as
    /// is, and an infeasible system becomes [`Poly::empty`].
    ///
    /// The generators are the cached ones when deduplication leaves the
    /// rows as they are (every system the fixpoint builds is already
    /// deduplicated), and a result that keeps every row shares them.
    pub fn minimized(&self) -> Poly {
        if self.empty || self.minimal {
            return self.clone();
        }
        let deduped = self.sys.dedup();
        if deduped.len() > 160 {
            return Poly::new(self.dim, deduped, false, false);
        }
        let fresh = if deduped == self.sys {
            None
        } else {
            Some(Poly::new(self.dim, deduped, false, false))
        };
        let source = fresh.as_ref().unwrap_or(self);
        if let Some(gens) = source.generators() {
            if gens.is_empty() {
                return Poly::empty(self.dim);
            }
            if let Some(keep) = gens.facets(source.sys.constraints()) {
                if keep.iter().all(|&k| k) {
                    return match fresh {
                        Some(p) => Poly { minimal: true, ..p },
                        None => Poly { minimal: true, ..self.clone() },
                    };
                }
                let rows = source.sys.constraints().iter().zip(keep).filter(|&(_, k)| k);
                let sys =
                    ConstraintSystem::from_constraints(rows.map(|(c, _)| c.clone()).collect());
                return Poly::new(self.dim, sys, false, true);
            }
        }
        match simplex::irredundant(&source.sys, &mut simplex::LpStats::default()) {
            Some(sys) => Poly::new(self.dim, sys, false, true),
            None => Poly::empty(self.dim),
        }
    }
}

/// Answers "does this polyhedron imply the row?" for a batch of rows:
/// from its generators when [`Poly::generators`] has them, otherwise by
/// one [`simplex::is_implied`] LP per row against its system.
enum Implier<'a> {
    Generators(&'a Generators),
    Lp(&'a ConstraintSystem),
}

impl Implier<'_> {
    fn new(p: &Poly) -> Implier<'_> {
        match p.generators() {
            Some(gens) => Implier::Generators(gens),
            None => Implier::Lp(&p.sys),
        }
    }

    /// Is the row, given with its canonical integer form, implied?
    fn implies(&self, (c, row): (&Constraint, &IntRow)) -> bool {
        match self {
            Implier::Generators(gens) => gens.implies(row),
            Implier::Lp(sys) => simplex::is_implied(sys, &BTreeSet::new(), c),
        }
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            write!(f, "⊥ (empty, dim {})", self.dim)
        } else if self.sys.is_empty() {
            write!(f, "⊤ (universe, dim {})", self.dim)
        } else {
            write!(f, "{}", self.sys)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(n.into(), d.into())
    }

    fn pt(pairs: &[(Var, i64)]) -> BTreeMap<Var, Rat> {
        pairs.iter().map(|&(v, x)| (v, r(x, 1))).collect()
    }

    /// The segment from (a, b) to (c, d) as a 2-D polyhedron... here simpler:
    /// an axis box [lo0, hi0] × [lo1, hi1].
    fn bbox(lo0: i64, hi0: i64, lo1: i64, hi1: i64) -> Poly {
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(0), LinExpr::constant(r(lo0, 1))));
        sys.push(Constraint::le(LinExpr::var(0), LinExpr::constant(r(hi0, 1))));
        sys.push(Constraint::ge(LinExpr::var(1), LinExpr::constant(r(lo1, 1))));
        sys.push(Constraint::le(LinExpr::var(1), LinExpr::constant(r(hi1, 1))));
        Poly::from_constraints(2, sys)
    }

    #[test]
    fn emptiness() {
        assert!(Poly::empty(3).is_empty());
        assert!(!Poly::universe(3).is_empty());
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(0), LinExpr::constant(r(1, 1))));
        sys.push(Constraint::le(LinExpr::var(0), LinExpr::constant(r(0, 1))));
        assert!(Poly::from_constraints(1, sys).is_empty());
    }

    #[test]
    fn meet_boxes() {
        let a = bbox(0, 2, 0, 2);
        let b = bbox(1, 3, 1, 3);
        let m = a.meet(&b);
        assert!(m.contains_point(&pt(&[(0, 1), (1, 2)])));
        assert!(!m.contains_point(&pt(&[(0, 0), (1, 0)])));
        assert!(m.includes_in(&a) && m.includes_in(&b));
    }

    #[test]
    fn meet_disjoint_is_empty() {
        let a = bbox(0, 1, 0, 1);
        let b = bbox(2, 3, 2, 3);
        assert!(a.meet(&b).is_empty());
    }

    #[test]
    fn inclusion() {
        let small = bbox(1, 2, 1, 2);
        let large = bbox(0, 3, 0, 3);
        assert!(small.includes_in(&large));
        assert!(!large.includes_in(&small));
        assert!(Poly::empty(2).includes_in(&small));
        assert!(!small.includes_in(&Poly::empty(2)));
        assert!(small.includes_in(&Poly::universe(2)));
    }

    #[test]
    fn hull_of_boxes_contains_both_and_midpoints() {
        let a = bbox(0, 1, 0, 1);
        let b = bbox(3, 4, 3, 4);
        let h = a.hull(&b);
        assert!(a.includes_in(&h));
        assert!(b.includes_in(&h));
        // Midpoint of (0,0) and (4,4) is (2,2) — in the hull.
        assert!(h.contains_point(&pt(&[(0, 2), (1, 2)])));
        // But (0, 4) is not (the hull of these diagonal boxes is a band).
        assert!(!h.contains_point(&pt(&[(0, 0), (1, 4)])));
    }

    #[test]
    fn hull_with_empty_is_identity() {
        let a = bbox(0, 1, 0, 1);
        assert!(a.hull(&Poly::empty(2)).same_set(&a));
        assert!(Poly::empty(2).hull(&a).same_set(&a));
    }

    #[test]
    fn hull_preserves_shared_equalities() {
        // Both polyhedra satisfy x0 = x1; the hull must too. This mirrors
        // the sizerel use case: both append clauses satisfy a1 + a2 = a3.
        let mk = |c: i64| {
            let mut sys = ConstraintSystem::new();
            sys.push(Constraint::eq(LinExpr::var(0), LinExpr::var(1)));
            sys.push(Constraint::eq(LinExpr::var(0), LinExpr::constant(r(c, 1))));
            Poly::from_constraints(2, sys)
        };
        let h = mk(1).hull(&mk(5));
        let eq = Constraint::eq(LinExpr::var(0), LinExpr::var(1));
        assert!(simplex::is_implied(h.constraints(), &BTreeSet::new(), &eq));
        assert!(h.contains_point(&pt(&[(0, 3), (1, 3)])));
        assert!(!h.contains_point(&pt(&[(0, 3), (1, 4)])));
    }

    #[test]
    fn forget_drops_dimension_information() {
        let a = bbox(1, 2, 5, 6);
        let f = a.forget(&[1].into_iter().collect());
        assert!(f.contains_point(&pt(&[(0, 1), (1, 100)])));
        assert!(!f.contains_point(&pt(&[(0, 0), (1, 5)])));
    }

    #[test]
    fn project_prefix_shrinks_space() {
        let a = bbox(1, 2, 5, 6);
        let p = a.project_prefix(1);
        assert_eq!(p.dim(), 1);
        assert!(p.contains_point(&pt(&[(0, 2)])));
        assert!(!p.contains_point(&pt(&[(0, 3)])));
    }

    #[test]
    fn widen_keeps_stable_constraints() {
        // Old: 0 <= x <= 1. New: 0 <= x <= 2. Widening keeps x >= 0, drops
        // the unstable upper bound.
        let mut old_sys = ConstraintSystem::new();
        old_sys.push(Constraint::nonneg(0));
        old_sys.push(Constraint::le(LinExpr::var(0), LinExpr::constant(r(1, 1))));
        let old = Poly::from_constraints(1, old_sys);
        let mut new_sys = ConstraintSystem::new();
        new_sys.push(Constraint::nonneg(0));
        new_sys.push(Constraint::le(LinExpr::var(0), LinExpr::constant(r(2, 1))));
        let new = Poly::from_constraints(1, new_sys);
        let w = old.widen(&new);
        assert!(w.contains_point(&pt(&[(0, 100)])));
        assert!(!w.contains_point(&pt(&[(0, -1)])));
    }

    #[test]
    fn widening_sequence_stabilizes() {
        // Iterating widen over growing boxes reaches a fixpoint quickly.
        let mut cur = bbox(0, 0, 0, 0);
        for k in 1..10 {
            let next = cur.hull(&bbox(0, k, 0, k));
            let widened = cur.widen(&next);
            if widened.same_set(&cur) {
                // Stable; and the stable value must include all iterates.
                assert!(bbox(0, 9, 0, 9).includes_in(&widened));
                return;
            }
            cur = widened;
        }
        // Must have stabilized within the loop: widening drops at least one
        // constraint per non-stable step and never adds any.
        let final_next = cur.hull(&bbox(0, 100, 0, 100));
        assert!(cur.widen(&final_next).same_set(&cur));
    }

    #[test]
    fn minimized_removes_redundant_rows() {
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::le(LinExpr::var(0), LinExpr::constant(r(1, 1))));
        sys.push(Constraint::le(LinExpr::var(0), LinExpr::constant(r(2, 1)))); // redundant
        sys.push(Constraint::nonneg(0));
        let p = Poly::from_constraints(1, sys);
        let m = p.minimized();
        assert_eq!(m.constraints().len(), 2);
        assert!(m.same_set(&p));
    }

    /// A full-dimensional polyhedron over `dim` dimensions: the box
    /// `0 ≤ xᵢ ≤ hi`, a diagonal cut, and a redundant looser copy of it.
    fn cut_box(dim: usize, hi: i64) -> Poly {
        let mut sys = ConstraintSystem::new();
        let mut sum = LinExpr::zero();
        for v in 0..dim {
            sys.push(Constraint::nonneg(v));
            sys.push(Constraint::le(LinExpr::var(v), LinExpr::constant(r(hi, 1))));
            sum.add_term(v, Rat::one());
        }
        sys.push(Constraint::le(sum.clone(), LinExpr::constant(r(hi + 1, 1))));
        sys.push(Constraint::le(sum, LinExpr::constant(r(hi + 3, 1))));
        Poly::from_constraints(dim, sys)
    }

    /// The LPs `f` solves.
    fn lps_solved<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let count = || simplex::LP_SOLVES.with(|c| c.get());
        let before = count();
        let out = f();
        (out, count() - before)
    }

    #[test]
    fn generator_route_solves_no_lp_within_the_dimension_bound() {
        for dim in [2, GENERATOR_DIM_MAX / 2, GENERATOR_DIM_MAX, GENERATOR_DIM_MAX + 1] {
            let (old, new) = (cut_box(dim, 2), cut_box(dim, 3));
            let ((inside, outside), inclusion_lps) =
                lps_solved(|| (old.includes_in(&new), new.includes_in(&old)));
            let (widened, widen_lps) = lps_solved(|| old.widen(&new));
            let (weak, weak_lps) = lps_solved(|| old.weak_join(&new));
            let (min, min_lps) = lps_solved(|| old.minimized());
            let lps = [inclusion_lps, widen_lps, weak_lps, min_lps];
            if dim <= GENERATOR_DIM_MAX {
                assert_eq!(lps, [0; 4], "dim {dim}");
            } else {
                assert!(lps.iter().all(|&n| n > 0), "dim {dim}: {lps:?}");
            }
            // The LP answers, one implication LP per row.
            let implied = |of: &Poly, by: &Poly| -> Vec<Constraint> {
                let rows = of.constraints().constraints().iter();
                rows.filter(|c| simplex::is_implied(by.constraints(), &BTreeSet::new(), c))
                    .cloned()
                    .collect()
            };
            assert!(inside && !outside);
            assert_eq!(widened.constraints().constraints(), &implied(&old, &new)[..]);
            let mut both = implied(&old, &new);
            both.extend(implied(&new, &old));
            assert_eq!(weak.constraints(), &ConstraintSystem::from_constraints(both).dedup());
            let reference =
                simplex::irredundant(&old.constraints().dedup(), &mut Default::default());
            assert_eq!(Some(min.constraints().clone()), reference);
            assert_eq!(min.constraints().len(), 2 * dim + 1, "dim {dim}:\n{min}");
        }
    }

    #[test]
    fn hull_runs_no_fm_within_the_dimension_bound() {
        for dim in 1..=GENERATOR_DIM_MAX + 1 {
            let mut stats = fm::FmStats::default();
            let cfg = fm::FmConfig::capped(HULL_ROW_CAP);
            let hull = cut_box(dim, 2).hull_with(&cut_box(dim, 5), &cfg, &mut stats);
            assert!(hull.same_set(&cut_box(dim, 5)), "dim {dim}:\n{hull}");
            if dim <= GENERATOR_DIM_MAX {
                assert_eq!(stats.rows_in, 0, "dim {dim}");
                assert!(hull.is_minimal());
            } else {
                assert!(stats.rows_in > 0, "dim {dim}");
            }
        }
    }

    #[test]
    fn emptiness_solves_no_lp_within_the_dimension_bound() {
        let contradiction = |dim: usize| {
            let mut sys = cut_box(dim, 2).constraints().clone();
            sys.push(Constraint::ge(LinExpr::var(0), LinExpr::constant(r(3, 1))));
            sys
        };
        for dim in [3, GENERATOR_DIM_MAX + 1] {
            let (feasible, lps) = lps_solved(|| cut_box(dim, 2));
            let (infeasible, infeasible_lps) =
                lps_solved(|| Poly::from_constraints(dim, contradiction(dim)));
            assert!(!feasible.is_empty() && infeasible.is_empty(), "dim {dim}");
            if dim <= GENERATOR_DIM_MAX {
                assert_eq!((lps, infeasible_lps), (0, 0), "dim {dim}");
            } else {
                assert!(lps > 0 && infeasible_lps > 0, "dim {dim}");
            }
        }
    }

    /// The H→V conversions `f` runs.
    fn conversions<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let count = || crate::generators::CONVERSIONS.with(|c| c.get());
        let before = count();
        let out = f();
        (out, count() - before)
    }

    #[test]
    fn each_polyhedron_converts_to_generators_once() {
        let cfg = fm::FmConfig::capped(HULL_ROW_CAP);
        let nonneg = Constraint::nonneg(0);
        for dim in [2, GENERATOR_DIM_MAX] {
            // Deduplicated rows, as the fixpoint writes them, so that
            // `minimized` converts no other system; no conversion yet.
            let fixed = |hi| Poly::from_raw_parts(dim, cut_box(dim, hi).sys.dedup(), false);
            let (a, b) = (fixed(2), fixed(3));
            let (copies, n) = conversions(|| {
                let mut copies = Vec::new();
                for _ in 0..3 {
                    let hull = a.hull_with(&b, &cfg, &mut fm::FmStats::default());
                    assert!(hull.same_set(&b));
                    assert!(a.includes_in(&b) && !b.includes_in(&a));
                    assert!(a.implies(&nonneg) && b.implies(&nonneg));
                    b.widen(&a);
                    a.widen(&b);
                    a.minimized();
                    b.minimized();
                    copies.push(a.clone());
                }
                copies
            });
            // `same_set` above converts each hull once.
            assert_eq!(n, 2 + 3, "dim {dim}");
            let (_, n) = conversions(|| {
                for copy in &copies {
                    copy.hull_with(&b, &cfg, &mut fm::FmStats::default());
                    assert!(copy.includes_in(&b) && copy.implies(&nonneg));
                    b.widen(copy);
                    copy.minimized();
                }
            });
            assert_eq!(n, 0, "dim {dim}: clones share the conversion");
            // Deciding emptiness fills the cache too.
            let (p, n) = conversions(|| Poly::from_constraints(dim, b.sys.clone()));
            let (_, again) = conversions(|| (p.includes_in(&a), a.widen(&p), p.minimized()));
            assert_eq!((n, again), (1, 0), "dim {dim}");
        }
    }

    #[test]
    fn nonneg_universe() {
        let p = Poly::nonneg_universe(2);
        assert!(p.contains_point(&pt(&[(0, 0), (1, 5)])));
        assert!(!p.contains_point(&pt(&[(0, -1), (1, 0)])));
    }

    #[test]
    fn rename_dims() {
        let a = bbox(1, 2, 5, 6);
        let map: BTreeMap<Var, Var> = [(0, 1), (1, 0)].into_iter().collect();
        let swapped = a.rename(&map, 2);
        assert!(swapped.contains_point(&pt(&[(0, 5), (1, 1)])));
        assert!(!swapped.contains_point(&pt(&[(0, 1), (1, 5)])));
    }
}
