//! Randomized property tests for the polyhedral shortcuts the size-relation
//! fixpoint relies on: widening against the next iterate instead of its
//! join with the previous one, the batched implication tests behind
//! `widen`/`includes_in`/`weak_join` (from generators, or the warm LP probe
//! above `GENERATOR_DIM_MAX`), the Farkas-dual implication test behind
//! `is_implied`, and `minimized` (the facet rows read off the generators,
//! or the greedy `irredundant` pass with its LP-free keep test). Each is
//! checked against the plain per-row LP formulation on seeded random
//! systems that mix equalities and inequalities, empty and universe
//! operands, hulls over `HULL_ROW_CAP`, polyhedra with lines, implicit
//! equalities and constant rows, and redundant hundred-row systems, on
//! both sides of `GENERATOR_DIM_MAX`.
//!
//! The LP oracle is the primal simplex through `LpProblem::maximize`, one
//! tableau row per constraint, so it shares no code with the dual tableau
//! or the generators.

use argus_linear::poly::{GENERATOR_DIM_MAX, HULL_ROW_CAP};
use argus_linear::simplex::{self, LpOutcome, LpProblem, LpStats};
use argus_linear::{Constraint, ConstraintSystem, FmConfig, FmStats, LinExpr, Poly, Rat, Rel, Var};
use argus_prng::Rng64;
use std::collections::{BTreeMap, BTreeSet};

/// A row through `anchor`: random small coefficients, with the constant
/// chosen so the row holds there (with random slack for an inequality).
fn row_through(r: &mut Rng64, anchor: &[i64], rel: Rel) -> Constraint {
    let mut e = LinExpr::zero();
    let mut at = 0;
    for (v, &x) in anchor.iter().enumerate() {
        let a = r.range_i64(-3, 3);
        e.add_term(v, Rat::from_int(a));
        at += a * x;
    }
    let slack = if rel == Rel::Le { r.range_i64(0, 4) } else { 0 };
    e.add_constant(&Rat::from_int(-at - slack));
    Constraint { expr: e, rel }
}

/// A random polyhedron over `dim` dimensions: now and then empty or the
/// universe, usually rows through a random anchor point (so nonempty, with
/// the odd equality), sometimes unanchored rows that may be infeasible.
fn gen_poly(r: &mut Rng64, dim: usize, max_rows: usize) -> Poly {
    match r.below(10) {
        0 => return Poly::empty(dim),
        1 => return Poly::universe(dim),
        _ => {}
    }
    let anchored = r.below(5) != 0;
    let anchor: Vec<i64> = (0..dim).map(|_| r.range_i64(0, 6)).collect();
    let mut sys = ConstraintSystem::new();
    for _ in 0..r.range_usize(1, max_rows) {
        let rel = if r.below(5) == 0 { Rel::Eq } else { Rel::Le };
        let c = if anchored {
            row_through(r, &anchor, rel)
        } else {
            let other: Vec<i64> = (0..dim).map(|_| r.range_i64(-4, 8)).collect();
            row_through(r, &other, rel)
        };
        sys.push(c);
    }
    if r.bool() {
        for v in 0..dim {
            sys.push(Constraint::nonneg(v));
        }
    }
    Poly::from_constraints(dim, sys)
}

/// An `(old, new)` pair shaped like a fixpoint step: `old` is minimized
/// half the time (as the fixpoint keeps it), and `new` is either
/// unrelated or `old`'s hull with a random polyhedron.
fn gen_pair(r: &mut Rng64, dim: usize, max_rows: usize) -> (Poly, Poly) {
    let mut old = gen_poly(r, dim, max_rows);
    if r.bool() {
        old = old.minimized();
    }
    let other = gen_poly(r, dim, max_rows);
    let new = if r.bool() { old.hull(&other) } else { other };
    (old, new)
}

/// The rows of `of` that `by`'s system implies, one LP per row.
fn implied_rows(of: &Poly, by: &Poly) -> Vec<Constraint> {
    of.constraints()
        .constraints()
        .iter()
        .filter(|c| simplex::is_implied(by.constraints(), &BTreeSet::new(), c))
        .cloned()
        .collect()
}

/// Does `sys` imply `cand`? The primal LP alone: maximize each inequality
/// half over the system.
fn primal_implies(sys: &ConstraintSystem, nonneg: &BTreeSet<Var>, cand: &Constraint) -> bool {
    let lp = LpProblem::feasibility(sys.clone(), nonneg.clone());
    let le = |e: &LinExpr| match lp.maximize(e.clone()) {
        LpOutcome::Infeasible => true,
        LpOutcome::Unbounded => false,
        LpOutcome::Optimal { value, .. } => !value.is_positive(),
    };
    le(&cand.expr) && (cand.rel == Rel::Le || le(&-&cand.expr))
}

/// `minimized` as plain LP redundancy removal: dedup, then drop each row
/// the remaining others imply, one primal LP per row.
fn reference_minimized(sys: &ConstraintSystem) -> Vec<Constraint> {
    let mut kept = sys.dedup().constraints().to_vec();
    let mut i = 0;
    while i < kept.len() {
        let others: Vec<Constraint> =
            kept.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, c)| c.clone()).collect();
        let others = ConstraintSystem::from_constraints(others);
        if primal_implies(&others, &BTreeSet::new(), &kept[i]) {
            kept.remove(i);
        } else {
            i += 1;
        }
    }
    kept
}

/// A random row over `0..dim`: small coefficients (all zero now and then,
/// which makes a constant row), through `anchor` with random slack when
/// one is given, otherwise with a random constant.
fn random_row(r: &mut Rng64, dim: usize, anchor: Option<&[i64]>, rel: Rel) -> Constraint {
    let constant_row = r.below(12) == 0;
    let mut e = LinExpr::zero();
    let mut at = 0;
    for v in 0..dim {
        let a = if constant_row { 0 } else { r.range_i64(-3, 3) };
        e.add_term(v, Rat::from_int(a));
        at += a * anchor.map_or(0, |x| x[v]);
    }
    let k = match anchor {
        Some(_) if rel == Rel::Le => -at - r.range_i64(0, 3),
        Some(_) => -at,
        None => r.range_i64(-4, 4),
    };
    e.add_constant(&Rat::from_int(k));
    Constraint { expr: e, rel }
}

/// A random system over `0..dim`: usually feasible (rows through an
/// anchor point), sometimes unanchored and possibly infeasible.
fn random_system(r: &mut Rng64, dim: usize, max_rows: usize) -> ConstraintSystem {
    let anchor: Option<Vec<i64>> =
        (r.below(4) != 0).then(|| (0..dim).map(|_| r.range_i64(0, 5)).collect());
    let mut sys = ConstraintSystem::new();
    for _ in 0..r.range_usize(0, max_rows) {
        let rel = if r.below(5) == 0 { Rel::Eq } else { Rel::Le };
        sys.push(random_row(r, dim, anchor.as_deref(), rel));
    }
    sys
}

/// Widening against the next iterate equals widening against its closed
/// hull with the previous one — and against the weak join that stands in
/// for a hull over the row cap.
#[test]
fn widen_against_new_equals_widen_against_hull() {
    let mut r = Rng64::new(0x51DE);
    let over_cap = FmConfig { max_rows: 0, ..FmConfig::default() };
    for _ in 0..300 {
        let dim = r.range_usize(1, 4);
        let (old, new) = gen_pair(&mut r, dim, 6);
        let direct = old.widen(&new);
        assert_eq!(direct, old.widen(&old.hull(&new)), "old:\n{old}\nnew:\n{new}");
        let weak = old.hull_with(&new, &over_cap, &mut FmStats::default());
        assert_eq!(direct, old.widen(&weak), "weak join; old:\n{old}\nnew:\n{new}");
    }
}

/// The same identity where the production hull itself runs over
/// [`HULL_ROW_CAP`]: two dense 5-dimensional polytopes whose exact hull
/// has more facets than the cap, so `hull` falls back to `weak_join`. A
/// case counts as over the cap when the capped hull differs from one
/// computed under a much larger cap (the hull is deterministic, so below
/// the cap the two agree); it reaches the fallback from the generator
/// route, without running FM.
#[test]
fn widen_identity_holds_when_hull_exceeds_row_cap() {
    let mut r = Rng64::new(0xCA9);
    let roomy = FmConfig { max_rows: 8 * HULL_ROW_CAP, ..FmConfig::default() };
    let mut over_cap = 0;
    for _ in 0..8 {
        let old = gen_poly_dense(&mut r, 5, 8).minimized();
        let new = gen_poly_dense(&mut r, 5, 8);
        let mut stats = FmStats::default();
        let joined = old.hull_with(&new, &FmConfig::capped(HULL_ROW_CAP), &mut stats);
        assert_eq!(joined, old.hull(&new));
        let exact = old.hull_with(&new, &roomy, &mut stats);
        assert_eq!(stats.rows_in, 0, "FM ran; old:\n{old}\nnew:\n{new}");
        if joined != exact {
            assert!(exact.constraints().len() > HULL_ROW_CAP);
            assert_eq!(joined, old.weak_join(&new));
            over_cap += 1;
        }
        assert_eq!(old.widen(&new), old.widen(&joined), "old:\n{old}\nnew:\n{new}");
    }
    assert!(over_cap >= 2, "only {over_cap} hulls ran over the row cap");
}

/// A random operand for the hull: [`gen_poly`]'s mix, plus now and then a
/// system whose rows contradict each other outright (`x₀ ≥ 1 ∧ x₀ ≤ 0`
/// among random rows), which `from_constraints` must flag empty.
fn gen_hull_operand(r: &mut Rng64, dim: usize) -> Poly {
    if r.below(6) != 0 {
        return gen_poly(r, dim, 5);
    }
    let mut sys = random_system(r, dim, 4);
    sys.push(Constraint::ge(LinExpr::var(0), LinExpr::constant(Rat::one())));
    sys.push(Constraint::le(LinExpr::var(0), LinExpr::zero()));
    let p = Poly::from_constraints(dim, sys);
    assert!(p.is_empty());
    p
}

/// The hull of two polyhedra is empty iff both are, and its rows alone
/// say so: a hull with a nonempty operand has feasible rows, so skipping
/// the feasibility LP on its result loses nothing. It contains a sample
/// point of each nonempty operand — under the production row cap and
/// when the weak join stands in for an over-cap hull.
#[test]
fn hull_emptiness_is_exact_without_an_lp() {
    let mut r = Rng64::new(0x4011);
    let over_cap = FmConfig { max_rows: 0, ..FmConfig::default() };
    for _ in 0..400 {
        let dim = r.range_usize(1, 4);
        let a = gen_hull_operand(&mut r, dim);
        let b = gen_hull_operand(&mut r, dim);
        for hull in [a.hull(&b), a.hull_with(&b, &over_cap, &mut FmStats::default())] {
            assert_eq!(hull.is_empty(), a.is_empty() && b.is_empty(), "a:\n{a}\nb:\n{b}");
            if !hull.is_empty() {
                let rows_alone = Poly::from_constraints(dim, hull.constraints().clone());
                assert_eq!(hull.is_empty(), rows_alone.is_empty(), "a:\n{a}\nb:\n{b}");
            }
            for p in [&a, &b] {
                if let Some(point) = p.sample_point() {
                    assert!(hull.contains_point(&point), "p:\n{p}\nhull:\n{hull}");
                }
            }
        }
    }
}

/// `p` in `dim ≥ p.dim()` dimensions, the extra ones unconstrained.
fn padded(p: &Poly, dim: usize) -> Poly {
    if p.is_empty() {
        return Poly::empty(dim);
    }
    Poly::from_constraints(dim, p.constraints().clone())
}

/// The generator hull and the Benoy–King λ-lift projected by FM describe
/// the same set, on both operands of every shape the fixpoint meets
/// (lines, the universe, implicit equalities, constant rows, an empty
/// operand), at every dimension the generator route serves. The FM hull is
/// the same pair's hull one dimension past [`GENERATOR_DIM_MAX`], where
/// the extra dimension is unconstrained; under a roomy cap FM usually
/// finishes, and where it does not the weak join that stands in must still
/// contain the exact hull. The generator hull is also irredundant:
/// `minimized` returns its rows unchanged (checked on hulls of up to 40
/// rows, since with implicit equalities that runs the quadratic LP pass).
#[test]
fn generator_hull_matches_lifted_fm_hull() {
    let mut r = Rng64::new(0x6E11);
    let roomy = FmConfig { max_rows: 8 * HULL_ROW_CAP, ..FmConfig::default() };
    let wide = GENERATOR_DIM_MAX + 1;
    let (mut same, mut gave_up) = (0, 0);
    for dim in 1..=GENERATOR_DIM_MAX {
        for _ in 0..30 {
            let a = gen_shape(&mut r, dim);
            let b = if r.below(8) == 0 {
                gen_hull_operand(&mut r, dim)
            } else {
                gen_shape(&mut r, dim)
            };
            let ctx = format!("dim {dim}\na:\n{a}\nb:\n{b}");
            let mut stats = FmStats::default();
            let exact = a.hull_with(&b, &roomy, &mut stats);
            assert_eq!(exact.is_empty(), a.is_empty() && b.is_empty(), "{ctx}");
            if stats.rows_in > 0 {
                // A conversion gave up, and the FM route served the hull.
                gave_up += 1;
                continue;
            }
            if exact.is_empty() {
                continue;
            }
            if !a.is_empty() && !b.is_empty() && exact.constraints().len() <= 40 {
                let fresh = Poly::from_raw_parts(dim, exact.constraints().clone(), false);
                assert_eq!(fresh.minimized(), exact, "{ctx}\nhull:\n{exact}");
            }

            let (wa, wb) = (padded(&a, wide), padded(&b, wide));
            let lifted = wa.hull_with(&wb, &roomy, &mut stats);
            assert!(stats.rows_in > 0 || a.is_empty() || b.is_empty(), "{ctx}");
            assert!(lifted.constraints().vars().iter().all(|&v| v < dim), "{ctx}\n{lifted}");
            let lifted_here = Poly::from_constraints(dim, lifted.constraints().clone());
            assert!(exact.includes_in(&lifted_here), "{ctx}\nhull:\n{exact}\nfm:\n{lifted}");
            if lifted_here.includes_in(&exact) {
                same += 1;
            } else {
                assert_eq!(lifted, wa.weak_join(&wb), "{ctx}\nhull:\n{exact}\nfm:\n{lifted}");
            }
        }
    }
    assert!(same >= 120, "only {same} of 180 hulls match the FM hull");
    assert!(gave_up <= 5, "{gave_up} conversions gave up");
}

/// `from_constraints` decides emptiness from generators within
/// [`GENERATOR_DIM_MAX`] and by LP above it; both agree with the primal
/// LP, on feasible systems and on infeasible ones (unanchored rows, and
/// rows that contradict each other outright). A hull is empty iff both
/// operands are, on both routes.
#[test]
fn emptiness_matches_primal_lp_across_the_dimension_bound() {
    let mut r = Rng64::new(0xE3E7);
    let mut empties = 0;
    for dim in dims_across_the_bound() {
        for _ in 0..60 {
            let mut sys = random_system(&mut r, dim, 2 * dim + 2);
            if r.below(6) == 0 {
                sys.push(Constraint::ge(LinExpr::var(dim - 1), LinExpr::constant(Rat::one())));
                sys.push(Constraint::le(LinExpr::var(dim - 1), LinExpr::zero()));
            }
            let lp = LpProblem::feasibility(sys.clone(), BTreeSet::new());
            let infeasible = matches!(lp.maximize(LinExpr::zero()), LpOutcome::Infeasible);
            let p = Poly::from_constraints(dim, sys);
            assert_eq!(p.is_empty(), infeasible, "dim {dim}:\n{p}");
            empties += usize::from(infeasible);
            let q = gen_hull_operand(&mut r, dim);
            let hull = p.hull(&q);
            assert_eq!(hull.is_empty(), p.is_empty() && q.is_empty(), "p:\n{p}\nq:\n{q}");
        }
    }
    assert!(empties >= 40, "only {empties} infeasible systems");
}

/// Dense inequality rows through a common anchor: nonempty, and with every
/// coefficient nonzero, so FM pairs nearly every row with every other.
fn gen_poly_dense(r: &mut Rng64, dim: usize, rows: usize) -> Poly {
    let anchor: Vec<i64> = (0..dim).map(|_| r.range_i64(0, 6)).collect();
    let mut sys = ConstraintSystem::new();
    for _ in 0..rows {
        let mut e = LinExpr::zero();
        let mut at = 0;
        for (v, &x) in anchor.iter().enumerate() {
            let a = *r.pick(&[-3, -2, -1, 1, 2, 3]);
            e.add_term(v, Rat::from_int(a));
            at += a * x;
        }
        e.add_constant(&Rat::from_int(-at - r.range_i64(1, 5)));
        sys.push(Constraint { expr: e, rel: Rel::Le });
    }
    Poly::from_constraints(dim, sys)
}

/// The probe-based batches answer exactly what one LP per row answers:
/// `widen` keeps the rows `is_implied` keeps, `includes_in` holds iff
/// every row is implied, and `weak_join` keeps the mutually implied rows.
#[test]
fn probe_batches_match_per_row_lps() {
    let mut r = Rng64::new(0x9E0B);
    for _ in 0..300 {
        let dim = r.range_usize(1, 4);
        let (old, new) = gen_pair(&mut r, dim, 6);
        if old.is_empty() || new.is_empty() {
            continue;
        }
        let widened = old.widen(&new);
        assert_eq!(widened.constraints().constraints(), &implied_rows(&old, &new)[..]);
        assert_eq!(widened.is_minimal(), old.is_minimal());
        let rows = new.constraints().len();
        assert_eq!(old.includes_in(&new), implied_rows(&new, &old).len() == rows);
        let mut both = implied_rows(&old, &new);
        both.extend(implied_rows(&new, &old));
        let weak = old.weak_join(&new);
        assert_eq!(weak.constraints(), &ConstraintSystem::from_constraints(both).dedup());
    }
}

/// `minimized` (with its LP-free keep test) equals plain primal-LP
/// redundancy removal, and a widening of a minimized polyhedron is already minimal:
/// minimizing it from scratch changes nothing.
#[test]
fn minimized_matches_lp_reference() {
    let mut r = Rng64::new(0x3141);
    for _ in 0..400 {
        let dim = r.range_usize(1, 5);
        let p = gen_poly(&mut r, dim, 9);
        if p.is_empty() {
            continue;
        }
        let m = p.minimized();
        assert!(m.is_minimal());
        assert_eq!(
            m.constraints().constraints(),
            &reference_minimized(p.constraints())[..],
            "p:\n{p}"
        );

        let new = gen_poly(&mut r, dim, 9);
        let w = m.widen(&new);
        let fresh = Poly::from_raw_parts(dim, w.constraints().clone(), w.is_empty());
        assert!(!fresh.is_minimal());
        assert_eq!(fresh.minimized(), w, "m:\n{m}\nnew:\n{new}");
    }
}

/// The dual-form `is_implied` answers what the primal LP answers, on
/// systems with equality rows, nonnegative variables, constant rows and
/// infeasible systems, for inequality and equality candidates that may
/// mention a variable absent from the system.
#[test]
fn dual_is_implied_matches_primal_lp() {
    let mut r = Rng64::new(0xD0A1);
    let mut seen = BTreeMap::new();
    for _ in 0..3000 {
        let dim = r.range_usize(1, 4);
        let sys = random_system(&mut r, dim, 10);
        let nonneg: BTreeSet<Var> = (0..=dim).filter(|_| r.bool()).collect();
        // One more variable than the system may mention: absent from it.
        let cand_dim = if r.below(4) == 0 { dim + 1 } else { dim };
        let rel = if r.below(4) == 0 { Rel::Eq } else { Rel::Le };
        let cand = random_row(&mut r, cand_dim, None, rel);
        let want = primal_implies(&sys, &nonneg, &cand);
        assert_eq!(
            simplex::is_implied(&sys, &nonneg, &cand),
            want,
            "nonneg {nonneg:?}\nsystem:\n{sys}\ncandidate: {cand}"
        );
        let feasible = simplex::feasible_point(&sys, &nonneg).is_some();
        *seen.entry((feasible, rel == Rel::Eq, want)).or_insert(0) += 1;
    }
    // Every combination of feasible/infeasible system, inequality/equality
    // candidate and implied/not implied occurred (infeasible systems
    // imply everything).
    for feasible in [true, false] {
        for eq in [true, false] {
            for implied in [true, false] {
                if !feasible && !implied {
                    continue;
                }
                assert!(seen.contains_key(&(feasible, eq, implied)), "{seen:?}");
            }
        }
    }
}

/// `irredundant` keeps, row for row, what plain primal-LP redundancy
/// removal keeps, answers each test with one dual tableau row per
/// variable, and reports an infeasible system as `None`.
#[test]
fn irredundant_matches_lp_reference() {
    let mut r = Rng64::new(0x6EED);
    let mut infeasible = 0;
    for _ in 0..600 {
        let dim = r.range_usize(1, 4);
        let sys = random_system(&mut r, dim, 14).dedup();
        let mut stats = LpStats::default();
        let kept = simplex::irredundant(&sys, &mut stats);
        if simplex::feasible_point(&sys, &BTreeSet::new()).is_none() {
            assert_eq!(kept, None, "system:\n{sys}");
            infeasible += 1;
            continue;
        }
        let kept = kept.expect("feasible system");
        assert_eq!(kept.constraints(), &reference_minimized(&sys)[..], "system:\n{sys}");
        let vars = sys.vars().len() as u64;
        assert_eq!(stats.tableau_rows, stats.solves * vars, "{stats:?}\n{sys}");
    }
    assert!(infeasible >= 20, "only {infeasible} infeasible systems");
}

/// The dimensions the shape oracles below sweep: every dimension up to one
/// past [`GENERATOR_DIM_MAX`], so both the generator route and the LP route
/// of `Poly`'s implication and redundancy tests are covered.
fn dims_across_the_bound() -> std::ops::RangeInclusive<usize> {
    1..=GENERATOR_DIM_MAX + 1
}

/// Checks every generator-backed `Poly` test on `(old, new)` against the
/// primal LP, row for row: `widen` keeps exactly the rows of `old` that
/// `new` implies, `includes_in` holds iff every row is implied (both
/// ways), `weak_join` keeps the mutually implied rows, and `minimized`
/// equals plain redundancy removal.
fn assert_matches_primal_lp(old: &Poly, new: &Poly) {
    let implied = |of: &Poly, by: &Poly| -> Vec<Constraint> {
        let by = by.constraints();
        let rows = of.constraints().constraints().iter();
        rows.filter(|c| primal_implies(by, &BTreeSet::new(), c)).cloned().collect()
    };
    for p in [old, new] {
        if p.is_empty() {
            continue;
        }
        let m = p.minimized();
        assert!(m.is_minimal(), "p:\n{p}");
        assert_eq!(
            m.constraints().constraints(),
            &reference_minimized(p.constraints())[..],
            "p:\n{p}"
        );
    }
    if old.is_empty() || new.is_empty() {
        return;
    }
    let ctx = format!("old:\n{old}\nnew:\n{new}");
    assert_eq!(old.widen(new).constraints().constraints(), &implied(old, new)[..], "{ctx}");
    let all = |of: &Poly, by: &Poly| implied(of, by).len() == of.constraints().len();
    assert_eq!(old.includes_in(new), all(new, old), "{ctx}");
    assert_eq!(new.includes_in(old), all(old, new), "{ctx}");
    let mut both = implied(old, new);
    both.extend(implied(new, old));
    let weak = old.weak_join(new);
    assert_eq!(weak.constraints(), &ConstraintSystem::from_constraints(both).dedup(), "{ctx}");
}

/// A random row whose coefficient vector is orthogonal to `line`, so the
/// polyhedron it bounds contains every translate along `line`.
fn row_along(r: &mut Rng64, line: &[i64], anchor: &[i64], rel: Rel) -> Constraint {
    let a: Vec<i64> = line.iter().map(|_| r.range_i64(-3, 3)).collect();
    let dot = |u: &[i64], w: &[i64]| u.iter().zip(w).map(|(x, y)| x * y).sum::<i64>();
    let (uu, au) = (dot(line, line), dot(&a, line));
    let a: Vec<i64> = a.iter().zip(line).map(|(x, u)| uu * x - au * u).collect();
    let mut e = LinExpr::zero();
    for (v, &k) in a.iter().enumerate() {
        e.add_term(v, Rat::from_int(k));
    }
    let slack = if rel == Rel::Le { r.range_i64(0, 3) } else { 0 };
    e.add_constant(&Rat::from_int(-dot(&a, anchor) - slack));
    Constraint { expr: e, rel }
}

/// A polyhedron of one of the shapes the fixpoint meets besides the
/// bounded full-dimensional one: the universe, one that contains lines
/// (no nonnegativity rows, every row orthogonal to a random direction),
/// one with implicit equalities written as opposing inequality pairs, and
/// one salted with constant rows (true ones, `0 = 0`, and now and then a
/// false one, which makes it empty).
fn gen_shape(r: &mut Rng64, dim: usize) -> Poly {
    let anchor: Vec<i64> = (0..dim).map(|_| r.range_i64(0, 5)).collect();
    let mut sys = ConstraintSystem::new();
    match r.below(4) {
        0 => return Poly::universe(dim),
        1 => {
            let mut line: Vec<i64> = (0..dim).map(|_| r.range_i64(-1, 2)).collect();
            if line.iter().all(|&u| u == 0) {
                line[r.below(dim as u64) as usize] = 1;
            }
            for _ in 0..r.range_usize(1, 2 * dim + 2) {
                let rel = if r.below(6) == 0 { Rel::Eq } else { Rel::Le };
                sys.push(row_along(r, &line, &anchor, rel));
            }
        }
        2 => {
            for _ in 0..r.range_usize(1, dim + 1) {
                let tight = row_through(r, &anchor, Rel::Eq);
                sys.push(Constraint { expr: -&tight.expr, rel: Rel::Le });
                sys.push(Constraint { expr: tight.expr, rel: Rel::Le });
            }
            for _ in 0..r.range_usize(0, 2 * dim) {
                sys.push(row_through(r, &anchor, Rel::Le));
            }
        }
        _ => {
            for _ in 0..r.range_usize(0, 2 * dim + 2) {
                let rel = if r.below(6) == 0 { Rel::Eq } else { Rel::Le };
                sys.push(row_through(r, &anchor, rel));
            }
            sys.push(Constraint { expr: LinExpr::constant(Rat::from_int(-2)), rel: Rel::Le });
            sys.push(Constraint { expr: LinExpr::zero(), rel: Rel::Eq });
            if r.below(8) == 0 {
                sys.push(Constraint { expr: LinExpr::constant(Rat::one()), rel: Rel::Le });
            }
        }
    }
    if r.below(3) == 0 {
        for v in 0..dim {
            sys.push(Constraint::nonneg(v));
        }
    }
    Poly::from_constraints(dim, sys)
}

/// Lines, the universe, implicit equalities and constant rows, on both
/// sides of the generator route's dimension bound, each operation checked
/// against the primal LP.
#[test]
fn shapes_across_the_dimension_bound_match_primal_lp() {
    let mut r = Rng64::new(0x5A9E);
    for dim in dims_across_the_bound() {
        for _ in 0..60 {
            let old = gen_shape(&mut r, dim);
            let old = if r.bool() { old.minimized() } else { old };
            let new = match r.below(3) {
                0 => gen_shape(&mut r, dim),
                1 => gen_poly(&mut r, dim, 2 * dim + 2),
                _ => old.hull(&gen_shape(&mut r, dim)),
            };
            assert_matches_primal_lp(&old, &new);
        }
    }
}

/// A row through `anchor` over at most two variables, with coefficients
/// of magnitude at most 2 — the shape of a size relation such as
/// `a₁ ≤ a₂` or `2·a₁ = a₂ + 1`.
fn sparse_row_through(r: &mut Rng64, anchor: &[i64], rel: Rel) -> Constraint {
    let mut e = LinExpr::zero();
    let mut at = 0;
    for _ in 0..2 {
        let v = r.below(anchor.len() as u64) as usize;
        let a = *r.pick(&[-2, -1, 1, 2]);
        e.add_term(v, Rat::from_int(a));
        at += a * anchor[v];
    }
    let slack = if rel == Rel::Le { r.range_i64(0, 3) } else { 0 };
    e.add_constant(&Rat::from_int(-at - slack));
    Constraint { expr: e, rel }
}

/// A redundant system shaped like the hull-fold prefixes the fixpoint
/// builds: the rows of successive hulls of polyhedra whose sparse rows
/// pass through one anchor point (so the conjunction is nonempty), each
/// followed now and then by a looser copy, plus nonnegative combinations
/// of its rows, with the odd equality — a hundred rows, most of them
/// redundant, with and without implicit equalities.
fn gen_fold_prefix(r: &mut Rng64, dim: usize) -> Poly {
    let anchor: Vec<i64> = (0..dim).map(|_| r.range_i64(0, 5)).collect();
    let operand = |r: &mut Rng64| {
        let mut sys = ConstraintSystem::new();
        for _ in 0..r.range_usize(1, dim + 2) {
            let rel = if r.below(5) == 0 { Rel::Eq } else { Rel::Le };
            sys.push(sparse_row_through(r, &anchor, rel));
        }
        Poly::from_constraints(dim, sys)
    };
    let mut rows: Vec<Constraint> = Vec::new();
    let mut acc = operand(r);
    while rows.len() < 100 {
        acc = acc.hull(&operand(r));
        if acc.constraints().len() < 2 {
            // Joined up to (nearly) the universe: start a new fold.
            acc = operand(r);
            continue;
        }
        let base = acc.constraints().constraints().to_vec();
        for c in &base {
            rows.push(c.clone());
            if c.rel == Rel::Le && r.bool() {
                let mut e = c.expr.clone();
                e.add_constant(&Rat::from_int(-r.range_i64(1, 3)));
                rows.push(Constraint { expr: e, rel: Rel::Le });
            }
        }
        let les: Vec<&Constraint> = base.iter().filter(|c| c.rel == Rel::Le).collect();
        for _ in 0..les.len().min(6) {
            let (a, b) = (r.pick(&les), r.pick(&les));
            let e = &(&a.expr * &Rat::from_int(r.range_i64(1, 3))) + &b.expr;
            rows.push(Constraint { expr: e, rel: Rel::Le });
        }
    }
    rows.truncate(100);
    Poly::from_constraints(dim, ConstraintSystem::from_constraints(rows))
}

/// Equality candidates against a polyhedron: sums and differences of
/// coordinates (`append`'s `a1 + a2 = a3`), some of which it implies.
fn gen_eq_candidates(r: &mut Rng64, p: &Poly) -> Poly {
    let dim = p.dim();
    let mut sys = ConstraintSystem::new();
    for c in p.constraints().constraints().iter().filter(|c| c.rel == Rel::Eq) {
        sys.push(c.clone());
    }
    for _ in 0..3 {
        let mut e = LinExpr::zero();
        for v in 0..dim {
            e.add_term(v, Rat::from_int(r.range_i64(-1, 1)));
        }
        sys.push(Constraint { expr: e, rel: Rel::Eq });
    }
    Poly::from_constraints(dim, sys)
}

/// A hundred redundant rows per system, shaped like the prefixes the
/// size-relation fixpoint folds, against equality candidates: widening,
/// inclusion, the weak join and minimization all match the primal LP on
/// both sides of the dimension bound.
#[test]
fn fold_prefix_systems_match_primal_lp() {
    let mut r = Rng64::new(0xF01D);
    let mut reduced = 0;
    for dim in dims_across_the_bound() {
        let p = gen_fold_prefix(&mut r, dim);
        assert!(!p.is_empty(), "p:\n{p}");
        reduced += usize::from(p.minimized().constraints().len() < p.constraints().len());
        let eqs = gen_eq_candidates(&mut r, &p);
        assert_matches_primal_lp(&p, &eqs);
    }
    assert_eq!(reduced, GENERATOR_DIM_MAX + 1, "a system without redundant rows");
}

/// A copy of `p` with empty caches.
fn uncached(p: &Poly) -> Poly {
    Poly::from_raw_parts(p.dim(), p.constraints().clone(), p.is_empty())
}

/// The answers of every cache-reading operation on `(old, new)`: both
/// hulls, both widenings, both minimizations, both inclusions and
/// `implies` on `probes`. Each of the six results, whose caches may be
/// shared with an operand, must also answer inclusion both ways against
/// each operand as a copy of it with empty caches does. (A copy made by
/// `from_raw_parts` does not keep the `is_minimal` flag, which `widen`
/// passes on, so the flags are left out.)
fn cached_ops(old: &Poly, new: &Poly, probes: &[Constraint]) -> impl PartialEq + std::fmt::Debug {
    let cfg = FmConfig::capped(HULL_ROW_CAP);
    let results = [
        old.hull_with(new, &cfg, &mut FmStats::default()),
        new.hull(old),
        old.widen(new),
        new.widen(old),
        old.minimized(),
        new.minimized(),
    ];
    let inclusions =
        |r: &Poly| [r.includes_in(old), old.includes_in(r), r.includes_in(new), new.includes_in(r)];
    for r in &results {
        assert_eq!(inclusions(r), inclusions(&uncached(r)), "result:\n{r}");
    }
    (
        results,
        [old.includes_in(new), new.includes_in(old)],
        probes.iter().map(|c| [old.implies(c), new.implies(c)]).collect::<Vec<_>>(),
    )
}

/// A polyhedron whose generator and integer-row caches are filled gives
/// the answers of a copy with empty caches, and so does a clone that
/// shares them: the caches only spare conversions. Random pairs and the
/// shapes above (lines, implicit equalities, constant rows), on both
/// sides of the dimension bound.
#[test]
fn cached_answers_match_a_fresh_copy() {
    let mut r = Rng64::new(0xCAC4E);
    for dim in dims_across_the_bound() {
        for _ in 0..30 {
            let (old, new) = match r.below(3) {
                0 => gen_pair(&mut r, dim, 2 * dim + 2),
                1 => (gen_shape(&mut r, dim), gen_shape(&mut r, dim)),
                _ => {
                    let old = gen_shape(&mut r, dim);
                    let new = old.hull(&gen_poly(&mut r, dim, 2 * dim + 2));
                    (old, new)
                }
            };
            let mut probes: Vec<Constraint> = old.constraints().constraints().to_vec();
            probes.extend(new.constraints().constraints().iter().cloned());
            probes.push(random_row(&mut r, dim, None, Rel::Le));
            probes.push(random_row(&mut r, dim, None, Rel::Eq));
            probes.push(Constraint::nonneg(dim));
            let fresh = cached_ops(&uncached(&old), &uncached(&new), &probes);
            let filling = cached_ops(&old, &new, &probes);
            let ctx = format!("old:\n{old}\nnew:\n{new}");
            assert_eq!(filling, fresh, "{ctx}");
            assert_eq!(cached_ops(&old, &new, &probes), fresh, "filled caches; {ctx}");
            assert_eq!(cached_ops(&old.clone(), &new.clone(), &probes), fresh, "clones; {ctx}");
        }
    }
}

/// Fourier–Motzkin on a system's canonical integer rows equals it on the
/// system, and integer rows renamed by a shift equal the rows of the
/// renamed system (how the fixpoint splices a callee's relation onto its
/// argument-size variables): the same projection or bailout and the same
/// counters, at every tier.
#[test]
fn fm_on_int_rows_matches_fm_on_the_system() {
    use argus_linear::fm::{self, FmTier};
    use argus_linear::IntRow;
    let mut r = Rng64::new(0x1D7);
    for tier in FmTier::ALL {
        for _ in 0..150 {
            let dim = r.range_usize(2, 7);
            let sys = random_system(&mut r, dim, 12);
            let keep: BTreeSet<Var> = (0..dim).filter(|_| r.bool()).collect();
            let cfg = FmConfig { tier, max_rows: 300, deadline: None };
            let by = r.range_usize(0, 4);
            let map: BTreeMap<Var, Var> = (0..dim).map(|v| (v, v + by)).collect();
            let keep_shifted: BTreeSet<Var> = keep.iter().map(|v| v + by).collect();
            let rows = |shift: usize| -> Vec<IntRow> {
                sys.constraints().iter().map(|c| IntRow::of_constraint(c).shifted(shift)).collect()
            };
            for (system, keep, rows) in
                [(sys.clone(), &keep, rows(0)), (sys.rename(&map), &keep_shifted, rows(by))]
            {
                let (mut want, mut got) = (FmStats::default(), FmStats::default());
                let expected = fm::project_onto_with(&system, keep, &cfg, &mut want);
                let projected = fm::project_int_rows_with(rows, keep, &cfg, &mut got);
                let ctx = format!("{tier:?}, keep {keep:?}:\n{system}");
                assert_eq!(projected, expected, "{ctx}");
                assert_eq!(got.counters(), want.counters(), "{ctx}");
            }
        }
    }
}
