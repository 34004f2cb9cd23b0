//! The LP-duality step (paper §4).
//!
//! For one rule × recursive-subgoal pair with Eq. (1) data
//! `x = a + Aα, y = b + Bα, 0 = c + Cα, x,y,α ≥ 0`, the paper asks for
//! `θ ≥ 0, β ≥ 0` such that every feasible point satisfies
//! `θᵀx ≥ βᵀy + δᵢⱼ`. Writing the check as the LP *minimize θᵀx − βᵀy*
//! and dualizing, the key observation is that `θ` and `β` appear linearly
//! in the dual constraints, so they can be promoted to variables. Because
//! `a, A, b, B ≥ 0`, the dual variables `u, v` are eliminated in closed
//! form (`u = θ`, `v = −β`), leaving the paper's Eq. (9):
//!
//! ```text
//! Cᵀw + Aᵀθ − Bᵀβ ≥ 0          (one row per α variable)
//! cᵀw + aᵀθ − bᵀβ ≥ δᵢⱼ        (the value row)
//! θ ≥ 0, β ≥ 0, w free
//! ```
//!
//! [`eq9_system`] builds exactly this; [`project_pair_with`] then eliminates
//! the undistinguished `w` by Fourier–Motzkin, leaving constraints over the
//! distinguished θ/β variables only — the form the per-SCC feasibility test
//! consumes.

use crate::pairs::{ProjectionCache, ProjectionEntry, ProjectionKey, RuleSubgoalSystem};
use crate::theta::ThetaSpace;
use argus_linear::fm::{self, FmConfig, FmResult, FmStats, FmTier};
use argus_linear::{simplex, Constraint, ConstraintSystem, IntRow, LinExpr, Rat, Rel, Var};
use std::collections::{BTreeMap, BTreeSet};

/// How the `δᵢⱼ` decrement enters the value row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaTerm {
    /// A fixed rational constant (Section 6.1 operation).
    Constant(i64),
    /// A symbolic variable (Appendix C operation), by LP variable id.
    Variable(Var),
}

/// Build the Eq. (9) system for `pair`. Variables: `w` gets fresh indices
/// from `w_base` (they are free/unrestricted); θ and β indices come from
/// `space`. Returns the system and the list of `w` variable ids used.
pub fn eq9_system(
    pair: &RuleSubgoalSystem,
    space: &ThetaSpace,
    w_base: Var,
    delta: DeltaTerm,
) -> (ConstraintSystem, Vec<Var>) {
    let theta = space.vars(&pair.head_pred);
    let beta = space.vars(&pair.sub_pred);
    assert_eq!(theta.len(), pair.x_rows.len(), "theta arity mismatch");
    assert_eq!(beta.len(), pair.y_rows.len(), "beta arity mismatch");

    let w_vars: Vec<Var> = (0..pair.c_rows.len()).map(|k| w_base + k).collect();
    let mut sys = ConstraintSystem::new();

    // One row per α variable t: Σ_k C[k][t]·w_k + Σ_i A[i][t]·θ_i
    //                           − Σ_j B[j][t]·β_j ≥ 0.
    for t in 0..pair.alpha_count {
        let mut row = LinExpr::zero();
        for (k, c_row) in pair.c_rows.iter().enumerate() {
            let coeff = c_row.coeff(t);
            if !coeff.is_zero() {
                row.add_term(w_vars[k], coeff);
            }
        }
        for (i, x_row) in pair.x_rows.iter().enumerate() {
            let coeff = x_row.coeff(t);
            if !coeff.is_zero() {
                row.add_term(theta[i], coeff);
            }
        }
        for (j, y_row) in pair.y_rows.iter().enumerate() {
            let coeff = y_row.coeff(t);
            if !coeff.is_zero() {
                row.add_term(beta[j], -coeff);
            }
        }
        if row.is_zero() {
            continue; // the paper's all-zero rows (e.g. variable L in Ex. 4.1)
        }
        // row ≥ 0  ⇔  -row ≤ 0.
        sys.push(Constraint { expr: -row, rel: Rel::Le });
    }

    // Value row: cᵀw + aᵀθ − bᵀβ ≥ δ.
    let mut value = LinExpr::zero();
    for (k, c_row) in pair.c_rows.iter().enumerate() {
        let cst = c_row.constant_term().clone();
        if !cst.is_zero() {
            value.add_term(w_vars[k], cst);
        }
    }
    for (i, x_row) in pair.x_rows.iter().enumerate() {
        let cst = x_row.constant_term().clone();
        if !cst.is_zero() {
            value.add_term(theta[i], cst);
        }
    }
    for (j, y_row) in pair.y_rows.iter().enumerate() {
        let cst = y_row.constant_term().clone();
        if !cst.is_zero() {
            value.add_term(beta[j], -cst);
        }
    }
    match delta {
        DeltaTerm::Constant(d) => {
            // value ≥ d  ⇔  d − value ≤ 0.
            let mut e = -value;
            e.add_constant(&Rat::from_int(d));
            sys.push(Constraint { expr: e, rel: Rel::Le });
        }
        DeltaTerm::Variable(dv) => {
            // value ≥ δ  ⇔  δ − value ≤ 0.
            let mut e = -value;
            e.add_term(dv, Rat::one());
            sys.push(Constraint { expr: e, rel: Rel::Le });
        }
    }

    (sys, w_vars)
}

/// FM configuration for the dual-projection path: the requested redundancy
/// tier under the path's historical 2000-row cap.
pub fn dual_fm_config(tier: FmTier) -> FmConfig {
    FmConfig { tier, max_rows: 2000, ..FmConfig::default() }
}

/// Build the Eq. (9) system of every `(pair, δ)` in order; the pairs' `w`
/// duals get consecutive ids from `w_base` on.
pub(crate) fn eq9_systems<'a>(
    pairs: impl IntoIterator<Item = (&'a RuleSubgoalSystem, DeltaTerm)>,
    space: &ThetaSpace,
    mut w_base: Var,
) -> Vec<(ConstraintSystem, Vec<Var>)> {
    pairs
        .into_iter()
        .map(|(pair, delta)| {
            let (sys, w) = eq9_system(pair, space, w_base, delta);
            w_base += w.len();
            (sys, w)
        })
        .collect()
}

/// Eliminate the `w` variables of a pair's Eq. (9) system by Fourier–
/// Motzkin under `cfg`, leaving constraints over θ/β (and a δ variable, if
/// symbolic), with the projection looked up in and published to `cache`
/// and its FM counters accumulated into `stats`. Returns `None` if
/// elimination discovers the system is unsatisfiable for *every* θ (which
/// would mean this pair admits no linear decrease at all), or gives up
/// under the row cap or the deadline.
///
/// The projection is computed in *canonically renamed* space (the system's
/// variables mapped monotonically to `0..k`) and renamed back. The rename
/// is order-preserving, so the result is identical to projecting directly —
/// but structurally identical pair systems that differ only in variable
/// numbering share one cache entry, and a hit cannot change any output
/// byte.
///
/// The output is normalized so every tier produces the same bytes: an
/// infeasible projection returns `None` at every tier (tier 0 surfaces the
/// contradiction as a derived constant row, higher tiers may not), and
/// surviving rows pass through a greedy LP minimization that removes every
/// implied row, converging to the polyhedron's irredundant description.
pub fn project_pair_with(
    sys: &ConstraintSystem,
    w_vars: &[Var],
    cfg: &FmConfig,
    cache: &ProjectionCache,
    stats: &mut FmStats,
) -> Option<ConstraintSystem> {
    // Monotone rename: sorted distinct variables → 0..k.
    let mut all_vars: BTreeSet<Var> = sys.vars();
    all_vars.extend(w_vars.iter().copied());
    let fwd: BTreeMap<Var, Var> = all_vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let back: BTreeMap<Var, Var> = fwd.iter().map(|(&v, &i)| (i, v)).collect();
    let renamed = ConstraintSystem::from_constraints(
        sys.constraints().iter().map(|c| c.rename(&fwd)).collect(),
    );
    let eliminate: Vec<Var> = w_vars
        .iter()
        .filter_map(|v| fwd.get(v))
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let compute = || -> (ProjectionEntry, bool) {
        let keep: BTreeSet<Var> =
            renamed.vars().into_iter().filter(|v| !eliminate.contains(v)).collect();
        let mut st = FmStats::default();
        let mut timed_out = false;
        let result = match fm::project_onto_with(&renamed, &keep, cfg, &mut st) {
            Err(blowup) => {
                // Blowup: treat as "no linear decrease found". A deadline
                // bailout is remembered so the entry stays out of the cache.
                timed_out = blowup.timed_out;
                None
            }
            Ok(FmResult::Infeasible) => None,
            // Higher tiers can drop the redundant rows whose combination
            // would have exposed a contradiction as a constant row; the
            // feasibility check in `minimize_rows` restores one verdict
            // for every tier.
            Ok(FmResult::Projected(out)) => minimize_rows(&out.dedup()),
        };
        (ProjectionEntry { result, stats: st }, timed_out)
    };

    let key = ProjectionKey {
        rows: renamed.constraints().iter().map(IntRow::of_constraint).collect(),
        eliminate: eliminate.clone(),
        tier: cfg.tier.index() as u8,
        max_rows: cfg.max_rows,
    };
    let entry = match cache.get(&key) {
        Some(entry) => entry,
        None => {
            let (entry, timed_out) = compute();
            if timed_out {
                // A deadline abort is a property of this run's wall clock,
                // not of the key: publishing it would poison every later
                // lookup of the key in the same cache.
                entry
            } else {
                cache.publish(key, entry)
            }
        }
    };
    stats.merge(&entry.stats);
    entry.result.map(|out| {
        ConstraintSystem::from_constraints(
            out.constraints().iter().map(|c| c.rename(&back)).collect(),
        )
    })
}

/// Greedily remove every row implied by the remaining ones (variables all
/// free: the `θ ≥ 0` rows are added downstream and must not silently
/// strengthen the displayed system); `None` when the system is infeasible.
/// A single ascending pass over the canonically ordered rows
/// ([`simplex::irredundant`]) leaves an irredundant description, which for
/// the full-dimensional systems this path produces is unique — the final
/// normalization step that makes every redundancy tier emit identical
/// bytes.
fn minimize_rows(sys: &ConstraintSystem) -> Option<ConstraintSystem> {
    simplex::irredundant(sys, &mut simplex::LpStats::default()).map(|s| s.dedup())
}

/// The θ-feasibility problem for a whole SCC: the conjunction of all pairs'
/// projected systems, over θ variables that range over `θ ≥ 0`
/// ([`theta_point`] solves it, [`refutation_system`] states it whole).
pub fn feasibility_system(projected: &[ConstraintSystem]) -> ConstraintSystem {
    let mut sys = ConstraintSystem::new();
    for p in projected {
        sys.extend(p);
    }
    sys.dedup()
}

/// A point of the θ system `sys` with every θ variable of `space`
/// nonnegative, if there is one.
pub fn theta_point(sys: &ConstraintSystem, space: &ThetaSpace) -> Option<BTreeMap<Var, Rat>> {
    simplex::feasible_point(sys, &space.all_vars().collect())
}

/// The θ system `sys` with its `θ ≥ 0` rows appended, one per variable of
/// `space` in [`ThetaSpace::all_vars`] order: the system a Farkas
/// refutation of an infeasible θ search is computed and verified against.
/// A certificate names rows by index, so both sides build it here.
pub fn refutation_system(sys: &ConstraintSystem, space: &ThetaSpace) -> ConstraintSystem {
    let mut out = sys.clone();
    for v in space.all_vars() {
        out.push(Constraint::nonneg(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::build_pair;
    use crate::theta::ThetaSpace;
    use argus_logic::modes::{infer_modes, Adornment};
    use argus_logic::parser::parse_program;
    use argus_logic::PredKey;
    use argus_sizerel::{infer_size_relations, InferOptions};

    /// Project one pair under the dual path's default configuration.
    fn project_pair(sys: &ConstraintSystem, w: &[Var]) -> Option<ConstraintSystem> {
        let cfg = dual_fm_config(FmTier::default());
        project_pair_with(sys, w, &cfg, &ProjectionCache::new(), &mut FmStats::default())
    }

    /// Reproduce the paper's Example 4.1 end to end: the perm pair reduces
    /// (after identifying θ = β and δ = 1) to `2θ ≥ 1`.
    #[test]
    fn example_4_1_reduction() {
        let program = parse_program(
            "perm([], []).\n\
             perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).\n\
             append([], Ys, Ys).\n\
             append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
        )
        .unwrap();
        let root = PredKey::new("perm", 2);
        let modes = infer_modes(&program, &root, Adornment::parse("bf").unwrap());
        let rels = infer_size_relations(&program, &InferOptions::default());
        let pair = build_pair(&program.rules[1], 1, 2, &modes, &rels);

        let mut space = ThetaSpace::new();
        space.add_pred(&root, 1); // one bound argument
        let (sys, w) = eq9_system(&pair, &space, space.len(), DeltaTerm::Constant(1));
        assert_eq!(w.len(), 2, "two c rows => two w duals");
        let reduced = project_pair(&sys, &w).expect("projection succeeds");

        // Head pred == subgoal pred, so theta and beta are the same var.
        // The reduced system must be satisfiable with theta = 1/2 and
        // unsatisfiable with theta = 1/4 (since 2θ ≥ 1 is required).
        let theta = space.vars(&root)[0];
        let at = |v: i64, d: i64| {
            let mut pt = std::collections::BTreeMap::new();
            pt.insert(theta, Rat::new(v.into(), d.into()));
            pt
        };
        assert!(reduced.holds_at(&at(1, 2)), "theta = 1/2 must satisfy:\n{reduced}");
        assert!(reduced.holds_at(&at(1, 1)), "theta = 1 must satisfy");
        assert!(!reduced.holds_at(&at(1, 4)), "theta = 1/4 must violate 2θ ≥ 1:\n{reduced}");
        assert!(!reduced.holds_at(&at(0, 1)), "theta = 0 must violate");
    }

    /// Example 5.1: both recursive merge rules reduce to constraints whose
    /// combined solution set is θ₁ = θ₂ ≥ 1/2.
    #[test]
    fn example_5_1_reduction() {
        let program = parse_program(
            "merge([], Ys, Ys).\n\
             merge(Xs, [], Xs).\n\
             merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).\n\
             merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).",
        )
        .unwrap();
        let root = PredKey::new("merge", 3);
        let modes = infer_modes(&program, &root, Adornment::parse("bbf").unwrap());
        let rels = infer_size_relations(&program, &InferOptions::default());

        let mut space = ThetaSpace::new();
        space.add_pred(&root, 2); // two bound arguments
        let mut systems = Vec::new();
        for (ri, si) in [(2usize, 1usize), (3, 1)] {
            let pair = build_pair(&program.rules[ri], ri, si, &modes, &rels);
            let (sys, w) = eq9_system(&pair, &space, space.len(), DeltaTerm::Constant(1));
            assert!(w.is_empty(), "no c rows in merge");
            systems.push(project_pair(&sys, &w).unwrap());
        }
        let all = feasibility_system(&systems);
        let t = space.vars(&root);
        let at = |a: Rat, b: Rat| {
            let mut pt = std::collections::BTreeMap::new();
            pt.insert(t[0], a);
            pt.insert(t[1], b);
            pt
        };
        let half = Rat::new(1.into(), 2.into());
        // θ1 = θ2 = 1/2 works (the paper's solution).
        assert!(all.holds_at(&at(half.clone(), half.clone())), "{all}");
        // Unequal thetas violate θ1 = θ2.
        assert!(!all.holds_at(&at(Rat::one(), half.clone())));
        // Too-small equal thetas violate 2θ ≥ 1 … i.e. θ1 + θ2 ≥ 1.
        let quarter = Rat::new(1.into(), 4.into());
        assert!(!all.holds_at(&at(quarter.clone(), quarter)));
    }

    #[test]
    fn zero_rows_are_dropped() {
        // A pair whose alpha variable appears nowhere yields no row for it.
        let program = parse_program("p([_|Xs], Y) :- p(Xs, Y).").unwrap();
        let root = PredKey::new("p", 2);
        let modes = infer_modes(&program, &root, Adornment::parse("bf").unwrap());
        let rels = infer_size_relations(&program, &InferOptions::default());
        let pair = build_pair(&program.rules[0], 0, 0, &modes, &rels);
        let mut space = ThetaSpace::new();
        space.add_pred(&root, 1);
        let (sys, w) = eq9_system(&pair, &space, space.len(), DeltaTerm::Constant(1));
        let reduced = project_pair(&sys, &w).unwrap();
        // x = 2 + A + Xs, y = Xs: rows A: θ ≥ 0 (dropped? no: θ ≥ 0 is a
        // real row), Xs: θ − β ≥ 0, value: 2θ ≥ 1. Satisfiable at 1/2.
        let theta = space.vars(&root)[0];
        let mut pt = std::collections::BTreeMap::new();
        pt.insert(theta, Rat::new(1.into(), 2.into()));
        assert!(reduced.holds_at(&pt), "{reduced}");
    }
}
