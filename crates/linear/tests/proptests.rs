//! Randomized property tests for the exact-arithmetic substrate.
//!
//! `BigInt`/`Rat` are checked against an `i128` reference model; Fourier–
//! Motzkin and simplex are cross-checked against each other on random
//! systems, since they are independent decision procedures for the same
//! question. Deterministic seeded generation (argus-prng) replaces the
//! former proptest strategies so the suite needs no external crates and
//! every failure reproduces exactly.

use argus_linear::fm::{self, FmResult};
use argus_linear::simplex;
use argus_linear::{BigInt, Constraint, ConstraintSystem, LinExpr, Rat};
use argus_prng::Rng64;
use std::collections::{BTreeMap, BTreeSet};

/// Interesting `i64` values: uniform draws mixed with boundary cases so the
/// small↔large promotion boundary of `BigInt` is crossed constantly.
fn gen_i64(r: &mut Rng64) -> i64 {
    const EDGES: &[i64] = &[
        0,
        1,
        -1,
        2,
        -2,
        i64::MAX,
        i64::MIN,
        i64::MAX - 1,
        i64::MIN + 1,
        i64::MAX / 2,
        i64::MIN / 2,
        1 << 62,
        -(1 << 62),
    ];
    match r.below(4) {
        0 => *r.pick(EDGES),
        1 => r.range_i64(-100, 100),
        _ => r.next_u64() as i64,
    }
}

fn pair(r: &mut Rng64) -> (i128, BigInt) {
    let v = gen_i64(r);
    (v as i128, BigInt::from(v))
}

#[test]
fn bigint_add_sub_mul_match_i128() {
    let mut r = Rng64::new(0xB16);
    for _ in 0..4000 {
        let (a, ba) = pair(&mut r);
        let (b, bb) = pair(&mut r);
        assert_eq!((&ba + &bb).to_i128(), Some(a + b), "{a} + {b}");
        assert_eq!((&ba - &bb).to_i128(), Some(a - b), "{a} - {b}");
        assert_eq!((&ba * &bb).to_i128(), Some(a * b), "{a} * {b}");
    }
}

#[test]
fn bigint_divmod_invariant() {
    let mut r = Rng64::new(0xD1F);
    for _ in 0..4000 {
        let (a, ba) = pair(&mut r);
        let (b, bb) = pair(&mut r);
        if b == 0 {
            continue;
        }
        let (q, rem) = ba.divmod(&bb);
        assert_eq!(&(&q * &bb) + &rem, ba, "{a} divmod {b}");
        assert!(rem.abs() < bb.abs(), "{a} divmod {b}");
        // Truncated semantics: remainder carries the dividend's sign.
        if !rem.is_zero() {
            assert_eq!(rem.is_negative(), a < 0, "{a} divmod {b}");
        }
    }
}

#[test]
fn bigint_string_roundtrip() {
    let mut r = Rng64::new(0x5EED);
    for _ in 0..800 {
        let (_, ba) = pair(&mut r);
        let (_, bb) = pair(&mut r);
        // Multiply to exceed 64 bits regularly.
        let big = &(&ba * &bb) * &bb;
        let s = big.to_string();
        let back: BigInt = s.parse().unwrap();
        assert_eq!(back, big, "{s}");
    }
}

#[test]
fn bigint_gcd_divides_both() {
    let mut r = Rng64::new(0x6CD);
    for _ in 0..2000 {
        let (a, ba) = pair(&mut r);
        let (b, bb) = pair(&mut r);
        let g = ba.gcd(&bb);
        if a != 0 || b != 0 {
            assert!(!g.is_zero());
            assert!((&ba % &g).is_zero(), "gcd({a}, {b}) = {g}");
            assert!((&bb % &g).is_zero(), "gcd({a}, {b}) = {g}");
        } else {
            assert!(g.is_zero());
        }
    }
}

#[test]
fn bigint_ordering_matches_i128() {
    let mut r = Rng64::new(0x0DD);
    for _ in 0..4000 {
        let (a, ba) = pair(&mut r);
        let (b, bb) = pair(&mut r);
        assert_eq!(ba.cmp(&bb), a.cmp(&b), "{a} vs {b}");
    }
}

mod promotion_boundary {
    //! Differential tests for the inline small-integer fast path: the same
    //! value reached through the inline representation and through the limb
    //! representation must be indistinguishable — equal, identically
    //! hashed, identically printed.

    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(b: &BigInt) -> u64 {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    /// Construct the value of `v` by a detour through >64-bit territory,
    /// forcing a promotion and a later demotion.
    fn via_large(v: i64) -> BigInt {
        let big = BigInt::from(i64::MAX);
        &(&BigInt::from(v) + &(&big * &big)) - &(&big * &big)
    }

    #[test]
    fn demoted_values_equal_inline_values() {
        let mut r = Rng64::new(0xB0B);
        for _ in 0..2000 {
            let v = gen_i64(&mut r);
            let inline = BigInt::from(v);
            let demoted = via_large(v);
            assert_eq!(inline, demoted, "{v}");
            assert_eq!(hash_of(&inline), hash_of(&demoted), "{v}");
            assert_eq!(inline.to_string(), demoted.to_string(), "{v}");
            assert_eq!(inline.cmp(&demoted), std::cmp::Ordering::Equal, "{v}");
        }
    }

    #[test]
    fn arithmetic_straddles_the_boundary() {
        // Walk a window across i64::MAX and i64::MIN: every op result is
        // compared against the i128 model while values hop between the
        // inline and limb representations.
        for center in [i64::MAX as i128, i64::MIN as i128, 0, (i64::MAX / 2) as i128] {
            for da in -3i128..=3 {
                for db in -3i128..=3 {
                    let a = center + da;
                    let b = center + db;
                    let (ba, bb) = (BigInt::from(a), BigInt::from(b));
                    assert_eq!((&ba + &bb).to_i128(), Some(a + b));
                    assert_eq!((&ba - &bb).to_i128(), Some(a - b));
                    assert_eq!((&ba * &bb).to_i128(), Some(a * b));
                    assert_eq!(ba.cmp(&bb), a.cmp(&b));
                    if b != 0 {
                        let (q, rem) = ba.divmod(&bb);
                        assert_eq!(&(&q * &bb) + &rem, ba);
                    }
                    let g = ba.gcd(&bb);
                    if a != 0 || b != 0 {
                        assert!((&ba % &g).is_zero() && (&bb % &g).is_zero());
                    }
                }
            }
        }
    }

    #[test]
    fn negation_at_the_extremes() {
        let min = BigInt::from(i64::MIN);
        let negated = -&min;
        assert_eq!(negated.to_i128(), Some(-(i64::MIN as i128)));
        assert_eq!(-&negated, min);
        assert_eq!(min.abs(), negated);
        assert_eq!(negated.to_string(), "9223372036854775808");
    }

    #[test]
    fn rat_normalization_across_boundary() {
        // Numerator/denominator pairs around the boundary must still
        // produce canonical (coprime, positive-denominator) rationals that
        // compare and hash structurally.
        let mut r = Rng64::new(0xF00D);
        for _ in 0..500 {
            let n = gen_i64(&mut r);
            let d = gen_i64(&mut r);
            if d == 0 {
                continue;
            }
            let a = Rat::new(BigInt::from(n), BigInt::from(d));
            // Build the same value with both parts scaled by a constant:
            // normalization must converge to the identical representation.
            let k = BigInt::from(3);
            let b = Rat::new(&BigInt::from(n) * &k, &BigInt::from(d) * &k);
            assert_eq!(a, b, "{n}/{d}");
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            assert_eq!(ha.finish(), hb.finish(), "{n}/{d}");
        }
    }
}

fn gen_rat(r: &mut Rng64) -> Rat {
    let n = r.range_i64(-1000, 999);
    let d = r.range_i64(1, 59);
    Rat::new(n.into(), d.into())
}

#[test]
fn rat_field_laws() {
    let mut r = Rng64::new(0xFE1D);
    for _ in 0..1500 {
        let a = gen_rat(&mut r);
        let b = gen_rat(&mut r);
        let c = gen_rat(&mut r);
        // Associativity and commutativity of + and *.
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        assert_eq!(&a + &b, &b + &a);
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        assert_eq!(&a * &b, &b * &a);
        // Distributivity.
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        // Additive inverse.
        assert!((&a + &(-&a)).is_zero());
    }
}

#[test]
fn rat_recip_is_inverse() {
    let mut r = Rng64::new(0x1E1);
    for _ in 0..1500 {
        let a = gen_rat(&mut r);
        if a.is_zero() {
            continue;
        }
        assert_eq!(&a * &a.recip(), Rat::one());
    }
}

#[test]
fn rat_order_total_and_compatible() {
    let mut r = Rng64::new(0x03D);
    for _ in 0..1500 {
        let a = gen_rat(&mut r);
        let b = gen_rat(&mut r);
        let c = gen_rat(&mut r);
        // Order respects addition.
        if a <= b {
            assert!(&a + &c <= &b + &c);
        }
        // floor/ceil bracket the value.
        let fl = Rat::from(a.floor());
        let ce = Rat::from(a.ceil());
        assert!(fl <= a && a <= ce);
        assert!(&ce - &fl <= Rat::one());
    }
}

/// A small random constraint system over `nvars` variables with small
/// integer coefficients; mixes Le and Eq rows.
fn gen_system(r: &mut Rng64, nvars: usize, max_rows: usize) -> ConstraintSystem {
    let nrows = r.range_usize(1, max_rows);
    let mut sys = ConstraintSystem::new();
    for _ in 0..nrows {
        let mut e = LinExpr::constant(Rat::from_int(r.range_i64(-8, 8)));
        for v in 0..nvars {
            e.add_term(v, Rat::from_int(r.range_i64(-3, 3)));
        }
        let rel = if r.bool() { argus_linear::Rel::Eq } else { argus_linear::Rel::Le };
        sys.push(Constraint { expr: e, rel });
    }
    sys
}

/// FM and simplex must agree on satisfiability of random systems
/// (variables unrestricted in sign for both).
#[test]
fn fm_and_simplex_agree() {
    let mut r = Rng64::new(0xA6EE);
    for _ in 0..64 {
        let sys = gen_system(&mut r, 3, 5);
        let fm_sat = fm::is_satisfiable_fm(&sys);
        let sx_sat = simplex::feasible_point(&sys, &BTreeSet::new()).is_some();
        assert_eq!(fm_sat, sx_sat, "system:\n{sys}");
    }
}

/// Any witness point found by simplex satisfies the system.
#[test]
fn simplex_witness_is_valid() {
    let mut r = Rng64::new(0x317);
    for _ in 0..64 {
        let sys = gen_system(&mut r, 3, 5);
        if let Some(pt) = simplex::feasible_point(&sys, &BTreeSet::new()) {
            assert!(sys.holds_at(&pt), "bad witness for:\n{sys}");
        }
    }
}

/// FM projection is sound: projecting a satisfying point stays satisfying.
#[test]
fn fm_projection_preserves_points() {
    let mut r = Rng64::new(0x50);
    for _ in 0..64 {
        let sys = gen_system(&mut r, 3, 5);
        if let Some(pt) = simplex::feasible_point(&sys, &BTreeSet::new()) {
            let keep: BTreeSet<usize> = sys.vars().into_iter().filter(|&v| v != 0).collect();
            match fm::project_onto(&sys, &keep) {
                FmResult::Infeasible => panic!("witness exists yet FM says infeasible:\n{sys}"),
                FmResult::Projected(projected) => {
                    let mut reduced: BTreeMap<usize, Rat> = pt.clone();
                    reduced.remove(&0);
                    assert!(projected.holds_at(&reduced));
                }
            }
        }
    }
}

/// FM projection is complete: any point of the projection extends to a
/// point of the original (checked by substituting the projected point and
/// asking simplex for the eliminated variable).
#[test]
fn fm_projection_points_extend() {
    let mut r = Rng64::new(0xC0);
    for _ in 0..64 {
        let sys = gen_system(&mut r, 3, 4);
        let keep: BTreeSet<usize> = sys.vars().into_iter().filter(|&v| v != 0).collect();
        if let FmResult::Projected(projected) = fm::project_onto(&sys, &keep) {
            if let Some(ppt) = simplex::feasible_point(&projected, &BTreeSet::new()) {
                // Substitute the projected values into the original system.
                let mut narrowed = sys.clone();
                for (v, val) in &ppt {
                    narrowed = narrowed.substitute(*v, &LinExpr::constant(val.clone()));
                }
                let extended = simplex::feasible_point(&narrowed, &BTreeSet::new());
                assert!(extended.is_some(), "projected point does not extend; system:\n{sys}");
            }
        }
    }
}

/// dedup and canonicalization preserve the solution set.
#[test]
fn dedup_preserves_semantics() {
    let mut r = Rng64::new(0xDED);
    for _ in 0..64 {
        let sys = gen_system(&mut r, 3, 5);
        let d = sys.dedup();
        // Same satisfiability...
        assert_eq!(
            simplex::feasible_point(&sys, &BTreeSet::new()).is_some(),
            simplex::feasible_point(&d, &BTreeSet::new()).is_some()
        );
        // ...and any witness of either satisfies the other.
        if let Some(pt) = simplex::feasible_point(&sys, &BTreeSet::new()) {
            assert!(d.holds_at(&pt));
        }
        if let Some(pt) = simplex::feasible_point(&d, &BTreeSet::new()) {
            assert!(sys.holds_at(&pt));
        }
    }
}

/// The LP minimum really is a lower bound over random feasible samples.
#[test]
fn lp_minimum_is_lower_bound() {
    let mut r = Rng64::new(0x10);
    for _ in 0..64 {
        let sys = gen_system(&mut r, 3, 4);
        let nonneg: BTreeSet<usize> = (0..3).collect();
        let mut obj = LinExpr::zero();
        for v in 0..3 {
            obj.add_term(v, Rat::from_int(r.range_i64(-3, 3)));
        }
        let p = argus_linear::LpProblem {
            objective: obj.clone(),
            constraints: sys.clone(),
            nonneg: nonneg.clone(),
        };
        if let argus_linear::LpOutcome::Optimal { value, point } = p.solve() {
            assert!(sys.holds_at(&point));
            assert_eq!(obj.eval(&point), value.clone());
            // Any feasible point scores no better.
            if let Some(other) = simplex::feasible_point(&sys, &nonneg) {
                assert!(obj.eval(&other) >= value);
            }
        }
    }
}

mod fm_tier_props {
    //! Every redundancy tier must compute the *same projection* — tiers
    //! only remove redundant rows, never change the feasible set. Checked
    //! two ways: simplex witnesses of the input project into every tier's
    //! output (soundness per tier), and each tier's output is mutually
    //! implied with the tier-0 output (same polyhedron).

    use super::*;
    use argus_linear::fm::{FmConfig, FmStats, FmTier};

    /// Project `sys` onto `keep` at `tier`; `None` means FM derived
    /// infeasibility.
    fn project_at(
        sys: &ConstraintSystem,
        keep: &BTreeSet<usize>,
        tier: FmTier,
    ) -> Option<ConstraintSystem> {
        let mut stats = FmStats::default();
        let cfg = FmConfig::tiered(tier);
        match fm::project_onto_with(sys, keep, &cfg, &mut stats).expect("uncapped") {
            FmResult::Projected(p) => Some(p),
            FmResult::Infeasible => None,
        }
    }

    /// `a ⊆ b` as polyhedra: every row of `b` is implied by `a`.
    fn included(a: &ConstraintSystem, b: &ConstraintSystem) -> bool {
        b.constraints().iter().all(|c| simplex::is_implied(a, &BTreeSet::new(), c))
    }

    #[test]
    fn every_tier_preserves_the_feasible_set() {
        let mut r = Rng64::new(0x71E5);
        let keep: BTreeSet<usize> = [0, 1].into_iter().collect();
        for _ in 0..48 {
            let sys = gen_system(&mut r, 3, 5);
            let input_sat = simplex::feasible_point(&sys, &BTreeSet::new()).is_some();
            let tier0 = project_at(&sys, &keep, FmTier::Dedup);
            for tier in FmTier::ALL {
                let out = project_at(&sys, &keep, tier);
                // Whether surfaced as `Infeasible` or as an unsatisfiable
                // projected system, the output's satisfiability must match
                // the input's at every tier.
                let out_sat = match &out {
                    None => false,
                    Some(p) => simplex::feasible_point(p, &BTreeSet::new()).is_some(),
                };
                assert_eq!(out_sat, input_sat, "tier {tier:?} on:\n{sys}");
                // Same polyhedron as tier 0 (when both give systems).
                if let (Some(a), Some(b)) = (&tier0, &out) {
                    assert!(
                        included(a, b) && included(b, a),
                        "tier {tier:?} changed the projection of:\n{sys}"
                    );
                }
            }
        }
    }

    #[test]
    fn witnesses_project_into_every_tier() {
        let mut r = Rng64::new(0x71E6);
        let keep: BTreeSet<usize> = [0, 1].into_iter().collect();
        for _ in 0..48 {
            let sys = gen_system(&mut r, 3, 5);
            let Some(pt) = simplex::feasible_point(&sys, &BTreeSet::new()) else { continue };
            let mut projected_pt = pt.clone();
            projected_pt.retain(|v, _| keep.contains(v));
            for tier in FmTier::ALL {
                match project_at(&sys, &keep, tier) {
                    None => panic!("witness exists yet tier {tier:?} says infeasible:\n{sys}"),
                    Some(p) => assert!(
                        p.holds_at(&projected_pt),
                        "tier {tier:?} output excludes a projected witness of:\n{sys}"
                    ),
                }
            }
        }
    }

    #[test]
    fn stats_drops_account_for_row_reduction() {
        // rows_in − rows_out of any round equals the recorded drops for it;
        // summed over rounds the identity must survive every tier.
        let mut r = Rng64::new(0x71E7);
        let keep: BTreeSet<usize> = [0].into_iter().collect();
        for _ in 0..32 {
            let sys = gen_system(&mut r, 3, 5);
            for tier in FmTier::ALL {
                let mut stats = FmStats::default();
                let cfg = FmConfig::tiered(tier);
                let _ = fm::project_onto_with(&sys, &keep, &cfg, &mut stats);
                assert!(
                    stats.rows_out <= stats.rows_in + stats.pairs_combined,
                    "tier {tier:?}: impossible growth on:\n{sys}"
                );
            }
        }
    }
}

mod poly_props {
    use super::*;
    use argus_linear::Poly;

    fn gen_poly(r: &mut Rng64, dim: usize) -> Poly {
        Poly::from_constraints(dim, gen_system(r, dim, 4))
    }

    #[test]
    fn hull_contains_both() {
        let mut r = Rng64::new(0x11);
        for _ in 0..24 {
            let a = gen_poly(&mut r, 2);
            let b = gen_poly(&mut r, 2);
            let h = a.hull(&b);
            assert!(a.includes_in(&h));
            assert!(b.includes_in(&h));
        }
    }

    #[test]
    fn widen_is_upper_bound() {
        let mut r = Rng64::new(0x13);
        for _ in 0..24 {
            let a = gen_poly(&mut r, 2);
            let b = gen_poly(&mut r, 2);
            // Widening of a by (a ⊔ b) must contain both.
            let j = a.hull(&b);
            let w = a.widen(&j);
            assert!(j.includes_in(&w));
        }
    }

    #[test]
    fn minimized_same_set() {
        let mut r = Rng64::new(0x14);
        for _ in 0..24 {
            let a = gen_poly(&mut r, 2);
            assert!(a.minimized().same_set(&a));
        }
    }

    #[test]
    fn sample_point_is_member() {
        let mut r = Rng64::new(0x15);
        for _ in 0..24 {
            let a = gen_poly(&mut r, 2);
            if let Some(pt) = a.sample_point() {
                assert!(a.contains_point(&pt));
            } else {
                assert!(a.is_empty());
            }
        }
    }
}
