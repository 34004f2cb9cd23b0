//! Farkas refutation certificates.
//!
//! By Farkas' lemma, a system of linear constraints is unsatisfiable over
//! ℚ exactly when some nonnegative combination of its inequalities (plus an
//! arbitrary-sign combination of its equalities) reduces to an absurd
//! constant row `c ≤ 0` with `c > 0`. The multipliers of such a combination
//! are the solutions of a second linear system, which [`refute`] hands to
//! the exact simplex ([`crate::simplex`]).
//!
//! This gives the analyzer *refutation* certificates to match its
//! termination certificates: a claimed-infeasible θ system can be
//! re-checked by summing the input rows with the returned multipliers and
//! observing the absurd constant ([`FarkasCertificate::verify`]) — no trust
//! in the solver required.

use crate::expr::{Constraint, ConstraintSystem, LinExpr, Rel, Var};
use crate::rat::Rat;
use crate::simplex;
use std::collections::BTreeSet;

/// A Farkas certificate: multipliers over the input rows whose combination
/// is a contradictory constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarkasCertificate {
    /// `(row index, multiplier)` pairs. Multipliers on `≤` rows are
    /// nonnegative; multipliers on `=` rows may have either sign.
    pub multipliers: Vec<(usize, Rat)>,
}

impl FarkasCertificate {
    /// Re-derive the combined row and check it is an absurd constant:
    /// `Σ λᵢ·exprᵢ` must have no variable terms and a strictly positive
    /// constant (i.e. the combination asserts `positive ≤ 0`), with
    /// `λᵢ ≥ 0` wherever row `i` is an inequality.
    pub fn verify(&self, sys: &ConstraintSystem) -> bool {
        let rows = sys.constraints();
        let mut combined = LinExpr::zero();
        for (idx, lambda) in &self.multipliers {
            let Some(row) = rows.get(*idx) else { return false };
            if row.rel == Rel::Le && lambda.is_negative() {
                return false;
            }
            combined = combined.add_scaled(&row.expr, lambda);
        }
        combined.is_constant() && combined.constant_term().is_positive()
    }
}

/// Search for a Farkas refutation of `sys` by solving the dual system on
/// the exact simplex: one multiplier `λᵢ` per row (`λᵢ ≥ 0` on `≤` rows,
/// free on `=` rows) with
///
/// ```text
/// Σ λᵢ·coeffᵢ(v) = 0   for every variable v,
/// Σ λᵢ·constᵢ    = 1.
/// ```
///
/// Any feasible point is a certificate, and over ℚ one exists exactly when
/// `sys` is unsatisfiable, so `None` means `sys` is satisfiable.
pub fn refute(sys: &ConstraintSystem) -> Option<FarkasCertificate> {
    let rows = sys.constraints();
    let mut dual = ConstraintSystem::new();
    for v in sys.vars() {
        let terms =
            rows.iter().enumerate().filter_map(|(i, r)| Some((i, r.expr.coeff_ref(v)?.clone())));
        dual.push(Constraint { expr: LinExpr::from_terms(terms, Rat::zero()), rel: Rel::Eq });
    }
    let terms = rows.iter().enumerate().map(|(i, r)| (i, r.expr.constant_term().clone()));
    dual.push(Constraint { expr: LinExpr::from_terms(terms, -Rat::one()), rel: Rel::Eq });
    let nonneg: BTreeSet<Var> = (0..rows.len()).filter(|&i| rows[i].rel == Rel::Le).collect();
    let point = simplex::feasible_point(&dual, &nonneg)?;
    let multipliers = point.into_iter().filter(|(_, lambda)| !lambda.is_zero()).collect();
    Some(FarkasCertificate { multipliers })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(e: LinExpr) -> Constraint {
        Constraint { expr: e, rel: Rel::Le }
    }

    fn r(n: i64) -> Rat {
        Rat::from_int(n)
    }

    #[test]
    fn simple_interval_contradiction() {
        // x >= 2  (2 - x <= 0)  and  x <= 1  (x - 1 <= 0).
        let mut sys = ConstraintSystem::new();
        let mut a = LinExpr::constant(r(2));
        a.add_term(0, -Rat::one());
        sys.push(le(a));
        let mut b = LinExpr::var(0);
        b.add_constant(&r(-1));
        sys.push(le(b));
        let cert = refute(&sys).expect("infeasible");
        assert!(cert.verify(&sys), "{cert:?}");
        // The combination is row0 + row1 = 1 <= 0 … wait, 2 - x + x - 1 = 1.
        assert_eq!(cert.multipliers.len(), 2);
    }

    #[test]
    fn equality_contradiction() {
        // x + y = 1  and  x + y = 2.
        let mut sys = ConstraintSystem::new();
        let mut a = LinExpr::var(0);
        a.add_term(1, Rat::one());
        a.add_constant(&r(-1));
        sys.push(Constraint { expr: a, rel: Rel::Eq });
        let mut b = LinExpr::var(0);
        b.add_term(1, Rat::one());
        b.add_constant(&r(-2));
        sys.push(Constraint { expr: b, rel: Rel::Eq });
        let cert = refute(&sys).expect("infeasible");
        assert!(cert.verify(&sys), "{cert:?}");
    }

    #[test]
    fn satisfiable_system_has_no_refutation() {
        let mut sys = ConstraintSystem::new();
        let mut a = LinExpr::var(0);
        a.add_constant(&r(-5));
        sys.push(le(a)); // x <= 5
        sys.push(Constraint::nonneg(0));
        assert!(refute(&sys).is_none());
    }

    #[test]
    fn three_way_cycle_contradiction() {
        // x < y, y < z, z < x  encoded non-strictly with gaps:
        // y - x >= 1, z - y >= 1, x - z >= 1.
        let mut sys = ConstraintSystem::new();
        for (p, q) in [(0, 1), (1, 2), (2, 0)] {
            let mut e = LinExpr::constant(r(1));
            e.add_term(p, Rat::one());
            e.add_term(q, -Rat::one());
            sys.push(le(e)); // 1 + p - q <= 0
        }
        let cert = refute(&sys).expect("infeasible");
        assert!(cert.verify(&sys));
        assert_eq!(cert.multipliers.len(), 3, "sums all three rows");
    }

    #[test]
    fn tampered_certificate_fails_verification() {
        let mut sys = ConstraintSystem::new();
        let mut a = LinExpr::constant(r(2));
        a.add_term(0, -Rat::one());
        sys.push(le(a));
        let mut b = LinExpr::var(0);
        b.add_constant(&r(-1));
        sys.push(le(b));
        let mut cert = refute(&sys).unwrap();
        // Negate a multiplier on a Le row: must be rejected.
        cert.multipliers[0].1 = -cert.multipliers[0].1.clone();
        assert!(!cert.verify(&sys));
        // Out-of-range index: rejected.
        let bad = FarkasCertificate { multipliers: vec![(99, Rat::one())] };
        assert!(!bad.verify(&sys));
        // Empty combination: not a contradiction.
        let empty = FarkasCertificate { multipliers: vec![] };
        assert!(!empty.verify(&sys));
    }

    /// A system whose refutation needs every variable eliminated, with 36
    /// dense rows: Fourier–Motzkin elimination without redundancy control
    /// holds 24 222 rows after two of the four variables. The dual LP has
    /// one row per variable plus one, however many rows the input has.
    #[test]
    fn refutes_dense_system_beyond_elimination_reach() {
        let mut rng = argus_prng::Rng64::new(7);
        let nvars = 4;
        let mut sys = ConstraintSystem::new();
        for _ in 0..36 {
            let mut e = LinExpr::constant(r(rng.range_i64(-5, 5)));
            for v in 0..nvars {
                let sign = if rng.bool() { 1 } else { -1 };
                e.add_term(v, r(sign * rng.range_i64(1, 3)));
            }
            sys.push(le(e));
        }
        // x ≥ 0 for every x, yet x0 + x1 + x2 + x3 ≤ -1.
        let mut sum = LinExpr::constant(Rat::one());
        for v in 0..nvars {
            sys.push(Constraint::nonneg(v));
            sum.add_term(v, Rat::one());
        }
        sys.push(le(sum));
        assert!(crate::simplex::feasible_point(&sys, &BTreeSet::new()).is_none());
        let cert = refute(&sys).expect("infeasible system is refuted");
        assert!(cert.verify(&sys), "{cert:?}");
    }

    #[test]
    fn agrees_with_simplex_on_random_systems() {
        let mut rng = argus_prng::Rng64::new(99);
        let mut refuted = 0;
        for _ in 0..60 {
            let mut sys = ConstraintSystem::new();
            for _ in 0..5 {
                let mut e = LinExpr::constant(r(rng.range_i64(-4, 4)));
                for v in 0..3 {
                    e.add_term(v, r(rng.range_i64(-3, 3)));
                }
                if rng.below(10) < 3 {
                    sys.push(Constraint { expr: e, rel: Rel::Eq });
                } else {
                    sys.push(le(e));
                }
            }
            let sat = crate::simplex::feasible_point(&sys, &BTreeSet::new()).is_some();
            match refute(&sys) {
                Some(cert) => {
                    assert!(!sat, "refuted a satisfiable system:\n{sys}");
                    assert!(cert.verify(&sys), "bad certificate for:\n{sys}");
                    refuted += 1;
                }
                None => {
                    assert!(sat, "failed to refute an infeasible system:\n{sys}");
                }
            }
        }
        assert!(refuted > 3, "sample should contain infeasible systems");
    }
}
