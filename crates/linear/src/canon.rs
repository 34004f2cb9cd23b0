//! Canonical integer constraint rows.
//!
//! Fourier–Motzkin spends its time combining rows and comparing the
//! results. [`Constraint`] stores exact rationals, so every combination
//! pays for gcd-normalizing numerator/denominator pairs, and two
//! semantically equal rows can differ syntactically (scaled copies). This
//! module fixes both: an [`IntRow`] is a row scaled to primitive-integer
//! coefficients (LCM of the denominators), divided by the content GCD
//! (taken over the coefficients *and* the constant, so the row stays
//! integral), with equalities sign-fixed on the leading coefficient. The
//! form is exactly [`Constraint::canonicalized`], so structurally equal
//! rows are `==`/hash-equal for free and FM combination runs on integers.
//!
//! [`dedup`] is the one deduplication rule for systems of such rows: FM
//! applies it to every projection's output, `Poly` to the rows it builds,
//! and [`crate::ConstraintSystem::dedup`] through a conversion.

use crate::bigint::BigInt;
use crate::expr::{Constraint, LinExpr, Rel, Var};
use crate::rat::Rat;

#[cfg(test)]
thread_local! {
    /// Unit-test instrumentation: counts [`IntRow::of_constraint`] calls,
    /// so the tests can pin that the integer-row paths convert nothing.
    pub(crate) static OF_CONSTRAINT_CALLS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// A linear row `Σ coeffs·v + constant REL 0` in canonical integer form:
/// coefficients sorted by variable, none zero, content gcd 1 (including
/// the constant), and for equalities a nonnegative leading coefficient.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntRow {
    /// Sorted `(variable, coefficient)` pairs; no zero coefficients.
    pub coeffs: Vec<(Var, BigInt)>,
    /// The constant term.
    pub constant: BigInt,
    /// `≤ 0` or `= 0`.
    pub rel: Rel,
}

impl IntRow {
    /// Convert a [`Constraint`] to canonical integer form. The result
    /// round-trips through [`IntRow::to_constraint`] to exactly
    /// [`Constraint::canonicalized`].
    pub fn of_constraint(c: &Constraint) -> IntRow {
        #[cfg(test)]
        OF_CONSTRAINT_CALLS.with(|n| n.set(n.get() + 1));
        // Common denominator over coefficients and the constant.
        let mut lcm = c.expr.constant_term().denom().clone();
        for (_, k) in c.expr.terms() {
            lcm = lcm.lcm(k.denom());
        }
        let scale = |r: &Rat| -> BigInt { r.numer() * &(&lcm / r.denom()) };
        let mut coeffs: Vec<(Var, BigInt)> = c.expr.terms().map(|(v, k)| (v, scale(k))).collect();
        let mut constant = scale(c.expr.constant_term());
        if coeffs.is_empty() {
            // Pure constant row: only the sign matters (and survives the
            // trivial-truth check), matching `normalized_direction`.
            constant = sign_unit(&constant);
            return IntRow { coeffs, constant, rel: c.rel }.sign_fixed();
        }
        let mut g = constant.abs();
        for (_, k) in &coeffs {
            g = g.gcd(k);
        }
        if !g.is_zero() && !g.is_one() {
            for (_, k) in coeffs.iter_mut() {
                *k = &*k / &g;
            }
            constant = &constant / &g;
        }
        (IntRow { coeffs, constant, rel: c.rel }).sign_fixed()
    }

    /// Convert back. Produces exactly the [`Constraint::canonicalized`]
    /// form of the row this was built from.
    pub fn to_constraint(&self) -> Constraint {
        let expr = LinExpr::from_terms(
            self.coeffs.iter().map(|(v, k)| (*v, Rat::from(k.clone()))),
            Rat::from(self.constant.clone()),
        );
        Constraint { expr, rel: self.rel }
    }

    /// Is the row in the canonical form [`IntRow::of_constraint`]
    /// produces: coefficients strictly sorted by variable and none zero,
    /// content gcd 1 (a constant row's constant in {−1, 0, 1}), and for an
    /// equality a nonnegative leading coefficient (or constant)? For rows
    /// read back from outside, such as a memo file.
    pub fn is_canonical(&self) -> bool {
        let sorted = self.coeffs.windows(2).all(|w| w[0].0 < w[1].0);
        let content_one = if self.coeffs.is_empty() {
            sign_unit(&self.constant) == self.constant
        } else {
            self.coeffs
                .iter()
                .try_fold(self.constant.abs(), |g, (_, k)| (!k.is_zero()).then(|| g.gcd(k)))
                .is_some_and(|g| g.is_one())
        };
        let lead = self.coeffs.first().map_or(&self.constant, |(_, k)| k);
        let sign_ok = self.rel == Rel::Le || !lead.is_negative();
        sorted && content_one && sign_ok
    }

    /// `v ≥ 0`, that is `−v ≤ 0`.
    pub fn nonneg(v: Var) -> IntRow {
        IntRow { coeffs: vec![(v, BigInt::neg_one())], constant: BigInt::zero(), rel: Rel::Le }
    }

    /// The row with every variable `v` renamed to `v + by`. The renaming
    /// keeps the variables' order, so the result is the canonical form of
    /// the renamed row: `of_constraint(c).shifted(by)` equals
    /// `of_constraint` of `c` renamed.
    pub fn shifted(&self, by: Var) -> IntRow {
        IntRow {
            coeffs: self.coeffs.iter().map(|(v, k)| (v + by, k.clone())).collect(),
            constant: self.constant.clone(),
            rel: self.rel,
        }
    }

    /// The coefficient of `v`, if present.
    pub fn coeff(&self, v: Var) -> Option<&BigInt> {
        self.coeffs.binary_search_by_key(&v, |(w, _)| *w).ok().map(|i| &self.coeffs[i].1)
    }

    /// Truth value when the row is a constant; `None` otherwise.
    pub fn constant_truth(&self) -> Option<bool> {
        if !self.coeffs.is_empty() {
            return None;
        }
        Some(match self.rel {
            Rel::Le => !self.constant.is_positive(),
            Rel::Eq => self.constant.is_zero(),
        })
    }

    /// Divide by the content gcd (coefficients and constant) and re-fix the
    /// equality sign. Assumes `coeffs` is sorted and zero-free.
    pub(crate) fn normalized(mut self) -> IntRow {
        if self.coeffs.is_empty() {
            self.constant = sign_unit(&self.constant);
            return self.sign_fixed();
        }
        let mut g = self.constant.abs();
        for (_, k) in &self.coeffs {
            g = g.gcd(k);
        }
        if !g.is_zero() && !g.is_one() {
            for (_, k) in self.coeffs.iter_mut() {
                *k = &*k / &g;
            }
            self.constant = &self.constant / &g;
        }
        self.sign_fixed()
    }

    /// For equalities, make the leading coefficient (or for constant rows
    /// the constant) nonnegative, mirroring [`Constraint::canonicalized`].
    fn sign_fixed(mut self) -> IntRow {
        if self.rel == Rel::Eq {
            let flip = match self.coeffs.first() {
                Some((_, k)) => k.is_negative(),
                None => self.constant.is_negative(),
            };
            if flip {
                for (_, k) in self.coeffs.iter_mut() {
                    *k = -&*k;
                }
                self.constant = -&self.constant;
            }
        }
        self
    }

    /// The canonical form of `p·self + q·other` with the coefficient of
    /// `drop` known to cancel (`p` must be positive so `≤` is preserved;
    /// the relation of `self` carries over).
    ///
    /// When every coefficient of both rows (and both multipliers) fits an
    /// `i64`, the combination runs in a batched machine-integer kernel:
    /// one merge pass accumulating `p·a + q·b` in `i128` (which two
    /// `i64`×`i64` products cannot overflow, checked regardless), a word
    /// gcd, and a direct rebuild — no big-integer dispatch per
    /// coefficient. Any value outside `i64` falls back to the exact
    /// big-integer path. Both paths produce the identical canonical row.
    pub fn linear_comb(&self, p: &BigInt, other: &IntRow, q: &BigInt, drop: Var) -> IntRow {
        self.linear_comb_counted(p, other, q, drop).0
    }

    /// [`IntRow::linear_comb`], also reporting which kernel ran: `true`
    /// for the batched `i64` fast path, `false` for the big-integer
    /// fallback. Lets Fourier–Motzkin count how much of its combination
    /// load stayed on machine words.
    pub fn linear_comb_counted(
        &self,
        p: &BigInt,
        other: &IntRow,
        q: &BigInt,
        drop: Var,
    ) -> (IntRow, bool) {
        debug_assert!(p.is_positive(), "scaling a ≤ row by a nonpositive factor");
        if let Some(row) = self.linear_comb_small(p, other, q, drop) {
            return (row, true);
        }
        (self.linear_comb_big(p, other, q, drop), false)
    }

    /// Batched machine-integer kernel for [`IntRow::linear_comb`].
    /// Returns `None` (caller falls back to exact arithmetic) as soon as
    /// any input or intermediate leaves the `i64`/`i128` range.
    fn linear_comb_small(
        &self,
        p: &BigInt,
        other: &IntRow,
        q: &BigInt,
        drop: Var,
    ) -> Option<IntRow> {
        let p = p.to_i64()? as i128;
        let q = q.to_i64()? as i128;
        let mut coeffs: Vec<(Var, i64)> =
            Vec::with_capacity(self.coeffs.len() + other.coeffs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.coeffs.len() || j < other.coeffs.len() {
            let va = self.coeffs.get(i).map(|(v, _)| *v);
            let vb = other.coeffs.get(j).map(|(v, _)| *v);
            let (v, k) = match (va, vb) {
                (Some(a), Some(b)) if a == b => {
                    let ka = p.checked_mul(self.coeffs[i].1.to_i64()? as i128)?;
                    let kb = q.checked_mul(other.coeffs[j].1.to_i64()? as i128)?;
                    i += 1;
                    j += 1;
                    (a, ka.checked_add(kb)?)
                }
                (Some(a), Some(b)) if a < b => {
                    let k = p.checked_mul(self.coeffs[i].1.to_i64()? as i128)?;
                    i += 1;
                    (a, k)
                }
                (Some(_), Some(b)) => {
                    let k = q.checked_mul(other.coeffs[j].1.to_i64()? as i128)?;
                    j += 1;
                    (b, k)
                }
                (Some(a), None) => {
                    let k = p.checked_mul(self.coeffs[i].1.to_i64()? as i128)?;
                    i += 1;
                    (a, k)
                }
                (None, Some(b)) => {
                    let k = q.checked_mul(other.coeffs[j].1.to_i64()? as i128)?;
                    j += 1;
                    (b, k)
                }
                (None, None) => unreachable!(),
            };
            if v == drop {
                debug_assert!(k == 0, "dropped variable must cancel");
                continue;
            }
            if k != 0 {
                coeffs.push((v, i64::try_from(k).ok()?));
            }
        }
        let constant = p
            .checked_mul(self.constant.to_i64()? as i128)?
            .checked_add(q.checked_mul(other.constant.to_i64()? as i128)?)?;
        let mut constant = i64::try_from(constant).ok()?;
        if coeffs.is_empty() {
            constant = constant.signum();
        } else {
            let mut g = constant.unsigned_abs();
            for (_, k) in &coeffs {
                g = gcd_u64(g, k.unsigned_abs());
            }
            if g > 1 {
                let g = g as i64;
                for (_, k) in coeffs.iter_mut() {
                    *k /= g;
                }
                constant /= g;
            }
        }
        let row = IntRow {
            coeffs: coeffs.into_iter().map(|(v, k)| (v, BigInt::from(k))).collect(),
            constant: BigInt::from(constant),
            rel: self.rel,
        };
        Some(row.sign_fixed())
    }

    /// Exact big-integer path of [`IntRow::linear_comb`].
    fn linear_comb_big(&self, p: &BigInt, other: &IntRow, q: &BigInt, drop: Var) -> IntRow {
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + other.coeffs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.coeffs.len() || j < other.coeffs.len() {
            let va = self.coeffs.get(i).map(|(v, _)| *v);
            let vb = other.coeffs.get(j).map(|(v, _)| *v);
            let (v, k) = match (va, vb) {
                (Some(a), Some(b)) if a == b => {
                    let k = &(p * &self.coeffs[i].1) + &(q * &other.coeffs[j].1);
                    i += 1;
                    j += 1;
                    (a, k)
                }
                (Some(a), Some(b)) if a < b => {
                    let k = p * &self.coeffs[i].1;
                    i += 1;
                    (a, k)
                }
                (Some(_), Some(b)) => {
                    let k = q * &other.coeffs[j].1;
                    j += 1;
                    (b, k)
                }
                (Some(a), None) => {
                    let k = p * &self.coeffs[i].1;
                    i += 1;
                    (a, k)
                }
                (None, Some(b)) => {
                    let k = q * &other.coeffs[j].1;
                    j += 1;
                    (b, k)
                }
                (None, None) => unreachable!(),
            };
            if v == drop {
                debug_assert!(k.is_zero(), "dropped variable must cancel");
                continue;
            }
            if !k.is_zero() {
                coeffs.push((v, k));
            }
        }
        let constant = &(p * &self.constant) + &(q * &other.constant);
        IntRow { coeffs, constant, rel: self.rel }.normalized()
    }
}

/// The one deduplication rule for canonical rows: the equalities in
/// order, each once; then the `≤` rows sorted by coefficients, one per
/// coefficient vector, with the tightest (largest) constant. A constant
/// `≤` row is dropped when it is trivially true and kept, in order among
/// the equalities, when it is contradictory.
pub fn dedup(rows: impl IntoIterator<Item = IntRow>) -> Vec<IntRow> {
    let mut out: Vec<IntRow> = Vec::new();
    let mut les: Vec<IntRow> = Vec::new();
    for row in rows {
        match row.rel {
            Rel::Eq if out.contains(&row) => {}
            Rel::Le if row.coeffs.is_empty() && !row.constant.is_positive() => {}
            Rel::Le if !row.coeffs.is_empty() => les.push(row),
            _ => out.push(row),
        }
    }
    les.sort_unstable_by(|x, y| x.coeffs.cmp(&y.coeffs).then_with(|| y.constant.cmp(&x.constant)));
    les.dedup_by(|later, tightest| later.coeffs == tightest.coeffs);
    out.extend(les);
    out
}

/// Binary-free Euclid on machine words for the fast combination kernel.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `-1`, `0`, or `1` matching the sign of `x`.
fn sign_unit(x: &BigInt) -> BigInt {
    if x.is_positive() {
        BigInt::one()
    } else if x.is_negative() {
        BigInt::neg_one()
    } else {
        BigInt::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(n.into(), d.into())
    }

    #[test]
    fn round_trip_matches_canonicalized() {
        let check = |c: &Constraint| {
            let row = IntRow::of_constraint(c);
            assert!(row.is_canonical(), "{row:?}");
            assert_eq!(row.to_constraint(), c.canonicalized());
        };
        // 2/3·x − 4/3·y + 2 ≤ 0 canonicalizes to x − 2y + 3 ≤ 0.
        let e = LinExpr::from_terms([(0, r(2, 3)), (1, r(-4, 3))], r(2, 1));
        for rel in [Rel::Le, Rel::Eq] {
            check(&Constraint { expr: e.clone(), rel });
        }
        // Negative leading equality gets sign-flipped.
        check(&Constraint { expr: LinExpr::from_terms([(0, r(-2, 1))], r(4, 1)), rel: Rel::Eq });
        // Constant rows keep only the sign.
        for rel in [Rel::Le, Rel::Eq] {
            for k in [r(-7, 3), r(0, 1), r(5, 1)] {
                check(&Constraint { expr: LinExpr::constant(k), rel });
            }
        }
    }

    #[test]
    fn linear_comb_cancels_and_normalizes() {
        // (2x + 4y − 6 ≤ 0) + (−x + y ≤ 0)·2 eliminates x:
        // 6y − 6 ≤ 0 → y − 1 ≤ 0.
        let a = IntRow::of_constraint(&Constraint {
            expr: LinExpr::from_terms([(0, r(2, 1)), (1, r(4, 1))], r(-6, 1)),
            rel: Rel::Le,
        });
        let b = IntRow::of_constraint(&Constraint {
            expr: LinExpr::from_terms([(0, r(-1, 1)), (1, r(1, 1))], r(0, 1)),
            rel: Rel::Le,
        });
        // `a` is already content-normalized to x + 2y − 3.
        let out = a.linear_comb(&BigInt::one(), &b, &BigInt::one(), 0);
        assert_eq!(out.coeffs, vec![(1, BigInt::from(1i64))]);
        assert_eq!(out.constant, BigInt::from(-1i64));
    }

    #[test]
    fn small_and_big_kernels_agree() {
        // A grid of small rows and multipliers: the counted kernel must
        // take the fast path and reproduce the exact big-path row.
        let rows = [
            IntRow::of_constraint(&Constraint {
                expr: LinExpr::from_terms([(0, r(2, 1)), (1, r(4, 1)), (3, r(-7, 1))], r(-6, 1)),
                rel: Rel::Le,
            }),
            IntRow::of_constraint(&Constraint {
                expr: LinExpr::from_terms([(0, r(-1, 1)), (2, r(5, 1))], r(3, 1)),
                rel: Rel::Le,
            }),
            IntRow::of_constraint(&Constraint {
                expr: LinExpr::from_terms([(0, r(1, 1)), (1, r(-1, 1)), (2, r(-5, 1))], r(0, 1)),
                rel: Rel::Le,
            }),
        ];
        for a in &rows {
            for b in &rows {
                let ca = a.coeff(0).cloned().unwrap();
                let cb = b.coeff(0).cloned().unwrap();
                if ca.sign() == cb.sign() {
                    continue; // multipliers below only cancel opposite signs
                }
                let (p, q) = (cb.abs(), ca.abs());
                let (got, small) = a.linear_comb_counted(&p, b, &q, 0);
                assert!(small, "small inputs must stay on the fast path");
                assert_eq!(got, a.linear_comb_big(&p, b, &q, 0));
            }
        }
    }

    #[test]
    fn overflowing_combination_promotes_to_bigint() {
        // 1·a + 1·b cancels x but doubles a y coefficient of 2^62 past
        // i64: the kernel must fall back and still produce the exact row.
        let big = 1i64 << 62;
        let a = IntRow::of_constraint(&Constraint {
            expr: LinExpr::from_terms([(0, r(1, 1)), (1, r(big, 1))], r(1, 1)),
            rel: Rel::Le,
        });
        let b = IntRow::of_constraint(&Constraint {
            expr: LinExpr::from_terms([(0, r(-1, 1)), (1, r(big, 1))], r(0, 1)),
            rel: Rel::Le,
        });
        let one = BigInt::one();
        let (got, small) = a.linear_comb_counted(&one, &b, &one, 0);
        assert!(!small, "2^63 coefficient cannot stay in i64");
        assert_eq!(got, a.linear_comb_big(&one, &b, &one, 0));
        assert_eq!(got.coeff(1), Some(&(&BigInt::from(big) + &BigInt::from(big))));
    }

    #[test]
    fn dedup_orders_and_keeps_the_tightest() {
        let row = |terms: &[(Var, i64)], constant: i64, rel: Rel| {
            let coeffs = terms.iter().map(|&(v, k)| (v, BigInt::from(k))).collect();
            IntRow { coeffs, constant: BigInt::from(constant), rel }
        };
        let rows = [
            row(&[(1, 1)], -5, Rel::Le),
            row(&[(0, 1), (1, -1)], 0, Rel::Eq),
            row(&[], -1, Rel::Le), // trivially true: dropped
            row(&[(0, -1)], 0, Rel::Le),
            row(&[], 1, Rel::Le), // contradictory: kept among the equalities
            row(&[(1, 1)], -3, Rel::Le),
            row(&[(0, 1), (1, -1)], 0, Rel::Eq),
            row(&[(0, 1)], 2, Rel::Eq),
        ];
        let want = [
            row(&[(0, 1), (1, -1)], 0, Rel::Eq),
            row(&[], 1, Rel::Le),
            row(&[(0, 1)], 2, Rel::Eq),
            row(&[(0, -1)], 0, Rel::Le),
            row(&[(1, 1)], -3, Rel::Le),
        ];
        assert_eq!(dedup(rows), want);
    }

    #[test]
    fn coeff_lookup() {
        let row = IntRow::of_constraint(&Constraint {
            expr: LinExpr::from_terms([(3, r(5, 1)), (7, r(-2, 1))], r(0, 1)),
            rel: Rel::Le,
        });
        assert_eq!(row.coeff(3), Some(&BigInt::from(5i64)));
        assert_eq!(row.coeff(7), Some(&BigInt::from(-2i64)));
        assert_eq!(row.coeff(5), None);
    }
}
