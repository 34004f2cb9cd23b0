//! Exact rational numbers built on [`BigInt`].
//!
//! Every value is kept in canonical form: the denominator is strictly
//! positive and `gcd(|numerator|, denominator) = 1`, so structural equality
//! and hashing coincide with numeric equality.

use crate::bigint::{BigInt, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number.
///
/// # Examples
///
/// ```
/// use argus_linear::Rat;
/// let half = Rat::new(1.into(), 2.into());
/// let third = Rat::new(1.into(), 3.into());
/// assert_eq!((&half + &third).to_string(), "5/6");
/// assert!(half > third);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: BigInt,
    /// Strictly positive, coprime with `num`.
    den: BigInt,
}

impl Rat {
    /// Construct `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Rat {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Rat::zero();
        }
        // Integer denominators need no reduction at all.
        if den.is_one() {
            return Rat::raw(num, den);
        }
        let g = num.gcd(&den);
        let mut num = &num / &g;
        let mut den = &den / &g;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// Construct from parts already known canonical (`den > 0`, coprime).
    /// Every arithmetic shortcut below funnels through here so canonicity
    /// arguments live next to the code they justify.
    #[inline]
    fn raw(num: BigInt, den: BigInt) -> Rat {
        debug_assert!(den.is_positive());
        Rat { num, den }
    }

    /// The rational 0.
    pub fn zero() -> Rat {
        Rat { num: BigInt::zero(), den: BigInt::one() }
    }

    /// The rational 1.
    pub fn one() -> Rat {
        Rat { num: BigInt::one(), den: BigInt::one() }
    }

    /// Construct from an integer.
    pub fn from_int(v: impl Into<BigInt>) -> Rat {
        Rat { num: v.into(), den: BigInt::one() }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// True iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Sign of the value.
    pub fn sign(&self) -> Sign {
        self.num.sign()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rat {
        Rat { num: self.num.abs(), den: self.den.clone() }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        // Swapping an already-canonical pair needs no gcd; only the sign
        // has to migrate to the numerator.
        if self.num.is_negative() {
            Rat::raw(-&self.den, -&self.num)
        } else {
            Rat::raw(self.den.clone(), self.num.clone())
        }
    }

    /// Shared add/sub kernel: `self ± other` with minimal renormalization.
    ///
    /// Canonicity arguments (write `self = a/b`, `other = c/d`, both
    /// reduced, `b, d > 0`):
    /// * `d = 1`: the result is `(a ± cb)/b` and
    ///   `gcd(a ± cb, b) = gcd(a, b) = 1` — no gcd needed.
    /// * `b = d`: the result is `(a ± c)/b`, reduced by one
    ///   `gcd(a ± c, b)`.
    /// * `gcd(b, d) = 1`: `gcd(ad ± cb, bd) = 1` (any prime dividing `b`
    ///   divides `cb` but not `ad`, and symmetrically) — the single
    ///   `gcd(b, d)` probe is all the work there is.
    /// * otherwise the GMP "t-trick": with `g = gcd(b, d)` and
    ///   `t = a(d/g) ± c(b/g)`, the common factor of `t` and `(b/g)d` is
    ///   exactly `gcd(t, g)` — two word-sized gcds instead of one huge one
    ///   on the cross-multiplied products.
    fn add_impl(&self, other: &Rat, sub: bool) -> Rat {
        if other.is_zero() {
            return self.clone();
        }
        if self.is_zero() {
            let num = if sub { -&other.num } else { other.num.clone() };
            return Rat::raw(num, other.den.clone());
        }
        if self.den == other.den {
            let t = if sub { &self.num - &other.num } else { &self.num + &other.num };
            if t.is_zero() {
                return Rat::zero();
            }
            if self.den.is_one() {
                return Rat::raw(t, BigInt::one());
            }
            let g = t.gcd(&self.den);
            if g.is_one() {
                return Rat::raw(t, self.den.clone());
            }
            return Rat::raw(&t / &g, &self.den / &g);
        }
        if other.den.is_one() {
            let cb = &other.num * &self.den;
            let num = if sub { &self.num - &cb } else { &self.num + &cb };
            return Rat::raw(num, self.den.clone());
        }
        if self.den.is_one() {
            let ad = &self.num * &other.den;
            let num = if sub { &ad - &other.num } else { &ad + &other.num };
            return Rat::raw(num, other.den.clone());
        }
        let g = self.den.gcd(&other.den);
        if g.is_one() {
            let ad = &self.num * &other.den;
            let cb = &other.num * &self.den;
            let num = if sub { &ad - &cb } else { &ad + &cb };
            return Rat::raw(num, &self.den * &other.den);
        }
        let db = &self.den / &g; // b/g
        let dd = &other.den / &g; // d/g
        let ad = &self.num * &dd;
        let cb = &other.num * &db;
        let t = if sub { &ad - &cb } else { &ad + &cb };
        if t.is_zero() {
            return Rat::zero();
        }
        let g2 = t.gcd(&g);
        if g2.is_one() {
            return Rat::raw(t, &db * &other.den);
        }
        Rat::raw(&t / &g2, &db * &(&other.den / &g2))
    }

    /// Multiplication kernel with cross-reduction: reducing `a` against `d`
    /// and `c` against `b` *before* multiplying keeps intermediates small
    /// and makes the result canonical by construction (the factors that
    /// remain are pairwise coprime).
    fn mul_impl(&self, other: &Rat) -> Rat {
        if self.is_zero() || other.is_zero() {
            return Rat::zero();
        }
        match (self.den.is_one(), other.den.is_one()) {
            (true, true) => Rat::raw(&self.num * &other.num, BigInt::one()),
            (false, true) => {
                if other.num.is_one() {
                    return self.clone();
                }
                let g = other.num.gcd(&self.den);
                if g.is_one() {
                    Rat::raw(&self.num * &other.num, self.den.clone())
                } else {
                    Rat::raw(&self.num * &(&other.num / &g), &self.den / &g)
                }
            }
            (true, false) => {
                if self.num.is_one() {
                    return other.clone();
                }
                let g = self.num.gcd(&other.den);
                if g.is_one() {
                    Rat::raw(&self.num * &other.num, other.den.clone())
                } else {
                    Rat::raw(&(&self.num / &g) * &other.num, &other.den / &g)
                }
            }
            (false, false) => {
                let g1 = self.num.gcd(&other.den);
                let g2 = other.num.gcd(&self.den);
                let an = if g1.is_one() { self.num.clone() } else { &self.num / &g1 };
                let cn = if g2.is_one() { other.num.clone() } else { &other.num / &g2 };
                let bd = if g2.is_one() { self.den.clone() } else { &self.den / &g2 };
                let dd = if g1.is_one() { other.den.clone() } else { &other.den / &g1 };
                Rat::raw(&an * &cn, &bd * &dd)
            }
        }
    }

    /// Approximate as `f64` (for reporting only; analysis never uses floats).
    pub fn to_f64(&self) -> f64 {
        // Scale to keep both parts in f64 range for the common small case;
        // fall back to string parsing for huge values.
        match (self.num.to_i128(), self.den.to_i128()) {
            (Some(n), Some(d)) => n as f64 / d as f64,
            _ => {
                let n: f64 = self.num.to_string().parse().unwrap_or(f64::NAN);
                let d: f64 = self.den.to_string().parse().unwrap_or(f64::NAN);
                n / d
            }
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.divmod(&self.den);
        if r.is_negative() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.divmod(&self.den);
        if r.is_positive() {
            q + BigInt::one()
        } else {
            q
        }
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::zero()
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::from_int(v)
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Rat {
        Rat::from_int(v)
    }
}

impl From<BigInt> for Rat {
    fn from(v: BigInt) -> Rat {
        Rat { num: v, den: BigInt::one() }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -&self.num, den: self.den.clone() }
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(mut self) -> Rat {
        self.num = -self.num;
        self
    }
}

impl Add for &Rat {
    type Output = Rat;
    fn add(self, other: &Rat) -> Rat {
        self.add_impl(other, false)
    }
}

impl Sub for &Rat {
    type Output = Rat;
    fn sub(self, other: &Rat) -> Rat {
        self.add_impl(other, true)
    }
}

impl Mul for &Rat {
    type Output = Rat;
    fn mul(self, other: &Rat) -> Rat {
        self.mul_impl(other)
    }
}

impl Div for &Rat {
    type Output = Rat;
    fn div(self, other: &Rat) -> Rat {
        assert!(!other.is_zero(), "division by zero rational");
        self.mul_impl(&other.recip())
    }
}

macro_rules! forward_rat_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rat {
            type Output = Rat;
            fn $method(self, other: Rat) -> Rat {
                (&self).$method(&other)
            }
        }
        impl $trait<&Rat> for Rat {
            type Output = Rat;
            fn $method(self, other: &Rat) -> Rat {
                (&self).$method(other)
            }
        }
        impl $trait<Rat> for &Rat {
            type Output = Rat;
            fn $method(self, other: Rat) -> Rat {
                self.$method(&other)
            }
        }
    };
}

forward_rat_binop!(Add, add);
forward_rat_binop!(Sub, sub);
forward_rat_binop!(Mul, mul);
forward_rat_binop!(Div, div);

impl AddAssign<&Rat> for Rat {
    fn add_assign(&mut self, other: &Rat) {
        if other.is_zero() {
            return;
        }
        if other.den.is_one() {
            // a/b + c = (a + cb)/b stays canonical (gcd(a + cb, b) =
            // gcd(a, b) = 1), so update the numerator in place — no gcd,
            // no denominator churn. A zero result can only arise with
            // b = 1, which is already canonical zero form.
            self.num += &(&other.num * &self.den);
            return;
        }
        *self = self.add_impl(other, false);
    }
}

impl SubAssign<&Rat> for Rat {
    fn sub_assign(&mut self, other: &Rat) {
        if other.is_zero() {
            return;
        }
        if other.den.is_one() {
            self.num -= &(&other.num * &self.den);
            return;
        }
        *self = self.add_impl(other, true);
    }
}

impl MulAssign<&Rat> for Rat {
    fn mul_assign(&mut self, other: &Rat) {
        if self.is_zero() {
            return;
        }
        if other.is_zero() {
            *self = Rat::zero();
            return;
        }
        if other.den.is_one() && self.den.is_one() {
            // Integer times integer: no reduction can ever be needed.
            self.num *= &other.num;
            return;
        }
        *self = self.mul_impl(other);
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error parsing a [`Rat`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.message)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Parses `"a"` or `"a/b"` with optional leading sign on `a`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            None => {
                let n: BigInt = s.parse().map_err(|e| ParseRatError { message: format!("{e}") })?;
                Ok(Rat::from(n))
            }
            Some((ns, ds)) => {
                let n: BigInt =
                    ns.parse().map_err(|e| ParseRatError { message: format!("{e}") })?;
                let d: BigInt =
                    ds.parse().map_err(|e| ParseRatError { message: format!("{e}") })?;
                if d.is_zero() {
                    return Err(ParseRatError { message: "zero denominator".into() });
                }
                Ok(Rat::new(n, d))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(n.into(), d.into())
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rat::zero());
        assert!(r(1, -2).denom().is_positive());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1.into(), 0.into());
    }

    #[test]
    fn field_ops() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(r(3, 7).recip(), r(7, 3));
        assert_eq!(-r(3, 7), r(-3, 7));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(-1, 2) < Rat::zero());
        assert_eq!(r(2, 6).cmp(&r(1, 3)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), 3.into());
        assert_eq!(r(7, 2).ceil(), 4.into());
        assert_eq!(r(-7, 2).floor(), (-4).into());
        assert_eq!(r(-7, 2).ceil(), (-3).into());
        assert_eq!(r(4, 2).floor(), 2.into());
        assert_eq!(r(4, 2).ceil(), 2.into());
    }

    #[test]
    fn parse_display() {
        assert_eq!("1/2".parse::<Rat>().unwrap(), r(1, 2));
        assert_eq!("-3/6".parse::<Rat>().unwrap(), r(-1, 2));
        assert_eq!("5".parse::<Rat>().unwrap(), r(5, 1));
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(4, 2).to_string(), "2");
        assert!("1/0".parse::<Rat>().is_err());
        assert!("x/2".parse::<Rat>().is_err());
    }

    #[test]
    fn to_f64() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert_eq!(r(-3, 4).to_f64(), -0.75);
    }

    #[test]
    fn min_max() {
        assert_eq!(r(1, 2).min(r(1, 3)), r(1, 3));
        assert_eq!(r(1, 2).max(r(1, 3)), r(1, 2));
    }

    /// Pin the normalization shortcuts: these tests count calls into
    /// [`BigInt::gcd`] so a future refactor that quietly reintroduces
    /// full renormalization on the compound-assignment hot paths fails
    /// loudly rather than just slowing the solvers down.
    mod shortcuts {
        use super::*;
        use crate::bigint::GCD_CALLS;

        fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
            let before = GCD_CALLS.with(|c| c.get());
            let out = f();
            let after = GCD_CALLS.with(|c| c.get());
            (out, after - before)
        }

        #[test]
        fn add_assign_zero_is_free() {
            let mut x = r(3, 7);
            let (_, gcds) = counting(|| x += &Rat::zero());
            assert_eq!(x, r(3, 7));
            assert_eq!(gcds, 0);
        }

        #[test]
        fn add_assign_integer_operand_skips_gcd() {
            let mut x = r(3, 7);
            let (_, gcds) = counting(|| x += &Rat::from_int(2));
            assert_eq!(x, r(17, 7));
            assert_eq!(gcds, 0, "a/b + c must not renormalize");

            let mut y = r(-5, 1);
            let (_, gcds) = counting(|| y += &Rat::from_int(5));
            assert_eq!(y, Rat::zero());
            assert!(y.denom().is_one(), "zero stays canonical");
            assert_eq!(gcds, 0);
        }

        #[test]
        fn sub_assign_integer_operand_skips_gcd() {
            let mut x = r(3, 7);
            let (_, gcds) = counting(|| x -= &Rat::from_int(1));
            assert_eq!(x, r(-4, 7));
            assert_eq!(gcds, 0);
        }

        #[test]
        fn mul_assign_zero_and_integers_skip_gcd() {
            let mut x = r(3, 7);
            let (_, gcds) = counting(|| x *= &Rat::zero());
            assert_eq!(x, Rat::zero());
            assert_eq!(gcds, 0);

            let mut y = Rat::from_int(6);
            let (_, gcds) = counting(|| y *= &Rat::from_int(-7));
            assert_eq!(y, Rat::from_int(-42));
            assert_eq!(gcds, 0, "integer * integer must not renormalize");
        }

        #[test]
        fn mul_by_one_is_free() {
            let x = r(3, 7);
            let one = Rat::one();
            let (p, gcds) = counting(|| &x * &one);
            assert_eq!(p, r(3, 7));
            assert_eq!(gcds, 0);
        }

        #[test]
        fn common_denominator_add_uses_one_gcd() {
            let (a, b) = (r(1, 6), r(1, 6));
            let (s, gcds) = counting(|| &a + &b);
            assert_eq!(s, r(1, 3));
            assert_eq!(gcds, 1, "b = d: one gcd(a + c, b), nothing else");
        }

        #[test]
        fn coprime_denominator_add_uses_one_gcd() {
            let (a, b) = (r(1, 4), r(1, 9));
            let (s, gcds) = counting(|| &a + &b);
            assert_eq!(s, r(13, 36));
            assert_eq!(gcds, 1, "gcd(b, d) = 1 certifies the result reduced");
        }

        #[test]
        fn general_add_uses_two_gcds() {
            let (a, b) = (r(1, 6), r(1, 4));
            let (s, gcds) = counting(|| &a + &b);
            assert_eq!(s, r(5, 12));
            assert_eq!(gcds, 2, "t-trick: gcd(b, d) then gcd(t, g)");
        }

        #[test]
        fn general_mul_uses_two_gcds() {
            let (a, b) = (r(2, 3), r(3, 4));
            let (p, gcds) = counting(|| &a * &b);
            assert_eq!(p, r(1, 2));
            assert_eq!(gcds, 2, "cross-reduction: gcd(|a|, d) and gcd(|c|, b)");
        }

        #[test]
        fn recip_skips_gcd() {
            let x = r(-3, 7);
            let (v, gcds) = counting(|| x.recip());
            assert_eq!(v, r(-7, 3));
            assert_eq!(gcds, 0);
        }

        #[test]
        fn integer_constructor_skips_gcd() {
            let (v, gcds) = counting(|| Rat::new(42.into(), 1.into()));
            assert_eq!(v, Rat::from_int(42));
            assert_eq!(gcds, 0);
        }
    }
}
