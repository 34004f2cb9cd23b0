//! Linear expressions and constraint systems over exact rationals.
//!
//! Variables are plain `usize` indices; the caller owns their meaning (a
//! [`crate::VarPool`] helps with naming). A [`LinExpr`] is a sparse linear
//! polynomial `c + Σ aᵢ·xᵢ`. A [`Constraint`] states `expr ≤ 0` or
//! `expr = 0`; `≥` is represented by negating the expression. Only non-strict
//! relations are needed: the paper's decrease conditions are of the form
//! `θᵀx ≥ θᵀy + δ`, never strict.

use crate::canon::IntRow;
use crate::rat::Rat;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A variable index.
pub type Var = usize;

/// A sparse linear expression `constant + Σ coeff(v)·v` with exact rational
/// coefficients.
///
/// Terms are a sorted, zero-free `Vec<(Var, Rat)>` — the analysis
/// manipulates many short rows (a handful of argument-size variables
/// each), where a flat sorted vector beats a `BTreeMap` on every
/// operation: lookups are a binary search over one contiguous allocation,
/// and the add/scale workhorses are linear merges. The representation is
/// canonical (sorted, no zero coefficients), so derived equality and
/// hashing remain structural.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    terms: Vec<(Var, Rat)>,
    constant: Rat,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr { terms: Vec::new(), constant: c }
    }

    /// The expression `1·v`.
    pub fn var(v: Var) -> LinExpr {
        LinExpr::term(v, Rat::one())
    }

    /// The expression `coeff·v`.
    pub fn term(v: Var, coeff: Rat) -> LinExpr {
        let mut terms = Vec::new();
        if !coeff.is_zero() {
            terms.push((v, coeff));
        }
        LinExpr { terms, constant: Rat::zero() }
    }

    /// Build from `(var, coeff)` pairs and a constant, merging duplicates.
    pub fn from_terms(terms: impl IntoIterator<Item = (Var, Rat)>, constant: Rat) -> LinExpr {
        let mut e = LinExpr::constant(constant);
        for (v, c) in terms {
            e.add_term(v, c);
        }
        e
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Rat {
        &self.constant
    }

    /// Coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Var) -> Rat {
        self.coeff_ref(v).cloned().unwrap_or_else(Rat::zero)
    }

    /// Coefficient of `v` without materializing zero (`None` if absent).
    pub fn coeff_ref(&self, v: Var) -> Option<&Rat> {
        self.terms.binary_search_by_key(&v, |(w, _)| *w).ok().map(|i| &self.terms[i].1)
    }

    /// Iterate over `(var, coeff)` pairs with nonzero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (Var, &Rat)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, c))
    }

    /// The set of variables with nonzero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().map(|(v, _)| *v)
    }

    /// True iff there are no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// True iff identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant.is_zero()
    }

    /// Add `coeff·v` in place.
    pub fn add_term(&mut self, v: Var, coeff: Rat) {
        if coeff.is_zero() {
            return;
        }
        match self.terms.binary_search_by_key(&v, |(w, _)| *w) {
            Ok(i) => {
                self.terms[i].1 += &coeff;
                if self.terms[i].1.is_zero() {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (v, coeff)),
        }
    }

    /// Add a constant in place.
    pub fn add_constant(&mut self, c: &Rat) {
        self.constant += c;
    }

    /// Scale by a rational in place.
    pub fn scale(&mut self, k: &Rat) {
        if k.is_zero() {
            self.terms.clear();
            self.constant = Rat::zero();
            return;
        }
        for (_, c) in self.terms.iter_mut() {
            *c *= k;
        }
        self.constant *= k;
    }

    /// `self += k·other` in place — the pivot/eliminate workhorse. A
    /// single linear merge of the two sorted term lists (no per-term
    /// binary search or shifting); existing coefficients move, they are
    /// not cloned.
    pub fn add_scaled_assign(&mut self, other: &LinExpr, k: &Rat) {
        if k.is_zero() {
            return;
        }
        if other.terms.is_empty() {
            self.constant += &(&other.constant * k);
            return;
        }
        let old = std::mem::take(&mut self.terms);
        let mut merged: Vec<(Var, Rat)> = Vec::with_capacity(old.len() + other.terms.len());
        let mut a = old.into_iter();
        let mut b = other.terms.iter();
        let (mut na, mut nb) = (a.next(), b.next());
        loop {
            let ka = na.as_ref().map(|t| t.0);
            let kb = nb.map(|t| t.0);
            match (ka, kb) {
                (Some(va), Some(vb)) if va == vb => {
                    let (v, mut ca) = na.take().expect("peeked");
                    let (_, cb) = nb.take().expect("peeked");
                    ca += &(cb * k);
                    if !ca.is_zero() {
                        merged.push((v, ca));
                    }
                    na = a.next();
                    nb = b.next();
                }
                (Some(va), Some(vb)) if va < vb => {
                    merged.push(na.take().expect("peeked"));
                    na = a.next();
                }
                (Some(_), Some(_)) | (None, Some(_)) => {
                    let (v, cb) = nb.take().expect("peeked");
                    merged.push((*v, cb * k));
                    nb = b.next();
                }
                (Some(_), None) => {
                    merged.push(na.take().expect("peeked"));
                    na = a.next();
                }
                (None, None) => break,
            }
        }
        self.terms = merged;
        self.constant += &(&other.constant * k);
    }

    /// `self + k·other`.
    pub fn add_scaled(&self, other: &LinExpr, k: &Rat) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled_assign(other, k);
        out
    }

    /// Substitute variable `v` by expression `repl`.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> LinExpr {
        match self.terms.binary_search_by_key(&v, |(w, _)| *w) {
            Err(_) => self.clone(),
            Ok(i) => {
                let mut out = self.clone();
                let (_, c) = out.terms.remove(i);
                out.add_scaled_assign(repl, &c);
                out
            }
        }
    }

    /// Rename variables through `map`; variables not in the map are kept.
    pub fn rename(&self, map: &BTreeMap<Var, Var>) -> LinExpr {
        let mut out = LinExpr::constant(self.constant.clone());
        for (v, c) in self.terms() {
            out.add_term(map.get(&v).copied().unwrap_or(v), c.clone());
        }
        out
    }

    /// Evaluate at a point given as a map from variable to value; missing
    /// variables evaluate as zero.
    pub fn eval(&self, point: &BTreeMap<Var, Rat>) -> Rat {
        let mut acc = self.constant.clone();
        for (v, c) in self.terms() {
            if let Some(val) = point.get(&v) {
                acc += &(c * val);
            }
        }
        acc
    }

    /// Scale so all coefficients and the constant are coprime integers with
    /// a positive leading (lowest-index) coefficient when one exists. Purely
    /// cosmetic/canonicalizing: represents the same hyperplane or halfspace
    /// direction up to positive scaling.
    pub fn normalized_direction(&self) -> LinExpr {
        if self.terms.is_empty() {
            // Preserve only the sign of the constant.
            use crate::bigint::Sign;
            return match self.constant.sign() {
                Sign::Zero => LinExpr::zero(),
                Sign::Positive => LinExpr::constant(Rat::one()),
                Sign::Negative => LinExpr::constant(-Rat::one()),
            };
        }
        // Common denominator, then gcd of numerators.
        let mut scaled = self.clone();
        let mut lcm = self.constant.denom().clone();
        for (_, c) in self.terms() {
            lcm = lcm.lcm(c.denom());
        }
        scaled.scale(&Rat::from(lcm));
        let mut g = scaled.constant.numer().abs();
        for (_, c) in scaled.terms() {
            g = g.gcd(c.numer());
        }
        if !g.is_zero() && !g.is_one() {
            scaled.scale(&Rat::new(1.into(), g));
        }
        scaled
    }
}

impl Neg for &LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        let mut out = self.clone();
        out.scale(&-Rat::one());
        out
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        self.scale(&-Rat::one());
        self
    }
}

impl Add for &LinExpr {
    type Output = LinExpr;
    fn add(self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, &Rat::one())
    }
}

impl Sub for &LinExpr {
    type Output = LinExpr;
    fn sub(self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, &-Rat::one())
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, other: LinExpr) -> LinExpr {
        self.add_scaled_assign(&other, &Rat::one());
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, other: LinExpr) -> LinExpr {
        self.add_scaled_assign(&other, &-Rat::one());
        self
    }
}

impl Mul<&Rat> for &LinExpr {
    type Output = LinExpr;
    fn mul(self, k: &Rat) -> LinExpr {
        let mut out = self.clone();
        out.scale(k);
        out
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                if c == &Rat::one() {
                    write!(f, "x{v}")?;
                } else if c == &-Rat::one() {
                    write!(f, "-x{v}")?;
                } else {
                    write!(f, "{c}*x{v}")?;
                }
                first = false;
            } else if c.is_negative() {
                let a = c.abs();
                if a == Rat::one() {
                    write!(f, " - x{v}")?;
                } else {
                    write!(f, " - {a}*x{v}")?;
                }
            } else if c == &Rat::one() {
                write!(f, " + x{v}")?;
            } else {
                write!(f, " + {c}*x{v}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant.is_positive() {
            write!(f, " + {}", self.constant)?;
        } else if self.constant.is_negative() {
            write!(f, " - {}", self.constant.abs())?;
        }
        Ok(())
    }
}

/// The relation of a [`Constraint`]: `expr ≤ 0` or `expr = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rel {
    /// `expr ≤ 0`.
    Le,
    /// `expr = 0`.
    Eq,
}

/// A linear constraint `expr REL 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Left-hand side; the relation compares it to zero.
    pub expr: LinExpr,
    /// The relation.
    pub rel: Rel,
}

impl Constraint {
    /// `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        Constraint { expr: lhs - rhs, rel: Rel::Le }
    }

    /// `lhs ≥ rhs`.
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        Constraint { expr: rhs - lhs, rel: Rel::Le }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        Constraint { expr: lhs - rhs, rel: Rel::Eq }
    }

    /// `v ≥ 0`.
    pub fn nonneg(v: Var) -> Constraint {
        Constraint::ge(LinExpr::var(v), LinExpr::zero())
    }

    /// True iff the constraint holds at `point` (missing vars are zero).
    pub fn holds_at(&self, point: &BTreeMap<Var, Rat>) -> bool {
        let v = self.expr.eval(point);
        match self.rel {
            Rel::Le => !v.is_positive(),
            Rel::Eq => v.is_zero(),
        }
    }

    /// If the constraint has no variables, report whether it is true.
    pub fn constant_truth(&self) -> Option<bool> {
        if !self.expr.is_constant() {
            return None;
        }
        Some(match self.rel {
            Rel::Le => !self.expr.constant_term().is_positive(),
            Rel::Eq => self.expr.constant_term().is_zero(),
        })
    }

    /// Substitute a variable by an expression.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> Constraint {
        Constraint { expr: self.expr.substitute(v, repl), rel: self.rel }
    }

    /// Rename variables through `map`.
    pub fn rename(&self, map: &BTreeMap<Var, Var>) -> Constraint {
        Constraint { expr: self.expr.rename(map), rel: self.rel }
    }

    /// Canonical form: integer coprime coefficients; for equalities also fix
    /// the sign of the leading coefficient, so `x = y` and `y = x` coincide.
    pub fn canonicalized(&self) -> Constraint {
        let mut expr = self.expr.normalized_direction();
        if self.rel == Rel::Eq {
            let flip = match expr.terms().next() {
                Some((_, c)) => c.is_negative(),
                None => expr.constant_term().is_negative(),
            };
            if flip {
                expr = -expr;
            }
        }
        Constraint { expr, rel: self.rel }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rel {
            Rel::Le => write!(f, "{} <= 0", self.expr),
            Rel::Eq => write!(f, "{} = 0", self.expr),
        }
    }
}

/// A conjunction of linear constraints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConstraintSystem {
    constraints: Vec<Constraint>,
}

impl ConstraintSystem {
    /// The empty (always-true) system.
    pub fn new() -> ConstraintSystem {
        ConstraintSystem::default()
    }

    /// Build from a vector of constraints.
    pub fn from_constraints(constraints: Vec<Constraint>) -> ConstraintSystem {
        ConstraintSystem { constraints }
    }

    /// The system of canonical integer rows, in order.
    pub fn of_rows(rows: &[IntRow]) -> ConstraintSystem {
        ConstraintSystem { constraints: rows.iter().map(IntRow::to_constraint).collect() }
    }

    /// Add one constraint.
    pub fn push(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Append all constraints of another system.
    pub fn extend(&mut self, other: &ConstraintSystem) {
        self.constraints.extend(other.constraints.iter().cloned());
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True iff there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// All variables mentioned.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for c in &self.constraints {
            out.extend(c.expr.vars());
        }
        out
    }

    /// True iff every constraint holds at `point`.
    pub fn holds_at(&self, point: &BTreeMap<Var, Rat>) -> bool {
        self.constraints.iter().all(|c| c.holds_at(point))
    }

    /// Substitute a variable everywhere.
    pub fn substitute(&self, v: Var, repl: &LinExpr) -> ConstraintSystem {
        ConstraintSystem {
            constraints: self.constraints.iter().map(|c| c.substitute(v, repl)).collect(),
        }
    }

    /// Rename variables everywhere.
    pub fn rename(&self, map: &BTreeMap<Var, Var>) -> ConstraintSystem {
        ConstraintSystem { constraints: self.constraints.iter().map(|c| c.rename(map)).collect() }
    }

    /// Drop constraints that are trivially true; return `None` if any
    /// constraint is trivially false (the system is unsatisfiable).
    pub fn simplify_trivial(&self) -> Option<ConstraintSystem> {
        let mut out = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            match c.constant_truth() {
                Some(true) => continue,
                Some(false) => return None,
                None => out.push(c.clone()),
            }
        }
        Some(ConstraintSystem { constraints: out })
    }

    /// Canonicalize every row and deduplicate by [`crate::canon::dedup`]:
    /// equalities in order, then one `≤` row per direction, the tightest.
    pub fn dedup(&self) -> ConstraintSystem {
        let rows = self.constraints.iter().map(IntRow::of_constraint);
        ConstraintSystem::of_rows(&crate::canon::dedup(rows))
    }
}

impl fmt::Display for ConstraintSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A small helper to allocate fresh variable indices and remember names.
#[derive(Debug, Clone, Default)]
pub struct VarPool {
    names: Vec<String>,
}

impl VarPool {
    /// New, empty pool.
    pub fn new() -> VarPool {
        VarPool::default()
    }

    /// Allocate a fresh variable with the given display name.
    pub fn fresh(&mut self, name: impl Into<String>) -> Var {
        self.names.push(name.into());
        self.names.len() - 1
    }

    /// The name of `v`, if allocated here.
    pub fn name(&self, v: Var) -> Option<&str> {
        self.names.get(v).map(|s| s.as_str())
    }

    /// Number of variables allocated.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff no variables allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Render an expression with this pool's variable names.
    pub fn render_expr(&self, e: &LinExpr) -> String {
        let mut s = String::new();
        let mut first = true;
        for (v, c) in e.terms() {
            let name = self.name(v).map(str::to_owned).unwrap_or_else(|| format!("x{v}"));
            if first {
                if c == &Rat::one() {
                    s.push_str(&name);
                } else if c == &-Rat::one() {
                    s.push('-');
                    s.push_str(&name);
                } else {
                    s.push_str(&format!("{c}*{name}"));
                }
                first = false;
            } else if c.is_negative() {
                let a = c.abs();
                if a == Rat::one() {
                    s.push_str(&format!(" - {name}"));
                } else {
                    s.push_str(&format!(" - {a}*{name}"));
                }
            } else if c == &Rat::one() {
                s.push_str(&format!(" + {name}"));
            } else {
                s.push_str(&format!(" + {c}*{name}"));
            }
        }
        let cst = e.constant_term();
        if first {
            s.push_str(&cst.to_string());
        } else if cst.is_positive() {
            s.push_str(&format!(" + {cst}"));
        } else if cst.is_negative() {
            s.push_str(&format!(" - {}", cst.abs()));
        }
        s
    }

    /// Render a constraint in `lhs REL 0` form with names.
    pub fn render_constraint(&self, c: &Constraint) -> String {
        match c.rel {
            Rel::Le => format!("{} <= 0", self.render_expr(&c.expr)),
            Rel::Eq => format!("{} = 0", self.render_expr(&c.expr)),
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
    fn expr_arithmetic() {
        // 2x0 + 3 plus x0 - 1 = 3x0 + 2
        let a = LinExpr::from_terms([(0, r(2, 1))], r(3, 1));
        let b = LinExpr::from_terms([(0, r(1, 1))], r(-1, 1));
        let s = &a + &b;
        assert_eq!(s.coeff(0), r(3, 1));
        assert_eq!(s.constant_term(), &r(2, 1));
    }

    #[test]
    fn cancelling_terms_vanish() {
        let a = LinExpr::var(3);
        let b = -&a;
        assert!((&a + &b).is_zero());
        let mut e = LinExpr::var(1);
        e.add_term(1, -Rat::one());
        assert!(e.is_zero());
        assert_eq!(e.vars().count(), 0);
    }

    #[test]
    fn substitution() {
        // x0 + 2*x1, substitute x1 := x2 - 1 => x0 + 2*x2 - 2
        let e = LinExpr::from_terms([(0, r(1, 1)), (1, r(2, 1))], Rat::zero());
        let repl = LinExpr::from_terms([(2, r(1, 1))], r(-1, 1));
        let out = e.substitute(1, &repl);
        assert_eq!(out.coeff(0), r(1, 1));
        assert_eq!(out.coeff(1), Rat::zero());
        assert_eq!(out.coeff(2), r(2, 1));
        assert_eq!(out.constant_term(), &r(-2, 1));
    }

    #[test]
    fn eval() {
        let e = LinExpr::from_terms([(0, r(1, 2)), (1, r(-1, 1))], r(3, 1));
        let mut p = BTreeMap::new();
        p.insert(0, r(4, 1));
        p.insert(1, r(1, 1));
        assert_eq!(e.eval(&p), r(4, 1));
    }

    #[test]
    fn constraint_truth() {
        let c = Constraint::le(LinExpr::constant(r(1, 1)), LinExpr::constant(r(2, 1)));
        assert_eq!(c.constant_truth(), Some(true));
        let c2 = Constraint::le(LinExpr::constant(r(3, 1)), LinExpr::constant(r(2, 1)));
        assert_eq!(c2.constant_truth(), Some(false));
        let c3 = Constraint::eq(LinExpr::var(0), LinExpr::zero());
        assert_eq!(c3.constant_truth(), None);
    }

    #[test]
    fn holds_at() {
        // x0 - x1 <= 0, i.e. x0 <= x1
        let c = Constraint::le(LinExpr::var(0), LinExpr::var(1));
        let mut p = BTreeMap::new();
        p.insert(0, r(1, 1));
        p.insert(1, r(2, 1));
        assert!(c.holds_at(&p));
        p.insert(0, r(3, 1));
        assert!(!c.holds_at(&p));
    }

    #[test]
    fn normalized_direction_scales_to_coprime_integers() {
        let e = LinExpr::from_terms([(0, r(2, 3)), (1, r(4, 3))], r(2, 1));
        let n = e.normalized_direction();
        assert_eq!(n.coeff(0), r(1, 1));
        assert_eq!(n.coeff(1), r(2, 1));
        assert_eq!(n.constant_term(), &r(3, 1));
    }

    #[test]
    fn dedup_keeps_tightest() {
        // x0 <= 5 and x0 <= 3 collapse to x0 <= 3.
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::le(LinExpr::var(0), LinExpr::constant(r(5, 1))));
        sys.push(Constraint::le(LinExpr::var(0), LinExpr::constant(r(3, 1))));
        let d = sys.dedup();
        assert_eq!(d.len(), 1);
        let c = &d.constraints()[0];
        // x0 - 3 <= 0
        assert_eq!(c.expr.coeff(0), r(1, 1));
        assert_eq!(c.expr.constant_term(), &r(-3, 1));
    }

    #[test]
    fn dedup_merges_equalities_both_orientations() {
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(LinExpr::var(0), LinExpr::var(1)));
        sys.push(Constraint::eq(LinExpr::var(1), LinExpr::var(0)));
        assert_eq!(sys.dedup().len(), 1);
    }

    #[test]
    fn simplify_trivial_detects_contradiction() {
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(LinExpr::constant(r(1, 1)), LinExpr::zero()));
        assert!(sys.simplify_trivial().is_none());
        let mut ok = ConstraintSystem::new();
        ok.push(Constraint::le(LinExpr::zero(), LinExpr::constant(r(1, 1))));
        assert_eq!(ok.simplify_trivial().unwrap().len(), 0);
    }

    #[test]
    fn var_pool_rendering() {
        let mut pool = VarPool::new();
        let x = pool.fresh("theta1");
        let y = pool.fresh("theta2");
        let e = LinExpr::from_terms([(x, r(2, 1)), (y, r(-1, 1))], r(1, 2));
        assert_eq!(pool.render_expr(&e), "2*theta1 - theta2 + 1/2");
    }

    #[test]
    fn display_expr() {
        let e = LinExpr::from_terms([(0, r(1, 1)), (1, r(-2, 1))], r(-3, 1));
        assert_eq!(e.to_string(), "x0 - 2*x1 - 3");
        assert_eq!(LinExpr::zero().to_string(), "0");
    }
}
