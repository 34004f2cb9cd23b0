//! Generators of a polyhedron by the double-description method.
//!
//! A polyhedron `P = {x ∈ ℚⁿ : A·x + b ≤ 0, E·x + f = 0}` is the `t = 1`
//! slice of its homogenized cone
//!
//! ```text
//! C = {(x, t) : A·x + b·t ≤ 0,  E·x + f·t = 0,  t ≥ 0}
//! ```
//!
//! and `C = cone(rays) + span(lines)` for a finite set of extreme rays and
//! lines (Minkowski–Weyl). A ray with `t > 0` is a scaled vertex of `P`,
//! one with `t = 0` an extreme ray of `P`'s recession cone, and the lines
//! are `P`'s lines; `P` is empty iff no ray has `t > 0`. For a nonempty
//! `P`, `C` is the closure of `cone(P × {1})`, so a row `h·x + k ≤ 0`
//! holds on `P` iff `(h, k)·g ≤ 0` on every ray `g` and `(h, k)·l = 0`
//! on every line `l` — an implication test that solves no LP.
//!
//! The conversion is the double-description method (Motzkin, Raiffa,
//! Thompson & Thrall 1953; Fukuda & Prodon 1996): start from the whole
//! space and intersect one constraint at a time. A constraint that cuts a
//! line turns it into a ray and shears the other generators onto its
//! hyperplane; otherwise the rays on its wrong side are dropped and every
//! adjacent pair straddling it is combined into a ray on the hyperplane.
//! Adjacency is decided combinatorially on saturation bitsets: two rays
//! are adjacent iff no third ray saturates every constraint both saturate.
//!
//! The other direction, generators to constraints, runs the same method on
//! the polar cone `C° = {a : a·g ≤ 0 on every ray g, a·l = 0 on every line
//! l}`: its extreme rays are the facet normals of `C` and its lines span
//! `C`'s implicit equalities ([`Generators::hull_rows`]). Fed the union of
//! two polyhedra's generators, that yields the facets of their closed
//! convex hull.
//!
//! Generators are primitive integer vectors (content gcd 1), the same
//! normalization [`IntRow`] gives constraint rows. The arithmetic runs on
//! `i64` coordinates with checked `i128` intermediates; a value outside
//! `i64`, or more than [`MAX_RAYS`] rays, abandons the conversion
//! (`None`), and callers answer by LP instead — same answer, other route.

use crate::bigint::{BigInt, Sign};
use crate::canon::IntRow;
use crate::expr::Rel;

#[cfg(test)]
thread_local! {
    /// Unit-test instrumentation: counts H→V conversions
    /// ([`Generators::of`]), so the tests can pin how often a
    /// polyhedron is converted.
    pub(crate) static CONVERSIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Ray-count ceiling for one conversion. Each constraint step tests
/// adjacency over every straddling pair against every ray, so past this
/// the LP route is the cheaper exact answer.
pub const MAX_RAYS: usize = 256;

/// A set of constraint (or ray) indices as a little-endian bit vector.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Bits {
        Bits(vec![0; len.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn and(&self, other: &Bits) -> Bits {
        Bits(self.0.iter().zip(&other.0).map(|(a, b)| a & b).collect())
    }

    fn is_zero(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    fn is_subset(&self, other: &Bits) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & !b == 0)
    }
}

/// The extreme rays and lines of a polyhedron's homogenized cone, each a
/// primitive integer vector `(x₀, …, xₙ₋₁, t)`, with the constraints each
/// ray saturates.
#[derive(Debug, Clone)]
pub struct Generators {
    rays: Vec<Vec<i64>>,
    lines: Vec<Vec<i64>>,
    /// Per ray, the constraints it saturates: bit 0 is `t ≥ 0`, bit
    /// `i + 1` the `i`-th input row.
    sat: Vec<Bits>,
}

impl Generators {
    /// Convert the rows over `0..dim` (every variable `< dim`), in
    /// canonical integer form, to generators. `None` when an integer
    /// leaves `i64` or the rays pass [`MAX_RAYS`].
    pub fn of(dim: usize, rows: &[IntRow]) -> Option<Generators> {
        #[cfg(test)]
        CONVERSIONS.with(|c| c.set(c.get() + 1));
        let width = dim + 1;
        let nbits = rows.len() + 1;
        let mut cone = Cone {
            rays: Vec::new(),
            lines: (0..width).map(|i| unit(width, i)).collect(),
            sat: Vec::new(),
            seen: Bits::new(nbits),
        };
        let mut t_nonneg = vec![0; width];
        t_nonneg[dim] = -1;
        cone.intersect(0, &t_nonneg, Rel::Le)?;
        // Equalities first: each one cuts the dimension before any
        // inequality multiplies the rays.
        let ints = rows.iter().map(|row| int_row(row, dim)).collect::<Option<Vec<_>>>()?;
        for rel in [Rel::Eq, Rel::Le] {
            for (i, (row, c)) in ints.iter().zip(rows).enumerate() {
                if c.rel == rel {
                    cone.intersect(i + 1, row, rel)?;
                }
            }
        }
        Some(Generators { rays: cone.rays, lines: cone.lines, sat: cone.sat })
    }

    /// True iff the polyhedron has no points: no ray has `t > 0`.
    pub fn is_empty(&self) -> bool {
        self.rays.iter().all(|r| r[r.len() - 1] == 0)
    }

    /// Does every point of the polyhedron satisfy `row` (variables
    /// `< dim`)? An empty polyhedron implies everything.
    pub fn implies(&self, row: &IntRow) -> bool {
        if self.is_empty() {
            return true;
        }
        let sign = |g: &[i64]| {
            let mut at = &row.constant * &BigInt::from(g[g.len() - 1]);
            for (v, k) in &row.coeffs {
                at += &(k * &BigInt::from(g[*v]));
            }
            at.sign()
        };
        self.lines.iter().all(|l| sign(l) == Sign::Zero)
            && self.rays.iter().all(|r| match row.rel {
                Rel::Le => sign(r) != Sign::Positive,
                Rel::Eq => sign(r) == Sign::Zero,
            })
    }

    /// The facet-defining rows among the `rows` these generators were
    /// built from, as a keep mask, when the polyhedron is nonempty and
    /// full-dimensional; `None` when it has an implicit equality (an
    /// equality row with a variable, or an inequality every ray
    /// saturates).
    ///
    /// Every facet of the full-dimensional cone is defined by one of its
    /// constraints, so a row defines a facet iff the rays it saturates
    /// form a set no other constraint's set strictly contains. Constant
    /// rows never define a facet, and of two rows on one facet (positive
    /// multiples of each other) the later one is kept. That is exactly
    /// what an in-order leave-one-out redundancy pass keeps.
    pub fn facets(&self, rows: &[IntRow]) -> Option<Vec<bool>> {
        if self.is_empty() {
            return None;
        }
        let all = self.rays.len();
        let mut rays_of = vec![Bits::new(all); rows.len() + 1];
        for (k, sat) in self.sat.iter().enumerate() {
            for (c, bits) in rays_of.iter_mut().enumerate() {
                if sat.contains(c) {
                    bits.insert(k);
                }
            }
        }
        let constant = |c: &IntRow| c.coeffs.is_empty();
        for (c, bits) in rows.iter().zip(&rays_of[1..]) {
            if !constant(c) && (c.rel == Rel::Eq || bits.len() == all) {
                return None;
            }
        }
        let candidates: Vec<usize> = std::iter::once(0)
            .chain((1..=rows.len()).filter(|&i| !constant(&rows[i - 1])))
            .collect();
        let keep = (1..=rows.len())
            .map(|i| {
                !constant(&rows[i - 1])
                    && candidates.iter().all(|&j| {
                        j == i
                            || !rays_of[i].is_subset(&rays_of[j])
                            || rays_of[i] == rays_of[j] && j < i
                    })
            })
            .collect();
        Some(keep)
    }

    /// The rows of the closed convex hull of the nonempty polyhedra over
    /// `0..dim` that `parts` generate, in canonical integer form: its
    /// implicit equalities (`=` rows) and one `≤` row per facet, with no
    /// redundant row. `None` when the conversion gives up, as
    /// [`Generators::of`] does.
    ///
    /// The hull's homogenized cone is generated by every part's rays and
    /// lines, and its facets are the extreme rays of the polar cone. The
    /// polar ray of `t ≥ 0` (present when the hull is unbounded) is the one
    /// whose facet saturates no ray with `t > 0`; at `t = 1` it reads
    /// `-1 ≤ 0`, so it is dropped.
    pub fn hull_rows(dim: usize, parts: &[&Generators]) -> Option<Vec<IntRow>> {
        debug_assert!(parts.iter().all(|g| !g.is_empty()), "hull of an empty part");
        let width = dim + 1;
        let lines: Vec<&Vec<i64>> = parts.iter().flat_map(|g| &g.lines).collect();
        let mut rays: Vec<&Vec<i64>> = parts.iter().flat_map(|g| &g.rays).collect();
        rays.sort_unstable();
        rays.dedup();
        let mut polar = Cone {
            rays: Vec::new(),
            lines: (0..width).map(|i| unit(width, i)).collect(),
            sat: Vec::new(),
            seen: Bits::new(lines.len() + rays.len()),
        };
        for (i, line) in lines.iter().enumerate() {
            polar.intersect(i, line, Rel::Eq)?;
        }
        let mut vertices = Bits::new(lines.len() + rays.len());
        for (i, ray) in rays.iter().enumerate() {
            polar.intersect(lines.len() + i, ray, Rel::Le)?;
            if ray[dim] > 0 {
                vertices.insert(lines.len() + i);
            }
        }
        let row = |a: &[i64], rel: Rel| {
            let terms = a[..dim].iter().enumerate().filter(|&(_, &k)| k != 0);
            let coeffs = terms.map(|(v, &k)| (v, BigInt::from(k))).collect();
            IntRow { coeffs, constant: BigInt::from(a[dim]), rel }.normalized()
        };
        let eqs = polar.lines.iter().map(|a| row(a, Rel::Eq));
        let facets = polar.rays.iter().zip(&polar.sat);
        let les = facets.filter(|(_, sat)| !sat.and(&vertices).is_zero());
        Some(eqs.chain(les.map(|(a, _)| row(a, Rel::Le))).collect())
    }
}

/// The cone under construction.
struct Cone {
    rays: Vec<Vec<i64>>,
    lines: Vec<Vec<i64>>,
    sat: Vec<Bits>,
    /// The constraints intersected so far (all saturated by every line).
    seen: Bits,
}

impl Cone {
    /// Intersect with `a·y ≤ 0` (or `= 0`), constraint index `ci`.
    fn intersect(&mut self, ci: usize, a: &[i64], rel: Rel) -> Option<()> {
        let vals = |gs: &[Vec<i64>]| gs.iter().map(|g| dot(a, g)).collect::<Option<Vec<i128>>>();
        let line_vals = vals(&self.lines)?;
        if let Some(k) = line_vals.iter().position(|&v| v != 0) {
            // The constraint cuts the lineality space: shear every other
            // generator along line k onto the hyperplane, then keep line
            // k's feasible half as a ray (an inequality) or drop it.
            let pivot = self.lines.remove(k);
            let s = line_vals[k];
            let others = line_vals.iter().enumerate().filter(|&(i, _)| i != k).map(|(_, v)| v);
            for (line, &v) in self.lines.iter_mut().zip(others) {
                if v != 0 {
                    *line = combine(s, line, -v, &pivot)?;
                }
            }
            let ray_vals = vals(&self.rays)?;
            for ((ray, sat), &v) in self.rays.iter_mut().zip(&mut self.sat).zip(&ray_vals) {
                if v != 0 {
                    *ray = combine(s.abs(), ray, -s.signum() * v, &pivot)?;
                }
                sat.insert(ci);
            }
            if rel == Rel::Le {
                let half = pivot.iter().map(|&x| x.checked_mul(-s.signum() as i64));
                self.rays.push(half.collect::<Option<_>>()?);
                self.sat.push(self.seen.clone());
            }
        } else {
            let ray_vals = vals(&self.rays)?;
            let (mut pos, mut neg) = (Vec::new(), Vec::new());
            for (i, &v) in ray_vals.iter().enumerate() {
                match v.signum() {
                    1 => pos.push(i),
                    -1 => neg.push(i),
                    _ => {}
                }
            }
            // Two adjacent rays span a 2-face beyond the lineality space,
            // cut out by constraints of rank `width − lines − 2`.
            let needed = (a.len() - self.lines.len()).saturating_sub(2);
            let mut rays = Vec::new();
            let mut sat = Vec::new();
            for &p in &pos {
                for &n in &neg {
                    let common = self.sat[p].and(&self.sat[n]);
                    if common.len() < needed {
                        continue;
                    }
                    let blocked = (0..self.rays.len())
                        .any(|r| r != p && r != n && common.is_subset(&self.sat[r]));
                    if blocked {
                        continue;
                    }
                    let (vp, vn) = (ray_vals[p], ray_vals[n]);
                    rays.push(combine(vp, &self.rays[n], -vn, &self.rays[p])?);
                    let mut bits = common;
                    bits.insert(ci);
                    sat.push(bits);
                }
            }
            let old_rays = std::mem::take(&mut self.rays);
            let old_sat = std::mem::take(&mut self.sat);
            for ((ray, mut bits), v) in old_rays.into_iter().zip(old_sat).zip(ray_vals) {
                if v == 0 {
                    bits.insert(ci);
                }
                if v == 0 || v < 0 && rel == Rel::Le {
                    self.rays.push(ray);
                    self.sat.push(bits);
                }
            }
            self.rays.extend(rays);
            self.sat.extend(sat);
        }
        self.seen.insert(ci);
        (self.rays.len() <= MAX_RAYS).then_some(())
    }
}

fn unit(width: usize, i: usize) -> Vec<i64> {
    let mut u = vec![0; width];
    u[i] = 1;
    u
}

/// `a·g`, exactly, or `None` on `i128` overflow.
fn dot(a: &[i64], g: &[i64]) -> Option<i128> {
    a.iter().zip(g).try_fold(0i128, |acc, (&x, &y)| acc.checked_add(x as i128 * y as i128))
}

/// The primitive form of `p·u + q·w` (content gcd 1), or `None` when a
/// coordinate leaves `i64`.
fn combine(p: i128, u: &[i64], q: i128, w: &[i64]) -> Option<Vec<i64>> {
    let mut out = Vec::with_capacity(u.len());
    let mut g: u128 = 0;
    for (&x, &y) in u.iter().zip(w) {
        let v = p.checked_mul(x as i128)?.checked_add(q.checked_mul(y as i128)?)?;
        g = gcd(g, v.unsigned_abs());
        out.push(v);
    }
    let g = g.max(1) as i128;
    out.into_iter().map(|v| i64::try_from(v / g).ok()).collect()
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The homogenized integer row `(h, k)` of `row` over `0..dim`, or `None`
/// outside `i64`.
fn int_row(row: &IntRow, dim: usize) -> Option<Vec<i64>> {
    let mut out = vec![0; dim + 1];
    for (v, k) in &row.coeffs {
        out[*v] = k.to_i64()?;
    }
    out[dim] = row.constant.to_i64()?;
    Some(out)
}
