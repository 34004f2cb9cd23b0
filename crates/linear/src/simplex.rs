//! Two-phase simplex over exact rationals.
//!
//! The paper phrases its termination condition as an LP feasibility/optimality
//! question (its Eq. 4–6). We provide a small, exact solver: Bland's rule
//! (which guarantees termination without cycling), dense tableau, arbitrary
//! precision rationals. Exactness is what matters, because a feasibility
//! misjudgement is a soundness bug in the termination analyzer.
//!
//! Problems have few variables (2–4 argument sizes, a handful of θ/β) but
//! can have many rows: a size-relation hull reaches 60–80 rows before it is
//! minimized. A dense primal tableau has one row per constraint, so an
//! implication test `is a·x + k ≤ 0 implied?` ([`is_implied`],
//! [`irredundant`]) is answered through its Farkas dual instead:
//!
//! ```text
//! max a·x  s.t.  aⱼ·x + kⱼ ≤ 0 (=0),  x_v ≥ 0 (v ∈ nonneg)
//!   =  min −Σ λⱼkⱼ  s.t.  Σ λⱼaⱼ − μ = a,  λⱼ ≥ 0 (free for =),  μ ≥ 0
//! ```
//!
//! The dual tableau has one row per variable. Over exact rationals strong
//! duality makes the boolean identical to the primal one: a dual optimum is
//! the primal maximum, an unbounded dual means the system is infeasible
//! (so it implies everything), and an infeasible dual means the system is
//! infeasible or the maximum is unbounded, which one primal feasibility
//! check tells apart.
//!
//! This dual is the crate's one LP implication test. [`is_implied`] asks
//! it once per row: for polyhedra that the generator route does not cover
//! ([`crate::poly`]) and for the FM tier 3 redundancy test ([`crate::fm`]).
//! [`irredundant`] asks it once per row of a leave-one-out pass.

use crate::expr::{Constraint, ConstraintSystem, LinExpr, Rel, Var};
use crate::rat::Rat;
use std::collections::{BTreeMap, BTreeSet};

#[cfg(test)]
thread_local! {
    /// Unit-test instrumentation: counts the LPs solved (every tableau
    /// solve) so callers' tests can pin "answered without an LP".
    pub(crate) static LP_SOLVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Result of solving a linear program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpOutcome {
    /// No point satisfies the constraints.
    Infeasible,
    /// The objective decreases without bound over the feasible region.
    Unbounded,
    /// An optimal solution.
    Optimal {
        /// Minimum objective value.
        value: Rat,
        /// A point attaining it (vars absent from the map are zero).
        point: BTreeMap<Var, Rat>,
    },
}

impl LpOutcome {
    /// The optimal point, if any.
    pub fn point(&self) -> Option<&BTreeMap<Var, Rat>> {
        match self {
            LpOutcome::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }

    /// The optimal value, if any.
    pub fn value(&self) -> Option<&Rat> {
        match self {
            LpOutcome::Optimal { value, .. } => Some(value),
            _ => None,
        }
    }
}

/// A linear program: minimize `objective` subject to `constraints`, with the
/// variables in `nonneg` restricted to be ≥ 0 and all others free.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Objective to minimize.
    pub objective: LinExpr,
    /// Constraint conjunction.
    pub constraints: ConstraintSystem,
    /// Variables restricted to be nonnegative; all others range over ℚ.
    pub nonneg: BTreeSet<Var>,
}

impl LpProblem {
    /// A feasibility problem (zero objective).
    pub fn feasibility(constraints: ConstraintSystem, nonneg: BTreeSet<Var>) -> LpProblem {
        LpProblem { objective: LinExpr::zero(), constraints, nonneg }
    }

    /// Solve by two-phase simplex.
    pub fn solve(&self) -> LpOutcome {
        Tableau::build(&self.objective, self.constraints.constraints().iter(), &self.nonneg).solve()
    }

    /// Minimize the given objective over this problem's constraints.
    pub fn minimize(&self, objective: LinExpr) -> LpOutcome {
        Tableau::build(&objective, self.constraints.constraints().iter(), &self.nonneg).solve()
    }

    /// Maximize: negate, minimize, negate back.
    pub fn maximize(&self, objective: LinExpr) -> LpOutcome {
        match self.minimize(-objective) {
            LpOutcome::Optimal { value, point } => LpOutcome::Optimal { value: -value, point },
            other => other,
        }
    }
}

/// Decide whether `constraints` (with `nonneg` sign restrictions) has a
/// solution; returns a witness point if so.
pub fn feasible_point(
    constraints: &ConstraintSystem,
    nonneg: &BTreeSet<Var>,
) -> Option<BTreeMap<Var, Rat>> {
    match Tableau::build(&LinExpr::zero(), constraints.constraints().iter(), nonneg).solve() {
        LpOutcome::Optimal { point, .. } => Some(point),
        LpOutcome::Unbounded => unreachable!("zero objective cannot be unbounded"),
        LpOutcome::Infeasible => None,
    }
}

/// Check whether `candidate` (an inequality or equality) is implied by
/// `system` over the given sign restrictions: i.e. no feasible point of
/// `system` violates it. ([`irredundant`] runs a batch of these for
/// redundancy removal.)
///
/// Solved through the Farkas dual (see the module docs).
pub fn is_implied(
    system: &ConstraintSystem,
    nonneg: &BTreeSet<Var>,
    candidate: &Constraint,
) -> bool {
    let mut vars = system.vars();
    vars.extend(candidate.expr.vars());
    let vars: Vec<Var> = vars.into_iter().collect();
    let rows = system.constraints().iter();
    implied_by(rows, &vars, nonneg, candidate, false, &mut LpStats::default())
}

/// LP work counters of the implication tests: how many dual tableaux were
/// solved and how many rows they had in total, one per variable.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LpStats {
    /// Implication LPs solved (an equality candidate takes up to two).
    pub solves: u64,
    /// Sum of their tableau row counts.
    pub tableau_rows: u64,
}

/// Greedy in-order redundancy removal over free variables: for each row in
/// order, drop it when the rows still kept (earlier survivors and every
/// later row) imply it. Returns the kept rows, in order, or `None` when
/// `sys` is infeasible.
///
/// An inequality that is the only remaining row bounding some variable in
/// its direction, with no equality on that variable, is kept without an
/// LP: from any point of the other rows, a ray along that axis violates it
/// and no other row, so the others cannot imply it.
///
/// Feasibility of `sys` is decided once up front. A subset of a feasible
/// system's rows is feasible, so each leave-one-out test is one dual LP,
/// and a dual infeasibility means "not implied" without a second LP.
/// Implication LPs are counted into `stats`.
pub fn irredundant(sys: &ConstraintSystem, stats: &mut LpStats) -> Option<ConstraintSystem> {
    let kept = irredundant_mask(sys, stats)?;
    let rows = sys.constraints().iter().zip(kept).filter(|&(_, k)| k);
    Some(ConstraintSystem::from_constraints(rows.map(|(c, _)| c.clone()).collect()))
}

/// The rows [`irredundant`] keeps, as a keep mask over `sys`'s rows.
pub fn irredundant_mask(sys: &ConstraintSystem, stats: &mut LpStats) -> Option<Vec<bool>> {
    let free = BTreeSet::new();
    feasible_point(sys, &free)?;
    let rows = sys.constraints();
    let mut kept = vec![true; rows.len()];
    let mut bounds = AxisBounds::default();
    for c in rows {
        bounds.count(c, 1);
    }
    let vars: Vec<Var> = sys.vars().into_iter().collect();
    for (i, row) in rows.iter().enumerate() {
        if bounds.sole_bound(row) {
            continue;
        }
        kept[i] = false;
        let others = rows.iter().zip(&kept).filter(|&(_, &k)| k).map(|(c, _)| c);
        if implied_by(others, &vars, &free, row, true, stats) {
            bounds.count(row, -1);
        } else {
            kept[i] = true;
        }
    }
    Some(kept)
}

/// Does the conjunction of `rows` imply `candidate`? `vars` lists (sorted)
/// every variable of the rows and the candidate; `known_feasible` says the
/// caller has already found the rows feasible.
fn implied_by<'a, I>(
    rows: I,
    vars: &[Var],
    nonneg: &BTreeSet<Var>,
    candidate: &Constraint,
    known_feasible: bool,
    stats: &mut LpStats,
) -> bool
where
    I: Iterator<Item = &'a Constraint> + Clone,
{
    // candidate: expr <= 0. It fails to be implied iff max expr > 0.
    // candidate: expr = 0. Implied iff max expr <= 0 and max -expr <= 0.
    let neg = -&candidate.expr;
    let halves: &[&LinExpr] =
        if candidate.rel == Rel::Le { &[&candidate.expr] } else { &[&candidate.expr, &neg] };
    for expr in halves {
        match dual_implies_le(rows.clone(), vars, nonneg, expr, stats) {
            Some(true) => {}
            Some(false) => return false,
            // The dual is infeasible: the rows are infeasible (and imply
            // everything) or the maximum is unbounded (not implied).
            None => {
                return !known_feasible
                    && Tableau::build(&LinExpr::zero(), rows, nonneg).solve()
                        == LpOutcome::Infeasible
            }
        }
    }
    true
}

/// `max expr ≤ 0` over `rows` by the Farkas dual, one tableau row per
/// variable of `vars` (sorted, covering the rows and `expr`). `None` when
/// the dual is infeasible: the primal is then infeasible or unbounded.
fn dual_implies_le<'a>(
    rows: impl Iterator<Item = &'a Constraint> + Clone,
    vars: &[Var],
    nonneg: &BTreeSet<Var>,
    expr: &LinExpr,
    stats: &mut LpStats,
) -> Option<bool> {
    let t = Tableau::farkas_dual(rows, vars, nonneg, expr);
    stats.solves += 1;
    stats.tableau_rows += t.rows.len() as u64;
    match t.solve() {
        // An unbounded dual certifies an infeasible primal.
        LpOutcome::Unbounded => Some(true),
        LpOutcome::Infeasible => None,
        // Strong duality: the dual minimum is the primal maximum of the
        // variable part of `expr`.
        LpOutcome::Optimal { value, .. } => Some(!(&value + expr.constant_term()).is_positive()),
    }
}

/// Per-variable row counts for [`irredundant`]'s LP-free keep test: how
/// many inequalities bound each variable from above (positive
/// coefficient) and from below (negative), and how many equalities
/// mention it.
#[derive(Default)]
struct AxisBounds {
    upper: BTreeMap<Var, i64>,
    lower: BTreeMap<Var, i64>,
    eqs: BTreeMap<Var, i64>,
}

impl AxisBounds {
    /// Add (`delta = 1`) or remove (`-1`) one row's contribution.
    fn count(&mut self, c: &Constraint, delta: i64) {
        for (v, a) in c.expr.terms() {
            let side = match c.rel {
                Rel::Eq => &mut self.eqs,
                Rel::Le if a.is_positive() => &mut self.upper,
                Rel::Le => &mut self.lower,
            };
            *side.entry(v).or_insert(0) += delta;
        }
    }

    /// Is the counted inequality `c` the sole row bounding one of its
    /// variables in its direction, with no equality on that variable?
    fn sole_bound(&self, c: &Constraint) -> bool {
        let counted = |side: &BTreeMap<Var, i64>, v: Var| side.get(&v).copied().unwrap_or(0);
        c.rel == Rel::Le
            && c.expr.terms().any(|(v, a)| {
                let side = if a.is_positive() { &self.upper } else { &self.lower };
                counted(side, v) == 1 && counted(&self.eqs, v) == 0
            })
    }
}

/// Internal dense simplex tableau in equality standard form
/// `A·x = b, x ≥ 0`, minimize `c·x`.
struct Tableau {
    /// Rows of A augmented with b as the last column.
    rows: Vec<Vec<Rat>>,
    /// Objective row (phase-2 cost), length = num_cols.
    cost: Vec<Rat>,
    /// Constant offset of the objective.
    cost_offset: Rat,
    /// Column index of the basic variable of each row.
    basis: Vec<usize>,
    /// Total structural + slack columns (excludes artificials until added).
    num_cols: usize,
    /// Map from user variable to (plus-column, optional minus-column).
    var_cols: BTreeMap<Var, (usize, Option<usize>)>,
}

impl Tableau {
    fn build<'a>(
        objective: &LinExpr,
        constraints: impl Iterator<Item = &'a Constraint> + Clone,
        nonneg: &BTreeSet<Var>,
    ) -> Tableau {
        // Collect all variables from constraints and objective.
        let mut vars: BTreeSet<Var> = constraints.clone().flat_map(|c| c.expr.vars()).collect();
        vars.extend(objective.vars());

        // Assign columns: nonneg vars get one column, free vars two (x+ - x-).
        let mut var_cols: BTreeMap<Var, (usize, Option<usize>)> = BTreeMap::new();
        let mut next_col = 0usize;
        for &v in &vars {
            if nonneg.contains(&v) {
                var_cols.insert(v, (next_col, None));
                next_col += 1;
            } else {
                var_cols.insert(v, (next_col, Some(next_col + 1)));
                next_col += 2;
            }
        }

        // One slack column per inequality.
        let n_slacks = constraints.clone().filter(|c| c.rel == Rel::Le).count();
        let first_slack = next_col;
        let num_cols = next_col + n_slacks;

        // Build rows: expr REL 0 becomes  Σ a·cols (+ slack) = -constant.
        let mut rows: Vec<Vec<Rat>> = Vec::new();
        let mut slack_idx = first_slack;
        for c in constraints {
            let mut row = vec![Rat::zero(); num_cols + 1];
            for (v, a) in c.expr.terms() {
                let (pc, mc) = var_cols[&v];
                row[pc] += a;
                if let Some(mc) = mc {
                    row[mc] -= a;
                }
            }
            // rhs
            row[num_cols] = -c.expr.constant_term().clone();
            if c.rel == Rel::Le {
                row[slack_idx] = Rat::one();
                slack_idx += 1;
            }
            // Make rhs nonnegative for phase 1.
            if row[num_cols].is_negative() {
                for x in row.iter_mut() {
                    *x = -&*x;
                }
            }
            rows.push(row);
        }

        // Phase-2 cost from the objective.
        let mut cost = vec![Rat::zero(); num_cols];
        for (v, a) in objective.terms() {
            let (pc, mc) = var_cols[&v];
            cost[pc] += a;
            if let Some(mc) = mc {
                cost[mc] -= a;
            }
        }

        Tableau {
            rows,
            cost,
            cost_offset: objective.constant_term().clone(),
            basis: Vec::new(),
            num_cols,
            var_cols,
        }
    }

    /// The Farkas dual of `max expr` over `rows` (sign restrictions
    /// `nonneg`), as a minimization with one row per variable of `vars`:
    /// `Σ λⱼaⱼ − μ = a` over the variables, objective `−Σ λⱼkⱼ`, with
    /// `λⱼ ≥ 0` for an inequality row (two columns `λ⁺ − λ⁻` for an
    /// equality) and one `μ_v ≥ 0` column per nonnegative variable. Its
    /// optimum is the maximum of `expr`'s variable part; no point is read
    /// back, so `var_cols` stays empty.
    fn farkas_dual<'a>(
        rows: impl Iterator<Item = &'a Constraint> + Clone,
        vars: &[Var],
        nonneg: &BTreeSet<Var>,
        expr: &LinExpr,
    ) -> Tableau {
        let lambda_cols: usize = rows.clone().map(|c| if c.rel == Rel::Le { 1 } else { 2 }).sum();
        let mu_vars = vars.iter().filter(|v| nonneg.contains(v)).count();
        let num_cols = lambda_cols + mu_vars;
        let at = |v: Var| vars.binary_search(&v).expect("variable listed");
        let mut tab = vec![vec![Rat::zero(); num_cols + 1]; vars.len()];
        let mut cost = vec![Rat::zero(); num_cols];
        let mut col = 0;
        for c in rows {
            for (v, a) in c.expr.terms() {
                tab[at(v)][col] += a;
            }
            cost[col] = -c.expr.constant_term();
            if c.rel == Rel::Eq {
                for (v, a) in c.expr.terms() {
                    tab[at(v)][col + 1] -= a;
                }
                cost[col + 1] = c.expr.constant_term().clone();
                col += 1;
            }
            col += 1;
        }
        for (r, v) in vars.iter().enumerate() {
            if nonneg.contains(v) {
                tab[r][col] = -Rat::one();
                col += 1;
            }
        }
        for (v, a) in expr.terms() {
            tab[at(v)][num_cols] = a.clone();
        }
        // Make rhs nonnegative for phase 1.
        for row in &mut tab {
            if row[num_cols].is_negative() {
                for x in row.iter_mut() {
                    *x = -&*x;
                }
            }
        }
        Tableau {
            rows: tab,
            cost,
            cost_offset: Rat::zero(),
            basis: Vec::new(),
            num_cols,
            var_cols: BTreeMap::new(),
        }
    }

    fn solve(mut self) -> LpOutcome {
        #[cfg(test)]
        LP_SOLVES.with(|c| c.set(c.get() + 1));
        let m = self.rows.len();
        if m == 0 {
            // No constraints: objective must be constant or the LP is
            // unbounded in some direction with a nonzero cost coefficient
            // (every column is a nonnegative variable that can grow).
            for c in &self.cost {
                if c.is_negative() {
                    return LpOutcome::Unbounded;
                }
            }
            // All-zero point is optimal.
            return LpOutcome::Optimal { value: self.cost_offset.clone(), point: BTreeMap::new() };
        }

        // Phase 1: add one artificial per row, minimize their sum.
        let n = self.num_cols;
        let total = n + m;
        for (i, row) in self.rows.iter_mut().enumerate() {
            let rhs = row.pop().expect("rhs");
            row.extend(std::iter::repeat_with(Rat::zero).take(m));
            row[n + i] = Rat::one();
            row.push(rhs);
        }
        self.basis = (n..n + m).collect();

        // Phase-1 reduced cost row: minimize Σ artificials. Start from
        // cost row = Σ_i (-row_i) over structural columns (standard trick).
        let mut obj = vec![Rat::zero(); total + 1];
        for row in &self.rows {
            for j in 0..=total {
                obj[j] -= &row[j];
            }
        }
        // Zero out artificial columns in obj (they are basic with cost 1):
        for o in obj.iter_mut().take(total).skip(n) {
            *o = Rat::zero();
        }

        if !Self::run_simplex(&mut self.rows, &mut obj, &mut self.basis, total) {
            unreachable!("phase 1 is bounded below by 0");
        }
        // obj[total] holds -(current phase-1 objective).
        if obj[total].is_negative() {
            return LpOutcome::Infeasible;
        }

        // Drive any artificial variables out of the basis (degenerate rows).
        for i in 0..m {
            if self.basis[i] >= n {
                // Find a structural column with nonzero coefficient to pivot.
                let pivot_col = (0..n).find(|&j| !self.rows[i][j].is_zero());
                match pivot_col {
                    Some(j) => {
                        Self::pivot(&mut self.rows, &mut obj, &mut self.basis, i, j);
                    }
                    None => {
                        // Row is redundant (all-zero over structural columns);
                        // its rhs must be zero here. Leave it; it is inert.
                    }
                }
            }
        }

        // Phase 2: install the real cost row, priced out over the basis.
        let mut obj2 = vec![Rat::zero(); total + 1];
        obj2[..n].clone_from_slice(&self.cost);
        // Price out basic variables: obj2 -= cost[basic] * row.
        for (i, &b) in self.basis.iter().enumerate() {
            if b < n && !obj2[b].is_zero() {
                let factor = obj2[b].clone();
                for (o, cell) in obj2.iter_mut().zip(&self.rows[i]) {
                    if cell.is_zero() {
                        continue;
                    }
                    *o -= &(&factor * cell);
                }
            }
        }
        // Forbid re-entry of artificial columns.
        let artificial_start = n;

        if !Self::run_simplex_restricted(
            &mut self.rows,
            &mut obj2,
            &mut self.basis,
            total,
            artificial_start,
        ) {
            return LpOutcome::Unbounded;
        }

        // Read off the solution.
        let mut col_val = vec![Rat::zero(); total];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < total {
                col_val[b] = self.rows[i][total].clone();
            }
        }
        let mut point = BTreeMap::new();
        for (&v, &(pc, mc)) in &self.var_cols {
            let mut val = col_val[pc].clone();
            if let Some(mc) = mc {
                val -= &col_val[mc];
            }
            if !val.is_zero() {
                point.insert(v, val);
            }
        }
        // obj2[total] = -(objective - priced constant), i.e. the negated
        // current objective value of the basic solution.
        let value = &self.cost_offset + &(-obj2[total].clone());
        LpOutcome::Optimal { value, point }
    }

    /// Standard simplex loop with Bland's rule. Returns false on
    /// unboundedness. `obj` has length `total + 1`; reduced costs in
    /// `obj[0..total]`, negated objective value in `obj[total]`.
    fn run_simplex(
        rows: &mut [Vec<Rat>],
        obj: &mut [Rat],
        basis: &mut [usize],
        total: usize,
    ) -> bool {
        Self::run_simplex_restricted(rows, obj, basis, total, total)
    }

    /// Like [`run_simplex`] but columns `>= forbidden_from` may not enter
    /// the basis (used to keep artificials out during phase 2).
    fn run_simplex_restricted(
        rows: &mut [Vec<Rat>],
        obj: &mut [Rat],
        basis: &mut [usize],
        total: usize,
        forbidden_from: usize,
    ) -> bool {
        loop {
            // Bland: entering column = smallest index with negative reduced
            // cost.
            let entering = (0..total.min(forbidden_from)).find(|&j| obj[j].is_negative());
            let Some(e) = entering else {
                return true; // optimal
            };
            // Ratio test, Bland tie-break by smallest basis index.
            let mut leave: Option<(usize, Rat)> = None;
            for (i, row) in rows.iter().enumerate() {
                if row[e].is_positive() {
                    let ratio = &row[total] / &row[e];
                    match &leave {
                        None => leave = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < *lr || (ratio == *lr && basis[i] < basis[*li]) {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((l, _)) = leave else {
                return false; // unbounded
            };
            Self::pivot(rows, obj, basis, l, e);
        }
    }

    /// Pivot on (row l, column e).
    fn pivot(rows: &mut [Vec<Rat>], obj: &mut [Rat], basis: &mut [usize], l: usize, e: usize) {
        let piv = rows[l][e].clone();
        debug_assert!(!piv.is_zero());
        let inv = piv.recip();
        for x in rows[l].iter_mut() {
            *x *= &inv;
        }
        for i in 0..rows.len() {
            if i == l || rows[i][e].is_zero() {
                continue;
            }
            let factor = rows[i][e].clone();
            // Split-borrow the pivot row away from row i to combine them.
            let (pivot_row, target_row) = if i < l {
                let (a, b) = rows.split_at_mut(l);
                (&b[0], &mut a[i])
            } else {
                let (a, b) = rows.split_at_mut(i);
                (&a[l], &mut b[0])
            };
            for (t, cell) in target_row.iter_mut().zip(pivot_row.iter()) {
                if cell.is_zero() {
                    continue;
                }
                *t -= &(&factor * cell);
            }
        }
        if !obj[e].is_zero() {
            let factor = obj[e].clone();
            for (o, cell) in obj.iter_mut().zip(rows[l].iter()) {
                if cell.is_zero() {
                    continue;
                }
                *o -= &(&factor * cell);
            }
        }
        basis[l] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(n.into(), d.into())
    }

    fn all_nonneg(vars: impl IntoIterator<Item = Var>) -> BTreeSet<Var> {
        vars.into_iter().collect()
    }

    #[test]
    fn simple_minimization() {
        // min x subject to x >= 3 (x >= 0): optimum 3.
        let x = 0;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(x), LinExpr::constant(r(3, 1))));
        let p = LpProblem { objective: LinExpr::var(x), constraints: sys, nonneg: all_nonneg([x]) };
        match p.solve() {
            LpOutcome::Optimal { value, point } => {
                assert_eq!(value, r(3, 1));
                assert_eq!(point.get(&x), Some(&r(3, 1)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn classic_lp() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
        // Optimum 36 at (2, 6). (Dantzig's textbook example.)
        let (x, y) = (0, 1);
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::le(LinExpr::var(x), LinExpr::constant(r(4, 1))));
        sys.push(Constraint::le(LinExpr::term(y, r(2, 1)), LinExpr::constant(r(12, 1))));
        sys.push(Constraint::le(
            &LinExpr::term(x, r(3, 1)) + &LinExpr::term(y, r(2, 1)),
            LinExpr::constant(r(18, 1)),
        ));
        let p = LpProblem::feasibility(sys, all_nonneg([x, y]));
        let obj = &LinExpr::term(x, r(3, 1)) + &LinExpr::term(y, r(5, 1));
        match p.maximize(obj) {
            LpOutcome::Optimal { value, point } => {
                assert_eq!(value, r(36, 1));
                assert_eq!(point.get(&x), Some(&r(2, 1)));
                assert_eq!(point.get(&y), Some(&r(6, 1)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn infeasible() {
        let x = 0;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(x), LinExpr::constant(r(2, 1))));
        sys.push(Constraint::le(LinExpr::var(x), LinExpr::constant(r(1, 1))));
        let p = LpProblem::feasibility(sys, all_nonneg([x]));
        assert_eq!(p.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded() {
        // min -x, x >= 0, no upper bound.
        let x = 0;
        let p = LpProblem {
            objective: -&LinExpr::var(x),
            constraints: ConstraintSystem::new(),
            nonneg: all_nonneg([x]),
        };
        assert_eq!(p.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn free_variables() {
        // min x, x free, x >= -5 is the only bound: optimum -5.
        let x = 0;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(x), LinExpr::constant(r(-5, 1))));
        let p = LpProblem { objective: LinExpr::var(x), constraints: sys, nonneg: BTreeSet::new() };
        match p.solve() {
            LpOutcome::Optimal { value, point } => {
                assert_eq!(value, r(-5, 1));
                assert_eq!(point.get(&x), Some(&r(-5, 1)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn free_variable_unbounded() {
        // min x with x free and no constraints: unbounded.
        let p = LpProblem {
            objective: LinExpr::var(0),
            constraints: ConstraintSystem::new(),
            nonneg: BTreeSet::new(),
        };
        // A free variable with no constraints builds zero rows but two
        // columns; the minus column has negative cost.
        assert_eq!(p.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // min x + y st x + y = 4, x - y = 2, x,y >= 0 => x=3, y=1, value 4.
        let (x, y) = (0, 1);
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(&LinExpr::var(x) + &LinExpr::var(y), LinExpr::constant(r(4, 1))));
        sys.push(Constraint::eq(&LinExpr::var(x) - &LinExpr::var(y), LinExpr::constant(r(2, 1))));
        let p = LpProblem {
            objective: &LinExpr::var(x) + &LinExpr::var(y),
            constraints: sys,
            nonneg: all_nonneg([x, y]),
        };
        match p.solve() {
            LpOutcome::Optimal { value, point } => {
                assert_eq!(value, r(4, 1));
                assert_eq!(point.get(&x), Some(&r(3, 1)));
                assert_eq!(point.get(&y), Some(&r(1, 1)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn degenerate_redundant_rows() {
        // x = 1 stated twice plus x <= 1: phase 1 leaves a redundant row.
        let x = 0;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(LinExpr::var(x), LinExpr::constant(r(1, 1))));
        sys.push(Constraint::eq(LinExpr::var(x), LinExpr::constant(r(1, 1))));
        sys.push(Constraint::le(LinExpr::var(x), LinExpr::constant(r(1, 1))));
        let p = LpProblem::feasibility(sys, all_nonneg([x]));
        match p.solve() {
            LpOutcome::Optimal { point, .. } => {
                assert_eq!(point.get(&x), Some(&r(1, 1)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn objective_with_constant_offset() {
        // min x + 10 st x >= 2 => 12.
        let x = 0;
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(x), LinExpr::constant(r(2, 1))));
        let p = LpProblem {
            objective: &LinExpr::var(x) + &LinExpr::constant(r(10, 1)),
            constraints: sys,
            nonneg: all_nonneg([x]),
        };
        assert_eq!(p.solve().value(), Some(&r(12, 1)));
    }

    #[test]
    fn implication_checks() {
        let (x, y, z) = (0, 1, 2);
        let le = |e: LinExpr, k: i64| Constraint::le(e, LinExpr::constant(r(k, 1)));
        let konst = |k: i64| le(LinExpr::constant(r(k, 1)), 0);
        // {x <= 1, y <= x} with x, y, z >= 0.
        let mut sys = ConstraintSystem::new();
        sys.push(le(LinExpr::var(x), 1));
        sys.push(Constraint::le(LinExpr::var(y), LinExpr::var(x)));
        // {x >= 2, x <= 1}: infeasible.
        let mut infeasible = ConstraintSystem::new();
        infeasible.push(Constraint::ge(LinExpr::var(x), LinExpr::constant(r(2, 1))));
        infeasible.push(le(LinExpr::var(x), 1));
        let empty = ConstraintSystem::new();
        let (nn, free) = (all_nonneg([x, y, z]), BTreeSet::new());
        let cases = [
            (&sys, &nn, le(LinExpr::var(x), 2), true),
            (&sys, &nn, Constraint::le(LinExpr::var(x), LinExpr::constant(r(1, 2))), false),
            (&sys, &nn, le(LinExpr::var(y), 1), true),
            (&sys, &nn, le(&LinExpr::var(x) + &LinExpr::var(y), 2), true),
            // z is absent from the system: unbounded above, and a
            // nonnegative z sits at 0 for -z <= 0; a free one does not.
            (&sys, &nn, le(LinExpr::var(z), 10), false),
            (&sys, &nn, le(-&LinExpr::var(z), 0), true),
            (&sys, &free, le(-&LinExpr::var(z), 0), false),
            // An infeasible system implies everything, a false row too.
            (&infeasible, &free, konst(5), true),
            (&infeasible, &free, le(LinExpr::var(z), 0), true),
            // The empty system implies only true constant rows.
            (&empty, &free, konst(-1), true),
            (&empty, &free, konst(1), false),
            (&empty, &free, le(LinExpr::var(x), 0), false),
            (&empty, &nn, le(-&LinExpr::var(x), 0), true),
        ];
        for (system, nonneg, cand, expected) in cases {
            assert_eq!(is_implied(system, nonneg, &cand), expected, "{system} ⊨ {cand:?}");
        }
    }

    #[test]
    fn implied_equality() {
        // {x + y = 3, x - y = 1} implies x = 2.
        let (x, y) = (0, 1);
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(&LinExpr::var(x) + &LinExpr::var(y), LinExpr::constant(r(3, 1))));
        sys.push(Constraint::eq(&LinExpr::var(x) - &LinExpr::var(y), LinExpr::constant(r(1, 1))));
        let nn = BTreeSet::new();
        let cand = Constraint::eq(LinExpr::var(x), LinExpr::constant(r(2, 1)));
        assert!(is_implied(&sys, &nn, &cand));
        let wrong = Constraint::eq(LinExpr::var(x), LinExpr::constant(r(1, 1)));
        assert!(!is_implied(&sys, &nn, &wrong));
    }

    #[test]
    fn feasible_point_satisfies_system() {
        let (x, y) = (0, 1);
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(&LinExpr::var(x) + &LinExpr::var(y), LinExpr::constant(r(1, 1))));
        sys.push(Constraint::le(LinExpr::var(x), LinExpr::var(y)));
        let nn = all_nonneg([x, y]);
        let pt = feasible_point(&sys, &nn).expect("feasible");
        assert!(sys.holds_at(&pt));
    }
}
