//! Appendix C: allowing negative `δᵢⱼ` via path constraints.
//!
//! Instead of fixing each `δᵢⱼ ∈ {0, 1}` up front (§6.1), the δ's become
//! variables, and positivity of every cycle is enforced by Papadimitriou's
//! path-constraint encoding: introduce `πᵢⱼ` ("shortest path" lower
//! bounds) with
//!
//! ```text
//! πᵢⱼ ≤ δᵢⱼ                                (base case, for each edge i→j)
//! πᵢⱼ ≤ δᵢₖ + πₖⱼ      for k ∉ {i, j}     (first edge + remaining path)
//! πᵢᵢ ≥ 1                                  (positive cycles)
//! ```
//!
//! By induction `πᵢⱼ` is forced below the weight of *every* path `i → j`,
//! so the system is satisfiable exactly when the δ's give every cycle
//! weight ≥ 1. The π's are then eliminated by Fourier–Motzkin ("our
//! program quietly runs Fourier-Motzkin elimination on the πᵢⱼ"), leaving
//! linear constraints over the δ's alone, which join the θ feasibility
//! system.

use argus_linear::fm::{self, FmResult};
use argus_linear::{Constraint, ConstraintSystem, LinExpr, Rat, Rel, Var};
use argus_logic::PredKey;
use std::collections::{BTreeMap, BTreeSet};

/// Allocation of symbolic δ variables, one per SCC dependency edge.
#[derive(Debug, Clone, Default)]
pub struct DeltaVars {
    map: BTreeMap<(PredKey, PredKey), Var>,
}

impl DeltaVars {
    /// Allocate δ variables for `edges`, starting at `base`.
    pub fn allocate(edges: &BTreeSet<(PredKey, PredKey)>, base: Var) -> DeltaVars {
        let map = edges.iter().enumerate().map(|(k, e)| (e.clone(), base + k)).collect();
        DeltaVars { map }
    }

    /// The variable for edge `(head, sub)`.
    pub fn get(&self, head: &PredKey, sub: &PredKey) -> Option<Var> {
        self.map.get(&(head.clone(), sub.clone())).copied()
    }

    /// All δ variables.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.map.values().copied()
    }

    /// Number of δ variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff there are no δ variables.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate `(edge, var)`.
    pub fn iter(&self) -> impl Iterator<Item = (&(PredKey, PredKey), &Var)> {
        self.map.iter()
    }
}

/// Build the positive-cycle constraint system over the δ variables of
/// `deltas` for an SCC with `members`, eliminating the auxiliary π's.
/// `pi_base` must leave room: π uses `pi_base .. pi_base + n²` indices.
pub fn positive_cycle_constraints(
    members: &[PredKey],
    deltas: &DeltaVars,
    pi_base: Var,
) -> ConstraintSystem {
    let n = members.len();
    let index: BTreeMap<&PredKey, usize> =
        members.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let pi = |i: usize, j: usize| -> Var { pi_base + i * n + j };

    let mut sys = ConstraintSystem::new();
    // Base cases: π_ij <= δ_ij for existing edges.
    for ((h, s), &dv) in deltas.iter() {
        let (i, j) = (index[h], index[s]);
        sys.push(Constraint {
            expr: {
                let mut e = LinExpr::var(pi(i, j));
                e.add_term(dv, -Rat::one());
                e
            },
            rel: Rel::Le,
        });
    }
    // Path decomposition: π_ij <= δ_ik + π_kj  (k ≠ i, k ≠ j; edge i→k
    // must exist).
    for ((h, k_pred), &dv) in deltas.iter() {
        let i = index[h];
        let k = index[k_pred];
        if i == k {
            continue;
        }
        for j in 0..n {
            if j == k {
                continue;
            }
            let mut e = LinExpr::var(pi(i, j));
            e.add_term(dv, -Rat::one());
            e.add_term(pi(k, j), -Rat::one());
            sys.push(Constraint { expr: e, rel: Rel::Le });
        }
    }
    // Positive cycles: π_ii >= 1.
    for i in 0..n {
        sys.push(Constraint {
            expr: {
                let mut e = LinExpr::constant(Rat::one());
                e.add_term(pi(i, i), -Rat::one());
                e
            },
            rel: Rel::Le,
        });
    }

    // Eliminate the π's; keep only δ variables.
    let keep: BTreeSet<Var> = deltas.vars().collect();
    match fm::project_onto(&sys, &keep) {
        FmResult::Projected(out) => out,
        FmResult::Infeasible => {
            // π's can always be pushed low enough unless a πii ≥ 1 row has
            // no path support; that manifests as constraints on δ, not
            // infeasibility. Treat defensively as unsatisfiable-by-δ.
            let mut bad = ConstraintSystem::new();
            bad.push(Constraint { expr: LinExpr::constant(Rat::one()), rel: Rel::Le });
            bad
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_linear::simplex::feasible_point;

    fn pk(n: &str) -> PredKey {
        PredKey::new(n, 1)
    }

    fn edge(a: &str, b: &str) -> (PredKey, PredKey) {
        (pk(a), pk(b))
    }

    #[test]
    fn two_cycle_requires_positive_sum() {
        // Edges p→q and q→p: constraints must force δpq + δqp >= 1.
        let members = vec![pk("p"), pk("q")];
        let edges: BTreeSet<_> = [edge("p", "q"), edge("q", "p")].into_iter().collect();
        let dv = DeltaVars::allocate(&edges, 0);
        let sys = positive_cycle_constraints(&members, &dv, 10);
        let d_pq = dv.get(&pk("p"), &pk("q")).unwrap();
        let d_qp = dv.get(&pk("q"), &pk("p")).unwrap();
        let at = |a: i64, b: i64| {
            let mut pt = BTreeMap::new();
            pt.insert(d_pq, Rat::from_int(a));
            pt.insert(d_qp, Rat::from_int(b));
            pt
        };
        assert!(sys.holds_at(&at(1, 0)), "{sys}");
        assert!(sys.holds_at(&at(0, 1)));
        assert!(sys.holds_at(&at(-1, 2)), "negative delta allowed when cycle positive");
        assert!(!sys.holds_at(&at(0, 0)), "zero cycle must be excluded:\n{sys}");
        assert!(!sys.holds_at(&at(2, -2)));
    }

    #[test]
    fn self_loop_requires_delta_ge_one() {
        let members = vec![pk("p")];
        let edges: BTreeSet<_> = [edge("p", "p")].into_iter().collect();
        let dv = DeltaVars::allocate(&edges, 0);
        let sys = positive_cycle_constraints(&members, &dv, 10);
        let d = dv.get(&pk("p"), &pk("p")).unwrap();
        let at = |a: i64| {
            let mut pt = BTreeMap::new();
            pt.insert(d, Rat::from_int(a));
            pt
        };
        assert!(sys.holds_at(&at(1)));
        assert!(sys.holds_at(&at(5)));
        assert!(!sys.holds_at(&at(0)), "{sys}");
    }

    #[test]
    fn triangle_cycles() {
        // a→b→c→a plus self loop a→a.
        let members = vec![pk("a"), pk("b"), pk("c")];
        let edges: BTreeSet<_> =
            [edge("a", "b"), edge("b", "c"), edge("c", "a"), edge("a", "a")].into_iter().collect();
        let dv = DeltaVars::allocate(&edges, 0);
        let sys = positive_cycle_constraints(&members, &dv, 10);
        let v = |a: &str, b: &str| dv.get(&pk(a), &pk(b)).unwrap();
        let at = |ab: i64, bc: i64, ca: i64, aa: i64| {
            let mut pt = BTreeMap::new();
            pt.insert(v("a", "b"), Rat::from_int(ab));
            pt.insert(v("b", "c"), Rat::from_int(bc));
            pt.insert(v("c", "a"), Rat::from_int(ca));
            pt.insert(v("a", "a"), Rat::from_int(aa));
            pt
        };
        assert!(sys.holds_at(&at(0, 0, 1, 1)), "{sys}");
        assert!(sys.holds_at(&at(-1, 1, 1, 1)));
        assert!(!sys.holds_at(&at(0, 0, 0, 1)), "triangle cycle weight 0");
        assert!(!sys.holds_at(&at(1, 1, 1, 0)), "self loop weight 0");
        // The projected system is satisfiable at all.
        assert!(feasible_point(&sys, &BTreeSet::new()).is_some());
    }

    #[test]
    fn no_edges_no_constraints() {
        let members = vec![pk("p")];
        let edges: BTreeSet<(PredKey, PredKey)> = BTreeSet::new();
        let dv = DeltaVars::allocate(&edges, 0);
        let sys = positive_cycle_constraints(&members, &dv, 10);
        // π_ii >= 1 is vacuously satisfiable by a large π with no upper
        // bound... π_ii has no upper bound rows, so elimination drops the
        // row entirely: no δ constraints remain.
        assert!(feasible_point(&sys, &BTreeSet::new()).is_some());
    }
}
