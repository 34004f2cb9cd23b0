//! The space of distinguished θ variables.
//!
//! For every predicate `pᵢ` of the SCC under analysis, the paper designates
//! a nonnegative vector `θᵢ` with one component per *bound* argument of
//! `pᵢ` (§4). This module owns the mapping from predicates to contiguous LP
//! variable indices, and renders solutions back in the paper's notation.

use argus_linear::{Rat, Var, VarPool};
use argus_logic::modes::ModeMap;
use argus_logic::PredKey;
use std::collections::BTreeMap;

/// Allocation of θ variables for the predicates of one SCC.
#[derive(Debug, Clone, Default)]
pub struct ThetaSpace {
    pool: VarPool,
    map: BTreeMap<PredKey, Vec<Var>>,
}

impl ThetaSpace {
    /// Empty space.
    pub fn new() -> ThetaSpace {
        ThetaSpace::default()
    }

    /// The θ space of an SCC: one variable per bound argument of each
    /// member, members in SCC order (a member without an adornment counts
    /// every argument as bound).
    pub(crate) fn for_scc(members: &[PredKey], modes: &ModeMap) -> ThetaSpace {
        let mut space = ThetaSpace::new();
        for p in members {
            let bound = modes.get(p).map(|a| a.bound_positions().len()).unwrap_or(p.arity);
            space.add_pred(p, bound);
        }
        space
    }

    /// Register `pred` with `bound_count` bound arguments; allocates that
    /// many θ variables. Idempotent.
    pub fn add_pred(&mut self, pred: &PredKey, bound_count: usize) {
        if self.map.contains_key(pred) {
            return;
        }
        let vars: Vec<Var> = (0..bound_count)
            .map(|i| self.pool.fresh(format!("theta[{}][{}]", pred.name, i + 1)))
            .collect();
        self.map.insert(pred.clone(), vars);
    }

    /// The θ variables of `pred`.
    ///
    /// # Panics
    ///
    /// Panics if the predicate was never registered.
    pub fn vars(&self, pred: &PredKey) -> &[Var] {
        self.map
            .get(pred)
            .unwrap_or_else(|| panic!("predicate {pred} not registered in theta space"))
    }

    /// All θ variables, across predicates.
    pub fn all_vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.map.values().flat_map(|v| v.iter().copied())
    }

    /// Total number of variables allocated.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True iff no variables allocated.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Registered predicates.
    pub fn preds(&self) -> impl Iterator<Item = &PredKey> {
        self.map.keys()
    }

    /// The variable pool (for rendering constraints with θ names).
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// Extract the per-predicate θ vectors from an LP solution point
    /// (missing variables read as 0).
    pub fn extract_witness(&self, point: &BTreeMap<Var, Rat>) -> BTreeMap<PredKey, Vec<Rat>> {
        self.map
            .iter()
            .map(|(p, vars)| {
                let vals =
                    vars.iter().map(|v| point.get(v).cloned().unwrap_or_else(Rat::zero)).collect();
                (p.clone(), vals)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_contiguous_and_idempotent() {
        let mut s = ThetaSpace::new();
        let p = PredKey::new("p", 3);
        let q = PredKey::new("q", 2);
        s.add_pred(&p, 2);
        s.add_pred(&q, 1);
        s.add_pred(&p, 2); // idempotent
        assert_eq!(s.len(), 3);
        assert_eq!(s.vars(&p), &[0, 1]);
        assert_eq!(s.vars(&q), &[2]);
        assert_eq!(s.all_vars().count(), 3);
    }

    #[test]
    fn witness_extraction() {
        let mut s = ThetaSpace::new();
        let p = PredKey::new("p", 2);
        s.add_pred(&p, 2);
        let mut pt = BTreeMap::new();
        pt.insert(0usize, Rat::new(1.into(), 2.into()));
        // var 1 missing => 0
        let w = s.extract_witness(&pt);
        assert_eq!(w[&p], vec![Rat::new(1.into(), 2.into()), Rat::zero()]);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_pred_panics() {
        let s = ThetaSpace::new();
        let _ = s.vars(&PredKey::new("nope", 1));
    }

    #[test]
    fn names_render() {
        let mut s = ThetaSpace::new();
        let p = PredKey::new("perm", 2);
        s.add_pred(&p, 1);
        assert_eq!(s.pool().name(0), Some("theta[perm][1]"));
    }
}
