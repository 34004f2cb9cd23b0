//! Lexicographic extension of the linear-decrease method.
//!
//! The paper's §7 concedes that a *single* nonnegative linear combination
//! cannot capture every terminating recursion — Ackermann's function, with
//! its "first argument decreases OR stays equal while the second
//! decreases" shape, is the canonical miss. The standard follow-on (known
//! from later work on linear ranking functions) is a **lexicographic
//! tuple** of the paper's measures:
//!
//! 1. find θ-vectors (one per SCC predicate) under which *every* rule ×
//!    recursive-subgoal pair is non-increasing (`θᵀx ≥ βᵀy`) and at least
//!    one pair strictly decreases (`θᵀx ≥ βᵀy + 1`);
//! 2. discharge every pair that strictly decreases under the found level;
//! 3. repeat on the remaining pairs with a fresh level.
//!
//! If all pairs are discharged, the tuple `(θ¹, θ², …)` ranks every
//! recursive call lexicographically: the discharged level strictly drops
//! while all earlier levels are non-increasing, and each level is bounded
//! below by 0 — a well-founded descent. Every intermediate question is
//! the same dual construction as the base method, with δ = 1 for the
//! strict pair and δ = 0 for the rest, so the machinery of §4 is reused
//! verbatim.

use crate::dual::{eq9_systems, feasibility_system, project_pair_with, theta_point, DeltaTerm};
use crate::pairs::{ProjectionCache, RuleSubgoalSystem};
use crate::theta::ThetaSpace;
use argus_linear::fm::{FmConfig, FmStats};
use argus_linear::{LpOutcome, LpProblem, Rat};
use argus_logic::PredKey;
use std::collections::BTreeMap;

/// One level of a lexicographic ranking: θ coefficients per predicate.
pub type Level = BTreeMap<PredKey, Vec<Rat>>;

/// A successful lexicographic proof.
#[derive(Debug, Clone)]
pub struct LexicographicProof {
    /// Ranking levels, outermost first.
    pub levels: Vec<Level>,
    /// For each rule × subgoal pair `(rule_index, subgoal_index)`, the
    /// level (0-based) at which it was discharged.
    pub discharged_at: BTreeMap<(usize, usize), usize>,
}

/// Attempt a lexicographic proof over an SCC's rule × recursive-subgoal
/// pairs, in the SCC's θ `space`.
///
/// Every projection runs under `cfg` — the analysis's tier, row cap and
/// deadline — through the run's projection `cache`; its FM counters are
/// not reported. FM checks the deadline only while eliminating, and a pair
/// without `w` duals eliminates nothing, so the search also checks it
/// before each candidate. Returns `None` when some round can make no pair
/// strictly decrease while keeping the rest non-increasing, or when a
/// projection gives up under the cap or the deadline.
pub fn prove_lexicographic(
    pairs: &[RuleSubgoalSystem],
    space: &ThetaSpace,
    cfg: &FmConfig,
    cache: &ProjectionCache,
) -> Option<LexicographicProof> {
    let mut remaining: Vec<&RuleSubgoalSystem> = pairs.iter().collect();
    let mut levels: Vec<Level> = Vec::new();
    let mut discharged_at: BTreeMap<(usize, usize), usize> = BTreeMap::new();

    while !remaining.is_empty() {
        let level_index = levels.len();
        // Safety valve: no ranking needs more levels than pairs.
        if level_index > pairs.len() {
            return None;
        }
        let mut found: Option<(Level, Vec<bool>)> = None;

        // Try each remaining pair as the designated strict one.
        'candidates: for strict_idx in 0..remaining.len() {
            if cfg.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                return None;
            }
            let deltas = (0..).map(|i| DeltaTerm::Constant(i64::from(i == strict_idx)));
            let systems = eq9_systems(remaining.iter().copied().zip(deltas), space, space.len());
            let mut projected = Vec::new();
            for (sys, w) in &systems {
                match project_pair_with(sys, w, cfg, cache, &mut FmStats::default()) {
                    Some(p) => projected.push(p),
                    None => continue 'candidates,
                }
            }
            let Some(point) = theta_point(&feasibility_system(&projected), space) else {
                continue 'candidates;
            };
            let level = space.extract_witness(&point);
            // Which pairs strictly decrease under this θ? (Check each by
            // primal LP so we can discharge them all at once.)
            let strict: Vec<bool> =
                remaining.iter().map(|pair| pair_strictly_decreases(pair, &level)).collect();
            debug_assert!(strict[strict_idx], "designated pair must be strict");
            found = Some((level, strict));
            break;
        }

        let (level, strict) = found?;
        let mut next_remaining = Vec::new();
        for (pair, is_strict) in remaining.into_iter().zip(strict) {
            if is_strict {
                discharged_at.insert((pair.rule_index, pair.subgoal_index), level_index);
            } else {
                next_remaining.push(pair);
            }
        }
        levels.push(level);
        remaining = next_remaining;
    }

    Some(LexicographicProof { levels, discharged_at })
}

/// Does `θᵀx − βᵀy ≥ 1` hold over the pair's Eq. (1) region for the given
/// level? Decided by primal LP (exact).
fn pair_strictly_decreases(pair: &RuleSubgoalSystem, level: &Level) -> bool {
    let Some(theta) = level.get(&pair.head_pred) else { return false };
    let Some(beta) = level.get(&pair.sub_pred) else { return false };
    let (primal, x_vars, y_vars, _) = crate::pairs::primal_system(pair);
    let mut objective = argus_linear::LinExpr::zero();
    for (i, &xv) in x_vars.iter().enumerate() {
        objective.add_term(xv, theta[i].clone());
    }
    for (j, &yv) in y_vars.iter().enumerate() {
        objective.add_term(yv, -beta[j].clone());
    }
    let nonneg = primal.vars().into_iter().collect();
    match (LpProblem { objective, constraints: primal, nonneg }).solve() {
        LpOutcome::Infeasible => true, // vacuous
        LpOutcome::Optimal { value, .. } => value >= Rat::one(),
        LpOutcome::Unbounded => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_logic::parser::parse_program;
    use argus_logic::{Adornment, DepGraph, Norm};
    use argus_sizerel::{infer_size_relations, InferOptions};

    /// The SCC of `pred` in `src` under `adn`: its pairs and θ space.
    fn scc_of(
        src: &str,
        pred: &str,
        arity: usize,
        adn: &str,
    ) -> (Vec<RuleSubgoalSystem>, ThetaSpace) {
        let program = parse_program(src).unwrap();
        let adorned = argus_logic::adorn_program(
            &program,
            &PredKey::new(pred, arity),
            Adornment::parse(adn).unwrap(),
        );
        let rels = infer_size_relations(&adorned.program, &InferOptions::default());
        let graph = DepGraph::build(&adorned.program);
        let scc_id = graph.scc_id(&adorned.query).unwrap();
        let space = ThetaSpace::for_scc(&graph.scc(scc_id), &adorned.modes);
        let (_, pairs) = crate::pairs::scc_pairs(
            &graph,
            &adorned.program,
            scc_id,
            &adorned.modes,
            &rels,
            Norm::StructuralSize,
        );
        (pairs, space)
    }

    /// Run the lexicographic prover on the SCC of `pred` in `src`.
    fn prove(src: &str, pred: &str, arity: usize, adn: &str) -> Option<LexicographicProof> {
        let (pairs, space) = scc_of(src, pred, arity, adn);
        let cfg = crate::dual::dual_fm_config(argus_linear::FmTier::default());
        prove_lexicographic(&pairs, &space, &cfg, &ProjectionCache::new())
    }

    /// Ackermann — the paper's method fails (§7); the lexicographic
    /// extension proves it with two levels: arg1 outer, arg2 inner.
    #[test]
    fn ackermann_proved_lexicographically() {
        let proof = prove(
            "ack(z, N, s(N)).\n\
             ack(s(M), z, R) :- ack(M, s(z), R).\n\
             ack(s(M), s(N), R) :- ack(s(M), N, R1), ack(M, R1, R).",
            "ack",
            3,
            "bbf",
        )
        .expect("lexicographic proof exists");
        assert!(
            proof.levels.len() >= 2,
            "Ackermann needs at least two levels, got {}",
            proof.levels.len()
        );
        assert_eq!(proof.discharged_at.len(), 3, "three rule × subgoal pairs");
    }

    /// Single-level cases: programs the base method proves need exactly
    /// one lexicographic level.
    #[test]
    fn base_method_cases_take_one_level() {
        for (src, pred, arity, adn) in [
            (
                "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
                "append",
                3,
                "bff",
            ),
            (
                "merge([], Ys, Ys).\n\
                 merge(Xs, [], Xs).\n\
                 merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).\n\
                 merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).",
                "merge",
                3,
                "bbf",
            ),
        ] {
            let proof = prove(src, pred, arity, adn).expect("provable");
            assert_eq!(proof.levels.len(), 1, "{pred} takes one level");
        }
    }

    /// Loops still fail: no level can make any pair strict.
    #[test]
    fn loops_still_unprovable() {
        assert!(prove("p(X) :- p(X).", "p", 1, "b").is_none());
        assert!(prove("p([]).\np([X|Xs]) :- p([a, X|Xs]).", "p", 1, "b").is_none());
    }

    /// A hand-built two-level case: outer argument controls an inner
    /// restart (like Ackermann but first-order on lists).
    #[test]
    fn nested_restart_two_levels() {
        // outer list shrinks on rule 2 while the inner may grow back.
        let proof = prove(
            "w([], []).\n\
             w([_|Os], Is) :- w(Os, [a, a, a]).\n\
             w(Os, [_|Is]) :- w(Os, Is).",
            "w",
            2,
            "bb",
        )
        .expect("two-level ranking exists");
        assert_eq!(proof.levels.len(), 2);
    }

    /// The discharged levels really form a valid certificate: re-check the
    /// lexicographic conditions pairwise.
    #[test]
    fn levels_satisfy_lexicographic_conditions() {
        let src = "ack(z, N, s(N)).\n\
                   ack(s(M), z, R) :- ack(M, s(z), R).\n\
                   ack(s(M), s(N), R) :- ack(s(M), N, R1), ack(M, R1, R).";
        let proof = prove(src, "ack", 3, "bbf").unwrap();

        // Recompute every pair and check: strict at its discharge level,
        // and non-increasing at all earlier levels.
        let (pairs, _) = scc_of(src, "ack", 3, "bbf");
        for pair in &pairs {
            let lvl = proof.discharged_at[&(pair.rule_index, pair.subgoal_index)];
            assert!(pair_strictly_decreases(pair, &proof.levels[lvl]));
            for earlier in &proof.levels[..lvl] {
                // Non-increase: min(θᵀx − βᵀy) ≥ 0.
                let theta = &earlier[&pair.head_pred];
                let beta = &earlier[&pair.sub_pred];
                let (primal, x_vars, y_vars, _) = crate::pairs::primal_system(pair);
                let mut objective = argus_linear::LinExpr::zero();
                for (i, &xv) in x_vars.iter().enumerate() {
                    objective.add_term(xv, theta[i].clone());
                }
                for (j, &yv) in y_vars.iter().enumerate() {
                    objective.add_term(yv, -beta[j].clone());
                }
                let nonneg = primal.vars().into_iter().collect();
                match (LpProblem { objective, constraints: primal, nonneg }).solve() {
                    LpOutcome::Infeasible => {}
                    LpOutcome::Optimal { value, .. } => {
                        assert!(!value.is_negative(), "earlier level increased");
                    }
                    LpOutcome::Unbounded => panic!("earlier level unbounded below"),
                }
            }
        }
    }
}
