//! # argus-sizerel — inter-argument size-relation inference
//!
//! The termination method of *Sohn & Van Gelder (PODS 1991)* imports, for
//! every subgoal predicate, *feasibility constraints* relating the sizes of
//! the arguments of derivable facts — e.g. for `append/3` the constraint
//! `a1 + a2 = a3`, or for the expression parser's `t/2` the constraint
//! `t1 ≥ 2 + t2`. The paper takes these from Van Gelder's companion work
//! (\[VG90\]) and notes that in its own implementation they are "taken as
//! input … not automated". This crate automates them.
//!
//! The inference is a bottom-up abstract interpretation over the domain of
//! closed convex polyhedra ([`argus_linear::Poly`]): the meaning of an
//! `n`-ary predicate is abstracted by a polyhedron in ℝ₊ⁿ containing the
//! argument-size vectors of all derivable facts (exactly the geometric view
//! of the paper's §1: "argument sizes of derivable facts … are viewed as
//! points in the positive orthant of Rⁿ"). Rules are abstracted by the
//! obvious linear translation of structural term size (§2.2); joins are
//! convex hulls; termination of the fixpoint is forced by widening.
//!
//! ```
//! use argus_logic::{parser::parse_program, PredKey};
//! use argus_sizerel::{infer_size_relations, InferOptions};
//!
//! let program = parse_program(
//!     "append([], Ys, Ys).\n\
//!      append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
//! ).unwrap();
//! let rels = infer_size_relations(&program, &InferOptions::default());
//! // The classic invariant a1 + a2 = a3 is derived automatically.
//! let poly = rels.get(&PredKey::new("append", 3)).unwrap();
//! assert!(rels.entails_sum_equality(&PredKey::new("append", 3), &[0, 1], 2));
//! # let _ = poly;
//! ```

#![warn(missing_docs)]

use argus_linear::fm::{self, FmResult};
use argus_linear::{Constraint, ConstraintSystem, IntRow, LinExpr, Poly, Rat, Rel, Var};
use argus_logic::program::ProcIndex;
use argus_logic::{DepGraph, Norm, PredKey, Program, Rule, Sym, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Options controlling the fixpoint iteration.
#[derive(Debug, Clone)]
pub struct InferOptions {
    /// Number of exact (hull-only) iterations before widening kicks in.
    /// Small delays preserve more equalities; the default of 2 recovers
    /// `append`'s `a1 + a2 = a3` and the paper's parser constraints.
    pub widening_delay: usize,
    /// Hard cap on iterations per SCC; on overrun the affected predicates
    /// fall back to the sound top element (sizes ≥ 0).
    pub max_iterations: usize,
    /// Term-size norm the relations are expressed in. Must match the norm
    /// used by the termination analysis consuming them.
    pub norm: Norm,
}

impl Default for InferOptions {
    fn default() -> InferOptions {
        InferOptions { widening_delay: 2, max_iterations: 20, norm: Norm::default() }
    }
}

/// The inferred size-relation polyhedron for each predicate. Dimension `i`
/// of the polyhedron for `p/n` is the structural size of the `i`-th
/// argument of a derivable `p` fact.
#[derive(Debug, Clone, Default)]
pub struct SizeRelations {
    map: BTreeMap<PredKey, Poly>,
}

impl SizeRelations {
    /// Empty store.
    pub fn new() -> SizeRelations {
        SizeRelations::default()
    }

    /// The polyhedron for `p`, if known.
    pub fn get(&self, p: &PredKey) -> Option<&Poly> {
        self.map.get(p)
    }

    /// Insert or overwrite (used to supply constraints manually, as the
    /// paper's implementation did).
    pub fn insert(&mut self, p: PredKey, poly: Poly) {
        assert_eq!(poly.dim(), p.arity, "polyhedron dimension must equal arity");
        self.map.insert(p, poly);
    }

    /// The polyhedron for `p`, defaulting to "sizes are nonnegative" when
    /// nothing is known (EDB predicates, builtins, analysis fallback).
    pub fn get_or_top(&self, p: &PredKey) -> Poly {
        self.map.get(p).cloned().unwrap_or_else(|| Poly::nonneg_universe(p.arity))
    }

    /// Iterate over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&PredKey, &Poly)> {
        self.map.iter()
    }

    /// Convenience check: do the inferred relations entail
    /// `Σ_{i ∈ lhs} aᵢ = a_rhs` for predicate `p` (argument indices
    /// 0-based)? E.g. `append`'s `a1 + a2 = a3` is `(&[0, 1], 2)`.
    pub fn entails_sum_equality(&self, p: &PredKey, lhs: &[usize], rhs: usize) -> bool {
        let Some(poly) = self.map.get(p) else { return false };
        let mut e = LinExpr::zero();
        for &i in lhs {
            e.add_term(i, Rat::one());
        }
        e.add_term(rhs, -Rat::one());
        let c = Constraint { expr: e, rel: Rel::Eq };
        poly.implies(&c)
    }

    /// Convenience check: do the relations entail `a_i ≥ a_j + k`?
    pub fn entails_gap(&self, p: &PredKey, i: usize, j: usize, k: i64) -> bool {
        let Some(poly) = self.map.get(p) else { return false };
        let mut e = LinExpr::var(j);
        e.add_term(i, -Rat::one());
        e.add_constant(&Rat::from_int(k));
        // a_j + k - a_i <= 0
        let c = Constraint { expr: e, rel: Rel::Le };
        poly.implies(&c)
    }

    /// Render the relation for `p` with argument names `p1, p2, …`.
    pub fn render(&self, p: &PredKey) -> String {
        match self.map.get(p) {
            None => format!("{p}: (no information)"),
            Some(poly) if poly.is_empty() => format!("{p}: (no derivable facts)"),
            Some(poly) => {
                let mut pool = argus_linear::VarPool::new();
                for i in 1..=p.arity {
                    pool.fresh(format!("{}{}", p.name, i));
                }
                let rows: Vec<String> = poly
                    .minimized()
                    .constraints()
                    .constraints()
                    .iter()
                    .map(|c| pool.render_constraint(c))
                    .collect();
                format!("{p}: {}", rows.join(";  "))
            }
        }
    }
}

impl fmt::Display for SizeRelations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in self.map.keys() {
            writeln!(f, "{}", self.render(p))?;
        }
        Ok(())
    }
}

/// Abstract one rule: the polyhedron (over the head's argument-size
/// dimensions) of head-size vectors derivable through this rule, given the
/// current approximations `env` for all predicates, under an explicit FM
/// configuration (tier, row cap, LP budget all caller-controlled),
/// accumulating counters into `stats`. The fixpoint runs the same
/// construction under [`FM_ROW_CAP`]; the `fm_redundancy` bench raises the
/// cap here to expose the untiered blowup the cap would truncate.
///
/// Construction (paper §2.2 + §3): allocate one variable per head argument
/// size, one per logical variable of the rule, and one per argument of each
/// positive subgoal; emit the argument-size equations for the head and each
/// subgoal, instantiate each subgoal predicate's current polyhedron on its
/// argument variables, and project everything but the head dimensions away.
pub fn rule_poly_instrumented(
    rule: &Rule,
    env: &SizeRelations,
    norm: Norm,
    cfg: &fm::FmConfig,
    stats: &mut fm::FmStats,
) -> Poly {
    rule_poly_of(&RulePolys::of(rule, norm), env, cfg, stats)
}

/// One rule's size system without its callee relations, built once when
/// the rule's SCC is first visited and read by every fixpoint iteration:
/// the rows that do not depend on the environment, in canonical integer
/// form and in the order the system writes them, and where each ordinary
/// subgoal's relation goes among them.
struct RulePolys {
    head_arity: usize,
    /// The head dimensions, which the projection keeps.
    keep: BTreeSet<Var>,
    fixed: Vec<IntRow>,
    callees: Vec<Callee>,
}

/// An ordinary subgoal of a rule, whose relation the environment supplies.
struct Callee {
    /// How many of the rule's fixed rows precede the relation's rows.
    at: usize,
    key: PredKey,
    /// The first of the subgoal's argument-size variables: the relation's
    /// dimension `j` is variable `base + j`.
    base: Var,
    /// The rows of top (sizes nonnegative) on those variables, which
    /// stand in for a predicate the environment does not hold.
    top: Vec<IntRow>,
}

impl RulePolys {
    /// The construction of [`rule_poly_instrumented`] (paper §2.2 + §3),
    /// with the term size polynomials computed once by `norm`.
    fn of(rule: &Rule, norm: Norm) -> RulePolys {
        let head_arity = rule.head.args.len();
        let mut next: Var = head_arity;
        let mut var_of: BTreeMap<Sym, Var> = BTreeMap::new();
        let mut sys = ConstraintSystem::new();
        let mut callees = Vec::new();

        let size_expr = |term: &Term,
                         var_of: &mut BTreeMap<Sym, Var>,
                         next: &mut Var,
                         sys: &mut ConstraintSystem| {
            let poly = norm.polynomial(term);
            let mut e = LinExpr::constant(Rat::from_int(poly.constant as i64));
            for (name, coeff) in &poly.coeffs {
                let v = *var_of.entry(*name).or_insert_with(|| {
                    let v = *next;
                    *next += 1;
                    // Logical-variable sizes are nonnegative (§2.2).
                    sys.push(Constraint::nonneg(v));
                    v
                });
                e.add_term(v, Rat::from_int(*coeff as i64));
            }
            e
        };

        // Head argument-size equations: x_i = size(t_i), x_i >= 0.
        for (i, t) in rule.head.args.iter().enumerate() {
            let e = size_expr(t, &mut var_of, &mut next, &mut sys);
            sys.push(Constraint::eq(LinExpr::var(i), e));
            sys.push(Constraint::nonneg(i));
        }

        // Subgoal contributions.
        for lit in &rule.body {
            if !lit.positive {
                // Negative subgoals yield no size information (Appendix D).
                continue;
            }
            let args = &lit.atom.args;
            let key = lit.atom.key();
            match (&*key.name, key.arity) {
                ("=", 2) => {
                    // Unification: equal terms have equal sizes. (The build
                    // order — `ea` before `eb` — fixes fresh-variable
                    // numbering and must not change.)
                    let ea = size_expr(&args[0], &mut var_of, &mut next, &mut sys);
                    let eb = size_expr(&args[1], &mut var_of, &mut next, &mut sys);
                    sys.push(Constraint::eq(ea, eb));
                }
                ("is", 2) => {
                    // The left argument becomes an integer constant, which
                    // has size 0 under either norm.
                    let ea = size_expr(&args[0], &mut var_of, &mut next, &mut sys);
                    sys.push(Constraint::eq(ea, LinExpr::zero()));
                }
                (op, 2) if argus_logic::modes::TEST_BUILTINS.contains(&op) => {
                    // Comparisons supply no size contribution (paper, Ex.
                    // 5.1: "the subgoal X =< Y does not supply any
                    // contribution").
                }
                _ => {
                    // Ordinary subgoal: allocate argument-size vars, equate
                    // with term sizes; the predicate's polyhedron is
                    // instantiated on them at evaluation.
                    let base = next;
                    next += key.arity;
                    for (j, t) in args.iter().enumerate() {
                        let e = size_expr(t, &mut var_of, &mut next, &mut sys);
                        sys.push(Constraint::eq(LinExpr::var(base + j), e));
                        sys.push(Constraint::nonneg(base + j));
                    }
                    let top = (0..key.arity).map(|j| Constraint::nonneg(base + j));
                    let top = top.map(|c| IntRow::of_constraint(&c)).collect();
                    callees.push(Callee { at: sys.len(), key, base, top });
                }
            }
        }
        RulePolys {
            head_arity,
            keep: (0..head_arity).collect(),
            fixed: sys.constraints().iter().map(IntRow::of_constraint).collect(),
            callees,
        }
    }
}

/// [`rule_poly_instrumented`] on the rule's prebuilt rows — the fixpoint
/// body. FM receives the fixed rows with each callee's relation rows,
/// renamed onto its argument-size variables, spliced in at their place:
/// the system the construction writes, already in integer form.
fn rule_poly_of(
    polys: &RulePolys,
    env: &SizeRelations,
    cfg: &fm::FmConfig,
    stats: &mut fm::FmStats,
) -> Poly {
    let head_arity = polys.head_arity;
    let mut relations = Vec::with_capacity(polys.callees.len());
    for callee in &polys.callees {
        let approx = env.get(&callee.key);
        if approx.is_some_and(Poly::is_empty) {
            // The subgoal is (currently) underivable: this rule
            // contributes nothing.
            return Poly::empty(head_arity);
        }
        relations.push(approx);
    }
    let mut rows = Vec::with_capacity(polys.fixed.len());
    let mut done = 0;
    for (callee, approx) in polys.callees.iter().zip(relations) {
        rows.extend_from_slice(&polys.fixed[done..callee.at]);
        done = callee.at;
        match approx {
            Some(approx) => rows.extend(approx.int_rows().iter().map(|r| r.shifted(callee.base))),
            None => rows.extend_from_slice(&callee.top),
        }
    }
    rows.extend_from_slice(&polys.fixed[done..]);

    // Project onto the head dimensions; exceeding the caller's row cap
    // falls back to the sound top element (sizes nonnegative, nothing more).
    match fm::project_int_rows_with(rows, &polys.keep, cfg, stats) {
        Ok(FmResult::Projected(projected)) => Poly::from_constraints(head_arity, projected.dedup()),
        Ok(FmResult::Infeasible) => Poly::empty(head_arity),
        Err(_) => Poly::nonneg_universe(head_arity),
    }
}

/// Row cap for Fourier–Motzkin projections inside the inference; beyond
/// this the analysis falls back to a sound over-approximation rather than
/// risking FM's worst-case blowup.
const FM_ROW_CAP: usize = 500;

/// Infer size relations for every IDB predicate of `program`, processing
/// SCCs bottom-up and iterating recursive SCCs to a (widened) fixpoint.
pub fn infer_size_relations(program: &Program, options: &InferOptions) -> SizeRelations {
    infer_size_relations_instrumented(
        program,
        options,
        &fm::FmConfig::default(),
        &mut fm::FmStats::default(),
    )
}

/// [`infer_size_relations`] with an explicit FM redundancy tier: every
/// rule-poly projection and hull inside the fixpoint runs at `cfg.tier`
/// and accumulates counters into `stats`. The production row caps
/// ([`FM_ROW_CAP`] for rule projections, [`argus_linear::poly::HULL_ROW_CAP`]
/// for hulls) still apply — `cfg.max_rows` can only tighten them — so the
/// inferred relations match [`infer_size_relations`] at the default tier.
/// This is how the `fm_redundancy` bench measures the FM load of a corpus
/// program's inference tier by tier.
pub fn infer_size_relations_instrumented(
    program: &Program,
    options: &InferOptions,
    cfg: &fm::FmConfig,
    stats: &mut fm::FmStats,
) -> SizeRelations {
    let graph = DepGraph::build(program);
    let index = ProcIndex::build(program);
    let mut rels = SizeRelations::new();

    for scc_id in graph.sccs_bottom_up() {
        let members: Vec<PredKey> =
            graph.scc(scc_id).into_iter().filter(|p| !index.rule_indices(p).is_empty()).collect();
        if members.is_empty() {
            continue; // EDB-only SCC; stays at implicit top.
        }
        let recursive = members.iter().any(|p| graph.is_recursive(p));
        infer_scc_inner(program, &index, &members, recursive, &mut rels, options, cfg, stats);
    }
    // Canonicalize: drop redundant rows so downstream consumers (the
    // termination analyzer's Eq. 1 assembly) see minimal systems, matching
    // the paper's hand-derived constraint shapes.
    let keys: Vec<PredKey> = rels.map.keys().cloned().collect();
    for k in keys {
        let minimized = rels.map[&k].minimized();
        rels.map.insert(k, minimized);
    }
    rels
}

/// The per-SCC inference body shared by [`infer_size_relations_instrumented`]
/// and [`infer_scc_sizes`]: a single pass for non-recursive SCCs, a Kleene
/// iteration (semi-naive, delayed widening) for recursive ones. On return `rels`
/// holds the SCC's *work-state* polyhedra (inserted pre-minimized between
/// iterations, not re-minimized at the end) — callers that feed the result
/// to the termination analyzer must still canonicalize with
/// [`Poly::minimized`]. Each rule's [`RulePolys`] are computed here, once;
/// the production row caps apply on top of `cfg`.
#[allow(clippy::too_many_arguments)]
fn infer_scc_inner(
    program: &Program,
    index: &ProcIndex,
    members: &[PredKey],
    recursive: bool,
    rels: &mut SizeRelations,
    options: &InferOptions,
    cfg: &fm::FmConfig,
    stats: &mut fm::FmStats,
) {
    let rule_cfg = &fm::FmConfig { max_rows: cfg.max_rows.min(FM_ROW_CAP), ..*cfg };
    let hull_cfg =
        &fm::FmConfig { max_rows: cfg.max_rows.min(argus_linear::poly::HULL_ROW_CAP), ..*cfg };
    // Non-recursive SCC: single pass.
    if !recursive {
        for p in members {
            let mut acc = Poly::empty(p.arity);
            for &ri in index.rule_indices(p) {
                let rp =
                    rule_poly_instrumented(&program.rules[ri], rels, options.norm, rule_cfg, stats);
                acc = acc.hull_with(&rp, hull_cfg, stats);
            }
            rels.insert(p.clone(), acc.minimized());
        }
        return;
    }

    // Recursive SCC: Kleene iteration from bottom with delayed widening,
    // semi-naive: a member's version counts its re-insertions, a rule's
    // polyhedron is recomputed only when a member it reads has a new
    // version (callee relations are fixed while the SCC iterates), and
    // the hull fold restarts at the first rule whose polyhedron changed.
    let slot: BTreeMap<&PredKey, usize> = members.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let mut version = vec![0u64; members.len()];
    let mut folds: Vec<MemberFold> = members
        .iter()
        .map(|p| MemberFold::new(index.rule_indices(p), program, options.norm, &slot))
        .collect();
    for p in members {
        rels.insert(p.clone(), Poly::empty(p.arity));
    }
    let mut stable = false;
    for iteration in 0..options.max_iterations {
        let mut changed = false;
        for (i, p) in members.iter().enumerate() {
            let fold = &mut folds[i];
            let mut first_changed = None;
            for (k, rule) in fold.rules.iter_mut().enumerate() {
                let seen: Vec<u64> = rule.reads.iter().map(|&m| version[m]).collect();
                if rule.last.as_ref().is_some_and(|(v, _)| *v == seen) {
                    continue;
                }
                let rp = rule_poly_of(&rule.polys, rels, rule_cfg, stats);
                if rule.last.as_ref().is_none_or(|(_, poly)| *poly != rp) {
                    first_changed.get_or_insert(k);
                }
                rule.last = Some((seen, rp));
            }
            // No rule polyhedron changed: `new` is last round's, which the
            // current `old` already contains, so `p` cannot grow.
            let Some(start) = first_changed else { continue };
            fold.prefix.truncate(start);
            for rule in &fold.rules[start..] {
                let rp = &rule.last.as_ref().expect("evaluated").1;
                let acc = fold
                    .prefix
                    .last()
                    .map_or_else(|| rp.clone(), |acc| acc.hull_with(rp, hull_cfg, stats));
                fold.prefix.push(acc);
            }
            let new = fold.prefix.last().expect("members have rules");
            let old = rels.get(p).expect("seeded");
            // `old ⊔ new` (or the weak join standing in for it) is larger
            // than `old` iff `new ⊄ old`, so one inclusion test decides
            // growth before the hull is built. After the widening delay,
            // `old` is widened against `new` directly: a row of `old`
            // holds on their join iff it holds on `new` (see `Poly::widen`),
            // and the widening is a larger set iff it dropped a row (a row
            // `new` does not imply has a point of `new` outside `old`).
            let next = if iteration >= options.widening_delay {
                let widened = old.widen(new);
                let grew = widened.constraints().len() < old.constraints().len()
                    || old.is_empty() && !new.is_empty();
                grew.then_some(widened)
            } else if new.includes_in(old) {
                None
            } else {
                Some(old.hull_with(new, hull_cfg, stats))
            };
            if let Some(next) = next {
                // Keep representations minimal between iterations:
                // redundant rows compound across hulls and can trip
                // the FM row caps. (A widening of a minimal `old` is
                // minimal already, and `minimized` returns it as is.)
                rels.insert(p.clone(), next.minimized());
                version[i] += 1;
                changed = true;
            }
        }
        if !changed {
            stable = true;
            break;
        }
    }
    if !stable {
        // Sound fallback: forget everything for this SCC.
        for p in members {
            rels.insert(p.clone(), Poly::nonneg_universe(p.arity));
        }
    }
}

/// One recursive member's rules as the last Kleene round evaluated them,
/// and the hull-fold prefixes `r₁`, `r₁ ⊔ r₂`, … built over them.
struct MemberFold {
    rules: Vec<RuleEval>,
    prefix: Vec<Poly>,
}

/// One rule of a recursive member: its prebuilt rows, the SCC members
/// its positive body atoms read (by slot), and its last polyhedron with
/// the member versions it was computed from.
struct RuleEval {
    polys: RulePolys,
    reads: Vec<usize>,
    last: Option<(Vec<u64>, Poly)>,
}

impl MemberFold {
    fn new(
        rule_indices: &[usize],
        program: &Program,
        norm: Norm,
        slot: &BTreeMap<&PredKey, usize>,
    ) -> Self {
        let rules = rule_indices
            .iter()
            .map(|&index| {
                let rule = &program.rules[index];
                let reads: BTreeSet<usize> = rule
                    .body
                    .iter()
                    .filter(|lit| lit.positive)
                    .filter_map(|lit| slot.get(&lit.atom.key()).copied())
                    .collect();
                let polys = RulePolys::of(rule, norm);
                RuleEval { polys, reads: reads.into_iter().collect(), last: None }
            })
            .collect();
        MemberFold { rules, prefix: Vec::new() }
    }
}

/// Run the size-relation fixpoint for a single SCC against an environment
/// `rels` that already holds the work-state polyhedra of every callee SCC
/// (absent entries are treated as top, exactly as in the global pass).
///
/// `members` must list the SCC's predicates that have rules, in the
/// [`DepGraph::scc`] order, and `recursive` must be the SCC's
/// [`DepGraph::is_recursive`] status — passing the same values the global
/// pass derives makes the inserted polyhedra byte-identical to a cold
/// [`infer_size_relations`] run.
pub fn infer_scc_sizes(
    program: &Program,
    index: &ProcIndex,
    members: &[PredKey],
    recursive: bool,
    rels: &mut SizeRelations,
    options: &InferOptions,
) {
    let cfg = fm::FmConfig::default();
    infer_scc_inner(
        program,
        index,
        members,
        recursive,
        rels,
        options,
        &cfg,
        &mut fm::FmStats::default(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_logic::parser::parse_program;

    fn infer(src: &str) -> SizeRelations {
        let p = parse_program(src).unwrap();
        infer_size_relations(&p, &InferOptions::default())
    }

    #[test]
    fn append_sum_equality() {
        // The imported feasibility constraint of the paper's Example 3.1:
        // append1 + append2 = append3.
        let rels = infer(
            "append([], Ys, Ys).\n\
             append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
        );
        let app = PredKey::new("append", 3);
        assert!(rels.entails_sum_equality(&app, &[0, 1], 2), "{}", rels.render(&app));
    }

    #[test]
    fn parser_t_gap() {
        // The imported constraint of the paper's Example 6.1: t1 >= 2 + t2
        // (and likewise for e and n).
        let rels = infer(
            "e(L, T) :- t(L, ['+'|C]), e(C, T).\n\
             e(L, T) :- t(L, T).\n\
             t(L, T) :- n(L, ['*'|C]), t(C, T).\n\
             t(L, T) :- n(L, T).\n\
             n(['('|A], T) :- e(A, [')'|T]).\n\
             n([L|T], T) :- z(L).",
        );
        for name in ["e", "t", "n"] {
            let p = PredKey::new(name, 2);
            assert!(rels.entails_gap(&p, 0, 1, 2), "{}", rels.render(&p));
        }
    }

    #[test]
    fn facts_only_predicate() {
        let rels = infer("p(a, [b]).\np(c, [d, e]).");
        let p = PredKey::new("p", 2);
        let poly = rels.get(&p).unwrap();
        assert!(!poly.is_empty());
        // First arg always a constant: size 0. Second arg between 2 and 4.
        let pt = |a: i64, b: i64| -> BTreeMap<Var, Rat> {
            [(0, Rat::from_int(a)), (1, Rat::from_int(b))].into_iter().collect()
        };
        assert!(poly.contains_point(&pt(0, 2)));
        assert!(poly.contains_point(&pt(0, 4)));
        assert!(poly.contains_point(&pt(0, 3))); // hull fills the middle
        assert!(!poly.contains_point(&pt(1, 2)));
        assert!(!poly.contains_point(&pt(0, 5)));
    }

    #[test]
    fn reverse_with_accumulator() {
        // rev(Xs, Acc, Ys): |Xs| + |Acc| = |Ys| in list-length terms;
        // in structural size the same linear relation holds.
        let rels = infer(
            "rev([], Acc, Acc).\n\
             rev([X|Xs], Acc, Ys) :- rev(Xs, [X|Acc], Ys).",
        );
        let p = PredKey::new("rev", 3);
        assert!(rels.entails_sum_equality(&p, &[0, 1], 2), "{}", rels.render(&p));
    }

    #[test]
    fn underivable_predicate_is_empty() {
        // p has only a recursive rule and no base case: no derivable facts.
        let rels = infer("p(X) :- p(X).");
        let p = PredKey::new("p", 1);
        assert!(rels.get(&p).unwrap().is_empty());
    }

    #[test]
    fn edb_subgoals_default_to_top() {
        let rels = infer("p(X, Y) :- e(X, Y).");
        let p = PredKey::new("p", 2);
        let poly = rels.get(&p).unwrap();
        // Nothing known about e beyond nonnegativity.
        assert!(!poly.is_empty());
        let pt: BTreeMap<Var, Rat> =
            [(0, Rat::from_int(7)), (1, Rat::from_int(0))].into_iter().collect();
        assert!(poly.contains_point(&pt));
        // e itself is not in the store (it has no rules).
        assert!(rels.get(&PredKey::new("e", 2)).is_none());
        assert!(!rels.get_or_top(&PredKey::new("e", 2)).is_empty());
    }

    #[test]
    fn unification_builtin_contributes_equality() {
        let rels = infer("p(X, Y) :- X = Y.");
        let p = PredKey::new("p", 2);
        let mut e = LinExpr::var(0);
        e.add_term(1, -Rat::one());
        let c = Constraint { expr: e, rel: Rel::Eq };
        assert!(rels.get(&p).unwrap().implies(&c));
    }

    #[test]
    fn comparison_contributes_nothing() {
        let rels = infer("p(X, Y) :- X =< Y.");
        let p = PredKey::new("p", 2);
        let poly = rels.get(&p).unwrap();
        let pt: BTreeMap<Var, Rat> =
            [(0, Rat::from_int(9)), (1, Rat::from_int(1))].into_iter().collect();
        assert!(poly.contains_point(&pt), "X =< Y must not constrain sizes");
    }

    #[test]
    fn nonlinear_recursion_fixpoint_terminates() {
        // Fibonacci-shaped recursion on lists; just check we stabilize and
        // produce a sound nonempty result with the decrease visible.
        let rels = infer(
            "f([], []).\n\
             f([X|Xs], [X|Ys]) :- f(Xs, Ys).\n\
             g([], []).\n\
             g([_,_|Xs], Ys) :- g(Xs, A), g(Xs, B), app2(A, B, Ys).\n\
             app2([], Ys, Ys).\n\
             app2([X|Xs], Ys, [X|Zs]) :- app2(Xs, Ys, Zs).",
        );
        let f = PredKey::new("f", 2);
        assert!(rels.entails_sum_equality(&f, &[0], 1), "{}", rels.render(&f));
        let g = PredKey::new("g", 2);
        assert!(!rels.get(&g).unwrap().is_empty());
    }

    #[test]
    fn widening_fallback_is_sound_not_crashing() {
        // A rule that grows an argument forever still stabilizes via
        // widening (the upper bound is dropped, not looped on).
        let rels = infer(
            "grow([], []).\n\
             grow(Xs, [a|Ys]) :- grow(Xs, Ys).",
        );
        let p = PredKey::new("grow", 2);
        let poly = rels.get(&p).unwrap();
        assert!(!poly.is_empty());
        // Size of second arg is unbounded: the poly must admit large values.
        let pt: BTreeMap<Var, Rat> =
            [(0, Rat::from_int(0)), (1, Rat::from_int(1000))].into_iter().collect();
        assert!(poly.contains_point(&pt));
    }

    #[test]
    fn widening_from_an_empty_iterate_grows() {
        // With no widening delay every round widens, starting from the
        // empty seed: the widening of `∅` against a nonempty `new` is
        // `new`, a growth even though no row of `∅` was dropped.
        let program = parse_program(
            "append([], Ys, Ys).\n\
             append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
        )
        .unwrap();
        let options = InferOptions { widening_delay: 0, ..InferOptions::default() };
        let rels = infer_size_relations(&program, &options);
        let poly = rels.get(&PredKey::new("append", 3)).unwrap();
        let pt: BTreeMap<Var, Rat> =
            [(0, Rat::zero()), (1, Rat::from_int(3)), (2, Rat::from_int(3))].into_iter().collect();
        assert!(poly.contains_point(&pt), "{}", rels.render(&PredKey::new("append", 3)));
    }

    #[test]
    fn manual_insert_overrides() {
        let program = parse_program("p(X) :- e(X).").unwrap();
        let mut rels = infer_size_relations(&program, &InferOptions::default());
        let p = PredKey::new("p", 1);
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(LinExpr::var(0), LinExpr::constant(Rat::from_int(7))));
        rels.insert(p.clone(), Poly::from_constraints(1, sys));
        assert!(rels.entails_gap(&p, 0, 0, 0));
        let pt: BTreeMap<Var, Rat> = [(0, Rat::from_int(7))].into_iter().collect();
        assert!(rels.get(&p).unwrap().contains_point(&pt));
    }

    #[test]
    fn render_is_readable() {
        let rels = infer(
            "append([], Ys, Ys).\n\
             append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
        );
        let s = rels.render(&PredKey::new("append", 3));
        assert!(s.starts_with("append/3:"), "{s}");
        assert!(s.contains("append1"), "{s}");
    }
}
