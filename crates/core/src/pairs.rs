//! Assembly of the paper's Eq. (1) for one rule × recursive-subgoal pair.
//!
//! For a rule with head `pᵢ` and a chosen recursive subgoal `pⱼ`, the paper
//! sets up
//!
//! ```text
//! x = a + A·α      (bound-argument sizes of the head)
//! y = b + B·α      (bound-argument sizes of the recursive subgoal)
//! 0 = c + C·α      (imported feasibility constraints of subgoals that
//!                   PRECEDE pⱼ in the body, §3/§6.2)
//! x, y, α ≥ 0
//! ```
//!
//! where `α` collects the sizes of the rule's logical variables plus slack
//! variables introduced when an imported constraint is an inequality. The
//! entries of `a, A, b, B` are nonnegative by construction (they come from
//! structural-size polynomials, §2.2) — the dual step relies on this.
//!
//! We represent each row as a [`LinExpr`] over the α variables, whose
//! constant term carries the `a`/`b`/`c` entry.

use argus_linear::{Constraint, LinExpr, Rat, Rel, Var};
use argus_logic::modes::{Adornment, ModeMap, TEST_BUILTINS};
use argus_logic::{Norm, PredKey, Rule, Sym};
use argus_sizerel::SizeRelations;
use std::collections::BTreeMap;

/// The Eq. (1) data for one rule × recursive-subgoal combination.
#[derive(Debug, Clone)]
pub struct RuleSubgoalSystem {
    /// Head predicate `pᵢ`.
    pub head_pred: PredKey,
    /// Recursive subgoal predicate `pⱼ`.
    pub sub_pred: PredKey,
    /// Index of the rule in the SCC's rule list (for reporting).
    pub rule_index: usize,
    /// Index of the recursive subgoal within the rule body.
    pub subgoal_index: usize,
    /// Number of α variables (logical-variable sizes + slacks).
    pub alpha_count: usize,
    /// `x` rows: one expression `aᵢ + Aᵢ·α` per bound head argument.
    pub x_rows: Vec<LinExpr>,
    /// `y` rows: one expression `bⱼ + Bⱼ·α` per bound subgoal argument.
    pub y_rows: Vec<LinExpr>,
    /// `c` rows: expressions `cₖ + Cₖ·α` constrained to equal zero.
    pub c_rows: Vec<LinExpr>,
    /// Human-readable α variable names (for diagnostics).
    pub alpha_names: Vec<String>,
}

impl RuleSubgoalSystem {
    /// True iff every constant in `a` and `c` is zero — the paper's §6.1
    /// criterion forcing `δᵢⱼ = 0` for `i ≠ j` ("a dual constraint … has
    /// only zeros in cᵀ and aᵀ").
    pub fn forces_zero_delta(&self) -> bool {
        self.x_rows.iter().all(|r| r.constant_term().is_zero())
            && self.c_rows.iter().all(|r| r.constant_term().is_zero())
    }
}

/// Helper that assigns α indices to logical variables and slacks.
struct AlphaSpace {
    next: Var,
    vars: BTreeMap<Sym, Var>,
    names: Vec<String>,
    norm: Norm,
}

impl AlphaSpace {
    fn new(norm: Norm) -> AlphaSpace {
        AlphaSpace { next: 0, vars: BTreeMap::new(), names: Vec::new(), norm }
    }

    fn logical(&mut self, name: Sym) -> Var {
        *self.vars.entry(name).or_insert_with(|| {
            let v = self.next;
            self.next += 1;
            self.names.push(name.to_string());
            v
        })
    }

    fn slack(&mut self) -> Var {
        let v = self.next;
        self.next += 1;
        self.names.push(format!("sigma{v}"));
        v
    }

    /// Size polynomial of a term as a LinExpr over α.
    fn size_expr(&mut self, t: &argus_logic::Term) -> LinExpr {
        let sp = self.norm.polynomial(t);
        let mut e = LinExpr::constant(Rat::from_int(sp.constant as i64));
        for (name, coeff) in &sp.coeffs {
            let v = self.logical(*name);
            e.add_term(v, Rat::from_int(*coeff as i64));
        }
        e
    }
}

/// Build Eq. (1) for `rule` and the recursive subgoal at `subgoal_index`.
///
/// `modes` supplies the bound–free adornment of every predicate involved;
/// `rels` supplies the imported inter-argument feasibility constraints.
/// Preceding *negative* subgoals are discarded (Appendix D); preceding
/// positive subgoals — including earlier recursive ones (§6.2) — contribute
/// their size-relation polyhedra; comparison builtins contribute nothing
/// (Example 5.1).
pub fn build_pair(
    rule: &Rule,
    rule_index: usize,
    subgoal_index: usize,
    modes: &ModeMap,
    rels: &SizeRelations,
) -> RuleSubgoalSystem {
    build_pair_with_norm(rule, rule_index, subgoal_index, modes, rels, Norm::default())
}

/// The rules of SCC `scc_id` ([`argus_logic::DepGraph::scc_rules`]) and
/// every rule × recursive-subgoal pair over them, in rule order and then
/// body order; each pair records its rule's index in that list.
pub(crate) fn scc_pairs<'p>(
    graph: &argus_logic::DepGraph,
    program: &'p argus_logic::Program,
    scc_id: usize,
    modes: &ModeMap,
    rels: &SizeRelations,
    norm: Norm,
) -> (Vec<&'p Rule>, Vec<RuleSubgoalSystem>) {
    let rules = graph.scc_rules(program, scc_id);
    let mut pairs = Vec::new();
    for (ri, rule) in rules.iter().enumerate() {
        for si in graph.recursive_subgoals(rule) {
            pairs.push(build_pair_with_norm(rule, ri, si, modes, rels, norm));
        }
    }
    (rules, pairs)
}

/// [`build_pair`] under an explicit term-size norm (which must match the
/// norm the size relations were inferred in).
pub fn build_pair_with_norm(
    rule: &Rule,
    rule_index: usize,
    subgoal_index: usize,
    modes: &ModeMap,
    rels: &SizeRelations,
    norm: Norm,
) -> RuleSubgoalSystem {
    let head_pred = rule.head.key();
    let sub_atom = &rule.body[subgoal_index].atom;
    let sub_pred = sub_atom.key();

    let head_adornment =
        modes.get(&head_pred).cloned().unwrap_or_else(|| Adornment::all_bound(head_pred.arity));
    let sub_adornment =
        modes.get(&sub_pred).cloned().unwrap_or_else(|| Adornment::all_bound(sub_pred.arity));

    let mut alpha = AlphaSpace::new(norm);
    let mut x_rows = Vec::new();
    let mut y_rows = Vec::new();
    let mut c_rows = Vec::new();

    // x: bound head arguments.
    for i in head_adornment.bound_positions() {
        x_rows.push(alpha.size_expr(&rule.head.args[i]));
    }
    // y: bound subgoal arguments.
    for j in sub_adornment.bound_positions() {
        y_rows.push(alpha.size_expr(&sub_atom.args[j]));
    }

    // c: imported feasibility constraints of preceding positive subgoals.
    for lit in rule.body.iter().take(subgoal_index) {
        if !lit.positive {
            continue; // Appendix D: negative subgoals are discarded.
        }
        let key = lit.atom.key();
        match (&*key.name, key.arity) {
            ("=", 2) => {
                // Positive equality should have been eliminated by
                // preprocessing; if present, treat as a size equality.
                let ea = alpha.size_expr(&lit.atom.args[0]);
                let eb = alpha.size_expr(&lit.atom.args[1]);
                c_rows.push(&ea - &eb);
            }
            ("is", 2) => {
                // N is E binds N to an integer constant (size 0).
                let ea = alpha.size_expr(&lit.atom.args[0]);
                c_rows.push(ea);
            }
            (op, 2) if TEST_BUILTINS.contains(&op) => {
                // No size contribution (paper, Example 5.1).
            }
            _ => {
                let poly = rels.get_or_top(&key);
                if poly.is_empty() {
                    // Subgoal can never succeed: the recursive subgoal is
                    // unreachable through this rule. Encode the
                    // contradiction 0 = 1 so the pair is trivially
                    // satisfied for any θ (the primal is infeasible, so
                    // the decrease requirement holds vacuously).
                    c_rows.push(LinExpr::constant(Rat::one()));
                    continue;
                }
                // Argument-size expressions of this subgoal.
                let arg_exprs: Vec<LinExpr> =
                    lit.atom.args.iter().map(|t| alpha.size_expr(t)).collect();
                for c in poly.rows() {
                    // Substitute dims by argument expressions.
                    let mut row = LinExpr::constant(Rat::from(c.constant.clone()));
                    for (dim, coeff) in &c.coeffs {
                        row = row.add_scaled(&arg_exprs[*dim], &Rat::from(coeff.clone()));
                    }
                    match c.rel {
                        Rel::Eq => c_rows.push(row),
                        Rel::Le => {
                            // Rows like −E ≤ 0 are already implied by
                            // α ≥ 0: skip them rather than waste a slack
                            // and a dual variable on them.
                            let trivial = !row.constant_term().is_positive()
                                && row.terms().all(|(_, c)| !c.is_positive());
                            if trivial {
                                continue;
                            }
                            // row ≤ 0  ⇔  0 = row + σ, σ ≥ 0.
                            let s = alpha.slack();
                            row.add_term(s, Rat::one());
                            c_rows.push(row);
                        }
                    }
                }
            }
        }
    }

    RuleSubgoalSystem {
        head_pred,
        sub_pred,
        rule_index,
        subgoal_index,
        alpha_count: alpha.next,
        x_rows,
        y_rows,
        c_rows,
        alpha_names: alpha.names,
    }
}

/// The primal constraint system of Eq. (1) as an explicit
/// [`argus_linear::ConstraintSystem`] over variables
/// `x₀…, y₀…, α₀…` laid out contiguously. Used by tests and by the
/// LP-based (non-dual) decrease check that serves as an oracle.
pub fn primal_system(
    sys: &RuleSubgoalSystem,
) -> (argus_linear::ConstraintSystem, Vec<Var>, Vec<Var>, Vec<Var>) {
    let nx = sys.x_rows.len();
    let ny = sys.y_rows.len();
    let na = sys.alpha_count;
    let x_vars: Vec<Var> = (0..nx).collect();
    let y_vars: Vec<Var> = (nx..nx + ny).collect();
    let a_vars: Vec<Var> = (nx + ny..nx + ny + na).collect();
    let shift = |e: &LinExpr| -> LinExpr {
        let mut out = LinExpr::constant(e.constant_term().clone());
        for (v, c) in e.terms() {
            out.add_term(a_vars[v], c.clone());
        }
        out
    };
    let mut out = argus_linear::ConstraintSystem::new();
    for (i, e) in sys.x_rows.iter().enumerate() {
        out.push(Constraint::eq(LinExpr::var(x_vars[i]), shift(e)));
        out.push(Constraint::nonneg(x_vars[i]));
    }
    for (j, e) in sys.y_rows.iter().enumerate() {
        out.push(Constraint::eq(LinExpr::var(y_vars[j]), shift(e)));
        out.push(Constraint::nonneg(y_vars[j]));
    }
    for e in &sys.c_rows {
        out.push(Constraint::eq(shift(e), LinExpr::zero()));
    }
    for &v in &a_vars {
        out.push(Constraint::nonneg(v));
    }
    (out, x_vars, y_vars, a_vars)
}

/// Cache key for one per-pair dual projection, in *canonically renamed*
/// variable space (the projection routine renames the system's variables to
/// `0..k` in sorted order before keying and computing). Mutual-recursion
/// rings and fuzz corpora produce many structurally identical pair systems
/// that differ only in variable numbering; the rename makes them collide.
///
/// The canonical integer rows determine the Fourier–Motzkin run exactly
/// (elimination converts rows to [`argus_linear::IntRow`] up front), so two
/// systems with equal keys produce byte-identical projections.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProjectionKey {
    /// Canonical rows of the renamed system, in order (order matters: it
    /// fixes the Gaussian pivot choice and the output's equality ordering).
    pub rows: Vec<argus_linear::IntRow>,
    /// The renamed `w` variables to eliminate, sorted.
    pub eliminate: Vec<Var>,
    /// Redundancy tier index (different tiers may produce different row
    /// sets before the output is minimized, so they must not share entries).
    pub tier: u8,
    /// Row cap of the run.
    pub max_rows: usize,
}

/// A cached projection outcome: the renamed-space result plus the FM
/// counters its computation produced (replayed on every hit so stats totals
/// are independent of the hit/miss pattern).
#[derive(Debug, Clone)]
pub struct ProjectionEntry {
    /// The projected system in renamed space (`None`: infeasible/blowup).
    pub result: Option<argus_linear::ConstraintSystem>,
    /// FM counters of the (first) computation of this entry.
    pub stats: argus_linear::FmStats,
}

/// One independently locked shard of the cache.
type Shard = std::collections::HashMap<ProjectionKey, ProjectionEntry>;

/// Shared cache of per-pair dual projections, safe to use from the `par`
/// worker pool. Entries are pure functions of their key, and fills are
/// first-insert-wins (a racing second insert is discarded), so contents —
/// and therefore every analysis artifact — are deterministic at any
/// `--jobs` setting. One cache lives as long as one [`crate::analyze`]
/// call (or one inference run) and never evicts, so the deterministic
/// identity `hits = requests − entries` holds.
pub struct ProjectionCache {
    shards: Vec<std::sync::Mutex<Shard>>,
    requests: std::sync::atomic::AtomicU64,
    computed: std::sync::atomic::AtomicU64,
}

const PROJECTION_SHARDS: usize = 16;

impl ProjectionCache {
    /// An empty cache.
    pub fn new() -> ProjectionCache {
        ProjectionCache {
            shards: (0..PROJECTION_SHARDS)
                .map(|_| std::sync::Mutex::new(Shard::default()))
                .collect(),
            requests: std::sync::atomic::AtomicU64::new(0),
            computed: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &ProjectionKey) -> &std::sync::Mutex<Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up `key`, counting the request.
    pub fn get(&self, key: &ProjectionKey) -> Option<ProjectionEntry> {
        self.requests.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.shard(key).lock().expect("shard poisoned").get(key).cloned()
    }

    /// Publish a computed entry; returns the entry that ends up cached
    /// (an earlier racer's identical value, if one beat us to it).
    pub fn publish(&self, key: ProjectionKey, entry: ProjectionEntry) -> ProjectionEntry {
        let mut shard = self.shard(&key).lock().expect("shard poisoned");
        if let Some(cached) = shard.get(&key) {
            return cached.clone();
        }
        self.computed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        shard.insert(key, entry.clone());
        entry
    }

    /// Total lookups so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Entries resident.
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().expect("shard poisoned").len() as u64).sum()
    }

    /// Lookups answered from the cache, as the deterministic identity
    /// `requests − entries` (requests = pairs projected, entries = distinct
    /// keys — both independent of thread interleaving).
    pub fn hits(&self) -> u64 {
        self.requests().saturating_sub(self.entries())
    }

    /// Distinct projection computations published (first-insert wins, so
    /// racing duplicate computations count once).
    pub fn computed(&self) -> u64 {
        self.computed.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Default for ProjectionCache {
    fn default() -> Self {
        ProjectionCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_logic::modes::infer_modes;
    use argus_logic::parser::parse_program;
    use argus_sizerel::{infer_size_relations, InferOptions};

    /// Build the pair system for the paper's Example 3.1 (perm).
    fn perm_pair() -> RuleSubgoalSystem {
        let program = parse_program(
            "perm([], []).\n\
             perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).\n\
             append([], Ys, Ys).\n\
             append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
        )
        .unwrap();
        let root = PredKey::new("perm", 2);
        let modes = infer_modes(&program, &root, Adornment::parse("bf").unwrap());
        let rels = infer_size_relations(&program, &InferOptions::default());
        // Rule index 1 (the recursive perm rule), subgoal index 2 (perm).
        build_pair(&program.rules[1], 1, 2, &modes, &rels)
    }

    #[test]
    fn perm_shapes_match_paper() {
        let sys = perm_pair();
        // One bound head argument (P) and one bound subgoal argument (P1).
        assert_eq!(sys.x_rows.len(), 1);
        assert_eq!(sys.y_rows.len(), 1);
        // x = P: constant 0, single coefficient 1.
        assert!(sys.x_rows[0].constant_term().is_zero());
        assert_eq!(sys.x_rows[0].terms().count(), 1);
        // y = P1 similarly.
        assert!(sys.y_rows[0].constant_term().is_zero());
        // Two imported append constraints (both equalities, no slack).
        assert_eq!(sys.c_rows.len(), 2, "rows: {:?}", sys.c_rows);
        // First append constraint E + (2 + X + F) - P = 0 has constant 2.
        let constants: Vec<i64> = sys
            .c_rows
            .iter()
            .map(|r| r.constant_term().numer().to_i128().unwrap() as i64)
            .collect();
        assert!(constants.contains(&2), "expected the paper's c = (2, 0): {constants:?}");
        assert!(constants.contains(&0));
        assert!(!sys.forces_zero_delta(), "perm pair has nonzero c");
    }

    #[test]
    fn merge_pair_has_empty_c() {
        // Example 5.1: "The matrices c and C are empty because the subgoal
        // X =< Y does not supply any contribution."
        let program = parse_program(
            "merge([], Ys, Ys).\n\
             merge(Xs, [], Xs).\n\
             merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).\n\
             merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).",
        )
        .unwrap();
        let root = PredKey::new("merge", 3);
        let modes = infer_modes(&program, &root, Adornment::parse("bbf").unwrap());
        let rels = infer_size_relations(&program, &InferOptions::default());
        let sys = build_pair(&program.rules[2], 2, 1, &modes, &rels);
        assert!(sys.c_rows.is_empty());
        // Two bound head args: [X|Xs] has size 2 + X + Xs; [Y|Ys] likewise.
        assert_eq!(sys.x_rows.len(), 2);
        assert_eq!(sys.x_rows[0].constant_term(), &Rat::from_int(2));
        assert_eq!(sys.x_rows[1].constant_term(), &Rat::from_int(2));
        // y rows: [Y|Ys] (size 2 + …) and Xs (size 0 + Xs) — the paper's
        // b = (2, 0).
        assert_eq!(sys.y_rows.len(), 2);
        assert_eq!(sys.y_rows[0].constant_term(), &Rat::from_int(2));
        assert!(sys.y_rows[1].constant_term().is_zero());
        assert!(!sys.forces_zero_delta(), "a = (2,2) is nonzero");
    }

    #[test]
    fn negative_preceding_subgoal_is_discarded() {
        let program = parse_program(
            "p([X|Xs]) :- \\+ q(Xs), p(Xs).\n\
             q([]).",
        )
        .unwrap();
        let root = PredKey::new("p", 1);
        let modes = infer_modes(&program, &root, Adornment::parse("b").unwrap());
        let rels = infer_size_relations(&program, &InferOptions::default());
        let sys = build_pair(&program.rules[0], 0, 1, &modes, &rels);
        assert!(sys.c_rows.is_empty(), "negated q must contribute nothing");
    }

    #[test]
    fn inequality_imports_get_slacks() {
        // The parser example: t's constraint t1 >= 2 + t2 is an inequality,
        // so applying it introduces a slack variable.
        let program = parse_program(
            "e(L, T) :- t(L, ['+'|C]), e(C, T).\n\
             e(L, T) :- t(L, T).\n\
             t(L, T) :- n(L, ['*'|C]), t(C, T).\n\
             t(L, T) :- n(L, T).\n\
             n(['('|A], T) :- e(A, [')'|T]).\n\
             n([L|T], T) :- z(L).",
        )
        .unwrap();
        let root = PredKey::new("e", 2);
        let modes = infer_modes(&program, &root, Adornment::parse("bf").unwrap());
        let rels = infer_size_relations(&program, &InferOptions::default());
        // Rule 0, recursive subgoal e at index 1; preceding subgoal t.
        let sys = build_pair(&program.rules[0], 0, 1, &modes, &rels);
        assert!(!sys.c_rows.is_empty());
        assert!(
            sys.alpha_names.iter().any(|n| n.starts_with("sigma")),
            "expected a slack from t's inequality constraint: {:?}",
            sys.alpha_names
        );
        // This pair (e,e) does not force delta to zero: c has the constant
        // 4 the paper derives.
        assert!(!sys.forces_zero_delta());
        // The pair for the t subgoal of the same rule has no preceding
        // subgoals and zero constants: it forces delta_et = 0 (§6.1).
        let sys_t = build_pair(&program.rules[0], 0, 0, &modes, &rels);
        assert!(sys_t.forces_zero_delta());
    }

    #[test]
    fn primal_system_is_satisfiable_for_real_rule() {
        let sys = perm_pair();
        let (primal, x_vars, y_vars, _) = primal_system(&sys);
        let nonneg: std::collections::BTreeSet<Var> = primal.vars().into_iter().collect();
        let pt = argus_linear::simplex::feasible_point(&primal, &nonneg)
            .expect("Eq.1 for perm must be satisfiable");
        assert!(primal.holds_at(&pt));
        // And the decrease x > y is witnessed in the primal: minimize x - y
        // must be >= 1 over the feasible region (this is what the dual
        // certifies with theta = 1/2 scaled... here theta fixed at 1).
        let mut obj = LinExpr::var(x_vars[0]);
        obj.add_term(y_vars[0], -Rat::one());
        let lp = argus_linear::LpProblem { objective: obj, constraints: primal, nonneg };
        match lp.solve() {
            argus_linear::LpOutcome::Optimal { value, .. } => {
                // x - y = P - P1 = 2 + X >= 2 by the append constraints.
                assert!(value >= Rat::from_int(2), "min(x - y) = {value}");
            }
            other => panic!("unexpected LP outcome: {other:?}"),
        }
    }
}
