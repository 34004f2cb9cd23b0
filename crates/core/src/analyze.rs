//! The end-to-end termination analyzer.
//!
//! Pipeline (paper §3–§6 plus appendices):
//!
//! 1. **Preprocess** (Appendix A): eliminate positive equality; alternate
//!    safe unfolding and predicate splitting for a fixed number of phases.
//! 2. **Modes**: propagate the query's bound–free adornment so every
//!    predicate has a single adornment (§3's standing assumption).
//! 3. **Size relations** (\[VG90\], automated in `argus-sizerel`): infer the
//!    imported inter-argument feasibility constraints for every predicate —
//!    required for the *whole* SCC before its termination analysis starts
//!    (§6.2). Manual constraints may override the inference. Stages 2–3
//!    are [`prepare`], the one place a query becomes a [`Prepared`]
//!    program; every decision procedure reads its output.
//! 4. **Per SCC, bottom-up**: build Eq. (1) for every rule × recursive-
//!    subgoal pair, choose the δ's (§6.1 or Appendix C), take the LP dual
//!    and eliminate the undistinguished variables by Fourier–Motzkin
//!    (§4), conjoin all pairs' θ-constraints, and test feasibility with an
//!    exact simplex. A feasible point is a *termination witness*: per
//!    predicate, the nonnegative coefficients of a linear combination of
//!    bound argument sizes that strictly decreases (by δ) on every
//!    recursive descent.

use crate::delta::{assign_deltas, DeltaOutcome};
use crate::dual::{
    dual_fm_config, eq9_systems, feasibility_system, project_pair_with, refutation_system,
    theta_point, DeltaTerm,
};
use crate::incremental::{IncrementalRunStats, SccCache};
use crate::negweight::{positive_cycle_constraints, DeltaVars};
use crate::pairs::{ProjectionCache, RuleSubgoalSystem};
use crate::theta::ThetaSpace;
use argus_linear::fm::{FmStats, FmTier};
use argus_linear::{ConstraintSystem, Rat, Var};
use argus_logic::modes::{Adornment, ModeMap};
use argus_logic::program::ProcIndex;
use argus_logic::span::Span;
use argus_logic::{DepGraph, PredKey, Program, Rule};
use argus_sizerel::{infer_size_relations, InferOptions, SizeRelations};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// How δ decrements are chosen for mutual recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaMode {
    /// The paper's §6.1 procedure: δ ∈ {0, 1} fixed up front, Floyd
    /// min-plus closure to reject zero-weight cycles.
    #[default]
    Paper,
    /// Appendix C: δ's are variables, positive cycles enforced by path
    /// constraints; permits negative δ on some edges.
    PathConstraints,
}

/// Options for [`analyze`].
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Rounds of the Appendix A transformation driver (0 disables
    /// preprocessing; the paper suggests 3).
    pub transform_phases: usize,
    /// δ selection strategy.
    pub delta_mode: DeltaMode,
    /// Manually supplied size relations (override the inference, exactly
    /// like the paper's "imported feasibility constraints … taken as
    /// input").
    pub imported: Vec<(PredKey, argus_linear::Poly)>,
    /// Term-size norm used for both the size-relation inference and the
    /// decrease condition. The paper fixes structural size; [UVG88]'s
    /// list-length (right spine) is available as an alternative — some
    /// programs are provable under one and not the other.
    pub norm: argus_logic::Norm,
    /// Extension beyond the paper: when the single linear combination fails
    /// for an SCC, attempt a LEXICOGRAPHIC tuple of combinations
    /// ([`crate::lexico`]). Lifts the §7 limitation on programs like
    /// Ackermann whose descent alternates between arguments. Off by
    /// default to keep the baseline faithful to the paper.
    pub lexicographic: bool,
    /// Appendix B: restrict the imported relations to *binary partial-order
    /// constraints* (two variables, unit coefficients) — the information a
    /// Brodsky–Sagiv-style argument-mapping method works from. The paper
    /// observes this restriction still handles Examples 5.1 and 6.1 but
    /// loses Example 3.1 (`perm`), whose `append` constraint relates three
    /// sizes at once.
    pub restrict_imports_to_binary_orders: bool,
    /// Worker threads for the level-scheduled SCC pipeline and the
    /// per-pair projection probes. `0` (the default) means one per
    /// available core; `1` forces the fully sequential path. The analysis
    /// result — report text, certificates, JSON — is byte-identical at
    /// every setting.
    pub parallelism: usize,
    /// Fourier–Motzkin redundancy tier for the per-pair dual projections
    /// (debug knob; the analysis result is byte-identical at every tier,
    /// only the work done differs).
    pub fm_tier: FmTier,
    /// Wall-clock deadline for the whole analysis. Threaded into the
    /// Fourier–Motzkin engine ([`argus_linear::FmConfig::deadline`]) so a
    /// runaway projection aborts mid-elimination, and checked before the
    /// Appendix A transform retry. A deadline abort degrades the affected
    /// SCC to "no linear decrease found" — callers that care (the `argus
    /// serve` request path) must check the wall clock afterwards and
    /// discard the report rather than present it as a genuine verdict.
    /// `None` (the default) preserves the fully deterministic behavior.
    pub deadline: Option<std::time::Instant>,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            transform_phases: 3,
            delta_mode: DeltaMode::Paper,
            imported: Vec::new(),
            norm: argus_logic::Norm::default(),
            lexicographic: false,
            restrict_imports_to_binary_orders: false,
            parallelism: 0,
            fm_tier: FmTier::default(),
            deadline: None,
        }
    }
}

/// Outcome of analyzing one SCC.
#[derive(Debug, Clone)]
pub enum SccOutcome {
    /// The SCC is not recursive: nothing to prove.
    NonRecursive,
    /// Termination proved; the witness gives, per predicate, the θ vector
    /// over its bound arguments.
    Proved {
        /// Per-predicate θ coefficients (bound argument positions).
        witness: BTreeMap<PredKey, Vec<Rat>>,
        /// The δ decrement chosen per dependency edge.
        deltas: BTreeMap<(PredKey, PredKey), Rat>,
    },
    /// Proved by the lexicographic extension ([`crate::lexico`]): a tuple
    /// of linear combinations ranks the recursion even though no single
    /// one does.
    ProvedLexicographic {
        /// The multi-level ranking.
        proof: crate::lexico::LexicographicProof,
    },
    /// §6.1 step 3 found a zero-weight cycle — strong evidence of
    /// nontermination.
    ZeroWeightCycle(Vec<PredKey>),
    /// The combined θ system is infeasible: no nonnegative linear
    /// combination of bound argument sizes provably decreases.
    NoLinearDecrease {
        /// A Farkas refutation of the θ system (over
        /// [`SccAnalysis::refutation_system`]); `None` only when the search
        /// stopped early (a failed projection or the deadline). Lets the
        /// failure be re-checked without trusting the simplex: the
        /// multipliers combine the system's rows into an absurd positive
        /// constant.
        refutation: Option<argus_linear::FarkasCertificate>,
    },
}

/// How a blamed rule × subgoal pair defeats the θ search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlameKind {
    /// The pair's own constraints already admit no decreasing linear
    /// combination — this recursive call is unprovable in isolation.
    Alone,
    /// Every pair is satisfiable alone, but adding this one makes the
    /// conjunction infeasible: it demands a measure incompatible with the
    /// measures the earlier pairs allow.
    Conjunction,
}

/// The rule × recursive-subgoal pair that blocks the termination proof of
/// an SCC — the "which recursive call defeats every argument-size measure"
/// explanation attached to [`SccOutcome::NoLinearDecrease`].
#[derive(Debug, Clone)]
pub struct PairBlame {
    /// Head predicate of the blamed rule.
    pub head_pred: PredKey,
    /// Predicate of the blamed recursive subgoal.
    pub sub_pred: PredKey,
    /// The blamed rule itself (spans intact when the program was parsed).
    pub rule: Rule,
    /// Index of the blamed rule in the SCC's [`DepGraph::scc_rules`] list
    /// (lets the incremental memo store blame positionally and re-attach
    /// the rule — with current spans — on a cache hit).
    pub rule_index: usize,
    /// Index of the blamed recursive subgoal in the rule body.
    pub subgoal_index: usize,
    /// Whether the pair fails alone or only in conjunction.
    pub kind: BlameKind,
}

impl PairBlame {
    /// Source span of the blamed recursive call, if the rule was parsed.
    pub fn subgoal_span(&self) -> Option<Span> {
        self.rule
            .body
            .get(self.subgoal_index)
            .and_then(|l| l.atom.span.get().or_else(|| l.span.get()))
            .or_else(|| self.rule.span.get())
    }

    /// One-line human-readable explanation.
    pub fn describe(&self) -> String {
        let call = self
            .rule
            .body
            .get(self.subgoal_index)
            .map(|l| l.atom.to_string())
            .unwrap_or_else(|| self.sub_pred.to_string());
        let loc = match self.subgoal_span() {
            Some(s) => format!(" at {s}"),
            None => String::new(),
        };
        let how = match self.kind {
            BlameKind::Alone => "admits no decreasing measure even alone",
            BlameKind::Conjunction => {
                "is incompatible with the measures the other recursive calls allow"
            }
        };
        format!("recursive call `{call}`{loc} in a rule for {head} {how}", head = self.head_pred)
    }
}

impl SccOutcome {
    /// Does this outcome certify termination of the SCC?
    pub fn is_proved(&self) -> bool {
        matches!(
            self,
            SccOutcome::NonRecursive
                | SccOutcome::Proved { .. }
                | SccOutcome::ProvedLexicographic { .. }
        )
    }
}

/// Per-SCC performance counters (`argus analyze --stats`). The FM counters
/// are exact deterministic counts — identical at every `--jobs` setting and
/// independent of the cache hit/miss pattern (cache hits replay the stored
/// counters) — so they are safe to pin in CI. Wall time is the one
/// exception and is kept out of JSON output.
#[derive(Debug, Clone, Copy, Default)]
pub struct SccStats {
    /// Wall-clock time analyzing this SCC (text reports only; not stable).
    pub wall_nanos: u128,
    /// Merged Fourier–Motzkin counters over every pair projection.
    pub fm: FmStats,
    /// Pair projections performed (cache hits included).
    pub projections: u64,
}

/// Whole-run counters (`argus analyze --stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Projection-cache lookups (equals total pair projections).
    pub cache_requests: u64,
    /// Distinct projections computed (cache entries).
    pub cache_entries: u64,
}

impl RunStats {
    /// Lookups answered from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_requests.saturating_sub(self.cache_entries)
    }
}

/// The analysis record of one SCC.
#[derive(Debug, Clone)]
pub struct SccAnalysis {
    /// Predicates of the SCC.
    pub members: Vec<PredKey>,
    /// Result.
    pub outcome: SccOutcome,
    /// The θ constraint system after eliminating all undistinguished
    /// variables (for display; empty for nonrecursive SCCs).
    pub theta_constraints: ConstraintSystem,
    /// θ variable allocation (for rendering `theta_constraints`).
    pub theta_space: ThetaSpace,
    /// Number of rule × recursive-subgoal pairs processed.
    pub pair_count: usize,
    /// When the outcome is [`SccOutcome::NoLinearDecrease`], the pair that
    /// blocks the proof (when one could be isolated).
    pub blame: Option<PairBlame>,
    /// Performance counters for this SCC's analysis.
    pub stats: SccStats,
}

impl SccAnalysis {
    /// The system a [`SccOutcome::NoLinearDecrease`] refutation certifies
    /// against: the reduced θ constraints plus the `θ ≥ 0` rows, built by
    /// the same [`refutation_system`] the search used.
    pub fn refutation_system(&self) -> ConstraintSystem {
        refutation_system(&self.theta_constraints, &self.theta_space)
    }

    /// If the outcome carries a Farkas refutation, re-verify it against
    /// [`SccAnalysis::refutation_system`].
    pub fn verify_refutation(&self) -> Option<bool> {
        match &self.outcome {
            SccOutcome::NoLinearDecrease { refutation: Some(cert) } => {
                Some(cert.verify(&self.refutation_system()))
            }
            _ => None,
        }
    }

    /// Render the reduced θ constraints with their paper-style names.
    pub fn render_constraints(&self) -> Vec<String> {
        self.theta_constraints
            .constraints()
            .iter()
            .map(|c| self.theta_space.pool().render_constraint(c))
            .collect()
    }
}

/// Overall verdict for the queried predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every recursive SCC reachable from the query has a decrease
    /// certificate: top-down evaluation terminates.
    Terminates,
    /// At least one SCC could not be certified. The method is a sufficient
    /// condition: this does NOT prove nontermination …
    Unknown,
    /// … except that a zero-weight cycle is reported separately as strong
    /// evidence of nontermination (§6.1).
    ZeroWeightCycle,
}

/// Full report of a termination analysis.
#[derive(Debug, Clone)]
pub struct TerminationReport {
    /// The program after Appendix A preprocessing.
    pub program: Program,
    /// The query predicate.
    pub query: PredKey,
    /// Inferred adornments.
    pub modes: ModeMap,
    /// Inferred (or supplied) size relations.
    pub size_relations: SizeRelations,
    /// Per-SCC analyses, bottom-up.
    pub sccs: Vec<SccAnalysis>,
    /// Overall verdict.
    pub verdict: Verdict,
    /// Whole-run performance counters.
    pub run_stats: RunStats,
    /// Per-SCC memo counters when the run used [`analyze_with_caches`]'s
    /// incremental mode (`None` on a cold run). Stats-only: never part of
    /// the default report text or JSON, which stay byte-identical to a
    /// cold run.
    pub incremental: Option<IncrementalRunStats>,
}

impl TerminationReport {
    /// The analysis record covering predicate `p`, if any.
    pub fn scc_of(&self, p: &PredKey) -> Option<&SccAnalysis> {
        self.sccs.iter().find(|s| s.members.contains(p))
    }

    /// The θ witness for `p`, if the analysis proved its SCC.
    pub fn witness_for(&self, p: &PredKey) -> Option<&[Rat]> {
        match &self.scc_of(p)?.outcome {
            SccOutcome::Proved { witness, .. } => witness.get(p).map(|v| v.as_slice()),
            _ => None,
        }
    }

    /// Render the `--stats` text block: per-SCC wall time and FM counters,
    /// then the projection-cache hit rate.
    pub fn render_stats(&self) -> String {
        use fmt::Write as _;
        let mut out = String::from("stats:\n");
        for scc in &self.sccs {
            let names: Vec<String> = scc.members.iter().map(|p| p.to_string()).collect();
            let fm = &scc.stats.fm;
            let _ = writeln!(
                out,
                "  SCC {{{}}}: {:.3}ms, {} projection(s), fm rows {} -> {} (peak {}), \
                 pairs {}, dedup {}, subsume {}, chernikov {}, lp {}, combs {}i64/{}big",
                names.join(", "),
                scc.stats.wall_nanos as f64 / 1e6,
                scc.stats.projections,
                fm.rows_in,
                fm.rows_out,
                fm.peak_rows,
                fm.pairs_combined,
                fm.dedup_hits,
                fm.subsume_hits,
                fm.chernikov_drops,
                fm.lp_drops,
                fm.small_combs,
                fm.big_combs,
            );
        }
        let rs = &self.run_stats;
        if rs.cache_requests > 0 {
            let _ = writeln!(
                out,
                "  projection cache: {} request(s), {} computed, {} hit(s) ({:.1}%)",
                rs.cache_requests,
                rs.cache_entries,
                rs.cache_hits(),
                100.0 * rs.cache_hits() as f64 / rs.cache_requests as f64,
            );
        } else {
            let _ = writeln!(out, "  projection cache: disabled or unused");
        }
        if let Some(inc) = &self.incremental {
            let [size_hits, size_misses, theta_hits, theta_misses] = inc.counters().map(|(_, v)| v);
            let _ = writeln!(
                out,
                "  incremental: sizerel {size_hits} hit(s) / {size_misses} miss(es), \
                 theta {theta_hits} hit(s) / {theta_misses} miss(es), \
                 dirty cone {} of {} scc computation(s)",
                inc.dirty(),
                inc.total(),
            );
        }
        // Process-global substrate gauges (intentionally text-only: they
        // accumulate across every program this process has touched, so
        // they would break byte-stability of the JSON report).
        let _ = writeln!(
            out,
            "  substrate: {} symbol(s) interned ({} bytes)",
            argus_logic::intern::symbols_interned(),
            argus_logic::intern::interned_bytes(),
        );
        out
    }
}

impl fmt::Display for TerminationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query: {} — verdict: {:?}", self.query, self.verdict)?;
        for scc in &self.sccs {
            let names: Vec<String> = scc.members.iter().map(|p| p.to_string()).collect();
            write!(f, "  SCC {{{}}}: ", names.join(", "))?;
            match &scc.outcome {
                SccOutcome::NonRecursive => writeln!(f, "nonrecursive")?,
                SccOutcome::Proved { witness, deltas } => {
                    writeln!(f, "PROVED")?;
                    for (p, th) in witness {
                        let parts: Vec<String> = th.iter().map(|r| r.to_string()).collect();
                        writeln!(f, "    theta[{p}] = ({})", parts.join(", "))?;
                    }
                    for ((h, s), d) in deltas {
                        writeln!(f, "    delta[{h} -> {s}] = {d}")?;
                    }
                }
                SccOutcome::ProvedLexicographic { proof } => {
                    writeln!(f, "PROVED (lexicographic, {} level(s))", proof.levels.len())?;
                    for (li, level) in proof.levels.iter().enumerate() {
                        for (p, th) in level {
                            let parts: Vec<String> = th.iter().map(|r| r.to_string()).collect();
                            writeln!(
                                f,
                                "    level {} theta[{p}] = ({})",
                                li + 1,
                                parts.join(", ")
                            )?;
                        }
                    }
                }
                SccOutcome::ZeroWeightCycle(cycle) => {
                    let names: Vec<String> = cycle.iter().map(|p| p.to_string()).collect();
                    writeln!(f, "ZERO-WEIGHT CYCLE: {}", names.join(" -> "))?
                }
                SccOutcome::NoLinearDecrease { refutation } => {
                    writeln!(
                        f,
                        "no linear decrease found{}",
                        if refutation.is_some() { " (Farkas refutation attached)" } else { "" }
                    )?;
                    if let Some(blame) = &scc.blame {
                        writeln!(f, "    blame: {}", blame.describe())?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Analyze `program` for top-down termination of `query` called with
/// `adornment`.
///
/// The Appendix A transformations are applied *lazily*: the raw program is
/// analyzed first, and only when that fails are the transformations run and
/// the analysis retried (the transformations exist to *enable* analysis on
/// programs not already in the required form, such as Example A.1; applying
/// them to already-analyzable programs only obscures the result).
pub fn analyze(
    program: &Program,
    query: &PredKey,
    adornment: Adornment,
    options: &AnalysisOptions,
) -> TerminationReport {
    analyze_with_caches(program, query, adornment, options, None, None)
}

/// [`analyze`] with caller-supplied caches.
///
/// When `shared_cache` is `Some`, per-pair dual projections are looked up
/// in — and published to — the supplied cache instead of one created for
/// this call, so the probes of one inference run share their projections.
/// Entries are pure functions of their key, so sharing cannot change any
/// report byte; only [`RunStats`] (which then snapshots the shared cache's
/// totals) differs.
///
/// With `scc_memo` supplied, both per-SCC computations of the pipeline —
/// the size-relation fixpoint and the θ analysis — are keyed on a content
/// hash of the SCC's rules plus its imported inputs and answered from the
/// memo when unchanged (see [`crate::incremental`]). After an edit only
/// the dirty SCC cone recomputes, and the resulting report is
/// byte-identical to a cold run in its text and default-JSON forms.
/// [`RunStats`] (projection-cache totals, `--stats` only) legitimately
/// differs — cache hits skip projections entirely — and
/// [`TerminationReport::incremental`] is populated with hit/miss counters.
pub fn analyze_with_caches(
    program: &Program,
    query: &PredKey,
    adornment: Adornment,
    options: &AnalysisOptions,
    shared_cache: Option<&ProjectionCache>,
    scc_memo: Option<&SccCache>,
) -> TerminationReport {
    let raw = prepare(program, query, adornment.clone(), options, scc_memo);
    analyze_prepared(raw, program, query, adornment, options, shared_cache, scc_memo)
}

/// [`analyze_with_caches`] from the raw program's prepared form: `raw`
/// must be what [`prepare`] returns for `program`, `query` and
/// `adornment` under `options` and `scc_memo`. Lets engines that share
/// one [`Prepared`] (the portfolio's θ-method and size-change runs) skip
/// the second size-relation fixpoint.
pub fn analyze_prepared(
    raw: Prepared,
    program: &Program,
    query: &PredKey,
    adornment: Adornment,
    options: &AnalysisOptions,
    shared_cache: Option<&ProjectionCache>,
    scc_memo: Option<&SccCache>,
) -> TerminationReport {
    let raw = decide(raw, options, shared_cache, scc_memo);
    if raw.verdict == Verdict::Terminates || options.transform_phases == 0 {
        return raw;
    }
    if options.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
        return raw; // budget spent: skip the transform retry
    }
    // Retry on the transformed program.
    let roots: BTreeSet<PredKey> = [query.clone()].into_iter().collect();
    let (transformed, _report) =
        argus_transform::transform_fixed_phases(program, &roots, options.transform_phases);
    if transformed == *program || transformed.rules.len() > 1000 {
        return raw; // nothing changed, or growth guard tripped
    }
    let cooked = prepare(&transformed, query, adornment, options, scc_memo);
    let cooked = decide(cooked, options, shared_cache, scc_memo);
    if cooked.verdict == Verdict::Terminates {
        return cooked;
    }
    // Neither proved: prefer the raw report when it carries the stronger
    // zero-weight-cycle evidence.
    if raw.verdict == Verdict::ZeroWeightCycle {
        raw
    } else {
        cooked
    }
}

/// A query's prepared program: what every decision procedure reads, built
/// once by [`prepare`]. The θ-method, its lexicographic fallback and the
/// size-change engine all check these same size relations.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The adorned program: one predicate copy per calling adornment.
    pub program: Program,
    /// The adorned query predicate.
    pub query: PredKey,
    /// The adornment of every predicate reachable from the query.
    pub modes: ModeMap,
    /// Dependency graph and SCC condensation of the adorned program.
    pub graph: DepGraph,
    /// The adorned program's rules by head predicate.
    pub proc_index: ProcIndex,
    /// The final size relations: inferred, then overridden by
    /// [`AnalysisOptions::imported`] and restricted per Appendix B when
    /// [`AnalysisOptions::restrict_imports_to_binary_orders`] is set.
    pub size_relations: SizeRelations,
    /// Size-relation memo hits and misses of this preparation (all zero
    /// without a memo).
    pub incremental: IncrementalRunStats,
}

/// Turn a query into its [`Prepared`] program: adorn, condense, and infer
/// the size relations (§6.2: the whole program's, before any SCC is
/// decided). With `scc_memo` the fixpoint is answered per SCC from the
/// memo, byte-identical to the cold inference.
pub fn prepare(
    program: &Program,
    query: &PredKey,
    adornment: Adornment,
    options: &AnalysisOptions,
    scc_memo: Option<&SccCache>,
) -> Prepared {
    // 2. Adorn: one predicate copy per calling adornment, so every
    // predicate has a single bound-free adornment (the paper's standing
    // assumption in §3).
    let adorned = argus_logic::adorn_program(program, query, adornment);
    let graph = DepGraph::build(&adorned.program);
    let proc_index = ProcIndex::build(&adorned.program);
    let mut incremental = IncrementalRunStats::default();

    // 3. Size relations (inferred under the analysis norm). The memoized
    // path walks the same SCCs in the same order with the same per-SCC
    // fixpoint, so its result is byte-identical to the cold inference.
    let infer_options = InferOptions { norm: options.norm, ..InferOptions::default() };
    let mut rels = match scc_memo {
        None => infer_size_relations(&adorned.program, &infer_options),
        Some(memo) => crate::incremental::incremental_size_relations(
            &adorned.program,
            &graph,
            &proc_index,
            &infer_options,
            memo,
            &mut incremental,
        ),
    };
    for (p, poly) in &options.imported {
        rels.insert(p.clone(), poly.clone());
    }
    if options.restrict_imports_to_binary_orders {
        rels = restrict_to_binary_orders(&rels);
    }
    Prepared {
        program: adorned.program,
        query: adorned.query,
        modes: adorned.modes,
        graph,
        proc_index,
        size_relations: rels,
        incremental,
    }
}

/// Decide every SCC of a prepared program bottom-up and assemble the
/// report (stage 4).
fn decide(
    prepared: Prepared,
    options: &AnalysisOptions,
    shared_cache: Option<&ProjectionCache>,
    scc_memo: Option<&SccCache>,
) -> TerminationReport {
    let Prepared {
        program,
        query,
        modes,
        graph,
        proc_index,
        size_relations: rels,
        mut incremental,
    } = prepared;
    // Digests of the final relations, for θ-phase memo keys (computed once
    // up front so the per-SCC workers share an immutable map).
    let rel_digests: Option<HashMap<PredKey, u64>> = scc_memo.map(|_| {
        rels.iter().map(|(p, poly)| (p.clone(), crate::incremental::poly_digest(poly))).collect()
    });

    // 4. SCCs bottom-up, scheduled by topological level. The size
    // relations every SCC imports (§6.2) were inferred globally above, so
    // SCCs on the same level share only immutable inputs and fan out
    // across the worker pool. Results land in per-SCC slots and are
    // emitted in the sequential path's exact bottom-up order, so the
    // report (and everything derived from it) is byte-identical at any
    // parallelism.
    //
    // One projection cache per run, shared by every SCC and every worker —
    // unless the caller supplied one.
    let own_cache = ProjectionCache::new();
    let cache = shared_cache.unwrap_or(&own_cache);
    let mut slots: Vec<Option<SccAnalysis>> = (0..graph.scc_count()).map(|_| None).collect();
    for level in graph.scc_levels() {
        // Skip SCCs not reachable from the query (no adornment) and
        // EDB-only SCCs: they produce no report entry.
        let jobs: Vec<usize> = level
            .into_iter()
            .filter(|&id| {
                let members = graph.scc(id);
                let reachable = members.iter().any(|p| modes.get(p).is_some());
                let has_rules = members.iter().any(|p| !proc_index.rule_indices(p).is_empty());
                reachable && has_rules
            })
            .collect();
        let workers = crate::par::effective_workers(options.parallelism, jobs.len());
        let memo = scc_memo.zip(rel_digests.as_ref());
        let results = crate::par::par_map_indexed(&jobs, workers, |_, &scc_id| {
            analyze_one_scc(&graph, &program, scc_id, &modes, &rels, options, cache, memo)
        });
        for (id, (analysis, scc_incr)) in jobs.into_iter().zip(results) {
            incremental.merge(&scc_incr);
            slots[id] = Some(analysis);
        }
    }

    let mut sccs = Vec::new();
    let mut verdict = Verdict::Terminates;
    for scc_id in graph.sccs_bottom_up() {
        let Some(analysis) = slots[scc_id].take() else { continue };
        match &analysis.outcome {
            SccOutcome::ZeroWeightCycle(_) => verdict = Verdict::ZeroWeightCycle,
            SccOutcome::NoLinearDecrease { .. } if verdict == Verdict::Terminates => {
                verdict = Verdict::Unknown
            }
            _ => {}
        }
        sccs.push(analysis);
    }

    let run_stats = RunStats { cache_requests: cache.requests(), cache_entries: cache.entries() };
    TerminationReport {
        program,
        query,
        modes,
        size_relations: rels,
        sccs,
        verdict,
        run_stats,
        incremental: scc_memo.map(|_| incremental),
    }
}

/// Analyze one SCC end-to-end: nonrecursive short-circuit, the θ search,
/// and the optional lexicographic fallback. Reads only shared immutable
/// inputs, so SCCs on the same topological level can run concurrently.
///
/// With a memo (and the digests of the final size relations), a recursive
/// SCC is keyed on its rules, adornments and imported size relations and
/// replayed from the memo when unchanged; the returned counters record the
/// θ hit or miss. Nonrecursive SCCs are computed directly (the
/// short-circuit is cheaper than a probe).
#[allow(clippy::too_many_arguments)] // shared immutable analysis context, one slot each
fn analyze_one_scc(
    graph: &DepGraph,
    program: &Program,
    scc_id: usize,
    modes: &ModeMap,
    rels: &SizeRelations,
    options: &AnalysisOptions,
    cache: &ProjectionCache,
    memo: Option<(&SccCache, &HashMap<PredKey, u64>)>,
) -> (SccAnalysis, IncrementalRunStats) {
    let started = std::time::Instant::now();
    let members: Vec<PredKey> = graph.scc(scc_id);
    let mut incr = IncrementalRunStats::default();
    let mut analysis = if !members.iter().any(|p| graph.is_recursive(p)) {
        SccAnalysis {
            members,
            outcome: SccOutcome::NonRecursive,
            theta_constraints: ConstraintSystem::new(),
            theta_space: ThetaSpace::new(),
            pair_count: 0,
            blame: None,
            stats: SccStats::default(),
        }
    } else if let Some((memo, rel_digests)) = memo {
        let rules = graph.scc_rules(program, scc_id);
        let key = crate::incremental::theta_key(&members, &rules, modes, rel_digests, options);
        let hit = memo.get(&key).and_then(|body| {
            crate::incremental::decode_theta_entry(&body, &members, &rules, modes)
        });
        match hit {
            Some(analysis) => {
                incr.theta_hits = 1;
                analysis
            }
            None => {
                incr.theta_misses = 1;
                let analysis =
                    analyze_scc(graph, program, scc_id, members, modes, rels, options, cache);
                // Deadline safety: FM aborts only fire once the wall clock
                // passes the deadline, so an SCC finishing *before* the
                // deadline cannot contain a degraded projection — only
                // those results are published.
                if options.deadline.is_none_or(|d| std::time::Instant::now() < d) {
                    memo.put(&key, &crate::incremental::encode_theta_entry(&analysis));
                }
                analysis
            }
        }
    } else {
        analyze_scc(graph, program, scc_id, members, modes, rels, options, cache)
    };
    analysis.stats.wall_nanos = started.elapsed().as_nanos();
    (analysis, incr)
}

/// Appendix B restriction: keep only constraints with at most two
/// variables, both with coefficient ±1 after canonicalization — i.e. plain
/// partial-order (and difference) constraints between argument positions.
fn restrict_to_binary_orders(rels: &SizeRelations) -> SizeRelations {
    let mut out = SizeRelations::new();
    for (p, poly) in rels.iter() {
        if poly.is_empty() {
            out.insert(p.clone(), poly.clone());
            continue;
        }
        let kept: Vec<argus_linear::Constraint> = poly
            .constraints()
            .constraints()
            .iter()
            .filter(|c| {
                let canon = c.canonicalized();
                let nvars = canon.expr.terms().count();
                nvars <= 2 && canon.expr.terms().all(|(_, k)| k == &Rat::one() || k == &-Rat::one())
            })
            .cloned()
            .collect();
        out.insert(
            p.clone(),
            argus_linear::Poly::from_constraints(p.arity, ConstraintSystem::from_constraints(kept)),
        );
    }
    out
}

/// How δ enters an SCC's Eq. (9) systems — the one place the §6.1 and
/// Appendix C modes differ.
struct DeltaPlan {
    /// The δ of every dependency edge: §6.1's fixed value or Appendix C's
    /// symbolic variable.
    edges: BTreeMap<(PredKey, PredKey), DeltaTerm>,
    /// Rows every pair shares: Appendix C's positive-cycle system (none in
    /// §6.1).
    base: Vec<ConstraintSystem>,
    /// First variable id free for the pairs' `w` duals.
    w_base: Var,
}

impl DeltaPlan {
    /// The plan for `mode`, or the zero-weight cycle with which §6.1 step 3
    /// rejects the SCC up front.
    fn new(
        mode: DeltaMode,
        members: &[PredKey],
        pairs: &[RuleSubgoalSystem],
        space: &ThetaSpace,
    ) -> Result<DeltaPlan, Vec<PredKey>> {
        match mode {
            DeltaMode::Paper => match assign_deltas(members, pairs) {
                DeltaOutcome::Ok(a) => Ok(DeltaPlan {
                    edges: a.delta.into_iter().map(|(e, d)| (e, DeltaTerm::Constant(d))).collect(),
                    base: Vec::new(),
                    w_base: space.len(),
                }),
                DeltaOutcome::ZeroWeightCycle(cycle) => Err(cycle),
            },
            DeltaMode::PathConstraints => {
                // Symbolic δ's, kept free, with positive-cycle path
                // constraints over them.
                let edges: BTreeSet<(PredKey, PredKey)> =
                    pairs.iter().map(|p| (p.head_pred.clone(), p.sub_pred.clone())).collect();
                let deltas = DeltaVars::allocate(&edges, space.len());
                let pi_base = space.len() + deltas.len();
                Ok(DeltaPlan {
                    edges: deltas
                        .iter()
                        .map(|(e, &v)| (e.clone(), DeltaTerm::Variable(v)))
                        .collect(),
                    base: vec![positive_cycle_constraints(members, &deltas, pi_base)],
                    w_base: pi_base + members.len() * members.len(),
                })
            }
        }
    }

    /// The δ term of `pair`'s value row.
    fn term(&self, pair: &RuleSubgoalSystem) -> DeltaTerm {
        self.edges[&(pair.head_pred.clone(), pair.sub_pred.clone())]
    }

    /// The δ per dependency edge of a proof found at `point`.
    fn read_deltas(&self, point: &BTreeMap<Var, Rat>) -> BTreeMap<(PredKey, PredKey), Rat> {
        let value = |t: &DeltaTerm| match *t {
            DeltaTerm::Constant(d) => Rat::from_int(d),
            DeltaTerm::Variable(v) => point.get(&v).cloned().unwrap_or_else(Rat::zero),
        };
        self.edges.iter().map(|(e, t)| (e.clone(), value(t))).collect()
    }
}

/// Analyze one recursive SCC: the θ search under the run's δ mode, then
/// the lexicographic fallback over the same θ space and pairs when the
/// search does not prove it.
#[allow(clippy::too_many_arguments)] // shared immutable analysis context, one slot each
fn analyze_scc(
    graph: &DepGraph,
    program: &Program,
    scc_id: usize,
    members: Vec<PredKey>,
    modes: &ModeMap,
    rels: &SizeRelations,
    options: &AnalysisOptions,
    cache: &ProjectionCache,
) -> SccAnalysis {
    let space = ThetaSpace::for_scc(&members, modes);
    let (rules, pairs) = crate::pairs::scc_pairs(graph, program, scc_id, modes, rels, options.norm);
    let cfg =
        argus_linear::FmConfig { deadline: options.deadline, ..dual_fm_config(options.fm_tier) };
    let mut analysis = match DeltaPlan::new(options.delta_mode, &members, &pairs, &space) {
        Ok(plan) => theta_search(&rules, &pairs, &plan, members, space, options, &cfg, cache),
        Err(cycle) => SccAnalysis {
            members,
            outcome: SccOutcome::ZeroWeightCycle(cycle),
            theta_constraints: ConstraintSystem::new(),
            theta_space: space,
            pair_count: pairs.len(),
            blame: None,
            stats: SccStats::default(),
        },
    };
    if !analysis.outcome.is_proved() && options.lexicographic {
        if let Some(proof) =
            crate::lexico::prove_lexicographic(&pairs, &analysis.theta_space, &cfg, cache)
        {
            analysis.outcome = SccOutcome::ProvedLexicographic { proof };
        }
    }
    analysis
}

/// The θ search of one SCC under a δ plan: build every pair's Eq. (9)
/// system, project them, conjoin with the plan's shared rows and test
/// feasibility by exact simplex; on failure, attach a Farkas refutation
/// and blame a pair.
#[allow(clippy::too_many_arguments)] // shared immutable analysis context, one slot each
fn theta_search(
    rules: &[&Rule],
    pairs: &[RuleSubgoalSystem],
    plan: &DeltaPlan,
    members: Vec<PredKey>,
    space: ThetaSpace,
    options: &AnalysisOptions,
    cfg: &argus_linear::FmConfig,
    cache: &ProjectionCache,
) -> SccAnalysis {
    // Build every pair's Eq. (9) system sequentially (the w base advances
    // pair by pair), then fan the expensive Fourier–Motzkin projections
    // across the worker pool. The sequential path stops at the first failed
    // projection, so the results are truncated at the first `None` —
    // identical `projected` prefix, identical outcome.
    let systems = eq9_systems(pairs.iter().map(|p| (p, plan.term(p))), &space, plan.w_base);
    let workers = crate::par::effective_workers(options.parallelism, systems.len());
    let results = crate::par::par_map_indexed(&systems, workers, |_, (sys, w)| {
        let mut st = FmStats::default();
        let r = project_pair_with(sys, w, cfg, cache, &mut st);
        (r, st)
    });
    // Merge *every* pair's FM counters (not just the prefix before a failed
    // projection) so stats stay identical across `--jobs`.
    let mut fm_stats = FmStats::default();
    let projections = results.len() as u64;
    let mut pair_systems = Vec::new();
    let mut ok = true;
    for (r, st) in results {
        fm_stats.merge(&st);
        if !ok {
            continue;
        }
        match r {
            Some(p) => pair_systems.push(p),
            None => ok = false,
        }
    }
    let mut projected = plan.base.clone();
    projected.extend(pair_systems.iter().cloned());
    let theta_sys = feasibility_system(&projected);
    // FM checks the deadline only between eliminations, so projections
    // with nothing to eliminate return past it: check once here, before
    // the simplex, the Farkas refutation and the blame LPs.
    let spent = options.deadline.is_some_and(|d| std::time::Instant::now() >= d);
    let outcome = if !ok || spent {
        SccOutcome::NoLinearDecrease { refutation: None }
    } else {
        match theta_point(&theta_sys, &space) {
            Some(point) => SccOutcome::Proved {
                witness: space.extract_witness(&point),
                deltas: plan.read_deltas(&point),
            },
            None => SccOutcome::NoLinearDecrease {
                refutation: argus_linear::farkas::refute(&refutation_system(&theta_sys, &space)),
            },
        }
    };
    let blame = match &outcome {
        SccOutcome::NoLinearDecrease { .. } if !spent => {
            compute_blame(rules, pairs, &plan.base, &pair_systems, &space, !ok)
        }
        _ => None,
    };
    SccAnalysis {
        members,
        outcome,
        theta_constraints: theta_sys,
        theta_space: space,
        pair_count: pairs.len(),
        blame,
        stats: SccStats { wall_nanos: 0, fm: fm_stats, projections },
    }
}

/// Isolate the rule × recursive-subgoal pair that blocks the θ search.
///
/// `pair_systems[i]` is the projected θ-constraint system of `pairs[i]`;
/// `base` holds constraints shared by all pairs (the Appendix C cycle
/// constraints; empty in §6.1 mode). When `projection_failed`, projection
/// stopped at `pairs[pair_systems.len()]` — that pair's own system is
/// infeasible, so it is blamed outright. Otherwise each pair is tested
/// *alone* (against `base`), and if every pair is individually satisfiable
/// a prefix scan finds the first pair that tips the conjunction over.
fn compute_blame(
    rules: &[&Rule],
    pairs: &[RuleSubgoalSystem],
    base: &[ConstraintSystem],
    pair_systems: &[ConstraintSystem],
    space: &ThetaSpace,
    projection_failed: bool,
) -> Option<PairBlame> {
    let blame_from = |idx: usize, kind: BlameKind| -> Option<PairBlame> {
        let pair = pairs.get(idx)?;
        let rule = rules.get(pair.rule_index).map(|r| (*r).clone())?;
        Some(PairBlame {
            head_pred: pair.head_pred.clone(),
            sub_pred: pair.sub_pred.clone(),
            rule,
            rule_index: pair.rule_index,
            subgoal_index: pair.subgoal_index,
            kind,
        })
    };
    let infeasible =
        |systems: &[ConstraintSystem]| theta_point(&feasibility_system(systems), space).is_none();

    if projection_failed {
        return blame_from(pair_systems.len(), BlameKind::Alone);
    }
    for (i, ps) in pair_systems.iter().enumerate() {
        let mut subset = base.to_vec();
        subset.push(ps.clone());
        if infeasible(&subset) {
            return blame_from(i, BlameKind::Alone);
        }
    }
    let mut subset = base.to_vec();
    for (i, ps) in pair_systems.iter().enumerate() {
        subset.push(ps.clone());
        if infeasible(&subset) {
            return blame_from(i, BlameKind::Conjunction);
        }
    }
    None
}

/// Convenience: parse, analyze with default options, return the report.
///
/// `query_spec` is `"name/arity"`, `adornment` a string of `b`/`f`.
pub fn analyze_source(
    src: &str,
    query_spec: &str,
    adornment: &str,
) -> Result<TerminationReport, String> {
    let program = argus_logic::parser::parse_program(src).map_err(|e| e.to_string())?;
    let (query, adornment) = argus_logic::parse_query_spec(query_spec, adornment)?;
    Ok(analyze(&program, &query, adornment, &AnalysisOptions::default()))
}
