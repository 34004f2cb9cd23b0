//! Backwards termination-condition inference.
//!
//! The forward analysis (§3–§6) answers one adorned query at a time: the
//! wrong instantiation just yields `Unknown` with no guidance. Following
//! *Genaim & Codish, "Inferring Termination Conditions for Logic Programs
//! using Backwards Analysis"*, this module inverts the pipeline into a
//! whole-program static pass: for **every** predicate it computes the set
//! of adornments under which the forward analyzer proves termination,
//! reported as a minimized positive DNF over "argᵢ bound" — e.g.
//! `append/3` terminates if `arg1 bound or arg3 bound`.
//!
//! ## The domain
//!
//! Provability is monotone in boundness: binding more arguments can only
//! shrink term sizes that the decrease argument may use, never remove a
//! proof (a θ-vector over a subset of bound positions remains valid when
//! more positions are bound). The provable-adornment set of a predicate
//! is therefore *upward-closed* in the boundness lattice and is exactly
//! captured by its antichain of minimal elements — an
//! [`argus_logic::Dnf`].
//!
//! ## The fixpoint
//!
//! Conceptually the pass is a greatest fixpoint: every condition starts
//! at `true` and is refined downwards until stable. The implementation
//! runs the refinement in its canonical evaluation order — SCCs of the
//! predicate dependency graph in reverse topological (bottom-up) order,
//! each level's predicates fanned out over the deterministic `par`
//! worker pool — so one descending sweep reaches the fixpoint:
//!
//! * per predicate, candidates are probed cheapest-first: the all-bound
//!   adornment acts as a gate (monotonicity: if even all-bound is not
//!   provable, the condition is `false` after a single analysis);
//! * remaining masks are enumerated by ascending popcount, skipping any
//!   superset of an already-proven mask, so the surviving set is the
//!   minimal DNF by construction;
//! * **backwards propagation**: before discharging a candidate with the
//!   full FM/θ pipeline, the adornments it induces on already-summarized
//!   callees ([`adorn_program`]'s per-call-pattern copies) are checked
//!   against the callees' conditions — a candidate whose callee adornment
//!   is not covered is refuted without touching the simplex.
//!
//! Each surviving disjunct is discharged by the forward analyzer itself
//! (sharing one [`ProjectionCache`] across all probes), so the resulting
//! [`TerminationCondition`] is a *certificate*: re-running the forward
//! analysis on each disjunct — see [`check_condition`] — must reproduce
//! `Terminates`, witness included.

use crate::analyze::{analyze_with_caches, AnalysisOptions, Verdict};
use crate::certificate::verify_report;
use crate::incremental::SccCache;
use crate::json::json_str;
use crate::pairs::ProjectionCache;
use crate::par::{effective_workers, par_map_indexed};
use argus_logic::{adorn_program, Adornment, DepGraph, Dnf, PredKey, Program};
use std::collections::{BTreeMap, BTreeSet};

/// The signature of a pluggable probe: decide one (program, predicate,
/// adornment) instance under the given analysis options.
pub type ProbeFn =
    dyn Fn(&Program, &PredKey, &Adornment, &AnalysisOptions) -> Verdict + Send + Sync;

/// A cloneable, `Debug`-opaque wrapper around a probe closure, so
/// [`BackwardsOptions`] can keep deriving `Debug` and `Clone`. Used by the
/// CLI to run inference under a non-default engine (`infer --engine sct`)
/// without `argus-core` depending on the engine crates.
#[derive(Clone)]
pub struct ProbeHook(std::sync::Arc<ProbeFn>);

impl ProbeHook {
    /// Wrap a probe closure.
    pub fn new(
        f: impl Fn(&Program, &PredKey, &Adornment, &AnalysisOptions) -> Verdict + Send + Sync + 'static,
    ) -> ProbeHook {
        ProbeHook(std::sync::Arc::new(f))
    }

    /// Run the probe.
    pub fn call(
        &self,
        program: &Program,
        pred: &PredKey,
        adn: &Adornment,
        options: &AnalysisOptions,
    ) -> Verdict {
        (self.0)(program, pred, adn, options)
    }
}

impl std::fmt::Debug for ProbeHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProbeHook(..)")
    }
}

/// Options for [`infer_conditions`].
#[derive(Debug, Clone)]
pub struct BackwardsOptions {
    /// Semantic knobs forwarded to every forward-analysis probe
    /// (norm, δ mode, FM tier, deadline, …). `parallelism` controls the
    /// per-level predicate fan-out; each individual probe always runs
    /// sequentially so reports are byte-identical at any worker count.
    pub analysis: AnalysisOptions,
    /// Predicates with arity above this cap are probed with the all-bound
    /// adornment only (2ⁿ candidates is exact but exponential); their
    /// conditions are flagged [`TerminationCondition::capped`].
    pub max_arity: usize,
    /// Refute candidates from already-computed callee conditions before
    /// running the full analysis (the backwards propagation step).
    pub propagate: bool,
    /// Keep the rendered forward report of every analyzed candidate, so a
    /// server can prime its analyze cache from one inference pass.
    pub collect_reports: bool,
    /// Replace the built-in θ-method probe with a custom decision
    /// procedure (e.g. the size-change engine, or a racing portfolio).
    /// Overridden probes skip the two-phase raw/escalated split and never
    /// collect priming reports; backwards propagation stays sound because
    /// every summarized callee condition in one sweep comes from the same
    /// probe, and provability is monotone in boundness for every engine.
    pub probe_override: Option<ProbeHook>,
    /// Shared per-SCC memo threaded into every built-in probe (the
    /// incremental-analysis layer). Probes under a memo render the same
    /// bytes as cold probes — the memo only skips recomputation — so the
    /// inference JSON stays byte-identical with or without it.
    pub scc_memo: Option<std::sync::Arc<SccCache>>,
}

impl Default for BackwardsOptions {
    fn default() -> BackwardsOptions {
        BackwardsOptions {
            analysis: AnalysisOptions::default(),
            max_arity: 6,
            propagate: true,
            collect_reports: false,
            probe_override: None,
            scc_memo: None,
        }
    }
}

/// One probed candidate adornment and how it was decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateOutcome {
    /// The adornment probed.
    pub adornment: Adornment,
    /// The forward verdict ([`Verdict::Unknown`] when pruned).
    pub verdict: Verdict,
    /// Refuted via callee conditions without running the analyzer.
    pub pruned: bool,
}

/// The per-predicate certificate: a minimized DNF of provable
/// bound-argument sets, plus the probe log that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminationCondition {
    /// The predicate summarized.
    pub pred: PredKey,
    /// Minimal provable boundness sets; `false` when no instantiation is
    /// provable, `true` when even the all-free query is.
    pub condition: Dnf,
    /// Arity exceeded [`BackwardsOptions::max_arity`]: only the all-bound
    /// adornment was probed, so the condition is sound but possibly
    /// stronger than necessary.
    pub capped: bool,
    /// Every candidate evaluated, in probe order.
    pub checked: Vec<CandidateOutcome>,
}

impl TerminationCondition {
    /// The disjuncts as adornments of the predicate's arity.
    pub fn disjunct_adornments(&self) -> Vec<Adornment> {
        self.condition.disjuncts().map(|d| adornment_for(self.pred.arity, d)).collect()
    }
}

/// A rendered forward report retained for cache priming.
#[derive(Debug, Clone)]
pub struct PrimedReport {
    /// Query predicate of the probe.
    pub query: PredKey,
    /// Adornment of the probe.
    pub adornment: Adornment,
    /// `TerminationReport::to_json()` of the probe (no trailing newline).
    pub json: String,
}

/// The whole-program inference result.
#[derive(Debug, Clone, Default)]
pub struct InferenceReport {
    /// Conditions in predicate order.
    pub conditions: Vec<TerminationCondition>,
    /// Forward analyses actually run.
    pub analyses: usize,
    /// Candidates refuted by backwards propagation alone.
    pub pruned: usize,
    /// A deadline fired before the sweep finished; the reported
    /// conditions are sound but possibly incomplete.
    pub partial: bool,
    /// Per-candidate reports (empty unless
    /// [`BackwardsOptions::collect_reports`]).
    pub reports: Vec<PrimedReport>,
}

/// Build the adornment with exactly `bound` positions bound.
pub fn adornment_for(arity: usize, bound: &BTreeSet<usize>) -> Adornment {
    let spec: String = (0..arity).map(|i| if bound.contains(&i) { 'b' } else { 'f' }).collect();
    Adornment::parse(&spec).expect("b/f spec always parses")
}

/// Infer termination conditions for every IDB predicate of `program`.
pub fn infer_conditions(program: &Program, options: &BackwardsOptions) -> InferenceReport {
    infer_conditions_for(program, &program.idb_predicates(), options)
}

/// Infer termination conditions for the requested predicates only.
///
/// Non-IDB members of `preds` (EDB predicates, builtins, unknown keys)
/// are ignored. Backwards propagation only consults conditions of
/// predicates in the requested set, so restricting the set trades
/// pruning power for fewer probes.
pub fn infer_conditions_for(
    program: &Program,
    preds: &BTreeSet<PredKey>,
    options: &BackwardsOptions,
) -> InferenceReport {
    let idb = program.idb_predicates();
    let wanted: BTreeSet<PredKey> = preds.intersection(&idb).cloned().collect();
    let graph = DepGraph::build(program);
    let shared = ProjectionCache::new();

    let mut table: BTreeMap<PredKey, Dnf> = BTreeMap::new();
    let mut out = InferenceReport::default();
    for level in graph.scc_levels() {
        let mut level_preds: Vec<PredKey> = Vec::new();
        for scc_id in level {
            for p in graph.scc(scc_id) {
                if wanted.contains(&p) {
                    level_preds.push(p);
                }
            }
        }
        if level_preds.is_empty() {
            continue;
        }
        level_preds.sort();
        let workers = effective_workers(options.analysis.parallelism, level_preds.len());
        let results = par_map_indexed(&level_preds, workers, |_, pred| {
            infer_pred(program, pred, &table, options, &shared)
        });
        // Merge in input order: the table, counters and report list are
        // identical for any worker count.
        for r in results {
            table.insert(r.condition.pred.clone(), r.condition.condition.clone());
            out.analyses += r.analyses;
            out.pruned += r.pruned;
            out.partial |= r.partial;
            out.conditions.push(r.condition);
            out.reports.extend(r.reports);
        }
    }
    out.conditions.sort_by(|a, b| a.pred.cmp(&b.pred));
    out
}

struct PredResult {
    condition: TerminationCondition,
    analyses: usize,
    pruned: usize,
    partial: bool,
    reports: Vec<PrimedReport>,
}

fn deadline_hit(options: &AnalysisOptions) -> bool {
    options.deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// The lattice search for one predicate (sequential: determinism lives
/// here, parallelism lives one level up).
fn infer_pred(
    program: &Program,
    pred: &PredKey,
    table: &BTreeMap<PredKey, Dnf>,
    options: &BackwardsOptions,
    shared: &ProjectionCache,
) -> PredResult {
    // Probes run sequentially regardless of the requested fan-out; the
    // level scheduler above already saturates the workers.
    let probe_options = AnalysisOptions { parallelism: 1, ..options.analysis.clone() };
    let mut result = PredResult {
        condition: TerminationCondition {
            pred: pred.clone(),
            condition: Dnf::fls(),
            capped: pred.arity > options.max_arity,
            checked: Vec::new(),
        },
        analyses: 0,
        pruned: 0,
        partial: false,
        reports: Vec::new(),
    };
    if deadline_hit(&probe_options) {
        result.partial = true;
        return result;
    }

    // Gate: the all-bound adornment. By monotonicity nothing is provable
    // if it fails, so every non-terminating predicate costs one analysis.
    let all_bound = Adornment::all_bound(pred.arity);
    let gate = probe(program, pred, &all_bound, &probe_options, shared, options, &mut result);
    if gate != Verdict::Terminates {
        return result;
    }
    if result.condition.capped {
        let full: BTreeSet<usize> = (0..pred.arity).collect();
        result.condition.condition.insert(full);
        return result;
    }

    // Ascend the boundness lattice from below: masks by (popcount, value),
    // skipping supersets of proven masks, so the surviving antichain is
    // the minimal DNF. The full mask is the already-proved gate.
    for mask in masks_ascending(pred.arity) {
        let bound: BTreeSet<usize> = (0..pred.arity).filter(|i| mask & (1u32 << i) != 0).collect();
        if result.condition.condition.covers(&bound) {
            continue;
        }
        if deadline_hit(&probe_options) {
            result.partial = true;
            return result;
        }
        let adn = adornment_for(pred.arity, &bound);
        if options.propagate && refuted_by_callees(program, pred, &adn, table) {
            result.pruned += 1;
            result.condition.checked.push(CandidateOutcome {
                adornment: adn,
                verdict: Verdict::Unknown,
                pruned: true,
            });
            continue;
        }
        let verdict = probe(program, pred, &adn, &probe_options, shared, options, &mut result);
        if verdict == Verdict::Terminates {
            result.condition.condition.insert(bound);
        }
    }
    if result.condition.condition.is_false() {
        // No proper subset works; the gate itself is the minimal element.
        result.condition.condition.insert((0..pred.arity).collect());
    }
    result
}

/// Discharge one candidate adornment and log it.
///
/// Probes are two-phase: a preprocessing-free pass first, escalating to
/// the full transforming analyzer only when the raw pass is inconclusive.
/// A raw proof *is* the default analyzer's answer (it runs the raw pass
/// first and returns early on `Terminates`), so positives lose nothing;
/// the escalation is where failing probes would otherwise spend seconds
/// re-analyzing a transformed program that still fails.
fn probe(
    program: &Program,
    pred: &PredKey,
    adn: &Adornment,
    probe_options: &AnalysisOptions,
    shared: &ProjectionCache,
    options: &BackwardsOptions,
    result: &mut PredResult,
) -> Verdict {
    if let Some(hook) = &options.probe_override {
        result.analyses += 1;
        let verdict = hook.call(program, pred, adn, probe_options);
        result.condition.checked.push(CandidateOutcome {
            adornment: adn.clone(),
            verdict,
            pruned: false,
        });
        return verdict;
    }
    let memo = options.scc_memo.as_deref();
    let raw_options = AnalysisOptions { transform_phases: 0, ..probe_options.clone() };
    let raw = analyze_with_caches(program, pred, adn.clone(), &raw_options, Some(shared), memo);
    result.analyses += 1;
    // A zero-weight cycle is a concrete witness that no bound argument ever
    // shrinks along some recursion path. The Appendix A transformations
    // almost never repair it, and such probes dominate inference cost on
    // FM-heavy programs, so it is refuted from the raw pass alone (still a
    // sound under-approximation).
    let skip_escalation = raw.verdict == Verdict::Terminates
        || probe_options.transform_phases == 0
        || raw.verdict == Verdict::ZeroWeightCycle;
    // When a zero-weight-cycle probe is refuted from the raw pass alone,
    // the default analyzer was not consulted, so its report must not be
    // used to answer future default-analyze requests.
    let mut primable = raw.verdict == Verdict::Terminates;
    let report = if skip_escalation {
        raw
    } else {
        result.analyses += 1;
        primable = true;
        analyze_with_caches(program, pred, adn.clone(), probe_options, Some(shared), memo)
    };
    result.condition.checked.push(CandidateOutcome {
        adornment: adn.clone(),
        verdict: report.verdict,
        pruned: false,
    });
    if options.collect_reports && primable {
        result.reports.push(PrimedReport {
            query: pred.clone(),
            adornment: adn.clone(),
            json: report.to_json(),
        });
    }
    report.verdict
}

/// All proper-subset masks of `0..arity`, ascending by (popcount, value).
fn masks_ascending(arity: usize) -> Vec<u32> {
    let full: u32 = if arity >= 32 { u32::MAX } else { (1u32 << arity) - 1 };
    let mut masks: Vec<u32> = (0..full).collect();
    masks.sort_by_key(|m| (m.count_ones(), *m));
    masks
}

/// Backwards propagation: adorn the program for the candidate query and
/// check every induced callee adornment against the callee's condition.
/// A candidate whose call pattern falls outside a summarized callee's
/// provable set cannot be proved by the forward pass on the *unadorned*
/// program, so it is refuted without running FM. Only predicates already
/// in `table` (strictly lower levels) participate; same-SCC calls are
/// left to the full analysis.
fn refuted_by_callees(
    program: &Program,
    pred: &PredKey,
    adn: &Adornment,
    table: &BTreeMap<PredKey, Dnf>,
) -> bool {
    let adorned = adorn_program(program, pred, adn.clone());
    for (copy, orig) in &adorned.origin {
        if orig == pred {
            continue;
        }
        let Some(cond) = table.get(orig) else { continue };
        let Some(call_adn) = adorned.modes.get(copy) else { continue };
        if !cond.covers_adornment(call_adn) {
            return true;
        }
    }
    false
}

/// Re-check a condition certificate: every disjunct must independently
/// reproduce `Terminates` under a fresh forward analysis, and the
/// produced witness must pass [`verify_report`]. Returns the number of
/// disjuncts checked.
pub fn check_condition(
    program: &Program,
    cond: &TerminationCondition,
    options: &AnalysisOptions,
) -> Result<usize, String> {
    let mut checked = 0;
    for adn in cond.disjunct_adornments() {
        let report = crate::analyze::analyze(program, &cond.pred, adn.clone(), options);
        if report.verdict != Verdict::Terminates {
            return Err(format!(
                "{} disjunct {} not reproducible: forward verdict {:?}",
                cond.pred,
                render_adornment(&adn),
                report.verdict
            ));
        }
        verify_report(&report, options.norm).map_err(|e| {
            format!("{} disjunct {}: certificate rejected: {e}", cond.pred, render_adornment(&adn))
        })?;
        checked += 1;
    }
    Ok(checked)
}

/// Zero-arity adornments display as the empty string; spell them out so
/// messages never end in a dangling separator or blank token.
fn render_adornment(adn: &Adornment) -> String {
    if adn.arity() == 0 {
        "(no arguments)".to_string()
    } else {
        adn.to_string()
    }
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Terminates => "Terminates",
        Verdict::Unknown => "Unknown",
        Verdict::ZeroWeightCycle => "ZeroWeightCycle",
    }
}

impl InferenceReport {
    /// Serialize as stable JSON (schema `argus-infer/v1`):
    ///
    /// ```json
    /// {
    ///   "schema": "argus-infer/v1",
    ///   "predicates": [
    ///     {
    ///       "predicate": "append/3",
    ///       "condition": "arg1 bound or arg3 bound",
    ///       "disjuncts": [[1],[3]],
    ///       "provable": true,
    ///       "capped": false,
    ///       "checked": [{"adornment":"bbb","verdict":"Terminates","pruned":false}]
    ///     }
    ///   ],
    ///   "analyses": 5,
    ///   "pruned": 0,
    ///   "partial": false
    /// }
    /// ```
    /// Disjunct positions are 1-based to match the `argN` rendering.
    /// Collected priming reports are intentionally not serialized.
    pub fn to_json(&self) -> String {
        let preds: Vec<String> = self
            .conditions
            .iter()
            .map(|c| {
                let checked: Vec<String> = c
                    .checked
                    .iter()
                    .map(|o| {
                        format!(
                            "{{\"adornment\":{},\"verdict\":{},\"pruned\":{}}}",
                            json_str(&o.adornment.to_string()),
                            json_str(verdict_str(o.verdict)),
                            o.pruned
                        )
                    })
                    .collect();
                format!(
                    "{{\"predicate\":{},\"condition\":{},\"disjuncts\":{},\"provable\":{},\"capped\":{},\"checked\":[{}]}}",
                    json_str(&c.pred.to_string()),
                    json_str(&c.condition.to_string()),
                    c.condition.to_json(),
                    !c.condition.is_false(),
                    c.capped,
                    checked.join(",")
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"argus-infer/v1\",\"predicates\":[{}],\"analyses\":{},\"pruned\":{},\"partial\":{}}}",
            preds.join(","),
            self.analyses,
            self.pruned,
            self.partial
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_logic::parser::parse_program;

    const APPEND: &str = "append([], Ys, Ys).\n\
                          append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).";

    fn infer_one(src: &str, spec: &str) -> TerminationCondition {
        let program = parse_program(src).unwrap();
        let (name, arity) = spec.split_once('/').unwrap();
        let pred = PredKey::new(name, arity.parse().unwrap());
        let report = infer_conditions_for(
            &program,
            &[pred.clone()].into_iter().collect(),
            &BackwardsOptions::default(),
        );
        report.conditions.into_iter().find(|c| c.pred == pred).unwrap()
    }

    #[test]
    fn append_infers_first_or_third() {
        let cond = infer_one(APPEND, "append/3");
        assert_eq!(cond.condition.to_string(), "arg1 bound or arg3 bound");
        assert!(!cond.capped);
        // Gate first, then masks by ascending popcount.
        assert_eq!(cond.checked[0].adornment.to_string(), "bbb");
    }

    #[test]
    fn nonterminating_costs_one_analysis() {
        let cond = infer_one("p(X) :- p(X).", "p/1");
        assert!(cond.condition.is_false());
        assert_eq!(cond.checked.len(), 1, "the all-bound gate settles it");
    }

    #[test]
    fn zero_arity_condition_is_constant() {
        let cond = infer_one("go :- go.", "go/0");
        assert!(cond.condition.is_false());
        let cond = infer_one("go :- done.\ndone(1).", "go/0");
        assert!(cond.condition.is_true());
        assert_eq!(cond.condition.to_string(), "true");
    }

    #[test]
    fn whole_program_inference_covers_all_idb() {
        let program = parse_program(APPEND).unwrap();
        let report = infer_conditions(&program, &BackwardsOptions::default());
        assert_eq!(report.conditions.len(), 1);
        assert!(!report.partial);
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"argus-infer/v1\""), "{json}");
        assert!(json.contains("\"disjuncts\":[[1],[3]]"), "{json}");
    }

    #[test]
    fn propagation_prunes_uncovered_callee_patterns() {
        // perm/2 with arg2 bound calls append with nothing useful bound;
        // once append/3 is summarized, the fb candidate dies without FM.
        let src = "perm([], []).\n\
                   perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).\n\
                   append([], Ys, Ys).\n\
                   append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).";
        let program = parse_program(src).unwrap();
        let report = infer_conditions(&program, &BackwardsOptions::default());
        let perm = report.conditions.iter().find(|c| c.pred.name.as_ref() == "perm").unwrap();
        assert_eq!(perm.condition.to_string(), "arg1 bound");
        assert!(report.pruned > 0, "fb should be pruned via append's condition");
        // Pruning must not lose disjuncts: the unpruned sweep agrees.
        let unpruned = infer_conditions(
            &program,
            &BackwardsOptions { propagate: false, ..Default::default() },
        );
        for (a, b) in report.conditions.iter().zip(unpruned.conditions.iter()) {
            assert_eq!(a.pred, b.pred);
            assert_eq!(a.condition, b.condition, "{} diverges under pruning", a.pred);
        }
    }

    #[test]
    fn certificates_recheck() {
        let program = parse_program(APPEND).unwrap();
        let report = infer_conditions(&program, &BackwardsOptions::default());
        for cond in &report.conditions {
            let n = check_condition(&program, cond, &AnalysisOptions::default()).unwrap();
            assert_eq!(n, cond.condition.disjuncts().count());
        }
    }

    #[test]
    fn deadline_yields_partial() {
        let program = parse_program(APPEND).unwrap();
        let options = BackwardsOptions {
            analysis: AnalysisOptions {
                deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
                ..Default::default()
            },
            ..Default::default()
        };
        let report = infer_conditions(&program, &options);
        assert!(report.partial);
        assert_eq!(report.analyses, 0);
    }

    #[test]
    fn collected_reports_cover_every_analyzed_candidate() {
        let program = parse_program(APPEND).unwrap();
        let report = infer_conditions(
            &program,
            &BackwardsOptions { collect_reports: true, ..Default::default() },
        );
        // Every unpruned candidate of append/3 reaches a default-analyzer
        // verdict (proved raw or escalated), so each yields a primed body.
        let candidates: usize =
            report.conditions.iter().map(|c| c.checked.iter().filter(|o| !o.pruned).count()).sum();
        assert_eq!(report.reports.len(), candidates);
        for primed in &report.reports {
            assert!(primed.json.starts_with('{'), "{}", primed.json);
        }
    }
}
