//! # argus-sct — size-change termination beside the θ-method
//!
//! A second, independent termination engine in the style of Lee, Jones &
//! Ben-Amram's *size-change termination* (POPL 2001), built on the same
//! substrate as the paper's θ-method: it decides an [`argus_core::Prepared`]
//! program — the adorned program, SCCs and final size relations the θ-method
//! decides too, built once by [`argus_core::prepare`] — through the Eq. (1)
//! rule × recursive-subgoal systems of `argus-core`.
//!
//! Where the θ-method searches for one global linear combination of bound
//! argument sizes that decreases on every recursive call, SCT keeps a
//! *local* graph per call site — which caller arguments bound which callee
//! arguments, strictly or not — and decides termination on the composition
//! closure: every idempotent graph must carry a strict self-edge. The two
//! engines are incomparable: SCT proves lexicographic descents that no
//! single linear combination captures (Ackermann, reset patterns), while
//! the θ-method proves combined measures (`x₁ + x₂` decreasing) that SCT's
//! per-argument edges cannot express.
//!
//! Edge extraction is itself an exact LP over the Eq. (1) primal system:
//! the edge `i → j` (strict) exists iff the minimum of `xᵢ − yⱼ` over all
//! reachable call instances is positive. Sizes are integers, so a positive
//! rational minimum already implies a decrease of at least 1 — the LP
//! relaxation is sound without integrality reasoning. Pairs whose primal
//! system is infeasible describe calls the size relations prove can never
//! happen; they contribute no graph.

#![warn(missing_docs)]

pub mod graph;

pub use graph::{
    closure, criterion, criterion_by_powers, ArenaStats, Edge, Graph, GraphArena, GraphId,
};

use argus_core::pairs::{build_pair_with_norm, primal_system};
use argus_core::{prepare, AnalysisOptions, Prepared};
use argus_linear::simplex::{LpOutcome, LpProblem};
use argus_linear::LinExpr;
use argus_logic::modes::ModeMap;
use argus_logic::{DepGraph, PredKey, Program};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// Deterministic work counters for one SCT analysis (totals over SCCs).
/// Safe to pin in goldens: every count is independent of parallelism and
/// wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct SctStats {
    /// Rule × recursive-subgoal pairs examined.
    pub pairs: u64,
    /// Pairs skipped because their primal system is infeasible (the call
    /// provably never happens).
    pub infeasible_pairs: u64,
    /// Edge-extraction LP solves.
    pub edge_lps: u64,
    /// Distinct graphs interned across all SCC arenas.
    pub graphs: u64,
    /// Graph compositions computed (memo misses).
    pub compositions: u64,
    /// Compositions answered from the memo.
    pub memo_hits: u64,
    /// Total closure size across SCCs.
    pub closure_size: u64,
    /// Idempotent graphs examined by the criterion.
    pub idempotents: u64,
}

impl SctStats {
    fn absorb_arena(&mut self, a: &ArenaStats) {
        self.graphs += a.graphs;
        self.compositions += a.compositions;
        self.memo_hits += a.memo_hits;
    }

    /// The counters as stable `(name, value)` pairs, in render order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("pairs", self.pairs),
            ("infeasible_pairs", self.infeasible_pairs),
            ("edge_lps", self.edge_lps),
            ("graphs", self.graphs),
            ("compositions", self.compositions),
            ("memo_hits", self.memo_hits),
            ("closure_size", self.closure_size),
            ("idempotents", self.idempotents),
        ]
    }
}

/// Outcome of one SCC under the size-change criterion.
#[derive(Debug, Clone)]
pub enum SctSccOutcome {
    /// Not recursive: nothing to prove.
    NonRecursive,
    /// Every idempotent graph in the closure has a strict self-edge.
    Proved {
        /// Call-site graphs extracted.
        initial_graphs: usize,
        /// Size of the composition closure.
        closure_size: usize,
    },
    /// Some idempotent graph lacks a strict self-edge (or no information
    /// at all could be extracted): SCT cannot certify this SCC.
    Unproved {
        /// Human-readable description of the offending idempotent graph.
        witness: String,
    },
}

impl SctSccOutcome {
    /// Does this outcome certify the SCC?
    pub fn is_proved(&self) -> bool {
        matches!(self, SctSccOutcome::NonRecursive | SctSccOutcome::Proved { .. })
    }
}

/// Analysis record of one SCC.
#[derive(Debug, Clone)]
pub struct SctSccAnalysis {
    /// Predicates of the SCC.
    pub members: Vec<PredKey>,
    /// Result.
    pub outcome: SctSccOutcome,
}

/// Full report of a size-change termination analysis.
#[derive(Debug, Clone)]
pub struct SctReport {
    /// The (adorned) query predicate.
    pub query: PredKey,
    /// Per-SCC analyses, bottom-up.
    pub sccs: Vec<SctSccAnalysis>,
    /// Every reachable recursive SCC certified?
    pub proved: bool,
    /// The analysis was abandoned on a cancellation signal (racing
    /// portfolio); `proved` is then necessarily `false`.
    pub cancelled: bool,
    /// Work counters (totals).
    pub stats: SctStats,
}

impl SctReport {
    /// One-line summary for engine attribution.
    pub fn detail(&self) -> String {
        if self.cancelled {
            return "cancelled".to_string();
        }
        let recursive =
            self.sccs.iter().filter(|s| !matches!(s.outcome, SctSccOutcome::NonRecursive)).count();
        if self.proved {
            format!(
                "{recursive} recursive SCC(s) certified; {} graph(s), closure {}, {} idempotent(s)",
                self.stats.graphs, self.stats.closure_size, self.stats.idempotents
            )
        } else {
            match self.sccs.iter().find_map(|s| match &s.outcome {
                SctSccOutcome::Unproved { witness } => Some(witness.clone()),
                _ => None,
            }) {
                Some(w) => w,
                None => "no recursive SCC certified".to_string(),
            }
        }
    }
}

impl fmt::Display for SctReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "query: {} — size-change termination: {}",
            self.query,
            if self.cancelled {
                "CANCELLED"
            } else if self.proved {
                "PROVED"
            } else {
                "not proved"
            }
        )?;
        for scc in &self.sccs {
            let names: Vec<String> = scc.members.iter().map(|p| p.to_string()).collect();
            write!(f, "  SCC {{{}}}: ", names.join(", "))?;
            match &scc.outcome {
                SctSccOutcome::NonRecursive => writeln!(f, "nonrecursive")?,
                SctSccOutcome::Proved { initial_graphs, closure_size } => writeln!(
                    f,
                    "PROVED ({initial_graphs} call-site graph(s), closure {closure_size})"
                )?,
                SctSccOutcome::Unproved { witness } => writeln!(f, "not proved: {witness}")?,
            }
        }
        Ok(())
    }
}

/// Has a cancellation been signalled?
fn cancelled(cancel: Option<&AtomicBool>) -> bool {
    cancel.is_some_and(|c| c.load(Ordering::Relaxed))
}

/// Decide top-down termination of a prepared query with the size-change
/// criterion.
///
/// `prepared` comes from [`argus_core::prepare`], the same adorned program,
/// SCCs and size relations the θ-method decides — imported relations and
/// the Appendix B restriction included — so the two engines differ only in
/// the decision procedure. The Appendix A transformations are *not*
/// applied: they exist to massage programs into the θ-form, and the
/// size-change criterion reads the raw recursive structure directly.
pub fn analyze_sct(
    prepared: &Prepared,
    options: &AnalysisOptions,
    cancel: Option<&AtomicBool>,
) -> SctReport {
    let Prepared { program, query, modes, graph, proc_index, size_relations: rels, .. } = prepared;
    let mut report = SctReport {
        query: query.clone(),
        sccs: Vec::new(),
        proved: true,
        cancelled: false,
        stats: SctStats::default(),
    };
    for scc_id in graph.sccs_bottom_up() {
        if cancelled(cancel) {
            report.cancelled = true;
            report.proved = false;
            return report;
        }
        let members = graph.scc(scc_id);
        let reachable = members.iter().any(|p| modes.get(p).is_some());
        let has_rules = members.iter().any(|p| !proc_index.rule_indices(p).is_empty());
        if !reachable || !has_rules {
            continue;
        }
        let recursive = members.iter().any(|p| graph.is_recursive(p));
        if !recursive {
            report.sccs.push(SctSccAnalysis { members, outcome: SctSccOutcome::NonRecursive });
            continue;
        }
        let analysis = analyze_scc(
            graph,
            program,
            scc_id,
            members,
            modes,
            rels,
            options,
            &mut report.stats,
            cancel,
        );
        let Some(analysis) = analysis else {
            report.cancelled = true;
            report.proved = false;
            return report;
        };
        if !analysis.outcome.is_proved() {
            report.proved = false;
        }
        report.sccs.push(analysis);
    }
    report
}

/// Convenience: parse, analyze with default options.
pub fn analyze_sct_source(
    src: &str,
    query_spec: &str,
    adornment: &str,
) -> Result<SctReport, String> {
    let program = argus_logic::parser::parse_program(src).map_err(|e| e.to_string())?;
    let (query, adornment) = argus_logic::parse_query_spec(query_spec, adornment)?;
    let options = AnalysisOptions::default();
    Ok(analyze_sct(&prepare(&program, &query, adornment, &options, None), &options, None))
}

/// Analyze one recursive SCC: extract a size-change graph per rule ×
/// recursive-subgoal pair, close under composition, test the idempotent
/// criterion. `None` means a cancellation was observed mid-SCC.
#[allow(clippy::too_many_arguments)] // shared immutable analysis context, one slot each
fn analyze_scc(
    graph: &DepGraph,
    program: &Program,
    scc_id: usize,
    members: Vec<PredKey>,
    modes: &ModeMap,
    rels: &argus_sizerel::SizeRelations,
    options: &AnalysisOptions,
    stats: &mut SctStats,
    cancel: Option<&AtomicBool>,
) -> Option<SctSccAnalysis> {
    let index_of =
        |p: &PredKey| -> u32 { members.iter().position(|m| m == p).expect("SCC member") as u32 };

    let mut arena = GraphArena::new();
    let mut initial: Vec<GraphId> = Vec::new();
    let rules = graph.scc_rules(program, scc_id);
    for (ri, rule) in rules.iter().enumerate() {
        for si in graph.recursive_subgoals(rule) {
            if cancelled(cancel) {
                return None;
            }
            stats.pairs += 1;
            let pair = build_pair_with_norm(rule, ri, si, modes, rels, options.norm);
            let (sys, x_vars, y_vars, _a_vars) = primal_system(&pair);
            let lp = LpProblem::feasibility(sys, BTreeSet::new());
            // An infeasible primal means the size relations refute every
            // instance of this call: it cannot occur in a derivation, so
            // it constrains nothing.
            if matches!(lp.solve(), LpOutcome::Infeasible) {
                stats.infeasible_pairs += 1;
                continue;
            }
            let mut edges = Vec::new();
            for (i, &xv) in x_vars.iter().enumerate() {
                for (j, &yv) in y_vars.iter().enumerate() {
                    stats.edge_lps += 1;
                    let obj = LinExpr::var(xv) - LinExpr::var(yv);
                    if let LpOutcome::Optimal { value, .. } = lp.minimize(obj) {
                        // Sizes are integers, so a positive rational lower
                        // bound on xᵢ − yⱼ already implies xᵢ ≥ yⱼ + 1.
                        if value.is_positive() {
                            edges.push(Edge { from: i as u16, to: j as u16, strict: true });
                        } else if !value.is_negative() {
                            edges.push(Edge { from: i as u16, to: j as u16, strict: false });
                        }
                    }
                }
            }
            let g = Graph::new(index_of(&pair.head_pred), index_of(&pair.sub_pred), edges);
            let id = arena.intern(g);
            if !initial.contains(&id) {
                initial.push(id);
            }
        }
    }

    let closed = closure(&mut arena, &initial);
    stats.closure_size += closed.len() as u64;
    let offender = criterion(&mut arena, &closed, &mut stats.idempotents);
    stats.absorb_arena(&arena.stats);

    let outcome = match offender {
        None => SctSccOutcome::Proved { initial_graphs: initial.len(), closure_size: closed.len() },
        Some(id) => {
            let g = arena.get(id);
            let p = &members[g.source as usize];
            let bound =
                modes.get(p).map(|a| a.bound_positions()).unwrap_or_else(|| (0..p.arity).collect());
            let shown: Vec<String> = g
                .edges
                .iter()
                .map(|e| {
                    let from = bound.get(e.from as usize).map(|i| i + 1).unwrap_or(0);
                    let to = bound.get(e.to as usize).map(|i| i + 1).unwrap_or(0);
                    format!("{from}{}{to}'", if e.strict { ">" } else { "≥" })
                })
                .collect();
            let edges = if shown.is_empty() { "no edges".to_string() } else { shown.join(", ") };
            SctSccOutcome::Unproved {
                witness: format!(
                    "idempotent size-change graph {p} → {p} has no strict self-edge ({edges})"
                ),
            }
        }
    };
    Some(SctSccAnalysis { members, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_logic::modes::Adornment;

    #[test]
    fn analyze_sct_source_rejects_bad_specs() {
        for (spec, adn) in [("p", "bb"), ("p/x", "bb"), ("p/2", "bq"), ("p/2", "b")] {
            assert!(analyze_sct_source("p(a, b).", spec, adn).is_err(), "{spec} {adn}");
        }
    }

    #[test]
    fn append_is_sct_provable() {
        let r = analyze_sct_source(
            "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
            "append/3",
            "bff",
        )
        .unwrap();
        assert!(r.proved, "{r}");
    }

    #[test]
    fn ackermann_is_sct_provable() {
        // Lexicographic descent on (arg1, arg2): the textbook program the
        // single-linear-combination θ-method cannot certify.
        let r = analyze_sct_source(
            "ack(z, N, s(N)).\n\
             ack(s(M), z, R) :- ack(M, s(z), R).\n\
             ack(s(M), s(N), R) :- ack(s(M), N, R1), ack(M, R1, R).",
            "ack/3",
            "bbf",
        )
        .unwrap();
        assert!(r.proved, "{r}");
    }

    #[test]
    fn plain_loop_is_not_sct_provable() {
        let r = analyze_sct_source("loop(X) :- loop(X).", "loop/1", "b").unwrap();
        assert!(!r.proved, "{r}");
    }

    #[test]
    fn growing_call_is_not_sct_provable() {
        let r = analyze_sct_source("up(X) :- up(s(X)).", "up/1", "b").unwrap();
        assert!(!r.proved, "{r}");
    }

    #[test]
    fn cancellation_short_circuits() {
        let flag = AtomicBool::new(true);
        let program = argus_logic::parser::parse_program(
            "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
        )
        .unwrap();
        let options = AnalysisOptions::default();
        let prepared = prepare(
            &program,
            &PredKey::new("append", 3),
            Adornment::parse("bff").unwrap(),
            &options,
            None,
        );
        let r = analyze_sct(&prepared, &options, Some(&flag));
        assert!(r.cancelled);
        assert!(!r.proved);
    }
}
