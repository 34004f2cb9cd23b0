//! [`Engine`] implementations and the standard registry.
//!
//! `argus-core` defines the [`Engine`] contract and the racing portfolio
//! runner; this module supplies the concrete engines — the θ-method, the
//! size-change engine from `argus-sct`, and the three baseline methods —
//! plus the priority-ordered registry the CLI, server, and fuzzer share.
//!
//! Portfolio priority order is [`ENGINE_IDS`]: the θ-method first (it is
//! the paper's method and its reports carry the richest evidence,
//! including zero-weight-cycle refutations), then size-change, then the
//! baselines strongest-first. The portfolio *winner* is the
//! lowest-priority proving engine, so this order also fixes which engine
//! gets attributed in reports.

use crate::{BrodskySagivBinary, NaishSubset, TerminationMethod, UvgSingleArgument};
use argus_core::engine::{Engine, EngineCtx, EngineRun, EngineVerdict};
use argus_core::{analyze_prepared, SccOutcome, Verdict};
use argus_logic::modes::Adornment;
use argus_logic::{PredKey, Program};

/// Engine ids in portfolio priority order.
pub const ENGINE_IDS: [&str; 5] = ["theta", "sct", "bs", "uvg", "naish"];

/// The paper's θ-method as an [`Engine`].
pub struct ThetaEngine;

impl Engine for ThetaEngine {
    fn id(&self) -> &'static str {
        "theta"
    }

    fn name(&self) -> &'static str {
        "Sohn-Van Gelder theta-method"
    }

    fn run(
        &self,
        program: &Program,
        query: &PredKey,
        adornment: &Adornment,
        ctx: &EngineCtx<'_>,
    ) -> EngineRun {
        if ctx.cancelled() {
            return EngineRun::cancelled();
        }
        // The portfolio's size-change run reads the same prepared raw
        // program, so the copy here spares a second fixpoint.
        let raw = ctx.prepared().clone();
        let report = analyze_prepared(
            raw,
            program,
            query,
            adornment.clone(),
            ctx.options,
            None,
            ctx.scc_memo,
        );
        let verdict = match report.verdict {
            Verdict::Terminates => EngineVerdict::Proved,
            Verdict::Unknown => EngineVerdict::Unknown,
            Verdict::ZeroWeightCycle => EngineVerdict::ZeroWeightCycle,
        };
        let recursive =
            report.sccs.iter().filter(|s| !matches!(s.outcome, SccOutcome::NonRecursive)).count()
                as u64;
        let detail = match report.verdict {
            Verdict::Terminates => format!("theta witness over {recursive} recursive SCC(s)"),
            Verdict::ZeroWeightCycle => {
                "zero-weight cycle (strong nontermination evidence)".to_string()
            }
            Verdict::Unknown => match report.sccs.iter().find_map(|s| s.blame.as_ref()) {
                Some(b) => b.describe(),
                None => "no linear decrease found".to_string(),
            },
        };
        let mut fm_rows_in = 0u64;
        let mut projections = 0u64;
        let mut pairs = 0u64;
        for s in &report.sccs {
            fm_rows_in += s.stats.fm.rows_in;
            projections += s.stats.projections;
            pairs += s.pair_count as u64;
        }
        EngineRun {
            verdict,
            detail,
            stats: vec![
                ("sccs", report.sccs.len() as u64),
                ("recursive_sccs", recursive),
                ("pairs", pairs),
                ("projections", projections),
                ("fm_rows_in", fm_rows_in),
                ("cache_requests", report.run_stats.cache_requests),
            ],
        }
    }
}

/// The size-change termination engine (`argus-sct`) as an [`Engine`].
pub struct SctEngine;

impl Engine for SctEngine {
    fn id(&self) -> &'static str {
        "sct"
    }

    fn name(&self) -> &'static str {
        "size-change termination"
    }

    fn run(
        &self,
        _program: &Program,
        _query: &PredKey,
        _adornment: &Adornment,
        ctx: &EngineCtx<'_>,
    ) -> EngineRun {
        if ctx.cancelled() {
            return EngineRun::cancelled();
        }
        let report = argus_sct::analyze_sct(ctx.prepared(), ctx.options, ctx.cancel);
        let verdict = if report.cancelled {
            EngineVerdict::Cancelled
        } else if report.proved {
            EngineVerdict::Proved
        } else {
            EngineVerdict::Unknown
        };
        EngineRun { verdict, detail: report.detail(), stats: report.stats.counters() }
    }
}

/// A baseline [`TerminationMethod`] lifted to the [`Engine`] contract.
struct MethodEngine<M: TerminationMethod + Send + Sync> {
    id: &'static str,
    name: &'static str,
    method: M,
}

impl<M: TerminationMethod + Send + Sync> Engine for MethodEngine<M> {
    fn id(&self) -> &'static str {
        self.id
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn run(
        &self,
        program: &Program,
        query: &PredKey,
        adornment: &Adornment,
        ctx: &EngineCtx<'_>,
    ) -> EngineRun {
        if ctx.cancelled() {
            return EngineRun::cancelled();
        }
        let r = self.method.prove(program, query, adornment);
        EngineRun {
            verdict: if r.proved { EngineVerdict::Proved } else { EngineVerdict::Unknown },
            detail: r.detail,
            stats: Vec::new(),
        }
    }
}

/// Build the engine with the given id.
pub fn engine_by_id(id: &str) -> Option<Box<dyn Engine>> {
    match id {
        "theta" => Some(Box::new(ThetaEngine)),
        "sct" => Some(Box::new(SctEngine)),
        "bs" => Some(Box::new(MethodEngine {
            id: "bs",
            name: "Brodsky-Sagiv binary orders",
            method: BrodskySagivBinary,
        })),
        "uvg" => Some(Box::new(MethodEngine {
            id: "uvg",
            name: "Ullman-Van Gelder single argument",
            method: UvgSingleArgument,
        })),
        "naish" => Some(Box::new(MethodEngine {
            id: "naish",
            name: "Naish/Sagiv-Ullman subset",
            method: NaishSubset,
        })),
        _ => None,
    }
}

/// Every engine, in portfolio priority order.
pub fn standard_engines() -> Vec<Box<dyn Engine>> {
    ENGINE_IDS.iter().map(|id| engine_by_id(id).expect("registered engine")).collect()
}

/// Resolve an engine tag to the engine list and whether to race it:
/// `portfolio` races every registered engine, a single id runs just that
/// engine, un-raced, through the same runner so output shapes match.
/// `None` for an unknown tag.
pub fn engines_for(tag: &str) -> Option<(Vec<Box<dyn Engine>>, bool)> {
    if tag == "portfolio" {
        Some((standard_engines(), true))
    } else {
        engine_by_id(tag).map(|e| (vec![e], false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_core::engine::run_portfolio;
    use argus_core::AnalysisOptions;

    const APPEND: &str = "append([], Ys, Ys).\n\
                          append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).";

    #[test]
    fn registry_round_trips() {
        for id in ENGINE_IDS {
            assert_eq!(engine_by_id(id).unwrap().id(), id);
        }
        assert!(engine_by_id("nope").is_none());
    }

    #[test]
    fn engine_tags_resolve() {
        let (all, race) = engines_for("portfolio").unwrap();
        assert!(race);
        assert_eq!(all.iter().map(|e| e.id()).collect::<Vec<_>>(), ENGINE_IDS);
        for id in ENGINE_IDS {
            let (alone, race) = engines_for(id).unwrap();
            assert!(!race);
            assert_eq!(alone.iter().map(|e| e.id()).collect::<Vec<_>>(), [id]);
        }
        assert!(engines_for("nope").is_none());
    }

    #[test]
    fn portfolio_attributes_theta_on_append() {
        let program = argus_logic::parser::parse_program(APPEND).unwrap();
        let report = run_portfolio(
            &standard_engines(),
            &program,
            &PredKey::new("append", 3),
            &Adornment::parse("bff").unwrap(),
            &AnalysisOptions::default(),
            1,
            true,
            None,
        );
        assert_eq!(report.verdict, Verdict::Terminates);
        assert_eq!(report.winner_id(), Some("theta"));
        // Everything after the winner reports cancelled, regardless of
        // scheduling.
        for e in &report.entries[1..] {
            assert_eq!(e.run.verdict, EngineVerdict::Cancelled);
        }
    }

    #[test]
    fn portfolio_race_matches_unraced_verdict() {
        let program = argus_logic::parser::parse_program("loop(X) :- loop(X).").unwrap();
        let q = PredKey::new("loop", 1);
        let a = Adornment::parse("b").unwrap();
        let opts = AnalysisOptions::default();
        let raced = run_portfolio(&standard_engines(), &program, &q, &a, &opts, 0, true, None);
        let unraced = run_portfolio(&standard_engines(), &program, &q, &a, &opts, 0, false, None);
        assert_eq!(raced.verdict, unraced.verdict);
        assert_eq!(raced.winner, None);
    }
}
