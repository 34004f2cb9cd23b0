//! The termination-engine abstraction and the racing portfolio runner.
//!
//! An [`Engine`] is any procedure that, given a program, query, and
//! adornment, either *proves* top-down termination or gives up — the
//! θ-method, the size-change engine, and the `argus-baselines` methods
//! all implement it (the implementations live downstream; this module
//! only defines the contract and the runner so `argus-core` does not
//! depend on the engine crates).
//!
//! [`run_portfolio`] races a priority-ordered engine list on the `par`
//! worker pool with first-proof-wins cancellation, while keeping the
//! output a **pure function of the inputs** — byte-identical at every
//! `--jobs` setting. The trick: the *winner* is defined as the
//! lowest-priority-index engine that proves, not the first to finish;
//! engines ordered after the winner are always reported `cancelled`
//! (whether or not they happened to complete), and the shared cancel
//! flag is only raised once every engine ordered before the prover has
//! finished without proving — at that instant every still-running engine
//! is ordered after the winner, so cancellation can only discard results
//! the report was going to discard anyway. Cancellation is therefore a
//! pure efficiency knob, invisible in the output.
//!
//! Engines that read size relations take them from
//! [`EngineCtx::prepared`]: one [`Prepared`] per run, built by the first
//! engine that asks, so the θ-method and size-change engines compute one
//! size-relation fixpoint between them, raced or not.

use crate::analyze::{prepare, AnalysisOptions, Prepared, Verdict};
use crate::incremental::SccCache;
use crate::json::json_str;
use argus_logic::modes::Adornment;
use argus_logic::{PredKey, Program};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

/// What one engine concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineVerdict {
    /// Termination proved.
    Proved,
    /// The engine cannot certify termination (sufficient methods only).
    Unknown,
    /// θ-method-specific: a zero-weight cycle — strong evidence of
    /// nontermination (§6.1).
    ZeroWeightCycle,
    /// The engine was cancelled by the portfolio before finishing.
    Cancelled,
}

impl EngineVerdict {
    /// Stable lowercase label (JSON + text).
    pub fn label(&self) -> &'static str {
        match self {
            EngineVerdict::Proved => "proved",
            EngineVerdict::Unknown => "unknown",
            EngineVerdict::ZeroWeightCycle => "zero-weight-cycle",
            EngineVerdict::Cancelled => "cancelled",
        }
    }
}

/// One engine's result: verdict, a one-line explanation, and deterministic
/// work counters for `--stats` attribution.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The conclusion.
    pub verdict: EngineVerdict,
    /// One-line human-readable detail.
    pub detail: String,
    /// Deterministic counters (pinnable in goldens; no wall clock).
    pub stats: Vec<(&'static str, u64)>,
}

impl EngineRun {
    /// The canonical result of a cancelled run.
    pub fn cancelled() -> EngineRun {
        EngineRun {
            verdict: EngineVerdict::Cancelled,
            detail: "cancelled (portfolio winner decided)".to_string(),
            stats: Vec::new(),
        }
    }
}

/// Shared context handed to every engine run.
pub struct EngineCtx<'a> {
    /// Analysis options (norm, δ mode, FM tier, …) — engines honor the
    /// subset that applies to them.
    pub options: &'a AnalysisOptions,
    /// Cooperative cancellation flag (racing portfolio); engines should
    /// poll it at natural checkpoints and bail out with
    /// [`EngineRun::cancelled`].
    pub cancel: Option<&'a AtomicBool>,
    /// Shared per-SCC memo (the incremental-analysis layer). Every
    /// [`EngineCtx::prepared`] size-relation fixpoint reads it, and the θ
    /// engine threads it into its per-SCC decisions and transform retry.
    /// Memoized runs render byte-identical reports, so this is invisible
    /// in the output.
    pub scc_memo: Option<&'a SccCache>,
    /// The instance every engine of the run is given.
    instance: (&'a Program, &'a PredKey, &'a Adornment),
    /// The instance's [`Prepared`] form, filled by the first engine that
    /// asks.
    prepared: OnceLock<Prepared>,
}

impl EngineCtx<'_> {
    /// Has cancellation been signalled?
    pub fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// The run's raw program, prepared once for every engine that reads
    /// size relations. The first caller runs [`prepare`] (through
    /// [`EngineCtx::scc_memo`] when there is one); a concurrent caller
    /// blocks until it is filled, so a run computes at most one fixpoint.
    pub fn prepared(&self) -> &Prepared {
        self.prepared.get_or_init(|| {
            let (program, query, adornment) = self.instance;
            prepare(program, query, adornment.clone(), self.options, self.scc_memo)
        })
    }
}

/// A termination-proving engine.
pub trait Engine: Send + Sync {
    /// Stable machine id (`theta`, `sct`, `bs`, `uvg`, `naish`) — the CLI
    /// `--engine` value and the serve cache-key component.
    fn id(&self) -> &'static str;
    /// Human-readable name.
    fn name(&self) -> &'static str;
    /// Run the engine on one (program, query, adornment) instance.
    fn run(
        &self,
        program: &Program,
        query: &PredKey,
        adornment: &Adornment,
        ctx: &EngineCtx<'_>,
    ) -> EngineRun;
}

/// One row of a portfolio (or single-engine) report.
#[derive(Debug, Clone)]
pub struct EngineEntry {
    /// Engine id.
    pub id: &'static str,
    /// Engine display name.
    pub name: &'static str,
    /// What it concluded.
    pub run: EngineRun,
}

/// The combined result of running one or more engines on one instance.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// The query predicate, as given.
    pub query: PredKey,
    /// The query adornment.
    pub adornment: Adornment,
    /// Per-engine results, in priority order.
    pub entries: Vec<EngineEntry>,
    /// Index into `entries` of the winning (lowest-priority proving)
    /// engine, if any engine proved.
    pub winner: Option<usize>,
    /// Overall verdict: `Terminates` when any engine proved, otherwise
    /// the θ-method's zero-weight-cycle evidence if present, otherwise
    /// `Unknown`.
    pub verdict: Verdict,
}

impl PortfolioReport {
    /// The winning engine's id, if any.
    pub fn winner_id(&self) -> Option<&'static str> {
        self.winner.map(|i| self.entries[i].id)
    }

    /// Render as `argus-engine/v1` JSON (no trailing newline). `stats`
    /// includes the per-engine counter objects.
    pub fn to_json(&self, stats: bool) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"argus-engine/v1\",\"query\":{},\"adornment\":{},",
            json_str(&self.query.to_string()),
            json_str(&self.adornment.to_string()),
        );
        let _ = write!(out, "\"verdict\":\"{}\",", verdict_label(self.verdict));
        match self.winner_id() {
            Some(id) => {
                let _ = write!(out, "\"winner\":\"{id}\",");
            }
            None => out.push_str("\"winner\":null,"),
        }
        out.push_str("\"engines\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":\"{}\",\"name\":{},\"verdict\":\"{}\",\"detail\":{}",
                e.id,
                json_str(e.name),
                e.run.verdict.label(),
                json_str(&e.run.detail),
            );
            if stats {
                out.push_str(",\"stats\":{");
                for (j, (k, v)) in e.run.stats.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Deterministic per-engine counter lines for text-mode `--stats`.
    /// Engines with no counters (the baselines, cancelled runs) are
    /// omitted; nothing here touches the wall clock.
    pub fn render_stats(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for e in &self.entries {
            if e.run.stats.is_empty() {
                continue;
            }
            let _ = write!(out, "stats[{}]:", e.id);
            for (k, v) in &e.run.stats {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        out
    }
}

/// Stable lowercase verdict label shared with the engine JSON.
fn verdict_label(v: Verdict) -> &'static str {
    match v {
        Verdict::Terminates => "terminates",
        Verdict::Unknown => "unknown",
        Verdict::ZeroWeightCycle => "zero-weight-cycle",
    }
}

impl fmt::Display for PortfolioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "query: {} — verdict: {:?}{}",
            self.query,
            self.verdict,
            match self.winner_id() {
                Some(id) => format!(" (winner: {id})"),
                None => String::new(),
            }
        )?;
        for e in &self.entries {
            writeln!(f, "  {:<6} {:<18} {}", e.id, e.run.verdict.label(), e.run.detail)?;
        }
        Ok(())
    }
}

/// Run `engines` (in priority order) on one instance, racing them across
/// the worker pool with first-proof-wins cancellation. See the module
/// docs for why the output is byte-identical at every `jobs` setting.
///
/// `race: false` disables cancellation and the loser rewrite — every
/// engine runs to completion and reports its real verdict. The fuzz
/// portfolio oracle uses this mode: it needs all verdicts to cross-check,
/// not just the winner's.
///
/// `scc_memo` is handed to every engine context (the incremental-analysis
/// layer). Memoized engine runs render the same bytes as cold runs, so the
/// memo is invisible in the report.
#[allow(clippy::too_many_arguments)]
pub fn run_portfolio(
    engines: &[Box<dyn Engine>],
    program: &Program,
    query: &PredKey,
    adornment: &Adornment,
    options: &AnalysisOptions,
    jobs: usize,
    race: bool,
    scc_memo: Option<&SccCache>,
) -> PortfolioReport {
    // Engine completion states, indexed like `engines`.
    const RUNNING: u8 = 0;
    const DONE_PROVED: u8 = 1;
    const DONE_OTHER: u8 = 2;
    let states: Vec<AtomicU8> = engines.iter().map(|_| AtomicU8::new(RUNNING)).collect();
    let cancel = AtomicBool::new(false);
    let ctx = EngineCtx {
        options,
        cancel: if race { Some(&cancel) } else { None },
        scc_memo,
        instance: (program, query, adornment),
        prepared: OnceLock::new(),
    };

    let indices: Vec<usize> = (0..engines.len()).collect();
    let workers = crate::par::effective_workers(jobs, indices.len());
    let runs = crate::par::par_map_indexed(&indices, workers, |_, &i| {
        let run = if race && ctx.cancelled() {
            EngineRun::cancelled()
        } else {
            engines[i].run(program, query, adornment, &ctx)
        };
        let state = if run.verdict == EngineVerdict::Proved { DONE_PROVED } else { DONE_OTHER };
        states[i].store(state, Ordering::SeqCst);
        if race {
            // Raise the cancel flag only once the winner is *known*: the
            // lowest-index prover behind a fully-finished non-proving
            // prefix. Every engine still running then sits after the
            // winner and would be reported `cancelled` regardless.
            for s in &states {
                match s.load(Ordering::SeqCst) {
                    RUNNING => break,
                    DONE_PROVED => {
                        cancel.store(true, Ordering::SeqCst);
                        break;
                    }
                    _ => continue,
                }
            }
        }
        run
    });

    // Deterministic post-processing on the in-order results.
    let winner = runs.iter().position(|r| r.verdict == EngineVerdict::Proved);
    let entries: Vec<EngineEntry> = engines
        .iter()
        .zip(runs)
        .enumerate()
        .map(|(i, (e, run))| {
            let run = match winner {
                // Engines ordered after the winner always report
                // `cancelled`, whether or not they really were: the
                // report must not depend on scheduling.
                Some(w) if race && i > w => EngineRun::cancelled(),
                _ => run,
            };
            EngineEntry { id: e.id(), name: e.name(), run }
        })
        .collect();
    let verdict = if winner.is_some() {
        Verdict::Terminates
    } else if entries.iter().any(|e| e.run.verdict == EngineVerdict::ZeroWeightCycle) {
        Verdict::ZeroWeightCycle
    } else {
        Verdict::Unknown
    };
    PortfolioReport { query: query.clone(), adornment: adornment.clone(), entries, winner, verdict }
}
