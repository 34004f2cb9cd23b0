//! Machine-readable report serialization.
//!
//! A small, dependency-free JSON emitter for [`TerminationReport`], so the
//! CLI (and any embedding tool) can archive or post-process verdicts
//! without parsing the human-oriented `Display` output. Only emission is
//! provided — reports are produced, not consumed, by this library.

use crate::analyze::{SccOutcome, TerminationReport, Verdict};
use argus_logic::json::json_array;
pub(crate) use argus_logic::json::json_str;

impl TerminationReport {
    /// Serialize the report as a JSON object.
    ///
    /// Shape:
    /// ```json
    /// {
    ///   "query": "perm/2",
    ///   "verdict": "Terminates",
    ///   "sccs": [
    ///     {
    ///       "members": ["perm/2"],
    ///       "outcome": "proved",
    ///       "witness": {"perm/2": ["1/2"]},
    ///       "deltas": {"perm/2 -> perm/2": "1"},
    ///       "constraints": ["-2*theta[perm][1] + 1 <= 0", "..."]
    ///     }
    ///   ]
    /// }
    /// ```
    /// Rationals are emitted as strings (`"1/2"`) to stay exact.
    pub fn to_json(&self) -> String {
        self.to_json_with(false)
    }

    /// Like [`TerminationReport::to_json`]; with `stats` set, each SCC
    /// object additionally carries a `"stats"` member with its FM counters
    /// and the report a `"run_stats"` member with projection-cache totals.
    /// Only deterministic counters are emitted — wall-clock time stays in
    /// the text report — so the output is byte-stable across runs, `--jobs`
    /// settings, and cache hit/miss patterns.
    pub fn to_json_with(&self, stats: bool) -> String {
        let verdict = match self.verdict {
            Verdict::Terminates => "Terminates",
            Verdict::Unknown => "Unknown",
            Verdict::ZeroWeightCycle => "ZeroWeightCycle",
        };
        let sccs = json_array(self.sccs.iter().map(|scc| {
            let members = json_array(scc.members.iter().map(|p| json_str(&p.to_string())), ",");
            let constraints =
                json_array(scc.render_constraints().iter().map(|c| json_str(c)), ",");
            let (outcome, detail) = match &scc.outcome {
                SccOutcome::NonRecursive => ("nonrecursive".to_string(), String::new()),
                SccOutcome::Proved { witness, deltas } => {
                    let w: Vec<String> = witness
                        .iter()
                        .map(|(p, th)| {
                            format!(
                                "{}:{}",
                                json_str(&p.to_string()),
                                json_array(th.iter().map(|r| json_str(&r.to_string())), ",")
                            )
                        })
                        .collect();
                    let d: Vec<String> = deltas
                        .iter()
                        .map(|((a, b), v)| {
                            format!(
                                "{}:{}",
                                json_str(&format!("{a} -> {b}")),
                                json_str(&v.to_string())
                            )
                        })
                        .collect();
                    (
                        "proved".to_string(),
                        format!(
                            ",\"witness\":{{{}}},\"deltas\":{{{}}}",
                            w.join(","),
                            d.join(",")
                        ),
                    )
                }
                SccOutcome::ProvedLexicographic { proof } => {
                    let levels = json_array(proof.levels.iter().map(|level| {
                        let entries: Vec<String> = level
                            .iter()
                            .map(|(p, th)| {
                                format!(
                                    "{}:{}",
                                    json_str(&p.to_string()),
                                    json_array(th.iter().map(|r| json_str(&r.to_string())), ",")
                                )
                            })
                            .collect();
                        format!("{{{}}}", entries.join(","))
                    }), ",");
                    ("proved_lexicographic".to_string(), format!(",\"levels\":{levels}"))
                }
                SccOutcome::ZeroWeightCycle(cycle) => (
                    "zero_weight_cycle".to_string(),
                    format!(
                        ",\"cycle\":{}",
                        json_array(cycle.iter().map(|p| json_str(&p.to_string())), ",")
                    ),
                ),
                SccOutcome::NoLinearDecrease { refutation } => {
                    let blame = match &scc.blame {
                        Some(b) => {
                            let span = match b.subgoal_span() {
                                Some(s) => format!(
                                    ",\"line\":{},\"col\":{},\"start\":{},\"end\":{}",
                                    s.line, s.col, s.start, s.end
                                ),
                                None => String::new(),
                            };
                            format!(
                                ",\"blame\":{{\"head\":{},\"call\":{},\"subgoal_index\":{},\"kind\":{}{span}}}",
                                json_str(&b.head_pred.to_string()),
                                json_str(&b.sub_pred.to_string()),
                                b.subgoal_index,
                                json_str(match b.kind {
                                    crate::analyze::BlameKind::Alone => "alone",
                                    crate::analyze::BlameKind::Conjunction => "conjunction",
                                })
                            )
                        }
                        None => String::new(),
                    };
                    (
                        "no_linear_decrease".to_string(),
                        format!(
                            ",\"has_refutation\":{}{blame}",
                            if refutation.is_some() { "true" } else { "false" }
                        ),
                    )
                }
            };
            let scc_stats = if stats {
                let mut out = format!(",\"stats\":{{\"projections\":{}", scc.stats.projections);
                for (name, v) in scc.stats.fm.counters() {
                    out.push_str(&format!(",\"{name}\":{v}"));
                }
                out.push('}');
                out
            } else {
                String::new()
            };
            format!(
                "{{\"members\":{members},\"outcome\":{}{detail},\"constraints\":{constraints}{scc_stats}}}",
                json_str(&outcome)
            )
        }), ",");
        let run_stats = if stats {
            let mut out = format!(
                ",\"run_stats\":{{\"cache_requests\":{},\"cache_entries\":{},\"cache_hits\":{}}}",
                self.run_stats.cache_requests,
                self.run_stats.cache_entries,
                self.run_stats.cache_hits(),
            );
            // Incremental memo counters are stats-only, like run_stats: the
            // default JSON must stay byte-identical with the memo on or off.
            if let Some(incr) = &self.incremental {
                out.push_str(",\"incremental\":{");
                for (name, v) in incr.counters() {
                    out.push_str(&format!("\"{name}\":{v},"));
                }
                out.push_str(&format!("\"dirty\":{},\"total\":{}}}", incr.dirty(), incr.total()));
            }
            out
        } else {
            String::new()
        };
        format!(
            "{{\"query\":{},\"verdict\":{},\"sccs\":{sccs}{run_stats}}}",
            json_str(&self.query.to_string()),
            json_str(verdict)
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::analyze_source;

    #[test]
    fn proved_report_shape() {
        let report = analyze_source(
            "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
            "append/3",
            "bff",
        )
        .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"verdict\":\"Terminates\""), "{json}");
        assert!(json.contains("\"witness\""), "{json}");
        assert!(json.contains("\"1/2\""), "{json}");
    }

    #[test]
    fn failure_report_shape() {
        let report = analyze_source("p(X) :- p(X).", "p/1", "b").unwrap();
        let json = report.to_json();
        assert!(json.contains("\"verdict\":\"Unknown\""), "{json}");
        assert!(json.contains("no_linear_decrease"), "{json}");
        assert!(json.contains("\"has_refutation\""), "{json}");
    }

    #[test]
    fn zero_cycle_report_shape() {
        let report = analyze_source("p(X) :- q(X).\nq(X) :- p(X).", "p/1", "b").unwrap();
        let json = report.to_json();
        assert!(json.contains("zero_weight_cycle"), "{json}");
        assert!(json.contains("\"cycle\""), "{json}");
    }

    #[test]
    fn stats_report_carries_comb_counters() {
        let report = analyze_source(
            "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
            "append/3",
            "bff",
        )
        .unwrap();
        let json = report.to_json_with(true);
        assert!(json.contains("\"small_combs\":"), "{json}");
        assert!(json.contains("\"big_combs\":"), "{json}");
        assert!(json.contains("\"run_stats\""), "{json}");
        // Plain reports must not grow the stats members.
        let plain = report.to_json();
        assert!(!plain.contains("small_combs"), "{plain}");
        assert!(!plain.contains("run_stats"), "{plain}");
    }
}
