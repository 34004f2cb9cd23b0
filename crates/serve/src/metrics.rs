//! The `/metrics` observability surface.
//!
//! The request counters are lock-free atomics bumped on the request path,
//! and the FM totals one [`FmStats`] merged once per computed request; the
//! snapshot renderer emits a *stable* JSON document — fixed key set,
//! fixed order — so the schema can be golden-tested exactly like the
//! `analyze --json` report (values normalized, names pinned). Latency is
//! recorded in hand-rolled fixed-bucket histograms: an upper-bound table
//! in microseconds, one atomic counter per bucket, no allocation and no
//! dependencies.

use argus_core::SccCache;
use argus_linear::FmStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Schema identifier pinned by the golden test. v2 added the `/v1/infer`
/// counters and the condition cache; v4 added the per-SCC incremental
/// cache gauges; v5 dropped the process-lifetime projection cache block.
pub const METRICS_SCHEMA: &str = "argus-serve-metrics/v5";

/// Histogram bucket upper bounds, in microseconds. The last bucket is
/// unbounded (rendered as `"inf"`).
pub const LATENCY_BUCKETS_US: [u64; 12] =
    [50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000];

/// A fixed-bucket latency histogram.
#[derive(Default)]
pub struct Histogram {
    counts: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Record one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let idx = LATENCY_BUCKETS_US.partition_point(|&bound| us > bound);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    fn render(&self, out: &mut String) {
        out.push_str("{\"buckets_us\":{");
        for (i, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            let _ = write!(out, "\"le_{bound}\":{},", self.counts[i].load(Ordering::Relaxed));
        }
        let _ = write!(
            out,
            "\"le_inf\":{}}},\"count\":{},\"sum_us\":{}}}",
            self.counts[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed),
            self.total(),
            self.sum_us.load(Ordering::Relaxed)
        );
    }
}

/// All server counters.
#[derive(Default)]
pub struct Metrics {
    /// Requests per endpoint.
    pub analyze_requests: AtomicU64,
    /// Batch envelope requests.
    pub batch_requests: AtomicU64,
    /// Items inside batch envelopes.
    pub batch_items: AtomicU64,
    /// Condition-inference requests.
    pub infer_requests: AtomicU64,
    /// Predicates whose conditions were inferred (computed, not cached).
    pub infer_predicates: AtomicU64,
    /// Forward analyses spent inside condition inference.
    pub infer_analyses: AtomicU64,
    /// Analyze-cache entries primed from inference probes.
    pub infer_primed: AtomicU64,
    /// Lint requests.
    pub lint_requests: AtomicU64,
    /// Health probes.
    pub healthz_requests: AtomicU64,
    /// Metrics scrapes.
    pub metrics_requests: AtomicU64,
    /// Responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (client errors, including 408/413).
    pub responses_4xx: AtomicU64,
    /// 5xx responses (503 overload, 504 deadline).
    pub responses_5xx: AtomicU64,
    /// Requests rejected because the accept queue was full.
    pub queue_rejections: AtomicU64,
    /// Analyses aborted by the per-request deadline.
    pub deadline_exceeded: AtomicU64,
    /// Malformed requests (unparseable HTTP, bad JSON, bad UTF-8).
    pub malformed_requests: AtomicU64,
    /// Read timeouts mid-request (slow-loris cutoffs).
    pub read_timeouts: AtomicU64,
    /// FM counters summed over every analysis this process ran
    /// (`peak_rows` is the maximum).
    pub fm: Mutex<FmStats>,
    /// Latency of `/v1/analyze` handled from the report cache.
    pub analyze_latency_cached: Histogram,
    /// Latency of `/v1/analyze` that ran the analysis.
    pub analyze_latency_computed: Histogram,
}

impl Metrics {
    /// Bump the status-class counter for `status`.
    pub fn count_status(&self, status: u16) {
        let c = match status / 100 {
            2 => &self.responses_2xx,
            4 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Render the stable snapshot; see [`METRICS_SCHEMA`].
    pub fn snapshot_json(
        &self,
        uptime: Duration,
        reports: &SccCache,
        conditions: &SccCache,
        scc: &SccCache,
    ) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::with_capacity(2048);
        let _ = write!(out, "{{\"schema\":\"{METRICS_SCHEMA}\"");
        let _ = write!(out, ",\"uptime_ms\":{}", uptime.as_millis());
        let _ = write!(
            out,
            ",\"requests\":{{\"analyze\":{},\"batch\":{},\"batch_items\":{},\"infer\":{},\
             \"lint\":{},\"healthz\":{},\"metrics\":{}}}",
            g(&self.analyze_requests),
            g(&self.batch_requests),
            g(&self.batch_items),
            g(&self.infer_requests),
            g(&self.lint_requests),
            g(&self.healthz_requests),
            g(&self.metrics_requests),
        );
        let _ = write!(
            out,
            ",\"responses\":{{\"status_2xx\":{},\"status_4xx\":{},\"status_5xx\":{}}}",
            g(&self.responses_2xx),
            g(&self.responses_4xx),
            g(&self.responses_5xx),
        );
        let _ = write!(
            out,
            ",\"rejections\":{{\"queue_full\":{},\"deadline_exceeded\":{},\"malformed\":{},\
             \"read_timeout\":{}}}",
            g(&self.queue_rejections),
            g(&self.deadline_exceeded),
            g(&self.malformed_requests),
            g(&self.read_timeouts),
        );
        let _ = write!(
            out,
            ",\"infer\":{{\"predicates\":{},\"analyses\":{},\"primed\":{}}}",
            g(&self.infer_predicates),
            g(&self.infer_analyses),
            g(&self.infer_primed),
        );
        render_cache(&mut out, "report_cache", reports, true);
        render_cache(&mut out, "condition_cache", conditions, true);
        render_cache(&mut out, "scc_cache", scc, false);
        let fm = self.fm.lock().map(|fm| *fm).unwrap_or_default();
        out.push_str(",\"fm\":{");
        for (i, (name, v)) in fm.counters().into_iter().enumerate() {
            let _ = write!(out, "{}\"{name}\":{v}", if i == 0 { "" } else { "," });
        }
        out.push('}');
        out.push_str(",\"latency\":{\"analyze_cached\":");
        self.analyze_latency_cached.render(&mut out);
        out.push_str(",\"analyze_computed\":");
        self.analyze_latency_computed.render(&mut out);
        out.push_str("}}");
        out
    }
}

/// One cache block: `hits`, `misses`, then `insertions` when asked (the
/// report and condition caches; the SCC memo block predates the counter
/// and keeps its five keys), `evictions`, `entries` and `resident_bytes`.
fn render_cache(out: &mut String, name: &str, cache: &SccCache, insertions: bool) {
    let _ = write!(out, ",\"{name}\":{{\"hits\":{},\"misses\":{}", cache.hits(), cache.misses());
    if insertions {
        let _ = write!(out, ",\"insertions\":{}", cache.insertions());
    }
    let _ = write!(
        out,
        ",\"evictions\":{},\"entries\":{},\"resident_bytes\":{}}}",
        cache.evictions(),
        cache.entries(),
        cache.resident_bytes(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let h = Histogram::default();
        h.record(Duration::from_micros(49));
        h.record(Duration::from_micros(50)); // inclusive upper bound
        h.record(Duration::from_micros(51));
        h.record(Duration::from_secs(10)); // overflow bucket
        assert_eq!(h.counts[0].load(Ordering::Relaxed), 2);
        assert_eq!(h.counts[1].load(Ordering::Relaxed), 1);
        assert_eq!(h.counts[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn snapshot_is_valid_json_with_pinned_schema() {
        let m = Metrics::default();
        m.fm.lock().unwrap().merge(&FmStats {
            eliminations: 3,
            peak_rows: 7,
            ..FmStats::default()
        });
        m.count_status(200);
        let reports = SccCache::new(1024);
        let conditions = SccCache::new(1024);
        let scc = SccCache::new(1024);
        let snap = m.snapshot_json(Duration::from_millis(5), &reports, &conditions, &scc);
        let v = crate::jsonval::parse(&snap).expect("snapshot parses");
        assert_eq!(v.get("schema").and_then(crate::jsonval::Json::as_str), Some(METRICS_SCHEMA));
        assert_eq!(
            v.get("fm").and_then(|f| f.get("eliminations")).and_then(crate::jsonval::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("responses")
                .and_then(|r| r.get("status_2xx"))
                .and_then(crate::jsonval::Json::as_u64),
            Some(1)
        );
    }
}
