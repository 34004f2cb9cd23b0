//! Minimal hand-rolled JSON emission, mirroring the dependency-free style
//! of `argus-core`'s JSON module, plus the reader for the bench reports
//! it writes. The bench crate writes `BENCH_argus.json` and the
//! experiment logs without a serialization dependency.

pub use argus_logic::json::{json_array, json_str};
use argus_serve::jsonval::{self, Json};

/// Render an `f64` so it is always valid JSON (never NaN/inf literals).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

/// One sample of a bench report: a JSON object with a string `"id"`,
/// alone on its line, as `bench_report` writes it.
#[derive(Debug)]
pub struct ReportSample<'a> {
    /// The sample id (`suite/case`).
    pub id: String,
    /// The parsed object.
    pub value: Json,
    /// The line as written, without its trailing comma.
    pub line: &'a str,
}

/// Read the samples of a bench report, in file order. Lines that are not
/// a whole `{…}` object (the report's header, footer and brackets) are
/// skipped; an object line that does not parse or has no string `"id"`
/// is an error.
pub fn read_samples(text: &str) -> Result<Vec<ReportSample<'_>>, String> {
    let mut samples = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim_end_matches(',');
        let body = line.trim();
        if !(body.starts_with('{') && body.ends_with('}')) {
            continue;
        }
        let value = jsonval::parse(body).map_err(|e| format!("line {}: {e}", n + 1))?;
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: sample has no string \"id\"", n + 1))?
            .to_string();
        samples.push(ReportSample { id, value, line });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_roundtrip() {
        let report = format!(
            "{{\n  \"samples\": [\n    {{\"id\": {}, \"ns_per_iter\": {}}},\n    \
             {{\"id\": \"b\", \"iters\": 1, \"counters\": {{\"rows\": 3}}}}\n  ]\n}}\n",
            json_str("fm/rows/8"),
            json_f64(123.4)
        );
        let samples = read_samples(&report).unwrap();
        let ids: Vec<&str> = samples.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["fm/rows/8", "b"]);
        assert_eq!(samples[0].value.get("ns_per_iter").and_then(Json::as_f64), Some(123.4));
        assert_eq!(samples[0].line, "    {\"id\": \"fm/rows/8\", \"ns_per_iter\": 123.4}");
        assert_eq!(
            samples[1].value.get("counters").and_then(|c| c.get("rows")).and_then(Json::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn malformed_sample_lines_are_errors() {
        assert!(read_samples("{\"id\": \"a\", \"x\": }").unwrap_err().starts_with("line 1:"));
        assert!(read_samples("\n{\"x\": 1}").unwrap_err().starts_with("line 2:"));
    }

    #[test]
    fn nonfinite_is_null() {
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
