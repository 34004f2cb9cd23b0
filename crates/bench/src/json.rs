//! Minimal hand-rolled JSON emission (and a tiny scanner for our own
//! output), mirroring the dependency-free style of `argus-core`'s JSON
//! module. The bench crate writes `BENCH_argus.json` and the experiment
//! logs without a serialization dependency.

pub use argus_logic::json::json_str;

/// A JSON array of already-rendered items.
pub fn json_array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// Render an `f64` so it is always valid JSON (never NaN/inf literals).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

/// Extract the string value of `"key": "…"` from a single JSON object
/// rendered on one line. Only supports the exact format this crate emits
/// (used to read back a baseline `BENCH_argus.json`).
pub fn scan_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extract the numeric value of `"key": 123.4` from a single-line object.
pub fn scan_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-' || *c == '+' || *c == '.' || *c == 'e')
        .collect();
    rest.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_roundtrip() {
        let line = format!(
            "{{\"name\": {}, \"ns_per_iter\": {}}}",
            json_str("fm/rows/8"),
            json_f64(123.4)
        );
        assert_eq!(scan_str_field(&line, "name").as_deref(), Some("fm/rows/8"));
        assert_eq!(scan_num_field(&line, "ns_per_iter"), Some(123.4));
    }

    #[test]
    fn nonfinite_is_null() {
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
