//! JSON string escaping and array joining shared by every emitter in the
//! workspace (reports, diagnostics, the server, the LSP, fuzz and bench
//! output).

use std::fmt::Write as _;

/// Escape `s` as the contents of a JSON string literal (no quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` as a complete JSON string literal, quotes included.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// A JSON array of already-rendered items, joined by `sep`: `","` for
/// compact output (reports), `", "` for readable output (bench logs).
pub fn json_array(items: impl IntoIterator<Item = String>, sep: &str) -> String {
    let inner: Vec<String> = items.into_iter().collect();
    format!("[{}]", inner.join(sep))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(json_str(""), r#""""#);
        assert_eq!(json_str("a\"b"), r#""a\"b""#);
        assert_eq!(json_str("a\\b"), r#""a\\b""#);
        assert_eq!(json_str("\n\r\t"), r#""\n\r\t""#);
        assert_eq!(json_str("\u{1}\u{1f}"), r#""\u0001\u001f""#);
        assert_eq!(json_str("\u{20}\u{7f}"), "\" \u{7f}\"");
        assert_eq!(json_str("é😀 ∀x"), "\"é😀 ∀x\"");
        let mut out = String::from("k=");
        escape_into(&mut out, "\"\\\n");
        assert_eq!(out, r#"k=\"\\\n"#);
    }

    #[test]
    fn arrays_join_with_the_given_separator() {
        let items = || ["1".to_string(), json_str("a")];
        assert_eq!(json_array(items(), ","), r#"[1,"a"]"#);
        assert_eq!(json_array(items(), ", "), r#"[1, "a"]"#);
        assert_eq!(json_array(Vec::new(), ","), "[]");
    }
}
