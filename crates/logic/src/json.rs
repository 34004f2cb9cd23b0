//! JSON string escaping and array joining shared by every emitter in the
//! workspace (reports, diagnostics, the server, the LSP, fuzz and bench
//! output).

use std::fmt::Write as _;

/// Escape `s` as the contents of a JSON string literal (no quotes).
///
/// Runs that need no escape are copied whole. Only `"`, `\` and the
/// ASCII control characters are rewritten; each is one byte that never
/// occurs inside a multibyte UTF-8 sequence, so every run boundary is a
/// char boundary.
pub fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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

    /// The per-char escape `escape_into` used to run, kept as an oracle.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::new();
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
        out
    }

    #[test]
    fn mixed_runs() {
        assert_eq!(json_str("ab\"cd\\ef\ngh\u{2}ij😀\"k"), r#""ab\"cd\\ef\ngh\u0002ij😀\"k""#);
        assert_eq!(json_str("\"\"\\\\"), r#""\"\"\\\\""#);
        assert_eq!(json_str("é\u{0}é\u{1b}[0m∀"), r#""é\u0000é\u001b[0m∀""#);
        assert_eq!(json_str("run only, no escapes: é😀 ∀x"), "\"run only, no escapes: é😀 ∀x\"");
        assert_eq!(json_str("\r\ntail"), r#""\r\ntail""#);
        assert_eq!(json_str("head\t"), r#""head\t""#);
        // Every escape at every position of a long multibyte text.
        let pieces =
            ["", "a", "é", "😀", "∀x", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}"];
        let mut long = String::new();
        for (i, a) in pieces.iter().enumerate() {
            for b in &pieces[i..] {
                long.push_str(a);
                long.push_str("plain run ");
                long.push_str(b);
                let mut out = String::from("prefix ");
                escape_into(&mut out, &long);
                assert_eq!(out, format!("prefix {}", escape_per_char(&long)), "{long:?}");
            }
        }
        assert!(long.len() > 1000);
    }

    #[test]
    fn arrays_join_with_the_given_separator() {
        let items = || ["1".to_string(), json_str("a")];
        assert_eq!(json_array(items(), ","), r#"[1,"a"]"#);
        assert_eq!(json_array(items(), ", "), r#"[1, "a"]"#);
        assert_eq!(json_array(Vec::new(), ","), "[]");
    }
}
