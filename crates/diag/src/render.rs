//! Diagnostic renderers: caret-annotated text and stable JSON.
//!
//! The text renderer follows the familiar compiler-diagnostic shape:
//!
//! ```text
//! warning[L001]: singleton variable `Ys`
//!   --> demo.pl:3:14
//!    |
//!  3 | bad_fact(X, 7).
//!    |          ^
//!    = note: prefix with `_` if intentional
//! ```
//!
//! The JSON renderer emits one object per diagnostic with a stable field
//! set (`code`, `severity`, `message`, `notes`, and — when spanned —
//! `line`, `col`, `start`, `end`), so golden-file tests and editor
//! integrations can key on it.

use crate::{Diagnostic, Severity};
use argus_logic::span::LineIndex;
use std::fmt::Write as _;

pub(crate) use argus_logic::json::json_str;

/// Render one diagnostic as caret-annotated text over `src`.
pub fn render_diagnostic(d: &Diagnostic, src: &str, file: &str, index: &LineIndex) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    if let Some(span) = d.span {
        let _ = writeln!(out, "  --> {file}:{}:{}", span.line, span.col);
        let text = index.line_text(src, span.line);
        let gutter_width = span.line.to_string().len().max(2);
        let _ = writeln!(out, "{:gutter_width$} |", "");
        let _ = writeln!(out, "{:>gutter_width$} | {text}", span.line);
        // Caret run: from the span's column, as many chars as the span
        // covers on its first line.
        let line_start = index.line_start(span.line).unwrap_or(0);
        let line_end = line_start + text.len();
        let caret_end = span.end.min(line_end).max(span.start);
        let carets = src.get(span.start..caret_end).map(|s| s.chars().count()).unwrap_or(1).max(1);
        let _ = writeln!(
            out,
            "{:gutter_width$} | {:pad$}{}",
            "",
            "",
            "^".repeat(carets),
            pad = span.col.saturating_sub(1),
        );
    }
    let gutter_width = d.span.map(|s| s.line.to_string().len().max(2)).unwrap_or(2);
    for note in &d.notes {
        let _ = writeln!(out, "{:gutter_width$} = note: {note}", "");
    }
    out
}

/// Render all diagnostics as text, with a trailing summary line.
pub fn render_text(diags: &[Diagnostic], src: &str, file: &str) -> String {
    let index = LineIndex::new(src);
    let mut out = String::new();
    for d in diags {
        out.push_str(&render_diagnostic(d, src, file, &index));
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.iter().filter(|d| d.severity == Severity::Warning).count();
    let notes = diags.iter().filter(|d| d.severity == Severity::Note).count();
    if diags.is_empty() {
        let _ = writeln!(out, "{file}: clean (no diagnostics)");
    } else {
        let _ = writeln!(out, "{file}: {errors} error(s), {warnings} warning(s), {notes} note(s)");
    }
    out
}

/// Render all diagnostics as a stable JSON document.
///
/// Shape:
/// ```json
/// {
///   "file": "demo.pl",
///   "count": 2,
///   "diagnostics": [
///     {"code":"L001","severity":"warning","line":3,"col":14,
///      "start":40,"end":41,"message":"...","notes":["..."]}
///   ]
/// }
/// ```
pub fn render_json(diags: &[Diagnostic], file: &str) -> String {
    let mut items = Vec::with_capacity(diags.len());
    for d in diags {
        let mut fields = vec![
            format!("\"code\":{}", json_str(d.code)),
            format!("\"severity\":{}", json_str(d.severity.as_str())),
        ];
        if let Some(span) = d.span {
            fields.push(format!("\"line\":{}", span.line));
            fields.push(format!("\"col\":{}", span.col));
            fields.push(format!("\"start\":{}", span.start));
            fields.push(format!("\"end\":{}", span.end));
        }
        fields.push(format!("\"message\":{}", json_str(&d.message)));
        let notes: Vec<String> = d.notes.iter().map(|n| json_str(n)).collect();
        fields.push(format!("\"notes\":[{}]", notes.join(",")));
        items.push(format!("    {{{}}}", fields.join(",")));
    }
    format!(
        "{{\n  \"file\":{},\n  \"count\":{},\n  \"diagnostics\":[\n{}\n  ]\n}}\n",
        json_str(file),
        diags.len(),
        items.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, LintOptions};
    use argus_logic::span::Span;

    #[test]
    fn text_renderer_points_carets_at_the_span() {
        let src = "p(X) :- q(X).\n";
        let diags = lint_source(src, &LintOptions::default());
        let text = render_text(&diags, src, "demo.pl");
        assert!(text.contains("error[L002]"), "{text}");
        assert!(text.contains("--> demo.pl:1:9"), "{text}");
        assert!(text.contains("p(X) :- q(X)."), "{text}");
        // Four carets under `q(X)` starting at column 9.
        assert!(text.contains("\n   |         ^^^^\n"), "{text}");
    }

    #[test]
    fn text_renderer_handles_spanless_diagnostics() {
        let d = Diagnostic::new("L003", Severity::Warning, None, "orphan").with_note("why");
        let text = render_text(&[d], "", "x.pl");
        assert!(text.contains("warning[L003]: orphan"), "{text}");
        assert!(text.contains("= note: why"), "{text}");
        assert!(!text.contains("-->"), "{text}");
    }

    #[test]
    fn clean_run_renders_a_summary() {
        let text = render_text(&[], "p(a).\n", "ok.pl");
        assert_eq!(text, "ok.pl: clean (no diagnostics)\n");
    }

    #[test]
    fn json_renderer_is_stable_and_escaped() {
        let d =
            Diagnostic::new("L000", Severity::Error, Some(Span::new(3, 4, 1, 4)), "bad \"token\"")
                .with_note("a\nb");
        let json = render_json(&[d], "weird\\name.pl");
        assert!(json.contains("\"file\":\"weird\\\\name.pl\""), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(
            json.contains(
                "{\"code\":\"L000\",\"severity\":\"error\",\"line\":1,\"col\":4,\
                 \"start\":3,\"end\":4,\"message\":\"bad \\\"token\\\"\",\
                 \"notes\":[\"a\\nb\"]}"
            ),
            "{json}"
        );
    }

    #[test]
    fn json_renderer_omits_span_fields_when_absent() {
        let d = Diagnostic::new("L003", Severity::Warning, None, "orphan");
        let json = render_json(&[d], "x.pl");
        assert!(!json.contains("\"line\""), "{json}");
        assert!(json.contains("\"notes\":[]"), "{json}");
    }
}
