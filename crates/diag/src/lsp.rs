//! Diagnostic → Language Server Protocol conversion.
//!
//! The LSP server (`crates/lsp`) publishes the exact diagnostics the
//! CLI renders — same codes, same messages, same byte spans — but the
//! protocol speaks 0-based UTF-16 positions where [`crate::Diagnostic`]
//! carries byte offsets. This module owns that translation:
//!
//! * [`lsp_severity`] maps [`Severity`] onto the protocol's
//!   `DiagnosticSeverity` numbers (Error → 1, Warning → 2, Note → 3 /
//!   Information);
//! * [`lsp_range`] converts a byte [`Span`] to a `(line, character)`
//!   range via [`LineIndex::utf16_position`];
//! * [`render_lsp_diagnostic`] / [`render_lsp_diagnostics`] emit the
//!   protocol's `Diagnostic` JSON objects, with notes surfaced as
//!   `relatedInformation` and the raw byte offsets preserved under
//!   `data` (`{"start":…,"end":…}`) so tooling can assert
//!   byte-equivalence against `argus lint --json` without re-deriving
//!   offsets from UTF-16 positions.
//!
//! Spanless diagnostics (e.g. L003 on a predicate with no parsed rule)
//! get the protocol's conventional zero range and no `data` field.

use crate::render::json_str;
use crate::{Diagnostic, Severity};
use argus_logic::json::escape_into;
use argus_logic::span::{LineIndex, Span};
use std::fmt::Write as _;

/// The LSP `DiagnosticSeverity` value for `s`: Error → 1, Warning → 2,
/// Note → 3 (`Information`).
pub fn lsp_severity(s: Severity) -> u32 {
    match s {
        Severity::Error => 1,
        Severity::Warning => 2,
        Severity::Note => 3,
    }
}

/// The 0-based UTF-16 `((start line, start char), (end line, end char))`
/// range of `span` in `src`.
pub fn lsp_range(index: &LineIndex, src: &str, span: &Span) -> ((usize, usize), (usize, usize)) {
    (index.utf16_position(src, span.start), index.utf16_position(src, span.end))
}

/// Append the JSON of `range` to `out`.
fn write_range(out: &mut String, range: ((usize, usize), (usize, usize))) {
    let ((sl, sc), (el, ec)) = range;
    let _ = write!(
        out,
        "{{\"start\":{{\"line\":{sl},\"character\":{sc}}},\
         \"end\":{{\"line\":{el},\"character\":{ec}}}}}"
    );
}

/// Append `s` to `out` as a JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append one diagnostic's LSP object to `out`. `uri_json` is the
/// document URI already rendered as a JSON string literal, and `range` is
/// scratch space: the range JSON is rendered into it once and copied into
/// the object and into every `relatedInformation` location.
fn write_lsp_diagnostic(
    out: &mut String,
    range: &mut String,
    d: &Diagnostic,
    src: &str,
    index: &LineIndex,
    uri_json: &str,
) {
    range.clear();
    write_range(
        range,
        match &d.span {
            Some(span) => lsp_range(index, src, span),
            None => ((0, 0), (0, 0)),
        },
    );
    out.push_str("{\"range\":");
    out.push_str(range);
    let _ = write!(out, ",\"severity\":{},\"code\":", lsp_severity(d.severity));
    write_str(out, d.code);
    out.push_str(",\"source\":\"argus\",\"message\":");
    write_str(out, &d.message);
    if !d.notes.is_empty() {
        out.push_str(",\"relatedInformation\":[");
        for (i, note) in d.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"location\":{\"uri\":");
            out.push_str(uri_json);
            out.push_str(",\"range\":");
            out.push_str(range);
            out.push_str("},\"message\":");
            write_str(out, note);
            out.push('}');
        }
        out.push(']');
    }
    if let Some(span) = &d.span {
        let _ = write!(out, ",\"data\":{{\"start\":{},\"end\":{}}}", span.start, span.end);
    }
    out.push('}');
}

/// Render one diagnostic as an LSP `Diagnostic` JSON object. `uri` is the
/// document the diagnostic belongs to (needed because
/// `relatedInformation` entries carry full locations).
pub fn render_lsp_diagnostic(d: &Diagnostic, src: &str, index: &LineIndex, uri: &str) -> String {
    let mut out = String::new();
    write_lsp_diagnostic(&mut out, &mut String::new(), d, src, index, &json_str(uri));
    out
}

/// Render `diags` as the LSP `diagnostics` JSON array for a
/// `textDocument/publishDiagnostics` notification over `src`, into one
/// buffer: the URI is escaped once per publish and each range once per
/// diagnostic.
pub fn render_lsp_diagnostics(diags: &[Diagnostic], src: &str, uri: &str) -> String {
    let index = LineIndex::new(src);
    let uri_json = json_str(uri);
    let mut range = String::new();
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_lsp_diagnostic(&mut out, &mut range, d, src, &index, &uri_json);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, LintOptions};

    #[test]
    fn severities_map_to_lsp_numbers() {
        assert_eq!(lsp_severity(Severity::Error), 1);
        assert_eq!(lsp_severity(Severity::Warning), 2);
        assert_eq!(lsp_severity(Severity::Note), 3);
    }

    #[test]
    fn ranges_are_utf16_code_units() {
        // The emoji is 4 bytes / 2 UTF-16 units, so the undefined call
        // after it lands at character 4 + 2 = not its char count.
        let src = "p(X) :- q('😀', X).\n";
        let diags = lint_source(src, &LintOptions::default());
        let d = diags.iter().find(|d| d.code == "L002").expect("L002");
        let json = render_lsp_diagnostics(std::slice::from_ref(d), src, "file:///demo.pl");
        // `q(...)` starts at byte 8, char 9, UTF-16 unit 8 on line 0.
        assert!(json.contains("\"start\":{\"line\":0,\"character\":8}"), "{json}");
        // Byte offsets survive verbatim under data.
        let span = d.span.unwrap();
        assert!(
            json.contains(&format!("\"data\":{{\"start\":{},\"end\":{}}}", span.start, span.end)),
            "{json}"
        );
    }

    #[test]
    fn notes_become_related_information() {
        let src = "p(X, X).\np(X, Y) :- p(X, Y).\nmain(X) :- p(X, _).\n";
        let diags = lint_source(src, &LintOptions::default());
        let noted = diags.iter().find(|d| !d.notes.is_empty()).expect("a diagnostic with notes");
        let json = render_lsp_diagnostic(noted, src, &LineIndex::new(src), "file:///demo.pl");
        assert!(json.contains("\"relatedInformation\":["), "{json}");
        assert!(json.contains("\"uri\":\"file:///demo.pl\""), "{json}");
        assert!(json.contains(&json_str(&noted.notes[0])), "{json}");
    }

    #[test]
    fn spanless_diagnostics_get_zero_range_and_no_data() {
        let d = Diagnostic::new("L003", Severity::Warning, None, "orphan");
        let json = render_lsp_diagnostic(&d, "", &LineIndex::new(""), "file:///x.pl");
        assert!(
            json.contains(
                "\"range\":{\"start\":{\"line\":0,\"character\":0},\
             \"end\":{\"line\":0,\"character\":0}}"
            ),
            "{json}"
        );
        assert!(!json.contains("\"data\""), "{json}");
    }
}
