//! Byte pins for the LSP publish renderer. The expected objects below
//! were produced by the earlier renderer, which assembled every field with
//! `format!` and joined them; the single-buffer renderer must reproduce
//! them byte for byte: zero, one and two notes, a spanless diagnostic, a
//! span after multibyte text, a span over two lines, an empty span at the
//! end of the text, and quotes, backslashes and control characters in
//! messages, notes and the URI.

use argus_diag::lsp::{render_lsp_diagnostic, render_lsp_diagnostics};
use argus_diag::{Diagnostic, Severity};
use argus_logic::span::{LineIndex, Span};

const SRC: &str = "% é😀 ∀x\np('é😀', X) :- q(X).\nr(A) :-\n    s(A, \"a\\\"b\").\n";
const URI: &str = "file:///dir/na\"me\\x.pl";

fn span_of(needle: &str, line: usize, col: usize) -> Option<Span> {
    let start = SRC.find(needle).expect("needle in source");
    Some(Span::new(start, start + needle.len(), line, col))
}

fn diagnostics() -> Vec<Diagnostic> {
    vec![
        Diagnostic::new("L002", Severity::Error, span_of("q(X)", 2, 14), "call to undefined q/1"),
        Diagnostic::new(
            "L009",
            Severity::Warning,
            span_of("s(A, \"a\\\"b\")", 4, 5),
            "quote \" backslash \\ tab \t newline \n cr \r nul \u{0} unit \u{1f} del \u{7f} é😀",
        )
        .with_note("one note with \"quotes\" and \\ and \u{1}"),
        Diagnostic::new(
            "L010",
            Severity::Note,
            span_of("r(A) :-\n    s(A", 3, 1),
            "spans two lines",
        )
        .with_note("first note")
        .with_note("second note ∀x 😀\n"),
        Diagnostic::new("L003", Severity::Warning, None, "spanless \"orphan\"")
            .with_note("spanless note"),
        Diagnostic::new("L011", Severity::Note, Some(Span::new(SRC.len(), SRC.len(), 5, 1)), ""),
    ]
}

const L002: &str = r#"{"range":{"start":{"line":1,"character":15},"end":{"line":1,"character":19}},"severity":1,"code":"L002","source":"argus","message":"call to undefined q/1","data":{"start":32,"end":36}}"#;
const L009: &str = concat!(
    r#"{"range":{"start":{"line":3,"character":4},"end":{"line":3,"character":16}},"severity":2,"code":"L009","source":"argus","message":"quote \" backslash \\ tab \t newline \n cr \r nul \u0000 unit \u001f del "#,
    "\u{7f}",
    r#" é😀","relatedInformation":[{"location":{"uri":"file:///dir/na\"me\\x.pl","range":{"start":{"line":3,"character":4},"end":{"line":3,"character":16}}},"message":"one note with \"quotes\" and \\ and \u0001"}],"data":{"start":50,"end":62}}"#,
);
const L010: &str = r#"{"range":{"start":{"line":2,"character":0},"end":{"line":3,"character":7}},"severity":3,"code":"L010","source":"argus","message":"spans two lines","relatedInformation":[{"location":{"uri":"file:///dir/na\"me\\x.pl","range":{"start":{"line":2,"character":0},"end":{"line":3,"character":7}}},"message":"first note"},{"location":{"uri":"file:///dir/na\"me\\x.pl","range":{"start":{"line":2,"character":0},"end":{"line":3,"character":7}}},"message":"second note ∀x 😀\n"}],"data":{"start":38,"end":53}}"#;
const L003: &str = r#"{"range":{"start":{"line":0,"character":0},"end":{"line":0,"character":0}},"severity":2,"code":"L003","source":"argus","message":"spanless \"orphan\"","relatedInformation":[{"location":{"uri":"file:///dir/na\"me\\x.pl","range":{"start":{"line":0,"character":0},"end":{"line":0,"character":0}}},"message":"spanless note"}]}"#;
const L011: &str = r#"{"range":{"start":{"line":4,"character":0},"end":{"line":4,"character":0}},"severity":3,"code":"L011","source":"argus","message":"","data":{"start":64,"end":64}}"#;

#[test]
fn each_diagnostic_renders_its_pinned_bytes() {
    let index = LineIndex::new(SRC);
    let expected = [L002, L009, L010, L003, L011];
    for (d, want) in diagnostics().iter().zip(expected) {
        assert_eq!(render_lsp_diagnostic(d, SRC, &index, URI), want, "{}", d.code);
        let one = render_lsp_diagnostics(std::slice::from_ref(d), SRC, URI);
        assert_eq!(one, format!("[{want}]"), "{}", d.code);
    }
}

#[test]
fn the_publish_array_renders_its_pinned_bytes() {
    assert_eq!(render_lsp_diagnostics(&[], SRC, URI), "[]");
    let all = render_lsp_diagnostics(&diagnostics(), SRC, URI);
    assert_eq!(all, format!("[{L002},{L009},{L010},{L003},{L011}]"));
}
