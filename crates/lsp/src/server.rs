//! The language server: dispatch loop, debounced analysis pipeline,
//! diagnostics publication, and hover.
//!
//! ## Architecture
//!
//! A reader thread turns the transport into a channel of framed
//! payloads; the main loop owns all state (documents, the per-SCC memo,
//! the writer) so no handler ever takes a lock. When documents are dirty
//! the loop waits on the channel with a `--debounce-ms` timeout instead
//! of blocking — a burst of `didChange` notifications (keystroke rate)
//! coalesces into one re-analysis when the burst pauses, and the timeout
//! path is the *only* place analysis runs, so message handling itself
//! stays at parse-and-splice cost.
//!
//! ## Analysis
//!
//! Every re-analysis goes through [`argus_diag::lint_source_memo`] with
//! the server-lifetime [`SccCache`]: the full lint battery (L000–L011)
//! plus the termination blame passes run with per-SCC memoization, so an
//! edit recomputes only the dirty SCC cone. Diagnostics are converted by
//! `argus_diag::lsp` (UTF-16 ranges, notes as `relatedInformation`, raw
//! byte offsets under `data`) and published with the document version;
//! each publish is followed by a `$/argus/stats` notification carrying
//! the memo counters and elapsed time, which the bench suite, CI gate,
//! and tests read.
//!
//! ## Queries
//!
//! The moded lints (L007–L011) need a query predicate + adornment. Two
//! sources, in precedence order: a directive comment anywhere in the
//! document —
//!
//! ```text
//! % argus query: append/3 bbf
//! ```
//!
//! (the last one wins; comments lex away, so the directive never
//! perturbs spans or parse results) — else the session default from
//! `initializationOptions` (`{"query": "append/3", "mode": "bbf"}`) or
//! the CLI's `--query`/`--mode`.

use crate::docs::{DocStore, LspRange};
use crate::framing::{read_frame, write_frame, FrameError, FrameLimits};
use crate::rpc::{
    error_response, notification, parse_message, render_id, response, Incoming, INVALID_PARAMS,
    INVALID_REQUEST, METHOD_NOT_FOUND, PARSE_ERROR,
};
use argus_core::incremental::SccCache;
use argus_core::{infer_conditions_for, AnalysisOptions, BackwardsOptions};
use argus_diag::lsp::render_lsp_diagnostics;
use argus_diag::{lint_source_memo, LintOptions};
use argus_logic::modes::Adornment;
use argus_logic::parse_query_spec;
use argus_logic::parser::parse_program;
use argus_logic::span::{LineIndex, Span};
use argus_logic::{PredKey, Program};
use argus_serve::jsonval::{json_str, Json};
use std::collections::BTreeSet;
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Condition-inference arity cap for hover, matching the L011 lint cap:
/// 2⁴ probes with the raw-first pipeline stays interactive.
const HOVER_MAX_ARITY: usize = 4;

/// Server configuration.
#[derive(Debug, Clone, Default)]
pub struct LspOptions {
    /// Worker threads for analysis, as
    /// [`argus_core::AnalysisOptions::parallelism`]: `0` is auto, which fans
    /// an analysis out over one worker per core only where its estimated
    /// work pays. With a query and any count but `1`, the lint's raw
    /// analysis also runs on a second thread beside the syntactic passes
    /// (under auto, when the machine has two cores).
    pub jobs: usize,
    /// Debounce window for coalescing `didChange` bursts, in
    /// milliseconds. `0` re-analyzes as soon as the message queue drains.
    pub debounce_ms: u64,
    /// Spill directory for the per-SCC memo (shared with
    /// `argus analyze --cache-dir` and the serve layer); `None` keeps the
    /// memo in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Framing limits for hostile-input containment.
    pub limits: FrameLimits,
    /// Session-default query predicate + adornment for the moded lints;
    /// overridable per document by a `% argus query:` directive and per
    /// session by `initializationOptions`.
    pub query: Option<(PredKey, Adornment)>,
}

/// Run the server over the given transport until `exit` (or EOF / a
/// fatal framing error), returning the process exit code: `0` for an
/// orderly `shutdown` → `exit` sequence, `1` otherwise.
pub fn run_server(
    reader: impl Read + Send + 'static,
    writer: impl Write,
    options: LspOptions,
) -> i32 {
    let limits = options.limits.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut r = BufReader::new(reader);
        loop {
            let msg = read_frame(&mut r, &limits);
            let fatal = matches!(&msg, Err(e) if !e.recoverable());
            if tx.send(msg).is_err() || fatal {
                return;
            }
        }
    });

    let memo = Arc::new(match &options.cache_dir {
        Some(dir) => SccCache::with_disk(usize::MAX, dir.clone()),
        None => SccCache::unbounded(),
    });
    let mut server = Server {
        out: writer,
        docs: DocStore::default(),
        dirty: BTreeSet::new(),
        memo,
        default_query: options.query.clone(),
        shutdown_requested: false,
        broken_pipe: false,
        options,
    };

    loop {
        let msg = if server.dirty.is_empty() {
            match rx.recv() {
                Ok(m) => m,
                Err(_) => return server.eof_code(),
            }
        } else {
            match rx.recv_timeout(Duration::from_millis(server.options.debounce_ms)) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    server.flush_dirty();
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    server.flush_dirty();
                    return server.eof_code();
                }
            }
        };
        match msg {
            Ok(payload) => {
                if let Some(code) = server.handle_payload(&payload) {
                    return code;
                }
            }
            Err(FrameError::Eof) => return server.eof_code(),
            Err(e @ FrameError::TooLarge { .. }) => {
                server.send(&error_response("null", INVALID_REQUEST, &e.to_string()));
            }
            Err(e @ FrameError::BadPayload(_)) => {
                server.send(&error_response("null", PARSE_ERROR, &e.to_string()));
            }
            Err(_) => return 1, // desynchronized or dead transport
        }
        if server.broken_pipe {
            return 1;
        }
    }
}

struct Server<W: Write> {
    out: W,
    docs: DocStore,
    dirty: BTreeSet<String>,
    memo: Arc<SccCache>,
    default_query: Option<(PredKey, Adornment)>,
    shutdown_requested: bool,
    broken_pipe: bool,
    options: LspOptions,
}

/// The last `% argus query: name/arity adornment` directive in `src`.
fn directive_query(src: &str) -> Option<(PredKey, Adornment)> {
    let mut found = None;
    for line in src.lines() {
        let Some(rest) = line.trim_start().strip_prefix('%') else { continue };
        let Some(spec) = rest.trim_start().strip_prefix("argus query:") else { continue };
        let mut words = spec.split_whitespace();
        let (Some(pred), Some(adn)) = (words.next(), words.next()) else { continue };
        if words.next().is_some() {
            continue;
        }
        if let Ok(q) = parse_query_spec(pred, adn) {
            found = Some(q);
        }
    }
    found
}

/// Parse an LSP `Position` object into `(line, character)`.
fn parse_position(v: &Json) -> Option<(usize, usize)> {
    Some((
        v.get("line").and_then(Json::as_u64)? as usize,
        v.get("character").and_then(Json::as_u64)? as usize,
    ))
}

/// Parse an LSP `Range` object.
fn parse_range(v: &Json) -> Option<LspRange> {
    Some((parse_position(v.get("start")?)?, parse_position(v.get("end")?)?))
}

/// The predicate whose atom most tightly encloses byte `offset`, with
/// that atom's span. Heads and body literals both count.
fn atom_at(program: &Program, offset: usize) -> Option<(PredKey, Span)> {
    let mut best: Option<(PredKey, Span)> = None;
    let mut consider = |key: PredKey, span: Option<Span>| {
        let Some(span) = span else { return };
        if span.start <= offset
            && offset < span.end
            && best.as_ref().is_none_or(|(_, b)| span.len() < b.len())
        {
            best = Some((key, span));
        }
    };
    for rule in &program.rules {
        consider(rule.head.key(), rule.head.span.get());
        for lit in &rule.body {
            consider(lit.atom.key(), lit.atom.span.get());
        }
    }
    best
}

impl<W: Write> Server<W> {
    fn send(&mut self, payload: &str) {
        if write_frame(&mut self.out, payload).is_err() {
            self.broken_pipe = true;
        }
    }

    fn eof_code(&self) -> i32 {
        if self.shutdown_requested {
            0
        } else {
            1
        }
    }

    /// Handle one parsed frame. `Some(code)` means exit.
    fn handle_payload(&mut self, payload: &str) -> Option<i32> {
        let msg = match parse_message(payload) {
            Ok(m) => m,
            Err(e) => {
                self.send(&error_response("null", PARSE_ERROR, &e));
                return None;
            }
        };
        match (msg.method.as_str(), msg.id.is_some()) {
            ("initialize", true) => self.on_initialize(&msg),
            ("initialized", _) => {}
            ("shutdown", true) => {
                self.shutdown_requested = true;
                let id = render_id(msg.id.as_ref());
                self.send(&response(&id, "null"));
            }
            ("exit", _) => return Some(self.eof_code()),
            ("textDocument/didOpen", _) => self.on_did_open(&msg.params),
            ("textDocument/didChange", _) => self.on_did_change(&msg.params),
            ("textDocument/didClose", _) => self.on_did_close(&msg.params),
            ("textDocument/didSave", _) => self.on_did_save(&msg.params),
            ("textDocument/hover", true) => self.on_hover(&msg),
            (method, true) => {
                let id = render_id(msg.id.as_ref());
                self.send(&error_response(
                    &id,
                    METHOD_NOT_FOUND,
                    &format!("unknown method {method}"),
                ));
            }
            // Unknown notifications ($/cancelRequest, $/setTrace, …) are
            // ignored, per the spec.
            (_, false) => {}
        }
        None
    }

    fn on_initialize(&mut self, msg: &Incoming) {
        let id = render_id(msg.id.as_ref());
        if let Some(init) = msg.params.get("initializationOptions") {
            let query = init.get("query").and_then(Json::as_str);
            let mode = init.get("mode").and_then(Json::as_str);
            match (query, mode) {
                (Some(q), Some(m)) => match parse_query_spec(q, m) {
                    Ok(parsed) => self.default_query = Some(parsed),
                    Err(e) => {
                        self.send(&error_response(&id, INVALID_PARAMS, &e));
                        return;
                    }
                },
                (None, None) => {}
                _ => {
                    self.send(&error_response(
                        &id,
                        INVALID_PARAMS,
                        "initializationOptions wants both `query` and `mode` (or neither)",
                    ));
                    return;
                }
            }
        }
        self.send(&response(
            &id,
            "{\"capabilities\":{\
               \"textDocumentSync\":{\"openClose\":true,\"change\":2,\"save\":true},\
               \"hoverProvider\":true},\
             \"serverInfo\":{\"name\":\"argus-lsp\"}}",
        ));
    }

    fn on_did_open(&mut self, params: &Json) {
        let doc = params.get("textDocument");
        let (Some(uri), Some(text)) = (
            doc.and_then(|d| d.get("uri")).and_then(Json::as_str),
            doc.and_then(|d| d.get("text")).and_then(Json::as_str),
        ) else {
            return;
        };
        let version = doc.and_then(|d| d.get("version")).and_then(Json::as_u64).unwrap_or(0) as i64;
        self.docs.open(uri, version, text.to_string());
        self.dirty.insert(uri.to_string());
    }

    fn on_did_change(&mut self, params: &Json) {
        let doc = params.get("textDocument");
        let Some(uri) = doc.and_then(|d| d.get("uri")).and_then(Json::as_str) else { return };
        let version = doc.and_then(|d| d.get("version")).and_then(Json::as_u64);
        let Some(open) = self.docs.get_mut(uri) else { return };
        let Some(changes) = params.get("contentChanges").and_then(Json::as_array) else {
            return;
        };
        for change in changes {
            let Some(text) = change.get("text").and_then(Json::as_str) else { continue };
            let range = change.get("range").and_then(parse_range);
            open.apply_change(range, text);
        }
        if let Some(v) = version {
            open.version = v as i64;
        }
        self.dirty.insert(uri.to_string());
    }

    fn on_did_close(&mut self, params: &Json) {
        let Some(uri) =
            params.get("textDocument").and_then(|d| d.get("uri")).and_then(Json::as_str)
        else {
            return;
        };
        if self.docs.close(uri).is_some() {
            self.dirty.remove(uri);
            // Clear the client's stale diagnostics for the closed buffer.
            let params = format!("{{\"uri\":{},\"diagnostics\":[]}}", json_str(uri));
            self.send(&notification("textDocument/publishDiagnostics", &params));
        }
    }

    fn on_did_save(&mut self, params: &Json) {
        let Some(uri) =
            params.get("textDocument").and_then(|d| d.get("uri")).and_then(Json::as_str)
        else {
            return;
        };
        if self.docs.get(uri).is_some() {
            self.dirty.insert(uri.to_string());
        }
    }

    fn on_hover(&mut self, msg: &Incoming) {
        let id = render_id(msg.id.as_ref());
        let uri = msg.params.get("textDocument").and_then(|d| d.get("uri")).and_then(Json::as_str);
        let position = msg.params.get("position").and_then(parse_position);
        let (Some(uri), Some((line, character))) = (uri, position) else {
            self.send(&error_response(&id, INVALID_PARAMS, "hover wants textDocument + position"));
            return;
        };
        let Some(doc) = self.docs.get(uri) else {
            self.send(&response(&id, "null"));
            return;
        };
        let text = doc.text.clone();
        let index = LineIndex::new(&text);
        let offset = index.position_to_offset(&text, line, character);
        let Ok(program) = parse_program(&text) else {
            self.send(&response(&id, "null"));
            return;
        };
        let Some((pred, span)) = atom_at(&program, offset) else {
            self.send(&response(&id, "null"));
            return;
        };
        if !program.idb_predicates().contains(&pred) {
            self.send(&response(&id, "null"));
            return;
        }
        let markdown = self.condition_markdown(&program, &pred);
        let ((sl, sc), (el, ec)) =
            (index.utf16_position(&text, span.start), index.utf16_position(&text, span.end));
        let result = format!(
            "{{\"contents\":{{\"kind\":\"markdown\",\"value\":{}}},\
             \"range\":{{\"start\":{{\"line\":{sl},\"character\":{sc}}},\
             \"end\":{{\"line\":{el},\"character\":{ec}}}}}}}",
            json_str(&markdown)
        );
        self.send(&response(&id, &result));
    }

    /// Hover text: the inferred minimal-DNF termination condition of
    /// `pred`, computed through the backwards analysis with the server's
    /// memo threaded into every probe.
    fn condition_markdown(&self, program: &Program, pred: &PredKey) -> String {
        let options = BackwardsOptions {
            max_arity: HOVER_MAX_ARITY,
            analysis: AnalysisOptions {
                parallelism: self.options.jobs,
                ..AnalysisOptions::default()
            },
            scc_memo: Some(self.memo.clone()),
            ..BackwardsOptions::default()
        };
        let targets: BTreeSet<PredKey> = [pred.clone()].into_iter().collect();
        let inferred = infer_conditions_for(program, &targets, &options);
        let Some(cond) = inferred.conditions.iter().find(|c| c.pred == *pred) else {
            return format!("`{pred}` — no termination condition inferred");
        };
        let mut text = if cond.condition.is_true() {
            format!("`{pred}` terminates for every call mode")
        } else if cond.condition.is_false() {
            format!(
                "`{pred}` — termination is unproven for every call mode \
                 (within the argument-size method)"
            )
        } else {
            format!("`{pred}` terminates if **{}**", cond.condition)
        };
        if cond.capped {
            text.push_str(&format!(
                "\n\n*(arity exceeds the inference cap of {HOVER_MAX_ARITY}: only the \
                 all-bound mode was probed, so a weaker condition may exist)*"
            ));
        }
        text
    }

    /// Re-analyze and re-publish every dirty document.
    fn flush_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for uri in dirty {
            self.analyze_and_publish(&uri);
        }
    }

    fn analyze_and_publish(&mut self, uri: &str) {
        let Some(doc) = self.docs.get(uri) else { return };
        let (text, version) = (doc.text.clone(), doc.version);
        let started = Instant::now();
        let query = directive_query(&text).or_else(|| self.default_query.clone());
        let run = lint_source_memo(
            &text,
            &LintOptions { query },
            Some(self.memo.clone()),
            self.options.jobs,
        );
        let diagnostics = render_lsp_diagnostics(&run.diagnostics, &text, uri);
        let elapsed_us = started.elapsed().as_micros();
        let params = format!(
            "{{\"uri\":{},\"version\":{version},\"diagnostics\":{diagnostics}}}",
            json_str(uri)
        );
        self.send(&notification("textDocument/publishDiagnostics", &params));
        let stats = run.incremental.unwrap_or_default();
        let mut stats_params = format!(
            "{{\"uri\":{},\"version\":{version},\"dirty\":{},\"total\":{}",
            json_str(uri),
            stats.dirty(),
            stats.total(),
        );
        for (name, v) in stats.counters() {
            stats_params.push_str(&format!(",\"{name}\":{v}"));
        }
        stats_params.push_str(&format!(",\"elapsed_us\":{elapsed_us}}}"));
        self.send(&notification("$/argus/stats", &stats_params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_queries_parse_and_last_one_wins() {
        let src = "p(a).\n% argus query: p/1 b\nq(b).\n  %  argus query: q/1 f\n";
        let (pred, adn) = directive_query(src).expect("directive");
        assert_eq!(pred.to_string(), "q/1");
        assert_eq!(adn.to_string(), "f");
        assert!(directive_query("p(a). % no directive\n").is_none());
        // Malformed directives are ignored, not errors.
        assert!(directive_query("% argus query: p/one b\n").is_none());
        assert!(directive_query("% argus query: p/1 b extra\n").is_none());
    }

    #[test]
    fn atom_lookup_finds_the_tightest_enclosing_span() {
        let src = "path(X, Z) :- edge(X, Y), path(Y, Z).\n";
        let program = parse_program(src).unwrap();
        let edge_off = src.find("edge").unwrap() + 1;
        let (pred, span) = atom_at(&program, edge_off).expect("atom");
        assert_eq!(pred.to_string(), "edge/2");
        assert_eq!(span.slice(src), Some("edge(X, Y)"));
        let head_off = 2;
        let (pred, _) = atom_at(&program, head_off).expect("atom");
        assert_eq!(pred.to_string(), "path/2");
        assert!(atom_at(&program, src.len() - 1).is_none(), "the final newline is no atom");
    }
}
