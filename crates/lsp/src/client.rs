//! A scripted-session LSP client, mirroring `argus_serve::client`.
//!
//! Drives a server over any `Read`/`Write` pair — an in-process loopback
//! socket ([`crate::spawn_in_process`]), or a spawned `argus lsp` child's
//! stdio. Used by the crate tests, the `lsp` bench suite, and the
//! `lsp_session` CI lane, so the protocol exercised in CI is exactly the
//! protocol production editors speak.
//!
//! Responses are matched to requests by id; server-initiated
//! notifications encountered along the way are buffered and can be
//! awaited with [`LspClient::wait_notification`] (most callers use the
//! [`LspClient::wait_publish`] / [`LspClient::wait_stats`] wrappers).

use crate::framing::{read_frame, write_frame, FrameError, FrameLimits};
use crate::rpc::notification;
use argus_serve::jsonval::{self, json_str, Json};
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// How long [`LspClient`] waits for any single expected message before
/// panicking (scripted sessions are test/bench harnesses — a hang is a
/// bug, and a loud early failure beats a CI timeout).
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// A scripted LSP client.
pub struct LspClient {
    writer: Box<dyn Write + Send>,
    incoming: Receiver<Result<String, FrameError>>,
    next_id: i64,
    /// Buffered server notifications `(method, params)`, oldest first.
    pub notifications: VecDeque<(String, Json)>,
}

impl LspClient {
    /// Wrap a transport. The reader is consumed by a background thread.
    pub fn new(
        reader: impl Read + Send + 'static,
        writer: impl Write + Send + 'static,
    ) -> LspClient {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let limits = FrameLimits::default();
            let mut r = BufReader::new(reader);
            loop {
                let msg = read_frame(&mut r, &limits);
                let stop = msg.is_err();
                if tx.send(msg).is_err() || stop {
                    return;
                }
            }
        });
        LspClient {
            writer: Box::new(writer),
            incoming: rx,
            next_id: 0,
            notifications: VecDeque::new(),
        }
    }

    /// Wrap a spawned server child's piped stdio.
    pub fn over_child(child: &mut std::process::Child) -> LspClient {
        let stdin = child.stdin.take().expect("child stdin piped");
        let stdout = child.stdout.take().expect("child stdout piped");
        LspClient::new(stdout, stdin)
    }

    /// Send a raw frame (for hostile-input tests).
    pub fn send_raw(&mut self, payload: &str) {
        write_frame(&mut self.writer, payload).expect("write frame");
    }

    /// Send raw bytes, bypassing framing entirely (for hostile-input
    /// tests of the framing layer itself).
    pub fn send_bytes(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write bytes");
        self.writer.flush().expect("flush");
    }

    /// Send a notification. `params` is pre-rendered JSON text.
    pub fn notify(&mut self, method: &str, params: &str) {
        self.send_raw(&notification(method, params));
    }

    /// Send a request and wait for its response; notifications that
    /// arrive first are buffered. `Err` carries the responder's
    /// `(code, message)`.
    pub fn request(&mut self, method: &str, params: &str) -> Result<Json, (i64, String)> {
        self.next_id += 1;
        let id = self.next_id;
        self.send_raw(&format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":{},\"params\":{params}}}",
            json_str(method)
        ));
        loop {
            let msg = self.next_message();
            if let Some(m) = msg.get("method").and_then(Json::as_str) {
                let params = msg.get("params").cloned().unwrap_or(Json::Null);
                self.notifications.push_back((m.to_string(), params));
                continue;
            }
            let got = msg.get("id").and_then(Json::as_u64);
            if got != Some(id as u64) {
                // A response to someone else's id would be a server bug —
                // surface it rather than deadlocking.
                panic!("response id {got:?} does not match request id {id}");
            }
            if let Some(err) = msg.get("error") {
                let code = err
                    .get("code")
                    .and_then(|c| match c {
                        Json::Num(n) => Some(*n as i64),
                        _ => None,
                    })
                    .unwrap_or(0);
                let message =
                    err.get("message").and_then(Json::as_str).unwrap_or_default().to_string();
                return Err((code, message));
            }
            return Ok(msg.get("result").cloned().unwrap_or(Json::Null));
        }
    }

    /// The next framed message from the server, parsed. Panics on EOF,
    /// framing errors, or timeout — scripted sessions treat all three as
    /// failures.
    fn next_message(&mut self) -> Json {
        match self.incoming.recv_timeout(RECV_TIMEOUT) {
            Ok(Ok(payload)) => jsonval::parse(&payload).expect("server sent valid JSON"),
            Ok(Err(e)) => panic!("server transport failed: {e}"),
            Err(_) => panic!("timed out waiting for a server message"),
        }
    }

    /// Wait for the next notification matching `pred`, buffering (and
    /// retaining) everything else that arrives first.
    pub fn wait_notification(
        &mut self,
        mut pred: impl FnMut(&str, &Json) -> bool,
    ) -> (String, Json) {
        // Check the buffer first.
        if let Some(i) = self.notifications.iter().position(|(m, p)| pred(m, p)) {
            return self.notifications.remove(i).unwrap();
        }
        let deadline = Instant::now() + RECV_TIMEOUT;
        while Instant::now() < deadline {
            let msg = self.next_message();
            let Some(m) = msg.get("method").and_then(Json::as_str) else {
                panic!("unexpected response while waiting for a notification: {msg:?}");
            };
            let params = msg.get("params").cloned().unwrap_or(Json::Null);
            if pred(m, &params) {
                return (m.to_string(), params);
            }
            self.notifications.push_back((m.to_string(), params));
        }
        panic!("timed out waiting for a notification");
    }

    /// Wait for `textDocument/publishDiagnostics` for `uri` at version ≥
    /// `min_version`; returns the params object.
    pub fn wait_publish(&mut self, uri: &str, min_version: i64) -> Json {
        self.wait_notification(|method, params| {
            method == "textDocument/publishDiagnostics"
                && params.get("uri").and_then(Json::as_str) == Some(uri)
                && params
                    .get("version")
                    .and_then(Json::as_u64)
                    .is_some_and(|v| v as i64 >= min_version)
        })
        .1
    }

    /// Wait for the `$/argus/stats` notification for `uri` at exactly
    /// `version`; returns the params object (memo counters + latency).
    pub fn wait_stats(&mut self, uri: &str, version: i64) -> Json {
        self.wait_notification(|method, params| {
            method == "$/argus/stats"
                && params.get("uri").and_then(Json::as_str) == Some(uri)
                && params.get("version").and_then(Json::as_u64) == Some(version as u64)
        })
        .1
    }

    /// Wait for the next error response (hostile-input replies carry
    /// `id: null`), buffering notifications; returns `(id, code)`.
    pub fn wait_error(&mut self) -> (Json, i64) {
        loop {
            let msg = self.next_message();
            if let Some(m) = msg.get("method").and_then(Json::as_str) {
                let params = msg.get("params").cloned().unwrap_or(Json::Null);
                self.notifications.push_back((m.to_string(), params));
                continue;
            }
            let Some(err) = msg.get("error") else {
                panic!("expected an error response, got {msg:?}");
            };
            let code = match err.get("code") {
                Some(Json::Num(n)) => *n as i64,
                _ => 0,
            };
            return (msg.get("id").cloned().unwrap_or(Json::Null), code);
        }
    }

    // ---- protocol conveniences -------------------------------------

    /// `initialize` (+ `initialized`), returning the server capabilities.
    /// `initialization_options` is pre-rendered JSON.
    pub fn initialize(&mut self, initialization_options: Option<&str>) -> Json {
        let params = match initialization_options {
            Some(opts) => format!("{{\"initializationOptions\":{opts}}}"),
            None => "{}".to_string(),
        };
        let result = self.request("initialize", &params).expect("initialize succeeds");
        self.notify("initialized", "{}");
        result
    }

    /// `textDocument/didOpen`.
    pub fn did_open(&mut self, uri: &str, version: i64, text: &str) {
        self.notify(
            "textDocument/didOpen",
            &format!(
                "{{\"textDocument\":{{\"uri\":{},\"languageId\":\"prolog\",\
                 \"version\":{version},\"text\":{}}}}}",
                json_str(uri),
                json_str(text)
            ),
        );
    }

    /// `textDocument/didChange` with a single ranged (incremental) edit.
    pub fn did_change_range(
        &mut self,
        uri: &str,
        version: i64,
        range: ((usize, usize), (usize, usize)),
        text: &str,
    ) {
        let ((sl, sc), (el, ec)) = range;
        self.notify(
            "textDocument/didChange",
            &format!(
                "{{\"textDocument\":{{\"uri\":{},\"version\":{version}}},\
                 \"contentChanges\":[{{\"range\":{{\
                 \"start\":{{\"line\":{sl},\"character\":{sc}}},\
                 \"end\":{{\"line\":{el},\"character\":{ec}}}}},\"text\":{}}}]}}",
                json_str(uri),
                json_str(text)
            ),
        );
    }

    /// `textDocument/didClose`.
    pub fn did_close(&mut self, uri: &str) {
        self.notify(
            "textDocument/didClose",
            &format!("{{\"textDocument\":{{\"uri\":{}}}}}", json_str(uri)),
        );
    }

    /// `textDocument/hover` at a 0-based UTF-16 position.
    pub fn hover(&mut self, uri: &str, line: usize, character: usize) -> Json {
        self.request(
            "textDocument/hover",
            &format!(
                "{{\"textDocument\":{{\"uri\":{}}},\
                 \"position\":{{\"line\":{line},\"character\":{character}}}}}",
                json_str(uri)
            ),
        )
        .expect("hover succeeds")
    }

    /// Orderly `shutdown` → `exit`.
    pub fn shutdown_exit(&mut self) {
        self.request("shutdown", "null").expect("shutdown succeeds");
        self.notify("exit", "null");
    }
}
