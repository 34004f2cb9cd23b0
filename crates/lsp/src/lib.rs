//! # argus-lsp — a zero-dependency Language Server Protocol server
//!
//! `argus serve` answers IDE-shaped traffic over HTTP; this crate speaks
//! the protocol editors actually use. It is a std-only LSP 3.x server
//! over stdio — JSON-RPC 2.0 with `Content-Length` framing, reusing
//! [`argus_serve::jsonval`] for parsing — that turns every keystroke
//! into live diagnostics:
//!
//! * **Diagnostics** — the full `argus lint` battery (L000–L011) plus
//!   the termination blame of the Sohn & Van Gelder analysis, published
//!   on every (debounced) edit with the same codes, messages, and spans
//!   as `argus lint --json` (converted to UTF-16 ranges by
//!   `argus_diag::lsp`; raw byte offsets ride along under `data`).
//! * **Hover** — the inferred minimal-DNF termination condition of the
//!   predicate under the cursor (`` `append/3` terminates if **arg1
//!   bound or arg3 bound** ``), via the backwards analysis of
//!   `argus_core::backwards`.
//! * **Incrementality** — every re-analysis runs through the per-SCC
//!   memo ([`argus_core::incremental::SccCache`]), so an edit recomputes
//!   only the dirty SCC cone; a `$/argus/stats` notification after each
//!   publish exposes the memo counters, which the `lsp` bench suite and
//!   the `bench_gate` CI floors pin.
//!
//! The transport is abstract (`Read` + `Write`), so the same
//! [`run_server`] loop serves production stdio (`argus lsp`), the
//! in-process loopback pair of [`spawn_in_process`] (tests, benches),
//! and a spawned child's pipes (the `lsp_session` CI lane). The
//! scripted-session client in [`client`] mirrors `argus_serve`'s test
//! client.

#![warn(missing_docs)]

pub mod client;
pub mod docs;
pub mod framing;
pub mod rpc;
pub mod server;

pub use client::LspClient;
pub use docs::{DocStore, Document};
pub use framing::{read_frame, write_frame, FrameError, FrameLimits};
pub use server::{run_server, LspOptions};

use std::net::{Shutdown, TcpListener, TcpStream};

/// The client's write half of the loopback pair. Half-closes the socket
/// on drop so the server sees EOF even while the client's reader thread
/// still holds a duplicated handle to the same stream.
struct WriteHalf(TcpStream);

impl std::io::Write for WriteHalf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl Drop for WriteHalf {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Write);
    }
}

/// Run a server on a background thread over a loopback socket pair and
/// return a connected [`LspClient`] plus the server's join handle (which
/// yields the exit code). Deterministic in-process harness for tests and
/// benches; production uses [`run_server`] over stdio.
pub fn spawn_in_process(options: LspOptions) -> (LspClient, std::thread::JoinHandle<i32>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let client_stream = TcpStream::connect(addr).expect("connect loopback");
    let (server_stream, _) = listener.accept().expect("accept loopback");
    for s in [&client_stream, &server_stream] {
        s.set_nodelay(true).ok();
    }
    let server_reader = server_stream.try_clone().expect("clone server stream");
    let handle = std::thread::spawn(move || run_server(server_reader, server_stream, options));
    let client_reader = client_stream.try_clone().expect("clone client stream");
    (LspClient::new(client_reader, WriteHalf(client_stream)), handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_serve::jsonval::Json;

    fn diag_codes(params: &Json) -> Vec<String> {
        params
            .get("diagnostics")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|d| d.get("code").and_then(Json::as_str).map(str::to_string))
            .collect()
    }

    #[test]
    fn session_lifecycle_publishes_diagnostics() {
        let (mut client, handle) = spawn_in_process(LspOptions::default());
        let caps = client.initialize(None);
        assert_eq!(
            caps.get("capabilities")
                .and_then(|c| c.get("textDocumentSync"))
                .and_then(|s| s.get("change"))
                .and_then(Json::as_u64),
            Some(2),
            "incremental sync is advertised"
        );

        let uri = "file:///demo.pl";
        client.did_open(uri, 1, "main :- q(a).\n");
        let publish = client.wait_publish(uri, 1);
        assert_eq!(diag_codes(&publish), vec!["L002"], "q/1 is undefined");
        let stats = client.wait_stats(uri, 1);
        assert!(stats.get("elapsed_us").and_then(Json::as_u64).is_some());

        // Fix the program with an incremental edit appending a clause.
        client.did_change_range(uri, 2, ((1, 0), (1, 0)), "q(a).\n");
        let publish = client.wait_publish(uri, 2);
        assert!(diag_codes(&publish).is_empty(), "{publish:?}");

        // Closing clears diagnostics.
        client.did_close(uri);
        let (_, cleared) = client.wait_notification(|m, p| {
            m == "textDocument/publishDiagnostics"
                && p.get("uri").and_then(Json::as_str) == Some(uri)
                && p.get("version").is_none()
        });
        assert_eq!(cleared.get("diagnostics"), Some(&Json::Arr(Vec::new())));

        client.shutdown_exit();
        assert_eq!(handle.join().unwrap(), 0, "orderly shutdown exits 0");
    }

    #[test]
    fn moded_lints_follow_the_query_directive() {
        let (mut client, handle) = spawn_in_process(LspOptions::default());
        client.initialize(None);
        let uri = "file:///grow.pl";
        let src = "grow([], _).\ngrow([X|Xs], Ys) :- grow([X, X|Xs], Ys).\n\
                   % argus query: grow/2 bf\n";
        client.did_open(uri, 1, src);
        let publish = client.wait_publish(uri, 1);
        assert!(diag_codes(&publish).contains(&"L009".to_string()), "{publish:?}");
        client.shutdown_exit();
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn initialization_options_set_the_default_query() {
        let (mut client, handle) = spawn_in_process(LspOptions::default());
        client.initialize(Some("{\"query\":\"grow/2\",\"mode\":\"bf\"}"));
        let uri = "file:///grow.pl";
        client.did_open(uri, 1, "grow([], _).\ngrow([X|Xs], Ys) :- grow([X, X|Xs], Ys).\n");
        let publish = client.wait_publish(uri, 1);
        assert!(diag_codes(&publish).contains(&"L009".to_string()), "{publish:?}");
        client.shutdown_exit();
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn hover_reports_the_inferred_condition() {
        let (mut client, handle) = spawn_in_process(LspOptions::default());
        client.initialize(None);
        let uri = "file:///append.pl";
        let src = "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).\n";
        client.did_open(uri, 1, src);
        client.wait_publish(uri, 1);
        // Hover over the recursive call on line 1.
        let hover = client.hover(uri, 1, 31);
        let value = hover
            .get("contents")
            .and_then(|c| c.get("value"))
            .and_then(Json::as_str)
            .expect("markdown contents");
        assert!(value.contains("append/3"), "{value}");
        assert!(value.contains("arg1 bound or arg3 bound"), "{value}");
        // Hovering whitespace yields null.
        let nothing = client.hover(uri, 0, 19);
        assert_eq!(nothing, Json::Null);
        client.shutdown_exit();
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn unknown_requests_error_and_unknown_notifications_are_ignored() {
        let (mut client, handle) = spawn_in_process(LspOptions::default());
        client.initialize(None);
        client.notify("$/setTrace", "{\"value\":\"off\"}"); // ignored
        let err = client.request("workspace/symbol", "{}").unwrap_err();
        assert_eq!(err.0, rpc::METHOD_NOT_FOUND);
        client.shutdown_exit();
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn exit_without_shutdown_is_code_1() {
        let (mut client, handle) = spawn_in_process(LspOptions::default());
        client.initialize(None);
        client.notify("exit", "null");
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn hostile_frames_do_not_kill_the_server() {
        let limits = FrameLimits { max_content_length: 1024, ..FrameLimits::default() };
        let (mut client, handle) = spawn_in_process(LspOptions { limits, ..LspOptions::default() });
        client.initialize(None);

        // Oversized Content-Length: drained + INVALID_REQUEST error.
        let big = "x".repeat(4096);
        client.send_bytes(format!("Content-Length: {}\r\n\r\n{big}", big.len()).as_bytes());
        let (_, err) = client.wait_error();
        assert_eq!(err, rpc::INVALID_REQUEST);

        // Garbage JSON in a well-formed frame: PARSE_ERROR.
        client.send_raw("this is not json");
        let (_, err) = client.wait_error();
        assert_eq!(err, rpc::PARSE_ERROR);

        // JSON that is not a JSON-RPC message: PARSE_ERROR, still alive.
        client.send_raw("[1,2,3]");
        let (_, err) = client.wait_error();
        assert_eq!(err, rpc::PARSE_ERROR);

        // The server survived all of it.
        let uri = "file:///ok.pl";
        client.did_open(uri, 1, "main :- p(a).\np(a).\n");
        let publish = client.wait_publish(uri, 1);
        assert!(diag_codes(&publish).is_empty());
        client.shutdown_exit();
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn truncated_header_ends_the_session_gracefully() {
        let (mut client, handle) = spawn_in_process(LspOptions::default());
        client.initialize(None);
        client.send_bytes(b"Content-Length: 100\r\n"); // header never finishes
        drop(client); // EOF mid-header on the server side
        assert_eq!(handle.join().unwrap(), 1, "desynchronized stream exits 1, no panic");
    }

    #[test]
    fn debounce_coalesces_edit_bursts() {
        let (mut client, handle) =
            spawn_in_process(LspOptions { debounce_ms: 30, ..LspOptions::default() });
        client.initialize(None);
        let uri = "file:///burst.pl";
        client.did_open(uri, 1, "main :- p(a), q(b), r(c).\n");
        // Three rapid edits before any flush can happen.
        client.did_change_range(uri, 2, ((1, 0), (1, 0)), "p(a).\n");
        client.did_change_range(uri, 3, ((2, 0), (2, 0)), "q(b).\n");
        client.did_change_range(uri, 4, ((3, 0), (3, 0)), "r(c).\n");
        // The publish we get is for the final version: the burst
        // coalesced into one analysis (intermediate versions may have
        // been analyzed at most once before the burst was noticed).
        let publish = client.wait_publish(uri, 4);
        assert!(diag_codes(&publish).is_empty(), "{publish:?}");
        client.shutdown_exit();
        assert_eq!(handle.join().unwrap(), 0);
    }
}
