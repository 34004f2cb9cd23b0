//! End-to-end tests of `argus serve` over real sockets.
//!
//! Every test spawns a [`ServerHandle`] on an ephemeral port and talks to
//! it through the zero-dependency HTTP client, so the full stack — accept
//! loop, worker pool, request parser, dispatch, caches, drain — is under
//! test, not just the in-process `ServerState::handle` dispatch layer the
//! unit tests cover.

use argus::prelude::*;
use argus::serve::client::{request_once, HttpClient};
use argus::serve::jsonval::json_str;
use argus::serve::{Limits, ServeOptions, ServerHandle, ServerState};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(options: ServeOptions) -> ServerHandle {
    let options = ServeOptions { addr: "127.0.0.1:0".to_string(), ..options };
    argus::serve::Server::spawn(Arc::new(ServerState::new(options))).expect("bind ephemeral port")
}

fn analyze_body(entry: &argus::corpus::CorpusEntry) -> Vec<u8> {
    format!(
        "{{\"program\":{},\"query\":{},\"adornment\":{}}}",
        json_str(entry.source),
        json_str(entry.query),
        json_str(entry.adornment)
    )
    .into_bytes()
}

fn expected_report(entry: &argus::corpus::CorpusEntry) -> String {
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    let options = AnalysisOptions { parallelism: 1, ..AnalysisOptions::default() };
    format!("{}\n", analyze(&program, &query, adornment, &options).to_json())
}

/// The acceptance bar of the subsystem: for every corpus program, the
/// server's `/v1/analyze` response is byte-identical to `argus analyze
/// --json` — on the cold (computed) request AND on the warm (cached)
/// repeat, with the `x-argus-cache` header naming which path answered.
#[test]
fn corpus_byte_identity_cold_and_warm() {
    let server = spawn(ServeOptions::default());
    let addr = server.addr.to_string();
    let mut client = HttpClient::connect(&addr, TIMEOUT).unwrap();
    for entry in argus::corpus::corpus() {
        let body = analyze_body(&entry);
        let expected = expected_report(&entry);
        let cold = client.request("POST", "/v1/analyze", &body).unwrap();
        assert_eq!(cold.status, 200, "{}: cold status", entry.name);
        assert_eq!(cold.header("x-argus-cache"), Some("miss"), "{}", entry.name);
        assert_eq!(
            String::from_utf8_lossy(&cold.body),
            expected,
            "{}: cold body diverges from the CLI report",
            entry.name
        );
        let warm = client.request("POST", "/v1/analyze", &body).unwrap();
        assert_eq!(warm.status, 200, "{}: warm status", entry.name);
        assert_eq!(warm.header("x-argus-cache"), Some("hit"), "{}", entry.name);
        assert_eq!(warm.body, cold.body, "{}: warm body differs from cold", entry.name);
    }
    server.shutdown().unwrap();
}

/// The golden `analyze` snapshots pin the CLI's JSON bytes; the server
/// must serve exactly those bytes (plus the trailing newline the CLI
/// prints) for the same programs.
#[test]
fn served_reports_match_golden_snapshots() {
    let server = spawn(ServeOptions::default());
    let addr = server.addr.to_string();
    for name in ["append_bff", "perm", "loop_mutual"] {
        let golden = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("tests/golden/analyze/{name}.json")),
        )
        .expect("golden file");
        let entry = argus::corpus::find(name).expect(name);
        let resp =
            request_once(&addr, "POST", "/v1/analyze", &analyze_body(&entry), TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "{name}");
        assert_eq!(String::from_utf8_lossy(&resp.body), format!("{golden}\n"), "{name}");
    }
    server.shutdown().unwrap();
}

/// Oversized bodies are refused before the body is read, and the 413
/// error echoes both the configured limit and the declared length so
/// clients can right-size without consulting server config.
#[test]
fn oversized_body_is_413_with_limit_echoed() {
    let limits = Limits { max_body_bytes: 4096, ..Limits::default() };
    let server = spawn(ServeOptions { limits, ..ServeOptions::default() });
    let addr = server.addr.to_string();
    let big = vec![b'x'; 8192];
    let resp = request_once(&addr, "POST", "/v1/analyze", &big, TIMEOUT).unwrap();
    assert_eq!(resp.status, 413);
    let text = String::from_utf8_lossy(&resp.body).to_string();
    assert!(text.contains("\"limit\":4096"), "{text}");
    assert!(text.contains("\"declared\":8192"), "{text}");
    assert!(text.contains("4096-byte limit"), "{text}");
    server.shutdown().unwrap();
}

/// Malformed JSON gets a 400 whose embedded diagnostic carries a caret
/// marking the offending byte, same renderer as `argus lint`.
#[test]
fn malformed_json_is_400_with_caret_diagnostic() {
    let server = spawn(ServeOptions::default());
    let addr = server.addr.to_string();
    let resp = request_once(&addr, "POST", "/v1/analyze", b"{\"program\": tru", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    let text = String::from_utf8_lossy(&resp.body).to_string();
    assert!(text.contains("S001"), "{text}");
    assert!(text.contains('^'), "missing caret in {text}");
    server.shutdown().unwrap();
}

/// Bodies that are not UTF-8 are rejected with the dedicated S002
/// diagnostic, not a panic or a generic parse error.
#[test]
fn invalid_utf8_body_is_400() {
    let server = spawn(ServeOptions::default());
    let addr = server.addr.to_string();
    let resp =
        request_once(&addr, "POST", "/v1/analyze", &[0xff, 0xfe, b'{', b'}'], TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    let text = String::from_utf8_lossy(&resp.body).to_string();
    assert!(text.contains("S002"), "{text}");
    server.shutdown().unwrap();
}

/// A peer that starts a request and stalls (slow loris) is cut off with
/// a 408 once the read deadline expires, freeing the worker.
#[test]
fn slow_loris_gets_408() {
    let limits = Limits { read_timeout: Duration::from_millis(300), ..Limits::default() };
    let server = spawn(ServeOptions { limits, ..ServeOptions::default() });
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    // A request head that never finishes: no blank line, no body.
    stream.write_all(b"POST /v1/analyze HTTP/1.1\r\nhost: argus\r\n").unwrap();
    stream.flush().unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf).to_string();
    assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
    assert!(text.contains("timed out"), "{text}");
    let snapshot = server.state().metrics_snapshot();
    assert!(snapshot.contains("\"read_timeout\":1"), "{snapshot}");
    server.shutdown().unwrap();
}

/// `/v1/batch` mixes per-item successes and failures in one response
/// without failing the whole request.
#[test]
fn batch_mixes_statuses_over_the_wire() {
    let server = spawn(ServeOptions::default());
    let addr = server.addr.to_string();
    let entry = argus::corpus::find("append_bff").unwrap();
    let ok = String::from_utf8(analyze_body(&entry)).unwrap();
    let body = format!(
        "{{\"items\":[{ok},{{\"program\":\"p(X :- q.\",\"query\":\"p/1\",\"adornment\":\"b\"}}]}}"
    );
    let resp = request_once(&addr, "POST", "/v1/batch", body.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8_lossy(&resp.body).to_string();
    assert!(text.contains("\"status\":200"), "{text}");
    assert!(text.contains("\"status\":400"), "{text}");
    server.shutdown().unwrap();
}

/// `/v1/lint` returns the same JSON `argus lint --format json` prints.
#[test]
fn lint_over_the_wire_matches_cli_renderer() {
    let server = spawn(ServeOptions::default());
    let addr = server.addr.to_string();
    let body = format!("{{\"program\":{}}}", json_str("p(X) :- q(X).\n"));
    let resp = request_once(&addr, "POST", "/v1/lint", body.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8_lossy(&resp.body).to_string();
    assert!(text.contains("\"diagnostics\""), "{text}");
    assert!(text.ends_with('\n'), "lint response must end with a newline");
    server.shutdown().unwrap();
}

/// 64 concurrent keep-alive connections, every response 200 and
/// byte-identical to the locally computed report — the concurrency bar
/// from the acceptance criteria, in-tree so CI enforces it.
#[test]
fn sixty_four_connections_zero_non_2xx() {
    let server = spawn(ServeOptions::default());
    let addr = server.addr.to_string();
    let cases: Vec<(Vec<u8>, String)> = argus::corpus::corpus()
        .into_iter()
        .map(|e| (analyze_body(&e), expected_report(&e)))
        .collect();
    std::thread::scope(|scope| {
        for conn in 0..64 {
            let cases = &cases;
            let addr = addr.as_str();
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
                for i in 0..4 {
                    let (body, expected) = &cases[(conn + i) % cases.len()];
                    let resp = client.request("POST", "/v1/analyze", body).unwrap();
                    assert_eq!(resp.status, 200, "conn {conn} req {i}");
                    assert_eq!(
                        &String::from_utf8_lossy(&resp.body),
                        expected,
                        "conn {conn} req {i}: body diverges"
                    );
                }
            });
        }
    });
    let snapshot = server.state().metrics_snapshot();
    assert!(snapshot.contains("\"status_4xx\":0"), "{snapshot}");
    assert!(snapshot.contains("\"status_5xx\":0"), "{snapshot}");
    server.shutdown().unwrap();
}

/// Drain is graceful: `shutdown()` returns cleanly, and the port stops
/// accepting new connections afterwards.
#[test]
fn graceful_drain_stops_accepting() {
    let server = spawn(ServeOptions::default());
    let addr = server.addr.to_string();
    let resp = request_once(&addr, "GET", "/healthz", b"", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    let sockaddr = server.addr;
    server.shutdown().unwrap();
    // The listener is closed; a fresh connect must fail (give the OS a
    // beat to tear the socket down).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&sockaddr, Duration::from_millis(500)).is_err()
            || request_once(&addr, "GET", "/healthz", b"", Duration::from_millis(500)).is_err(),
        "server still answering after drain"
    );
}

/// `/v1/analyze` accepts an `"engine"` knob: non-theta engines render
/// `argus-engine/v1` bodies byte-identical to the CLI runner, the engine
/// id is part of the cache key (cold miss, warm hit, no collision with
/// the default theta entry), and unknown ids are 400s.
#[test]
fn engine_knob_round_trips_and_caches_per_engine() {
    let server = spawn(ServeOptions::default());
    let addr = server.addr.to_string();
    let entry = argus::corpus::find("sct_lex_reset").unwrap();
    let body = format!(
        "{{\"program\":{},\"query\":{},\"adornment\":{},\"engine\":\"sct\"}}",
        json_str(entry.source),
        json_str(entry.query),
        json_str(entry.adornment)
    );
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    let options = AnalysisOptions { parallelism: 1, ..AnalysisOptions::default() };
    let engines = vec![argus::baselines::engine_by_id("sct").unwrap()];
    let expected = format!(
        "{}\n",
        argus::core::run_portfolio(
            &engines, &program, &query, &adornment, &options, 1, false, None
        )
        .to_json(false)
    );
    let cold = request_once(&addr, "POST", "/v1/analyze", body.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-argus-cache"), Some("miss"));
    assert_eq!(String::from_utf8_lossy(&cold.body), expected);
    let warm = request_once(&addr, "POST", "/v1/analyze", body.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(warm.header("x-argus-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body);
    // The default (theta) request is a distinct cache entry rendering the
    // classic TerminationReport body.
    let theta = request_once(&addr, "POST", "/v1/analyze", &analyze_body(&entry), TIMEOUT).unwrap();
    assert_eq!(theta.status, 200);
    assert_eq!(theta.header("x-argus-cache"), Some("miss"));
    assert_ne!(theta.body, cold.body);
    // Unknown engine ids are request errors, not silent defaults.
    let bad = body.replace("\"sct\"", "\"zzz\"");
    let resp = request_once(&addr, "POST", "/v1/analyze", bad.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("engine"), "{resp:?}");
    server.shutdown().unwrap();
}

/// The fuzz harness's serve oracle runs end-to-end: every generated case
/// round-trips through a live server byte-identically.
#[test]
fn fuzz_serve_oracle_round_trips() {
    let server = spawn(ServeOptions::default());
    let opts = argus::fuzz::FuzzOptions {
        seed: 7,
        cases: 20,
        jobs: 2,
        serve_addr: Some(server.addr.to_string()),
        ..argus::fuzz::FuzzOptions::default()
    };
    let report = argus::fuzz::run(&opts);
    assert!(report.clean(), "serve oracle violations: {}", report.to_json());
    server.shutdown().unwrap();
}
