//! End-to-end tests of the LSP server (`argus lsp`).
//!
//! The load-bearing contract is **byte-equivalence**: for every corpus
//! program, the diagnostics a `textDocument/publishDiagnostics`
//! notification carries must agree — code for code, byte offset for
//! byte offset, message for message — with what `argus lint --json`
//! prints for the same source and query, at `--jobs 0` and `--jobs 8`
//! alike. The editor view and the CLI view are the same analysis; this
//! suite pins that they can never drift apart.

use argus::diag::render::render_json;
use argus::diag::{lint_source, LintOptions};
use argus::lsp::{spawn_in_process, LspClient, LspOptions};
use argus::serve::jsonval::{self, Json};
use std::io::Write;
use std::process::{Child, Command, Stdio};

/// Corpus source plus its query directive, so one LSP session can carry
/// per-document queries without per-document server options.
fn directive_text(source: &str, query: &str, adornment: &str) -> String {
    let mut text = source.trim_end().to_string();
    text.push('\n');
    text.push_str(&format!("% argus query: {query} {adornment}\n"));
    text
}

fn lsp_severity(name: &str) -> u64 {
    match name {
        "error" => 1,
        "warning" => 2,
        "note" => 3,
        other => panic!("unknown severity {other}"),
    }
}

/// Assert one LSP diagnostic object carries exactly the same payload as
/// one `argus lint --json` diagnostic object.
fn assert_equivalent(lsp: &Json, cli: &Json, context: &str) {
    assert_eq!(
        lsp.get("code").and_then(Json::as_str),
        cli.get("code").and_then(Json::as_str),
        "{context}: code"
    );
    assert_eq!(
        lsp.get("message").and_then(Json::as_str),
        cli.get("message").and_then(Json::as_str),
        "{context}: message"
    );
    let severity = cli.get("severity").and_then(Json::as_str).expect("cli severity");
    assert_eq!(
        lsp.get("severity").and_then(Json::as_u64),
        Some(lsp_severity(severity)),
        "{context}: severity"
    );
    // Raw byte offsets ride along under `data` exactly when the CLI
    // diagnostic has a span.
    match cli.get("start").and_then(Json::as_u64) {
        Some(start) => {
            let data = lsp.get("data").expect("spanned diagnostic carries data");
            assert_eq!(data.get("start").and_then(Json::as_u64), Some(start), "{context}: start");
            assert_eq!(
                data.get("end").and_then(Json::as_u64),
                cli.get("end").and_then(Json::as_u64),
                "{context}: end"
            );
        }
        None => assert!(lsp.get("data").is_none(), "{context}: spanless diagnostic has no data"),
    }
    let notes: Vec<&str> = cli
        .get("notes")
        .and_then(Json::as_array)
        .expect("cli notes")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let related: Vec<&str> = lsp
        .get("relatedInformation")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| r.get("message").and_then(Json::as_str))
        .collect();
    assert_eq!(related, notes, "{context}: notes vs relatedInformation");
}

/// Every corpus entry's published diagnostics, rendered back to JSON
/// text, from one LSP session at the given parallelism.
fn corpus_publishes(jobs: usize) -> Vec<(String, Json)> {
    let (mut client, handle) = spawn_in_process(LspOptions { jobs, ..LspOptions::default() });
    client.initialize(None);
    let mut out = Vec::new();
    for entry in argus::corpus::corpus() {
        let uri = format!("file:///corpus/{}.pl", entry.name);
        let text = directive_text(entry.source, entry.query, entry.adornment);
        client.did_open(&uri, 1, &text);
        let publish = client.wait_publish(&uri, 1);
        client.did_close(&uri);
        out.push((entry.name.to_string(), publish));
    }
    client.shutdown_exit();
    assert_eq!(handle.join().unwrap(), 0);
    out
}

#[test]
fn corpus_diagnostics_are_byte_equivalent_to_lint_json() {
    let sequential = corpus_publishes(0);
    for (name, publish) in &sequential {
        let entry = argus::corpus::find(name).unwrap();
        let text = directive_text(entry.source, entry.query, entry.adornment);
        let (pred, adornment) = entry.query_key();
        let expected = lint_source(&text, &LintOptions { query: Some((pred, adornment)) });
        let cli = jsonval::parse(&render_json(&expected, "x.pl")).expect("render_json parses");
        let cli_diags = cli.get("diagnostics").and_then(Json::as_array).unwrap();
        let lsp_diags = publish.get("diagnostics").and_then(Json::as_array).unwrap();
        assert_eq!(lsp_diags.len(), cli_diags.len(), "{name}: diagnostic count");
        for (i, (l, c)) in lsp_diags.iter().zip(cli_diags).enumerate() {
            assert_equivalent(l, c, &format!("{name}[{i}]"));
        }
    }
}

/// One LSP session at `jobs` over every corpus entry and the 2k-clause
/// scale document: each is opened cold, then edited once (its middle
/// clause appended again) so the memo is warm. Yields each publish's
/// diagnostics with the memo counters of its `$/argus/stats` (elapsed
/// time dropped).
fn parallelism_publishes(jobs: usize) -> Vec<(String, Json, Json)> {
    let mut docs: Vec<(String, String)> = argus::corpus::corpus()
        .iter()
        .map(|e| (e.name.to_string(), directive_text(e.source, e.query, e.adornment)))
        .collect();
    let case = argus::fuzz::gen::scale_case(0xA11CE, 2000);
    let (query, adornment) = (case.query.to_string(), case.adornment.to_string());
    let scale = directive_text(&case.program.to_string(), &query, &adornment);
    docs.push(("scale_case_2k".into(), scale));

    let (mut client, handle) = spawn_in_process(LspOptions { jobs, ..LspOptions::default() });
    client.initialize(None);
    let mut out = Vec::new();
    for (name, text) in &docs {
        let uri = format!("file:///parallelism/{name}.pl");
        let program = argus::logic::parser::parse_program(text).expect("parses");
        let rule = program.rules[program.rules.len() / 2].to_string();
        let line = text.lines().count();
        client.did_open(&uri, 1, text);
        for (version, what) in [(1, "cold"), (2, "warm")] {
            if version == 2 {
                client.did_change_range(&uri, 2, ((line, 0), (line, 0)), &format!("{rule}\n"));
            }
            let publish = client.wait_publish(&uri, version);
            let Json::Obj(mut stats) = client.wait_stats(&uri, version) else {
                panic!("{name} {what}: stats is an object");
            };
            stats.remove("elapsed_us");
            let diagnostics = publish.get("diagnostics").expect("publish carries diagnostics");
            out.push((format!("{name} {what}"), diagnostics.clone(), Json::Obj(stats)));
        }
        client.did_close(&uri);
    }
    client.shutdown_exit();
    assert_eq!(handle.join().unwrap(), 0);
    out
}

/// With one worker the lint computes its raw analysis on the calling
/// thread; with more, beside the syntactic passes. The publishes and the
/// memo counters must not tell the two apart.
#[test]
fn corpus_diagnostics_are_deterministic_across_parallelism() {
    let sequential = parallelism_publishes(1);
    for jobs in [0, 2, 8] {
        let parallel = parallelism_publishes(jobs);
        assert_eq!(sequential.len(), parallel.len());
        for ((what, a, stats_a), (what_b, b, stats_b)) in sequential.iter().zip(&parallel) {
            assert_eq!(what, what_b);
            assert_eq!(a, b, "{what}: diagnostics differ between jobs 1 and jobs {jobs}");
            assert_eq!(stats_a, stats_b, "{what}: memo counters differ at jobs {jobs}");
        }
    }
}

#[test]
fn incremental_sync_applies_utf16_edits() {
    let (mut client, handle) = spawn_in_process(LspOptions::default());
    client.initialize(None);
    let uri = "file:///utf16.pl";
    // 'é' is 1 UTF-16 unit, '😀' is 2: the atom ends at unit 8 on line 0.
    client.did_open(uri, 1, "p('é😀', X) :- q(X).\n");
    client.wait_publish(uri, 1);
    // Replace the call `q(X)` (units 15..19) with `p('x', X)` — the edit
    // range counts UTF-16 units, not bytes or chars.
    client.did_change_range(uri, 2, ((0, 15), (0, 19)), "p('x', X)");
    let publish = client.wait_publish(uri, 2);
    let expected = lint_source("p('é😀', X) :- p('x', X).\n", &LintOptions::default());
    let codes: Vec<&str> = publish
        .get("diagnostics")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|d| d.get("code").and_then(Json::as_str))
        .collect();
    let want: Vec<&str> = expected.iter().map(|d| d.code).collect();
    assert_eq!(codes, want, "diagnostics of the edited text");
    client.shutdown_exit();
    assert_eq!(handle.join().unwrap(), 0);
}

#[test]
fn stats_pin_the_dirty_cone_through_the_protocol() {
    let case = argus::fuzz::gen::scale_case(0xA11CE, 300);
    let mut text = case.program.to_string();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&format!("% argus query: {} {}\n", case.query, case.adornment));
    let (mut client, handle) = spawn_in_process(LspOptions::default());
    client.initialize(None);
    let uri = "file:///scale.pl";
    client.did_open(uri, 1, &text);
    client.wait_publish(uri, 1);
    let stats = client.wait_stats(uri, 1);
    let total = stats.get("total").and_then(Json::as_u64).unwrap();
    assert!(total > 0, "cold open records SCC computations");

    // A one-clause edit recomputes only its dirty cone.
    let rule = case.program.rules[case.program.rules.len() / 2].to_string();
    let line = text.lines().count();
    client.did_change_range(uri, 2, ((line, 0), (line, 0)), &format!("{rule}\n"));
    client.wait_publish(uri, 2);
    let stats = client.wait_stats(uri, 2);
    let dirty = stats.get("dirty").and_then(Json::as_u64).unwrap();
    let total = stats.get("total").and_then(Json::as_u64).unwrap();
    assert!(dirty * 10 < total, "dirty cone {dirty}/{total} is not < 10%");

    // A no-op edit recomputes nothing.
    let first = text.chars().next().unwrap().to_string();
    client.did_change_range(uri, 3, ((0, 0), (0, 1)), &first);
    client.wait_publish(uri, 3);
    let stats = client.wait_stats(uri, 3);
    assert_eq!(stats.get("dirty").and_then(Json::as_u64), Some(0), "no-op edit is all hits");
    client.shutdown_exit();
    assert_eq!(handle.join().unwrap(), 0);
}

// ---- the real binary over real pipes --------------------------------

fn spawn_argus_lsp() -> (Child, LspClient) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_argus"))
        .args(["lsp", "--debounce-ms", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn argus lsp");
    let client = LspClient::over_child(&mut child);
    (child, client)
}

#[test]
fn spawned_binary_matches_lint_json_output() {
    let entry = argus::corpus::find("append_bff").unwrap();
    let path =
        std::env::temp_dir().join(format!("argus-lsp-test-{}-append.pl", std::process::id()));
    std::fs::write(&path, entry.source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_argus"))
        .args(["lint", path.to_str().unwrap(), "--query", entry.query, "--mode"])
        .arg(entry.adornment)
        .arg("--json")
        .output()
        .unwrap();
    let cli = jsonval::parse(&String::from_utf8(out.stdout).unwrap()).expect("lint --json parses");
    let cli_diags = cli.get("diagnostics").and_then(Json::as_array).unwrap();

    let (mut child, mut client) = spawn_argus_lsp();
    client.initialize(None);
    let uri = "file:///spawned/append.pl";
    client.did_open(uri, 1, &directive_text(entry.source, entry.query, entry.adornment));
    let publish = client.wait_publish(uri, 1);
    let lsp_diags = publish.get("diagnostics").and_then(Json::as_array).unwrap();
    assert_eq!(lsp_diags.len(), cli_diags.len(), "diagnostic count");
    for (i, (l, c)) in lsp_diags.iter().zip(cli_diags).enumerate() {
        assert_equivalent(l, c, &format!("append_bff[{i}]"));
    }
    client.shutdown_exit();
    drop(client);
    assert!(child.wait().unwrap().success());
    std::fs::remove_file(&path).ok();
}

#[test]
fn spawned_binary_survives_hostile_frames() {
    let (mut child, mut client) = spawn_argus_lsp();
    client.initialize(None);

    // Garbage JSON in a well-formed frame: PARSE_ERROR, still serving.
    client.send_raw("this is not json");
    let (_, code) = client.wait_error();
    assert_eq!(code, -32700);

    // Oversized Content-Length (past the 16 MiB default): the declared
    // bytes are drained and answered with INVALID_REQUEST.
    let declared = 17 * 1024 * 1024usize;
    client.send_bytes(format!("Content-Length: {declared}\r\n\r\n").as_bytes());
    client.send_bytes(&vec![b'x'; declared]);
    let (_, code) = client.wait_error();
    assert_eq!(code, -32600);

    // Unknown request: METHOD_NOT_FOUND.
    let err = client.request("workspace/executeCommand", "{}").unwrap_err();
    assert_eq!(err.0, -32601);

    // The session still works end to end afterwards.
    let uri = "file:///hostile/ok.pl";
    client.did_open(uri, 1, "main :- p(a).\np(a).\n");
    let publish = client.wait_publish(uri, 1);
    assert_eq!(publish.get("diagnostics").and_then(Json::as_array).map(<[Json]>::len), Some(0));
    client.shutdown_exit();
    drop(client);
    assert!(child.wait().unwrap().success());
}

#[test]
fn spawned_binary_exits_1_on_truncated_header() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_argus"))
        .args(["lsp"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn argus lsp");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"Content-Length: 100\r\n").unwrap();
    drop(stdin); // EOF mid-header: unrecoverable desynchronization
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(1));
}
