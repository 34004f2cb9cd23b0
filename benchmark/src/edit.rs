//! `edit-session`: an in-process LSP session on a generated document,
//! driven by a seeded stream of one-clause edits and unchanged-text
//! no-ops. Each op is timed from sending `didChange` to receiving the
//! matching `publishDiagnostics`.

use crate::gen::{self, Edit, EditKind};
use crate::layers::{self, Accounting, Counters};
use crate::trace::Tracer;
use crate::{calib, end_to_end, stats, timed_setups, Args, OpSample, Outcome};
use argus_core::{analyze_with_caches, AnalysisOptions, SccCache};
use argus_diag::lsp::render_lsp_diagnostics;
use argus_diag::{lint_program_memo, lint_source, LintOptions};
use argus_logic::{Adornment, DepGraph, PredKey};
use argus_lsp::framing::{read_frame, write_frame, FrameLimits};
use argus_lsp::rpc::notification;
use argus_lsp::{run_server, Document, LspOptions};
use argus_serve::jsonval::{self, json_str, Json};
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clause target of the edited document.
pub const CLAUSES: usize = 2_000;

const URI: &str = "file:///bench/session.pl";

/// The generated document and its edit stream.
struct Doc {
    text: String,
    query: (PredKey, Adornment),
    edits: Vec<Edit>,
}

fn make_doc(seed: u64) -> Doc {
    let input = crate::scale::scale_program(seed, CLAUSES);
    let rule_lines = argus_logic::parser::parse_program(&input.src).expect("parses").rules.len();
    let text = format!("{}% argus query: {} {}\n", input.src, input.query, input.adornment);
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let edits = gen::edit_stream(seed, &lines, rule_lines, 20_000);
    Doc { text, query: (input.query, input.adornment), edits }
}

/// The `diagnostics` array of a raw `publishDiagnostics` payload, as the
/// server rendered it.
fn diagnostics_of(payload: &str) -> Option<&str> {
    let at = payload.find("\"diagnostics\":")? + "\"diagnostics\":".len();
    payload.get(at..payload.len().checked_sub(2)?)
}

/// A server on a background thread and a raw-frame client over a
/// loopback socket pair, as `argus_lsp::spawn_in_process` wires them,
/// but keeping the published payloads byte for byte.
struct Session {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    server: Option<JoinHandle<i32>>,
    version: i64,
    limits: FrameLimits,
}

/// What a publish carried.
struct Published {
    payload: String,
    dirty: u64,
    /// When the client had the publish (before reading the stats
    /// notification that follows it).
    at: Instant,
}

impl Session {
    fn open(text: &str) -> Session {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client =
            TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect");
        let (server_stream, _) = listener.accept().expect("accept loopback");
        for s in [&client, &server_stream] {
            s.set_nodelay(true).expect("nodelay");
        }
        client.set_read_timeout(Some(Duration::from_secs(120))).expect("read timeout");
        let server_reader = server_stream.try_clone().expect("clone server stream");
        let options = LspOptions { debounce_ms: 0, ..LspOptions::default() };
        let server = std::thread::spawn(move || run_server(server_reader, server_stream, options));
        let reader = BufReader::new(client.try_clone().expect("clone client stream"));
        let mut s = Session {
            writer: client,
            reader,
            server: Some(server),
            version: 1,
            limits: FrameLimits::default(),
        };
        s.send("{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"initialize\",\"params\":{}}");
        s.recv_until(|v| v.get("id").and_then(Json::as_u64) == Some(1));
        s.send(&notification("initialized", "{}"));
        s.send(&notification(
            "textDocument/didOpen",
            &format!(
                "{{\"textDocument\":{{\"uri\":{},\"languageId\":\"prolog\",\"version\":1,\"text\":{}}}}}",
                json_str(URI),
                json_str(text)
            ),
        ));
        s.wait_publish();
        s
    }

    fn send(&mut self, payload: &str) {
        write_frame(&mut self.writer, payload).expect("write frame");
    }

    /// Read frames until one satisfies `pred`; returns it raw and parsed.
    fn recv_until(&mut self, mut pred: impl FnMut(&Json) -> bool) -> (String, Json) {
        loop {
            let payload = read_frame(&mut self.reader, &self.limits).expect("server frame");
            let v = jsonval::parse(&payload).expect("server sent JSON");
            if pred(&v) {
                return (payload, v);
            }
        }
    }

    /// Wait for the publish of the current version and the stats
    /// notification that follows it.
    fn wait_publish(&mut self) -> Published {
        let version = self.version as u64;
        let is = |v: &Json, method: &str| {
            v.get("method").and_then(Json::as_str) == Some(method)
                && v.get("params").and_then(|p| p.get("version")).and_then(Json::as_u64)
                    == Some(version)
        };
        let (payload, _) = self.recv_until(|v| is(v, "textDocument/publishDiagnostics"));
        let at = Instant::now();
        let (_, stats) = self.recv_until(|v| is(v, "$/argus/stats"));
        let dirty =
            stats.get("params").and_then(|p| p.get("dirty")).and_then(Json::as_u64).unwrap_or(0);
        Published { payload, dirty, at }
    }

    /// Send one edit as a `didChange` and wait for its publish.
    fn change(&mut self, e: &Edit) -> Published {
        self.version += 1;
        let params = format!(
            "{{\"textDocument\":{{\"uri\":{},\"version\":{}}},\"contentChanges\":[{{\"range\":\
             {{\"start\":{{\"line\":{},\"character\":{}}},\"end\":{{\"line\":{},\"character\":{}}}}},\
             \"text\":{}}}]}}",
            json_str(URI),
            self.version,
            e.start.0,
            e.start.1,
            e.end.0,
            e.end.1,
            json_str(&e.text)
        );
        self.send(&notification("textDocument/didChange", &params));
        self.wait_publish()
    }

    /// Orderly `shutdown` → `exit`; returns the server's exit code.
    fn close(mut self) -> i32 {
        self.shutdown()
    }

    fn shutdown(&mut self) -> i32 {
        let Some(server) = self.server.take() else { return 0 };
        let _ = write_frame(
            &mut self.writer,
            "{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"shutdown\",\"params\":null}",
        );
        let _ = write_frame(&mut self.writer, &notification("exit", "null"));
        let _ = self.writer.shutdown(Shutdown::Write);
        server.join().unwrap_or(1)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Apply an edit to the client's mirror of the document.
fn apply(doc: &mut Document, e: &Edit) {
    doc.apply_change(Some((e.start, e.end)), &e.text);
}

/// The reference: a cold, memo-free lint and render of `text`.
fn cold_diagnostics(text: &str, query: &(PredKey, Adornment)) -> String {
    let diags = lint_source(text, &LintOptions { query: Some(query.clone()) });
    render_lsp_diagnostics(&diags, text, URI)
}

/// Pearson correlation of two equally long series.
fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let (mx, my) = (stats::mean(xs).unwrap_or(0.0), stats::mean(ys).unwrap_or(0.0));
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    cov / (vx * vy).sqrt()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let doc = make_doc(args.seed);
    let (setup_s, mut session) = timed_setups(|| Session::open(&doc.text));
    let mut replay = args.trace.then(|| Replay::new(&doc));

    let mut mirror = Document { uri: URI.to_string(), text: doc.text.clone(), version: 1 };
    let mut ops: Vec<OpSample> = Vec::new();
    let mut dirty: Vec<(f64, f64)> = Vec::new();
    let mut last_diags: Option<String> = None;
    let mut last_change: Option<(String, String)> = None;
    let mut last_noop: Option<(String, String)> = None;
    let mut used = 0;
    let mut window_s = 0.0;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let e = &doc.edits[used];
        used += 1;
        // Each op is scaled by a calibration run just before it, while
        // the server is idle.
        let factor = calib::factor();
        let t0 = Instant::now();
        let published = session.change(e);
        let ms = published.at.duration_since(t0).as_secs_f64() * 1e3;
        apply(&mut mirror, e);
        out.attempted += 1;
        ops.push(OpSample { kind: e.kind.name(), ms, factor });
        window_s += t0.elapsed().as_secs_f64() * factor;
        let diags = diagnostics_of(&published.payload).map(str::to_string);
        if let Some(r) = replay.as_mut() {
            r.op(e, ms, diags.as_deref(), &mut out);
        }
        let Some(diags) = diags else {
            out.failed += 1;
            continue;
        };
        if e.kind.changes_text() {
            dirty.push((published.dirty as f64, ms));
            last_change = Some((mirror.text.clone(), diags.clone()));
        } else {
            // An unchanged text must republish the same bytes.
            if last_diags.as_ref().is_some_and(|d| *d != diags) {
                out.failed += 1;
                out.note(format!("no-op {used} republished different diagnostics"));
            }
            last_noop = Some((mirror.text.clone(), diags.clone()));
        }
        last_diags = Some(diags);
    }

    // Close the session on its base text: undo an open edit, then one
    // last no-op, so both the last change and the last no-op publish can
    // be checked against one cold reference.
    let last_edit = doc.edits[..used].iter().rev().find(|e| e.kind != EditKind::Noop);
    if last_edit.is_some_and(|e| e.kind != EditKind::Restore) {
        let undo = doc.edits[used..].iter().find(|e| e.kind == EditKind::Restore).expect("restore");
        let published = session.change(undo);
        apply(&mut mirror, undo);
        if let Some(d) = diagnostics_of(&published.payload) {
            last_change = Some((mirror.text.clone(), d.to_string()));
        }
    }
    let noop = doc.edits.iter().find(|e| e.kind == EditKind::Noop).expect("no-op edit");
    let published = session.change(noop);
    if let Some(d) = diagnostics_of(&published.payload) {
        last_noop = Some((mirror.text.clone(), d.to_string()));
    }
    let reference = cold_diagnostics(&doc.text, &doc.query);
    for (what, last) in [("last change", &last_change), ("last no-op", &last_noop)] {
        out.attempted += 1;
        match last {
            Some((text, diags)) if *text == doc.text && *diags == reference => {}
            _ => {
                out.failed += 1;
                out.note(format!("{what}: published diagnostics differ from a cold lint"));
            }
        }
    }
    let code = session.close();
    if code != 0 {
        out.failed += 1;
        out.note(format!("server exit code {code}"));
    }

    // Which SCC an edit dirties: latency against the dirty cone size.
    let (d, l): (Vec<f64>, Vec<f64>) = dirty.iter().copied().unzip();
    let p90 = stats::percentile(&l, 90.0).unwrap_or(f64::NAN);
    let tail_dirty: Vec<f64> = dirty.iter().filter(|(_, ms)| *ms >= p90).map(|(d, _)| *d).collect();
    out.note(format!(
        "{} text changes: corr(latency, dirty SCC computations) = {:.2}; \
         mean dirty at/above p90 {:.1} vs all {:.1}, max {}",
        dirty.len(),
        correlation(&d, &l),
        stats::mean(&tail_dirty).unwrap_or(f64::NAN),
        stats::mean(&d).unwrap_or(f64::NAN),
        d.iter().copied().fold(0.0, f64::max),
    ));

    match replay {
        Some(r) => r.finish(args, &mut out),
        None => end_to_end(&mut out, &setup_s, &ops, window_s),
    }
    out
}

/// A loopback connection for timing the framing of a publish: a thread
/// writes each payload with `write_frame`, as the server's dispatch loop
/// does, and the replay reads it back with `read_frame`, as the client
/// does.
struct FrameLink {
    payloads: Option<mpsc::Sender<String>>,
    reader: BufReader<TcpStream>,
    writer: Option<JoinHandle<()>>,
}

impl FrameLink {
    fn open() -> FrameLink {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let sender =
            TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect");
        let (receiver, _) = listener.accept().expect("accept loopback");
        for s in [&sender, &receiver] {
            s.set_nodelay(true).expect("nodelay");
        }
        let (tx, rx) = mpsc::channel::<String>();
        let writer = std::thread::spawn(move || {
            let mut out = sender;
            for payload in rx {
                if write_frame(&mut out, &payload).is_err() {
                    return;
                }
            }
        });
        FrameLink { payloads: Some(tx), reader: BufReader::new(receiver), writer: Some(writer) }
    }

    /// Send `payload` across; returns the frame's size in bytes and the
    /// payload as read back.
    fn round_trip(&mut self, payload: String) -> (usize, String) {
        let bytes = format!("Content-Length: {}\r\n\r\n", payload.len()).len() + payload.len();
        self.payloads.as_ref().expect("open link").send(payload).expect("frame writer");
        let back = read_frame(&mut self.reader, &FrameLimits::default()).expect("frame back");
        (bytes, back)
    }
}

impl Drop for FrameLink {
    fn drop(&mut self) {
        self.payloads.take();
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

/// The traced replay of the session's ops, each run right after the
/// untraced op it replays: parse, the logic layers the lint re-runs
/// inside, the lint battery with a memo in the same state as the server's,
/// render, framing over a loopback connection, the client's JSON parse,
/// and one more memoized analysis (every SCC replayed from the memo). What
/// the spans do not cover of the untraced op is the server's dispatch.
/// Every replayed render must equal the diagnostics the server published
/// for the same op.
struct Replay {
    query: (PredKey, Adornment),
    options: LintOptions,
    memo: Arc<SccCache>,
    mirror: Document,
    link: FrameLink,
    t: Tracer,
    c: Counters,
    /// SCC computations the lint considered, and those one memoized
    /// analysis considered, summed over the ops.
    lint_total: u64,
    replay_total: u64,
    dirty: u64,
    untraced_ms: f64,
    ops: usize,
}

impl Replay {
    fn new(doc: &Doc) -> Replay {
        let options = LintOptions { query: Some(doc.query.clone()) };
        let memo = Arc::new(SccCache::unbounded());
        let program = argus_logic::parser::parse_program(&doc.text).expect("parses");
        lint_program_memo(&doc.text, &program, &options, Some(memo.clone()), 0);
        Replay {
            query: doc.query.clone(),
            options,
            memo,
            mirror: Document { uri: URI.to_string(), text: doc.text.clone(), version: 1 },
            link: FrameLink::open(),
            t: Tracer::new(),
            c: Counters::default(),
            lint_total: 0,
            replay_total: 0,
            dirty: 0,
            untraced_ms: 0.0,
            ops: 0,
        }
    }

    /// Replay edit `e`, whose untraced op took `untraced_ms` and published
    /// `published` (`None` when the publish carried no diagnostics).
    fn op(&mut self, e: &Edit, untraced_ms: f64, published: Option<&str>, out: &mut Outcome) {
        let (query, adornment) = self.query.clone();
        apply(&mut self.mirror, e);
        self.mirror.version += 1;
        let (text, version) = (&self.mirror.text, self.mirror.version);
        let t = &mut self.t;
        let root = t.begin_op(self.ops as u64);
        let program =
            t.span("logic.parse", || argus_logic::parser::parse_program(text).expect("parses"));
        let adorned = t.span("logic.adorn", || {
            argus_logic::adorn_program(&program, &query, adornment.clone())
        });
        let graph = t.span("logic.depgraph", || DepGraph::build(&program));
        std::hint::black_box(t.span("logic.hash", || layers::hash_rules(&program)));
        let run = t.span("diag.lint", || {
            lint_program_memo(text, &program, &self.options, Some(self.memo.clone()), 0)
        });
        let rendered =
            t.span("diag.render", || render_lsp_diagnostics(&run.diagnostics, text, URI));
        let link = &mut self.link;
        let framed = t.span("lsp.framing", || {
            let params = format!(
                "{{\"uri\":{},\"version\":{version},\"diagnostics\":{rendered}}}",
                json_str(URI)
            );
            link.round_trip(notification("textDocument/publishDiagnostics", &params))
        });
        let parsed = t.span("lsp.client_parse", || jsonval::parse(&framed.1).expect("valid JSON"));
        let replay = t.span("core.incremental.replay", || {
            analyze_with_caches(
                &program,
                &query,
                adornment.clone(),
                &AnalysisOptions::default(),
                None,
                Some(&self.memo),
            )
        });
        t.exit(root);
        std::hint::black_box((adorned, parsed));

        let c = &mut self.c;
        c.add("logic.depgraph.sccs", graph.scc_count() as f64);
        c.add("diag.lint.diagnostics", run.diagnostics.len() as f64);
        c.add("diag.render.bytes", rendered.len() as f64);
        c.add("lsp.framing.bytes", framed.0 as f64);
        let inc = run.incremental.unwrap_or_default();
        c.add("core.incremental.size_hits", inc.size_hits as f64);
        c.add("core.incremental.size_misses", inc.size_misses as f64);
        c.add("core.incremental.theta_hits", inc.theta_hits as f64);
        c.add("core.incremental.theta_misses", inc.theta_misses as f64);
        self.lint_total += inc.total();
        self.dirty += inc.dirty();
        self.replay_total += replay.incremental.map_or(0, |i| i.total());
        self.untraced_ms += untraced_ms;
        self.ops += 1;
        out.attempted += 1;
        if published != Some(rendered.as_str()) {
            out.failed += 1;
            out.note(format!("replayed op {} rendered different diagnostics", self.ops - 1));
        }
    }

    fn finish(mut self, args: &Args, out: &mut Outcome) {
        let n = self.ops;
        let c = &mut self.c;
        layers::per_op(c, n, &[]);
        // Each memoized analysis considers the same SCC computations, so the
        // lint's total over the replay's total counts the lint's analyses.
        c.add("diag.lint.analyses", self.lint_total as f64 / self.replay_total.max(1) as f64);
        c.add("core.incremental.dirty_ratio", self.dirty as f64 / self.lint_total.max(1) as f64);
        c.add("core.scccache.resident_bytes", self.memo.resident_bytes() as f64);
        out.note(format!(
            "diag.lint.analyses = {:.2} memoized analyses per publish",
            c.get("diag.lint.analyses")
        ));
        layers::report(
            out,
            self.t.spans(),
            n,
            self.untraced_ms / n.max(1) as f64,
            c,
            &Accounting {
                contained: &[
                    "logic.adorn",
                    "logic.depgraph",
                    "logic.hash",
                    "core.incremental.replay",
                ],
                remainder: Some("lsp.dispatch"),
            },
        );
        crate::write_trace(&self.t, args);
    }
}
