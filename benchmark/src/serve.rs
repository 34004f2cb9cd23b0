//! `serve-mix`: a closed loop of keep-alive loopback connections against
//! a spawned `argus serve` sending `/v1/analyze` requests that mix
//! repeats of primed corpus programs with fresh variants.

use crate::gen::{self, ServeOp};
use crate::layers::{self, Accounting, Counters};
use crate::trace::Tracer;
use crate::{calib, end_to_end, ms_since, timed_setups, Args, OpSample, Outcome};
use argus_core::{analyze, analyze_with_caches, AnalysisOptions, SccCache};
use argus_logic::{Adornment, DepGraph, PredKey};
use argus_serve::client::{ClientResponse, HttpClient};
use argus_serve::http::{read_request, write_response};
use argus_serve::jsonval::{self, json_str};
use argus_serve::{Limits, Request, Response, ServeOptions, Server, ServerHandle, ServerState};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections (and threads) of the closed loop.
const CONNECTIONS: usize = 2;

/// Percentage of requests that are fresh variants. No measurement of
/// real request traffic backs this share; it is an assumption, chosen so
/// that both the report-cache read path and the miss path get thousands
/// of samples per run.
const VARIANT_PCT: u64 = 30;

/// Corpus entries whose analysis alone takes a large share of a run;
/// variants never draw them, so one miss cannot dominate the run.
const SLOW_ENTRIES: [&str; 2] = ["mutual_fib_ring", "ackermann"];

const TIMEOUT: Duration = Duration::from_secs(60);

/// The window is measured in slices of this length, with a calibration
/// run between slices while no request is in flight.
const SLICE: Duration = Duration::from_secs(1);

/// One corpus entry with its reference report body.
struct Entry {
    source: &'static str,
    query: &'static str,
    adornment: &'static str,
    /// `argus analyze --json` bytes plus a newline, computed in-process.
    reference: Vec<u8>,
}

impl Entry {
    fn body(&self, variant: Option<u64>) -> String {
        let program = match variant {
            Some(v) => gen::variant_source(self.source, v),
            None => self.source.to_string(),
        };
        format!(
            "{{\"program\":{},\"query\":{},\"adornment\":{}}}",
            json_str(&program),
            json_str(self.query),
            json_str(self.adornment)
        )
    }

    fn key(&self) -> (PredKey, Adornment) {
        let (name, arity) = self.query.rsplit_once('/').expect("name/arity");
        (
            PredKey::new(name, arity.parse().expect("arity")),
            Adornment::parse(self.adornment).expect("adornment"),
        )
    }
}

fn entries() -> Vec<Entry> {
    argus_corpus::corpus()
        .into_iter()
        .map(|e| {
            let program = e.program().expect("corpus parses");
            let (query, adornment) = e.query_key();
            let report = analyze(&program, &query, adornment, &AnalysisOptions::default());
            Entry {
                source: e.source,
                query: e.query,
                adornment: e.adornment,
                reference: format!("{}\n", report.to_json()).into_bytes(),
            }
        })
        .collect()
}

fn op_entry(op: &ServeOp) -> (usize, Option<u64>) {
    match *op {
        ServeOp::Repeat { entry } => (entry, None),
        ServeOp::Variant { entry, variant } => (entry, Some(variant)),
    }
}

fn kind(op: &ServeOp) -> &'static str {
    match op {
        ServeOp::Repeat { .. } => "repeat",
        ServeOp::Variant { .. } => "variant",
    }
}

/// A spawned server whose report cache holds every corpus entry. Dropping
/// it drains the server, so a set-up replaced by the next one stops
/// before the measured window.
struct Primed {
    handle: Option<ServerHandle>,
    addr: String,
    failed: u64,
}

impl Primed {
    fn shutdown(mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown().expect("server drains");
        }
    }
}

impl Drop for Primed {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.shutdown();
        }
    }
}

fn spawn_primed(entries: &[Entry]) -> Primed {
    let state = Arc::new(ServerState::new(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    }));
    let handle = Server::spawn(state).expect("spawn server");
    let addr = handle.addr.to_string();
    let mut client = HttpClient::connect(&addr, TIMEOUT).expect("connect");
    let mut failed = 0;
    for e in entries {
        let resp = client.request("POST", "/v1/analyze", e.body(None).as_bytes()).expect("prime");
        failed += u64::from(resp.status != 200 || resp.body != e.reference);
    }
    Primed { handle: Some(handle), addr, failed }
}

/// Run the request stream from index `first` over `CONNECTIONS`
/// keep-alive connections until `window` has elapsed; returns (op index,
/// latency, correct) per completed request, in op order, and the index of
/// the first op not sent.
fn drive(
    addr: &str,
    entries: &[Entry],
    ops: &[ServeOp],
    first: usize,
    window: Duration,
) -> (Vec<(usize, f64, bool)>, usize) {
    let next = AtomicUsize::new(first);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut client = HttpClient::connect(addr, TIMEOUT).expect("connect");
                let mut mine = Vec::new();
                while start.elapsed() < window {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(op) = ops.get(i) else { break };
                    let (entry, variant) = op_entry(op);
                    let e = &entries[entry];
                    let body = e.body(variant);
                    let t0 = Instant::now();
                    let resp = client.request("POST", "/v1/analyze", body.as_bytes());
                    let ms = ms_since(t0);
                    let ok = resp.is_ok_and(|r| r.status == 200 && r.body == e.reference);
                    mine.push((i, ms, ok));
                }
                done.lock().expect("results lock").extend(mine);
            });
        }
    });
    let mut all = done.into_inner().expect("results lock");
    all.sort_by_key(|r| r.0);
    (all, next.into_inner())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let entries = entries();
    let names: Vec<&str> = argus_corpus::corpus().iter().map(|e| e.name).collect();
    let variant_entries: Vec<usize> =
        (0..entries.len()).filter(|&i| !SLOW_ENTRIES.contains(&names[i])).collect();
    let ops = gen::request_mix(args.seed, entries.len(), &variant_entries, VARIANT_PCT, 1_000_000);

    let (setup_s, primed) = timed_setups(|| spawn_primed(&entries));
    out.attempted += entries.len() as u64;
    out.failed += primed.failed;
    if args.trace {
        traced(args, &primed.addr, &entries, &ops, &mut out);
        primed.shutdown();
        return out;
    }
    // Room for every request of the mix, touched before the window, so the
    // run's peak RSS does not grow with the number of requests it completes.
    let mut samples = vec![OpSample { kind: "", ms: 0.0, factor: 0.0 }; ops.len()];
    samples.clear();
    let mut window_s = 0.0;
    let mut next = 0;
    let start = Instant::now();
    while let Some(left) = args.seconds.checked_sub(start.elapsed()).filter(|d| !d.is_zero()) {
        let factor = calib::factor();
        let t0 = Instant::now();
        let (results, after) = drive(&primed.addr, &entries, &ops, next, SLICE.min(left));
        window_s += t0.elapsed().as_secs_f64() * factor;
        next = after;
        for (i, ms, ok) in results {
            out.attempted += 1;
            out.failed += u64::from(!ok);
            samples.push(OpSample { kind: kind(&ops[i]), ms, factor });
        }
    }
    primed.shutdown();

    out.note(format!(
        "{} requests over {CONNECTIONS} connections, {} variants",
        samples.len(),
        samples.iter().filter(|s| s.kind == "variant").count()
    ));
    end_to_end(&mut out, &setup_s, &samples, window_s);
    out
}

/// The HTTP layer alone: a loopback connection whose far end reads each
/// request with the server's `read_request` and answers it with
/// `write_response`, sending the response the replay computed in process.
struct HttpPeer {
    client: Option<HttpClient>,
    responses: Option<mpsc::Sender<Response>>,
    thread: Option<JoinHandle<()>>,
}

impl HttpPeer {
    fn spawn() -> HttpPeer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let (tx, rx) = mpsc::channel::<Response>();
        let thread = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else { return };
            // As the server's workers set it: the poll quantum.
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
            let limits = Limits { read_timeout: TIMEOUT, ..Limits::default() };
            while read_request(&mut stream, &limits).is_ok() {
                let Ok(resp) = rx.recv() else { return };
                if write_response(&mut stream, &resp).is_err() {
                    return;
                }
            }
        });
        let client = HttpClient::connect(&addr, TIMEOUT).expect("connect to peer");
        HttpPeer { client: Some(client), responses: Some(tx), thread: Some(thread) }
    }

    /// Send `body` as an `/v1/analyze` request and receive `resp` back.
    fn round_trip(&mut self, body: &str, resp: Response) -> Option<ClientResponse> {
        self.responses.as_ref()?.send(resp).ok()?;
        self.client.as_mut()?.request("POST", "/v1/analyze", body.as_bytes()).ok()
    }
}

impl Drop for HttpPeer {
    fn drop(&mut self) {
        // Closing the connection ends the peer's read loop.
        self.client.take();
        self.responses.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The traced run: one connection sends the request stream in order to
/// the spawned server, and after each request the benchmark replays it
/// against an in-process state primed the same way. The replay times the
/// handler and the HTTP layer (a loopback round trip through `HttpPeer`),
/// which together are what the untraced request runs; it also re-measures
/// the request JSON decode and the logic layers (both inside the handler),
/// and for variants one memoized analysis for the memo counters.
fn traced(args: &Args, addr: &str, entries: &[Entry], ops: &[ServeOp], out: &mut Outcome) {
    let state = ServerState::new(ServeOptions::default());
    let memo = SccCache::unbounded();
    let request = |body: String| Request {
        method: "POST".to_string(),
        path: "/v1/analyze".to_string(),
        headers: Vec::new(),
        body: body.into_bytes(),
        keep_alive: true,
    };
    for e in entries {
        let resp = state.handle(&request(e.body(None)));
        out.attempted += 1;
        out.failed += u64::from(resp.status != 200 || resp.body != e.reference);
        let (q, a) = e.key();
        let program = argus_logic::parser::parse_program(e.source).expect("corpus parses");
        analyze_with_caches(&program, &q, a, &AnalysisOptions::default(), None, Some(&memo));
    }
    let (report_hits, report_misses) = (state.reports().hits(), state.reports().misses());
    let (scc_hits, scc_misses) = (state.scc_cache().hits(), state.scc_cache().misses());

    let mut client = HttpClient::connect(addr, TIMEOUT).expect("connect");
    let mut peer = HttpPeer::spawn();
    let mut t = Tracer::new();
    let mut c = Counters::default();
    let (mut dirty, mut total) = (0u64, 0u64);
    let mut untraced_ms = 0.0;
    let mut replayed = 0;
    let start = Instant::now();
    for (k, op) in ops.iter().enumerate() {
        if replayed > 0 && start.elapsed() >= args.seconds {
            break;
        }
        let (entry, variant) = op_entry(op);
        let e = &entries[entry];
        let (query, adornment) = e.key();
        let body = e.body(variant);

        let t0 = Instant::now();
        let live = client.request("POST", "/v1/analyze", body.as_bytes());
        untraced_ms += ms_since(t0);
        out.attempted += 1;
        out.failed += u64::from(!live.is_ok_and(|r| r.status == 200 && r.body == e.reference));

        let req = request(body.clone());
        let root = t.begin_op(k as u64);
        let json = t.span("serve.jsonval", || jsonval::parse(&body).expect("valid JSON"));
        let src = match variant {
            Some(v) => gen::variant_source(e.source, v),
            None => e.source.to_string(),
        };
        let program =
            t.span("logic.parse", || argus_logic::parser::parse_program(&src).expect("parses"));
        let adorned = t.span("logic.adorn", || {
            argus_logic::adorn_program(&program, &query, adornment.clone())
        });
        let graph = t.span("logic.depgraph", || DepGraph::build(&program));
        std::hint::black_box(t.span("logic.hash", || layers::hash_rules(&program)));
        let resp = t.span("serve.handle", || state.handle(&req));
        let handled = resp.status == 200 && resp.body == e.reference;
        let received = t.span("serve.http", || peer.round_trip(&body, resp));
        if variant.is_some() {
            let report = t.span("core.incremental.replay", || {
                analyze_with_caches(
                    &program,
                    &query,
                    adornment.clone(),
                    &AnalysisOptions::default(),
                    None,
                    Some(&memo),
                )
            });
            let inc = report.incremental.unwrap_or_default();
            c.add("core.incremental.size_hits", inc.size_hits as f64);
            c.add("core.incremental.size_misses", inc.size_misses as f64);
            c.add("core.incremental.theta_hits", inc.theta_hits as f64);
            c.add("core.incremental.theta_misses", inc.theta_misses as f64);
            dirty += inc.dirty();
            total += inc.total();
        }
        t.exit(root);
        std::hint::black_box((json, adorned));
        c.add("logic.depgraph.sccs", graph.scc_count() as f64);
        out.attempted += 1;
        let ok = handled && received.is_some_and(|r| r.status == 200 && r.body == e.reference);
        out.failed += u64::from(!ok);
        replayed += 1;
    }
    drop(peer);
    drop(client);
    layers::per_op(&mut c, replayed, &[]);
    let ratio = |hits: u64, misses: u64| {
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        }
    };
    c.add(
        "serve.reportcache.hit_ratio",
        ratio(state.reports().hits() - report_hits, state.reports().misses() - report_misses),
    );
    c.add(
        "serve.scccache.hit_ratio",
        ratio(state.scc_cache().hits() - scc_hits, state.scc_cache().misses() - scc_misses),
    );
    c.add("core.incremental.dirty_ratio", dirty as f64 / total.max(1) as f64);
    c.add("core.scccache.resident_bytes", state.scc_cache().resident_bytes() as f64);
    layers::report(
        out,
        t.spans(),
        replayed,
        untraced_ms / replayed as f64,
        &c,
        &Accounting {
            contained: &[
                "serve.jsonval",
                "logic.parse",
                "logic.adorn",
                "logic.depgraph",
                "logic.hash",
                "core.incremental.replay",
            ],
            remainder: None,
        },
    );
    crate::write_trace(&t, args);
}
