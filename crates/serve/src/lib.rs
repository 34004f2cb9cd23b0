//! # argus-serve — a zero-dependency analysis server
//!
//! Long-lived HTTP/1.1 service over [`std::net`] exposing the `argus`
//! termination analysis:
//!
//! * `POST /v1/analyze` — program text plus options in, the stable
//!   `argus analyze --json` report out, **byte-identical** to the CLI;
//! * `POST /v1/batch` — many analyze items per request, fanned out
//!   across cores;
//! * `POST /v1/lint` — the `argus lint --json` diagnostics;
//! * `GET /healthz` and `GET /metrics` — liveness and a stable JSON
//!   counter snapshot (request counts, cache hit rates, FM totals,
//!   fixed-bucket latency histograms).
//!
//! Everything is hand-rolled on the standard library: the HTTP reader
//! ([`http`]), the strict JSON request parser ([`jsonval`]), and the
//! metrics registry ([`metrics`]). All three caches are instances of one
//! content-addressed store, [`argus_core::SccCache`]. Exact repeats hit
//! the report cache (or, for `/v1/infer`, the condition cache) and skip
//! analysis entirely, while near-repeats (edited programs sharing SCC
//! structure) reuse per-SCC results through the incremental memo.
//!
//! Hostile inputs are bounded on every axis: head/body caps (413 with
//! the limit echoed), slow-loris read deadlines (408), malformed JSON
//! and UTF-8 (400 with a caret diagnostic rendered by `argus-diag`),
//! depth-limited JSON parsing, a bounded accept queue (inline 503), and
//! a per-request wall-clock deadline threaded into the Fourier–Motzkin
//! engine so a runaway projection aborts mid-elimination (504, never
//! cached).

// The lone `unsafe` in the crate is the libc `signal(2)` registration in
// `server::sig` (zero-dependency SIGTERM handling).
#![warn(missing_docs)]

pub mod http;
pub mod jsonval;
pub mod metrics;
pub mod server;

pub use http::{client, Limits, Request, Response};
pub use metrics::{Metrics, METRICS_SCHEMA};
pub use server::{
    install_signal_handlers, ServeOptions, Server, ServerHandle, ServerState, MAX_BATCH_ITEMS,
};
