//! Long-lived explorer serving daemon for the Chain-NN design-space
//! engine.
//!
//! `chain-nn dse` rebuilt its memo cache from nothing on every
//! invocation. This crate turns the explorer into a **service**: a
//! daemon holding one shared, persistent
//! [`PointCache`](chain_nn_dse::PointCache) behind a
//! line-delimited JSON protocol over TCP, so concurrent clients (and
//! successive processes) pay for each design point once, ever.
//!
//! * [`protocol`] — typed requests/responses and their wire encoding
//!   (`eval`, `eval_batch`, `sweep`, `tune`, `tune_frontier`,
//!   `frontier`, `stats`, `metrics`, `metrics_history`, `watch`,
//!   `trace_query`, `dump`, `shutdown`), shared by daemon and client so
//!   the two cannot drift. Each record and each message enum is one
//!   table that generates both its encoder and its decoder.
//!   `tune_frontier`, `frontier` with `"stream":true` and `watch` are
//!   **streaming** requests: N result lines, flushed as each is
//!   produced, then one `done` line (`docs/PROTOCOL.md` states the
//!   framing rule).
//! * [`slo`] — latency service-level objectives (`eval:p99_us=500`)
//!   evaluated every sampler tick over the trailing 10 s window, with
//!   per-SLO compliance and error-budget gauges in the registry.
//! * [`server`] — the explorer daemon: its per-request handler on the
//!   shared front end, the worker pool, cache-file replay at startup
//!   and append-flush on completed requests and shutdown (std-only: the
//!   build environment has no async runtime, and a worker pool over
//!   blocking sockets serves this protocol fine). Every request's points
//!   run on the work-assisting engine ([`chain_nn_dse::engine`]):
//!   per-request point lists with atomic claim cursors, adaptive claim
//!   sizes, bounded admission with an explicit `busy` reply as
//!   backpressure, and one admission slot held across an auto-tune's
//!   rounds.
//! * [`cluster`] — the cluster coordinator: the same protocol on the
//!   front, a fleet of shard daemons on the back. Points route by
//!   content hash, sweeps split into hash-partitioned sub-sweeps whose
//!   frontier candidates merge by global grid index, tune rounds
//!   scatter-gather across the shards, and a shard that stays down or
//!   busy yields a `"degraded":true` reply over the survivors
//!   (`docs/PROTOCOL.md` §Cluster coordination).
//! * `front` (crate-private) — the one front end both daemons run on:
//!   the accept loop (connection bound, `TCP_NODELAY`), the session loop
//!   (line cap, pipelined flush coalescing, `shutdown`), the line sink,
//!   and the `tune`, `tune_frontier` and `frontier` replies. The daemon
//!   and the coordinator differ only in the per-request handler.
//! * [`client`] — blocking client used by `chain-nn query` and tests.
//! * [`json`] — the dependency-free codec both sides share: `JsonWriter`
//!   encodes a line into one reused buffer, the [`json::Doc`] token
//!   tape parses a line without building a tree, and the `Wire` trait
//!   gives scalars, lists and optional values both directions.
//!
//! # Example
//!
//! ```
//! use chain_nn_serve::client::Client;
//! use chain_nn_serve::protocol::Response;
//! use chain_nn_serve::server::{Server, ServerConfig};
//! use chain_nn_dse::SweepSpec;
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let daemon = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let spec = SweepSpec {
//!     pes: vec![288, 576],
//!     ..SweepSpec::paper_point()
//! };
//! let Response::Sweep(summary) = client.sweep(spec.clone()).unwrap() else {
//!     panic!("expected a sweep summary")
//! };
//! assert_eq!(summary.points, 2);
//! assert_eq!(summary.cache_misses, 2);
//! // The daemon remembers: the same sweep again is all hits.
//! let Response::Sweep(again) = client.sweep(spec).unwrap() else {
//!     panic!("expected a sweep summary")
//! };
//! assert_eq!(again.cache_misses, 0);
//!
//! client.shutdown().unwrap();
//! daemon.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod cluster;
mod front;
pub mod json;
pub mod protocol;
pub mod server;
pub mod slo;

pub use client::{Client, ClientError};
pub use protocol::{Request, Response};
pub use server::{Server, ServerConfig, ServerReport};
