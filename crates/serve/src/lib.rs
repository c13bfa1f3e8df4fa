#![warn(missing_docs)]

//! **cc-serve** — the distance-oracle serving layer: the first subsystem on
//! the read path rather than the compute path.
//!
//! The paper motivates APSP in the Congested Clique by its "close connection
//! to network routing" (Section 1); the payoff of an all-pairs *oracle* is
//! at query time — precompute once, then serve point-to-point queries at
//! high throughput. This crate turns a pipeline run into a servable
//! artifact and serves it, in process or over TCP (the `ccbench` package
//! measures how fast):
//!
//! * [`snapshot`] — the versioned binary `*.ccsnap` format (magic, format
//!   version, graph, estimate, metadata, per-section checksums) with
//!   `save`/`load` and typed corrupt-input errors;
//! * [`service`] — [`OracleService`], a registry
//!   of one live snapshot per name answering `Dist`/`Route`/`KNearest`
//!   queries in parallel batches (via `cc_par`), with a hot-row LRU cache
//!   of k-nearest prefixes and per-query latency accounting; a write lands
//!   as a verified `cc_dynamic` delta via
//!   [`OracleService::apply_delta`](service::OracleService::apply_delta)
//!   (an in-place blue/green version bump that re-keys the hot-row cache);
//! * [`loadgen`] — seeded zipf/uniform query streams and their
//!   [`replay`](loadgen::replay), whose stream fingerprint the
//!   `ccapsp bench-serve` subcommand prints;
//! * [`wire`] — the length-prefixed, checksummed binary frame protocol for
//!   network serving (typed [`wire::WireError`] on every corrupt input);
//! * [`server`] — the `ccapsp serve` TCP daemon: per-connection framing
//!   threads feeding a server-side batcher, bounded-queue admission control,
//!   slow-reader disconnects, and blue/green swaps while serving;
//! * [`client`] — the blocking client, the multi-connection networked
//!   replay ([`client::replay_network`], fingerprint-compatible with
//!   [`loadgen::replay`]), and the [`client::chaos`] protocol-abuse suite;
//! * [`telemetry`] — the daemon's live telemetry block (rolling-window
//!   QPS/latency, gauges, flight recorder) and the Prometheus-style text
//!   exposition behind the Metrics-v2 frame and the `GET /metrics` HTTP
//!   responder.
//!
//! The serving invariant mirrors the compute layers' parallelism contract:
//! for a fixed snapshot and [`loadgen::LoadSpec`], query *results* are
//! bit-identical at every thread count, in process or over the wire — only
//! timings move.
//!
//! # Quick start
//!
//! ```
//! use cc_serve::loadgen::{replay, LoadSpec};
//! use cc_serve::service::{OracleService, Query, Response};
//! use cc_serve::snapshot::{Snapshot, SnapshotMeta};
//! use cc_par::ExecPolicy;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let g = cc_graph::generators::gnp_connected(32, 0.15, 1..=20, &mut rng);
//! let exact = cc_graph::apsp::exact_apsp(&g);
//! let meta = SnapshotMeta {
//!     algo: "exact".into(), seed: 7, stretch_bound: 1.0, rounds: 0,
//!     source: "doc".into(),
//! };
//! let (service, id) = OracleService::single(Snapshot::new(g, exact, meta));
//!
//! assert!(matches!(service.answer(id, &Query::Dist(0, 9)), Response::Dist(_)));
//! let spec = LoadSpec { queries: 200, ..Default::default() };
//! let fingerprint = replay(&service, id, &spec, ExecPolicy::Seq);
//! assert_eq!(fingerprint, replay(&service, id, &spec, ExecPolicy::with_threads(4)));
//! ```

pub mod client;
pub mod loadgen;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod telemetry;
pub mod wire;

pub use cc_bench::report;
pub use service::OracleService;
pub use snapshot::{Snapshot, SnapshotError, SnapshotMeta};
