//! `sor-serve`: the online semi-oblivious routing engine.
//!
//! The paper's model is two-phase: sample a sparse path system from an
//! oblivious routing *once*, then re-optimize sending rates whenever the
//! demand is revealed. Batch experiments pay the sampling phase on every
//! run; a long-running service shouldn't. This crate turns the model into
//! an engine: requests stream in, get batched into epochs, and each epoch
//! is answered by rate re-optimization restricted to a *cached* sparse
//! path system — sampling happens only on cache misses.
//!
//! * [`cache`] — capacity-bounded LRU cache of sampled path
//!   systems, keyed by (graph fingerprint, pair-set fingerprint,
//!   sparsity), with selective failure invalidation.
//! * [`engine`] — the epoch lifecycle: ingest → admit (backpressure) →
//!   solve (cached system, failures degrade + fall back) → publish.
//!   Snapshots publish in one of two formats behind
//!   [`engine::SnapshotFormat`]: explicit per-pair edge lists, or
//!   `sor-compact`'s o(n)-state next-hop tables — the published routes
//!   are bit-identical either way (the codec is verified lossless), and
//!   compact snapshots carry their size accounting.
//! * [`workload`] — deterministic closed-loop arrival processes and
//!   failure schedules for the CLI, benches, and tests.
//! * [`telemetry`] — the live plane: per-epoch window rates, streaming
//!   tail percentiles, the epoch timeline, SLO watchdogs, and the
//!   Prometheus-style scrape endpoint (`sor serve --telemetry-addr`).
//!
//! On top of telemetry sits the flight recorder: an attached
//! `sor_obs::Journal` appends each epoch's causal events (admissions,
//! cache movement, failures, fallbacks, re-opt summaries, top-k edge
//! loads, path churn) — the same batch the telemetry plane and the
//! `serve/*` counters fold — and an armed [`engine::BreachDumpConfig`]
//! snapshots the ring to disk whenever an epoch trips an SLO rule — the
//! artifact `sor forensics` ingests.
//!
//! Everything is bit-deterministic for a fixed seed, with or without a
//! `sor_obs::Recorder`, telemetry, *or* the journal attached — the
//! engine sits under the repo's perf gate.

pub mod cache;
pub mod engine;
pub mod telemetry;
pub mod workload;

pub use cache::{
    graph_fingerprint, pairs_fingerprint, CacheDeltas, CacheKey, CacheStats, PathSystemCache,
};
pub use engine::{
    BreachDumpConfig, ConfigError, Engine, EngineConfig, EpochSnapshot, PublishedRoute, Request,
    SnapshotFormat,
};
pub use telemetry::{EpochWalls, ServeTelemetry};
pub use workload::{
    matching_patterns, run_workload, run_workload_with_observers, run_workload_with_patterns,
    scenario_patterns, ServeObservers, WorkloadConfig, WorkloadReport,
};
