//! # sor-obs
//!
//! The workspace's observability layer: structured spans, metrics, and
//! leveled logging for the routing pipeline. The paper's claims are
//! quantitative (congestion competitiveness vs. sparsity `s`, completion
//! time vs. `C + D`), so every performance PR needs to see *where* the
//! iterations and the wall time go — this crate is that instrument.
//!
//! Three facilities:
//!
//! * **Spans** ([`span`]) — RAII scoped timers that nest into a phase
//!   tree (`sor/run` → `hierarchy/build` → `frt/tree`, …) with call
//!   counts and wall time, rendered as a flamegraph-style text report
//!   ([`Recorder::phase_report`]).
//! * **Counters and histograms** ([`count`], [`observe`], and the
//!   [`counter_add!`] / [`observe_into!`] macros).
//! * **Leveled logging** ([`error!`], [`warn!`], [`info!`], [`debug!`])
//!   routed through one process-wide sink, so `--quiet` can actually
//!   silence the whole pipeline and tests can capture diagnostics.
//!
//! # Run-scoped recording
//!
//! Spans, counters and histograms land in a [`Recorder`] that the run
//! owns — the `sor` CLI, a perf suite run, a test — and installs as its
//! thread's current recorder for a scope ([`Recorder::install`]). With
//! no recorder installed every recording call is a no-op after one
//! thread-local check. There is no process-global metric state, so
//! concurrent runs (parallel tests, two engines on two threads) never
//! bleed into each other. Metrics never feed back into any algorithm, so
//! seeded pipeline output is bit-identical with or without a recorder
//! (the workspace's determinism tests assert exactly that).
//!
//! # Snapshot / export
//!
//! [`Recorder::snapshot`] collects every counter, histogram, and span
//! into a deterministic, name-sorted [`Snapshot`]; `Snapshot::to_json`
//! hand-rolls the machine-readable export (no serde in the tree — same
//! discipline as `sor-check`'s SARIF writer). The `sor` CLI exposes it
//! as `--metrics-out FILE` / `--trace`, and `sor-bench` writes
//! `BENCH_<experiment>.json` next to its result tables.
//!
//! # Live telemetry (v2)
//!
//! On top of the recorder sits a live plane for long-running
//! serving: [`window`] (sliding-window rates over deterministic ticks
//! plus log-bucketed streaming percentiles), [`timeline`] (a bounded
//! ring of per-epoch records folded from the epoch's events), [`slo`]
//! (declarative threshold watchdogs), and [`expose`] (Prometheus-style
//! text exposition over a plain TCP scrape thread). All of it is
//! read-only over recorded data — live telemetry can never perturb the
//! bit-determinism contract.
//!
//! # Flight recorder & forensics (v3)
//!
//! [`journal`] is a bounded ring of structured *causal* events
//! (admissions, cache movements, failures, fallbacks, re-opt summaries,
//! top-k edge loads, path churn) with a versioned `sor-journal/1` dump
//! format; [`forensics`] ingests a dump and attributes epoch-over-epoch
//! congestion/wall deltas to causes (failure vs. eviction vs. cold
//! sampling vs. demand churn). The serving layer snapshots the ring on
//! SLO breaches; `sor forensics` analyzes the artifact offline.

pub mod expose;
pub mod forensics;
pub mod journal;
mod json;
mod logging;
mod recorder;
pub mod slo;
pub mod snapshot;
mod span;
pub mod timeline;
pub mod window;

pub use expose::{prom_name, render_prometheus, PromGauges, TelemetryHandler, TelemetryServer};
pub use forensics::{
    analyze, fold_epochs, Cause, CauseAttribution, EdgeShift, EpochStats, EpochTransition,
    ForensicsReport, CAUSES,
};
pub use journal::{
    parse_journal, EdgeLoad, Journal, JournalDump, JournalEvent, DEFAULT_JOURNAL_CAPACITY,
};
pub use json::{parse_json, JsonError, JsonValue};
pub use logging::{
    log, log_enabled, log_level, set_log_level, set_sink, take_captured, Level, Sink,
};
pub use recorder::{
    count, count_usize, enabled, observe, BucketCount, CounterSnapshot, HistogramSnapshot,
    Recorder, RecorderScope, POW2_BUCKETS, RATIO_BUCKETS,
};
pub use slo::{HealthSummary, SloBreach, SloConfig, SloInputs, SloWatchdog, SLO_RULES};
pub use span::{render_phase_tree, span, Span, SpanSnapshot};
pub use timeline::{EpochRecord, EpochTimeline};
pub use window::{LogHistogram, WindowRegistry, WindowSnapshot};

/// A full, deterministic (name-sorted) dump of a recorder's metrics and
/// span tree. See [`Recorder::snapshot`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All registered counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All registered histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// The span phase tree, sorted by path.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// Number of distinct named metrics (counters + histograms).
    pub fn num_metrics(&self) -> usize {
        self.counters.len() + self.histograms.len()
    }

    /// Serialize to the machine-readable JSON export, optionally with
    /// extra top-level string fields (`meta`), e.g. the experiment id.
    pub fn to_json_with_meta(&self, meta: &[(&str, &str)]) -> String {
        json::snapshot_to_json(self, meta)
    }

    /// Serialize to the machine-readable JSON export.
    pub fn to_json(&self) -> String {
        self.to_json_with_meta(&[])
    }
}

/// Add to a named counter on the current recorder (default increment
/// 1; no-op without one). The name must be a `&'static str`.
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {
        $crate::count($name, $n)
    };
    ($name:expr) => {
        $crate::counter_add!($name, 1)
    };
}

/// Record a value into a named fixed-bucket histogram on the current
/// recorder (no-op without one). `$bounds` are the inclusive bucket
/// upper edges used at first registration.
#[macro_export]
macro_rules! observe_into {
    ($name:expr, $bounds:expr, $value:expr) => {
        $crate::observe($name, $bounds, $value)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_are_noops_without_a_recorder() {
        let rec = Recorder::new();
        counter_add!("lib/test/detached_counter");
        observe_into!("lib/test/detached_histo", &[1.0, 2.0], 1.5);
        let snap = rec.snapshot();
        assert_eq!(snap.num_metrics(), 0);
    }

    #[test]
    fn macros_record_into_the_installed_recorder() {
        let rec = Recorder::new();
        {
            let _scope = rec.install();
            assert!(enabled());
            counter_add!("lib/test/macro_counter", 3);
            counter_add!("lib/test/macro_counter");
            observe_into!("lib/test/macro_histo", &[1.0, 2.0], 1.5);
        }
        assert!(!enabled());
        let snap = rec.snapshot();
        assert_eq!(snap.counters[0].name, "lib/test/macro_counter");
        assert_eq!(snap.counters[0].value, 4);
        assert_eq!(snap.histograms[0].count, 1);
    }
}
