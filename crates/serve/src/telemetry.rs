//! The engine's live telemetry plane: windows, percentiles, timeline,
//! SLO watchdog, and the scrape endpoint — wired together.
//!
//! One [`ServeTelemetry`] instance is shared (`Arc`) between the engine
//! (which hands [`ServeTelemetry::record_epoch`] each epoch's record,
//! folded from the epoch's event batch)
//! and the scrape thread (which renders `/metrics`, `/timeline`,
//! `/health` on demand). Recording is cheap — a few log-histogram
//! observations, one window tick over the bound
//! recorder, one ring push, one watchdog pass — and strictly read-only
//! over the epoch's outputs: attaching telemetry cannot change a
//! published route or rate (`serve_determinism.rs` asserts bit-equality
//! either way).
//!
//! The *window tick is the epoch counter*, not wall time: windows are
//! "per epoch" rates, so seeded runs produce identical window contents
//! (walls are the one exception and never feed anything deterministic).

use sor_obs::{
    EpochRecord, EpochTimeline, LogHistogram, PromGauges, Recorder, SloBreach, SloConfig,
    SloInputs, SloWatchdog, Snapshot, TelemetryHandler, TelemetryServer, WindowRegistry,
};
use std::net::ToSocketAddrs;
use std::sync::Arc;

/// Stage wall clocks the engine hands to [`ServeTelemetry::record_epoch`]
/// (nanoseconds; zero when a stage did not run). The epoch's own wall
/// travels in its `EpochEnd` event.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochWalls {
    /// The rate re-optimization (MWU / integral solve).
    pub reopt_ns: u64,
    /// The path-system cache lookup (including a miss's sampling).
    pub cache_lookup_ns: u64,
}

/// How many recent epochs the windowed cache hit rate averages over.
const HIT_RATE_WINDOW: usize = 10;

/// The live telemetry plane (see module docs). Construct with an
/// [`SloConfig`], share via `Arc`, attach to an engine with
/// [`crate::Engine::attach_telemetry`].
pub struct ServeTelemetry {
    /// The recorder whose metrics the windows tick over and `/metrics`
    /// exposes: the one current on the constructing thread, if any.
    recorder: Option<Recorder>,
    windows: WindowRegistry,
    timeline: EpochTimeline,
    watchdog: SloWatchdog,
    epoch_wall: LogHistogram,
    reopt_wall: LogHistogram,
    cache_lookup: LogHistogram,
    queue_wait: LogHistogram,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        Self::new(SloConfig::disabled())
    }
}

impl ServeTelemetry {
    /// Telemetry plane with the given SLO thresholds (use
    /// [`SloConfig::disabled`] for pure observation), bound to the
    /// calling thread's current [`Recorder`]. Without one, windows tick
    /// over no metrics and `/metrics` carries only the plane's gauges.
    pub fn new(slo: SloConfig) -> Self {
        ServeTelemetry {
            recorder: Recorder::current(),
            windows: WindowRegistry::new(),
            timeline: EpochTimeline::new(),
            watchdog: SloWatchdog::new(slo),
            epoch_wall: LogHistogram::new(),
            reopt_wall: LogHistogram::new(),
            cache_lookup: LogHistogram::new(),
            queue_wait: LogHistogram::new(),
        }
    }

    /// Record one queued request's wait (engine ingest → admission).
    pub fn observe_queue_wait_ns(&self, ns: u64) {
        #[allow(clippy::cast_precision_loss)]
        self.queue_wait.observe(ns as f64);
    }

    /// The bound recorder's counters and histograms (empty without one).
    fn recorded(&self) -> Snapshot {
        self.recorder
            .as_ref()
            .map_or_else(Snapshot::default, Recorder::metrics_snapshot)
    }

    /// Ingest one published epoch's record (see
    /// [`EpochRecord::from_stats`]): observe walls, tick the window
    /// registry (the deterministic per-epoch tick), evaluate the SLO
    /// watchdog, and append the record. Returns the epoch's SLO breaches
    /// so the caller can react (e.g. dump the flight recorder).
    pub fn record_epoch(&self, mut rec: EpochRecord, walls: EpochWalls) -> Vec<SloBreach> {
        #[allow(clippy::cast_precision_loss)]
        {
            self.epoch_wall.observe(rec.epoch_wall_ns as f64);
            if walls.reopt_ns > 0 {
                self.reopt_wall.observe(walls.reopt_ns as f64);
            }
            if walls.cache_lookup_ns > 0 {
                self.cache_lookup.observe(walls.cache_lookup_ns as f64);
            }
        }
        self.windows.tick(&self.recorded());
        let inputs = SloInputs {
            p99_epoch_wall_ms: self.epoch_wall.quantile(0.99).map(|ns| ns / 1e6),
            cache_hit_rate: self.windowed_hit_rate(&rec),
        };
        let breaches = self.watchdog.evaluate(&rec, inputs);
        rec.slo_breaches = breaches.iter().map(|b| b.rule.to_string()).collect();
        self.timeline.push(rec);
        breaches
    }

    /// Cache hit rate over the current epoch plus the last
    /// `HIT_RATE_WINDOW - 1` timeline records; `None` until any lookup
    /// happened (empty epochs perform none).
    fn windowed_hit_rate(&self, current: &EpochRecord) -> Option<f64> {
        let records = self.timeline.records();
        let tail = records.len().saturating_sub(HIT_RATE_WINDOW - 1);
        let (mut hits, mut lookups) = (current.cache_hits, current.cache_hits);
        lookups += current.cache_misses;
        for r in records.iter().skip(tail) {
            hits += r.cache_hits;
            lookups += r.cache_hits + r.cache_misses;
        }
        if lookups == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(hits as f64 / lookups as f64)
    }

    /// The epoch timeline (records, JSON, dashboard).
    pub fn timeline(&self) -> &EpochTimeline {
        &self.timeline
    }

    /// The SLO watchdog (config, health summary).
    pub fn watchdog(&self) -> &SloWatchdog {
        &self.watchdog
    }

    /// The sliding-window registry (per-epoch rates).
    pub fn windows(&self) -> &WindowRegistry {
        &self.windows
    }

    /// Render the Prometheus text exposition: the bound recorder's
    /// metrics plus gauges for window rates, streaming tail percentiles, and the
    /// SLO health counters.
    pub fn render_prometheus(&self) -> String {
        let mut gauges = PromGauges::new();
        for w in self.windows.snapshot() {
            gauges.push(&format!("{}_rate", w.name), "window=\"1\"", w.rate1);
            gauges.push(&format!("{}_rate", w.name), "window=\"10\"", w.rate10);
            gauges.push(&format!("{}_rate", w.name), "window=\"60\"", w.rate60);
            gauges.push(&format!("{}_rate", w.name), "window=\"ewma\"", w.ewma);
        }
        for (hist, base) in [
            (&self.epoch_wall, "serve/epoch_wall_ns"),
            (&self.reopt_wall, "serve/reopt_wall_ns"),
            (&self.cache_lookup, "serve/cache_lookup_ns"),
            (&self.queue_wait, "serve/queue_wait_ns"),
        ] {
            if let Some((p50, p90, p99, p999)) = hist.tail_summary() {
                for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99), ("0.999", p999)] {
                    gauges.push(base, &format!("quantile=\"{q}\""), v);
                }
            }
        }
        let health = self.watchdog.summary();
        #[allow(clippy::cast_precision_loss)]
        {
            gauges.push("slo/epochs_evaluated", "", health.epochs_evaluated as f64);
            gauges.push("slo/breaches_total", "", health.total_breaches as f64);
            for (rule, count) in sor_obs::SLO_RULES.iter().zip(health.breaches_by_rule) {
                gauges.push("slo/breaches", &format!("rule=\"{rule}\""), count as f64);
            }
        }
        sor_obs::render_prometheus(&self.recorded(), &gauges)
    }

    /// Start the scrape endpoint on `addr` (`127.0.0.1:0` binds an
    /// ephemeral port; read it back from
    /// [`TelemetryServer::local_addr`]).
    pub fn serve_http<A: ToSocketAddrs>(
        self: &Arc<Self>,
        addr: A,
    ) -> std::io::Result<TelemetryServer> {
        TelemetryServer::start(addr, Arc::clone(self) as Arc<dyn TelemetryHandler>)
    }
}

impl TelemetryHandler for ServeTelemetry {
    fn metrics(&self) -> String {
        self.render_prometheus()
    }

    fn timeline_json(&self) -> String {
        self.timeline.to_json()
    }

    fn timeline_json_last(&self, last: usize) -> String {
        self.timeline.to_json_last(last)
    }

    fn health(&self) -> String {
        self.watchdog.summary().render_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One served epoch: 4 admitted, the queue drained, a cache hit or
    /// miss, `rejected` backpressure rejections since the last epoch,
    /// published congestion 2.0 against a fresh baseline of 1.0.
    fn record(epoch: u64, hit: bool, rejected: u64, epoch_wall_ns: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            admitted: 4,
            rejected,
            cache_hit: hit,
            cache_hits: u64::from(hit),
            cache_misses: u64::from(!hit),
            congestion: 2.0,
            fresh_congestion: Some(1.0),
            epoch_wall_ns,
            ..EpochRecord::default()
        }
    }

    #[test]
    fn record_epoch_builds_timeline_and_hit_rate() {
        let t = ServeTelemetry::new(SloConfig::disabled());
        t.record_epoch(record(0, false, 0, 0), EpochWalls::default());
        let walls = EpochWalls {
            reopt_ns: 400_000,
            cache_lookup_ns: 10_000,
        };
        for e in 1..5 {
            t.record_epoch(record(e, true, 1, 1_000_000), walls);
        }
        assert_eq!(t.timeline().len(), 5);
        let records = t.timeline().records();
        assert_eq!(records[0].rejected, 0);
        assert!(records[1..].iter().all(|r| r.rejected == 1));
        assert_eq!((records[0].cache_misses, records[4].cache_hits), (1, 1));
        assert_eq!(records[4].epoch_wall_ns, 1_000_000);
        // 1 miss + 4 hits
        let rate = t.windowed_hit_rate(&records[4]).expect("lookups happened");
        assert!(rate > 0.5, "mostly hits: {rate}");
        assert_eq!(t.windows().ticks(), 5, "one deterministic tick per epoch");
    }

    #[test]
    fn slo_breach_lands_in_timeline_record() {
        let t = ServeTelemetry::new(SloConfig {
            max_congestion_ratio: Some(1.5),
            ..SloConfig::disabled()
        });
        // congestion 2.0 vs fresh 1.0 → ratio 2.0 > 1.5
        t.record_epoch(record(0, false, 0, 0), EpochWalls::default());
        let records = t.timeline().records();
        assert_eq!(records[0].slo_breaches, vec!["max_congestion_ratio"]);
        let health = t.watchdog().summary();
        assert_eq!(health.total_breaches, 1);
        assert!(t.health().contains("degraded"));
    }

    #[test]
    fn exposition_includes_percentiles_and_slo_gauges() {
        let rec = Recorder::new();
        let _scope = rec.install();
        let t = ServeTelemetry::new(SloConfig::serving_defaults());
        sor_obs::count("serve/epochs", 1);
        t.observe_queue_wait_ns(5_000);
        let walls = EpochWalls {
            reopt_ns: 900_000,
            cache_lookup_ns: 50_000,
        };
        t.record_epoch(record(0, false, 0, 2_000_000), walls);
        let text = t.metrics();
        assert!(
            text.contains("sor_serve_epochs 1"),
            "bound recorder exposed"
        );
        assert!(text.contains("sor_serve_epochs_rate{window=\"1\"} 1"));
        assert!(text.contains("sor_serve_epoch_wall_ns{quantile=\"0.99\"}"));
        assert!(text.contains("sor_serve_queue_wait_ns{quantile=\"0.5\"}"));
        assert!(text.contains("sor_slo_epochs_evaluated 1"));
        assert!(text.contains("sor_slo_breaches{rule=\"max_congestion_ratio\"}"));
        let json = t.timeline_json();
        assert!(json.contains("\"format\":\"sor-timeline/1\""));
    }
}
