//! Umbrella-level exercise of the live telemetry plane's public
//! surface: window constants and snapshots, log-bucket geometry, the
//! epoch timeline, SLO breach records and health summaries, Prometheus
//! name mangling, and the serve-side wall/delta carriers. This is the
//! cross-crate coverage for API items whose natural callers live inside
//! their own crate (`sor-obs`, `sor-serve`).
//!
//! Each test owns its recorder, so the tests run in parallel.

use semi_oblivious_routing::graph::gen;
use semi_oblivious_routing::obs;
use semi_oblivious_routing::obs::window::{
    log_bucket_of, SeriesKind, DEFAULT_EWMA_ALPHA, DEFAULT_WINDOW_CAPACITY, SUB_BUCKETS, WINDOWS,
};
use semi_oblivious_routing::obs::{
    prom_name, EpochRecord, EpochTimeline, HealthSummary, SloBreach, SloConfig, SloInputs,
    SloWatchdog, WindowRegistry, WindowSnapshot,
};
use semi_oblivious_routing::serve::{
    run_workload_with_observers, CacheDeltas, EngineConfig, EpochWalls, ServeObservers,
    ServeTelemetry, WorkloadConfig,
};
use std::sync::Arc;

#[test]
fn window_constants_and_snapshots_describe_the_plane() {
    let rec = obs::Recorder::new();

    // the documented defaults: every standard window fits in the ring
    assert_eq!(WINDOWS, [1, 10, 60]);
    assert!(DEFAULT_WINDOW_CAPACITY >= *WINDOWS.iter().max().expect("non-empty"));
    const { assert!(DEFAULT_EWMA_ALPHA > 0.0 && DEFAULT_EWMA_ALPHA <= 1.0) };

    let w = WindowRegistry::with_config(DEFAULT_WINDOW_CAPACITY, DEFAULT_EWMA_ALPHA);
    {
        let _scope = rec.install();
        obs::counter_add!("umbrella/ticked", 5);
        obs::observe_into!("umbrella/obs_hist", &obs::POW2_BUCKETS, 3.0);
    }
    w.tick(&rec.snapshot());

    let snaps: Vec<WindowSnapshot> = w.snapshot();
    let counter = snaps
        .iter()
        .find(|s| s.name == "umbrella/ticked")
        .expect("counter series ticked in");
    assert_eq!(counter.kind, SeriesKind::Counter);
    assert!((counter.rate1 - 5.0).abs() < 1e-9);
    assert!(
        (counter.ewma - 5.0).abs() < 1e-9,
        "EWMA seeds from first delta"
    );
    let hist = snaps
        .iter()
        .find(|s| s.name == "umbrella/obs_hist")
        .expect("histogram count series ticked in");
    assert_eq!(hist.kind, SeriesKind::HistogramCount);
    assert_eq!(hist.kind.label(), "histogram");
    assert!((hist.total - 1.0).abs() < 1e-9);
}

#[test]
fn log_bucket_geometry_matches_sub_bucket_constant() {
    // SUB_BUCKETS buckets per doubling: v and 2v land exactly
    // SUB_BUCKETS apart
    assert_eq!(log_bucket_of(1.0), Some(0));
    assert_eq!(log_bucket_of(2.0), Some(SUB_BUCKETS));
    assert_eq!(log_bucket_of(4.0), Some(2 * SUB_BUCKETS));
    assert_eq!(
        log_bucket_of(0.5),
        None,
        "sub-unit values use the underflow bucket"
    );
    assert_eq!(log_bucket_of(f64::NAN), None);
}

#[test]
fn timeline_and_watchdog_round_trip_breaches() {
    let timeline = EpochTimeline::with_capacity(obs::timeline::DEFAULT_TIMELINE_CAPACITY);
    let watchdog = SloWatchdog::new(SloConfig {
        max_congestion_ratio: Some(1.5),
        max_p99_epoch_wall_ms: None,
        min_cache_hit_rate: None,
        max_fallback_fraction: None,
    });
    let mut rec = EpochRecord {
        epoch: 0,
        congestion: 3.0,
        fresh_congestion: Some(1.0),
        admitted: 4,
        ..EpochRecord::default()
    };
    let breaches: Vec<SloBreach> = watchdog.evaluate(&rec, SloInputs::default());
    assert_eq!(breaches.len(), 1);
    assert_eq!(breaches[0].rule, "max_congestion_ratio");
    assert!((breaches[0].value - 3.0).abs() < 1e-9);
    assert!((breaches[0].threshold - 1.5).abs() < 1e-9);
    assert!(breaches[0].event_line().starts_with("SLO breach epoch=0"));
    rec.slo_breaches = breaches.iter().map(|b| b.rule.to_string()).collect();
    timeline.push(rec);
    assert_eq!(timeline.len(), 1);

    let summary: HealthSummary = watchdog.summary();
    assert_eq!(summary.epochs_evaluated, 1);
    assert_eq!(summary.total_breaches, 1);
    assert!(!summary.healthy());
    assert!(summary.render().contains("degraded"));
}

#[test]
fn prom_names_are_sanitized() {
    assert_eq!(prom_name("serve/cache_hits"), "sor_serve_cache_hits");
    assert_eq!(prom_name("a-b.c/d"), "sor_a_b_c_d");
}

#[test]
fn serve_walls_and_cache_deltas_flow_through_the_plane() {
    let g = gen::hypercube(3);
    let ecfg = EngineConfig {
        sparsity: 2,
        trees: 3,
        epoch_batch: 16,
        queue_bound: 32,
        cache_capacity: 4,
        seed: 5,
        ..EngineConfig::default()
    };
    let wcfg = WorkloadConfig {
        epochs: 4,
        rate: 4,
        patterns: 1,
        pairs_per_pattern: 2,
        seed: 5,
        ..WorkloadConfig::default()
    };
    let rec = obs::Recorder::new();
    let _scope = rec.install();
    let telemetry = Arc::new(ServeTelemetry::default());
    let journal = Arc::new(obs::Journal::new());
    let report = run_workload_with_observers(
        &g,
        ecfg,
        &wcfg,
        ServeObservers {
            telemetry: Some(Arc::clone(&telemetry)),
            journal: Some(Arc::clone(&journal)),
            ..ServeObservers::default()
        },
    );

    // per-epoch cache deltas sum back to the lifetime counters
    let total: CacheDeltas = report
        .snapshots
        .iter()
        .fold(CacheDeltas::default(), |acc, s| CacheDeltas {
            hits: acc.hits + s.cache.hits,
            misses: acc.misses + s.cache.misses,
            evictions: acc.evictions + s.cache.evictions,
            invalidations: acc.invalidations + s.cache.invalidations,
        });
    assert_eq!(total.hits, report.cache.hits);
    assert_eq!(total.misses, report.cache.misses);

    // the plane's timeline is a fold over the journal's event stream:
    // replaying epoch 0's events through a fresh plane rebuilds its record
    let records = telemetry.timeline().records();
    assert_eq!(records.len(), report.snapshots.len());
    let epoch0: Vec<obs::JournalEvent> = journal
        .events()
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| e.epoch() == 0)
        .collect();
    let replay = ServeTelemetry::new(SloConfig::disabled());
    let walls = EpochWalls {
        reopt_ns: 1_000_000,
        cache_lookup_ns: 10_000,
    };
    replay.record_epoch(
        obs::EpochRecord::from_stats(&obs::fold_epochs(&epoch0)[0]),
        walls,
    );
    assert_eq!(replay.timeline().records(), records[..1].to_vec());
    let first = &report.snapshots[0];
    assert_eq!(records[0].congestion.to_bits(), first.congestion.to_bits());
    assert_eq!(records[0].queue_depth, first.queue_depth);
    assert_eq!(records[0].cache_misses, first.cache.misses);
    // the plane ticks the recorder it was built under
    assert!(telemetry.windows().rates("serve/epochs").is_some());
}
