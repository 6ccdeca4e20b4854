//! Observability must never change what the pipeline computes.
//!
//! Runs the full seeded pipeline (Räcke build → sampling → integral
//! routing → packet simulation) twice — once without a recorder, once
//! under one — and asserts bit-identical routing output. Also checks
//! the coverage acceptance bar (≥10 distinct metrics spanning ≥4
//! crates) and exercises the public `sor-obs` surface end to end.
//!
//! Each test owns its recorder, so the tests run in parallel.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers: a failed setup fails the test"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use semi_oblivious_routing::cli::{parse_demand, parse_graph};
use semi_oblivious_routing::core::sample::{demand_pairs, sample_k};
use semi_oblivious_routing::core::SemiObliviousRouting;
use semi_oblivious_routing::graph::Path;
use semi_oblivious_routing::oblivious::RaeckeRouting;
use semi_oblivious_routing::obs;
use semi_oblivious_routing::sched::{try_simulate, Policy};

/// Everything the pipeline decides, in one comparable bundle.
#[derive(PartialEq, Debug)]
struct RunOutput {
    routes: Vec<Vec<u32>>,
    makespan: u64,
    congestion_bits: u64,
    dilation: u64,
    mean_latency_bits: Option<u64>,
    max_queue: usize,
}

/// The `sor sim` pipeline on twostar:2x6 with s = 4, seed 42.
fn run_pipeline() -> RunOutput {
    let seed = 42;
    let g = parse_graph("twostar:2x6", seed).expect("graph spec");
    let demand = parse_demand("perm", &g, seed).expect("demand spec");
    let mut rng = StdRng::seed_from_u64(seed);
    let base = RaeckeRouting::build(g.clone(), 8, &mut rng);
    let sampled = sample_k(&base, &demand_pairs(&demand), 4, &mut rng);
    let sor = SemiObliviousRouting::new(g.clone(), sampled.system);
    let integral = sor.route_integral(&demand, 0.15, &mut rng);
    let mut routes: Vec<Path> = Vec::new();
    for (j, &(a, b, _)) in demand.entries().iter().enumerate() {
        let paths = sor.system().paths(a, b);
        for (i, &c) in integral.counts[j].iter().enumerate() {
            for _ in 0..c {
                routes.push(paths[i].clone());
            }
        }
    }
    let res = try_simulate(&g, &routes, Policy::Fifo).expect("simulation");
    RunOutput {
        routes: routes
            .iter()
            .map(|p| p.nodes().iter().map(|n| n.0).collect())
            .collect(),
        makespan: res.makespan,
        congestion_bits: res.congestion.to_bits(),
        dilation: res.dilation,
        mean_latency_bits: res.mean_latency().map(f64::to_bits),
        max_queue: res.max_queue,
    }
}

#[test]
fn capture_does_not_change_routing_output() {
    let plain = run_pipeline();
    let rec = obs::Recorder::new();
    let instrumented = {
        let _scope = rec.install();
        run_pipeline()
    };
    assert!(rec.snapshot().num_metrics() > 0, "the recorder saw the run");
    assert_eq!(
        plain, instrumented,
        "enabling metric/span capture changed the routing output"
    );
}

#[test]
fn instrumented_run_meets_coverage_bar() {
    let rec = obs::Recorder::new();
    {
        let _scope: obs::RecorderScope = rec.install();
        let _root: obs::Span = obs::span("test/pipeline");
        run_pipeline();
    }
    let snap: obs::Snapshot = rec.snapshot();

    // ≥10 distinct named metrics spanning ≥4 crates (acceptance bar).
    assert!(
        snap.num_metrics() >= 10,
        "only {} metrics captured",
        snap.num_metrics()
    );
    let mut crates: Vec<&str> = snap
        .counters
        .iter()
        .map(|c: &obs::CounterSnapshot| c.name.as_str())
        .chain(
            snap.histograms
                .iter()
                .map(|h: &obs::HistogramSnapshot| h.name.as_str()),
        )
        .filter_map(|name| name.split('/').next())
        .collect();
    crates.sort_unstable();
    crates.dedup();
    assert!(
        crates.len() >= 4,
        "metrics span only {} crates: {crates:?}",
        crates.len()
    );
    for want in ["flow", "oblivious", "core", "sched"] {
        assert!(crates.contains(&want), "no metrics from {want}");
    }

    // The span tree nests under the root and renders.
    let root = snap
        .spans
        .iter()
        .find(|s: &&obs::SpanSnapshot| s.path == ["test/pipeline"])
        .expect("root span recorded");
    assert_eq!(root.calls, 1);
    assert!(root.total_ns > 0);
    assert!(
        snap.spans.iter().any(|s| s.depth() > 0),
        "no nested phases recorded"
    );
    let rendered = obs::render_phase_tree(&snap.spans);
    assert!(rendered.contains("test/pipeline"));
    assert!(rec.phase_report().contains("test/pipeline"));

    // JSON export carries the same inventory.
    let json = snap.to_json();
    assert!(json.contains("\"counters\""));
    assert!(json.contains("flow/restricted/phases"));
}

#[test]
fn metrics_registry_surface() {
    let rec = obs::Recorder::new();
    assert!(!obs::enabled());
    {
        let _scope = rec.install();
        assert!(obs::enabled());
        assert!(obs::Recorder::current().is_some());
        obs::counter_add!("test/api/counter");
        obs::count("test/api/counter", 2);
        obs::count_usize("test/api/counter", 3);
        obs::observe_into!("test/api/ratio", &obs::RATIO_BUCKETS, 0.5);
        obs::observe("test/api/ratio", &obs::RATIO_BUCKETS, 100.0); // overflow bucket
    }
    assert!(!obs::enabled());
    rec.add("test/api/direct", 1);

    let snap = rec.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    };
    assert_eq!(counter("test/api/counter"), Some(6));
    assert_eq!(counter("test/api/direct"), Some(1));
    let hs = snap
        .histograms
        .iter()
        .find(|h| h.name == "test/api/ratio")
        .expect("histogram registered");
    assert_eq!(hs.count, 2);
    let overflow: &obs::BucketCount = hs.buckets.last().expect("overflow bucket");
    assert!(overflow.le.is_none());
    assert_eq!(overflow.count, 1);

    // reset zeroes values but keeps the registered names
    rec.reset();
    let after = rec.metrics_snapshot();
    assert_eq!(after.num_metrics(), snap.num_metrics());
    assert!(after.counters.iter().all(|c| c.value == 0));
}

#[test]
fn logging_surface() {
    obs::set_sink(obs::Sink::Memory);
    obs::set_log_level(obs::Level::Debug);
    assert_eq!(obs::log_level(), obs::Level::Debug);
    assert!(obs::log_enabled(obs::Level::Warn));
    obs::log(
        obs::Level::Warn,
        "obs_determinism",
        format_args!("captured {}", 1),
    );
    // The sink is process-wide: the pipeline tests running alongside may
    // log too, so look at this test's own target only.
    let lines: Vec<String> = obs::take_captured()
        .into_iter()
        .filter(|l| l.contains("obs_determinism"))
        .collect();
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains("captured 1"));
    obs::set_log_level(obs::Level::Off);
    assert!(!obs::log_enabled(obs::Level::Error));
    obs::set_log_level(obs::Level::Warn);
    obs::set_sink(obs::Sink::Stderr);
}
