//! End-to-end serving benchmark for `sor_serve::Engine`.
//!
//! ```text
//! sor-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]
//! ```
//!
//! A closed loop with one client thread: each epoch the harness offers
//! one pattern's requests through `ingest`, calls `run_epoch`, checks the
//! snapshot, folds it into a digest and drops it. Every input comes from
//! the seed (see `workload.rs`).
//!
//! `--trace 0` runs the workload's seeded instances (each: set-up plus
//! every epoch) in passes that fill about `--seconds` on a 2-core Xeon
//! VM, at least `MIN_PASSES` of them. Every pass repeats the same work,
//! so each set-up, failure call and epoch is timed as the median of its
//! repeats. The repeats lie seconds apart, so a burst from another tenant
//! of a shared machine moves one repeat, not the median. It prints the
//! end-to-end metrics.
//!
//! `--trace 1` runs instance 0's epoch stream once on engines in lock
//! step: an untraced reference; a traced engine whose calls run in spans,
//! each epoch followed by replays of the layer entry points on that
//! epoch's inputs; and, when observers are on, an engine with telemetry
//! and journal detached. It prints the per-layer metrics.
//!
//! The last stdout line is always one JSON object.

mod check;
mod spans;
mod workload;

use check::{check_snapshot, Digest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_compact::CompactSystem;
use sor_core::{sample_k, SemiObliviousRouting};
use sor_flow::Demand;
use sor_graph::{EdgeId, NodeId, Path};
use sor_oblivious::RaeckeRouting;
use sor_obs::{Journal, SloConfig};
use sor_serve::{Engine, EpochSnapshot, Request, ServeTelemetry, SnapshotFormat};
use spans::{SpanLog, SETUP};
use std::collections::{BTreeMap, VecDeque};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{generate, pick_failures, Inputs, Spec};

/// Passes over every instance per timed run, at least: three repeats
/// give a median that one slow repeat cannot move.
const MIN_PASSES: u32 = 3;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            "--trace-out" => trace_out = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::spec(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What one engine published over an epoch stream, as the checker saw it.
#[derive(Default)]
struct Tally {
    offered: u64,
    rejected: u64,
    admitted: u64,
    /// Admitted requests of pairs the engine left unserved.
    unserved_requests: u64,
    /// Requests in snapshots that failed the output check.
    bad_requests: u64,
    served_pairs: u64,
    fallback_pairs: u64,
    unserved_pairs: u64,
    solved_epochs: u64,
    congestion_sum: f64,
    errors: Vec<String>,
    digest: Digest,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.rejected + self.unserved_requests + self.bad_requests
    }

    fn mean_congestion(&self) -> f64 {
        self.congestion_sum / self.solved_epochs.max(1) as f64
    }

    fn fallback_share(&self) -> f64 {
        self.fallback_pairs as f64 / self.served_pairs.max(1) as f64
    }

    fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.offered.max(1) as f64
    }

    /// Add another instance's counts (digests are kept per instance).
    fn absorb(&mut self, o: &Tally) {
        self.offered += o.offered;
        self.rejected += o.rejected;
        self.admitted += o.admitted;
        self.unserved_requests += o.unserved_requests;
        self.bad_requests += o.bad_requests;
        self.served_pairs += o.served_pairs;
        self.fallback_pairs += o.fallback_pairs;
        self.unserved_pairs += o.unserved_pairs;
        self.solved_epochs += o.solved_epochs;
        self.congestion_sum += o.congestion_sum;
    }

    fn error(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// Per-layer sums of the traced engine's replays.
#[derive(Default)]
struct Layers {
    build_ns: u64,
    ingest_ns: u64,
    self_ns: u64,
    sample_ns: u64,
    sample_calls: u64,
    sample_pairs: u64,
    raw_draws: u64,
    installed_paths: u64,
    route_ns: u64,
    route_calls: u64,
    gap_sum: f64,
    encode_ns: u64,
    decode_ns: u64,
    compact_calls: u64,
    bits_ratio_sum: f64,
    exceptions: u64,
    fail_edges_ns: u64,
    fail_calls: u64,
}

/// The traced engine's span log and its replay state: a Räcke routing
/// and RNG built from the engine's own seed, so replayed `sample_k`
/// calls draw exactly what the engine drew.
struct Tracer {
    log: SpanLog,
    routing: RaeckeRouting,
    rng: StdRng,
    layers: Layers,
}

/// One engine driven through the epoch stream.
struct Lane {
    engine: Engine,
    /// Mirror of the engine's request queue (what the next epoch admits).
    queue: VecDeque<Request>,
    setup_ns: u64,
    /// `ingest`s + `run_epoch`, per epoch.
    epoch_ns: Vec<u64>,
    run_epoch_ns: Vec<u64>,
    /// `fail_edges` + `restore_all`.
    control_ns: u64,
    tally: Tally,
    last_loaded: Vec<EdgeId>,
    loads: Vec<f64>,
    tracer: Option<Tracer>,
}

/// Run `f`, inside span `name` when `log` is on; returns its result and
/// wall time in nanoseconds.
fn in_span<T>(
    log: Option<&mut SpanLog>,
    name: &'static str,
    epoch: i64,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match log {
        Some(log) => {
            let span = log.open(name, epoch, parent);
            let out = f();
            (out, log.close(span))
        }
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, ns(t0.elapsed()))
        }
    }
}

fn log_of(tracer: &mut Option<Tracer>) -> Option<&mut SpanLog> {
    tracer.as_mut().map(|t| &mut t.log)
}

impl Lane {
    fn new(inputs: &Inputs, observers: bool, traced: bool) -> Lane {
        let mut log = traced.then(SpanLog::new);
        let (mut engine, setup_ns) =
            in_span(log.as_mut(), "serve.Engine::new", SETUP, None, || {
                Engine::new(inputs.graph.clone(), inputs.engine)
            });
        if observers {
            engine.attach_telemetry(Arc::new(ServeTelemetry::new(SloConfig::disabled())));
            engine.attach_journal(Arc::new(Journal::new()));
        }
        let tracer = log.map(|mut log| {
            let mut rng = StdRng::seed_from_u64(inputs.engine.seed);
            let (routing, build_ns) = in_span(
                Some(&mut log),
                "oblivious.RaeckeRouting::build",
                SETUP,
                None,
                || RaeckeRouting::build(inputs.graph.clone(), inputs.engine.trees, &mut rng),
            );
            Tracer {
                log,
                routing,
                rng,
                layers: Layers {
                    build_ns,
                    ..Layers::default()
                },
            }
        });
        Lane {
            engine,
            queue: VecDeque::new(),
            setup_ns,
            epoch_ns: Vec::new(),
            run_epoch_ns: Vec::new(),
            control_ns: 0,
            tally: Tally::default(),
            last_loaded: Vec::new(),
            loads: Vec::new(),
            tracer,
        }
    }

    fn run_ns(&self) -> u64 {
        self.setup_ns + self.epoch_ns.iter().sum::<u64>() + self.control_ns
    }

    fn fail_edges(&mut self, edges: &[EdgeId], epoch: u64) {
        let (_, d) = in_span(
            log_of(&mut self.tracer),
            "serve.fail_edges",
            epoch as i64,
            None,
            || self.engine.fail_edges(edges),
        );
        self.control_ns += d;
        if let Some(t) = &mut self.tracer {
            t.layers.fail_edges_ns += d;
            t.layers.fail_calls += 1;
        }
    }

    fn restore_all(&mut self, epoch: u64) {
        let ((), d) = in_span(
            log_of(&mut self.tracer),
            "serve.restore_all",
            epoch as i64,
            None,
            || self.engine.restore_all(),
        );
        self.control_ns += d;
    }

    fn step(&mut self, inputs: &Inputs, epoch: u64) {
        let id = epoch as i64;
        let root = log_of(&mut self.tracer).map(|l| l.open("epoch", id, None));
        let ((), ingest_ns) = in_span(log_of(&mut self.tracer), "serve.ingest", id, root, || {
            for req in inputs.requests(epoch) {
                self.tally.offered += 1;
                if self.engine.ingest(req) {
                    self.queue.push_back(req);
                } else {
                    self.tally.rejected += 1;
                }
            }
        });
        let (snap, run_ns) = in_span(
            log_of(&mut self.tracer),
            "serve.run_epoch",
            id,
            root,
            || self.engine.run_epoch(),
        );
        self.epoch_ns.push(ingest_ns + run_ns);
        self.run_epoch_ns.push(run_ns);

        let take = inputs.engine.epoch_batch.min(self.queue.len());
        let mut admitted: BTreeMap<(NodeId, NodeId), (u64, f64)> = BTreeMap::new();
        for r in self.queue.drain(..take) {
            let slot = admitted.entry((r.src, r.dst)).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += r.amount;
        }
        self.record(inputs, &admitted, &snap);
        if let Some(t) = &mut self.tracer {
            t.layers.ingest_ns += ingest_ns;
            if let Err(e) = replay(t, &self.engine, inputs, &admitted, &snap, run_ns, root) {
                self.tally.error(e);
            }
            if let Some(r) = root {
                t.log.close(r);
            }
        }
    }

    /// Check the snapshot and fold it into the tally and digest.
    fn record(
        &mut self,
        inputs: &Inputs,
        admitted: &BTreeMap<(NodeId, NodeId), (u64, f64)>,
        snap: &EpochSnapshot,
    ) {
        let requests: u64 = admitted.values().map(|&(n, _)| n).sum();
        let t = &mut self.tally;
        t.admitted += requests;
        t.digest.snapshot(snap);
        match check_snapshot(
            &inputs.graph,
            self.engine.failed_edges(),
            admitted,
            snap,
            &mut self.loads,
        ) {
            Ok(c) => {
                t.unserved_requests += requests - c.served_requests;
                t.served_pairs += c.served_pairs;
                t.fallback_pairs += snap.fallback_pairs as u64;
                t.unserved_pairs += snap.unserved_pairs as u64;
                if !snap.routes.is_empty() {
                    t.solved_epochs += 1;
                    t.congestion_sum += snap.congestion;
                }
                self.last_loaded = c.loaded;
            }
            Err(e) => {
                t.bad_requests += requests;
                t.error(e);
            }
        }
    }
}

/// Replay the layer entry points on this epoch's inputs, each in its own
/// span, and check the replays agree with what the engine published.
fn replay(
    t: &mut Tracer,
    engine: &Engine,
    inputs: &Inputs,
    admitted: &BTreeMap<(NodeId, NodeId), (u64, f64)>,
    snap: &EpochSnapshot,
    run_ns: u64,
    root: Option<usize>,
) -> Result<(), String> {
    let g = &inputs.graph;
    let cfg = &inputs.engine;
    let id = snap.epoch as i64;
    let mut replayed = 0;
    if !snap.cache_hit && snap.admitted > 0 {
        let pairs: Vec<(NodeId, NodeId)> = admitted.keys().copied().collect();
        let (sampled, d) = in_span(Some(&mut t.log), "core.sample_k", id, root, || {
            sample_k(&t.routing, &pairs, cfg.sparsity, &mut t.rng)
        });
        replayed += d;
        let l = &mut t.layers;
        l.sample_ns += d;
        l.sample_calls += 1;
        l.sample_pairs += pairs.len() as u64;
        l.raw_draws += sampled.raw.iter().map(|(_, v)| v.len() as u64).sum::<u64>();
        l.installed_paths += sampled.system.total_paths() as u64;
        if engine.failed_edges().is_empty() && engine.last_system() != Some(&sampled.system) {
            return Err(format!(
                "epoch {id}: replayed sample_k differs from the engine's system"
            ));
        }
    }
    if snap.routes.is_empty() {
        t.layers.self_ns += run_ns.saturating_sub(replayed);
        return Ok(());
    }
    let system = engine
        .last_system()
        .ok_or_else(|| format!("epoch {id}: solved epoch left no system"))?
        .clone();
    let demand = Demand::from_triples(snap.routes.iter().map(|r| (r.s, r.t, r.demand)));
    let sor = SemiObliviousRouting::new(g.clone(), system);
    let (sol, d) = in_span(Some(&mut t.log), "flow.route_fractional", id, root, || {
        sor.route_fractional(&demand, cfg.eps)
    });
    replayed += d;
    t.layers.route_ns += d;
    t.layers.route_calls += 1;
    if sol.lower_bound > 0.0 {
        t.layers.gap_sum += sol.congestion / sol.lower_bound;
    }
    if sol.congestion.to_bits() != snap.congestion.to_bits() {
        return Err(format!(
            "epoch {id}: replayed congestion {} != published {}",
            sol.congestion, snap.congestion
        ));
    }
    if cfg.snapshot_format == SnapshotFormat::Compact {
        let tree = t
            .routing
            .trees()
            .first()
            .ok_or("replayed routing has no tree")?;
        let (cs, enc) = in_span(
            Some(&mut t.log),
            "compact.CompactSystem::encode",
            id,
            root,
            || CompactSystem::encode(g, tree, sor.system()),
        );
        let (decoded, dec) = in_span(Some(&mut t.log), "compact.decode_pair", id, root, || {
            snap.routes
                .iter()
                .map(|r| cs.decode_pair(g, r.s, r.t))
                .collect::<Vec<Vec<Path>>>()
        });
        replayed += enc + dec;
        let stats = cs.stats();
        let l = &mut t.layers;
        l.encode_ns += enc;
        l.decode_ns += dec;
        l.compact_calls += 1;
        l.bits_ratio_sum += stats.ratio();
        l.exceptions += stats.exceptions as u64;
        if snap.compact != Some(stats) {
            return Err(format!(
                "epoch {id}: replayed compact stats differ from the snapshot's"
            ));
        }
        for (r, paths) in snap.routes.iter().zip(&decoded) {
            if paths.as_slice() != sor.system().paths(r.s, r.t) {
                return Err(format!(
                    "epoch {id}: decode_pair({}, {}) is not lossless",
                    r.s, r.t
                ));
            }
        }
    }
    t.layers.self_ns += run_ns.saturating_sub(replayed);
    Ok(())
}

/// Drive `lanes` through the workload's epoch stream in lock step; the
/// lane order alternates by epoch so no lane always runs first.
fn run_stream(spec: &Spec, inputs: &Inputs, lanes: &mut [Lane]) {
    let mut fail_rng = StdRng::seed_from_u64(inputs.failure_seed);
    let mut restore_at = None;
    for epoch in 0..spec.epochs {
        if let Some(f) = spec.failures {
            if restore_at == Some(epoch) {
                lanes.iter_mut().for_each(|l| l.restore_all(epoch));
                restore_at = None;
            }
            if epoch > 0 && epoch % f.every == 0 {
                let lead = &lanes[0];
                let down = pick_failures(
                    &inputs.graph,
                    &lead.last_loaded,
                    lead.engine.failed_edges(),
                    f.edges,
                    &mut fail_rng,
                );
                if !down.is_empty() {
                    lanes.iter_mut().for_each(|l| l.fail_edges(&down, epoch));
                    restore_at = Some(epoch + f.restore_after);
                }
            }
        }
        if epoch % 2 == 0 {
            lanes.iter_mut().for_each(|l| l.step(inputs, epoch));
        } else {
            lanes.iter_mut().rev().for_each(|l| l.step(inputs, epoch));
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_ns(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2
    }
}

/// Nearest-rank percentile of `sorted`.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn mean_ns(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A metric as printed: name, value, unit.
struct Metric(&'static str, f64, &'static str);

/// Outcome of one invocation.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Printed for reading, not part of the JSON result.
    notes: Vec<Metric>,
}

/// The timings of one pass over one instance.
struct PassTimes {
    setup_ns: u64,
    control_ns: u64,
    epoch_ns: Vec<u64>,
}

/// Every pass's timings of one workload instance.
struct Repeats {
    passes: Vec<PassTimes>,
    tally: Tally,
}

/// One instance's timings, each the median of its repeats.
struct Medians {
    setup_ns: u64,
    run_ns: u64,
    epoch_ns: Vec<u64>,
}

impl Repeats {
    fn medians(&self) -> Medians {
        let med =
            |pick: &dyn Fn(&PassTimes) -> u64| median_ns(self.passes.iter().map(pick).collect());
        let setup_ns = med(&|p| p.setup_ns);
        let epoch_ns: Vec<u64> = (0..self.passes[0].epoch_ns.len())
            .map(|e| med(&|p| p.epoch_ns[e]))
            .collect();
        let run_ns = setup_ns + epoch_ns.iter().sum::<u64>() + med(&|p| p.control_ns);
        Medians {
            setup_ns,
            run_ns,
            epoch_ns,
        }
    }
}

fn timed(args: &Args) -> Result<Outcome, String> {
    let spec = &args.spec;
    let instances: Vec<Inputs> = (0..spec.instances)
        .map(|i| generate(spec, args.seed, i))
        .collect();
    let mut repeats: Vec<Repeats> = Vec::new();
    let mut errors = Vec::new();
    // The pass count depends on `--seconds` and the workload alone, never
    // on measured speed, so every run's medians are over the same N.
    let passes = ((args.seconds / spec.pass_seconds) as u32).max(MIN_PASSES);
    for pass in 0..passes {
        for (i, inputs) in instances.iter().enumerate() {
            let mut lanes = [Lane::new(inputs, spec.observers, false)];
            run_stream(spec, inputs, &mut lanes);
            let [lane] = lanes;
            errors.extend(lane.tally.errors.iter().cloned());
            let times = PassTimes {
                setup_ns: lane.setup_ns,
                control_ns: lane.control_ns,
                epoch_ns: lane.epoch_ns,
            };
            let tally = lane.tally;
            match repeats.get_mut(i) {
                None => repeats.push(Repeats {
                    passes: vec![times],
                    tally,
                }),
                Some(r) => {
                    if tally.digest != r.tally.digest {
                        errors.push(format!(
                            "instance {i}: pass {pass} published different routes"
                        ));
                    }
                    r.passes.push(times);
                }
            }
        }
    }
    let mut tally = Tally::default();
    repeats.iter().for_each(|r| tally.absorb(&r.tally));
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut epochs: Vec<u64> = Vec::new();
    for r in &repeats {
        let m = r.medians();
        setups.push(m.setup_ns as f64 / 1e9);
        runs.push(m.run_ns as f64 / 1e9);
        epochs.extend(m.epoch_ns);
    }
    let epoch_s = epochs.iter().sum::<u64>() as f64 / 1e9;
    epochs.sort_unstable();
    let (setup_s, run_s) = (median(&mut setups), median(&mut runs));
    let p50_ms = percentile(&epochs, 0.50) as f64 / 1e6;
    let p99_ms = percentile(&epochs, 0.99) as f64 / 1e6;
    let requests_per_s = tally.admitted as f64 / epoch_s;
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let digests: Vec<String> = repeats.iter().map(|r| r.tally.digest.hex()).collect();
    println!(
        "workload {} seed {}: {} instances x {passes} passes, {} epoch samples, digests {}",
        spec.name,
        args.seed,
        repeats.len(),
        epochs.len(),
        digests.join(" ")
    );
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: tally.offered,
        failed: tally.failed(),
        metrics: vec![
            Metric("setup_s", setup_s, "s"),
            Metric("run_s", run_s, "s"),
            Metric("epoch_p50_ms", p50_ms, "ms"),
            Metric("epoch_p99_ms", p99_ms, "ms"),
            Metric("requests_per_s", requests_per_s, "1/s"),
            Metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            Metric("mean_congestion", tally.mean_congestion(), "ratio"),
            Metric("served_share", 1.0 - tally.failed_share(), "ratio"),
            Metric("primary_share", 1.0 - tally.fallback_share(), "ratio"),
        ],
        notes: vec![
            Metric("failed_share", tally.failed_share(), "ratio"),
            Metric("fallback_share", tally.fallback_share(), "ratio"),
            Metric("epoch_samples", epochs.len() as f64, "count"),
        ],
    })
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let spec = &args.spec;
    let inputs = &generate(spec, args.seed, 0);
    // Lane 0: reference for the tracing overhead; lane 1: traced;
    // lane 2 (observers on only): observers detached.
    let mut lanes = vec![
        Lane::new(inputs, spec.observers, false),
        Lane::new(inputs, spec.observers, true),
    ];
    if spec.observers {
        lanes.push(Lane::new(inputs, false, false));
    }
    run_stream(spec, inputs, &mut lanes);
    let tracer = lanes[1]
        .tracer
        .take()
        .ok_or("traced lane lost its tracer")?;
    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.log.to_jsonl())
            .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
    }
    let mut errors: Vec<String> = Vec::new();
    for (i, lane) in lanes.iter().enumerate() {
        errors.extend(lane.tally.errors.iter().map(|e| format!("engine {i}: {e}")));
        if lane.tally.digest != lanes[0].tally.digest {
            errors.push(format!(
                "engine {i} published different routes than engine 0"
            ));
        }
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let (reference, traced) = (&lanes[0], &lanes[1]);
    let l = &tracer.layers;
    let n_epochs = spec.epochs as f64;
    let per_epoch_ms = |v: u64| v as f64 / 1e6 / n_epochs;
    let trace_overhead_us =
        (mean_ns(&traced.run_epoch_ns) - mean_ns(&reference.run_epoch_ns)) / 1e3;
    let obs_overhead_us = lanes.get(2).map_or(0.0, |bare| {
        (mean_ns(&reference.run_epoch_ns) - mean_ns(&bare.run_epoch_ns)) / 1e3
    });
    let stats = traced.engine.cache_stats();
    let lookups = (stats.hits + stats.misses).max(1);
    let tally = &traced.tally;
    let build_s = l.build_ns as f64 / 1e9;
    let run_s = reference.run_ns() as f64 / 1e9;
    let layers = [
        ("core.sample_ms", l.sample_ns),
        ("flow.route_fractional_ms", l.route_ns),
        ("compact.encode_ms", l.encode_ns),
        ("compact.decode_ms", l.decode_ns),
    ];
    let largest = layers
        .iter()
        .max_by_key(|(_, v)| *v)
        .map_or("none", |(n, _)| n);
    println!(
        "workload {} seed {} (traced): {} epochs, instance-0 digest {}, largest replayed epoch layer {largest}, spans {}",
        spec.name,
        args.seed,
        spec.epochs,
        tally.digest.hex(),
        args.trace_out.as_deref().unwrap_or("not written"),
    );
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: lanes.iter().map(|l| l.tally.offered).sum(),
        failed: lanes.iter().map(|l| l.tally.failed()).sum(),
        metrics: vec![
            Metric("oblivious.build_s", build_s, "s"),
            Metric(
                "oblivious.tree_ms",
                l.build_ns as f64 / 1e6 / inputs.engine.trees as f64,
                "ms",
            ),
            Metric("oblivious.build_share", build_s / run_s, "ratio"),
            Metric("flow.route_fractional_ms", per_epoch_ms(l.route_ns), "ms"),
            Metric(
                "flow.solver_gap",
                l.gap_sum / l.route_calls.max(1) as f64,
                "ratio",
            ),
            Metric("serve.self_ms", per_epoch_ms(l.self_ns), "ms"),
            Metric("serve.ingest_us", l.ingest_ns as f64 / 1e3 / n_epochs, "us"),
            Metric("core.sample_ms", per_epoch_ms(l.sample_ns), "ms"),
            Metric(
                "core.sample_pair_us",
                l.sample_ns as f64 / 1e3 / l.sample_pairs.max(1) as f64,
                "us",
            ),
            Metric("core.sample_calls", l.sample_calls as f64, "count"),
            Metric(
                "core.distinct_ratio",
                l.installed_paths as f64 / l.raw_draws.max(1) as f64,
                "ratio",
            ),
            Metric(
                "serve.cache_hit_ratio",
                stats.hits as f64 / lookups as f64,
                "ratio",
            ),
            Metric("serve.cache_evictions", stats.evictions as f64, "count"),
            Metric(
                "serve.cache_invalidations",
                stats.invalidations as f64,
                "count",
            ),
            Metric(
                "serve.fail_edges_us",
                l.fail_edges_ns as f64 / 1e3 / l.fail_calls.max(1) as f64,
                "us",
            ),
            Metric("compact.encode_ms", per_epoch_ms(l.encode_ns), "ms"),
            Metric("compact.decode_ms", per_epoch_ms(l.decode_ns), "ms"),
            Metric(
                "compact.bits_ratio",
                l.bits_ratio_sum / l.compact_calls.max(1) as f64,
                "ratio",
            ),
            Metric("compact.exceptions", l.exceptions as f64, "count"),
            Metric("te.fallback_pairs", tally.fallback_pairs as f64, "count"),
            Metric("te.unserved_pairs", tally.unserved_pairs as f64, "count"),
            Metric("fallback_share", tally.fallback_share(), "ratio"),
            Metric("failed_share", tally.failed_share(), "ratio"),
            Metric("obs.overhead_us_per_epoch", obs_overhead_us, "us"),
            Metric("trace.overhead_us_per_epoch", trace_overhead_us, "us"),
        ],
        notes: Vec::new(),
    })
}

fn json_result(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|Metric(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Like `sor serve --quiet`: fallback warnings stay off stderr.
    sor_obs::set_log_level(sor_obs::Level::Off);
    let outcome = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &mut outcome.metrics {
        if !m.1.is_finite() {
            eprintln!("check failed: metric {} is not finite", m.0);
            outcome.correct = false;
            m.1 = 0.0;
        }
    }
    for Metric(name, value, unit) in outcome.metrics.iter().chain(&outcome.notes) {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    println!("{}", json_result(&outcome));
    ExitCode::SUCCESS
}
