//! The two seeded workloads and the inputs generated for them.
//!
//! Everything the engine sees is derived here from the workload seed:
//! graph, pattern pool, per-epoch pattern picks, the failure-choice RNG
//! and the engine seed. Both run on a random 4-regular expander with
//! s = 3 paths per pair, 6 FRT trees, eps = 0.2 and fractional solving.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sor_graph::{connected_without, gen, EdgeId, Graph, NodeId};
use sor_serve::{matching_patterns, EngineConfig, Request, SnapshotFormat};

/// Take `edges` loaded edges down every `every` epochs (never at epoch
/// 0) and restore them all `restore_after` epochs later.
#[derive(Clone, Copy, Debug)]
pub struct FailureSchedule {
    pub every: u64,
    pub edges: usize,
    pub restore_after: u64,
}

/// One workload: topology size, traffic shape and engine options.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub nodes: usize,
    /// Independently seeded instances per timed run. More instances
    /// average out per-instance traffic; fewer leave time for more
    /// passes.
    pub instances: u64,
    /// Seconds one timed pass over the run's instances takes on a
    /// 2-core Xeon VM while other tenants keep it busy; sizes the pass
    /// count from `--seconds`.
    pub pass_seconds: f64,
    pub patterns: usize,
    pub pairs_per_pattern: usize,
    pub epochs: u64,
    pub cache_capacity: usize,
    pub format: SnapshotFormat,
    /// Attach telemetry (no SLO rules) and the journal (nothing dumped).
    pub observers: bool,
    pub failures: Option<FailureSchedule>,
}

const DEGREE: usize = 4;
const SPARSITY: usize = 3;
const TREES: usize = 6;
const EPS: f64 = 0.2;
/// Cache capacity of `frt_scale`, whose pool recurs. The cache splits its
/// capacity over 8 hash shards, so 64 leaves 8 slots per shard: a pool
/// of up to 8 patterns fits whichever shards its keys hash to. (At
/// capacity 8, one slot per shard, two patterns in one shard evict each
/// other on every alternation.)
const FITS_POOL: usize = 64;

pub const WORKLOADS: [Spec; 2] = [
    // The FRT build dominates run_s and peak RSS; epochs are all hits.
    Spec {
        name: "frt_scale",
        nodes: 2048,
        instances: 2,
        pass_seconds: 13.0,
        patterns: 4,
        pairs_per_pattern: 32,
        epochs: 1000,
        cache_capacity: FITS_POOL,
        format: SnapshotFormat::Explicit,
        observers: false,
        failures: None,
    },
    // Little recurrence, compact snapshots, observers on, edge failures:
    // sampling, compact codec, failure resolution and fallback.
    Spec {
        name: "churn_failover",
        nodes: 512,
        // 64 patterns already average within one instance.
        instances: 1,
        pass_seconds: 6.5,
        patterns: 64,
        pairs_per_pattern: 128,
        epochs: 1000,
        cache_capacity: 8,
        format: SnapshotFormat::Compact,
        observers: true,
        failures: Some(FailureSchedule {
            every: 50,
            edges: 4,
            restore_after: 20,
        }),
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Generated inputs: identical for identical (workload, seed, instance).
pub struct Inputs {
    pub graph: Graph,
    pub patterns: Vec<Vec<(NodeId, NodeId)>>,
    /// Pattern index offered at each epoch.
    pub picks: Vec<usize>,
    pub engine: EngineConfig,
    /// Seed of the RNG that picks which loaded edges fail.
    pub failure_seed: u64,
}

/// SplitMix64 finalizer: decorrelates the per-purpose seed streams.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Instance `instance` of the workload for `seed`: each instance draws
/// its own graph, pattern pool, picks and engine seed.
pub fn generate(spec: &Spec, seed: u64, instance: u64) -> Inputs {
    let seed = mix(seed, instance);
    let graph = gen::random_regular(spec.nodes, DEGREE, &mut StdRng::seed_from_u64(mix(seed, 1)));
    let patterns = matching_patterns(
        &graph,
        spec.patterns,
        spec.pairs_per_pattern,
        &mut StdRng::seed_from_u64(mix(seed, 2)),
    );
    let mut arrivals = StdRng::seed_from_u64(mix(seed, 3));
    let picks = (0..spec.epochs)
        .map(|_| arrivals.gen_range(0..spec.patterns))
        .collect();
    // One request per pattern pair each epoch, all admitted at once.
    let requests = spec.pairs_per_pattern;
    let engine = EngineConfig {
        sparsity: SPARSITY,
        trees: TREES,
        eps: EPS,
        epoch_batch: requests,
        queue_bound: 2 * requests,
        cache_capacity: spec.cache_capacity,
        integral: false,
        compare_fresh: false,
        seed: mix(seed, 4),
        snapshot_format: spec.format,
    };
    Inputs {
        graph,
        patterns,
        picks,
        engine,
        failure_seed: mix(seed, 5),
    }
}

impl Inputs {
    /// The unit requests offered at `epoch`: every pair of its pattern.
    pub fn requests(&self, epoch: u64) -> impl Iterator<Item = Request> + '_ {
        self.patterns[self.picks[epoch as usize]]
            .iter()
            .map(|&(s, t)| Request::unit(s, t))
    }
}

/// Up to `count` distinct edges from `loaded` (sorted ids) whose joint
/// removal, on top of `already_failed`, keeps the graph connected.
pub fn pick_failures(
    g: &Graph,
    loaded: &[EdgeId],
    already_failed: &[EdgeId],
    count: usize,
    rng: &mut StdRng,
) -> Vec<EdgeId> {
    let mut candidates = loaded.to_vec();
    let mut chosen: Vec<EdgeId> = Vec::with_capacity(count);
    while chosen.len() < count && !candidates.is_empty() {
        let cand = candidates.swap_remove(rng.gen_range(0..candidates.len()));
        if already_failed.contains(&cand) {
            continue;
        }
        let mut down = already_failed.to_vec();
        down.extend_from_slice(&chosen);
        down.push(cand);
        if connected_without(g, &down) {
            chosen.push(cand);
        }
    }
    chosen
}
