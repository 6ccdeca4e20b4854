//! The online engine: epoch lifecycle over cached path systems.
//!
//! Lifecycle per epoch: **ingest** (requests queue up, backpressure
//! rejects past a bound) → **admit** (pop up to a batch into the epoch's
//! demand) → **lookup** (the epoch's sparse path system from the cache,
//! sampled only on a miss) → **resolve** (apply the failure set) →
//! **solve** (re-optimize sending rates restricted to the system) →
//! **publish** (an [`EpochSnapshot`] with per-pair rate-weighted routes).
//! Each stage is one method below.
//!
//! Each stage states each lifecycle fact once, as a [`JournalEvent`]
//! pushed into the epoch's event batch — kept only while a journal, a
//! telemetry plane or a [`sor_obs::Recorder`] listens. At publish the
//! batch is folded once ([`sor_obs::fold_epochs`]): the fold feeds the
//! current recorder's `serve/*` counters and the telemetry plane's
//! timeline record, and the journal appends the batch itself.
//!
//! The expensive phase — building the Räcke routing and sampling path
//! systems — happens once at startup and on cache misses; every warm
//! epoch is just an MWU rate re-optimization ([`SemiObliviousRouting::
//! route_fractional`]), which is the semi-oblivious model's operational
//! promise. Edge failures invalidate only affected cache entries and the
//! epoch routes on the degraded system, pairs that lost every candidate
//! falling back to a surviving shortest path exactly like `sor-te`'s
//! failure replay.
//!
//! Everything is deterministic for a fixed seed: the cache is keyed and
//! evicted deterministically, the engine RNG is a seeded `StdRng`, and
//! the fresh-sample comparison derives its RNG from (seed, epoch).

use crate::cache::{
    fnv1a_u64, pairs_fingerprint, CacheDeltas, CacheKey, CacheStats, PathSystemCache, FNV_OFFSET,
};
use crate::telemetry::{EpochWalls, ServeTelemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_compact::{CompactStats, CompactSystem};
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::{PathSystem, SemiObliviousRouting};
use sor_flow::Demand;
use sor_graph::{EdgeId, Graph, NodeId, Path};
use sor_oblivious::RaeckeRouting;
use sor_obs::{fold_epochs, EdgeLoad, EpochRecord, EpochStats, Journal, JournalEvent, SloBreach};
use sor_te::emergency_path;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One routing request: `amount` units of flow from `src` to `dst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Source vertex.
    pub src: NodeId,
    /// Destination vertex.
    pub dst: NodeId,
    /// Flow units requested (finite, positive).
    pub amount: f64,
}

impl Request {
    /// A unit request.
    pub fn unit(src: NodeId, dst: NodeId) -> Self {
        Request {
            src,
            dst,
            amount: 1.0,
        }
    }
}

/// How an epoch's path system is materialized for publication. Both
/// formats publish bit-identical routes — compact mode re-encodes the
/// system through `sor-compact`'s verified lossless tables and decodes
/// the published edge lists from them, recording the size accounting on
/// the snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Explicit per-pair edge lists (the historical format).
    #[default]
    Explicit,
    /// o(n)-state label-interval next-hop tables ([`CompactSystem`]).
    Compact,
}

impl SnapshotFormat {
    /// Parse a CLI spelling (`explicit` / `compact`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "explicit" => Ok(SnapshotFormat::Explicit),
            "compact" => Ok(SnapshotFormat::Compact),
            other => Err(format!(
                "unknown snapshot format {other:?} (expected explicit|compact)"
            )),
        }
    }
}

/// Engine tuning knobs. Every field participates in the determinism
/// contract: same config + same ingest sequence ⇒ bit-identical
/// snapshots.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Paths sampled per pair (the `s` of an `s`-sparse system).
    pub sparsity: usize,
    /// FRT trees in the Räcke mixture built at startup.
    pub trees: usize,
    /// MWU solver accuracy.
    pub eps: f64,
    /// Max requests admitted into one epoch.
    pub epoch_batch: usize,
    /// Queue depth beyond which `ingest` rejects (backpressure).
    pub queue_bound: usize,
    /// Total path systems the cache may hold.
    pub cache_capacity: usize,
    /// Solve each epoch integrally (randomized rounding + local search)
    /// when the admitted demand is integral; otherwise fractionally.
    pub integral: bool,
    /// Also run the resample-per-epoch baseline (fresh Räcke build +
    /// sample + solve) and record its congestion — the cost the cache
    /// amortizes away.
    pub compare_fresh: bool,
    /// Seed for the engine RNG and all derived per-epoch RNGs.
    pub seed: u64,
    /// How published snapshots materialize their path systems (explicit
    /// edge lists or compact next-hop tables). Published routes are
    /// bit-identical either way; only the snapshot's size accounting
    /// differs.
    pub snapshot_format: SnapshotFormat,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sparsity: 3,
            trees: 6,
            eps: 0.2,
            epoch_batch: 64,
            queue_bound: 256,
            cache_capacity: 32,
            integral: false,
            compare_fresh: false,
            seed: 0,
            snapshot_format: SnapshotFormat::Explicit,
        }
    }
}

impl EngineConfig {
    /// Check every field against its valid range: a zero `sparsity`,
    /// `trees`, `epoch_batch`, `queue_bound` or `cache_capacity`, or an
    /// `eps` outside the solvers' range (0, 1), is an error. An engine
    /// built from an invalid config may panic or serve nothing.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let counts = [
            ("sparsity", self.sparsity),
            ("trees", self.trees),
            ("epoch_batch", self.epoch_batch),
            ("queue_bound", self.queue_bound),
            ("cache_capacity", self.cache_capacity),
        ];
        if let Some(&(field, _)) = counts.iter().find(|&&(_, v)| v == 0) {
            return Err(ConfigError {
                field,
                requirement: "at least 1",
            });
        }
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(ConfigError {
                field: "eps",
                requirement: "in (0, 1)",
            });
        }
        Ok(())
    }
}

/// An [`EngineConfig`] field outside its valid range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field's name.
    pub field: &'static str,
    /// What the field must satisfy.
    pub requirement: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} must be {}", self.field, self.requirement)
    }
}

impl std::error::Error for ConfigError {}

/// A published per-pair route assignment: candidate paths (as edge-id
/// sequences) with the rates the epoch's re-optimization put on them.
/// Zero-rate candidates are omitted.
#[derive(Clone, Debug, PartialEq)]
pub struct PublishedRoute {
    /// Source vertex.
    pub s: NodeId,
    /// Destination vertex.
    pub t: NodeId,
    /// The pair's admitted demand.
    pub demand: f64,
    /// `(path edges, rate)` with rate > 0; rates sum to `demand`.
    pub paths: Vec<(Vec<EdgeId>, f64)>,
}

/// What one epoch published. `PartialEq` + float fields make bit-level
/// determinism checks (`same seed ⇒ identical snapshots`) a plain
/// `assert_eq!`.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSnapshot {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Requests admitted into this epoch.
    pub admitted: usize,
    /// Whether the path system came from the cache.
    pub cache_hit: bool,
    /// Congestion of the published routing.
    pub congestion: f64,
    /// Solver's LP lower bound (0 when the epoch was empty or integral).
    pub lower_bound: f64,
    /// Pairs that lost every sampled candidate to failures and were
    /// routed on an emergency shortest path.
    pub fallback_pairs: usize,
    /// Pairs disconnected outright by the failures (dropped from the
    /// epoch's demand).
    pub unserved_pairs: usize,
    /// Queue depth after admission (what backpressure acts on).
    pub queue_depth: usize,
    /// Sparsity of the system the epoch solved on.
    pub sparsity: usize,
    /// Congestion of the resample-per-epoch baseline, when
    /// [`EngineConfig::compare_fresh`] is set.
    pub fresh_congestion: Option<f64>,
    /// Cache counter movement attributable to this epoch (including any
    /// `fail_edges` invalidations since the previous epoch) — per-epoch
    /// deltas, where [`Engine::cache_stats`] gives lifetime totals.
    pub cache: CacheDeltas,
    /// The rate assignment, one entry per served pair.
    pub routes: Vec<PublishedRoute>,
    /// Size accounting of the compact encoding, present only when the
    /// engine ran with [`SnapshotFormat::Compact`]. Routes themselves
    /// are identical between formats (the codec is verified lossless).
    pub compact: Option<CompactStats>,
}

impl EpochSnapshot {
    fn empty(epoch: u64, queue_depth: usize) -> Self {
        EpochSnapshot {
            epoch,
            admitted: 0,
            cache_hit: false,
            congestion: 0.0,
            lower_bound: 0.0,
            fallback_pairs: 0,
            unserved_pairs: 0,
            queue_depth,
            sparsity: 0,
            fresh_congestion: None,
            cache: CacheDeltas::default(),
            routes: Vec::new(),
            compact: None,
        }
    }
}

/// Congested edges reported per `top_edges` journal event.
const TOP_EDGES_K: usize = 8;

/// Breach-triggered flight-recorder dumps: when an epoch trips any SLO
/// rule and a journal is attached, the engine snapshots the ring's last
/// `context_epochs` epochs to `{prefix}-epoch{NNNNNN}.json` (the
/// `sor-journal/1` format `sor forensics` ingests).
#[derive(Clone, Debug)]
pub struct BreachDumpConfig {
    /// Artifact path prefix (`{prefix}-epoch000042.json`).
    pub prefix: String,
    /// Epochs of journal context per dump (0 = everything still in the
    /// ring).
    pub context_epochs: u64,
    /// Stop writing after this many dumps (a breach storm must not turn
    /// the flight recorder into a disk-filling loop).
    pub max_dumps: usize,
}

impl Default for BreachDumpConfig {
    fn default() -> Self {
        BreachDumpConfig {
            prefix: "sor-breach".to_string(),
            context_epochs: 16,
            max_dumps: 16,
        }
    }
}

/// The long-running engine (see module docs for the lifecycle).
pub struct Engine {
    g: Graph,
    cfg: EngineConfig,
    routing: RaeckeRouting,
    cache: PathSystemCache,
    queue: VecDeque<Request>,
    failed: Vec<EdgeId>,
    rng: StdRng,
    epoch: u64,
    rejected: u64,
    /// Rejections since the last epoch opened (its `Reject` event).
    unreported_rejects: u64,
    last: Option<SemiObliviousRouting>,
    last_stats: CacheStats,
    telemetry: Option<Arc<ServeTelemetry>>,
    /// Enqueue instants mirroring `queue`, kept only while telemetry is
    /// attached (queue-wait percentiles).
    queue_times: VecDeque<Instant>,
    /// Stage walls of the running epoch, taken only while telemetry is
    /// attached (wall time never reaches published output).
    walls: EpochWalls,
    journal: Option<Arc<Journal>>,
    dump_cfg: Option<BreachDumpConfig>,
    breach_dumps: Vec<String>,
    /// The upcoming epoch's event batch: inter-epoch failure events
    /// first, then the epoch's own lifecycle. Filled only while someone
    /// listens ([`Engine::listening`]); drained at publish.
    events: Vec<JournalEvent>,
    /// Last published path-set fingerprint per pair — path-churn events
    /// difference against this. BTreeMap: churn events come out in
    /// deterministic pair order.
    pair_fps: BTreeMap<(u32, u32), u64>,
}

impl Engine {
    /// Build the engine: one Räcke routing construction (the expensive
    /// oblivious phase), an empty cache, an empty queue.
    pub fn new(g: Graph, cfg: EngineConfig) -> Self {
        let _span = sor_obs::span("serve/build");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let routing = RaeckeRouting::build(g.clone(), cfg.trees, &mut rng);
        Engine {
            cache: PathSystemCache::new(cfg.cache_capacity),
            queue: VecDeque::new(),
            failed: Vec::new(),
            rng,
            epoch: 0,
            rejected: 0,
            unreported_rejects: 0,
            last: None,
            last_stats: CacheStats::default(),
            telemetry: None,
            queue_times: VecDeque::new(),
            walls: EpochWalls::default(),
            journal: None,
            dump_cfg: None,
            breach_dumps: Vec::new(),
            events: Vec::new(),
            pair_fps: BTreeMap::new(),
            g,
            cfg,
            routing,
        }
    }

    /// Attach the live telemetry plane: every subsequent epoch records
    /// walls, ticks the window registry, appends to the timeline, and
    /// runs the SLO watchdog. Telemetry is strictly read-only over the
    /// epoch's outputs — published routes/rates stay bit-identical with
    /// or without it (the determinism test pins this).
    pub fn attach_telemetry(&mut self, telemetry: Arc<ServeTelemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Attach the flight recorder: every subsequent epoch appends its
    /// event batch to the ring. Like telemetry, the journal is strictly
    /// read-only over the epoch's outputs — published snapshots stay
    /// bit-identical with or without it (the determinism test pins this).
    pub fn attach_journal(&mut self, journal: Arc<Journal>) {
        self.journal = Some(journal);
    }

    /// Arm breach-triggered dumps (requires an attached journal to have
    /// any effect): epochs that trip an SLO rule snapshot the ring to
    /// disk. See [`BreachDumpConfig`].
    pub fn set_breach_dump(&mut self, cfg: BreachDumpConfig) {
        self.dump_cfg = Some(cfg);
    }

    /// Paths of the breach dumps written so far, in breach order.
    pub fn breach_dump_paths(&self) -> &[String] {
        &self.breach_dumps
    }

    /// Whether anything consumes lifecycle events: a journal, a
    /// telemetry plane, or a recorder installed on this thread.
    fn listening(&self) -> bool {
        self.journal.is_some() || self.telemetry.is_some() || sor_obs::enabled()
    }

    /// Push one lifecycle fact into the epoch's batch, if anyone listens.
    fn emit(&mut self, event: JournalEvent) {
        if self.listening() {
            self.events.push(event);
        }
    }

    /// Offer a request. Returns `false` (and counts a rejection) when the
    /// queue is at the backpressure bound. Panics on malformed requests
    /// (self-loop, non-positive amount) — the same contract as `Demand`.
    pub fn ingest(&mut self, req: Request) -> bool {
        assert!(req.src != req.dst, "request between a vertex and itself");
        assert!(
            req.amount.is_finite() && req.amount > 0.0,
            "request amount must be finite and positive"
        );
        if self.queue.len() >= self.cfg.queue_bound {
            self.rejected += 1;
            self.unreported_rejects += 1;
            return false;
        }
        if self.telemetry.is_some() {
            self.queue_times.push_back(Instant::now());
        }
        self.queue.push_back(req);
        true
    }

    /// Take edges down: extends the failure set and invalidates exactly
    /// the cache entries whose systems route over them. Returns how many
    /// entries were invalidated.
    pub fn fail_edges(&mut self, edges: &[EdgeId]) -> usize {
        for &e in edges {
            if !self.failed.contains(&e) {
                self.failed.push(e);
            }
        }
        let invalidated = self.cache.invalidate_edges(edges);
        // Tagged with the *upcoming* epoch index: the failure takes
        // effect on (and the invalidation misses land in) that epoch,
        // whose batch carries these events.
        let epoch = self.epoch;
        self.emit(JournalEvent::EdgeFail {
            epoch,
            edges: edges.iter().map(|e| e.0).collect(),
        });
        if invalidated > 0 {
            self.emit(JournalEvent::CacheInvalidate {
                epoch,
                count: invalidated as u64,
            });
        }
        invalidated
    }

    /// Bring every failed edge back up. Cached entries were sampled on
    /// the pristine graph and never contain emergency fallback paths, so
    /// no invalidation is needed.
    pub fn restore_all(&mut self) {
        let restored = self.failed.len();
        self.failed.clear();
        if restored > 0 {
            self.emit(JournalEvent::EdgeRestore {
                epoch: self.epoch,
                restored,
            });
        }
    }

    /// Run one epoch: admit a batch, solve it on a cached (or freshly
    /// sampled) path system, publish the snapshot.
    pub fn run_epoch(&mut self) -> EpochSnapshot {
        let epoch_start = self.listening().then(Instant::now);
        self.walls = EpochWalls::default();
        let mut snap = {
            let _span = sor_obs::span("serve/epoch");
            self.serve_epoch()
        };
        if self.cfg.compare_fresh && snap.admitted > 0 {
            // Sibling span, *outside* serve/epoch: the wall-time ratio of
            // the two spans is the cache's amortization factor.
            snap.fresh_congestion = Some(self.fresh_baseline(&snap));
        }
        self.publish(&mut snap, epoch_start.map_or(0, elapsed_ns));
        snap
    }

    /// The stages inside the `serve/epoch` span: admit → lookup →
    /// resolve → solve → route extraction.
    fn serve_epoch(&mut self) -> EpochSnapshot {
        let epoch = self.epoch;
        self.epoch += 1;
        let admitted = self.admit(epoch);
        if admitted.is_empty() {
            return EpochSnapshot::empty(epoch, self.queue.len());
        }
        let demand = Demand::from_triples(admitted.iter().map(|r| (r.src, r.dst, r.amount)));
        let pairs = demand_pairs(&demand);
        if self.listening() {
            self.events.push(JournalEvent::Admit {
                epoch,
                count: admitted.len(),
                demand_fp: pairs_fingerprint(&pairs),
            });
        }
        let (sampled, cache_hit) = self.lookup(epoch, &pairs);
        let (system, demand, fallback_pairs, unserved_pairs) =
            self.resolve(epoch, &sampled, demand, &pairs);
        if demand.support_size() == 0 {
            let mut snap = EpochSnapshot::empty(epoch, self.queue.len());
            snap.admitted = admitted.len();
            snap.cache_hit = cache_hit;
            snap.unserved_pairs = unserved_pairs;
            return snap;
        }
        let sparsity = system.sparsity();
        let (sor, weights, congestion, lower_bound) = self.solve(epoch, system, &demand);
        let (routes, compact) = self.extract_routes(epoch, &sor, &demand, &weights);
        self.last = Some(sor);
        EpochSnapshot {
            epoch,
            admitted: admitted.len(),
            cache_hit,
            congestion,
            lower_bound,
            fallback_pairs,
            unserved_pairs,
            queue_depth: self.queue.len(),
            sparsity,
            fresh_congestion: None,
            cache: CacheDeltas::default(),
            routes,
            compact,
        }
    }

    /// Admit stage: open the epoch, report the backpressure since the
    /// last one, and pop up to a batch of queued requests.
    fn admit(&mut self, epoch: u64) -> Vec<Request> {
        self.emit(JournalEvent::EpochBegin {
            epoch,
            queue_depth: self.queue.len(),
        });
        let rejected = std::mem::take(&mut self.unreported_rejects);
        if rejected > 0 {
            self.emit(JournalEvent::Reject {
                epoch,
                count: rejected,
            });
        }
        let take = self.cfg.epoch_batch.min(self.queue.len());
        if let Some(telemetry) = &self.telemetry {
            // queue-wait percentiles for the admitted batch (enqueue
            // instants are only mirrored while telemetry is attached)
            for _ in 0..take.min(self.queue_times.len()) {
                if let Some(t0) = self.queue_times.pop_front() {
                    telemetry.observe_queue_wait_ns(elapsed_ns(t0));
                }
            }
        }
        self.queue.drain(..take).collect()
    }

    /// Lookup stage: the epoch's path system from the cache, sampled from
    /// the oblivious routing only on a miss.
    fn lookup(&mut self, epoch: u64, pairs: &[(NodeId, NodeId)]) -> (Arc<PathSystem>, bool) {
        let key = CacheKey::new(&self.g, pairs, self.cfg.sparsity);
        let start = self.telemetry.is_some().then(Instant::now);
        let Engine {
            cache,
            routing,
            rng,
            cfg,
            ..
        } = self;
        let (sampled, cache_hit) = cache.get_or_insert_with(key, || {
            let _span = sor_obs::span("serve/sample");
            sample_k(routing, pairs, cfg.sparsity, rng).system
        });
        if let Some(t0) = start {
            self.walls.cache_lookup_ns = elapsed_ns(t0);
        }
        self.emit(if cache_hit {
            JournalEvent::CacheHit { epoch }
        } else {
            JournalEvent::CacheMiss { epoch }
        });
        (sampled, cache_hit)
    }

    /// Resolve stage: apply the failure set to the sampled system. Pairs
    /// that lost every candidate fall back to an emergency path; pairs the
    /// failures disconnected leave the epoch's demand. Returns the system,
    /// the served demand, and the fallback and unserved pair counts.
    fn resolve(
        &mut self,
        epoch: u64,
        sampled: &PathSystem,
        demand: Demand,
        pairs: &[(NodeId, NodeId)],
    ) -> (PathSystem, Demand, usize, usize) {
        let (system, fallback_pairs, unserved) =
            resolve_failures(&self.g, sampled, &self.failed, pairs);
        if fallback_pairs > 0 {
            sor_obs::warn!(
                "epoch {epoch}: {fallback_pairs} pair(s) lost every cached candidate; \
                 emergency shortest-path fallback installed"
            );
            self.emit(JournalEvent::Fallback {
                epoch,
                pairs: fallback_pairs,
            });
        }
        if unserved.is_empty() {
            return (system, demand, fallback_pairs, 0);
        }
        sor_obs::warn!(
            "epoch {epoch}: {} pair(s) disconnected by failures; dropped",
            unserved.len()
        );
        self.emit(JournalEvent::Unserved {
            epoch,
            pairs: unserved.len(),
        });
        let served = Demand::from_triples(
            demand
                .entries()
                .iter()
                .filter(|&&(s, t, _)| !unserved.contains(&(s, t)))
                .copied(),
        );
        (system, served, fallback_pairs, unserved.len())
    }

    /// Solve stage: re-optimize sending rates restricted to the system.
    /// Returns the routing, per-commodity path weights, congestion and
    /// the LP lower bound (0 for integral solves).
    fn solve(
        &mut self,
        epoch: u64,
        system: PathSystem,
        demand: &Demand,
    ) -> (SemiObliviousRouting, Vec<Vec<f64>>, f64, f64) {
        let sor = SemiObliviousRouting::new(self.g.clone(), system);
        let start = self.telemetry.is_some().then(Instant::now);
        let integral = self.cfg.integral && demand.is_integral();
        let (weights, congestion, lower_bound) = if integral {
            let sol = sor.route_integral(demand, self.cfg.eps, &mut self.rng);
            let weights: Vec<Vec<f64>> = sol
                .counts
                .iter()
                .map(|c| c.iter().map(|&n| f64::from(n)).collect())
                .collect();
            (weights, sol.congestion, 0.0)
        } else {
            let sol = sor.route_fractional(demand, self.cfg.eps);
            (sol.weights, sol.congestion, sol.lower_bound)
        };
        if let Some(t0) = start {
            self.walls.reopt_ns = elapsed_ns(t0);
        }
        self.emit(JournalEvent::Reopt {
            epoch,
            pairs: demand.support_size(),
            congestion,
            lower_bound,
            integral,
        });
        (sor, weights, congestion, lower_bound)
    }

    /// Route extraction: each served pair's positive-rate paths. Compact
    /// mode re-encodes the (failure-resolved) system through the verified
    /// lossless codec and reads the paths back from its tables —
    /// identical bits by the codec's round-trip guarantee, with the size
    /// accounting returned alongside.
    fn extract_routes(
        &mut self,
        epoch: u64,
        sor: &SemiObliviousRouting,
        demand: &Demand,
        weights: &[Vec<f64>],
    ) -> (Vec<PublishedRoute>, Option<CompactStats>) {
        let compact = (self.cfg.snapshot_format == SnapshotFormat::Compact).then(|| {
            let _span = sor_obs::span("serve/compact_encode");
            #[expect(
                clippy::expect_used,
                reason = "RaeckeRouting::build produces at least one tree"
            )]
            let tree = self
                .routing
                .trees()
                .first()
                .expect("RaeckeRouting::build produces at least one tree");
            CompactSystem::encode(&self.g, tree, sor.system())
        });
        let routes: Vec<PublishedRoute> = demand
            .entries()
            .iter()
            .zip(weights)
            .map(|(&(s, t, d), w)| {
                let decoded: Vec<Path>;
                let paths = match &compact {
                    Some(cs) => {
                        decoded = cs.decode_pair(&self.g, s, t);
                        decoded.as_slice()
                    }
                    None => sor.system().paths(s, t),
                };
                PublishedRoute {
                    s,
                    t,
                    demand: d,
                    paths: paths
                        .iter()
                        .zip(w)
                        .filter(|&(_, &rate)| rate > 0.0)
                        .map(|(p, &rate)| (p.edges().to_vec(), rate))
                        .collect(),
                }
            })
            .collect();
        if self.journal.is_some() {
            self.journal_publication(epoch, &routes);
        }
        (routes, compact.as_ref().map(CompactSystem::stats))
    }

    /// The facts only the flight recorder consumes: the top-k most
    /// utilized edges of the published assignment and per-pair path churn
    /// vs. the previous publication. Only called while a journal is
    /// attached, so these passes cost any other engine nothing.
    fn journal_publication(&mut self, epoch: u64, routes: &[PublishedRoute]) {
        // Per-edge loads of the published assignment: rates sum to the
        // admitted demands, so this is exactly the utilization the epoch
        // ships.
        let mut loads = vec![0.0f64; self.g.num_edges()];
        for r in routes {
            for (edges, rate) in &r.paths {
                for e in edges {
                    if let Some(slot) = loads.get_mut(e.0 as usize) {
                        *slot += *rate;
                    }
                }
            }
        }
        let mut top: Vec<EdgeLoad> = loads
            .iter()
            .enumerate()
            .filter(|&(_, &load)| load > 0.0)
            .map(|(i, &load)| {
                let e = EdgeId::from_usize(i);
                EdgeLoad {
                    edge: e.0,
                    load,
                    utilization: load / self.g.cap(e),
                }
            })
            .collect();
        top.sort_by(|a, b| {
            b.utilization
                .total_cmp(&a.utilization)
                .then(a.edge.cmp(&b.edge))
        });
        top.truncate(TOP_EDGES_K);
        self.events
            .push(JournalEvent::TopEdges { epoch, edges: top });
        // Path churn: fingerprint each pair's published path set and diff
        // it against the pair's previous publication.
        for r in routes {
            let mut fp = FNV_OFFSET;
            for (edges, _) in &r.paths {
                fp = fnv1a_u64(fp, edges.len() as u64);
                for e in edges {
                    fp = fnv1a_u64(fp, u64::from(e.0));
                }
            }
            let pair = (r.s.0, r.t.0);
            let churn = match self.pair_fps.insert(pair, fp) {
                None => Some(true),
                Some(prev) if prev != fp => Some(false),
                Some(_) => None,
            };
            if let Some(new_pair) = churn {
                self.events.push(JournalEvent::PathChurn {
                    epoch,
                    src: pair.0,
                    dst: pair.1,
                    new_pair,
                });
            }
        }
    }

    /// Publish stage: charge the epoch's cache movement to its snapshot,
    /// close the epoch's event batch, fold it once, and hand the fold to
    /// the `serve/*` counters of the current recorder and to the telemetry
    /// plane (which may report SLO breaches), then the batch to the
    /// journal.
    fn publish(&mut self, snap: &mut EpochSnapshot, epoch_wall_ns: u64) {
        // Per-epoch cache counter deltas are part of the published
        // snapshot regardless of listeners: the movement is exactly as
        // deterministic as the lifetime counters it differences.
        let stats = self.cache.stats();
        snap.cache = stats.delta_since(&self.last_stats);
        self.last_stats = stats;
        if snap.cache.evictions > 0 {
            self.emit(JournalEvent::CacheEvict {
                epoch: snap.epoch,
                count: snap.cache.evictions,
            });
        }
        self.emit(JournalEvent::EpochEnd {
            epoch: snap.epoch,
            admitted: snap.admitted,
            cache_hit: snap.cache_hit,
            congestion: snap.congestion,
            fallback_pairs: snap.fallback_pairs,
            unserved_pairs: snap.unserved_pairs,
            failed_edges: self.failed.len(),
            epoch_wall_ns,
        });
        let Some(stats) = fold_epochs(&self.events).pop() else {
            return;
        };
        record_serve_counters(&stats);
        let breaches = match &self.telemetry {
            Some(t) => {
                let mut rec = EpochRecord::from_stats(&stats);
                // Cache movement from the cache's own counters: exact even
                // for events no listener saw (a failure before attach).
                rec.cache_hits = snap.cache.hits;
                rec.cache_misses = snap.cache.misses;
                rec.cache_evictions = snap.cache.evictions;
                rec.cache_invalidations = snap.cache.invalidations;
                rec.fresh_congestion = snap.fresh_congestion;
                t.record_epoch(rec, self.walls)
            }
            None => Vec::new(),
        };
        match &self.journal {
            Some(journal) => journal.append(self.events.drain(..)),
            None => self.events.clear(),
        }
        if !breaches.is_empty() {
            self.dump_on_breach(snap.epoch, &breaches);
        }
    }

    /// Breach reaction: snapshot the flight recorder's recent epochs to a
    /// breach-stamped artifact (no-op without both a journal and an armed
    /// [`BreachDumpConfig`]; capped at `max_dumps`).
    fn dump_on_breach(&mut self, epoch: u64, breaches: &[SloBreach]) {
        let (Some(journal), Some(cfg)) = (&self.journal, &self.dump_cfg) else {
            return;
        };
        if self.breach_dumps.len() >= cfg.max_dumps {
            return;
        }
        let rules = breaches
            .iter()
            .map(|b| b.rule)
            .collect::<Vec<_>>()
            .join(",");
        let epoch_str = epoch.to_string();
        let doc = journal.dump_json_last(
            cfg.context_epochs,
            &[
                ("reason", "slo-breach"),
                ("breach_epoch", epoch_str.as_str()),
                ("rules", rules.as_str()),
            ],
        );
        let path = format!("{}-epoch{epoch:06}.json", cfg.prefix);
        match std::fs::write(&path, doc) {
            Ok(()) => {
                sor_obs::warn!("epoch {epoch}: SLO breach ({rules}); journal dumped to {path}");
                self.breach_dumps.push(path);
            }
            Err(e) => {
                sor_obs::warn!(
                    "epoch {epoch}: SLO breach ({rules}); journal dump to {path} failed: {e}"
                );
            }
        }
    }

    /// The resample-per-epoch baseline: rebuild the oblivious routing and
    /// resample the epoch's system from scratch, then solve the same
    /// demand — everything the cache lets warm epochs skip.
    fn fresh_baseline(&self, snap: &EpochSnapshot) -> f64 {
        let _span = sor_obs::span("serve/fresh_sample");
        let demand = Demand::from_triples(snap.routes.iter().map(|r| (r.s, r.t, r.demand)));
        let pairs = demand_pairs(&demand);
        let mut rng =
            StdRng::seed_from_u64(self.cfg.seed ^ snap.epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let base = RaeckeRouting::build(self.g.clone(), self.cfg.trees, &mut rng);
        let sampled = sample_k(&base, &pairs, self.cfg.sparsity, &mut rng).system;
        let (system, _, unserved) = resolve_failures(&self.g, &sampled, &self.failed, &pairs);
        debug_assert!(unserved.is_empty(), "served pairs stay connected");
        let sor = SemiObliviousRouting::new(self.g.clone(), system);
        sor.congestion(&demand, self.cfg.eps)
    }

    /// The graph the engine routes on.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The path-system cache (stats, targeted tests).
    pub fn cache(&self) -> &PathSystemCache {
        &self.cache
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests rejected by backpressure so far.
    pub fn rejected_total(&self) -> u64 {
        self.rejected
    }

    /// Epochs run so far.
    pub fn epochs_run(&self) -> u64 {
        self.epoch
    }

    /// Currently failed edges.
    pub fn failed_edges(&self) -> &[EdgeId] {
        &self.failed
    }

    /// The system the last non-empty epoch solved on (degraded + fallback
    /// paths included) — the containment-invariant tests check published
    /// routes against exactly this.
    pub fn last_system(&self) -> Option<&PathSystem> {
        self.last.as_ref().map(SemiObliviousRouting::system)
    }
}

/// The current recorder's `serve/*` counters and queue-depth histogram
/// for one folded epoch (no-op without a recorder). Counts that stayed
/// zero are not touched, so a run registers only what happened. The
/// cache's own counters are recorded by the cache, which also serves
/// direct callers.
fn record_serve_counters(s: &EpochStats) {
    if !sor_obs::enabled() {
        return;
    }
    sor_obs::count("serve/epochs", 1);
    sor_obs::count_usize("serve/requests_admitted", s.admitted);
    if s.rejected > 0 {
        sor_obs::count("serve/requests_rejected", s.rejected);
    }
    for (name, n) in [
        ("serve/edge_failures", s.edge_failures),
        ("serve/fallback_pairs", s.fallback_pairs),
        ("serve/unserved_pairs", s.unserved_pairs),
    ] {
        if n > 0 {
            sor_obs::count_usize(name, n);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let depth = s.queue_depth as f64;
    sor_obs::observe("serve/queue_depth", &sor_obs::POW2_BUCKETS, depth);
}

/// Saturating nanoseconds since `t0` (u64 holds ~584 years).
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Apply the failure set to a sampled system: drop crossing paths, give
/// pairs that lost everything an emergency shortest path on the survivor
/// graph (re-traced onto original edge ids, the `sor-te` failure-replay
/// idiom), and report pairs the failures disconnected outright.
fn resolve_failures(
    g: &Graph,
    sampled: &PathSystem,
    failed: &[EdgeId],
    pairs: &[(NodeId, NodeId)],
) -> (PathSystem, usize, Vec<(NodeId, NodeId)>) {
    if failed.is_empty() {
        return (sampled.clone(), 0, Vec::new());
    }
    let mut system = sampled.without_edges(failed);
    let survivor = g.without_edges(failed);
    let mut fallback_pairs = 0;
    let mut unserved = Vec::new();
    for &(a, b) in pairs {
        if system.covers(a, b) {
            continue;
        }
        // `sor-te`'s emergency reroute: BFS on the survivor graph,
        // re-traced onto original edge ids.
        let Some(orig) = emergency_path(g, &survivor, failed, a, b) else {
            unserved.push((a, b));
            continue;
        };
        fallback_pairs += 1;
        system.insert(a, b, orig);
    }
    (system, fallback_pairs, unserved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::gen;

    fn small_engine(compare_fresh: bool) -> Engine {
        let g = gen::hypercube(3);
        Engine::new(
            g,
            EngineConfig {
                sparsity: 2,
                trees: 3,
                epoch_batch: 8,
                queue_bound: 16,
                cache_capacity: 4,
                compare_fresh,
                seed: 11,
                ..EngineConfig::default()
            },
        )
    }

    /// A 6-cycle: every pair has exactly two simple paths, so one failed
    /// edge forces a known invalidation.
    fn cycle_engine() -> Engine {
        let cfg = EngineConfig {
            sparsity: 4,
            trees: 3,
            epoch_batch: 4,
            seed: 5,
            ..EngineConfig::default()
        };
        Engine::new(gen::cycle_graph(6), cfg)
    }

    #[test]
    fn warm_epoch_hits_cache() {
        let mut eng = small_engine(false);
        for _ in 0..2 {
            for i in 0..4u32 {
                assert!(eng.ingest(Request::unit(NodeId(i), NodeId(7 - i))));
            }
        }
        let first = eng.run_epoch();
        assert_eq!(first.admitted, 8);
        assert!(!first.cache_hit);
        assert!(first.congestion > 0.0);
        // same pair set again → hit, and the solve agrees bit-for-bit
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let second = eng.run_epoch();
        assert!(second.cache_hit);
        assert_eq!(first.congestion.to_bits(), second.congestion.to_bits());
        assert_eq!(first.routes, second.routes);
        let st = eng.cache_stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn backpressure_rejects_at_bound() {
        let mut eng = small_engine(false);
        let mut accepted = 0;
        for i in 0..40u32 {
            if eng.ingest(Request::unit(NodeId(i % 7), NodeId(7))) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 16, "queue bound caps acceptance");
        assert_eq!(eng.rejected_total(), 24);
        assert_eq!(eng.queue_depth(), 16);
        let snap = eng.run_epoch();
        assert_eq!(snap.admitted, 8, "epoch batch caps admission");
        assert_eq!(snap.queue_depth, 8);
    }

    #[test]
    fn snapshots_carry_per_epoch_cache_deltas() {
        let mut eng = small_engine(false);
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let first = eng.run_epoch();
        assert_eq!((first.cache.hits, first.cache.misses), (0, 1));
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let second = eng.run_epoch();
        assert_eq!((second.cache.hits, second.cache.misses), (1, 0));
        // per-epoch deltas sum to the lifetime totals
        let st = eng.cache_stats();
        assert_eq!(st.hits, first.cache.hits + second.cache.hits);
        assert_eq!(st.misses, first.cache.misses + second.cache.misses);
        // an empty epoch moves nothing
        let idle = eng.run_epoch();
        assert_eq!(idle.cache, CacheDeltas::default());
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "an empty epoch publishes congestion exactly 0.0"
    )]
    fn empty_epoch_is_empty() {
        let mut eng = small_engine(false);
        let snap = eng.run_epoch();
        assert_eq!(snap.admitted, 0);
        assert_eq!(snap.congestion, 0.0);
        assert!(snap.routes.is_empty());
        assert_eq!(eng.epochs_run(), 1);
    }

    #[test]
    fn failures_invalidate_and_fall_back() {
        let mut eng = cycle_engine();
        eng.ingest(Request::unit(NodeId(0), NodeId(3)));
        let warm = eng.run_epoch();
        assert!(!warm.cache_hit);
        // fail one cycle edge: the cached system (both directions around
        // the cycle, sparsity up to 2) used it, so the entry dies
        let invalidated = eng.fail_edges(&[EdgeId(0)]);
        assert_eq!(invalidated, 1);
        assert_eq!(eng.failed_edges(), &[EdgeId(0)]);
        // telemetry attached after the failure, which no one heard
        let telemetry = Arc::new(ServeTelemetry::default());
        eng.attach_telemetry(Arc::clone(&telemetry));
        eng.ingest(Request::unit(NodeId(0), NodeId(3)));
        let degraded = eng.run_epoch();
        assert!(!degraded.cache_hit, "invalidated entry cannot hit");
        // the inter-epoch invalidation lands in this epoch's deltas, and
        // the timeline record carries them exactly
        assert_eq!(degraded.cache.invalidations, 1);
        assert_eq!(degraded.cache.misses, 1);
        let record = &telemetry.timeline().records()[0];
        assert_eq!((record.cache_invalidations, record.cache_misses), (1, 1));
        assert!(degraded.congestion > 0.0);
        // every published route avoids the failed edge
        for r in &degraded.routes {
            for (edges, _) in &r.paths {
                assert!(!edges.contains(&EdgeId(0)));
            }
        }
        eng.restore_all();
        assert!(eng.failed_edges().is_empty());
    }

    #[test]
    fn journal_captures_the_epoch_lifecycle() {
        let mut eng = small_engine(false);
        let journal = Arc::new(Journal::new());
        eng.attach_journal(Arc::clone(&journal));
        for _ in 0..2 {
            for i in 0..4u32 {
                eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
            }
        }
        eng.run_epoch();
        let tags: Vec<&'static str> = journal.events().iter().map(|(_, e)| e.type_tag()).collect();
        for expected in [
            "epoch_begin",
            "admit",
            "cache_miss",
            "reopt",
            "top_edges",
            "path_churn",
            "epoch_end",
        ] {
            assert!(tags.contains(&expected), "missing {expected} in {tags:?}");
        }
        // 4 pairs, all published for the first time
        assert_eq!(tags.iter().filter(|t| **t == "path_churn").count(), 4);
        let before = journal.len();
        // identical demand again: warm hit, identical publication → no churn
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        eng.run_epoch();
        let tags2: Vec<&'static str> = journal
            .events()
            .iter()
            .skip(before)
            .map(|(_, e)| e.type_tag())
            .collect();
        assert!(tags2.contains(&"cache_hit"), "warm epoch hits: {tags2:?}");
        assert!(!tags2.contains(&"cache_miss"));
        assert!(
            !tags2.contains(&"path_churn"),
            "identical publication churns nothing: {tags2:?}"
        );
    }

    #[test]
    fn journal_records_failures_and_restores() {
        let mut eng = cycle_engine();
        let journal = Arc::new(Journal::new());
        eng.attach_journal(Arc::clone(&journal));
        eng.ingest(Request::unit(NodeId(0), NodeId(3)));
        eng.run_epoch();
        eng.fail_edges(&[EdgeId(0)]);
        eng.ingest(Request::unit(NodeId(0), NodeId(3)));
        eng.run_epoch();
        eng.restore_all();
        // inter-epoch events travel with the epoch they are tagged with
        assert!(!journal
            .events()
            .iter()
            .any(|(_, e)| matches!(e, JournalEvent::EdgeRestore { .. })));
        eng.run_epoch();
        let events = journal.events();
        let fail = events
            .iter()
            .find_map(|(_, e)| match e {
                JournalEvent::EdgeFail { epoch, edges } => Some((*epoch, edges.clone())),
                _ => None,
            })
            .expect("edge_fail recorded");
        assert_eq!(fail, (1, vec![0]), "failure tagged with the next epoch");
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, JournalEvent::CacheInvalidate { epoch: 1, count: 1 })),
            "invalidation journaled"
        );
        assert!(
            events.iter().any(|(_, e)| matches!(
                e,
                JournalEvent::EdgeRestore {
                    epoch: 2,
                    restored: 1
                }
            )),
            "restore journaled with the epoch it affects"
        );
        // the degraded epoch's summary carries the live failure count
        assert!(events.iter().any(|(_, e)| matches!(
            e,
            JournalEvent::EpochEnd {
                epoch: 1,
                failed_edges: 1,
                ..
            }
        )));
    }

    #[test]
    fn compare_fresh_records_baseline() {
        let mut eng = small_engine(true);
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let snap = eng.run_epoch();
        let fresh = snap.fresh_congestion.expect("compare_fresh on");
        assert!(fresh.is_finite() && fresh > 0.0);
        // same optimizer, same instance family: within a loose factor
        assert!(snap.congestion <= fresh * 3.0 + 1e-9);
        assert!(fresh <= snap.congestion * 3.0 + 1e-9);
    }

    #[test]
    fn integral_mode_publishes_integral_rates() {
        let g = gen::hypercube(3);
        let mut eng = Engine::new(
            g,
            EngineConfig {
                sparsity: 2,
                trees: 3,
                integral: true,
                seed: 3,
                ..EngineConfig::default()
            },
        );
        for i in 0..4u32 {
            eng.ingest(Request::unit(NodeId(i), NodeId(7 - i)));
        }
        let snap = eng.run_epoch();
        assert!(snap.congestion >= 1.0 - 1e-9, "unit demands, integral MLU");
        for r in &snap.routes {
            let total: f64 = r.paths.iter().map(|&(_, w)| w).sum();
            assert!((total - r.demand).abs() < 1e-9);
            for &(_, w) in &r.paths {
                assert!((w - w.round()).abs() < 1e-9, "integral rate");
            }
        }
    }
}
