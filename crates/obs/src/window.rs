//! Sliding-window aggregation: live rates over a recorder's metrics and
//! streaming tail-latency percentiles.
//!
//! A [`crate::Recorder`] is cumulative — perfect for post-mortem
//! snapshots, useless for "what is the cache hit rate *right now*". This
//! module adds the live view without touching the hot recording path:
//! a [`WindowRegistry`] samples a [`Snapshot`] once per **tick** (the
//! tick source is injected by the caller — the serving engine ticks once
//! per epoch — so tests stay seeded and reproducible) and keeps the
//! per-tick deltas in fixed-capacity ring buffers. From the rings it
//! derives window rates (1/10/60-tick) and an EWMA-smoothed rate.
//!
//! Because the deltas are differences of the recorder's exact counters,
//! window sums are **exact** under any amount of concurrent
//! `counter_add!` traffic — the concurrency hammer test pins that down.
//!
//! Tail latencies get a different tool: [`LogHistogram`], a mergeable
//! log-bucketed histogram (geometric buckets, [`SUB_BUCKETS`] per
//! doubling) whose quantile estimates are within one bucket — a factor
//! `2^(1/SUB_BUCKETS)` — of the exact sorted-sample quantile. Recording
//! is a couple of relaxed atomic adds, so it is safe on the epoch path.

use crate::Snapshot;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// The standard window lengths, in ticks: instantaneous, short, long.
pub const WINDOWS: [usize; 3] = [1, 10, 60];

/// Ring capacity of each per-metric series — enough for the longest
/// standard window with slack.
pub const DEFAULT_WINDOW_CAPACITY: usize = 64;

/// Default EWMA smoothing factor (weight of the newest tick).
pub const DEFAULT_EWMA_ALPHA: f64 = 0.2;

/// Which recorder facet a window series tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// A counter's value.
    Counter,
    /// A histogram's observation count.
    HistogramCount,
}

impl SeriesKind {
    /// Short label for exposition and dashboards.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::HistogramCount => "histogram",
        }
    }
}

/// Per-metric ring of per-tick deltas plus the EWMA state.
struct Series {
    kind: SeriesKind,
    /// Newest delta at the back; bounded by the window capacity.
    deltas: VecDeque<f64>,
    /// Cumulative value at the most recent tick.
    last_total: f64,
    ewma: f64,
    ticks: u64,
}

impl Series {
    fn new(kind: SeriesKind, capacity: usize) -> Self {
        Series {
            kind,
            deltas: VecDeque::with_capacity(capacity),
            last_total: 0.0,
            ewma: 0.0,
            ticks: 0,
        }
    }

    fn push(&mut self, total: f64, capacity: usize, alpha: f64) {
        // A recorder reset() can pull a cumulative value back below the
        // last sample; treat the new total as the whole delta then.
        let delta = if total >= self.last_total {
            total - self.last_total
        } else {
            total
        };
        self.last_total = total;
        self.deltas.push_back(delta);
        if self.deltas.len() > capacity {
            self.deltas.pop_front();
        }
        self.ewma = if self.ticks == 0 {
            delta
        } else {
            alpha * delta + (1.0 - alpha) * self.ewma
        };
        self.ticks += 1;
    }

    fn window_sum(&self, w: usize) -> f64 {
        self.deltas.iter().rev().take(w.max(1)).sum()
    }

    fn rate(&self, w: usize) -> f64 {
        let w = w.max(1);
        let have = self.deltas.len().min(w).max(1);
        #[allow(clippy::cast_precision_loss)]
        let denom = have as f64;
        self.window_sum(w) / denom
    }
}

/// Point-in-time window view of one metric.
#[derive(Clone, Debug)]
pub struct WindowSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Counter or histogram-count series.
    pub kind: SeriesKind,
    /// Per-tick rate over the last 1 tick (the newest delta).
    pub rate1: f64,
    /// Per-tick rate over the last [`WINDOWS`]`[1]` ticks.
    pub rate10: f64,
    /// Per-tick rate over the last [`WINDOWS`]`[2]` ticks.
    pub rate60: f64,
    /// EWMA-smoothed per-tick rate.
    pub ewma: f64,
    /// Cumulative value at the last tick.
    pub total: f64,
}

/// Sliding-window registry: ring-buffer time-series for every counter
/// and histogram of a sampled [`Snapshot`] (see module docs). All state
/// is behind one lock; ticking and querying are safe from any thread.
pub struct WindowRegistry {
    state: Mutex<Windows>,
    capacity: usize,
    alpha: f64,
}

#[derive(Default)]
struct Windows {
    series: BTreeMap<String, Series>,
    ticks: u64,
}

impl Default for WindowRegistry {
    fn default() -> Self {
        Self::with_config(DEFAULT_WINDOW_CAPACITY, DEFAULT_EWMA_ALPHA)
    }
}

impl WindowRegistry {
    /// Registry with the default capacity and smoothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry with an explicit ring capacity (ticks retained per
    /// metric) and EWMA alpha.
    pub fn with_config(capacity: usize, alpha: f64) -> Self {
        assert!(capacity >= 1, "window registry needs capacity >= 1");
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        WindowRegistry {
            state: Mutex::default(),
            capacity,
            alpha,
        }
    }

    /// Advance the deterministic tick clock by one, ingesting `snap`:
    /// every counter value and histogram count becomes a per-tick delta
    /// in its metric's ring. The caller owns the tick cadence — the
    /// serving engine ticks once per epoch — which is what keeps window
    /// contents seeded-reproducible.
    pub fn tick(&self, snap: &Snapshot) {
        let mut state = self.state.lock();
        state.ticks += 1;
        for c in &snap.counters {
            #[allow(clippy::cast_precision_loss)]
            let total = c.value as f64;
            self.ingest(&mut state, &c.name, SeriesKind::Counter, total);
        }
        for h in &snap.histograms {
            #[allow(clippy::cast_precision_loss)]
            let total = h.count as f64;
            self.ingest(&mut state, &h.name, SeriesKind::HistogramCount, total);
        }
    }

    fn ingest(&self, state: &mut Windows, name: &str, kind: SeriesKind, total: f64) {
        if !state.series.contains_key(name) {
            let series = Series::new(kind, self.capacity);
            state.series.insert(name.to_string(), series);
        }
        if let Some(series) = state.series.get_mut(name) {
            series.push(total, self.capacity, self.alpha);
        }
    }

    /// Ticks observed so far.
    pub fn ticks(&self) -> u64 {
        self.state.lock().ticks
    }

    /// Sum of per-tick deltas of `name` over the last `w` ticks, or
    /// `None` if the metric has never been ticked in.
    pub fn window_sum(&self, name: &str, w: usize) -> Option<f64> {
        self.state.lock().series.get(name).map(|s| s.window_sum(w))
    }

    /// Window view of one metric, or `None` if it has never been ticked
    /// in.
    pub fn rates(&self, name: &str) -> Option<WindowSnapshot> {
        self.state
            .lock()
            .series
            .get(name)
            .map(|s| Self::view(name, s))
    }

    fn view(name: &str, s: &Series) -> WindowSnapshot {
        WindowSnapshot {
            name: name.to_string(),
            kind: s.kind,
            rate1: s.rate(WINDOWS[0]),
            rate10: s.rate(WINDOWS[1]),
            rate60: s.rate(WINDOWS[2]),
            ewma: s.ewma,
            total: s.last_total,
        }
    }

    /// Name-sorted window view of every tracked metric.
    pub fn snapshot(&self) -> Vec<WindowSnapshot> {
        let state = self.state.lock();
        state
            .series
            .iter()
            .map(|(name, s)| Self::view(name, s))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Log-bucketed streaming percentiles
// ---------------------------------------------------------------------

/// Log-histogram resolution: buckets per doubling of the value. Bucket
/// `i` covers `[2^(i/SUB_BUCKETS), 2^((i+1)/SUB_BUCKETS))`, so a
/// quantile estimate is within a factor `2^(1/SUB_BUCKETS)` (~19%) of
/// the exact value — one bucket.
pub const SUB_BUCKETS: usize = 4;

/// Number of log buckets: covers `[1, 2^64)`, i.e. nanosecond latencies
/// up to several centuries.
const NUM_LOG_BUCKETS: usize = 64 * SUB_BUCKETS;

/// A mergeable log-bucketed histogram for streaming percentiles
/// (p50/p90/p99/p999 of epoch wall, re-opt wall, cache lookup, queue
/// wait). Values below 1 land in a dedicated underflow bucket; recording
/// is lock-free (relaxed atomic adds), merging is bucket-wise addition,
/// and quantiles come from a cumulative walk.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    underflow: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: (0..NUM_LOG_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// Bucket index of a value `>= 1`; values below 1 (or non-finite) have
/// no log bucket and live in the underflow bucket. Public so tests can
/// assert the "within one bucket" quantile contract.
pub fn log_bucket_of(v: f64) -> Option<usize> {
    if !v.is_finite() || v < 1.0 {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    let scaled = v.log2() * SUB_BUCKETS as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = scaled.floor().max(0.0) as usize;
    Some(idx.min(NUM_LOG_BUCKETS - 1))
}

/// Inclusive-exclusive upper edge of log bucket `i`.
fn log_bucket_upper(i: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let exp = (i + 1) as f64 / SUB_BUCKETS as f64;
    exp.exp2()
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (a couple of relaxed atomic adds; safe on
    /// the epoch path).
    pub fn observe(&self, v: f64) {
        match log_bucket_of(v) {
            // sor-check: allow(panic-path) — log_bucket_of clamps below the bucket count
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.underflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        let add = if v.is_finite() { v } else { 0.0 };
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Fold another histogram into this one (bucket-wise; the mergeable
    /// property that lets per-shard or per-thread histograms combine).
    pub fn merge(&self, other: &LogHistogram) {
        self.underflow
            .fetch_add(other.underflow.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let add = other.sum();
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed (finite) values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Quantile estimate for `q` in `[0, 1]`: the upper edge of the
    /// bucket holding the rank-`⌈q·count⌉` observation (1.0 for the
    /// underflow bucket). `None` when empty. Within one log bucket of
    /// the exact sorted-sample quantile by construction.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = rank as u64;
        let mut seen = self.underflow.load(Ordering::Relaxed);
        if seen >= rank {
            return Some(1.0);
        }
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(log_bucket_upper(i));
            }
        }
        // Counts raced ahead of buckets under concurrent recording;
        // answer with the largest occupied edge.
        Some(log_bucket_upper(NUM_LOG_BUCKETS - 1))
    }

    /// The standard tail summary: (p50, p90, p99, p999), or `None` when
    /// empty.
    pub fn tail_summary(&self) -> Option<(f64, f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.90)?,
            self.quantile(0.99)?,
            self.quantile(0.999)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterSnapshot, HistogramSnapshot};

    fn snap_with(counters: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            counters: counters
                .iter()
                .map(|&(name, value)| CounterSnapshot {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            histograms: Vec::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn deltas_and_rates_follow_ticks() {
        let w = WindowRegistry::new();
        w.tick(&snap_with(&[("a", 10)]));
        w.tick(&snap_with(&[("a", 30)]));
        w.tick(&snap_with(&[("a", 30)]));
        assert_eq!(w.ticks(), 3);
        let r = w.rates("a").expect("ticked in");
        assert!((r.rate1 - 0.0).abs() < 1e-12, "newest delta is 0");
        assert!((r.rate10 - 10.0).abs() < 1e-12, "(10+20+0)/3 over 3 ticks");
        assert!((r.total - 30.0).abs() < 1e-12);
        assert_eq!(w.window_sum("a", 2), Some(20.0));
        assert_eq!(w.window_sum("missing", 2), None);
    }

    #[test]
    fn ewma_smooths_and_seeds_from_first_delta() {
        let w = WindowRegistry::with_config(8, 0.5);
        w.tick(&snap_with(&[("a", 8)]));
        assert!((w.rates("a").expect("present").ewma - 8.0).abs() < 1e-12);
        w.tick(&snap_with(&[("a", 8)]));
        // 0.5*0 + 0.5*8 = 4
        assert!((w.rates("a").expect("present").ewma - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ring_is_bounded_and_reset_tolerated() {
        let w = WindowRegistry::with_config(4, 0.2);
        for i in 1..=10u64 {
            w.tick(&snap_with(&[("a", i)]));
        }
        // capacity 4: the 60-tick window still only sees 4 deltas of 1
        assert_eq!(w.window_sum("a", 60), Some(4.0));
        // a recorder reset pulls the cumulative value down; the new
        // total counts as the whole delta
        w.tick(&snap_with(&[("a", 3)]));
        assert_eq!(w.window_sum("a", 1), Some(3.0));
    }

    #[test]
    fn histogram_counts_tick_too() {
        let w = WindowRegistry::new();
        let snap = Snapshot {
            counters: Vec::new(),
            histograms: vec![HistogramSnapshot {
                name: "h".to_string(),
                buckets: Vec::new(),
                count: 5,
                sum: 2.5,
            }],
            spans: Vec::new(),
        };
        w.tick(&snap);
        let view = w.snapshot();
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].kind, SeriesKind::HistogramCount);
        assert!((view[0].rate1 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_quantiles_are_within_one_bucket() {
        let h = LogHistogram::new();
        for v in 1..=1000u32 {
            h.observe(f64::from(v));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).expect("non-empty");
        // exact p50 is 500; the estimate is the bucket upper edge
        let exact_bucket = log_bucket_of(500.0).expect("in range");
        let est_bucket = log_bucket_of(p50).expect("in range");
        assert!(
            est_bucket.abs_diff(exact_bucket) <= 1,
            "p50 estimate {p50} is {est_bucket} vs exact bucket {exact_bucket}"
        );
        let (q50, q90, q99, q999) = h.tail_summary().expect("non-empty");
        assert!(q50 <= q90 && q90 <= q99 && q99 <= q999);
    }

    #[test]
    fn empty_log_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        // no bucket-0 (or any) value may leak out of an empty histogram:
        // every quantile, and the tail summary built from them, is None
        for q in [0.0, 0.01, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q} on empty histogram");
        }
        assert_eq!(h.tail_summary(), None);
        // the first observation flips every quantile to a real edge
        h.observe(2.0);
        assert!(h.quantile(0.5).is_some());
        assert!(h.tail_summary().is_some());
    }

    #[test]
    fn log_histogram_underflow_and_merge() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.observe(0.25); // underflow
        a.observe(4.0);
        b.observe(1024.0);
        b.observe(f64::NAN); // counted, no bucket, sum unchanged
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!((a.sum() - (0.25 + 4.0 + 1024.0)).abs() < 1e-9);
        assert_eq!(a.quantile(0.01), Some(1.0), "underflow answers as 1.0");
        let p99 = a.quantile(0.99).expect("non-empty");
        assert!(p99 >= 1024.0, "tail reaches the merged large value");
        assert!(LogHistogram::new().quantile(0.5).is_none());
    }
}
