//! The run-scoped recorder: one run's counters, fixed-bucket histograms
//! and span phase tree.
//!
//! A [`Recorder`] is a cheap, cloneable handle to one run's metric
//! store. The run installs it as its thread's *current* recorder for a
//! scope ([`Recorder::install`]); the recording entry points —
//! [`crate::span`], [`count`], [`observe`] and the [`crate::counter_add!`]
//! / [`crate::observe_into!`] macros — write to the current recorder and
//! do nothing when none is installed. Nothing here is process-global: two
//! runs on two threads with two recorders never see each other's
//! numbers, and several threads that install clones of one recorder sum
//! into it exactly.
//!
//! The store's lock guards only the name → metric maps. Each counter is
//! a shared atomic and each histogram has its own lock; an installed
//! scope caches the cells it has touched, keyed by the name's address
//! (call sites pass string literals), so a repeat recording call takes
//! no store lock and compares no strings.

use crate::span::SpanSnapshot;
use crate::Snapshot;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Power-of-two bucket edges for small nonnegative counts (hop lengths,
/// queue depths): `≤1, ≤2, ≤4, …, ≤128`, plus the implicit overflow
/// bucket.
pub const POW2_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Geometric bucket edges around 1.0 for ratio-like values (per-edge
/// load / congestion): `≤⅛ … ≤32`, plus the implicit overflow bucket.
pub const RATIO_BUCKETS: [f64; 9] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Internal path separator for span keys. Span *names* use `/` freely;
/// `;` is reserved (a name containing it would corrupt the tree).
pub(crate) const SEP: char = ';';

/// A fixed-bucket histogram: `bounds` are inclusive upper edges; one
/// extra overflow bucket catches everything above the last edge.
#[derive(Debug)]
struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        debug_assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite — the overflow bucket (le: null / le=\"+Inf\") \
             is implicit and always present"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// A value exactly on a bucket edge lands in that bucket (edges are
    /// inclusive upper bounds); values above the last edge overflow.
    fn observe(&mut self, v: f64) {
        let idx = self.bounds.partition_point(|b| *b < v);
        if let Some(bucket) = self.buckets.get_mut(idx) {
            *bucket += 1;
        }
        self.count += 1;
        self.sum += v;
    }

    fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0.0;
    }

    fn export(&self, name: &str) -> HistogramSnapshot {
        let buckets = self
            .bounds
            .iter()
            .map(|&b| Some(b))
            .chain(std::iter::once(None))
            .zip(&self.buckets)
            .map(|(le, &count)| BucketCount { le, count })
            .collect();
        HistogramSnapshot {
            name: name.to_string(),
            buckets,
            count: self.count,
            sum: self.sum,
        }
    }
}

/// One bucket of a [`HistogramSnapshot`]: the inclusive upper edge
/// (`None` = overflow bucket) and the count that landed in it.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketCount {
    /// Inclusive upper edge; `None` for the overflow bucket.
    pub le: Option<f64>,
    /// Observations in this bucket.
    pub count: u64,
}

/// Snapshot of one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshot of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Per-bucket edges and counts (overflow bucket last).
    pub buckets: Vec<BucketCount>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

type CounterCell = Arc<AtomicU64>;
type HistogramCell = Arc<Mutex<Histogram>>;

#[derive(Debug, Default)]
struct Store {
    counters: BTreeMap<&'static str, CounterCell>,
    histograms: BTreeMap<&'static str, HistogramCell>,
    /// Span path (segments joined by [`SEP`]) → (calls, total ns).
    spans: HashMap<String, (u64, u64)>,
}

/// One run's metric store (see module docs). Clones share the store.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    store: Arc<Mutex<Store>>,
}

/// A name's identity on the recording path: the address and length of
/// its `&'static str`. One name at two addresses takes two cache slots
/// holding the same cell.
type NameKey = (usize, usize);

/// Multiplicative hashing for [`NameKey`]s: they are addresses, so one
/// multiply per word spreads them and no flooding defence is needed.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type Cells<T> = HashMap<NameKey, Arc<T>, BuildHasherDefault<AddrHasher>>;

/// The cached cell for `name`, fetched with `cell` on first touch.
fn cached<'a, T>(
    cells: &'a mut Cells<T>,
    name: &'static str,
    cell: impl FnOnce() -> Arc<T>,
) -> &'a T {
    cells
        .entry((name.as_ptr().addr(), name.len()))
        .or_insert_with(cell)
}

/// A thread's installed recorder plus the cells it has touched.
#[derive(Debug)]
struct Installed {
    rec: Recorder,
    counters: Cells<AtomicU64>,
    histograms: Cells<Mutex<Histogram>>,
}

thread_local! {
    /// The recorder installed on this thread, if any.
    static CURRENT: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

/// Guard returned by [`Recorder::install`]: reinstates the previously
/// current recorder when dropped. Not `Send` — it belongs to the thread
/// that installed it.
#[must_use = "the recorder is current only while the guard lives"]
pub struct RecorderScope {
    prev: Option<Installed>,
    _thread: PhantomData<*const ()>,
}

impl Drop for RecorderScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        // try_with: a guard dropped during thread teardown must not panic
        let _ = CURRENT.try_with(|cur| *cur.borrow_mut() = prev);
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make this recorder the calling thread's current recorder until
    /// the returned guard drops. Scopes nest: the guard restores
    /// whatever was current before.
    pub fn install(&self) -> RecorderScope {
        let installed = Installed {
            rec: self.clone(),
            counters: Cells::default(),
            histograms: Cells::default(),
        };
        let prev = CURRENT.with(|cur| cur.replace(Some(installed)));
        RecorderScope {
            prev,
            _thread: PhantomData,
        }
    }

    /// The calling thread's current recorder, if one is installed.
    pub fn current() -> Option<Recorder> {
        CURRENT.with(|cur| cur.borrow().as_ref().map(|inst| inst.rec.clone()))
    }

    /// The cell of counter `name`, registering it on first touch.
    fn counter_cell(&self, name: &'static str) -> CounterCell {
        Arc::clone(self.store.lock().counters.entry(name).or_default())
    }

    /// The cell of histogram `name`, registering it with `bounds` on
    /// first touch.
    fn histogram_cell(&self, name: &'static str, bounds: &[f64]) -> HistogramCell {
        Arc::clone(
            self.store
                .lock()
                .histograms
                .entry(name)
                .or_insert_with(|| Arc::new(Mutex::new(Histogram::new(bounds)))),
        )
    }

    /// Add `n` to counter `name` (registering it on first touch).
    pub fn add(&self, name: &'static str, n: u64) {
        self.counter_cell(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Record `v` into histogram `name`, registering it with `bounds`
    /// (inclusive upper edges) on first touch.
    pub fn observe(&self, name: &'static str, bounds: &[f64], v: f64) {
        self.histogram_cell(name, bounds).lock().observe(v);
    }

    pub(crate) fn record_span(&self, key: String, ns: u64) {
        let mut store = self.store.lock();
        let (calls, total) = store.spans.entry(key).or_default();
        *calls += 1;
        *total = total.saturating_add(ns);
    }

    /// Zero every counter and histogram in place and clear the span
    /// tree. Registered names stay, so a later snapshot still lists them
    /// (at zero).
    pub fn reset(&self) {
        let mut store = self.store.lock();
        for c in store.counters.values() {
            c.store(0, Ordering::Relaxed);
        }
        for h in store.histograms.values() {
            h.lock().reset();
        }
        store.spans.clear();
    }

    /// Name-sorted counters and histograms plus the span tree.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.metrics_snapshot();
        snap.spans = self.span_snapshots();
        snap
    }

    /// Name-sorted counters and histograms, without the span tree (what
    /// a window tick or an exposition needs).
    pub fn metrics_snapshot(&self) -> Snapshot {
        let store = self.store.lock();
        Snapshot {
            counters: store
                .counters
                .iter()
                .map(|(&name, counter)| CounterSnapshot {
                    name: name.to_string(),
                    value: counter.load(Ordering::Relaxed),
                })
                .collect(),
            histograms: store
                .histograms
                .iter()
                .map(|(name, h)| h.lock().export(name))
                .collect(),
            spans: Vec::new(),
        }
    }

    /// The phase tree, sorted by path (parents sort before their
    /// children, so iteration order is a pre-order walk).
    fn span_snapshots(&self) -> Vec<SpanSnapshot> {
        let mut nodes: Vec<SpanSnapshot> = self
            .store
            .lock()
            .spans
            .iter()
            .map(|(key, &(calls, total_ns))| SpanSnapshot {
                path: key.split(SEP).map(str::to_string).collect(),
                calls,
                total_ns,
                self_ns: total_ns,
            })
            .collect();
        nodes.sort_by(|a, b| a.path.cmp(&b.path));
        // Subtract each node's total from its parent's self time.
        for i in 0..nodes.len() {
            let (path, child_total) = (nodes[i].path.clone(), nodes[i].total_ns);
            let Some((_, parent)) = path.split_last() else {
                continue;
            };
            if let Some(p) = nodes.iter_mut().find(|n| n.path == parent) {
                p.self_ns = p.self_ns.saturating_sub(child_total);
            }
        }
        nodes
    }

    /// Render this recorder's phase tree — the `--trace` report.
    pub fn phase_report(&self) -> String {
        crate::span::render_phase_tree(&self.span_snapshots())
    }
}

/// Run `f` against the calling thread's installed scope, if any.
fn with_current(f: impl FnOnce(&mut Installed)) {
    CURRENT.with(|cur| {
        if let Some(inst) = cur.borrow_mut().as_mut() {
            f(inst);
        }
    });
}

/// Whether a recorder is installed on the calling thread — i.e. whether
/// recording calls here do anything.
#[inline]
pub fn enabled() -> bool {
    CURRENT.with(|cur| cur.borrow().is_some())
}

/// Add `n` to counter `name` on the current recorder (no-op without
/// one).
#[inline]
pub fn count(name: &'static str, n: u64) {
    with_current(|inst| {
        cached(&mut inst.counters, name, || inst.rec.counter_cell(name))
            .fetch_add(n, Ordering::Relaxed);
    });
}

/// [`count`] with a `usize` increment (saturating into `u64`).
#[inline]
pub fn count_usize(name: &'static str, n: usize) {
    count(name, u64::try_from(n).unwrap_or(u64::MAX));
}

/// Record `v` into histogram `name` on the current recorder, registering
/// it with `bounds` on first touch (no-op without a recorder).
#[inline]
pub fn observe(name: &'static str, bounds: &[f64], v: f64) {
    with_current(|inst| {
        cached(&mut inst.histograms, name, || {
            inst.rec.histogram_cell(name, bounds)
        })
        .lock()
        .observe(v);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let r = Recorder::new();
        r.add("metrics/test/counter", 1);
        r.add("metrics/test/counter", 4);
        assert_eq!(r.snapshot().counters[0].value, 5);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(0.5); // ≤1
        h.observe(1.0); // ≤1 (exactly on the edge)
        h.observe(1.0000001); // ≤2
        h.observe(2.0); // ≤2
        h.observe(4.0); // ≤4
        h.observe(100.0); // overflow
        assert_eq!(h.buckets, vec![2, 2, 1, 1]);
        assert_eq!(h.count, 6);
        assert!((h.sum - (0.5 + 1.0 + 1.0000001 + 2.0 + 4.0 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_extreme_values() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.0);
        h.observe(-3.0); // below every edge → first bucket
        h.observe(f64::INFINITY); // overflow bucket
        assert_eq!(h.buckets, vec![2, 1]);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Recorder::new();
        r.add("metrics/test/b", 1);
        r.add("metrics/test/a", 2);
        r.observe("metrics/test/h", &[1.0], 0.5);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["metrics/test/a", "metrics/test/b"]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].buckets.len(), 2);
        assert_eq!(snap.histograms[0].buckets[1].le, None);
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "reset stores exactly 0.0")]
    fn reset_zeroes_in_place() {
        let r = Recorder::new();
        r.add("metrics/test/reset", 7);
        r.observe("metrics/test/reset_h", &[1.0], 0.5);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].value, 0, "name kept, value zeroed");
        assert_eq!(snap.histograms[0].count, 0);
        assert_eq!(snap.histograms[0].sum, 0.0);
    }

    #[test]
    fn free_functions_follow_the_installed_recorder() {
        count("metrics/test/nobody", 1); // no recorder: dropped
        assert!(!enabled());
        let outer = Recorder::new();
        let inner = Recorder::new();
        {
            let _outer = outer.install();
            count("metrics/test/scoped", 1);
            {
                let _inner = inner.install();
                count_usize("metrics/test/scoped", 2);
                observe("metrics/test/scoped_h", &POW2_BUCKETS, 3.0);
            }
            count("metrics/test/scoped", 4); // outer again
        }
        assert!(!enabled());
        assert_eq!(outer.snapshot().counters[0].value, 5);
        let inner_snap = inner.snapshot();
        assert_eq!(inner_snap.counters[0].value, 2);
        assert_eq!(inner_snap.histograms[0].count, 1);
    }

    #[test]
    fn cached_cells_survive_reset_and_are_shared_across_threads() {
        let rec = Recorder::new();
        let _scope = rec.install();
        count("metrics/test/cell", 2);
        observe("metrics/test/cell_h", &POW2_BUCKETS, 1.0);
        rec.reset();
        count("metrics/test/cell", 3); // through the cached cell
        observe("metrics/test/cell_h", &POW2_BUCKETS, 4.0);
        let other = std::thread::spawn({
            let rec = rec.clone();
            move || {
                let _scope = rec.install();
                count("metrics/test/cell", 1);
            }
        });
        assert!(other.join().is_ok());
        let snap = rec.snapshot();
        assert_eq!(snap.counters[0].value, 4);
        assert_eq!((snap.histograms[0].count, snap.histograms[0].sum), (1, 4.0));
    }
}
