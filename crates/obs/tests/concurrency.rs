//! Concurrency hammer for the run-scoped recorder.
//!
//! The recorder's contract: every thread that installs a clone of one
//! [`Recorder`] records into it, so totals are exact however the threads
//! interleave; threads with different recorders never see each other's
//! numbers.

use sor_obs::Recorder;
use std::sync::Barrier;
use std::thread;

const THREADS: u64 = 8;
const ITERS: u64 = 10_000;

fn counter_value(rec: &Recorder, name: &str) -> u64 {
    rec.snapshot()
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

#[test]
fn threads_hammering_macros_sum_exactly() {
    let rec = Recorder::new();

    thread::scope(|s| {
        for t in 0..THREADS {
            let rec = rec.clone();
            s.spawn(move || {
                let _scope = rec.install();
                for i in 0..ITERS {
                    sor_obs::counter_add!("conc/hammer/adds");
                    sor_obs::counter_add!("conc/hammer/weighted", t + 1);
                    #[allow(clippy::cast_precision_loss)]
                    let value = i as f64;
                    sor_obs::observe_into!("conc/hammer/histo", &[64.0, 4096.0], value);
                }
            });
        }
    });

    assert_eq!(counter_value(&rec, "conc/hammer/adds"), THREADS * ITERS);
    // sum over t of (t+1) * ITERS = ITERS * THREADS*(THREADS+1)/2
    assert_eq!(
        counter_value(&rec, "conc/hammer/weighted"),
        ITERS * THREADS * (THREADS + 1) / 2
    );

    let snap = rec.snapshot();
    let h = snap
        .histograms
        .iter()
        .find(|h| h.name == "conc/hammer/histo")
        .expect("registered");
    assert_eq!(h.count, THREADS * ITERS);
    // per-bucket counts are exact too: values 0..ITERS, le edges 64/4096
    assert_eq!(h.buckets[0].count, THREADS * 65); // 0..=64
    assert_eq!(h.buckets[1].count, THREADS * (4096 - 64)); // 65..=4096
    assert_eq!(h.buckets[2].count, THREADS * (ITERS - 4097)); // overflow
                                                              // sum of 0..ITERS per thread, exact in f64 well below 2^53
    #[allow(clippy::cast_precision_loss)]
    let expect_sum = (THREADS * ITERS * (ITERS - 1) / 2) as f64;
    assert!((h.sum - expect_sum).abs() < 1e-6);
}

#[test]
fn threads_with_their_own_recorders_do_not_bleed() {
    let recs: Vec<Recorder> = (0..THREADS).map(|_| Recorder::new()).collect();
    let start = Barrier::new(recs.len());
    thread::scope(|s| {
        for (t, rec) in (1..).zip(&recs) {
            let start = &start;
            s.spawn(move || {
                let _scope = rec.install();
                start.wait(); // every thread records at once
                let _span = sor_obs::span("conc/own/span");
                for _ in 0..ITERS {
                    sor_obs::counter_add!("conc/own/adds", t);
                }
            });
        }
    });
    for (t, rec) in (1..).zip(&recs) {
        let snap = rec.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, t * ITERS);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].calls, 1);
    }
}
