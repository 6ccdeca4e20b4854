//! Criterion wrappers around the experiment harness itself: one bench per
//! experiment id (quick configuration), so `cargo bench` regenerates and
//! times every table/figure end to end.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "driver code: a broken experiment setup stops the run"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments_quick");
    group.sample_size(10);
    // each experiment is seconds-scale; cap criterion's budget so the
    // whole suite stays in the minutes range
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for id in sor_bench::IDS {
        group.bench_function(id, |b| {
            b.iter(|| {
                let t = sor_bench::run_one(id, true).expect("known id");
                assert!(!t.rows.is_empty());
                t
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
