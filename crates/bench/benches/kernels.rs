//! Criterion benches for the computational kernels underneath the
//! experiments: graph algorithms, solvers, constructions. These are the
//! hot paths a downstream user of the library pays for.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "driver code: a broken benchmark setup stops the run"
)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sor_core::process::deletion_process;
use sor_core::sample::{demand_pairs, sample_k};
use sor_core::SemiObliviousRouting;
use sor_flow::demand::random_permutation;
use sor_flow::max_concurrent_flow;
use sor_graph::{dijkstra, gen, max_flow, yen_ksp, NodeId};
use sor_oblivious::frt::FrtTree;
use sor_oblivious::routing::ObliviousRouting;
use sor_oblivious::{RaeckeRouting, ValiantHypercube};
use sor_sched::{simulate, Policy};

fn bench_graph_kernels(c: &mut Criterion) {
    let g = gen::hypercube(8);
    let len = g.unit_lengths();
    c.bench_function("dijkstra_q8", |b| b.iter(|| dijkstra(&g, NodeId(0), &len)));
    c.bench_function("dinic_maxflow_q8", |b| {
        b.iter(|| max_flow(&g, NodeId(0), NodeId(255)))
    });
    let grid = gen::grid(8, 8);
    c.bench_function("yen_ksp8_grid8x8", |b| {
        b.iter(|| yen_ksp(&grid, NodeId(0), NodeId(63), 8, &grid.unit_lengths()))
    });
}

fn bench_constructions(c: &mut Criterion) {
    let g = gen::grid(6, 6);
    c.bench_function("frt_tree_grid6x6", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(1),
            |mut rng| FrtTree::build(&g, &g.unit_lengths(), &mut rng),
            BatchSize::SmallInput,
        )
    });
    let mut group = c.benchmark_group("raecke_build");
    group.sample_size(10);
    group.bench_function("grid6x6_8trees", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(2),
            |mut rng| RaeckeRouting::build(g.clone(), 8, &mut rng),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("grid6x6_spectral_8", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(2),
            |mut rng| sor_oblivious::HierRouting::build(g.clone(), 8, &mut rng),
            BatchSize::SmallInput,
        )
    });
    group.finish();

    c.bench_function("electrical_distribution_grid6x6", |b| {
        let r = sor_oblivious::ElectricalRouting::new(g.clone());
        let mut i = 0u32;
        b.iter(|| {
            // rotate over targets so the per-pair cache doesn't trivialize
            i = (i + 1) % 35;
            r.path_distribution(NodeId(0), NodeId(i + 1))
        })
    });
}

fn bench_sampling_and_adaptation(c: &mut Criterion) {
    let g = gen::hypercube(6);
    let valiant = ValiantHypercube::new(g.clone());
    let mut drng = StdRng::seed_from_u64(3);
    let demand = random_permutation(&g, &mut drng);
    let pairs = demand_pairs(&demand);

    c.bench_function("sample_k6_q6_perm", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(4),
            |mut rng| sample_k(&valiant, &pairs, 6, &mut rng),
            BatchSize::SmallInput,
        )
    });

    let mut rng = StdRng::seed_from_u64(5);
    let sampled = sample_k(&valiant, &pairs, 6, &mut rng);
    let sor = SemiObliviousRouting::new(g.clone(), sampled.system.clone());
    let mut group = c.benchmark_group("rate_adaptation");
    group.sample_size(20);
    group.bench_function("mwu_restricted_q6_perm", |b| {
        b.iter(|| sor.congestion(&demand, 0.2))
    });
    group.finish();

    let mut group = c.benchmark_group("offline_opt");
    group.sample_size(10);
    group.bench_function("mcf_q6_perm", |b| {
        b.iter(|| max_concurrent_flow(&g, &demand, 0.2))
    });
    group.finish();

    c.bench_function("deletion_process_q6", |b| {
        b.iter(|| deletion_process(&g, &sampled, &demand, 2.0))
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let g = gen::hypercube(7);
    let routes: Vec<_> = gen::bit_reversal_perm(7)
        .into_iter()
        .filter(|(s, t)| s != t)
        .map(|(s, t)| sor_graph::bfs_path(&g, s, t).expect("connected"))
        .collect();
    c.bench_function("store_and_forward_q7_bitrev", |b| {
        b.iter(|| simulate(&g, &routes, Policy::RandomPriority { seed: 1 }))
    });
}

criterion_group!(
    benches,
    bench_graph_kernels,
    bench_constructions,
    bench_sampling_and_adaptation,
    bench_scheduler
);
criterion_main!(benches);
