//! Special demands and the power-of-two bucketing reduction
//! (Definition 5.5, Lemma 5.9).
//!
//! The Main Lemma only handles demands where the ratio `D(u,v) / N_{u,v}`
//! (demand over number of sampled paths) is a fixed constant `θ` on the
//! support — otherwise the Chernoff variables in the deletion process have
//! wildly different scales. Lemma 5.9 recovers arbitrary demands by
//! splitting the support into logarithmically many buckets with
//! near-constant ratio and routing each bucket as if its ratio were the
//! bucket maximum. Experiment E11 ablates this machinery.

use crate::sample::SampledSystem;
use sor_flow::Demand;

/// Whether `demand` is `θ`-special w.r.t. the sample's draw counts:
/// `D(u,v) / N_{u,v} ∈ {0, θ}` for every pair.
pub fn is_special(demand: &Demand, sampled: &SampledSystem, theta: f64) -> bool {
    demand.entries().iter().all(|&(s, t, d)| {
        if d == 0.0 {
            return true;
        }
        let n = sampled.draws(s, t);
        n > 0 && (d / n as f64 - theta).abs() <= 1e-9 * theta.max(1.0)
    })
}

/// Split `demand` into buckets of near-constant ratio `D(u,v) / N(u,v)`:
/// bucket `b` holds the pairs with ratio in `(max_ratio·2^{-(b+1)},
/// max_ratio·2^{-b}]`. Pairs with ratio below `max_ratio·2^{-num_buckets}`
/// land in one final "tail" bucket (their total contribution is tiny, per
/// the Lemma 5.17 tail argument).
pub fn bucketize(
    demand: &Demand,
    draws: impl Fn(sor_graph::NodeId, sor_graph::NodeId) -> usize,
    num_buckets: usize,
) -> Vec<Demand> {
    assert!(num_buckets >= 1);
    let ratios: Vec<f64> = demand
        .entries()
        .iter()
        .map(|&(s, t, d)| {
            let n = draws(s, t);
            assert!(n > 0, "demanded pair {s}→{t} has no sampled paths");
            d / n as f64
        })
        .collect();
    let max_ratio = ratios.iter().copied().fold(0.0, f64::max);
    if max_ratio == 0.0 {
        return vec![Demand::new()];
    }
    let mut buckets: Vec<Vec<(sor_graph::NodeId, sor_graph::NodeId, f64)>> =
        vec![Vec::new(); num_buckets + 1];
    for (&(s, t, d), &r) in demand.entries().iter().zip(&ratios) {
        // bucket index: smallest b with r > max_ratio · 2^{-(b+1)}
        let mut b = 0usize;
        let mut bound = max_ratio / 2.0;
        while r <= bound && b < num_buckets {
            b += 1;
            bound /= 2.0;
        }
        buckets[b].push((s, t, d));
    }
    buckets.into_iter().map(Demand::from_triples).collect()
}

/// The special demand *dominating* a bucket: every pair's amount is raised
/// to `θ · N(u,v)` where `θ` is the bucket's maximum ratio. Routing the
/// dominating demand with congestion `c` routes the bucket with congestion
/// ≤ `c` (congestion is monotone in demands).
pub fn dominating_special(
    bucket: &Demand,
    draws: impl Fn(sor_graph::NodeId, sor_graph::NodeId) -> usize,
) -> Demand {
    let theta = bucket
        .entries()
        .iter()
        .map(|&(s, t, d)| d / draws(s, t) as f64)
        .fold(0.0, f64::max);
    Demand::from_triples(
        bucket
            .entries()
            .iter()
            .map(|&(s, t, _)| (s, t, theta * draws(s, t) as f64)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::sample_k;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::{gen, NodeId};
    use sor_oblivious::KspRouting;

    #[test]
    fn special_detection() {
        let g = gen::cycle_graph(6);
        let r = KspRouting::new(g, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = [(NodeId(0), NodeId(3)), (NodeId(1), NodeId(4))];
        let sampled = sample_k(&r, &pairs, 4, &mut rng);
        // each pair drew 4 paths; demand 2 per pair → θ = 0.5
        let d = Demand::from_triples([(NodeId(0), NodeId(3), 2.0), (NodeId(1), NodeId(4), 2.0)]);
        assert!(is_special(&d, &sampled, 0.5));
        assert!(!is_special(&d, &sampled, 0.25));
        let skew = Demand::from_triples([(NodeId(0), NodeId(3), 2.0), (NodeId(1), NodeId(4), 1.0)]);
        assert!(!is_special(&skew, &sampled, 0.5));
    }

    #[test]
    fn bucketize_partitions_demand() {
        let d = Demand::from_triples([
            (NodeId(0), NodeId(1), 8.0),
            (NodeId(0), NodeId(2), 4.0),
            (NodeId(0), NodeId(3), 1.0),
            (NodeId(0), NodeId(4), 0.01),
        ]);
        let buckets = bucketize(&d, |_, _| 4, 6);
        let total: f64 = buckets.iter().map(Demand::size).sum();
        assert!((total - d.size()).abs() < 1e-9, "buckets lose demand");
        // the two heavy pairs land in distinct-or-adjacent buckets; the
        // 0.01 pair is far down
        let heavy_bucket = buckets
            .iter()
            .position(|b| b.entries().iter().any(|&(_, t, _)| t == NodeId(1)))
            .unwrap();
        let tiny_bucket = buckets
            .iter()
            .position(|b| b.entries().iter().any(|&(_, t, _)| t == NodeId(4)))
            .unwrap();
        assert!(tiny_bucket > heavy_bucket);
    }

    #[test]
    fn bucket_ratios_within_factor_two() {
        let d = Demand::from_triples([
            (NodeId(0), NodeId(1), 5.0),
            (NodeId(0), NodeId(2), 3.0),
            (NodeId(0), NodeId(3), 2.9),
            (NodeId(0), NodeId(4), 0.7),
        ]);
        let buckets = bucketize(&d, |_, _| 2, 8);
        for b in buckets.iter().take(8) {
            let ratios: Vec<f64> = b.entries().iter().map(|&(_, _, a)| a / 2.0).collect();
            if ratios.len() >= 2 {
                let mx = ratios.iter().copied().fold(0.0, f64::max);
                let mn = ratios.iter().copied().fold(f64::INFINITY, f64::min);
                assert!(mx / mn <= 2.0 + 1e-9, "bucket spans ratio {mx}/{mn}");
            }
        }
    }

    #[test]
    fn dominating_special_dominates_and_is_special() {
        let g = gen::cycle_graph(6);
        let r = KspRouting::new(g, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let pairs = [(NodeId(0), NodeId(3)), (NodeId(1), NodeId(4))];
        let sampled = sample_k(&r, &pairs, 4, &mut rng);
        let bucket =
            Demand::from_triples([(NodeId(0), NodeId(3), 2.0), (NodeId(1), NodeId(4), 1.2)]);
        let dom = dominating_special(&bucket, |s, t| sampled.draws(s, t));
        assert!(is_special(&dom, &sampled, 0.5));
        for (&(_, _, a), &(_, _, b)) in bucket.entries().iter().zip(dom.entries()) {
            assert!(b >= a - 1e-12);
        }
    }
}
