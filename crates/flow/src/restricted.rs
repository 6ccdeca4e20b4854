//! Min-congestion routing *restricted to a candidate path system* — the
//! semi-oblivious Stage 4 (Definition 5.1: `cong(P, D)` is the optimal
//! congestion over routings supported on the path system `P`).
//!
//! Same exponential-length MWU as [`crate::concurrent`], but the shortest
//! path oracle only chooses among each pair's candidate paths, so each
//! oracle call is a cheap scan instead of a Dijkstra.

use crate::loads::EdgeLoads;
use sor_graph::{Graph, NodeId, Path};

/// A solution to the restricted min-congestion problem.
#[derive(Clone, Debug)]
pub struct RestrictedSolution {
    /// `weights[j][i]` = flow assigned to candidate path `i` of entry `j`;
    /// sums to the entry's demand.
    pub weights: Vec<Vec<f64>>,
    /// Per-edge loads of the routing.
    pub loads: EdgeLoads,
    /// Max congestion of the routing (upper bound on the restricted OPT).
    pub congestion: f64,
    /// Certified LP lower bound on the restricted OPT congestion.
    pub lower_bound: f64,
}

/// One commodity of a restricted instance: `(source, target, demand)` plus
/// its candidate paths.
#[derive(Clone, Debug)]
pub struct RestrictedEntry<'a> {
    /// Source vertex.
    pub s: NodeId,
    /// Target vertex.
    pub t: NodeId,
    /// Amount to route.
    pub demand: f64,
    /// Candidate paths (each must run `s → t`).
    pub paths: &'a [Path],
}

/// Compute a `(1+O(ε))`-approximate min-congestion fractional routing of
/// the given entries where entry `j` may only use `entries[j].paths`.
///
/// Panics if an entry has positive demand but no candidate paths, or if a
/// candidate path has the wrong endpoints (debug only).
pub fn restricted_min_congestion(
    g: &Graph,
    entries: &[RestrictedEntry<'_>],
    eps: f64,
) -> RestrictedSolution {
    assert!(eps > 0.0 && eps < 1.0);
    let _span = sor_obs::span("mwu/restricted");
    let m = g.num_edges();
    let active: Vec<usize> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.demand > 0.0)
        .map(|(j, _)| j)
        .collect();
    for &j in &active {
        let e = &entries[j];
        assert!(
            !e.paths.is_empty(),
            "entry {}→{} has demand {} but no candidate paths",
            e.s,
            e.t,
            e.demand
        );
        debug_assert!(e
            .paths
            .iter()
            .all(|p| p.source() == e.s && p.target() == e.t));
    }
    let mut weights: Vec<Vec<f64>> = entries.iter().map(|e| vec![0.0; e.paths.len()]).collect();
    if active.is_empty() || m == 0 {
        return RestrictedSolution {
            weights,
            loads: EdgeLoads::zeros(m),
            congestion: 0.0,
            lower_bound: 0.0,
        };
    }

    let delta = (m as f64 / (1.0 - eps)).powf(-1.0 / eps);
    let mut len: Vec<f64> = g.edges().iter().map(|e| delta / e.cap).collect();
    let mut volume: f64 = delta * m as f64;
    let mut phases: u64 = 0;
    const MAX_PHASES: u64 = 1_000_000;

    while volume < 1.0 {
        phases += 1;
        sor_obs::counter_add!("flow/restricted/phases");
        assert!(phases <= MAX_PHASES, "restricted-flow phase bound exceeded");
        // counted per phase: the scan loop is too tight for a recorder call
        let mut scans = 0u64;
        for &j in &active {
            let entry = &entries[j];
            let mut remaining = entry.demand;
            while remaining > 1e-15 {
                scans += 1;
                // cheapest candidate under current lengths (total_cmp
                // keeps this well-defined even for NaN lengths, and the
                // nonempty-candidates assert above makes `best` valid)
                let mut best = 0usize;
                let mut best_len = f64::INFINITY;
                for (i, p) in entry.paths.iter().enumerate() {
                    let l = p.length(&len);
                    if l.total_cmp(&best_len).is_lt() {
                        best = i;
                        best_len = l;
                    }
                }
                let path = &entry.paths[best];
                let bottleneck = path
                    .edges()
                    .iter()
                    .map(|&e| g.cap(e))
                    .fold(f64::INFINITY, f64::min);
                let f = remaining.min(bottleneck);
                weights[j][best] += f;
                for &e in path.edges() {
                    let cap = g.cap(e);
                    let old = len[e.index()];
                    let new = old * (1.0 + eps * f / cap);
                    len[e.index()] = new;
                    volume += cap * (new - old);
                }
                remaining -= f;
            }
        }
        if scans > 0 {
            sor_obs::counter_add!("flow/restricted/oracle_scans", scans);
        }
    }

    // Scale the accumulated weights so each entry routes its demand once.
    let scale = 1.0 / phases as f64;
    let mut loads = EdgeLoads::zeros(m);
    for (j, entry) in entries.iter().enumerate() {
        for (i, w) in weights[j].iter_mut().enumerate() {
            *w *= scale;
            if *w > 0.0 {
                loads.add_path(&entry.paths[i], *w);
            }
        }
    }
    let congestion = loads.congestion(g);

    // Dual bound restricted to the path system: dist is the min candidate
    // length under the final ℓ.
    let mut alpha = 0.0;
    for &j in &active {
        let entry = &entries[j];
        let dist = entry
            .paths
            .iter()
            .map(|p| p.length(&len))
            .fold(f64::INFINITY, f64::min);
        alpha += entry.demand * dist;
    }
    let lower_bound = alpha / volume;

    let sol = RestrictedSolution {
        weights,
        loads,
        congestion,
        lower_bound,
    };
    #[expect(
        clippy::panic,
        reason = "a validator failure is a solver bug, not recoverable state"
    )]
    if crate::validate::validators_enabled() {
        if let Err(msg) = crate::validate::check_restricted(g, entries, &sol) {
            panic!("restricted_min_congestion produced an invalid solution: {msg}");
        }
    }
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_graph::{gen, yen_ksp};

    fn entry<'a>(s: u32, t: u32, d: f64, paths: &'a [Path]) -> RestrictedEntry<'a> {
        RestrictedEntry {
            s: NodeId(s),
            t: NodeId(t),
            demand: d,
            paths,
        }
    }

    #[test]
    fn splits_over_two_candidates() {
        // C4, 0→2, both 2-hop paths offered: congestion 0.5.
        let g = gen::cycle_graph(4);
        let paths = yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths());
        assert_eq!(paths.len(), 2);
        let entries = [entry(0, 2, 1.0, &paths)];
        let sol = restricted_min_congestion(&g, &entries, 0.05);
        assert!((sol.congestion - 0.5).abs() < 0.06, "{}", sol.congestion);
        assert!(sol.lower_bound > 0.4 && sol.lower_bound <= sol.congestion + 1e-9);
        let total: f64 = sol.weights[0].iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // near-even split
        assert!((sol.weights[0][0] - 0.5).abs() < 0.1);
    }

    #[test]
    fn single_candidate_forces_path() {
        let g = gen::cycle_graph(4);
        let paths = yen_ksp(&g, NodeId(0), NodeId(2), 1, &g.unit_lengths());
        let entries = [entry(0, 2, 2.0, &paths)];
        let sol = restricted_min_congestion(&g, &entries, 0.05);
        assert!((sol.congestion - 2.0).abs() < 0.2, "{}", sol.congestion);
    }

    #[test]
    fn restriction_costs_versus_full_graph() {
        // Dumbbell with 3 bridges, demand 1 across; offering only one
        // bridge path forces congestion ~1, while the full graph gets ~1/3.
        let g = gen::dumbbell(4, 3);
        let all = yen_ksp(&g, NodeId(0), NodeId(4), 8, &g.unit_lengths());
        let one = vec![all[0].clone()];
        let full_entries = [entry(0, 4, 1.0, &all)];
        let one_entries = [entry(0, 4, 1.0, &one)];
        let full = restricted_min_congestion(&g, &full_entries, 0.05);
        let single = restricted_min_congestion(&g, &one_entries, 0.05);
        assert!(full.congestion < 0.45, "{}", full.congestion);
        assert!(single.congestion > 0.9, "{}", single.congestion);
    }

    #[test]
    fn multiple_commodities_share() {
        // Two commodities on C6 with overlapping candidate sets.
        let g = gen::cycle_graph(6);
        let p02 = yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths());
        let p35 = yen_ksp(&g, NodeId(3), NodeId(5), 2, &g.unit_lengths());
        let entries = [entry(0, 2, 1.0, &p02), entry(3, 5, 1.0, &p35)];
        let sol = restricted_min_congestion(&g, &entries, 0.1);
        // The short arcs are edge-disjoint but the long alternatives all
        // overlap, so the fractional optimum here is exactly 1.
        assert!(sol.congestion <= 1.15, "{}", sol.congestion);
        assert!(sol.congestion >= 0.9, "{}", sol.congestion);
        assert!(sol.lower_bound <= sol.congestion + 1e-9);
    }

    #[test]
    fn zero_demand_entries_ignored() {
        let g = gen::cycle_graph(4);
        let paths = yen_ksp(&g, NodeId(0), NodeId(2), 2, &g.unit_lengths());
        let empty: Vec<Path> = Vec::new();
        let entries = [entry(0, 2, 0.0, &empty), entry(0, 2, 1.0, &paths)];
        let sol = restricted_min_congestion(&g, &entries, 0.1);
        assert!(sol.congestion > 0.0);
        assert!(sol.weights[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "no candidate paths")]
    fn demand_without_paths_panics() {
        let g = gen::cycle_graph(4);
        let empty: Vec<Path> = Vec::new();
        let entries = [entry(0, 2, 1.0, &empty)];
        restricted_min_congestion(&g, &entries, 0.1);
    }

    use sor_graph::NodeId;
}
