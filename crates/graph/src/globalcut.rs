//! Stoer–Wagner global minimum cut.
//!
//! The `ℓ`-sparsity notion (Definition 2.1) and the Section 2.1 dumbbell
//! discussion are phrased in terms of cuts; the global min cut gives the
//! floor over all pairs (`mincut(G) = min_{u,v} mincut(u,v)`), which the
//! experiments use to size `(s + cut)`-samples and to sanity-check the
//! per-pair Dinic values.

use crate::graph::{Graph, NodeId};

/// Value and one side of a global minimum cut (weight = sum of
/// capacities crossing). Panics on graphs with fewer than 2 vertices;
/// returns `(0.0, side)` for disconnected graphs.
pub fn stoer_wagner(g: &Graph) -> (f64, Vec<NodeId>) {
    let n = g.num_nodes();
    assert!(n >= 2, "global min cut needs at least 2 vertices");
    // Dense weight matrix of merged capacities — the experiment graphs
    // are small-to-medium; O(n²) memory is fine and keeps the classic
    // algorithm simple and correct.
    let mut w = vec![vec![0.0f64; n]; n];
    for e in g.edges() {
        w[e.u.index()][e.v.index()] += e.cap;
        w[e.v.index()][e.u.index()] += e.cap;
    }
    // `members[v]` = original vertices merged into supervertex v.
    let mut members: Vec<Vec<u32>> = (0..n).map(|v| vec![NodeId::from_usize(v).0]).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = (f64::INFINITY, Vec::new());

    while active.len() > 1 {
        // minimum cut phase
        let mut weights = vec![0.0f64; n];
        let mut in_a = vec![false; n];
        let mut prev = usize::MAX;
        let mut last = usize::MAX;
        for _ in 0..active.len() {
            // pick the most tightly connected remaining vertex
            #[expect(
                clippy::expect_used,
                reason = "weights are finite and the active set is nonempty"
            )]
            let next = active
                .iter()
                .copied()
                .filter(|&v| !in_a[v])
                .max_by(|&a, &b| weights[a].partial_cmp(&weights[b]).expect("finite"))
                .expect("active nonempty");
            in_a[next] = true;
            prev = last;
            last = next;
            for &v in &active {
                if !in_a[v] {
                    weights[v] += w[next][v];
                }
            }
        }
        // cut-of-the-phase: `last` alone vs the rest
        let cut_value = weights[last];
        if cut_value < best.0 {
            best = (
                cut_value,
                members[last].iter().map(|&v| NodeId(v)).collect(),
            );
        }
        // merge last into prev
        let last_members = std::mem::take(&mut members[last]);
        members[prev].extend(last_members);
        for &v in &active {
            if v != prev && v != last {
                let add = w[last][v];
                w[prev][v] += add;
                w[v][prev] += add;
            }
        }
        active.retain(|&v| v != last);
    }
    if best.0.is_infinite() {
        (0.0, Vec::new())
    } else {
        best
    }
}

/// Just the value of the global min cut.
pub fn global_min_cut(g: &Graph) -> f64 {
    stoer_wagner(g).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::maxflow::st_min_cut;

    #[test]
    fn path_cuts_one() {
        let g = gen::path_graph(5);
        assert!((global_min_cut(&g) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_cuts_two() {
        let g = gen::cycle_graph(7);
        assert!((global_min_cut(&g) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dumbbell_cuts_bridges() {
        let g = gen::dumbbell(5, 2);
        let (value, side) = stoer_wagner(&g);
        assert!((value - 2.0).abs() < 1e-9);
        // the cut side is one clique (5 vertices) or its complement
        assert!(side.len() == 5 || side.len() == g.num_nodes() - 5);
    }

    #[test]
    fn hypercube_cuts_degree() {
        let g = gen::hypercube(4);
        assert!((global_min_cut(&g) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn respects_capacities() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 5.0);
        g.add_edge(NodeId(1), NodeId(2), 0.5);
        g.add_edge(NodeId(0), NodeId(2), 0.25);
        assert!((global_min_cut(&g) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn matches_all_pairs_dinic() {
        for g in [gen::grid(3, 3), gen::two_star(3, 4), gen::complete_graph(6)] {
            let global = global_min_cut(&g);
            let mut best = f64::INFINITY;
            for s in g.nodes() {
                for t in g.nodes() {
                    if s < t {
                        best = best.min(st_min_cut(&g, s, t));
                    }
                }
            }
            assert!(
                (global - best).abs() < 1e-6,
                "stoer-wagner {global} vs all-pairs dinic {best}"
            );
        }
    }

    use crate::graph::{Graph, NodeId};
}
