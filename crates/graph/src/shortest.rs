//! Weighted shortest paths (Dijkstra) under arbitrary per-edge lengths.
//!
//! Lengths are supplied externally as a `&[f64]` indexed by [`EdgeId`]; the
//! congestion-aware constructions (Räcke MWU, hop-penalized trees)
//! repeatedly re-run Dijkstra under evolving metrics, so lengths are not
//! stored on the graph.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::path::Path;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry: (distance, node). `BinaryHeap` is a max-heap, so the
/// ordering is reversed.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; distances are finite non-NaN by
        // construction, and total_cmp keeps the order total regardless.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

/// The result of a single-source Dijkstra run: distances and parent edges.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    /// Source of the run.
    pub source: NodeId,
    /// `dist[v]` = length of the shortest `source`-`v` path
    /// (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` = edge through which `v` is reached on some shortest
    /// path (None for the source and unreachable vertices).
    pub parent: Vec<Option<EdgeId>>,
}

impl ShortestPathTree {
    /// Extract the tree path from the source to `t`, or `None` if `t` is
    /// unreachable.
    pub fn path_to(&self, g: &Graph, t: NodeId) -> Option<Path> {
        if t == self.source {
            return Some(Path::trivial(t));
        }
        self.parent[t.index()]?;
        let mut rev = Vec::new();
        let mut cur = t;
        while cur != self.source {
            let e = self.parent[cur.index()]?;
            rev.push(e);
            cur = g.edge(e).other(cur);
        }
        rev.reverse();
        Path::from_edges(g, self.source, rev)
    }
}

/// Dijkstra from `src` under per-edge `lengths` (must be nonnegative and
/// indexed by `EdgeId`).
pub fn dijkstra(g: &Graph, src: NodeId, lengths: &[f64]) -> ShortestPathTree {
    assert_eq!(lengths.len(), g.num_edges(), "length vector size mismatch");
    debug_assert!(
        lengths.iter().all(|&l| l >= 0.0 && !l.is_nan()),
        "negative or NaN edge length"
    );
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[src.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        for &(e, v) in g.incident(u) {
            if done[v.index()] {
                continue;
            }
            let nd = d + lengths[e.index()];
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                parent[v.index()] = Some(e);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    ShortestPathTree {
        source: src,
        dist,
        parent,
    }
}

/// Shortest `s`-`t` path under `lengths`, or `None` if disconnected.
pub fn shortest_path(g: &Graph, s: NodeId, t: NodeId, lengths: &[f64]) -> Option<Path> {
    dijkstra(g, s, lengths).path_to(g, t)
}

/// All-pairs shortest-path distances under `lengths` (n Dijkstra runs).
pub fn all_pairs_dist(g: &Graph, lengths: &[f64]) -> Vec<Vec<f64>> {
    g.nodes().map(|s| dijkstra(g, s, lengths).dist).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::traversal::bfs_dists;

    #[test]
    fn matches_bfs_on_unit_lengths() {
        let g = gen::grid(4, 4);
        let len = g.unit_lengths();
        for s in g.nodes() {
            let t = dijkstra(&g, s, &len);
            let b = bfs_dists(&g, s);
            for v in g.nodes() {
                assert!((t.dist[v.index()] - b[v.index()] as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prefers_light_detour() {
        // 0-1 direct cost 10; 0-2-1 costs 1+1.
        let mut g = Graph::new(3);
        g.add_unit_edge(NodeId(0), NodeId(1)); // e0 len 10
        g.add_unit_edge(NodeId(0), NodeId(2)); // e1 len 1
        g.add_unit_edge(NodeId(2), NodeId(1)); // e2 len 1
        let p = shortest_path(&g, NodeId(0), NodeId(1), &[10.0, 1.0, 1.0]).unwrap();
        assert_eq!(p.hops(), 2);
        assert_eq!(p.nodes()[1], NodeId(2));
    }

    #[test]
    fn parallel_edges_pick_cheapest() {
        let mut g = Graph::new(2);
        let _heavy = g.add_unit_edge(NodeId(0), NodeId(1));
        let light = g.add_unit_edge(NodeId(0), NodeId(1));
        let p = shortest_path(&g, NodeId(0), NodeId(1), &[5.0, 1.0]).unwrap();
        assert_eq!(p.edges(), &[light]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::new(3);
        g.add_unit_edge(NodeId(0), NodeId(1));
        assert!(shortest_path(&g, NodeId(0), NodeId(2), &g.unit_lengths()).is_none());
    }

    #[test]
    fn path_to_source_is_trivial() {
        let g = gen::cycle_graph(5);
        let t = dijkstra(&g, NodeId(3), &g.unit_lengths());
        assert_eq!(t.path_to(&g, NodeId(3)).unwrap().hops(), 0);
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "a sum of zero-length edges is exactly 0.0"
    )]
    fn zero_length_edges_ok() {
        let mut g = Graph::new(3);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(1), NodeId(2));
        let t = dijkstra(&g, NodeId(0), &[0.0, 0.0]);
        assert_eq!(t.dist[2], 0.0);
        assert!(t.path_to(&g, NodeId(2)).unwrap().validate(&g));
    }
}
