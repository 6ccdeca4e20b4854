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
#[derive(Debug, PartialEq)]
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
    debug_assert!(
        lengths.iter().all(|&l| l >= 0.0 && !l.is_nan()),
        "negative or NaN edge length"
    );
    // Never reused, so it need not record what to reset.
    let mut search = DijkstraScratch {
        touched: None,
        ..DijkstraScratch::for_graph(g)
    };
    search.search(g, src, lengths, |_, _| Settle::Expand);
    search.tree
}

/// Shortest `s`-`t` path under `lengths`, or `None` if disconnected.
pub fn shortest_path(g: &Graph, s: NodeId, t: NodeId, lengths: &[f64]) -> Option<Path> {
    dijkstra(g, s, lengths).path_to(g, t)
}

/// What a [`DijkstraScratch::search`] does with a vertex it has just
/// settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Settle {
    /// Relax the vertex's edges and continue.
    Expand,
    /// Keep the vertex settled but do not relax its edges.
    Prune,
    /// End the search now.
    Stop,
}

/// Dijkstra state reused across many searches on one graph. A search
/// resets only the vertices the previous one touched, so a run that
/// stops or prunes early costs time proportional to what it explored,
/// not to `n`. [`dijkstra`] is one full search on a fresh scratch, so a
/// vertex settled by a stopped search has the same parent edge (and
/// [`DijkstraScratch::path_to`] the same path) as in the full run.
#[derive(Debug)]
pub struct DijkstraScratch {
    /// The last search's tree; entries of unsettled vertices are
    /// tentative.
    tree: ShortestPathTree,
    done: Vec<bool>,
    wanted: Vec<bool>,
    /// The vertices the last search reached, which the next one resets;
    /// `None` in the scratch [`dijkstra`] uses once.
    touched: Option<Vec<NodeId>>,
    heap: BinaryHeap<HeapEntry>,
}

impl DijkstraScratch {
    /// Scratch space for searches on `g`. The target marks are sized by
    /// the first [`DijkstraScratch::search_to`], so a one-shot search
    /// allocates only its tree, its settled marks and its heap.
    pub fn for_graph(g: &Graph) -> Self {
        let n = g.num_nodes();
        DijkstraScratch {
            tree: ShortestPathTree {
                source: NodeId(0),
                dist: vec![f64::INFINITY; n],
                parent: vec![None; n],
            },
            done: vec![false; n],
            wanted: Vec::new(),
            touched: Some(Vec::new()),
            heap: BinaryHeap::with_capacity(n),
        }
    }

    /// Dijkstra from `src` under `lengths`, calling `settle(v, dist)` once
    /// per vertex as it is settled; its answer decides whether the search
    /// relaxes `v`'s edges, skips them, or ends. Returns the number of
    /// vertices settled.
    pub fn search(
        &mut self,
        g: &Graph,
        src: NodeId,
        lengths: &[f64],
        mut settle: impl FnMut(NodeId, f64) -> Settle,
    ) -> usize {
        assert_eq!(lengths.len(), g.num_edges(), "length vector size mismatch");
        let ShortestPathTree {
            source,
            dist,
            parent,
        } = &mut self.tree;
        if let Some(touched) = &mut self.touched {
            for v in touched.drain(..) {
                dist[v.index()] = f64::INFINITY;
                parent[v.index()] = None;
                self.done[v.index()] = false;
            }
            touched.push(src);
        }
        self.heap.clear();
        *source = src;
        dist[src.index()] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: src,
        });
        let mut settled = 0;
        while let Some(HeapEntry { dist: d, node: u }) = self.heap.pop() {
            if self.done[u.index()] {
                continue;
            }
            self.done[u.index()] = true;
            settled += 1;
            match settle(u, d) {
                Settle::Expand => {}
                Settle::Prune => continue,
                Settle::Stop => break,
            }
            for &(e, v) in g.incident(u) {
                if self.done[v.index()] {
                    continue;
                }
                let nd = d + lengths[e.index()];
                if nd < dist[v.index()] {
                    if let Some(touched) = &mut self.touched {
                        if dist[v.index()].is_infinite() {
                            touched.push(v);
                        }
                    }
                    dist[v.index()] = nd;
                    parent[v.index()] = Some(e);
                    self.heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
        settled
    }

    /// Dijkstra from `src` that stops as soon as every vertex of `targets`
    /// is settled (or the component is exhausted). Returns the number of
    /// vertices settled. Duplicate targets are fine.
    pub fn search_to(
        &mut self,
        g: &Graph,
        src: NodeId,
        lengths: &[f64],
        targets: &[NodeId],
    ) -> usize {
        self.wanted.resize(g.num_nodes(), false);
        let mut remaining = 0usize;
        for &t in targets {
            if !self.wanted[t.index()] {
                self.wanted[t.index()] = true;
                remaining += 1;
            }
        }
        let mut wanted = std::mem::take(&mut self.wanted);
        let settled = self.search(g, src, lengths, |v, _| {
            if std::mem::take(&mut wanted[v.index()]) {
                remaining -= 1;
            }
            if remaining == 0 {
                Settle::Stop
            } else {
                Settle::Expand
            }
        });
        self.wanted = wanted;
        for &t in targets {
            self.wanted[t.index()] = false;
        }
        settled
    }

    /// The shortest path from the last search's source to `t`, or `None`
    /// if that search did not settle `t`.
    pub fn path_to(&self, g: &Graph, t: NodeId) -> Option<Path> {
        if !self.done[t.index()] {
            return None;
        }
        self.tree.path_to(g, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::traversal::bfs_dists;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn stopped_search_paths_match_full_dijkstra() {
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..16 {
            let g = gen::erdos_renyi_connected(24 + trial, 0.15, &mut rng);
            let n = g.num_nodes();
            // Even trials use unit lengths, odd ones small integers: both
            // are full of ties, which is where the heap order matters.
            let lengths: Vec<f64> = if trial % 2 == 0 {
                g.unit_lengths()
            } else {
                (0..g.num_edges())
                    .map(|_| f64::from(rng.gen_range(1u32..4)))
                    .collect()
            };
            // One scratch serves every search on the graph.
            let mut search = DijkstraScratch::for_graph(&g);
            for _ in 0..6 {
                let src = NodeId::from_usize(rng.gen_range(0..n));
                let targets: Vec<NodeId> = (0..rng.gen_range(1..5usize))
                    .map(|_| NodeId::from_usize(rng.gen_range(0..n)))
                    .collect();
                let settled = search.search_to(&g, src, &lengths, &targets);
                assert!(settled >= 1 && settled <= n);
                let full = dijkstra(&g, src, &lengths);
                for &t in &targets {
                    assert_eq!(search.path_to(&g, t), full.path_to(&g, t));
                }
            }
        }
    }

    #[test]
    fn stopped_search_settles_only_what_it_needs() {
        let g = gen::path_graph(6);
        let mut search = DijkstraScratch::for_graph(&g);
        let settled = search.search_to(&g, NodeId(0), &g.unit_lengths(), &[NodeId(2)]);
        assert_eq!(settled, 3);
        assert_eq!(search.path_to(&g, NodeId(2)).unwrap().hops(), 2);
        assert!(search.path_to(&g, NodeId(5)).is_none());
        // A pruned vertex is settled but not expanded.
        let settled = search.search(&g, NodeId(0), &g.unit_lengths(), |v, _| {
            if v == NodeId(3) {
                Settle::Prune
            } else {
                Settle::Expand
            }
        });
        assert_eq!(settled, 4);
        assert!(search.path_to(&g, NodeId(3)).is_some());
        assert!(search.path_to(&g, NodeId(4)).is_none());
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
