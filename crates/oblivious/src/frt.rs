//! FRT random tree embeddings (Fakcharoenphol–Rao–Talwar) adapted for
//! congestion trees.
//!
//! Räcke's O(log n) oblivious routing \[Räc08\] is a convex combination of
//! hierarchical decomposition trees built by repeatedly embedding the graph
//! metric into a random HST and penalizing congested edges. This module
//! provides the single-tree building block:
//!
//! * random permutation `π` + random `β ∈ [1,2)`,
//! * level-`i` clusters: each vertex joins the `π`-minimal center within
//!   distance `β·2^i`, refining the parent partition,
//! * every cluster gets a physical *leader* vertex inside it; the tree edge
//!   to the parent cluster is mapped to a shortest physical path between
//!   the two leaders under the construction metric,
//! * each cluster records the total capacity leaving it (`cut_capacity`),
//!   which is how much load any congestion-1 demand can push across the
//!   corresponding tree edge — the quantity Räcke's MWU penalizes.

use rand::seq::SliceRandom;
use rand::Rng;
use sor_graph::{dijkstra, shortest::all_pairs_dist, Graph, NodeId, Path};

/// One node (cluster) of an FRT decomposition tree.
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// Parent cluster index (`None` for the root).
    pub parent: Option<usize>,
    /// Child cluster indices.
    pub children: Vec<usize>,
    /// Representative graph vertex inside the cluster.
    pub leader: NodeId,
    /// Vertices of the cluster.
    pub vertices: Vec<NodeId>,
    /// Physical path `leader → parent.leader` under the construction
    /// metric (`None` for the root or when the leaders coincide — then it
    /// is a trivial path).
    pub up_path: Option<Path>,
    /// Total capacity of graph edges leaving the cluster.
    pub cut_capacity: f64,
    /// Decomposition level (cluster radius scale `β·2^level`).
    pub level: i32,
}

/// A rooted FRT decomposition tree with physical path mappings.
#[derive(Clone, Debug)]
pub struct FrtTree {
    nodes: Vec<TreeNode>,
    /// Leaf (singleton cluster) index of each graph vertex.
    leaf_of: Vec<usize>,
}

impl FrtTree {
    /// Build a random FRT tree over `g` with the metric induced by
    /// per-edge `lengths` (all strictly positive).
    pub fn build<R: Rng + ?Sized>(g: &Graph, lengths: &[f64], rng: &mut R) -> Self {
        let n = g.num_nodes();
        assert_eq!(lengths.len(), g.num_edges());
        assert!(
            lengths.iter().all(|&l| l > 0.0 && l.is_finite()),
            "FRT needs strictly positive finite lengths"
        );
        if n == 1 {
            let node = TreeNode {
                parent: None,
                children: Vec::new(),
                leader: NodeId(0),
                vertices: vec![NodeId(0)],
                up_path: None,
                cut_capacity: 0.0,
                level: 0,
            };
            return FrtTree {
                nodes: vec![node],
                leaf_of: vec![0],
            };
        }

        let dist = all_pairs_dist(g, lengths);
        let mut dmax: f64 = 0.0;
        let mut dmin = f64::INFINITY;
        for (i, row) in dist.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                if i != j {
                    assert!(d.is_finite(), "FRT needs a connected graph");
                    dmax = dmax.max(d);
                    dmin = dmin.min(d);
                }
            }
        }

        // Random permutation and β ∈ [1, 2).
        let mut pi: Vec<NodeId> = g.nodes().collect();
        pi.shuffle(rng);
        let beta: f64 = 1.0 + rng.gen::<f64>();

        // Top level: β·2^top ≥ dmax so everything fits in one cluster.
        #[allow(clippy::cast_possible_truncation)]
        let top = dmax.log2().ceil() as i32 + 1;
        // Bottom level: β·2^bottom < dmin forces singletons.
        #[allow(clippy::cast_possible_truncation)]
        let bottom = (dmin.log2().floor() as i32) - 2;

        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut leaf_of = vec![usize::MAX; n];

        let root_vertices: Vec<NodeId> = g.nodes().collect();
        let root_leader = pi[0];
        nodes.push(TreeNode {
            parent: None,
            children: Vec::new(),
            leader: root_leader,
            vertices: root_vertices,
            up_path: None,
            cut_capacity: 0.0,
            level: top + 1,
        });

        // Refine level by level. `frontier` holds indices of clusters that
        // are not yet singletons.
        let mut frontier = vec![0usize];
        let mut level = top;
        while !frontier.is_empty() {
            assert!(level >= bottom, "FRT refinement failed to reach singletons");
            let radius = beta * (level as f64).exp2();
            let mut next_frontier = Vec::new();
            for &ci in &frontier {
                // Partition nodes[ci].vertices by their first π-center
                // within `radius`.
                // take the vertex list (pushing children below needs `nodes`
                // mutably) and restore it afterwards — no per-level copy.
                let verts = std::mem::take(&mut nodes[ci].vertices);
                let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
                for &v in &verts {
                    #[expect(
                        clippy::expect_used,
                        reason = "pi is a permutation of all vertices, so some center is in range"
                    )]
                    let center = pi
                        .iter()
                        .copied()
                        .find(|u| dist[u.index()][v.index()] <= radius)
                        .expect("v itself qualifies at any level once radius ≥ 0");
                    match groups.iter_mut().find(|(c, _)| *c == center) {
                        Some((_, vs)) => vs.push(v),
                        None => groups.push((center, vec![v])),
                    }
                }
                if groups.len() == 1 && verts.len() > 1 {
                    // No refinement at this level — reuse the node at the
                    // next level instead of stacking unary chains.
                    nodes[ci].vertices = verts;
                    next_frontier.push(ci);
                    continue;
                }
                nodes[ci].vertices = verts;
                for (center, vs) in groups {
                    // Leader: the center itself if inside, else the
                    // π-minimal member (deterministic given π).
                    #[expect(clippy::expect_used, reason = "groups are nonempty")]
                    let leader = if vs.contains(&center) {
                        center
                    } else {
                        *pi.iter().find(|u| vs.contains(u)).expect("nonempty group")
                    };
                    let singleton = vs.len() == 1;
                    let idx = nodes.len();
                    nodes.push(TreeNode {
                        parent: Some(ci),
                        children: Vec::new(),
                        leader,
                        vertices: vs,
                        up_path: None, // filled below
                        cut_capacity: 0.0,
                        level,
                    });
                    nodes[ci].children.push(idx);
                    if singleton {
                        let v = nodes[idx].vertices[0];
                        leaf_of[v.index()] = idx;
                    } else {
                        next_frontier.push(idx);
                    }
                }
            }
            frontier = next_frontier;
            level -= 1;
        }

        // Collapse unary chains? Not needed: the frontier-reuse above
        // already avoids them. Fill cut capacities and physical up-paths.
        let mut in_cluster = vec![false; n];
        for node in &mut nodes {
            for &v in &node.vertices {
                in_cluster[v.index()] = true;
            }
            let mut cut = 0.0;
            for e in g.edges() {
                if in_cluster[e.u.index()] != in_cluster[e.v.index()] {
                    cut += e.cap;
                }
            }
            node.cut_capacity = cut;
            for &v in &node.vertices {
                in_cluster[v.index()] = false;
            }
        }

        // Physical paths: group children by their leader's shortest-path
        // tree toward the parent leader. One Dijkstra per distinct parent
        // leader is enough (paths extracted toward each child leader and
        // reversed).
        let mut by_parent: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                by_parent.entry(p).or_default().push(i);
            }
        }
        for (&p, children) in &by_parent {
            let pl = nodes[p].leader;
            let tree = dijkstra(g, pl, lengths);
            for &c in children {
                let cl = nodes[c].leader;
                #[expect(clippy::expect_used, reason = "the graph is connected")]
                let path = tree.path_to(g, cl).expect("connected graph").reversed();
                nodes[c].up_path = Some(path);
            }
        }

        debug_assert!(leaf_of.iter().all(|&l| l != usize::MAX));
        FrtTree { nodes, leaf_of }
    }

    /// All tree nodes (index 0 is the root).
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Leaf cluster index of graph vertex `v`.
    pub fn leaf(&self, v: NodeId) -> usize {
        self.leaf_of[v.index()]
    }

    /// The physical path obtained by routing `s → t` through the tree:
    /// up-paths to the lowest common ancestor, then down-paths, all
    /// concatenated and loop-erased.
    #[expect(
        clippy::expect_used,
        reason = "consecutive up-paths meet at the cluster leader"
    )]
    pub fn route(&self, s: NodeId, t: NodeId) -> Path {
        if s == t {
            return Path::trivial(s);
        }
        let (up_chain, down_chain) = self.chains_to_lca(s, t);
        let mut path = Path::trivial(s);
        for i in up_chain {
            if let Some(up) = &self.nodes[i].up_path {
                path = path.join_simplified(up).expect("chained at leader");
            }
        }
        for i in down_chain {
            if let Some(up) = &self.nodes[i].up_path {
                path = path
                    .join_simplified(&up.reversed())
                    .expect("chained at leader");
            }
        }
        debug_assert_eq!(path.source(), s);
        debug_assert_eq!(path.target(), t);
        path
    }

    /// Tree-edge chains from `s` up to the LCA and from the LCA down to
    /// `t` (the down chain is ordered top-to-bottom).
    fn chains_to_lca(&self, s: NodeId, t: NodeId) -> (Vec<usize>, Vec<usize>) {
        let mut sa = Vec::new();
        let mut i = self.leaf(s);
        sa.push(i);
        while let Some(p) = self.nodes[i].parent {
            i = p;
            sa.push(i);
        }
        let mut ta = Vec::new();
        let mut j = self.leaf(t);
        ta.push(j);
        while let Some(p) = self.nodes[j].parent {
            j = p;
            ta.push(j);
        }
        // Trim the common suffix (shared ancestors above the LCA).
        let mut a = sa.len();
        let mut b = ta.len();
        while a > 0 && b > 0 && sa[a - 1] == ta[b - 1] {
            a -= 1;
            b -= 1;
        }
        // sa[..a] are strictly below the LCA on s's side; same for ta[..b].
        let up: Vec<usize> = sa[..a].to_vec();
        let mut down: Vec<usize> = ta[..b].to_vec();
        down.reverse();
        (up, down)
    }

    /// Räcke relative load: for each graph edge, the total cut capacity of
    /// tree edges whose physical path crosses it, divided by the edge's
    /// capacity. This upper-bounds the congestion this tree inflicts on
    /// any demand routable with congestion 1 in `g`.
    pub fn relative_loads(&self, g: &Graph) -> Vec<f64> {
        let mut load = vec![0.0; g.num_edges()];
        for node in &self.nodes {
            if let Some(up) = &node.up_path {
                for &e in up.edges() {
                    load[e.index()] += node.cut_capacity;
                }
            }
        }
        for (l, e) in load.iter_mut().zip(g.edges()) {
            *l /= e.cap;
        }
        load
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (trees are nonempty).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::gen;

    fn check_tree(g: &Graph, tree: &FrtTree) {
        // Root covers everything; leaves are singletons; children
        // partition parents.
        assert_eq!(tree.nodes()[0].vertices.len(), g.num_nodes());
        for v in g.nodes() {
            let l = tree.leaf(v);
            assert_eq!(tree.nodes()[l].vertices, vec![v]);
        }
        for (i, node) in tree.nodes().iter().enumerate() {
            if !node.children.is_empty() {
                let mut union: Vec<NodeId> = Vec::new();
                for &c in &node.children {
                    assert_eq!(tree.nodes()[c].parent, Some(i));
                    union.extend_from_slice(&tree.nodes()[c].vertices);
                }
                let mut a = union.clone();
                a.sort();
                a.dedup();
                assert_eq!(a.len(), union.len(), "children overlap");
                let mut b = node.vertices.clone();
                b.sort();
                assert_eq!(a, b, "children don't partition parent");
                // leaders live inside their cluster
                assert!(node.vertices.contains(&node.leader));
            }
        }
    }

    #[test]
    fn tree_structure_on_grid() {
        let g = gen::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let tree = FrtTree::build(&g, &g.unit_lengths(), &mut rng);
        check_tree(&g, &tree);
    }

    #[test]
    fn tree_structure_on_hypercube() {
        let g = gen::hypercube(4);
        let mut rng = StdRng::seed_from_u64(5);
        let tree = FrtTree::build(&g, &g.unit_lengths(), &mut rng);
        check_tree(&g, &tree);
    }

    #[test]
    fn routes_are_valid_paths() {
        let g = gen::grid(3, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let tree = FrtTree::build(&g, &g.unit_lengths(), &mut rng);
        for s in g.nodes() {
            for t in g.nodes() {
                let p = tree.route(s, t);
                assert!(p.validate(&g));
                assert_eq!(p.source(), s);
                assert_eq!(p.target(), t);
            }
        }
    }

    #[test]
    fn single_vertex_tree() {
        let g = Graph::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        let tree = FrtTree::build(&g, &[], &mut rng);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.route(NodeId(0), NodeId(0)).hops(), 0);
    }

    #[test]
    fn relative_loads_nonnegative_and_finite() {
        let g = gen::cycle_graph(8);
        let mut rng = StdRng::seed_from_u64(2);
        let tree = FrtTree::build(&g, &g.unit_lengths(), &mut rng);
        for &l in &tree.relative_loads(&g) {
            assert!(l >= 0.0 && l.is_finite());
        }
    }

    #[test]
    fn stretch_is_moderate_on_path() {
        // Expected stretch of FRT is O(log n); check a loose bound on the
        // average over pairs for a path graph (hard case for trees).
        let g = gen::path_graph(16);
        let mut rng = StdRng::seed_from_u64(11);
        let mut total_ratio = 0.0;
        let mut count = 0.0;
        let trees: Vec<FrtTree> = (0..4)
            .map(|_| FrtTree::build(&g, &g.unit_lengths(), &mut rng))
            .collect();
        for s in g.nodes() {
            for t in g.nodes() {
                if s >= t {
                    continue;
                }
                let d = (t.0 as f64 - s.0 as f64).abs();
                let avg: f64 = trees
                    .iter()
                    .map(|tr| tr.route(s, t).hops() as f64)
                    .sum::<f64>()
                    / trees.len() as f64;
                total_ratio += avg / d;
                count += 1.0;
            }
        }
        let mean_stretch = total_ratio / count;
        assert!(mean_stretch < 12.0, "mean stretch {mean_stretch} too large");
        assert!(mean_stretch >= 1.0 - 1e-9);
    }

    use sor_graph::{Graph, NodeId};
}
