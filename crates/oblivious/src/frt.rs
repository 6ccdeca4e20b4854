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
//!
//! # Construction and cost
//!
//! The build never forms the n×n distance matrix. It has four phases:
//!
//! 1. **Least-element lists** (Cohen, JCSS 1997; Khan et al., PODC 2008).
//!    One Dijkstra per vertex in `π` order, each pruned at every vertex
//!    that an earlier center already reaches at least as cheaply. Vertex
//!    `v` keeps the centers that were strictly closer than all earlier
//!    ones, an expected O(log n) entries with strictly decreasing
//!    distances. Its FRT center at radius `r` is the first entry within
//!    `r`. The search from `π₀` is not pruned. It checks connectivity,
//!    and `2·ecc(π₀)` bounds the diameter, which fixes the root level.
//!    Expected cost O(m log n · log n).
//! 2. **Refinement**, level by level with a per-center slot array: O(n)
//!    per level.
//! 3. **Cut capacities**: each edge, in edge-id order, adds its capacity
//!    to every cluster on its endpoints' leaf-to-LCA chains. O(m·depth).
//! 4. **Up-paths**: one Dijkstra per parent cluster from its leader,
//!    stopped once every child leader is settled. The stopped search
//!    settles vertices in the same order as a full one, so each path is
//!    the full run's path. This phase dominates at scale: about 85% of a
//!    tree at n = 2^14 on a random 4-regular expander, where the whole
//!    build grows as about n^1.5–1.6. A child leader far from its
//!    parent's leader needs the whole ball around the parent's leader.
//!
//! The tree equals the one an all-pairs distance matrix gives for the same
//! `π` and `β` (the unit tests keep that construction as the oracle),
//! except that the root's `level` may sit higher: it comes from the
//! `2·ecc(π₀)` bound, not the exact diameter. A level whose radius reaches
//! `ecc(π₀)` never splits a cluster (`π₀` is every vertex's center), so
//! nothing else moves. Each build adds the
//! vertices its searches settled to the `oblivious/frt/settled` counter.

use rand::seq::SliceRandom;
use rand::Rng;
use sor_graph::{DijkstraScratch, Graph, NodeId, Path, Settle};

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

/// Least-element lists: for each vertex `v`, the centers `u` with
/// `d(u, v)` strictly below `d(w, v)` for every `w` earlier in `π`, paired
/// with `d(u, v)`. Each list is stored in reverse `π` order, so it starts
/// with `(v, 0.0)` and its last entry is `v`'s center at the current
/// radius; shrinking the radius pops entries.
struct LeLists {
    lists: Vec<Vec<(NodeId, f64)>>,
    /// Eccentricity of `π₀`.
    ecc0: f64,
}

impl LeLists {
    /// Pruned Dijkstras from every vertex in `pi` order. Returns the lists
    /// and the number of vertices the searches settled.
    fn build(
        g: &Graph,
        lengths: &[f64],
        pi: &[NodeId],
        search: &mut DijkstraScratch,
    ) -> (Self, usize) {
        let n = g.num_nodes();
        let mut lists: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        let mut settled = 0;
        for &c in pi {
            settled += search.search(g, c, lengths, |v, d| {
                let list = &mut lists[v.index()];
                // Distances along a list strictly decrease, so its last
                // entry is the closest earlier center.
                if list.last().is_none_or(|&(_, best)| d < best) {
                    list.push((c, d));
                    Settle::Expand
                } else {
                    Settle::Prune
                }
            });
            // The first search is never pruned: it reaches every vertex of
            // a connected graph.
            assert!(settled >= n, "FRT needs a connected graph");
        }
        // Every list starts with `π₀`'s entry.
        let ecc0 = lists.iter().map(|l| l[0].1).fold(0.0, f64::max);
        for list in &mut lists {
            list.reverse();
        }
        (LeLists { lists, ecc0 }, settled)
    }

    /// The first center in `π` order within `radius` of `v`. Radii only
    /// shrink over a build, so entries beyond `radius` are dropped.
    fn center(&mut self, v: NodeId, radius: f64) -> NodeId {
        let list = &mut self.lists[v.index()];
        while list.len() > 1 && list[list.len() - 1].1 > radius {
            list.pop();
        }
        list[list.len() - 1].0
    }
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
        let mut nodes: Vec<TreeNode> = Vec::with_capacity(2 * n);
        let mut leaf_of = vec![usize::MAX; n];
        if n == 1 {
            nodes.push(TreeNode {
                parent: None,
                children: Vec::new(),
                leader: NodeId(0),
                vertices: vec![NodeId(0)],
                up_path: None,
                cut_capacity: 0.0,
                level: 0,
            });
            leaf_of[0] = 0;
            return FrtTree { nodes, leaf_of };
        }

        // Random permutation and β ∈ [1, 2).
        let mut pi: Vec<NodeId> = g.nodes().collect();
        pi.shuffle(rng);
        let beta: f64 = 1.0 + rng.gen::<f64>();

        let mut search = DijkstraScratch::for_graph(g);
        let (mut le, mut settled) = LeLists::build(g, lengths, &pi, &mut search);
        // The closest pair of vertices is joined by a single edge (graphs
        // have no self-loops).
        let dmin = lengths.iter().copied().fold(f64::INFINITY, f64::min);

        // Top level: β·2^top ≥ 2·ecc(π₀) ≥ diameter, so everything fits in
        // one cluster.
        #[allow(clippy::cast_possible_truncation)]
        let top = (2.0 * le.ecc0).log2().ceil() as i32 + 1;
        // Bottom level: β·2^bottom < dmin forces singletons.
        #[allow(clippy::cast_possible_truncation)]
        let bottom = (dmin.log2().floor() as i32) - 2;

        nodes.push(TreeNode {
            parent: None,
            children: Vec::new(),
            leader: pi[0],
            vertices: g.nodes().collect(),
            up_path: None,
            cut_capacity: 0.0,
            level: top + 1,
        });

        // Refine level by level. `frontier` holds indices of clusters that
        // are not yet singletons. Within one cluster, `slot[c]` is the
        // group of center `c` (groups keep first-appearance order) and
        // `group_of[i]` the group of the cluster's `i`-th vertex.
        let mut rank = vec![0usize; n];
        for (k, v) in pi.iter().enumerate() {
            rank[v.index()] = k;
        }
        let mut slot = vec![usize::MAX; n];
        let mut group_of: Vec<usize> = Vec::with_capacity(n);
        let mut centers: Vec<NodeId> = Vec::with_capacity(n);
        let mut sizes: Vec<usize> = Vec::with_capacity(n);
        let mut leaders: Vec<NodeId> = Vec::with_capacity(n);
        let mut frontier = vec![0usize];
        let mut next_frontier: Vec<usize> = Vec::with_capacity(n);
        let mut level = top;
        while !frontier.is_empty() {
            assert!(level >= bottom, "FRT refinement failed to reach singletons");
            let radius = beta * (level as f64).exp2();
            for &ci in &frontier {
                // take the vertex list (pushing children below needs `nodes`
                // mutably) and restore it afterwards — no per-level copy.
                let verts = std::mem::take(&mut nodes[ci].vertices);
                group_of.clear();
                centers.clear();
                sizes.clear();
                leaders.clear();
                // Each group's leader is its π-minimal member. A center is
                // never later in π than its members (a vertex is within any
                // radius of itself), so that is the center when it is inside.
                for &v in &verts {
                    let c = le.center(v, radius);
                    let mut s = slot[c.index()];
                    if s == usize::MAX {
                        s = sizes.len();
                        slot[c.index()] = s;
                        centers.push(c);
                        sizes.push(0);
                        leaders.push(v);
                    } else if rank[v.index()] < rank[leaders[s].index()] {
                        leaders[s] = v;
                    }
                    sizes[s] += 1;
                    group_of.push(s);
                }
                for c in &centers {
                    slot[c.index()] = usize::MAX;
                }
                if sizes.len() == 1 && verts.len() > 1 {
                    // No refinement at this level — reuse the node at the
                    // next level instead of stacking unary chains.
                    nodes[ci].vertices = verts;
                    next_frontier.push(ci);
                    continue;
                }
                let first = nodes.len();
                for (&size, &leader) in sizes.iter().zip(&leaders) {
                    let idx = nodes.len();
                    if size == 1 {
                        leaf_of[leader.index()] = idx;
                    } else {
                        next_frontier.push(idx);
                    }
                    nodes.push(TreeNode {
                        parent: Some(ci),
                        children: Vec::new(),
                        leader,
                        vertices: Vec::with_capacity(size),
                        up_path: None, // filled below
                        cut_capacity: 0.0,
                        level,
                    });
                }
                for (&v, &s) in verts.iter().zip(&group_of) {
                    nodes[first + s].vertices.push(v);
                }
                nodes[ci].vertices = verts;
                nodes[ci].children.extend(first..first + sizes.len());
            }
            std::mem::swap(&mut frontier, &mut next_frontier);
            next_frontier.clear();
            level -= 1;
        }
        // The LE lists are spent; free them before the up-path searches.
        drop(le);

        // Cut capacities: a cluster is cut by an edge iff it holds exactly
        // one endpoint, i.e. lies on an endpoint's leaf-to-LCA chain. A
        // parent's index is below its children's, so stepping up from the
        // larger index never passes the LCA. Each cluster sums its edges
        // in edge-id order from 0.0.
        for e in g.edges() {
            let (mut a, mut b) = (leaf_of[e.u.index()], leaf_of[e.v.index()]);
            while a != b {
                let lower = if a > b { &mut a } else { &mut b };
                nodes[*lower].cut_capacity += e.cap;
                *lower = nodes[*lower].parent.unwrap_or(0);
            }
        }

        // Physical paths: one search per parent cluster from its leader,
        // stopped once every child leader is settled; each child's path
        // is the reversed tree path to its leader.
        let mut targets: Vec<NodeId> = Vec::with_capacity(n);
        for p in 0..nodes.len() {
            if nodes[p].children.is_empty() {
                continue;
            }
            targets.clear();
            targets.extend(nodes[p].children.iter().map(|&c| nodes[c].leader));
            settled += search.search_to(g, nodes[p].leader, lengths, &targets);
            for k in 0..nodes[p].children.len() {
                let c = nodes[p].children[k];
                #[expect(clippy::expect_used, reason = "the graph is connected")]
                let path = search
                    .path_to(g, nodes[c].leader)
                    .expect("connected graph")
                    .reversed();
                nodes[c].up_path = Some(path);
            }
        }
        sor_obs::counter_add!("oblivious/frt/settled", settled as u64);

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
    /// up-paths to the lowest common ancestor, then down-paths, walked
    /// in one pass with chronological loop erasure (see [`route_up_down`]).
    pub fn route(&self, s: NodeId, t: NodeId) -> Path {
        route_up_down(s, t, self.leaf(s), self.leaf(t), &|i| {
            (self.nodes[i].parent, self.nodes[i].up_path.as_ref())
        })
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

/// Route `s → t` through a rooted cluster tree in which every parent's
/// index is below its children's: walk the up-paths from `s`'s leaf
/// `leaf_s` to the lowest common ancestor, then the reversed up-paths down
/// to `t`'s leaf `leaf_t`, erasing loops as the walk goes
/// ([`Path::extend_erased`]). The one output path is the only allocation.
/// `link(i)` is cluster `i`'s parent and up-path.
pub(crate) fn route_up_down<'a, F>(
    s: NodeId,
    t: NodeId,
    leaf_s: usize,
    leaf_t: usize,
    link: &F,
) -> Path
where
    F: Fn(usize) -> (Option<usize>, Option<&'a Path>),
{
    let parent = |i: usize| link(i).0.unwrap_or(0);
    // Stepping up from the larger index never passes the LCA.
    let (mut a, mut b) = (leaf_s, leaf_t);
    while a != b {
        if a > b {
            a = parent(a);
        } else {
            b = parent(b);
        }
    }
    let mut path = Path::trivial(s);
    let mut i = leaf_s;
    while i != a {
        let (p, up) = link(i);
        if let Some(up) = up {
            let joined = path.extend_erased(up);
            debug_assert!(joined, "up-paths chain at the leaders");
        }
        i = p.unwrap_or(0);
    }
    descend(&mut path, leaf_t, a, link);
    debug_assert_eq!(path.target(), t);
    path
}

/// Walk the reversed up-paths from the LCA `top` down to `i`, top first.
/// The recursion is as deep as the tree.
fn descend<'a, F>(path: &mut Path, i: usize, top: usize, link: &F)
where
    F: Fn(usize) -> (Option<usize>, Option<&'a Path>),
{
    if i == top {
        return;
    }
    let (p, up) = link(i);
    descend(path, p.unwrap_or(0), top, link);
    if let Some(up) = up {
        let joined = path.extend_erased_reversed(up);
        debug_assert!(joined, "up-paths chain at the leaders");
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// The all-pairs-matrix construction the build replaced, kept as the
    /// oracle: n full Dijkstras into an n×n matrix, a π scan per vertex
    /// per level, a full edge scan per cluster and one full Dijkstra per
    /// parent cluster.
    fn apsp_build<R: Rng + ?Sized>(g: &Graph, lengths: &[f64], rng: &mut R) -> FrtTree {
        let n = g.num_nodes();
        let dist: Vec<Vec<f64>> = g.nodes().map(|s| dijkstra(g, s, lengths).dist).collect();
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
        let mut pi: Vec<NodeId> = g.nodes().collect();
        pi.shuffle(rng);
        let beta: f64 = 1.0 + rng.gen::<f64>();
        #[allow(clippy::cast_possible_truncation)]
        let top = dmax.log2().ceil() as i32 + 1;
        #[allow(clippy::cast_possible_truncation)]
        let bottom = (dmin.log2().floor() as i32) - 2;

        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut leaf_of = vec![usize::MAX; n];
        nodes.push(TreeNode {
            parent: None,
            children: Vec::new(),
            leader: pi[0],
            vertices: g.nodes().collect(),
            up_path: None,
            cut_capacity: 0.0,
            level: top + 1,
        });
        let mut frontier = vec![0usize];
        let mut level = top;
        while !frontier.is_empty() {
            assert!(level >= bottom, "FRT refinement failed to reach singletons");
            let radius = beta * (level as f64).exp2();
            let mut next_frontier = Vec::new();
            for &ci in &frontier {
                let verts = std::mem::take(&mut nodes[ci].vertices);
                let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
                for &v in &verts {
                    let center = pi
                        .iter()
                        .copied()
                        .find(|u| dist[u.index()][v.index()] <= radius)
                        .expect("v itself qualifies");
                    match groups.iter_mut().find(|(c, _)| *c == center) {
                        Some((_, vs)) => vs.push(v),
                        None => groups.push((center, vec![v])),
                    }
                }
                nodes[ci].vertices = verts;
                if groups.len() == 1 && nodes[ci].vertices.len() > 1 {
                    next_frontier.push(ci);
                    continue;
                }
                for (center, vs) in groups {
                    let leader = if vs.contains(&center) {
                        center
                    } else {
                        *pi.iter().find(|u| vs.contains(u)).expect("nonempty group")
                    };
                    let idx = nodes.len();
                    if vs.len() == 1 {
                        leaf_of[vs[0].index()] = idx;
                    } else {
                        next_frontier.push(idx);
                    }
                    nodes.push(TreeNode {
                        parent: Some(ci),
                        children: Vec::new(),
                        leader,
                        vertices: vs,
                        up_path: None,
                        cut_capacity: 0.0,
                        level,
                    });
                    nodes[ci].children.push(idx);
                }
            }
            frontier = next_frontier;
            level -= 1;
        }
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
        for p in 0..nodes.len() {
            let tree = dijkstra(g, nodes[p].leader, lengths);
            for k in 0..nodes[p].children.len() {
                let c = nodes[p].children[k];
                let path = tree.path_to(g, nodes[c].leader).expect("connected");
                nodes[c].up_path = Some(path.reversed());
            }
        }
        FrtTree { nodes, leaf_of }
    }

    /// Field-for-field equality, `cut_capacity` bit for bit. The root's
    /// `level` is exempt: it only records where refinement started.
    fn assert_same_tree(got: &FrtTree, want: &FrtTree, ctx: &str) {
        assert_eq!(got.leaf_of, want.leaf_of, "{ctx}: leaves");
        assert_eq!(got.nodes.len(), want.nodes.len(), "{ctx}: node count");
        for (i, (a, b)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            assert_eq!(a.vertices, b.vertices, "{ctx}: node {i} vertices");
            assert_eq!(a.children, b.children, "{ctx}: node {i} children");
            assert_eq!(a.parent, b.parent, "{ctx}: node {i} parent");
            assert_eq!(a.leader, b.leader, "{ctx}: node {i} leader");
            assert_eq!(a.up_path, b.up_path, "{ctx}: node {i} up_path");
            assert_eq!(
                a.cut_capacity.to_bits(),
                b.cut_capacity.to_bits(),
                "{ctx}: node {i} cut_capacity"
            );
            if i > 0 {
                assert_eq!(a.level, b.level, "{ctx}: node {i} level");
            }
        }
    }

    /// A cycle with chords and parallel edges of mixed capacity, under
    /// random lengths with ties.
    fn multigraph(rng: &mut StdRng) -> (Graph, Vec<f64>) {
        let n = 24;
        let mut g = gen::cycle_graph(n);
        for i in 0..n {
            let v = NodeId::from_usize(i);
            let w = NodeId::from_usize((i + 1) % n);
            g.add_edge(v, w, 0.5 + f64::from(rng.gen_range(0u32..4)));
            if i % 5 == 0 {
                g.add_edge(v, NodeId::from_usize((i + 7) % n), 2.0);
            }
        }
        let lengths = (0..g.num_edges())
            .map(|_| f64::from(rng.gen_range(1u32..6)) * 0.25)
            .collect();
        (g, lengths)
    }

    /// Räcke-style lengths `exp(U·8)/cap`, spread over three decades.
    fn raecke_lengths(g: &Graph, rng: &mut StdRng) -> Vec<f64> {
        g.edges()
            .iter()
            .map(|e| (rng.gen::<f64>() * 8.0).exp() / e.cap)
            .collect()
    }

    #[test]
    fn matches_apsp_oracle() {
        for (name, g, lengths) in &oracle_cases() {
            for seed in 0..8 {
                let mut r_new = StdRng::seed_from_u64(seed);
                let mut r_old = StdRng::seed_from_u64(seed);
                let got = FrtTree::build(g, lengths, &mut r_new);
                let want = apsp_build(g, lengths, &mut r_old);
                let ctx = format!("{name} seed {seed}");
                assert_same_tree(&got, &want, &ctx);
                assert_eq!(r_new.next_u64(), r_old.next_u64(), "{ctx}: rng state");
            }
        }
    }

    /// Assert that `route` equals the join-chain route the one-pass walk
    /// replaced, kept as the oracle: both ancestor chains trimmed at the
    /// LCA, then one copy-and-erase join per up-path (the old
    /// `join_simplified`, with its own vertex → position map). Checks
    /// all targets of every source, of every 32nd above 64 vertices.
    /// `leaf(v)` is `v`'s leaf, `link(i)` cluster `i`'s parent and up-path.
    pub(crate) fn assert_join_chain_routes<'a>(
        g: &Graph,
        ctx: &str,
        route: impl Fn(NodeId, NodeId) -> Path,
        leaf: impl Fn(NodeId) -> usize,
        link: impl Fn(usize) -> (Option<usize>, Option<&'a Path>),
    ) {
        let chain = |mut i| {
            let mut c = vec![i];
            while let Some(p) = link(i).0 {
                c.push(p);
                i = p;
            }
            c
        };
        let stride = if g.num_nodes() > 64 { 32 } else { 1 };
        for (s, t) in g
            .nodes()
            .step_by(stride)
            .flat_map(|s| g.nodes().map(move |t| (s, t)))
        {
            let (sa, ta) = (chain(leaf(s)), chain(leaf(t)));
            let (mut a, mut b) = (sa.len(), ta.len());
            while a > 0 && b > 0 && sa[a - 1] == ta[b - 1] {
                a -= 1;
                b -= 1;
            }
            let ups = sa[..a].iter().filter_map(|&i| link(i).1.cloned());
            let downs = ta[..b]
                .iter()
                .rev()
                .filter_map(|&i| link(i).1.map(Path::reversed));
            let (mut nodes, mut edges) = (vec![s], Vec::new());
            for p in ups.chain(downs) {
                assert_eq!(nodes.last(), Some(&p.source()), "chained at leader");
                let walk: Vec<NodeId> = nodes.iter().chain(&p.nodes()[1..]).copied().collect();
                let walk_edges: Vec<EdgeId> = edges.iter().chain(p.edges()).copied().collect();
                let mut pos: HashMap<NodeId, usize> = HashMap::new();
                (nodes, edges) = (Vec::new(), Vec::new());
                for (i, &v) in walk.iter().enumerate() {
                    if let Some(&j) = pos.get(&v) {
                        for dropped in nodes.drain(j + 1..) {
                            pos.remove(&dropped);
                        }
                        edges.truncate(j);
                    } else {
                        if i > 0 {
                            edges.push(walk_edges[i - 1]);
                        }
                        pos.insert(v, nodes.len());
                        nodes.push(v);
                    }
                }
            }
            let got = route(s, t);
            assert_eq!(got.nodes(), &nodes[..], "{ctx} ({s}, {t})");
            assert_eq!(got.edges(), &edges[..], "{ctx} ({s}, {t})");
            assert_eq!(got.target(), t, "{ctx} ({s}, {t})");
        }
    }

    /// `(name, graph, lengths)` for the oracle tests: unit-length grid,
    /// hypercube, cycle, path and 256-vertex expander, the expander under
    /// Räcke-style lengths, and the parallel-edge multigraph.
    pub(crate) fn oracle_cases() -> Vec<(&'static str, Graph, Vec<f64>)> {
        let mut topo_rng = StdRng::seed_from_u64(0x0f27);
        let expander = gen::random_regular(256, 4, &mut topo_rng);
        let expander_lengths = raecke_lengths(&expander, &mut topo_rng);
        let (multi, multi_lengths) = multigraph(&mut topo_rng);
        let unit = |name, g: Graph| {
            let l = g.unit_lengths();
            (name, g, l)
        };
        vec![
            unit("grid 6x6", gen::grid(6, 6)),
            unit("hypercube 6", gen::hypercube(6)),
            unit("cycle 32", gen::cycle_graph(32)),
            unit("path 16", gen::path_graph(16)),
            unit("expander 256x4 unit", expander.clone()),
            ("expander 256x4 raecke", expander, expander_lengths),
            ("multigraph", multi, multi_lengths),
        ]
    }

    #[test]
    fn route_matches_join_chain_oracle() {
        for (name, g, lengths) in &oracle_cases() {
            for seed in 0..8 {
                let tree = FrtTree::build(g, lengths, &mut StdRng::seed_from_u64(seed));
                assert_join_chain_routes(
                    g,
                    &format!("{name} seed {seed}"),
                    |s, t| tree.route(s, t),
                    |v| tree.leaf(v),
                    |i| (tree.nodes[i].parent, tree.nodes[i].up_path.as_ref()),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "FRT needs a connected graph")]
    fn disconnected_graph_is_rejected() {
        let mut g = Graph::new(4);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(2), NodeId(3));
        FrtTree::build(&g, &g.unit_lengths(), &mut StdRng::seed_from_u64(0));
    }

    use rand::RngCore;
    use sor_graph::{dijkstra, EdgeId, Graph, NodeId};
    use std::collections::HashMap;
}
