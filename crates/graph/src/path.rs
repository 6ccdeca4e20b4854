//! Simple paths: the atomic object every routing in the workspace is made of.

use crate::graph::{EdgeId, Graph, NodeId};
use std::collections::HashSet;
use std::fmt;

/// A walk through the graph stored as both its vertex sequence and its edge
/// sequence (the edge sequence disambiguates parallel edges).
///
/// Invariants (checked on construction):
/// * `nodes.len() == edges.len() + 1`,
/// * `edges[i]` connects `nodes[i]` and `nodes[i + 1]` in the graph it was
///   built against,
/// * the path is *simple*: no vertex repeats. The paper only ever routes on
///   simple paths (Definition 2.1), so we enforce this globally.
///
/// A zero-hop path (a single vertex) is permitted; it is what a demand from
/// a vertex to itself would route on, and several reductions in the paper
/// implicitly use it.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Path {
    /// The trivial path sitting at `v`.
    pub fn trivial(v: NodeId) -> Self {
        Path {
            nodes: vec![v],
            edges: Vec::new(),
        }
    }

    /// Build a path from an edge sequence starting at `source`, validating
    /// simplicity and adjacency against `g`.
    ///
    /// Returns `None` if the sequence is not a simple `source`-led walk.
    pub fn from_edges(g: &Graph, source: NodeId, edges: Vec<EdgeId>) -> Option<Self> {
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(source);
        let mut seen: HashSet<NodeId> = HashSet::with_capacity(edges.len() + 1);
        seen.insert(source);
        let mut cur = source;
        for &e in &edges {
            let rec = g.edge(e);
            if rec.u != cur && rec.v != cur {
                return None;
            }
            cur = rec.other(cur);
            if !seen.insert(cur) {
                return None;
            }
            nodes.push(cur);
        }
        Some(Path { nodes, edges })
    }

    /// Build a path from a vertex sequence, choosing for each consecutive
    /// pair the first edge between them (fine for graphs without parallel
    /// edges; with parallel edges use [`Path::from_edges`] to be precise).
    pub fn from_nodes(g: &Graph, nodes: &[NodeId]) -> Option<Self> {
        if nodes.is_empty() {
            return None;
        }
        let mut edges = Vec::with_capacity(nodes.len() - 1);
        for w in nodes.windows(2) {
            let e = g
                .incident(w[0])
                .iter()
                .find(|&&(_, nb)| nb == w[1])
                .map(|&(e, _)| e)?;
            edges.push(e);
        }
        Path::from_edges(g, nodes[0], edges)
    }

    /// First vertex.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last vertex.
    #[inline]
    pub fn target(&self) -> NodeId {
        // `nodes` is nonempty by construction: every constructor rejects
        // the empty sequence, so this index mirrors `source()`.
        self.nodes[self.nodes.len() - 1]
    }

    /// Number of edges (the paper's `hop(P)`; dilation is the max over a
    /// routing's support).
    #[inline]
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// The vertex sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge sequence.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Whether edge `e` lies on this path.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Whether vertex `v` lies on this path.
    pub fn contains_node(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }

    /// The same path traversed in the opposite direction.
    pub fn reversed(&self) -> Path {
        Path {
            nodes: self.nodes.iter().rev().copied().collect(),
            edges: self.edges.iter().rev().copied().collect(),
        }
    }

    /// Concatenate `self` (ending at `v`) with `other` (starting at `v`),
    /// erasing loops so the result is simple.
    ///
    /// This implements the standard "make the walk vertex-simple" step the
    /// paper invokes ("any routing can be made vertex-simple while not
    /// increasing congestion or dilation"): a copy of `self` walks `other`
    /// through [`Path::extend_erased`], which cuts the loop out whenever the
    /// walk revisits a vertex. `None` if `other` does not start at `v`.
    pub fn join_simplified(&self, other: &Path) -> Option<Path> {
        let mut out = Path {
            nodes: Vec::with_capacity(self.nodes.len() + other.hops()),
            edges: Vec::with_capacity(self.hops() + other.hops()),
        };
        out.nodes.extend_from_slice(&self.nodes);
        out.edges.extend_from_slice(&self.edges);
        out.extend_erased(other).then_some(out)
    }

    /// Walk `other` (which must start at this path's target) in place,
    /// with chronological loop erasure: each step that revisits a vertex
    /// truncates the path back to that vertex's first visit. Erasing a
    /// whole concatenated walk this way equals erasing after each join.
    /// Returns `false`, leaving `self` unchanged, if the endpoints differ.
    pub fn extend_erased(&mut self, other: &Path) -> bool {
        self.walk(other.source(), other.edges.iter().zip(&other.nodes[1..]))
    }

    /// [`Path::extend_erased`] along `other` reversed: `other` must end at
    /// this path's target and is walked back to its source.
    pub fn extend_erased_reversed(&mut self, other: &Path) -> bool {
        let back = other.nodes[..other.hops()].iter().rev();
        self.walk(other.target(), other.edges.iter().rev().zip(back))
    }

    /// Walk edge `e` of `g` out of this path's target, erasing the loop if
    /// its far end is already on the path. Returns `false`, leaving `self`
    /// unchanged, if `e` does not touch the target.
    pub fn step_erased(&mut self, g: &Graph, e: EdgeId) -> bool {
        let (cur, rec) = (self.target(), g.edge(e));
        if rec.u != cur && rec.v != cur {
            return false;
        }
        self.step(e, rec.other(cur));
        true
    }

    /// The one loop-erasure step: append `e` to `v`, or truncate back to
    /// `v` if the path already visits it. Paths are short (tens of hops),
    /// so a scan of the simple prefix beats hashing it.
    fn step(&mut self, e: EdgeId, v: NodeId) {
        match self.nodes.iter().position(|&u| u == v) {
            Some(j) => {
                self.nodes.truncate(j + 1);
                self.edges.truncate(j);
            }
            None => {
                self.nodes.push(v);
                self.edges.push(e);
            }
        }
    }

    /// Take `steps` (edge, next vertex) from `from`, if the path ends there.
    fn walk<'a>(
        &mut self,
        from: NodeId,
        steps: impl Iterator<Item = (&'a EdgeId, &'a NodeId)>,
    ) -> bool {
        if self.target() != from {
            return false;
        }
        let hops = steps.size_hint().0;
        self.nodes.reserve(hops);
        self.edges.reserve(hops);
        for (&e, &v) in steps {
            self.step(e, v);
        }
        true
    }

    /// Validate this path against a graph: adjacency, simplicity, length
    /// bookkeeping. Used by tests and debug assertions downstream.
    pub fn validate(&self, g: &Graph) -> bool {
        if self.nodes.len() != self.edges.len() + 1 {
            return false;
        }
        let mut seen = HashSet::with_capacity(self.nodes.len());
        for &v in &self.nodes {
            if v.index() >= g.num_nodes() || !seen.insert(v) {
                return false;
            }
        }
        for (i, &e) in self.edges.iter().enumerate() {
            if e.index() >= g.num_edges() {
                return false;
            }
            let rec = g.edge(e);
            let (a, b) = (self.nodes[i], self.nodes[i + 1]);
            if !((rec.u == a && rec.v == b) || (rec.u == b && rec.v == a)) {
                return false;
            }
        }
        true
    }

    /// Total length of the path under per-edge lengths `len`.
    pub fn length(&self, len: &[f64]) -> f64 {
        self.edges.iter().map(|e| len[e.index()]).sum()
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path[")?;
        for (i, v) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_unit_edge(NodeId::from_usize(i), NodeId::from_usize(i + 1));
        }
        g
    }

    #[test]
    fn from_edges_valid() {
        let g = path_graph(4);
        let p = Path::from_edges(&g, NodeId(0), vec![EdgeId(0), EdgeId(1), EdgeId(2)]).unwrap();
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(3));
        assert_eq!(p.hops(), 3);
        assert!(p.validate(&g));
    }

    #[test]
    fn from_edges_rejects_disconnected() {
        let g = path_graph(4);
        assert!(Path::from_edges(&g, NodeId(0), vec![EdgeId(1)]).is_none());
    }

    #[test]
    fn from_edges_rejects_revisit() {
        let g = path_graph(3);
        // 0-1 then back 1-0 revisits 0
        assert!(Path::from_edges(&g, NodeId(0), vec![EdgeId(0), EdgeId(0)]).is_none());
    }

    #[test]
    fn from_nodes_roundtrip() {
        let g = path_graph(5);
        let p = Path::from_nodes(&g, &[NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        assert_eq!(p.edges(), &[EdgeId(1), EdgeId(2)]);
        assert_eq!(p.reversed().source(), NodeId(3));
        assert!(p.reversed().validate(&g));
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(NodeId(7));
        assert_eq!(p.hops(), 0);
        assert_eq!(p.source(), p.target());
    }

    #[test]
    fn join_simplified_shortcuts_loops() {
        // Triangle 0-1-2-0; join 0->1->2 with 2->0->1... wait target mismatch.
        let mut g = Graph::new(3);
        g.add_unit_edge(NodeId(0), NodeId(1)); // e0
        g.add_unit_edge(NodeId(1), NodeId(2)); // e1
        g.add_unit_edge(NodeId(2), NodeId(0)); // e2
        let a = Path::from_nodes(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let b = Path::from_nodes(&g, &[NodeId(2), NodeId(0)]).unwrap();
        // 0-1-2-0 loops back to source; simplification leaves the trivial path at 0.
        let j = a.join_simplified(&b).unwrap();
        assert_eq!(j.source(), NodeId(0));
        assert_eq!(j.target(), NodeId(0));
        assert_eq!(j.hops(), 0);
    }

    #[test]
    fn join_simplified_plain_concat() {
        let g = path_graph(5);
        let a = Path::from_nodes(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let b = Path::from_nodes(&g, &[NodeId(2), NodeId(3), NodeId(4)]).unwrap();
        let j = a.join_simplified(&b).unwrap();
        assert_eq!(j.hops(), 4);
        assert!(j.validate(&g));
        assert_eq!(j.target(), NodeId(4));
    }

    #[test]
    fn join_simplified_partial_loop() {
        // 0-1-2-3 joined with 3-2-4 should shortcut to 0-1-2-4.
        let mut g = Graph::new(5);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(1), NodeId(2));
        g.add_unit_edge(NodeId(2), NodeId(3));
        g.add_unit_edge(NodeId(2), NodeId(4));
        let a = Path::from_nodes(&g, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        let b = Path::from_nodes(&g, &[NodeId(3), NodeId(2), NodeId(4)]).unwrap();
        let j = a.join_simplified(&b).unwrap();
        assert!(j.validate(&g));
        assert_eq!(j.nodes(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(4)]);
    }

    /// Square 0-1-2-3-0 (edges 0..4) with a pendant 4 on 2 (edge 4), and
    /// a path builder over its vertex ids.
    fn square() -> (Graph, impl Fn(&[u32]) -> Path) {
        let mut g = Graph::new(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)] {
            g.add_unit_edge(NodeId(u), NodeId(v));
        }
        let h = g.clone();
        let p = move |vs: &[u32]| {
            let vs: Vec<NodeId> = vs.iter().map(|&v| NodeId(v)).collect();
            Path::from_nodes(&h, &vs).unwrap()
        };
        (g, p)
    }

    #[test]
    fn extend_erased_cuts_loops() {
        let (g, p) = square();
        // forward 0-1, then 4-2-1 walked back from 1
        let mut w = p(&[0, 1]);
        assert!(w.extend_erased_reversed(&p(&[4, 2, 1])));
        assert_eq!(w, p(&[0, 1, 2, 4]));
        // a partial loop: 0-1-2-3 then 3-2-4 drops 2-3-2
        let mut w = p(&[0, 1, 2, 3]);
        assert!(w.extend_erased(&p(&[3, 2, 4])));
        assert_eq!(w, p(&[0, 1, 2, 4]));
        // one step back onto the path truncates to that vertex
        assert!(w.step_erased(&g, EdgeId(4)));
        assert_eq!(w, p(&[0, 1, 2]));
        // a loop back to the source leaves the trivial path
        assert!(w.extend_erased(&p(&[2, 3, 0])));
        assert_eq!(w, Path::trivial(NodeId(0)));
    }

    #[test]
    fn mismatched_endpoints_leave_the_path_unchanged() {
        let (g, p) = square();
        let mut w = p(&[0, 1]);
        assert!(!w.extend_erased(&p(&[2, 3])));
        assert!(!w.extend_erased_reversed(&p(&[2, 3])));
        assert!(!w.step_erased(&g, EdgeId(2)));
        assert_eq!(w, p(&[0, 1]));
        assert!(w.join_simplified(&p(&[2, 3])).is_none());
    }

    #[test]
    fn length_under_metric() {
        let g = path_graph(3);
        let p = Path::from_nodes(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert!((p.length(&[2.0, 3.0]) - 5.0).abs() < 1e-12);
    }
}
