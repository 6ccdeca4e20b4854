//! DFS-interval vertex labels derived from an FRT decomposition tree.
//!
//! The compact tables key forwarding decisions on *destination labels*
//! rather than destination identities. Labels come from a preorder DFS
//! over the hierarchy: vertices that share a cluster deep in the tree
//! receive consecutive labels, so a node whose sampled paths treat a
//! whole subtree the same way can cover it with one label interval
//! instead of one entry per destination. The assignment is a pure
//! function of the tree (children visited in build order), so every
//! replica of a snapshot derives the identical labeling.

use sor_graph::NodeId;
use sor_oblivious::FrtTree;

/// A bijection between graph vertices and `0..n` DFS labels, plus the
/// bit width needed to store one label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelAssignment {
    /// `label_of[v.index()]` is the DFS label of vertex `v`.
    label_of: Vec<u32>,
    /// `node_of[label]` inverts [`Self::label`].
    node_of: Vec<NodeId>,
    /// Bits needed per label: `⌈log₂ n⌉`, at least 1.
    label_bits: u32,
}

impl LabelAssignment {
    /// Assign labels by preorder DFS over `tree` (children in build
    /// order). Leaves of an FRT tree are singleton clusters, so each
    /// leaf visit emits exactly one vertex; the root covers all of them.
    pub fn from_tree(tree: &FrtTree) -> Self {
        let n = tree.nodes()[0].vertices.len();
        let mut label_of = vec![u32::MAX; n];
        let mut node_of = Vec::with_capacity(n);
        // Iterative preorder: push children reversed so the first-built
        // child is visited first.
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            let node = &tree.nodes()[i];
            if node.children.is_empty() {
                for &v in &node.vertices {
                    #[expect(clippy::expect_used, reason = "node count fits u32 (NodeId is u32)")]
                    let label =
                        u32::try_from(node_of.len()).expect("node count fits u32 (NodeId is u32)");
                    label_of[v.index()] = label;
                    node_of.push(v);
                }
            } else {
                stack.extend(node.children.iter().rev());
            }
        }
        debug_assert!(label_of.iter().all(|&l| l != u32::MAX));
        LabelAssignment {
            label_of,
            node_of,
            label_bits: bits_for(n),
        }
    }

    /// The DFS label of vertex `v`.
    pub fn label(&self, v: NodeId) -> u32 {
        self.label_of[v.index()]
    }

    /// The vertex carrying `label`.
    pub fn node(&self, label: u32) -> NodeId {
        self.node_of[label as usize]
    }

    /// Number of labeled vertices.
    pub fn len(&self) -> usize {
        self.node_of.len()
    }

    /// Whether the assignment is empty (it never is for a built tree).
    pub fn is_empty(&self) -> bool {
        self.node_of.is_empty()
    }

    /// Bits per stored label: `⌈log₂ n⌉`, at least 1.
    pub fn label_bits(&self) -> u32 {
        self.label_bits
    }

    /// Total bits to ship the label map itself (one label per vertex).
    pub fn map_bits(&self) -> u64 {
        self.node_of.len() as u64 * u64::from(self.label_bits)
    }
}

/// `⌈log₂ count⌉` clamped below by 1 (a 1-vertex graph still needs a
/// nonzero field width).
pub(crate) fn bits_for(count: usize) -> u32 {
    let mut bits = 0u32;
    while (1usize << bits) < count {
        bits += 1;
    }
    bits.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sor_graph::{gen, Graph};

    fn tree_for(g: &Graph, seed: u64) -> FrtTree {
        FrtTree::build(g, &g.unit_lengths(), &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn labels_are_a_bijection() {
        let g = gen::grid(4, 4);
        let labels = LabelAssignment::from_tree(&tree_for(&g, 3));
        assert_eq!(labels.len(), 16);
        for v in g.nodes() {
            assert_eq!(labels.node(labels.label(v)), v);
        }
        let mut seen: Vec<u32> = g.nodes().map(|v| labels.label(v)).collect();
        seen.sort_unstable();
        let want: Vec<u32> = (0..16).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn sibling_leaves_get_consecutive_labels() {
        // Vertices under the same deepest internal node must be
        // label-adjacent — that is the whole point of DFS labels.
        let g = gen::grid(3, 5);
        let tree = tree_for(&g, 9);
        let labels = LabelAssignment::from_tree(&tree);
        for node in tree.nodes() {
            let mut ls: Vec<u32> = node.vertices.iter().map(|&v| labels.label(v)).collect();
            ls.sort_unstable();
            for w in ls.windows(2) {
                assert_eq!(w[1], w[0] + 1, "cluster labels not contiguous");
            }
        }
    }

    #[test]
    fn bit_widths() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(16), 4);
        assert_eq!(bits_for(17), 5);
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::new(1);
        let labels = LabelAssignment::from_tree(&tree_for(&g, 0));
        assert_eq!(labels.len(), 1);
        assert_eq!(labels.label_bits(), 1);
        assert_eq!(labels.map_bits(), 1);
    }
}
