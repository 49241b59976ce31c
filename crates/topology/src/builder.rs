//! Incremental construction of [`Graph`]s.

use crate::graph::{Graph, NodeId};

/// Accumulates edges and produces an immutable [`Graph`].
///
/// ```
/// use mlv_topology::GraphBuilder;
/// let mut b = GraphBuilder::new("square", 4);
/// for i in 0..4 { b.add_edge(i, (i + 1) % 4); }
/// let g = b.build();
/// assert_eq!(g.regular_degree(), Some(2));
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    name: String,
    node_count: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Start a graph with `node_count` nodes and no edges.
    pub fn new(name: impl Into<String>, node_count: usize) -> Self {
        assert!(
            node_count <= u32::MAX as usize,
            "node count exceeds u32 id space"
        );
        GraphBuilder {
            name: name.into(),
            node_count,
            edges: Vec::new(),
        }
    }

    /// Add an undirected edge. Parallel edges are allowed; self-loops are
    /// not (no network in the paper has them).
    ///
    /// # Panics
    /// If either endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.node_count && (v as usize) < self.node_count,
            "edge ({u},{v}) out of range for {} nodes",
            self.node_count
        );
        assert_ne!(u, v, "self-loop ({u},{u}) rejected");
        self.edges.push((u, v));
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finish construction.
    pub fn build(self) -> Graph {
        Graph::from_parts(self.name, self.node_count, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new("t", 2);
        b.add_edge(0, 2);
    }
}
