//! The directed-graph representation.

use std::fmt;

use crate::NodeId;

/// Error returned when an edge operation references a malformed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKindError {
    /// The endpoints name nodes that do not exist.
    UnknownNode(NodeId),
    /// A self-loop was requested on a graph that forbids them.
    SelfLoop(NodeId),
}

impl fmt::Display for EdgeKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKindError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            EdgeKindError::SelfLoop(n) => write!(f, "self loop on {n:?} not allowed"),
        }
    }
}

impl std::error::Error for EdgeKindError {}

/// A growable directed graph with both out- and in-adjacency lists.
///
/// This is the base representation for a binary relation: one node per
/// distinct domain value and one arc per tuple (paper §3). Both adjacency
/// directions are kept because the paper's algorithms need them: Alg1 and
/// interval propagation walk *immediate predecessor* lists, while queries and
/// tree covers walk *immediate successor* lists. Parallel edges are
/// suppressed (a relation is a set of tuples); self-loops are rejected since
/// the compression scheme assumes reflexivity implicitly ("every node can
/// reach itself").
#[derive(Clone, Default)]
pub struct DiGraph {
    out_adj: Vec<Vec<NodeId>>,
    in_adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        DiGraph {
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list, sizing the node set to the largest
    /// endpoint mentioned.
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let edges: Vec<(u32, u32)> = edges.into_iter().collect();
        let n = edges
            .iter()
            .map(|&(a, b)| a.max(b) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut g = DiGraph::with_nodes(n);
        for (a, b) in edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of (distinct) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.out_adj.len());
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds the edge `src -> dst` if not already present.
    ///
    /// Returns `true` if the edge was newly added.
    ///
    /// # Panics
    ///
    /// Panics on unknown endpoints or self-loops; use [`DiGraph::try_add_edge`]
    /// for a fallible variant.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        self.try_add_edge(src, dst).expect("invalid edge")
    }

    /// Fallible edge insertion. Returns `Ok(true)` if the edge was new,
    /// `Ok(false)` if it already existed.
    pub fn try_add_edge(&mut self, src: NodeId, dst: NodeId) -> Result<bool, EdgeKindError> {
        let n = self.node_count();
        for end in [src, dst] {
            if end.index() >= n {
                return Err(EdgeKindError::UnknownNode(end));
            }
        }
        if src == dst {
            return Err(EdgeKindError::SelfLoop(src));
        }
        if self.has_edge(src, dst) {
            return Ok(false);
        }
        self.out_adj[src.index()].push(dst);
        self.in_adj[dst.index()].push(src);
        self.edge_count += 1;
        Ok(true)
    }

    /// Removes the edge `src -> dst`. Returns `true` if it was present.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let out = &mut self.out_adj[src.index()];
        let Some(pos) = out.iter().position(|&d| d == dst) else {
            return false;
        };
        out.remove(pos);
        let inn = &mut self.in_adj[dst.index()];
        let pos = inn
            .iter()
            .position(|&s| s == src)
            .expect("in/out adjacency out of sync");
        inn.remove(pos);
        self.edge_count -= 1;
        true
    }

    /// Whether the edge `src -> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.out_adj
            .get(src.index())
            .is_some_and(|succ| succ.contains(&dst))
    }

    /// Immediate successors of `node` (the paper's "immediate successor list").
    #[inline]
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        &self.out_adj[node.index()]
    }

    /// Immediate predecessors of `node` (the paper's "immediate predecessor
    /// list").
    #[inline]
    pub fn predecessors(&self, node: NodeId) -> &[NodeId] {
        &self.in_adj[node.index()]
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_adj[node.index()].len()
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_adj[node.index()].len()
    }

    /// Iterates over all node ids, `0..n`.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterates over all edges as `(src, dst)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out_adj
            .iter()
            .enumerate()
            .flat_map(|(s, succ)| succ.iter().map(move |&d| (NodeId::from_index(s), d)))
    }

    /// Nodes with no incoming arcs.
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.in_degree(n) == 0)
    }

    /// Nodes with no outgoing arcs.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.out_degree(n) == 0)
    }

    /// Returns the graph with every edge reversed.
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            out_adj: self.in_adj.clone(),
            in_adj: self.out_adj.clone(),
            edge_count: self.edge_count,
        }
    }

    /// Average out-degree (`edges / nodes`), the main workload parameter of
    /// the paper's evaluation (§3.3).
    pub fn average_out_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.edge_count as f64 / self.node_count() as f64
        }
    }

    /// Checks internal invariants; used by debug assertions and tests.
    pub fn check_consistency(&self) -> bool {
        let mut count = 0;
        for (s, succ) in self.out_adj.iter().enumerate() {
            for &d in succ {
                if !self.in_adj[d.index()].contains(&NodeId::from_index(s)) {
                    return false;
                }
                count += 1;
            }
        }
        count == self.edge_count
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DiGraph({} nodes, {} edges)", self.node_count(), self.edge_count)?;
        for n in self.nodes() {
            if !self.successors(n).is_empty() {
                writeln!(f, "  {:?} -> {:?}", n, self.successors(n))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        assert!(g.add_edge(a, b));
        assert!(g.add_edge(b, c));
        assert!(!g.add_edge(a, b), "parallel edge suppressed");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.successors(a), &[b]);
        assert_eq!(g.predecessors(c), &[b]);
        assert!(g.check_consistency());
    }

    #[test]
    fn from_edges_sizes_nodes() {
        let g = DiGraph::from_edges([(0, 5), (5, 2)]);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(5)));
    }

    #[test]
    fn remove_edge_updates_both_directions() {
        let mut g = DiGraph::from_edges([(0, 1), (0, 2)]);
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
        assert!(g.predecessors(NodeId(1)).is_empty());
        assert!(g.check_consistency());
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = DiGraph::with_nodes(1);
        assert_eq!(
            g.try_add_edge(NodeId(0), NodeId(0)),
            Err(EdgeKindError::SelfLoop(NodeId(0)))
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = DiGraph::with_nodes(1);
        assert_eq!(
            g.try_add_edge(NodeId(0), NodeId(9)),
            Err(EdgeKindError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn roots_and_leaves() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.roots().collect::<Vec<_>>(), vec![NodeId(0)]);
        assert_eq!(g.leaves().collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn reversed_swaps_directions() {
        let g = DiGraph::from_edges([(0, 1), (1, 2)]);
        let r = g.reversed();
        assert!(r.has_edge(NodeId(1), NodeId(0)));
        assert!(r.has_edge(NodeId(2), NodeId(1)));
        assert!(!r.has_edge(NodeId(0), NodeId(1)));
        assert!(r.check_consistency());
    }

    #[test]
    fn edges_iterator_covers_everything() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (0, 2)]);
        let mut edges: Vec<_> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn average_out_degree() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (0, 2), (0, 3)]);
        assert!((g.average_out_degree() - 1.0).abs() < 1e-12);
        assert_eq!(DiGraph::new().average_out_degree(), 0.0);
    }
}
