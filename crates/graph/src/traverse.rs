//! Graph traversal: DFS/BFS iterators and reachable-set computation.
//!
//! These are the "pointer chasing" primitives the paper wants to replace at
//! query time (§2.1). They serve three roles in this workspace: ground truth
//! for correctness tests, the on-the-fly baseline in `tc-baselines`, and
//! building blocks for closure construction.

use crate::{BitSet, DiGraph, NodeId};

/// Iterative depth-first traversal from a start node (preorder).
pub struct Dfs<'g> {
    graph: &'g DiGraph,
    stack: Vec<NodeId>,
    visited: BitSet,
}

impl<'g> Dfs<'g> {
    /// Starts a DFS at `start`. The start node itself is yielded first.
    pub fn new(graph: &'g DiGraph, start: NodeId) -> Self {
        let mut visited = BitSet::new(graph.node_count());
        visited.insert(start.index());
        Dfs {
            graph,
            stack: vec![start],
            visited,
        }
    }
}

impl Iterator for Dfs<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.stack.pop()?;
        // Push successors in reverse so the first successor is visited first.
        for &succ in self.graph.successors(node).iter().rev() {
            if self.visited.insert(succ.index()) {
                self.stack.push(succ);
            }
        }
        Some(node)
    }
}

/// Breadth-first traversal from a start node.
pub struct Bfs<'g> {
    graph: &'g DiGraph,
    queue: std::collections::VecDeque<NodeId>,
    visited: BitSet,
}

impl<'g> Bfs<'g> {
    /// Starts a BFS at `start`. The start node itself is yielded first.
    pub fn new(graph: &'g DiGraph, start: NodeId) -> Self {
        let mut visited = BitSet::new(graph.node_count());
        visited.insert(start.index());
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        Bfs { graph, queue, visited }
    }
}

impl Iterator for Bfs<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.queue.pop_front()?;
        for &succ in self.graph.successors(node) {
            if self.visited.insert(succ.index()) {
                self.queue.push_back(succ);
            }
        }
        Some(node)
    }
}

/// Computes the set of nodes reachable from `start` (including `start`
/// itself — the paper assumes "every node can reach itself").
pub fn reachable_set(g: &DiGraph, start: NodeId) -> BitSet {
    let mut visited = BitSet::new(g.node_count());
    let mut stack = vec![start];
    visited.insert(start.index());
    while let Some(node) = stack.pop() {
        for &succ in g.successors(node) {
            if visited.insert(succ.index()) {
                stack.push(succ);
            }
        }
    }
    visited
}

/// Every node with a path to `node`, `node` included, into `out` (cleared
/// first) in ascending id order: a breadth-first walk over in-arcs with an
/// n-bit visited set, O(answer + its in-arcs). `in_arcs(v, buf)` appends
/// `v`'s immediate predecessors to `buf`, each below `nodes`. It is asked
/// once per node reached, so the walk ends whatever arcs it reports, and
/// its first `Err` ends the walk early. The one `predecessors` algorithm:
/// the mutable closure runs it over its graph, a frozen plane over its
/// in-arc segment.
pub fn ancestors_into<E>(
    nodes: usize,
    node: NodeId,
    out: &mut Vec<NodeId>,
    mut in_arcs: impl FnMut(NodeId, &mut Vec<NodeId>) -> Result<(), E>,
) -> Result<(), E> {
    let mut seen = BitSet::new(nodes);
    seen.insert(node.index());
    out.clear();
    out.push(node);
    let mut arcs = Vec::new();
    // `out` doubles as the queue: everything before `next` has had its
    // in-arcs followed.
    let mut next = 0;
    while let Some(&v) = out.get(next) {
        next += 1;
        arcs.clear();
        in_arcs(v, &mut arcs)?;
        for &u in &arcs {
            if seen.insert(u.index()) {
                out.push(u);
            }
        }
    }
    out.sort_unstable();
    Ok(())
}

/// Whether a path `src →* dst` exists (reflexive: `reaches(g, v, v)` is
/// always true). This is the naive query the compressed closure replaces.
pub fn reaches(g: &DiGraph, src: NodeId, dst: NodeId) -> bool {
    if src == dst {
        return true;
    }
    let mut visited = BitSet::new(g.node_count());
    let mut stack = vec![src];
    visited.insert(src.index());
    while let Some(node) = stack.pop() {
        for &succ in g.successors(node) {
            if succ == dst {
                return true;
            }
            if visited.insert(succ.index()) {
                stack.push(succ);
            }
        }
    }
    false
}

/// Computes the reflexive transitive closure as one bitset row per node.
///
/// Works on any graph (cyclic included) by propagating rows in reverse
/// order of Tarjan component index; for the acyclic case this is a reverse
/// topological sweep, the standard O(n·m/64) dense-closure computation.
pub fn closure_rows(g: &DiGraph) -> Vec<BitSet> {
    let n = g.node_count();
    let scc = crate::scc::tarjan_scc(g);
    // Tarjan component indices are reverse-topological (sinks first), so
    // processing nodes in ascending component index sees successors first.
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|v| scc.component_of(*v));

    let mut rows: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    // Within an SCC every member reaches every other; handle components as
    // units: compute the union row for the component, then assign.
    for comp in &scc.members {
        let mut row = BitSet::new(n);
        for &v in comp {
            row.insert(v.index());
        }
        for &v in comp {
            for &succ in g.successors(v) {
                if scc.component_of(succ) != scc.component_of(v) {
                    // Successor component already finished (smaller index).
                    row.insert(succ.index());
                    let succ_row = rows[succ.index()].clone();
                    row.union_with(&succ_row);
                }
            }
        }
        for &v in comp {
            rows[v.index()] = row.clone();
        }
    }
    rows
}

/// Number of arcs in the *irreflexive* transitive closure (the quantity the
/// paper's §3.3 storage plots report: "the number of successors at each
/// node").
pub fn closure_size(g: &DiGraph) -> usize {
    closure_rows(g)
        .iter()
        .map(|row| row.len() - 1) // subtract the reflexive self-bit
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn dfs_visits_all_reachable_once() {
        let g = diamond();
        let seen: Vec<NodeId> = Dfs::new(&g, NodeId(0)).collect();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], NodeId(0));
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn dfs_respects_successor_order() {
        let g = DiGraph::from_edges([(0, 1), (0, 2), (1, 3)]);
        let seen: Vec<NodeId> = Dfs::new(&g, NodeId(0)).collect();
        assert_eq!(seen, vec![NodeId(0), NodeId(1), NodeId(3), NodeId(2)]);
    }

    #[test]
    fn bfs_visits_level_by_level() {
        let g = DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3)]);
        let seen: Vec<NodeId> = Bfs::new(&g, NodeId(0)).collect();
        assert_eq!(seen, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn reachable_set_includes_self() {
        let g = diamond();
        let set = reachable_set(&g, NodeId(1));
        assert!(set.contains(1));
        assert!(set.contains(3));
        assert!(!set.contains(0));
        assert!(!set.contains(2));
    }

    #[test]
    fn reaches_is_reflexive_and_transitive() {
        let g = diamond();
        assert!(reaches(&g, NodeId(2), NodeId(2)));
        assert!(reaches(&g, NodeId(0), NodeId(3)));
        assert!(!reaches(&g, NodeId(3), NodeId(0)));
        assert!(!reaches(&g, NodeId(1), NodeId(2)));
    }

    #[test]
    fn closure_rows_match_per_node_dfs() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (3, 1), (2, 4), (3, 4)]);
        let rows = closure_rows(&g);
        for v in g.nodes() {
            let direct = reachable_set(&g, v);
            assert_eq!(rows[v.index()], direct, "row mismatch for {v:?}");
        }
    }

    #[test]
    fn closure_rows_handle_cycles() {
        let g = DiGraph::from_edges([(0, 1), (1, 0), (1, 2)]);
        let rows = closure_rows(&g);
        assert!(rows[0].contains(0) && rows[0].contains(1) && rows[0].contains(2));
        assert!(rows[1].contains(0) && rows[1].contains(2));
        assert!(!rows[2].contains(0));
    }

    #[test]
    fn closure_size_counts_irreflexive_pairs() {
        // Chain 0->1->2: closure pairs are (0,1),(0,2),(1,2).
        let g = DiGraph::from_edges([(0, 1), (1, 2)]);
        assert_eq!(closure_size(&g), 3);
        assert_eq!(closure_size(&diamond()), 1 + 1 + 2 + 1); // 3->Ø,1->{3},2->{3},0->{1,2,3}
    }

    #[test]
    fn traversal_on_isolated_node() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        assert_eq!(Dfs::new(&g, a).collect::<Vec<_>>(), vec![a]);
        assert_eq!(Bfs::new(&g, a).collect::<Vec<_>>(), vec![a]);
        assert_eq!(reachable_set(&g, a).len(), 1);
    }
}
