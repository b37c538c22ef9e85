//! Reachability over cyclic graphs via SCC condensation.
//!
//! "The techniques presented in this paper can also be extended to cyclic
//! graphs by collapsing strongly connected components into one node" (§3).
//! [`CyclicClosure`] wraps a [`CompressedClosure`] built over the
//! condensation, translates queries through the component mapping, and
//! keeps both up to date under arc and node updates.

use tc_graph::scc::{condense, Condensation};
use tc_graph::{DiGraph, NodeId};

use crate::{ClosureConfig, CompressedClosure};

/// A compressed transitive closure over an arbitrary (possibly cyclic)
/// directed graph that absorbs updates.
///
/// Inter-component updates ride the §4 incremental machinery of the inner
/// DAG closure; updates that change the component structure itself (an arc
/// closing a cycle between components, or a deletion inside a component)
/// re-condense and rebuild — the honest cost model for the paper's
/// "collapse strongly connected components" extension, where component
/// identity is a global property.
///
/// ```
/// use tc_graph::{DiGraph, NodeId};
/// use tc_core::cyclic::CyclicClosure;
///
/// // 0 <-> 1 form a cycle feeding 2.
/// let c = CyclicClosure::build(&DiGraph::from_edges([(0, 1), (1, 0), (1, 2)]));
/// assert!(c.reaches(NodeId(1), NodeId(0)));
/// assert!(c.reaches(NodeId(0), NodeId(2)));
/// assert!(!c.reaches(NodeId(2), NodeId(0)));
///
/// let mut c = CyclicClosure::build(&DiGraph::with_nodes(3));
/// c.add_edge(NodeId(0), NodeId(1));
/// c.add_edge(NodeId(1), NodeId(2));
/// c.add_edge(NodeId(2), NodeId(0)); // closes a cycle: components merge
/// assert!(c.mutually_reachable(NodeId(0), NodeId(2)));
/// c.remove_edge(NodeId(2), NodeId(0)); // breaks it: they split again
/// assert!(!c.mutually_reachable(NodeId(0), NodeId(2)));
/// assert!(c.reaches(NodeId(0), NodeId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct CyclicClosure {
    /// The original (possibly cyclic) relation.
    graph: DiGraph,
    condensation: Condensation,
    inner: CompressedClosure,
    config: ClosureConfig,
}

impl CyclicClosure {
    /// Builds from an arbitrary directed graph.
    pub fn build(g: &DiGraph) -> Self {
        Self::build_with(g, ClosureConfig::default())
    }

    /// Builds with an explicit configuration for the inner closure.
    pub fn build_with(g: &DiGraph, config: ClosureConfig) -> Self {
        let condensation = condense(g);
        let inner = config
            .build(&condensation.dag)
            .expect("condensation is acyclic");
        CyclicClosure {
            graph: g.clone(),
            condensation,
            inner,
            config,
        }
    }

    /// The original relation.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Whether `src` reaches `dst` (reflexive).
    pub fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        self.inner.reaches(
            self.condensation.node_of(src),
            self.condensation.node_of(dst),
        )
    }

    /// Whether `a` and `b` are mutually reachable.
    pub fn mutually_reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.condensation.node_of(a) == self.condensation.node_of(b)
    }

    /// Adds a node (its own singleton component).
    pub fn add_node(&mut self) -> NodeId {
        let node = self.graph.add_node();
        let comp = self
            .inner
            .add_node_with_parents(&[])
            .expect("root insertion cannot fail");
        self.condensation.scc.component.push(comp.index());
        self.condensation.scc.members.push(vec![node]);
        self.condensation.dag.add_node();
        node
    }

    /// Adds the arc `src -> dst`. Cycles are *allowed*: an arc that closes a
    /// cycle merges components (triggering a rebuild); all other arcs update
    /// the inner closure incrementally. Returns `true` if the arc was new.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        if src == dst || self.graph.has_edge(src, dst) {
            return false;
        }
        self.graph.add_edge(src, dst);
        let cs = self.condensation.node_of(src);
        let cd = self.condensation.node_of(dst);
        if cs == cd {
            return true; // intra-component: reachability unchanged
        }
        if self.inner.reaches(cd, cs) {
            // Closing a cycle between components: the component structure
            // changes — re-condense.
            self.rebuild();
        } else if self.condensation.dag.add_edge(cs, cd) {
            // First original arc inducing this component arc.
            self.inner
                .add_edge(cs, cd)
                .expect("checked: no component cycle");
        }
        true
    }

    /// Removes the arc `src -> dst`. Returns `false` if absent.
    ///
    /// Deleting inside a component may split it (rebuild); deleting the last
    /// original arc between two components removes the induced component
    /// arc incrementally.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        if !self.graph.remove_edge(src, dst) {
            return false;
        }
        let cs = self.condensation.node_of(src);
        let cd = self.condensation.node_of(dst);
        if cs == cd {
            self.rebuild(); // the component may split
            return true;
        }
        // Still another original arc spanning the same component pair?
        let still_spanned = self.graph.edges().any(|(u, v)| {
            self.condensation.node_of(u) == cs && self.condensation.node_of(v) == cd
        });
        if !still_spanned {
            self.condensation.dag.remove_edge(cs, cd);
            self.inner
                .remove_edge(cs, cd)
                .expect("component arc must exist");
        }
        true
    }

    /// Re-condenses and rebuilds the inner closure from the current graph.
    pub fn rebuild(&mut self) {
        *self = Self::build_with(&self.graph, self.config);
    }

    /// Exhaustive check against DFS ground truth (tests only).
    pub fn verify(&self) -> Result<(), String> {
        for u in self.graph.nodes() {
            let truth = tc_graph::traverse::reachable_set(&self.graph, u);
            for v in self.graph.nodes() {
                if self.reaches(u, v) != truth.contains(v.index()) {
                    return Err(format!("cyclic closure wrong on ({u:?},{v:?})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cycle_members_reach_each_other() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = CyclicClosure::build(&g);
        for a in 0..3u32 {
            for b in 0..3u32 {
                assert!(c.reaches(NodeId(a), NodeId(b)));
                assert!(c.mutually_reachable(NodeId(a), NodeId(b)));
            }
            assert!(c.reaches(NodeId(a), NodeId(3)));
            assert!(!c.reaches(NodeId(3), NodeId(a)));
        }
    }

    #[test]
    fn acyclic_graph_behaves_like_plain_closure() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (0, 2)]);
        let c = CyclicClosure::build(&g);
        let plain = CompressedClosure::build(&g).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(c.reaches(u, v), plain.reaches(u, v));
            }
        }
    }

    #[test]
    fn random_cyclic_graphs_match_dfs_truth() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let n = 30;
            let mut g = DiGraph::with_nodes(n);
            for _ in 0..60 {
                let a = rng.random_range(0..n as u32);
                let b = rng.random_range(0..n as u32);
                if a != b {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
            let c = CyclicClosure::build(&g);
            for u in g.nodes() {
                let truth = tc_graph::traverse::reachable_set(&g, u);
                for v in g.nodes() {
                    assert_eq!(
                        c.reaches(u, v),
                        truth.contains(v.index()),
                        "reach({u:?},{v:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn dynamic_cycle_formation_and_dissolution() {
        let mut c = CyclicClosure::build(&DiGraph::with_nodes(4));
        assert!(c.add_edge(NodeId(0), NodeId(1)));
        assert!(c.add_edge(NodeId(1), NodeId(2)));
        assert!(!c.mutually_reachable(NodeId(0), NodeId(2)));
        // Close the cycle 0 -> 1 -> 2 -> 0.
        assert!(c.add_edge(NodeId(2), NodeId(0)));
        assert!(c.mutually_reachable(NodeId(0), NodeId(2)));
        assert!(c.reaches(NodeId(2), NodeId(1)));
        c.verify().unwrap();
        // Hang node 3 off the cycle.
        c.add_edge(NodeId(1), NodeId(3));
        assert!(c.reaches(NodeId(0), NodeId(3)));
        assert!(!c.reaches(NodeId(3), NodeId(0)));
        // Break the cycle: components split again.
        assert!(c.remove_edge(NodeId(2), NodeId(0)));
        assert!(!c.mutually_reachable(NodeId(0), NodeId(2)));
        assert!(c.reaches(NodeId(0), NodeId(2)));
        c.verify().unwrap();
    }

    #[test]
    fn dynamic_parallel_component_arcs() {
        // Two original arcs spanning the same component pair: removing one
        // must keep reachability; removing both must drop it.
        let mut c = CyclicClosure::build(&DiGraph::with_nodes(4));
        // Component {0,1} via 2-cycle, arcs 0->2 and 1->2... wait, 0 and 1
        // mutually: 0->1, 1->0.
        c.add_edge(NodeId(0), NodeId(1));
        c.add_edge(NodeId(1), NodeId(0));
        c.add_edge(NodeId(0), NodeId(2));
        c.add_edge(NodeId(1), NodeId(2));
        assert!(c.reaches(NodeId(0), NodeId(2)));
        assert!(c.remove_edge(NodeId(0), NodeId(2)));
        assert!(c.reaches(NodeId(0), NodeId(2)), "second spanning arc remains");
        assert!(c.remove_edge(NodeId(1), NodeId(2)));
        assert!(!c.reaches(NodeId(0), NodeId(2)));
        c.verify().unwrap();
    }

    #[test]
    fn dynamic_add_node() {
        let mut c = CyclicClosure::build(&DiGraph::from_edges([(0, 1)]));
        let n = c.add_node();
        assert!(c.reaches(n, n));
        c.add_edge(NodeId(1), n);
        assert!(c.reaches(NodeId(0), n));
        c.verify().unwrap();
    }

    #[test]
    fn dynamic_random_churn_matches_dfs() {
        let mut rng = StdRng::seed_from_u64(17);
        for seed in 0..4 {
            let mut g = DiGraph::with_nodes(12);
            let mut rng2 = StdRng::seed_from_u64(seed);
            for _ in 0..10 {
                let a = rng2.random_range(0..12u32);
                let b = rng2.random_range(0..12u32);
                if a != b {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
            let mut c = CyclicClosure::build(&g);
            for step in 0..60 {
                let a = NodeId(rng.random_range(0..c.graph().node_count() as u32));
                let b = NodeId(rng.random_range(0..c.graph().node_count() as u32));
                match rng.random_range(0..4) {
                    0 | 1 => {
                        if a != b {
                            c.add_edge(a, b);
                        }
                    }
                    2 => {
                        c.remove_edge(a, b);
                    }
                    _ => {
                        c.add_node();
                    }
                }
                if step % 15 == 14 {
                    c.verify()
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                }
            }
            c.verify().unwrap();
        }
    }

    #[test]
    fn self_loop_only_graph() {
        // A 2-cycle collapses to a single condensed node.
        let g = DiGraph::from_edges([(0, 1), (1, 0)]);
        let c = CyclicClosure::build(&g);
        assert!(c.reaches(NodeId(0), NodeId(1)));
        assert!(c.mutually_reachable(NodeId(0), NodeId(1)));
    }
}
