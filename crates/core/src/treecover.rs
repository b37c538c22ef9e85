//! Tree covers and the paper's Alg1.
//!
//! A *tree cover* of a DAG `G` is a spanning forest using only arcs of `G`:
//! every node keeps at most one of its incoming arcs as its *tree arc* (the
//! paper hooks parent-less nodes to a virtual root, which we leave
//! implicit). The choice of tree cover determines how many non-tree
//! intervals survive subsumption; **Alg1** (§3.2) picks, for each node in
//! topological order, the immediate predecessor with the largest predecessor
//! set, which Theorem 1 proves yields the minimum total interval count among
//! all tree covers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_graph::{topo, DiGraph, NodeId};

/// A spanning forest over a DAG's nodes, using only DAG arcs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeCover {
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

impl TreeCover {
    /// Builds a cover from an explicit parent assignment.
    ///
    /// # Panics
    ///
    /// Panics if a parent edge is not an arc of `g` (a tree cover may only
    /// use arcs of the graph), or if the assignment length mismatches.
    pub fn from_parents(g: &DiGraph, parent: Vec<Option<NodeId>>) -> Self {
        assert_eq!(parent.len(), g.node_count(), "parent vector length mismatch");
        let mut children = vec![Vec::new(); g.node_count()];
        for (ix, &p) in parent.iter().enumerate() {
            if let Some(p) = p {
                let child = NodeId::from_index(ix);
                assert!(g.has_edge(p, child), "tree arc ({p:?},{child:?}) is not a graph arc");
                children[p.index()].push(child);
            }
        }
        TreeCover { parent, children }
    }

    /// Reconstructs a cover from explicit parent and children arrays (the
    /// deserialization path, which must preserve children *order* because
    /// postorder numbering depends on it). Returns `None` if the two arrays
    /// are mutually inconsistent.
    pub fn from_raw(parent: Vec<Option<NodeId>>, children: Vec<Vec<NodeId>>) -> Option<Self> {
        if parent.len() != children.len() {
            return None;
        }
        // Every child list entry must point back via parent, and counts
        // must match exactly.
        let mut child_slots = 0usize;
        for (ix, kids) in children.iter().enumerate() {
            for &k in kids {
                if parent.get(k.index()).copied().flatten() != Some(NodeId::from_index(ix)) {
                    return None;
                }
                child_slots += 1;
            }
        }
        let with_parent = parent.iter().filter(|p| p.is_some()).count();
        if child_slots != with_parent {
            return None;
        }
        Some(TreeCover { parent, children })
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// The tree parent of `node` (`None` for forest roots, i.e. children of
    /// the paper's virtual root).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// The tree children of `node`, in insertion order (the order controls
    /// postorder numbering and hence adjacent-interval merging — see the
    /// paper's Fig 3.8 on order dependence).
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Forest roots in ascending id order.
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(ix, _)| NodeId::from_index(ix))
    }

    /// Whether the arc `(src, dst)` is a tree arc of this cover.
    #[inline]
    pub fn is_tree_arc(&self, src: NodeId, dst: NodeId) -> bool {
        self.parent(dst) == Some(src)
    }

    /// Whether `anc` is a tree ancestor of `node` (reflexive).
    pub fn is_tree_ancestor(&self, anc: NodeId, node: NodeId) -> bool {
        let mut cur = Some(node);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// Depth of `node` (roots have depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Iterates over the subtree of `node` (including `node`) in preorder.
    pub fn subtree(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n).iter().copied());
        }
        out
    }

    /// Re-attaches `node` as a forest root (used by tree-arc deletion) and
    /// returns its former parent.
    pub(crate) fn detach(&mut self, node: NodeId) -> Option<NodeId> {
        let old = self.parent[node.index()].take();
        if let Some(p) = old {
            let kids = &mut self.children[p.index()];
            let pos = kids.iter().position(|&c| c == node).expect("child list out of sync");
            kids.remove(pos);
        }
        old
    }

    /// Attaches `node` (currently a root) under `parent`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn attach(&mut self, parent: NodeId, node: NodeId) {
        debug_assert!(self.parent[node.index()].is_none(), "attach of non-root");
        self.parent[node.index()] = Some(parent);
        self.children[parent.index()].push(node);
    }

    /// Appends a fresh node with the given parent. Returns its id.
    pub(crate) fn push_node(&mut self, parent: Option<NodeId>) -> NodeId {
        let id = NodeId::from_index(self.parent.len());
        self.parent.push(parent);
        self.children.push(Vec::new());
        if let Some(p) = parent {
            self.children[p.index()].push(id);
        }
        id
    }

    /// Validates structural invariants: acyclicity of parent chains and
    /// parent/children consistency.
    pub fn check_consistency(&self, g: &DiGraph) -> bool {
        if self.parent.len() != g.node_count() {
            return false;
        }
        for (ix, &p) in self.parent.iter().enumerate() {
            let node = NodeId::from_index(ix);
            if let Some(p) = p {
                if !g.has_edge(p, node) || !self.children[p.index()].contains(&node) {
                    return false;
                }
            }
        }
        // Every node must reach a root by parent chain within n steps.
        for start in 0..self.parent.len() {
            let mut cur = NodeId::from_index(start);
            let mut steps = 0;
            while let Some(p) = self.parent(cur) {
                cur = p;
                steps += 1;
                if steps > self.parent.len() {
                    return false; // cycle in parent chain
                }
            }
        }
        true
    }
}

/// How to choose the tree cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverStrategy {
    /// The paper's Alg1: tree parent = immediate predecessor with the
    /// largest predecessor set (optimal by Theorem 1). Ties break to the
    /// smaller node id, so builds are deterministic.
    Optimal,
    /// Tree parent = first immediate predecessor in adjacency order. The
    /// naive choice, used as an ablation baseline.
    FirstParent,
    /// Tree parent = uniformly random immediate predecessor.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Tree parent = the immediate predecessor with the greatest tree depth
    /// so far (a greedy "deep chains" heuristic, for ablation).
    Deepest,
}

impl CoverStrategy {
    /// Computes a tree cover of `g` using `topo_order` (a valid topological
    /// order of `g`).
    pub fn compute(self, g: &DiGraph, topo_order: &[NodeId]) -> TreeCover {
        match self {
            CoverStrategy::Optimal => optimal_cover(g, topo_order),
            CoverStrategy::FirstParent => simple_cover(g, topo_order, |preds, _| preds[0]),
            CoverStrategy::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                simple_cover(g, topo_order, move |preds, _| {
                    preds[rng.random_range(0..preds.len())]
                })
            }
            CoverStrategy::Deepest => deepest_cover(g, topo_order),
        }
    }
}

/// The paper's Alg1 (§3.2):
///
/// ```text
/// Topologically sort G. Assume nodes with no predecessors are connected to
/// a virtual level-0 root.
/// For every node j in G, in topological order, do:
///   keep the incoming arc (i, j) whose i has the largest pred() set;
///   pred(j) := union over immediate predecessors i_k of {i_k} ∪ pred(i_k)
/// ```
///
/// Predecessor sets are bitsets indexed by *topological position*: every
/// predecessor of `j` sits earlier in `topo_order`, so `pred(j)` needs only
/// `pos(j)` bits and each union ORs only `pred(i)`'s words. `size(pred(i))`
/// is cached per node so each comparison is O(1). A set is dropped into a
/// free list once its node's last successor has been processed (an
/// out-degree countdown), and sinks never build one, so the peak is the live
/// frontier of sets still awaiting a successor rather than n²/8 bytes.
pub fn optimal_cover(g: &DiGraph, topo_order: &[NodeId]) -> TreeCover {
    let n = g.node_count();
    let mut pos = vec![0usize; n];
    for (p, &v) in topo_order.iter().enumerate() {
        pos[v.index()] = p;
    }
    let mut pending: Vec<usize> = g.nodes().map(|v| g.out_degree(v)).collect();
    let mut pred: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut free: Vec<Vec<u64>> = Vec::new();
    let mut pred_size = vec![0usize; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];

    for &j in topo_order {
        let preds = g.predecessors(j);
        if !preds.is_empty() {
            // Winner: largest pred set, ties to smaller id.
            let best = preds
                .iter()
                .copied()
                .min_by(|a, b| {
                    pred_size[b.index()]
                        .cmp(&pred_size[a.index()])
                        .then(a.0.cmp(&b.0))
                })
                .expect("non-empty");
            parent[j.index()] = Some(best);
        }
        // pred(j) = union over immediate predecessors of pred(i) ∪ {i} —
        // only read by j's successors, so a sink skips it.
        if pending[j.index()] > 0 {
            let mut pj = free.pop().unwrap_or_default();
            pj.clear();
            pj.resize(pos[j.index()].div_ceil(64), 0);
            for &i in preds {
                let pi = pos[i.index()];
                pj[pi / 64] |= 1 << (pi % 64);
                for (w, &x) in pj.iter_mut().zip(&pred[i.index()]) {
                    *w |= x;
                }
            }
            pred_size[j.index()] = pj.iter().map(|w| w.count_ones() as usize).sum();
            pred[j.index()] = pj;
        }
        for &i in preds {
            pending[i.index()] -= 1;
            if pending[i.index()] == 0 {
                free.push(std::mem::take(&mut pred[i.index()]));
            }
        }
    }

    finish_cover(g, parent)
}

fn simple_cover(
    g: &DiGraph,
    topo_order: &[NodeId],
    mut pick: impl FnMut(&[NodeId], NodeId) -> NodeId,
) -> TreeCover {
    let mut parent: Vec<Option<NodeId>> = vec![None; g.node_count()];
    for &j in topo_order {
        let preds = g.predecessors(j);
        if !preds.is_empty() {
            parent[j.index()] = Some(pick(preds, j));
        }
    }
    finish_cover(g, parent)
}

fn deepest_cover(g: &DiGraph, topo_order: &[NodeId]) -> TreeCover {
    let n = g.node_count();
    let mut depth = vec![0usize; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    for &j in topo_order {
        let preds = g.predecessors(j);
        if !preds.is_empty() {
            let best = preds
                .iter()
                .copied()
                .min_by(|a, b| depth[b.index()].cmp(&depth[a.index()]).then(a.0.cmp(&b.0)))
                .expect("non-empty");
            parent[j.index()] = Some(best);
            depth[j.index()] = depth[best.index()] + 1;
        }
    }
    finish_cover(g, parent)
}

fn finish_cover(g: &DiGraph, parent: Vec<Option<NodeId>>) -> TreeCover {
    let mut children = vec![Vec::new(); g.node_count()];
    for (ix, &p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[p.index()].push(NodeId::from_index(ix));
        }
    }
    // Deterministic child order (ascending id); callers wanting a specific
    // sibling order construct covers via `TreeCover::from_parents`.
    for kids in &mut children {
        kids.sort_unstable();
    }
    TreeCover { parent, children }
}

/// Enumerates *every* tree cover of `g` (the cartesian product of parent
/// choices per node), for brute-force optimality checks on small graphs.
///
/// Returns `None` if the number of covers exceeds `limit`.
pub fn enumerate_covers(g: &DiGraph, limit: usize) -> Option<Vec<TreeCover>> {
    let n = g.node_count();
    let mut total: usize = 1;
    for v in g.nodes() {
        let choices = g.in_degree(v).max(1);
        total = total.checked_mul(choices)?;
        if total > limit {
            return None;
        }
    }

    let mut covers = Vec::with_capacity(total);
    let mut choice = vec![0usize; n];
    loop {
        let parent: Vec<Option<NodeId>> = (0..n)
            .map(|ix| {
                let preds = g.predecessors(NodeId::from_index(ix));
                if preds.is_empty() {
                    None
                } else {
                    Some(preds[choice[ix]])
                }
            })
            .collect();
        covers.push(TreeCover::from_parents(g, parent));

        // Odometer increment over the per-node choice counts.
        let mut pos = 0;
        loop {
            if pos == n {
                return Some(covers);
            }
            let max = g.in_degree(NodeId::from_index(pos)).max(1);
            choice[pos] += 1;
            if choice[pos] < max {
                break;
            }
            choice[pos] = 0;
            pos += 1;
        }
    }
}

/// Convenience: compute a cover for `g` with the given strategy, doing the
/// topological sort internally.
pub fn cover_of(g: &DiGraph, strategy: CoverStrategy) -> Result<TreeCover, topo::CycleError> {
    let order = topo::topo_sort(g)?;
    Ok(strategy.compute(g, &order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::{generators, traverse};

    /// The paper's running example shape: a diamond with a tail.
    fn diamond() -> DiGraph {
        DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn optimal_cover_spans_all_nodes() {
        let g = diamond();
        let cover = cover_of(&g, CoverStrategy::Optimal).unwrap();
        assert!(cover.check_consistency(&g));
        assert_eq!(cover.parent(NodeId(0)), None);
        assert_eq!(cover.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(cover.parent(NodeId(2)), Some(NodeId(0)));
        // Node 3: both preds have pred-set {0} of size 1; tie breaks to 1.
        assert_eq!(cover.parent(NodeId(3)), Some(NodeId(1)));
    }

    #[test]
    fn alg1_prefers_larger_pred_set() {
        // 0 -> 1 -> 2 -> 4, 3 -> 4. pred(2) = {0,1} (size 2), pred(3) = {}
        // so 4's tree parent must be 2.
        let g = DiGraph::from_edges([(0, 1), (1, 2), (2, 4), (3, 4)]);
        let cover = cover_of(&g, CoverStrategy::Optimal).unwrap();
        assert_eq!(cover.parent(NodeId(4)), Some(NodeId(2)));
    }

    /// Alg1 from first principles: each node's predecessor count by a
    /// reverse traversal, then the immediate predecessor with the largest
    /// count, ties to the smaller id.
    fn alg1_oracle(g: &DiGraph) -> Vec<Option<NodeId>> {
        let rev = g.reversed();
        let size: Vec<usize> =
            g.nodes().map(|v| traverse::reachable_set(&rev, v).len() - 1).collect();
        g.nodes()
            .map(|j| {
                g.predecessors(j)
                    .iter()
                    .copied()
                    .min_by_key(|i| (std::cmp::Reverse(size[i.index()]), i.0))
            })
            .collect()
    }

    /// Every node of each layer fed by every node of the layer before: all
    /// predecessors of a node tie on size, so only the tie-break decides.
    fn complete_layers(layers: usize, width: usize) -> DiGraph {
        let mut g = DiGraph::with_nodes(layers * width);
        for l in 1..layers {
            for a in 0..width {
                for b in 0..width {
                    let (src, dst) = ((l - 1) * width + a, l * width + b);
                    g.add_edge(NodeId::from_index(src), NodeId::from_index(dst));
                }
            }
        }
        g
    }

    #[test]
    fn optimal_cover_matches_alg1_oracle() {
        let mut graphs = vec![
            generators::dense_layered(8, 30, 4, 3),
            generators::dense_layered(5, 70, 6, 11),
            generators::bipartite_worst(21, 20),
            generators::bipartite_with_hub(9, 12),
            complete_layers(6, 12),
            generators::layered_dag(12, 16, 2, 5),
        ];
        for seed in 0..6 {
            let degree = [0.5, 1.5, 3.0][seed as usize % 3];
            graphs.push(generators::random_dag(generators::RandomDagConfig {
                nodes: 300,
                avg_out_degree: degree,
                seed,
            }));
        }
        for (k, g) in graphs.iter().enumerate() {
            let cover = cover_of(g, CoverStrategy::Optimal).unwrap();
            let want = alg1_oracle(g);
            for v in g.nodes() {
                assert_eq!(cover.parent(v), want[v.index()], "graph {k}, node {v:?}");
            }
        }
    }

    #[test]
    fn first_parent_and_random_are_valid_covers() {
        let g = diamond();
        for strat in [
            CoverStrategy::FirstParent,
            CoverStrategy::Random { seed: 3 },
            CoverStrategy::Deepest,
        ] {
            let cover = cover_of(&g, strat).unwrap();
            assert!(cover.check_consistency(&g), "{strat:?}");
            // Every non-root's tree arc is a real graph arc (checked by
            // check_consistency) and node 0 is the only root.
            assert_eq!(cover.roots().collect::<Vec<_>>(), vec![NodeId(0)]);
        }
    }

    #[test]
    fn deepest_builds_chains() {
        // 0 -> 1 -> 2, 0 -> 3, {2,3} -> 4: deepest picks 2 (depth 2) over 3.
        let g = DiGraph::from_edges([(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)]);
        let cover = cover_of(&g, CoverStrategy::Deepest).unwrap();
        assert_eq!(cover.parent(NodeId(4)), Some(NodeId(2)));
    }

    #[test]
    fn subtree_and_ancestry() {
        let g = diamond();
        let cover = cover_of(&g, CoverStrategy::Optimal).unwrap();
        let mut sub = cover.subtree(NodeId(0));
        sub.sort_unstable();
        assert_eq!(sub, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert!(cover.is_tree_ancestor(NodeId(0), NodeId(3)));
        assert!(cover.is_tree_ancestor(NodeId(3), NodeId(3)), "reflexive");
        assert!(!cover.is_tree_ancestor(NodeId(2), NodeId(3)), "3 hangs under 1");
        assert_eq!(cover.depth(NodeId(3)), 2);
        assert!(cover.is_tree_arc(NodeId(0), NodeId(1)));
        assert!(!cover.is_tree_arc(NodeId(2), NodeId(3)));
    }

    #[test]
    fn detach_and_attach() {
        let g = diamond();
        let mut cover = cover_of(&g, CoverStrategy::Optimal).unwrap();
        assert_eq!(cover.detach(NodeId(3)), Some(NodeId(1)));
        assert_eq!(cover.parent(NodeId(3)), None);
        assert!(!cover.children(NodeId(1)).contains(&NodeId(3)));
        cover.attach(NodeId(2), NodeId(3));
        assert_eq!(cover.parent(NodeId(3)), Some(NodeId(2)));
        assert!(cover.check_consistency(&g));
    }

    #[test]
    fn enumerate_covers_counts_products() {
        let g = diamond();
        // Choices: node0:1, node1:1, node2:1, node3:2 -> 2 covers.
        let covers = enumerate_covers(&g, 100).unwrap();
        assert_eq!(covers.len(), 2);
        assert!(covers.iter().all(|c| c.check_consistency(&g)));
        // Limit respected.
        assert!(enumerate_covers(&g, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "not a graph arc")]
    fn from_parents_rejects_non_arcs() {
        let g = diamond();
        let _ = TreeCover::from_parents(&g, vec![None, Some(NodeId(2)), None, Some(NodeId(1))]);
    }

    #[test]
    fn check_consistency_catches_parent_cycles() {
        // Force a bogus cover with a parent cycle via direct construction.
        let g = DiGraph::from_edges([(0, 1), (1, 0)]); // not a DAG, but edges exist
        let cover = TreeCover {
            parent: vec![Some(NodeId(1)), Some(NodeId(0))],
            children: vec![vec![NodeId(1)], vec![NodeId(0)]],
        };
        assert!(!cover.check_consistency(&g));
    }
}
