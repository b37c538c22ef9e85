//! Topological sorting and cycle detection.
//!
//! The compression scheme of the paper processes nodes "in the reverse
//! topological order" (§3.2) and Alg1 runs "in topological order"; this
//! module provides both orders plus cycle detection with an explicit cycle
//! witness for error reporting.

use std::fmt;

use crate::{DiGraph, NodeId};

/// Error carrying one directed cycle found in a graph that was expected to be
/// acyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// Nodes along the cycle, in order; the last node has an arc back to the
    /// first.
    pub cycle: Vec<NodeId>,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph contains a cycle: ")?;
        for (i, n) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, " -> {}", self.cycle[0])
    }
}

impl std::error::Error for CycleError {}

/// Computes a topological order using Kahn's algorithm.
///
/// Returns the nodes in an order where every arc goes from an earlier to a
/// later position. On a cyclic graph, returns a [`CycleError`] with a cycle
/// witness.
pub fn topo_sort(g: &DiGraph) -> Result<Vec<NodeId>, CycleError> {
    let n = g.node_count();
    let mut in_deg: Vec<usize> = (0..n).map(|i| g.in_degree(NodeId::from_index(i))).collect();
    let mut queue: Vec<NodeId> = g.roots().collect();
    let mut order = Vec::with_capacity(n);
    while let Some(node) = queue.pop() {
        order.push(node);
        for &succ in g.successors(node) {
            in_deg[succ.index()] -= 1;
            if in_deg[succ.index()] == 0 {
                queue.push(succ);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(CycleError {
            cycle: find_cycle(g).expect("Kahn found fewer nodes, a cycle must exist"),
        })
    }
}

/// Returns `true` iff the graph has no directed cycle.
pub fn is_acyclic(g: &DiGraph) -> bool {
    topo_sort(g).is_ok()
}

/// Returns the position of each node in a topological order: `rank[v]` is the
/// index of `v` in `topo_sort(g)`.
pub fn topo_rank(g: &DiGraph) -> Result<Vec<usize>, CycleError> {
    let order = topo_sort(g)?;
    let mut rank = vec![0usize; g.node_count()];
    for (ix, node) in order.iter().enumerate() {
        rank[node.index()] = ix;
    }
    Ok(rank)
}

/// Finds one directed cycle, if any, via iterative DFS with a three-color
/// scheme.
pub fn find_cycle(g: &DiGraph) -> Option<Vec<NodeId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = g.node_count();
    let mut color = vec![Color::White; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];

    for start in g.nodes() {
        if color[start.index()] != Color::White {
            continue;
        }
        // Stack of (node, next-successor-index) frames.
        let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];
        color[start.index()] = Color::Gray;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succ = g.successors(node);
            if *next < succ.len() {
                let child = succ[*next];
                *next += 1;
                match color[child.index()] {
                    Color::White => {
                        parent[child.index()] = Some(node);
                        color[child.index()] = Color::Gray;
                        stack.push((child, 0));
                    }
                    Color::Gray => {
                        // Found a back edge node -> child: unwind the parent
                        // chain from `node` up to `child`.
                        let mut cycle = vec![node];
                        let mut cur = node;
                        while cur != child {
                            cur = parent[cur.index()].expect("gray node must have a parent");
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[node.index()] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

/// GRAIL-style negative-cutoff labels over one DFS of a DAG (Yıldırım,
/// Chaoji & Zaki's GRAIL index, reduced to a single traversal).
///
/// One iterative DFS over the whole graph (roots in ascending id order,
/// successors in stored order) assigns every node its postorder finish
/// index `post(v)`, and `mn(v) = min(post(v), min over successors' mn)` is
/// folded in as each node finishes. On a DAG every arc `(u, v)` has
/// `post(v) < post(u)` (finish times are a reverse topological order), and
/// `mn` is monotone along arcs, so:
///
/// > `u` reaches `v`  ⟹  `mn(u) <= mn(v)` and `post(v) <= post(u)`.
///
/// The contrapositive is the cutoff: when the label containment fails, `v`
/// is *provably* unreachable from `u` and the caller can answer "no"
/// without consulting any index. A passing check proves nothing — distinct
/// subtrees share label ranges — so positives must still be confirmed.
/// Two `u32`s per node; building is one O(n + m) traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutoffLabels {
    /// `mn[v]`: minimum postorder finish index reachable from `v`.
    mn: Vec<u32>,
    /// `post[v]`: `v`'s own postorder finish index.
    post: Vec<u32>,
}

impl CutoffLabels {
    /// Labels every node of `g` in one DFS. `g` must be acyclic: the
    /// soundness argument above leans on finish times being a reverse
    /// topological order, which only holds for DAGs (the closure layer
    /// guarantees this; cyclic inputs would yield labels that cut off
    /// reachable pairs).
    pub fn build(g: &DiGraph) -> CutoffLabels {
        let n = g.node_count();
        let mut mn = vec![u32::MAX; n];
        let mut post = vec![0u32; n];
        let mut entered = vec![false; n];
        let mut next_post = 0u32;
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        for start in g.nodes() {
            if entered[start.index()] {
                continue;
            }
            entered[start.index()] = true;
            stack.push((start, 0));
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let succ = g.successors(node);
                if *next < succ.len() {
                    let child = succ[*next];
                    *next += 1;
                    if !entered[child.index()] {
                        entered[child.index()] = true;
                        stack.push((child, 0));
                    }
                } else {
                    // On a DAG every successor is already finished here
                    // (a gray successor would witness a cycle), so its mn
                    // is final.
                    let own = next_post;
                    next_post += 1;
                    post[node.index()] = own;
                    let mut low = own;
                    for &s in succ {
                        low = low.min(mn[s.index()]);
                    }
                    mn[node.index()] = low;
                    stack.pop();
                }
            }
        }
        CutoffLabels { mn, post }
    }

    /// Reassembles labels from their serialized halves (validated only for
    /// shape; the arrays are trusted to come from [`CutoffLabels::build`]).
    pub fn from_parts(mn: Vec<u32>, post: Vec<u32>) -> CutoffLabels {
        assert_eq!(mn.len(), post.len(), "cutoff label halves disagree");
        CutoffLabels { mn, post }
    }

    /// Number of labeled nodes.
    pub fn len(&self) -> usize {
        self.post.len()
    }

    /// Whether no nodes are labeled.
    pub fn is_empty(&self) -> bool {
        self.post.is_empty()
    }

    /// The `mn` halves, for serialization.
    pub fn mn(&self) -> &[u32] {
        &self.mn
    }

    /// The `post` halves, for serialization.
    pub fn post(&self) -> &[u32] {
        &self.post
    }

    /// `false` only when `u` provably cannot reach `v`; `true` means the
    /// labels cannot rule the pair out and the caller must consult a real
    /// index. Reflexive pairs always pass.
    #[inline]
    pub fn may_reach(&self, u: NodeId, v: NodeId) -> bool {
        self.mn[u.index()] <= self.mn[v.index()] && self.post[v.index()] <= self.post[u.index()]
    }
}

/// A topological *level decomposition* of a DAG.
///
/// The level of a node is the length of the longest directed path from it to
/// a sink: sinks sit at level 0, and for every arc `(p, q)` the source lies
/// at a strictly higher level than the target (`level(p) >= level(q) + 1`).
/// So a node reaches only nodes on strictly lower levels, which the sharded
/// front end's O(1) cycle pre-check relies on, and sorting nodes by
/// descending level gives a topological order, which [`partition`]'s level
/// cut relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// `level[v]` = topological level of node `v`.
    level: Vec<usize>,
}

impl Levels {
    /// The level of `node`.
    #[inline]
    pub fn level_of(&self, node: NodeId) -> usize {
        self.level[node.index()]
    }
}

/// Computes the topological level decomposition of `g` in one reverse pass
/// over a topological order: `level(v) = 1 + max(level of successors)`, with
/// sinks at level 0. Fails with a [`CycleError`] on cyclic input.
pub fn levels(g: &DiGraph) -> Result<Levels, CycleError> {
    let order = topo_sort(g)?;
    let mut level = vec![0usize; g.node_count()];
    for &v in order.iter().rev() {
        let best = g
            .successors(v)
            .iter()
            .map(|s| level[s.index()] + 1)
            .max()
            .unwrap_or(0);
        level[v.index()] = best;
    }
    Ok(Levels { level })
}

/// A disjoint assignment of every node to one of a fixed number of shards.
///
/// Produced by [`partition`]; consumed by the sharded closure layer, which
/// runs one compressed closure per shard and composes cross-shard answers
/// through a boundary structure over the arcs the partition cuts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `shard_of[v]` = shard of node `v`.
    shard_of: Vec<u32>,
    /// Number of shards (at least 1 whenever the graph is non-empty).
    shards: usize,
}

impl Partition {
    /// The trivial partition: every node in shard 0.
    pub fn singleton(nodes: usize) -> Partition {
        Partition { shard_of: vec![0; nodes], shards: 1 }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes assigned.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard holding `node`.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
    }

    /// The nodes of `shard`, ascending by id.
    pub fn members(&self, shard: usize) -> Vec<NodeId> {
        self.shard_of
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s as usize == shard)
            .map(|(ix, _)| NodeId::from_index(ix))
            .collect()
    }

    /// Node count per shard.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards];
        for &s in &self.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Arcs of `g` whose endpoints land in different shards.
    pub fn cross_arcs(&self, g: &DiGraph) -> Vec<(NodeId, NodeId)> {
        g.edges()
            .filter(|&(s, d)| self.shard_of[s.index()] != self.shard_of[d.index()])
            .collect()
    }
}

/// Partitions a DAG into at most `shards` shards for independent closure
/// maintenance.
///
/// The primary rule is *weakly connected components*: two nodes joined by an
/// arc (in either direction) always share a component, so packing whole
/// components into shards cuts **zero** arcs — every shard's closure is
/// self-contained. Components are bin-packed largest-first onto the
/// least-loaded shard, which keeps shard sizes balanced and is fully
/// deterministic (ties break toward the lowest shard index).
///
/// When one component dominates the graph (more than half the nodes — the
/// classic single-giant-component case), it falls back to a *level cut*: the
/// component's nodes are ordered by descending topological level
/// ([`levels`]; sources first) and sliced into contiguous bands of roughly
/// the target size. Arcs always descend levels, so every arc the cut severs
/// runs from an earlier band to a later one — the quotient over bands stays
/// acyclic, which keeps the cross-shard boundary structure small and
/// loop-free.
///
/// Fails with a [`CycleError`] on cyclic input (the level cut needs a
/// topological order). `shards <= 1` returns the trivial partition.
pub fn partition(g: &DiGraph, shards: usize) -> Result<Partition, CycleError> {
    let n = g.node_count();
    if shards <= 1 || n == 0 {
        levels(g)?; // still reject cyclic input, independent of shard count
        return Ok(Partition::singleton(n));
    }
    let lv = levels(g)?;

    // Weakly connected components by union-find over the arc set.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for (s, d) in g.edges() {
        let (a, b) = (find(&mut parent, s.0), find(&mut parent, d.0));
        if a != b {
            // Union by lowest root id: deterministic regardless of edge order.
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            parent[hi as usize] = lo;
        }
    }
    let mut comp_nodes: Vec<Vec<u32>> = Vec::new();
    let mut comp_ix: Vec<u32> = vec![u32::MAX; n];
    for v in 0..n as u32 {
        let root = find(&mut parent, v) as usize;
        if comp_ix[root] == u32::MAX {
            comp_ix[root] = comp_nodes.len() as u32;
            comp_nodes.push(Vec::new());
        }
        comp_nodes[comp_ix[root] as usize].push(v);
    }

    // Split *dominant* components (more than half the graph — the classic
    // single-giant-component shape) into level-cut pieces of roughly the
    // balance target; everything else stays whole, so small components are
    // never diced just to fill shard slots.
    let target = n.div_ceil(shards);
    let mut pieces: Vec<Vec<u32>> = Vec::new();
    for mut nodes in comp_nodes {
        if nodes.len() <= target || nodes.len() * 2 <= n {
            pieces.push(nodes);
            continue;
        }
        // Descending level, ascending id: a contiguous slice ordering in
        // which every arc points from an earlier position to a later one.
        nodes.sort_unstable_by_key(|&v| (usize::MAX - lv.level_of(NodeId(v)), v));
        let cuts = nodes.len().div_ceil(target);
        let band = nodes.len().div_ceil(cuts);
        for chunk in nodes.chunks(band) {
            pieces.push(chunk.to_vec());
        }
    }

    // Largest-first onto the least-loaded shard; ties break toward the
    // earlier piece / lower shard index so the result is deterministic.
    pieces.sort_by_key(|p| (usize::MAX - p.len(), p.first().copied().unwrap_or(0)));
    let shards = shards.min(pieces.len().max(1));
    let mut load = vec![0usize; shards];
    let mut shard_of = vec![0u32; n];
    for piece in pieces {
        let s = (0..shards).min_by_key(|&s| (load[s], s)).expect("at least one shard");
        load[s] += piece.len();
        for v in piece {
            shard_of[v as usize] = s as u32;
        }
    }
    Ok(Partition { shard_of, shards })
}

/// Validates that `order` is a topological order of `g`.
pub fn is_topo_order(g: &DiGraph, order: &[NodeId]) -> bool {
    if order.len() != g.node_count() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.node_count()];
    for (ix, node) in order.iter().enumerate() {
        if pos[node.index()] != usize::MAX {
            return false; // duplicate
        }
        pos[node.index()] = ix;
    }
    g.edges().all(|(s, d)| pos[s.index()] < pos[d.index()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn kahn_produces_valid_order() {
        let g = diamond();
        let order = topo_sort(&g).unwrap();
        assert!(is_topo_order(&g, &order));
    }

    #[test]
    fn cycle_detected_with_witness() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let err = topo_sort(&g).unwrap_err();
        let c = &err.cycle;
        assert!(c.len() >= 2);
        // Every consecutive pair (and the wrap-around) must be a real arc.
        for w in c.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "cycle edge {:?}->{:?} missing", w[0], w[1]);
        }
        assert!(g.has_edge(*c.last().unwrap(), c[0]));
        assert!(!is_acyclic(&g));
        let msg = err.to_string();
        assert!(msg.contains("cycle"));
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        assert!(find_cycle(&diamond()).is_none());
        assert!(is_acyclic(&diamond()));
    }

    #[test]
    fn empty_and_singleton() {
        let g = DiGraph::new();
        assert_eq!(topo_sort(&g).unwrap(), vec![]);
        let mut g = DiGraph::new();
        let a = g.add_node();
        assert_eq!(topo_sort(&g).unwrap(), vec![a]);
    }

    #[test]
    fn rank_matches_order() {
        let g = diamond();
        let order = topo_sort(&g).unwrap();
        let rank = topo_rank(&g).unwrap();
        for (ix, node) in order.iter().enumerate() {
            assert_eq!(rank[node.index()], ix);
        }
    }

    #[test]
    fn is_topo_order_rejects_bad_orders() {
        let g = diamond();
        assert!(!is_topo_order(&g, &[NodeId(3), NodeId(1), NodeId(2), NodeId(0)]));
        assert!(!is_topo_order(&g, &[NodeId(0), NodeId(1), NodeId(2)])); // wrong length
        assert!(!is_topo_order(&g, &[NodeId(0), NodeId(0), NodeId(1), NodeId(2)])); // duplicate
    }

    #[test]
    fn disconnected_components_sorted() {
        let g = DiGraph::from_edges([(0, 1), (2, 3)]);
        let order = topo_sort(&g).unwrap();
        assert!(is_topo_order(&g, &order));
    }

    #[test]
    fn two_node_cycle() {
        let g = DiGraph::from_edges([(0, 1), (1, 0)]);
        let err = topo_sort(&g).unwrap_err();
        assert_eq!(err.cycle.len(), 2);
    }

    /// Reference for `levels`: longest path to a sink by exhaustive DFS.
    fn longest_to_sink(g: &DiGraph, v: NodeId) -> usize {
        g.successors(v)
            .iter()
            .map(|&s| 1 + longest_to_sink(g, s))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn levels_of_known_shapes() {
        // Diamond: 3 is the only sink (level 0), 1 and 2 sit at 1, 0 at 2.
        let lv = levels(&diamond()).unwrap();
        assert_eq!(lv.level_of(NodeId(3)), 0);
        assert_eq!(lv.level_of(NodeId(1)), 1);
        assert_eq!(lv.level_of(NodeId(2)), 1);
        assert_eq!(lv.level_of(NodeId(0)), 2);

        // A chain has one node per level; an edgeless graph a single level.
        let chain = DiGraph::from_edges([(0, 1), (1, 2), (2, 3)]);
        let lv = levels(&chain).unwrap();
        for v in 0..4u32 {
            assert_eq!(lv.level_of(NodeId(v)), 3 - v as usize);
        }

        let mut loose = DiGraph::new();
        loose.add_node();
        loose.add_node();
        let lv = levels(&loose).unwrap();
        assert_eq!((lv.level_of(NodeId(0)), lv.level_of(NodeId(1))), (0, 0));

        assert!(levels(&DiGraph::new()).is_ok());
    }

    #[test]
    fn every_arc_descends_strictly() {
        let g = crate::generators::random_dag(crate::generators::RandomDagConfig {
            nodes: 300,
            avg_out_degree: 2.5,
            seed: 23,
        });
        let lv = levels(&g).unwrap();
        for (p, q) in g.edges() {
            assert!(
                lv.level_of(p) > lv.level_of(q),
                "arc ({p:?},{q:?}) does not descend: {} -> {}",
                lv.level_of(p),
                lv.level_of(q)
            );
        }
    }

    #[test]
    fn levels_agree_with_topo_sort_on_exhaustive_small_dags() {
        // Over every 4- and 5-node DAG mask: the level of a node is the
        // longest path to a sink, and sorting by descending level is itself
        // a valid topological order (levels refine topo_sort's contract).
        for n in [4usize, 5] {
            for mask in crate::generators::enumerate_dag_masks(n) {
                let g = crate::generators::dag_from_mask(n, mask);
                let lv = levels(&g).unwrap();
                for v in g.nodes() {
                    assert_eq!(
                        lv.level_of(v),
                        longest_to_sink(&g, v),
                        "n={n} mask={mask:#b} node {v:?}"
                    );
                }
                let mut by_level: Vec<NodeId> = g.nodes().collect();
                by_level.sort_by_key(|&v| std::cmp::Reverse(lv.level_of(v)));
                assert!(
                    is_topo_order(&g, &by_level),
                    "n={n} mask={mask:#b}: descending levels are not a topo order"
                );
                assert!(topo_sort(&g).is_ok());
            }
        }
    }

    #[test]
    fn levels_reject_cycles() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (2, 0)]);
        assert!(levels(&g).is_err());
    }

    /// Three weakly connected components of sizes 3, 2, 1.
    fn three_components() -> DiGraph {
        let mut g = DiGraph::from_edges([(0, 1), (1, 2), (3, 4)]);
        g.add_node(); // isolated node 5
        g
    }

    #[test]
    fn partition_keeps_weak_components_whole() {
        let g = three_components();
        let p = partition(&g, 2).unwrap();
        assert_eq!(p.shards(), 2);
        // Arc endpoints always share a shard: no arc is cut.
        assert!(p.cross_arcs(&g).is_empty());
        for (s, d) in g.edges() {
            assert_eq!(p.shard_of(s), p.shard_of(d));
        }
        // Balanced: the size-3 component alone, the 2+1 together.
        let mut sizes = p.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn partition_is_deterministic_and_covers_all_nodes() {
        let g = crate::generators::random_dag(crate::generators::RandomDagConfig {
            nodes: 200,
            avg_out_degree: 1.2,
            seed: 5,
        });
        let p1 = partition(&g, 4).unwrap();
        let p2 = partition(&g, 4).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.node_count(), 200);
        assert_eq!(p1.sizes().iter().sum::<usize>(), 200);
        let members: usize = (0..p1.shards()).map(|s| p1.members(s).len()).sum();
        assert_eq!(members, 200);
    }

    #[test]
    fn giant_component_falls_back_to_level_cut() {
        // A single path of 40 nodes is one weak component; the level cut
        // must still split it into 4 shards of 10 with forward-only arcs.
        let g = DiGraph::from_edges((0..39u32).map(|i| (i, i + 1)));
        let p = partition(&g, 4).unwrap();
        assert_eq!(p.shards(), 4);
        assert_eq!(p.sizes(), vec![10, 10, 10, 10]);
        let cross = p.cross_arcs(&g);
        assert_eq!(cross.len(), 3, "a path cut into 4 bands severs 3 arcs");
        // The quotient over shards is acyclic: order shards by the first
        // time they appear along the path and check arcs never go back.
        let lv = levels(&g).unwrap();
        for (s, d) in cross {
            assert!(lv.level_of(s) > lv.level_of(d));
        }
    }

    #[test]
    fn level_cut_bands_are_acyclic_as_a_quotient() {
        let g = crate::generators::random_dag(crate::generators::RandomDagConfig {
            nodes: 400,
            avg_out_degree: 3.0,
            seed: 11,
        });
        let p = partition(&g, 4).unwrap();
        // Quotient graph over shards must be a DAG.
        let mut q = DiGraph::with_nodes(p.shards());
        for (s, d) in p.cross_arcs(&g) {
            let (a, b) = (p.shard_of(s), p.shard_of(d));
            if a != b {
                let _ = q.try_add_edge(NodeId(a as u32), NodeId(b as u32));
            }
        }
        assert!(is_acyclic(&q), "level-cut quotient has a cycle");
    }

    #[test]
    fn partition_trivial_cases() {
        assert_eq!(partition(&DiGraph::new(), 4).unwrap().shards(), 1);
        let g = three_components();
        let p = partition(&g, 1).unwrap();
        assert_eq!(p.shards(), 1);
        assert!((0..6).all(|v| p.shard_of(NodeId(v)) == 0));
        // More shards than components: capped at the piece count.
        let p = partition(&g, 16).unwrap();
        assert!(p.shards() <= 16);
        assert!(p.cross_arcs(&g).is_empty());
        // Cyclic input is rejected regardless of shard count.
        let c = DiGraph::from_edges([(0, 1), (1, 0)]);
        assert!(partition(&c, 1).is_err());
        assert!(partition(&c, 4).is_err());
    }

    #[test]
    fn cutoff_labels_never_cut_reachable_pairs() {
        use crate::generators;
        use crate::traverse::reachable_set;
        for seed in 0..4 {
            let g = generators::random_dag(generators::RandomDagConfig {
                nodes: 60,
                avg_out_degree: 2.5,
                seed,
            });
            let labels = CutoffLabels::build(&g);
            assert_eq!(labels.len(), 60);
            for u in g.nodes() {
                let reach = reachable_set(&g, u);
                for v in g.nodes() {
                    if reach.contains(v.index()) {
                        // Soundness: reachable pairs must always pass.
                        assert!(labels.may_reach(u, v), "{u:?} reaches {v:?} but was cut off");
                    }
                }
            }
        }
    }

    #[test]
    fn cutoff_labels_cut_most_negatives_on_a_chain() {
        // On a chain, labels are exact: i reaches j iff i <= j.
        let g = crate::generators::chain(50);
        let labels = CutoffLabels::build(&g);
        for i in 0..50u32 {
            for j in 0..50u32 {
                assert_eq!(labels.may_reach(NodeId(i), NodeId(j)), i <= j);
            }
        }
    }

    #[test]
    fn cutoff_labels_roundtrip_parts() {
        let g = diamond();
        let labels = CutoffLabels::build(&g);
        let back = CutoffLabels::from_parts(labels.mn().to_vec(), labels.post().to_vec());
        assert_eq!(back, labels);
        assert!(!back.is_empty());
    }
}
