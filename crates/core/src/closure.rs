//! The compressed transitive closure and its query API.

use std::convert::Infallible;
use std::sync::Arc;

use tc_graph::traverse::ancestors_into;
use tc_graph::{dot, topo, DiGraph, NodeId};
use tc_interval::{merged_row_into, IntervalSet, RankIndex};

use crate::builder::ClosureConfig;
use crate::labeling::Labeling;
use crate::paged::{Frozen, PagedPlane, QueryPlane};
use crate::parallel;
use crate::propagate::propagate_all;
use crate::stats::ClosureStats;
use crate::treecover::TreeCover;

/// A materialized, interval-compressed transitive closure of an acyclic
/// binary relation.
///
/// Built with [`CompressedClosure::build`] (default configuration) or
/// through [`ClosureConfig`]. Supports O(log k) reachability queries (k =
/// intervals at the source node), successor/predecessor enumeration, and
/// the paper's §4 incremental updates.
///
/// The closure owns a copy of the base relation: updates must keep the two
/// consistent, and predecessor lists are needed for update propagation
/// ("if the list of immediate predecessors is also maintained with each
/// node, this propagation can be performed quite efficiently").
#[derive(Debug, Clone)]
pub struct CompressedClosure {
    pub(crate) graph: DiGraph,
    pub(crate) cover: TreeCover,
    pub(crate) lab: Labeling,
    pub(crate) config: ClosureConfig,
    /// Read-optimized snapshot of the labels — resident ([`QueryPlane`])
    /// or paged through a buffer pool ([`PagedPlane`], with
    /// [`ClosureConfig::paged`] or after [`crate::PagedClosure::thaw`]);
    /// present only between a [`CompressedClosure::freeze`] and the next
    /// update. Never serialized.
    pub(crate) frozen: Option<Frozen>,
}

impl CompressedClosure {
    /// Builds the closure of `g` with the default [`ClosureConfig`]
    /// (optimal tree cover, gapped numbering, no merging).
    pub fn build(g: &DiGraph) -> Result<Self, topo::CycleError> {
        ClosureConfig::default().build(g)
    }

    pub(crate) fn from_parts(
        graph: DiGraph,
        cover: TreeCover,
        lab: Labeling,
        config: ClosureConfig,
    ) -> Self {
        CompressedClosure { graph, cover, lab, config, frozen: None }
    }

    /// Freezes the current labels into a read-optimized snapshot:
    /// `reaches`, `reaches_batch`, `successors`, `successor_count`, and
    /// `predecessors` answer from contiguous index arrays until the next
    /// update invalidates it. The snapshot is one `PLN2` plane image: held
    /// in memory ([`QueryPlane`]) by default, or streamed to a temp file
    /// and served out-of-core through a buffer pool ([`PagedPlane`]) with
    /// [`ClosureConfig::paged`] set. Freezing is O(n + total intervals);
    /// answers are bit-identical either way and to the mutable closure.
    ///
    /// # Panics
    ///
    /// A paged freeze panics if the temp file cannot be written.
    pub fn freeze(&mut self) {
        self.frozen = Some(
            Frozen::build(&self.graph, &self.lab, &self.config)
                .expect("paged freeze: temp plane file"),
        );
    }

    /// Drops the frozen snapshot (if any), returning queries to the
    /// mutable labels.
    pub fn thaw(&mut self) {
        self.frozen = None;
    }

    /// Whether a frozen snapshot (resident or paged) is serving queries.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// The frozen resident [`QueryPlane`], when one is active.
    pub fn plane(&self) -> Option<&QueryPlane> {
        match &self.frozen {
            Some(Frozen::Resident(plane)) => Some(plane),
            _ => None,
        }
    }

    /// The frozen out-of-core [`PagedPlane`], when one is active.
    pub fn paged_plane(&self) -> Option<&Arc<PagedPlane>> {
        match &self.frozen {
            Some(Frozen::Paged(plane)) => Some(plane),
            _ => None,
        }
    }

    /// Invalidates the frozen plane; every update path calls this at its
    /// first point of mutation, so a stale snapshot can never serve a
    /// query.
    pub(crate) fn invalidate_plane(&mut self) {
        self.frozen = None;
    }

    /// The base relation this closure materializes.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The tree cover in use.
    pub fn cover(&self) -> &TreeCover {
        &self.cover
    }

    /// The configuration the closure was built with.
    pub fn config(&self) -> &ClosureConfig {
        &self.config
    }

    /// Changes the worker-thread count used by subsequent batch queries
    /// and [`Self::stats`] — see [`ClosureConfig::threads`].
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// The current worker-thread count (see [`ClosureConfig::threads`]);
    /// restored from the stream's config footer when deserializing.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// Switches deletion recomputes between the scoped affected-region
    /// sweep and the historical global sweep (see
    /// [`ClosureConfig::scoped_deletes`]). Takes effect on the next
    /// `remove_edge`/`remove_node`.
    pub fn set_scoped_deletes(&mut self, enable: bool) {
        self.config.scoped_deletes = enable;
    }

    /// Whether deletions recompute only the affected region (see
    /// [`ClosureConfig::scoped_deletes`]).
    pub fn scoped_deletes(&self) -> bool {
        self.config.scoped_deletes
    }

    /// Switches subsequent freezes between the resident query plane and the
    /// out-of-core paged plane (see [`ClosureConfig::paged`]); `0` goes back
    /// to resident. Takes effect on the next [`CompressedClosure::freeze`] —
    /// an already-frozen plane is left as it is. Never serialized: whether a
    /// snapshot is served out-of-core is a property of the opening process,
    /// not the stream.
    pub fn set_paged_pool(&mut self, pool_pages: usize) {
        self.config.paged_pool = pool_pages;
    }

    /// The buffer-pool page budget paged freezes will use (`0` = resident
    /// freezes; see [`ClosureConfig::paged`]).
    pub fn paged_pool(&self) -> usize {
        self.config.paged_pool
    }

    /// Changes the hybrid bitset threshold used by subsequent freezes (see
    /// [`ClosureConfig::hybrid`]): nodes whose merged rank-interval count
    /// exceeds `threshold` get a bitset row instead of an interval row.
    /// `usize::MAX` (the default) keeps freezes pure-interval. Takes effect
    /// on the next [`CompressedClosure::freeze`].
    pub fn set_hybrid_threshold(&mut self, threshold: usize) {
        self.config.hybrid_threshold = threshold;
    }

    /// The hybrid bitset threshold subsequent freezes will use (see
    /// [`ClosureConfig::hybrid`]).
    pub fn hybrid_threshold(&self) -> usize {
        self.config.hybrid_threshold
    }

    /// Per-node *merged rank-interval* counts — the fragment counts a
    /// freeze would store per row, i.e. exactly the quantity the hybrid
    /// threshold is compared against. Computed without freezing, so `stats`
    /// tooling can report the histogram on a mutable closure.
    pub fn merged_interval_counts(&self) -> Vec<usize> {
        let line = RankIndex::new(
            self.lab.line.live_in_range(0, u64::MAX).map(|(num, _)| num).collect(),
        );
        let mut row = Vec::new();
        self.lab
            .sets
            .iter()
            .map(|set| {
                merged_row_into(&line, set, &mut row);
                row.len()
            })
            .collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Whether `src` reaches `dst` (reflexive, per the paper: "we assume
    /// that every node can reach itself").
    ///
    /// One binary search over `src`'s interval set — "a lookup instead of a
    /// graph traversal". When a plane is frozen the probe runs over its
    /// fenced row layout instead of the per-node sets.
    #[inline]
    pub fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        match &self.frozen {
            Some(frozen) => frozen.reaches(src, dst),
            None => self.label_contains(src, self.lab.post[dst.index()]),
        }
    }

    /// Whether `u`'s mutable label covers number `t`, with a fast path for
    /// the dominant single-interval (tree-only) labels: one inline range
    /// comparison rules the node out — or in — without the binary-search
    /// machinery, and multi-interval sets are skipped when `t` falls below
    /// their span.
    #[inline]
    fn label_contains(&self, u: NodeId, t: u64) -> bool {
        let set = &self.lab.sets[u.index()];
        match set.as_slice() {
            [] => false,
            [only] => only.contains(t),
            items => {
                items[0].lo() <= t && t <= items[items.len() - 1].hi() && set.contains_point(t)
            }
        }
    }

    /// All nodes reachable from `node` (including itself), decoded from the
    /// interval set in ascending postorder-number order.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.successors_into(node, &mut out);
        out
    }

    /// [`CompressedClosure::successors`] into a caller buffer: clears
    /// `out`, keeps its capacity. Decode loops hoist the buffer so only
    /// the largest row ever pays allocation (the hoisting `reaches_batch`
    /// already does) — works frozen, paged, or mutable.
    pub fn successors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        match &self.frozen {
            Some(frozen) => frozen.successors_into(node, out),
            None => self.lab.decode_into(&self.lab.sets[node.index()], out),
        }
    }

    /// Number of nodes reachable from `node` (including itself), without
    /// materializing the list.
    pub fn successor_count(&self, node: NodeId) -> usize {
        match &self.frozen {
            Some(frozen) => frozen.successor_count(node),
            None => self.lab.decode_count(&self.lab.sets[node.index()]),
        }
    }

    /// Answers a batch of reachability queries in one call, fanning the
    /// pairs across the configured worker threads ([`ClosureConfig::threads`]).
    /// Result `i` is `reaches(pairs[i].0, pairs[i].1)`.
    ///
    /// Each query is an independent read of immutable label state, so the
    /// batch parallelizes embarrassingly; the output is allocated once up
    /// front and every worker writes its chunk in place. With `threads <= 1`
    /// (or a small batch) the pairs are answered inline with no thread
    /// overhead.
    pub fn reaches_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<bool> {
        let threads = parallel::effective_threads(self.config.threads);
        let mut out = vec![false; pairs.len()];
        match &self.frozen {
            Some(Frozen::Resident(plane)) => {
                parallel::map_chunks_into(pairs, &mut out, threads, |chunk, slots| {
                    for (slot, &(src, dst)) in slots.iter_mut().zip(chunk) {
                        *slot = plane.reaches(src, dst);
                    }
                })
            }
            // Paged probes serialize on the pool lock anyway, so the batch
            // runs inline under one lock, and the pool keeps hot pages
            // resident across the whole batch.
            Some(Frozen::Paged(plane)) => plane.reaches_batch_into(pairs, &mut out),
            None => {
                // Hoist the post-number array out of the per-pair loop; each
                // probe then goes through the same single-interval fast path
                // as the scalar `reaches`.
                let post = self.lab.post.as_slice();
                parallel::map_chunks_into(pairs, &mut out, threads, |chunk, slots| {
                    for (slot, &(src, dst)) in slots.iter_mut().zip(chunk) {
                        *slot = self.label_contains(src, post[dst.index()]);
                    }
                });
            }
        }
        out
    }

    /// All nodes that reach `node` (including itself), ascending by node
    /// id.
    ///
    /// Mutable or frozen, this is one reverse traversal over the base
    /// graph's in-arcs ([`tc_graph::traverse::ancestors_into`]): O(answer
    /// and its in-arcs) plus an n-bit visited map, so a small answer costs
    /// little however large the closure is. A frozen plane reads the
    /// in-arcs from its own in-arc segment.
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.predecessors_into(node, &mut out);
        out
    }

    /// [`CompressedClosure::predecessors`] into a caller buffer: clears
    /// `out`, keeps its capacity.
    pub fn predecessors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        if let Some(frozen) = &self.frozen {
            return frozen.predecessors_into(node, out);
        }
        let Ok(()) = ancestors_into::<Infallible>(self.graph.node_count(), node, out, |v, arcs| {
            arcs.extend_from_slice(self.graph.predecessors(v));
            Ok(())
        });
    }

    /// Reconstructs one concrete path `src -> ... -> dst` (inclusive), or
    /// `None` if `dst` is unreachable.
    ///
    /// The closure turns path search into greedy descent: from each node,
    /// any immediate successor that still reaches `dst` (one lookup each)
    /// is on a valid path, so the cost is O(path length × out-degree × log
    /// k) with no backtracking — a provenance query the raw closure cannot
    /// answer.
    pub fn find_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if !self.reaches(src, dst) {
            return None;
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            let next = self
                .graph
                .successors(cur)
                .iter()
                .copied()
                .find(|&s| self.reaches(s, dst))
                .expect("reaches(cur, dst) implies a successor on a path");
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// The postorder number assigned to `node`.
    pub fn post_number(&self, node: NodeId) -> u64 {
        self.lab.post[node.index()]
    }

    /// The interval set labeling `node` (its tree interval plus surviving
    /// non-tree intervals).
    pub fn intervals(&self, node: NodeId) -> &IntervalSet {
        &self.lab.sets[node.index()]
    }

    /// The node's tree interval `[low, post]`.
    pub fn tree_interval(&self, node: NodeId) -> tc_interval::Interval {
        self.lab.tree_interval(node)
    }

    /// Total number of intervals across all nodes — the quantity Alg1
    /// minimizes (Theorem 1).
    pub fn total_intervals(&self) -> usize {
        self.lab.sets.iter().map(IntervalSet::count).sum()
    }

    /// Storage statistics in the paper's §3.3 units. Computes the full
    /// closure size by decoding every node's interval set (O(closure size)),
    /// with the per-node decodes split across the configured worker threads.
    pub fn stats(&self) -> ClosureStats {
        let n = self.node_count();
        let threads = parallel::effective_threads(self.config.threads);
        let nodes: Vec<NodeId> = self.graph.nodes().collect();
        let per_node = parallel::map_chunks(&nodes, threads, |chunk| {
            chunk
                .iter()
                .map(|&v| {
                    let set = &self.lab.sets[v.index()];
                    // Drop the reflexive pair; saturate so a (pathological)
                    // empty label set cannot underflow the sum.
                    (set.count(), self.lab.decode_count(set).saturating_sub(1))
                })
                .collect()
        });
        let (total, closure_size) = per_node
            .into_iter()
            .fold((0usize, 0usize), |(ti, cs), (t, c)| (ti + t, cs + c));
        ClosureStats {
            nodes: n,
            graph_arcs: self.graph.edge_count(),
            tree_intervals: n,
            non_tree_intervals: total - n,
            closure_size,
        }
    }

    /// Exhaustively checks the closure against per-node DFS ground truth.
    /// O(n·m) — for tests and debugging only. For a check cheap enough to
    /// run after every update, see [`CompressedClosure::audit`].
    pub fn verify(&self) -> Result<(), String> {
        for u in self.graph.nodes() {
            let truth = tc_graph::traverse::reachable_set(&self.graph, u);
            for v in self.graph.nodes() {
                let expect = truth.contains(v.index());
                let got = self.reaches(u, v);
                if got != expect {
                    return Err(format!(
                        "reach({u:?},{v:?}): closure says {got}, graph says {expect}"
                    ));
                }
            }
            // Decoded successor list must equal the truth set exactly.
            let mut decoded = self.successors(u);
            decoded.sort_unstable();
            let mut expect: Vec<NodeId> = truth.iter().map(NodeId::from_index).collect();
            expect.sort_unstable();
            if decoded != expect {
                return Err(format!(
                    "successors({u:?}): decoded {decoded:?}, expected {expect:?}"
                ));
            }
        }
        Ok(())
    }

    /// Renders the relation in DOT format with interval labels on nodes,
    /// tree arcs solid and non-tree arcs dashed — the style of the paper's
    /// Figures 3.2 and 4.1.
    pub fn to_dot(&self) -> String {
        dot::to_dot_with(
            &self.graph,
            |n| format!("{n}: {}", self.lab.sets[n.index()]),
            |s, d| {
                if self.cover.is_tree_arc(s, d) {
                    dot::EdgeStyle::Solid
                } else {
                    dot::EdgeStyle::Dashed
                }
            },
        )
    }

    /// Caps the number line at `capacity` occupied positions (live plus
    /// tombstoned). Insertions past the cap fail with
    /// [`crate::UpdateError::NumberLineFull`] — checked before anything
    /// mutates — instead of growing without bound; [`Self::relabel`]
    /// reclaims tombstones under the same ceiling. Serving deployments use
    /// this as an admission control on untrusted writers.
    pub fn set_number_line_capacity(&mut self, capacity: usize) {
        self.lab.line.set_capacity(capacity);
    }

    /// Re-labels the closure: keeps the current tree cover but reassigns
    /// postorder numbers with fresh gaps (and fresh refinement reserves),
    /// dropping tombstones, then re-propagates all intervals. Called
    /// automatically when an insertion finds no free number (§4.1 "What if
    /// empty numbers run out"); also useful to reclaim space after many
    /// deletions.
    pub fn relabel(&mut self) {
        // Also called mid-insertion on gap exhaustion, so it must only
        // invalidate — never freeze — or the caller would keep mutating
        // under a live snapshot.
        self.invalidate_plane();
        let cap = self.lab.line.capacity();
        self.lab = Labeling::assign(&self.cover, self.config.gap, self.config.reserve);
        // Carry the configured admission ceiling across the fresh line. The
        // relabeled line holds only live nodes — at most the old occupancy —
        // so the old capacity is always admissible here.
        self.lab.line.set_capacity(cap);
        let order = topo::topo_sort(&self.graph).expect("closure graph must stay acyclic");
        propagate_all(&self.graph, &order, &mut self.lab);
        self.apply_merge_policy();
    }

    /// Rebuilds from scratch with a freshly optimized tree cover — the
    /// paper's remedy when incremental updates have eroded optimality ("it
    /// may be prudent to develop a new tree-cover after sufficient update
    /// activity").
    pub fn rebuild(&mut self) {
        *self = self
            .config
            .build(&self.graph)
            .expect("closure graph must stay acyclic");
    }

    pub(crate) fn apply_merge_policy(&mut self) {
        if self.config.merge_adjacent {
            for set in &mut self.lab.sets {
                set.merge_adjacent();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoverStrategy;
    use tc_graph::generators;

    fn paper_dag() -> DiGraph {
        // Diamond with tail and a side sink, exercising tree + non-tree arcs.
        DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5)])
    }

    #[test]
    fn build_and_query_small_dag() {
        let c = CompressedClosure::build(&paper_dag()).unwrap();
        assert!(c.reaches(NodeId(0), NodeId(5)));
        assert!(c.reaches(NodeId(2), NodeId(5)));
        assert!(c.reaches(NodeId(4), NodeId(4)), "reflexive");
        assert!(!c.reaches(NodeId(1), NodeId(4)));
        assert!(!c.reaches(NodeId(5), NodeId(0)));
        c.verify().unwrap();
    }

    #[test]
    fn successors_and_predecessors() {
        let c = CompressedClosure::build(&paper_dag()).unwrap();
        let mut succ = c.successors(NodeId(2));
        succ.sort_unstable();
        assert_eq!(succ, vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(c.successor_count(NodeId(2)), 4);
        let mut pred = c.predecessors(NodeId(3));
        pred.sort_unstable();
        assert_eq!(pred, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    /// Reverse DFS over the base graph's in-arcs: the ground truth the
    /// mutable `predecessors` traversal must reproduce.
    fn dfs_predecessors(g: &DiGraph, node: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; g.node_count()];
        seen[node.index()] = true;
        let mut stack = vec![node];
        let mut out = Vec::new();
        while let Some(v) = stack.pop() {
            out.push(v);
            for &u in g.predecessors(v) {
                if !std::mem::replace(&mut seen[u.index()], true) {
                    stack.push(u);
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn mutable_predecessors_match_frozen_and_dfs_under_churn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for threads in [1, 4] {
            let mut rng = StdRng::seed_from_u64(threads as u64);
            let g = generators::random_dag(generators::RandomDagConfig {
                nodes: 60,
                avg_out_degree: 2.0,
                seed: 3,
            });
            let mut c = ClosureConfig::new()
                .threads(threads)
                .gap(8)
                .build(&g)
                .unwrap();
            let mut removed = Vec::new();
            for step in 0..120 {
                let n = c.node_count() as u32;
                let (a, b) = (
                    NodeId(rng.random_range(0..n)),
                    NodeId(rng.random_range(0..n)),
                );
                match rng.random_range(0..10) {
                    0 => {
                        c.remove_node(a).unwrap();
                        assert_eq!(c.predecessors(a), vec![a], "removed {a:?}");
                        removed.push(a);
                    }
                    1..=4 => {
                        let edges: Vec<_> = c.graph().edges().collect();
                        if let Some(&(s, d)) = edges.get(rng.random_range(0..edges.len().max(1))) {
                            c.remove_edge(s, d).unwrap();
                        }
                    }
                    _ => {
                        if a != b && !c.reaches(b, a) {
                            c.add_edge(a, b).unwrap();
                        }
                    }
                }
                let mut frozen = c.clone();
                frozen.freeze();
                for v in c.graph().nodes() {
                    let got = c.predecessors(v);
                    assert_eq!(got, dfs_predecessors(c.graph(), v), "step {step}: {v:?}");
                    assert_eq!(got, frozen.predecessors(v), "step {step}: frozen {v:?}");
                }
            }
            assert!(!removed.is_empty(), "the churn removed nodes");
        }
    }

    #[test]
    fn find_path_returns_real_paths() {
        let c = CompressedClosure::build(&paper_dag()).unwrap();
        let path = c.find_path(NodeId(0), NodeId(5)).unwrap();
        assert_eq!(path.first(), Some(&NodeId(0)));
        assert_eq!(path.last(), Some(&NodeId(5)));
        for w in path.windows(2) {
            assert!(c.graph().has_edge(w[0], w[1]), "{:?} not an arc", w);
        }
        assert_eq!(c.find_path(NodeId(4), NodeId(4)), Some(vec![NodeId(4)]));
        assert_eq!(c.find_path(NodeId(5), NodeId(0)), None);
    }

    #[test]
    fn find_path_on_random_graphs() {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 80,
            avg_out_degree: 2.0,
            seed: 14,
        });
        let c = CompressedClosure::build(&g).unwrap();
        for u in g.nodes().step_by(7) {
            for v in g.nodes().step_by(11) {
                match c.find_path(u, v) {
                    Some(path) => {
                        assert_eq!((path[0], *path.last().unwrap()), (u, v));
                        assert!(path.windows(2).all(|w| g.has_edge(w[0], w[1])));
                    }
                    None => assert!(!c.reaches(u, v)),
                }
            }
        }
    }

    #[test]
    fn stats_count_paper_units() {
        let c = CompressedClosure::build(&paper_dag()).unwrap();
        let s = c.stats();
        assert_eq!(s.nodes, 6);
        assert_eq!(s.graph_arcs, 6);
        assert_eq!(s.tree_intervals, 6);
        // Full closure: 0->{1,2,3,4,5}, 1->{3,5}, 2->{3,4,5}, 3->{5} = 11.
        assert_eq!(s.closure_size, 11);
        assert_eq!(s.compressed_units(), 2 * c.total_intervals());
    }

    #[test]
    fn all_strategies_produce_correct_closures() {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 60,
            avg_out_degree: 2.5,
            seed: 11,
        });
        for strat in [
            CoverStrategy::Optimal,
            CoverStrategy::FirstParent,
            CoverStrategy::Random { seed: 5 },
            CoverStrategy::Deepest,
        ] {
            let c = ClosureConfig::new().strategy(strat).build(&g).unwrap();
            c.verify().unwrap_or_else(|e| panic!("{strat:?}: {e}"));
        }
    }

    #[test]
    fn optimal_cover_never_worse_than_alternatives() {
        for seed in 0..5 {
            let g = generators::random_dag(generators::RandomDagConfig {
                nodes: 40,
                avg_out_degree: 2.0,
                seed,
            });
            let optimal = CompressedClosure::build(&g).unwrap().total_intervals();
            for strat in [
                CoverStrategy::FirstParent,
                CoverStrategy::Random { seed: 99 },
                CoverStrategy::Deepest,
            ] {
                let other = ClosureConfig::new()
                    .strategy(strat)
                    .build(&g)
                    .unwrap()
                    .total_intervals();
                assert!(
                    optimal <= other,
                    "seed {seed}: Alg1 {optimal} > {strat:?} {other}"
                );
            }
        }
    }

    #[test]
    fn merging_preserves_correctness_and_never_grows() {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 80,
            avg_out_degree: 3.0,
            seed: 21,
        });
        let plain = ClosureConfig::new().gap(1).build(&g).unwrap();
        let merged = ClosureConfig::new().gap(1).merge_adjacent(true).build(&g).unwrap();
        merged.verify().unwrap();
        assert!(merged.total_intervals() <= plain.total_intervals());
    }

    #[test]
    fn tree_closure_is_linear_and_single_interval() {
        // §3.1: a tree needs exactly one interval per node.
        let g = generators::balanced_tree(3, 3);
        let c = ClosureConfig::new().gap(1).build(&g).unwrap();
        assert_eq!(c.total_intervals(), g.node_count());
        c.verify().unwrap();
        let s = c.stats();
        assert_eq!(s.non_tree_intervals, 0);
        assert_eq!(s.compressed_units(), 2 * g.node_count());
    }

    #[test]
    fn bipartite_worst_case_matches_formula() {
        // Fig 3.6: K(m, n-m-1)... with m sources and k sinks the compressed
        // closure needs m·k intervals beyond what the tree cover absorbs.
        // For K(4,4): tree cover hangs all 4 sinks under one source; the
        // other 3 sources hold 4 non-tree intervals each (none subsumable:
        // sinks are tree-siblings). Total = 8 tree + 12 non-tree.
        let g = generators::bipartite_worst(4, 4);
        let c = ClosureConfig::new().gap(1).build(&g).unwrap();
        assert_eq!(c.total_intervals(), 8 + 12);
        c.verify().unwrap();
    }

    #[test]
    fn bipartite_hub_is_linear() {
        // Fig 3.7: the hub rewrite collapses the quadratic blow-up.
        let g = generators::bipartite_with_hub(4, 4);
        let c = ClosureConfig::new().gap(1).build(&g).unwrap();
        // One source adopts the hub as tree child; the other 3 inherit just
        // the hub's interval: n + (top - 1) = 12 total, linear in n (versus
        // 20 for the flat bipartite form of Fig 3.6).
        assert_eq!(c.total_intervals(), g.node_count() + 3);
        c.verify().unwrap();
    }

    #[test]
    fn relabel_preserves_semantics() {
        let g = paper_dag();
        let mut c = CompressedClosure::build(&g).unwrap();
        let before = c.total_intervals();
        c.relabel();
        assert_eq!(c.total_intervals(), before);
        c.verify().unwrap();
    }

    #[test]
    fn rebuild_preserves_semantics() {
        let g = paper_dag();
        let mut c = ClosureConfig::new()
            .strategy(CoverStrategy::FirstParent)
            .build(&g)
            .unwrap();
        c.rebuild();
        c.verify().unwrap();
    }

    #[test]
    fn dot_output_marks_non_tree_arcs() {
        let c = CompressedClosure::build(&paper_dag()).unwrap();
        let dot = c.to_dot();
        assert!(dot.contains("style=dashed"), "non-tree arc must be dashed");
        assert!(dot.contains('['), "labels must show intervals");
    }

    #[test]
    fn random_dags_verify_across_seeds_and_degrees() {
        for seed in 0..4 {
            for degree in [1.0, 2.0, 4.0] {
                let g = generators::random_dag(generators::RandomDagConfig {
                    nodes: 50,
                    avg_out_degree: degree,
                    seed,
                });
                let c = CompressedClosure::build(&g).unwrap();
                c.verify()
                    .unwrap_or_else(|e| panic!("seed {seed} degree {degree}: {e}"));
            }
        }
    }

    #[test]
    fn cyclic_input_is_rejected() {
        let g = DiGraph::from_edges([(0, 1), (1, 0)]);
        assert!(CompressedClosure::build(&g).is_err());
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let c = CompressedClosure::build(&DiGraph::new()).unwrap();
        assert_eq!(c.total_intervals(), 0);
        let mut g = DiGraph::new();
        let a = g.add_node();
        let c = CompressedClosure::build(&g).unwrap();
        assert!(c.reaches(a, a));
        assert_eq!(c.successors(a), vec![a]);
        assert_eq!(c.stats().closure_size, 0);
    }

    #[test]
    fn wide_and_narrow_plane_layouts_agree() {
        // Small graphs freeze into the narrow (u16-rank) layout; force the
        // wide layout on the same labeling and demand identical answers.
        let nodes = 300;
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes,
            avg_out_degree: 2.5,
            seed: 7,
        });
        let mut c = CompressedClosure::build(&g).unwrap();
        c.freeze();
        let narrow = c.plane().expect("frozen").clone();
        let wide = QueryPlane::freeze_wide(&c.graph, &c.lab, usize::MAX);
        assert!(wide.payload_pages() > narrow.payload_pages(), "u32 rows take more room");
        wide.check_consistency(&c.lab, &c.graph).unwrap();
        assert_eq!(wide.total_intervals(), narrow.total_intervals());
        for v in (0..nodes).map(NodeId::from_index) {
            assert_eq!(wide.successors(v), narrow.successors(v), "successors({v:?})");
            assert_eq!(wide.predecessors(v), narrow.predecessors(v), "predecessors({v:?})");
            assert_eq!(wide.successor_count(v), narrow.successor_count(v));
            for w in [0, 1, 57, 123, nodes - 1].map(NodeId::from_index) {
                assert_eq!(wide.reaches(v, w), narrow.reaches(v, w), "reaches({v:?}, {w:?})");
            }
        }
    }
}
