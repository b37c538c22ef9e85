//! Cheap structural invariant audit for the compressed closure.
//!
//! [`CompressedClosure::verify`] is the *semantic* oracle: it recomputes
//! per-node DFS ground truth and costs O(n·m) — far too slow to run after
//! every update in a churn test or fuzzer. [`CompressedClosure::audit`] is
//! its *structural* counterpart: it checks every representation invariant
//! the §4 update paths are supposed to maintain, in
//! O(n + total intervals + tombstones) with only logarithmic number-line
//! lookups on top — no graph traversal beyond the out-edges of a
//! constant-size node sample (invariant 9). A closure can
//! be structurally sound yet semantically wrong (that is what the
//! differential fuzz oracle is for), but in practice the update-path bugs
//! this repository has seen (gap exhaustion, tombstone leaks, cover drift)
//! all break one of these invariants first.
//!
//! Invariants checked (see DESIGN.md, "Structural audit"):
//!
//! 1. **Shape** — `post`/`low`/`advertised_hi`/`sets`, the tree cover and
//!    the graph all agree on the node count.
//! 2. **Label sanity** — `1 <= low[v] <= post[v] <= advertised_hi[v]`.
//! 3. **Number-line coherence** — `line.node_at(post[v]) == v` for every
//!    node and `line.live_count() == n` (together: the live slots are
//!    exactly the nodes' postorder numbers, a bijection).
//! 4. **Reserve-tail freedom** — the advertised tail `(post[v],
//!    advertised_hi[v]]` contains no occupied number: refinements consume
//!    the tail top-down and shrink `advertised_hi` past what they assign.
//! 5. **Tombstone accounting** — the line's cached live count matches a
//!    full scan and `total_count - live_count == tombstone_count`.
//! 6. **Interval-set invariants** — every set is sorted by `lo` with no
//!    member subsuming another, and subsumes the node's own tree interval
//!    `[low, post]` (the reflexive fact every label must encode).
//! 7. **Tree-cover consistency** — parent/children arrays are mutually
//!    consistent (every child entry points back, no node is listed twice),
//!    parent chains are acyclic, and **every tree arc is an arc of the
//!    base relation** (cover-vs-graph consistency).
//! 8. **Plane coherence** — when a frozen [`crate::QueryPlane`] is present,
//!    its snapshot (postorder numbers, interval totals, number-line length)
//!    still mirrors the mutable labeling. Updates must invalidate the plane
//!    before mutating, so a divergence here means a stale snapshot survived
//!    an update path.
//! 9. **Sampled propagation fixed point** — for a small deterministic
//!    sample of nodes, the stored interval set covers exactly what one
//!    reverse-topological propagation step would produce from the node's
//!    tree interval and its graph successors' current sets (compared after
//!    canonical merging, since §4.1 refinements legitimately leave
//!    coverage-equal but differently-shaped sets). Every correct sweep —
//!    global or scoped (see DESIGN.md, "Scoped deletion recompute") — is a
//!    fixed point of this step, so a scoped recompute that diverges from
//!    the global result on a sampled node is caught here without paying
//!    for a second full sweep. This is the one invariant that walks graph
//!    adjacency, bounded by the sampled nodes' out-degrees.

use tc_graph::NodeId;
use tc_interval::Interval;

use crate::CompressedClosure;

impl CompressedClosure {
    /// Checks the closure's structural invariants, returning a description
    /// of the first violation found.
    ///
    /// Cheap enough to run after *every* update: O(n + total intervals +
    /// tombstones) plus O(log n) number-line lookups per node, and — unlike
    /// [`CompressedClosure::verify`] — performs no per-node graph
    /// traversal. See the module docs for the exact invariant list.
    pub fn audit(&self) -> Result<(), String> {
        let n = self.graph.node_count();

        // 1. Shape: every parallel structure agrees on n.
        if self.lab.post.len() != n
            || self.lab.low.len() != n
            || self.lab.advertised_hi.len() != n
            || self.lab.sets.len() != n
            || self.cover.node_count() != n
        {
            return Err(format!(
                "shape mismatch: graph {n}, post {}, low {}, advertised_hi {}, sets {}, cover {}",
                self.lab.post.len(),
                self.lab.low.len(),
                self.lab.advertised_hi.len(),
                self.lab.sets.len(),
                self.cover.node_count()
            ));
        }

        // 5. Tombstone accounting on the number line.
        if !self.lab.line.check_invariants() {
            return Err("number line: cached live count disagrees with slot scan".into());
        }
        if self.lab.line.total_count() - self.lab.line.live_count()
            != self.lab.line.tombstone_count()
        {
            return Err(format!(
                "number line: total {} - live {} != tombstones {}",
                self.lab.line.total_count(),
                self.lab.line.live_count(),
                self.lab.line.tombstone_count()
            ));
        }
        // 3 (half): live slots can only be the n nodes' numbers.
        if self.lab.line.live_count() != n {
            return Err(format!(
                "number line: {} live slots for {n} nodes",
                self.lab.line.live_count()
            ));
        }

        for v in self.graph.nodes() {
            let ix = v.index();
            let (low, post, hi) = (self.lab.low[ix], self.lab.post[ix], self.lab.advertised_hi[ix]);

            // 2. Label ordering.
            if !(1 <= low && low <= post && post <= hi) {
                return Err(format!(
                    "{v:?}: label ordering violated: low {low}, post {post}, advertised_hi {hi}"
                ));
            }

            // 3. The node owns its number on the line.
            if self.lab.line.node_at(post) != Some(v.0) {
                return Err(format!(
                    "{v:?}: line slot {post} holds {:?}, not this node",
                    self.lab.line.node_at(post)
                ));
            }

            // 4. The advertised reserve tail must be free of numbers.
            if hi > post && self.lab.line.used_in_range(post + 1, hi) != 0 {
                return Err(format!(
                    "{v:?}: reserve tail ({post}, {hi}] contains occupied numbers"
                ));
            }

            // 6. Interval-set invariants + tree interval containment.
            let set = &self.lab.sets[ix];
            if !set.check_invariants() {
                return Err(format!("{v:?}: interval set unsorted or subsumption leaked: {set}"));
            }
            if !set.subsumes(Interval::new(low, post)) {
                return Err(format!(
                    "{v:?}: label set {set} does not cover own tree interval [{low},{post}]"
                ));
            }

            // 7a. Tree arcs must be arcs of the base relation, and child
            // lists must point back. (Scanning the predecessor list bounds
            // the total cost by the in-degree sum along tree arcs <= m.)
            if let Some(p) = self.cover.parent(v) {
                if p.index() >= n {
                    return Err(format!("{v:?}: tree parent {p:?} out of range"));
                }
                if !self.graph.predecessors(v).contains(&p) {
                    return Err(format!("{v:?}: tree arc ({p:?},{v:?}) is not a graph arc"));
                }
            }
        }

        // 7b. Children lists are the exact inverse of the parent array: each
        // entry points back, and every node with a parent is listed exactly
        // once. One O(n) sweep with a seen-marker.
        let mut listed = vec![false; n];
        let mut child_slots = 0usize;
        for p in self.graph.nodes() {
            for &c in self.cover.children(p) {
                if c.index() >= n || self.cover.parent(c) != Some(p) {
                    return Err(format!("cover: child list of {p:?} lists {c:?} which points elsewhere"));
                }
                if std::mem::replace(&mut listed[c.index()], true) {
                    return Err(format!("cover: {c:?} appears in two child lists"));
                }
                child_slots += 1;
            }
        }
        let with_parent = (0..n)
            .filter(|&ix| self.cover.parent(NodeId::from_index(ix)).is_some())
            .count();
        if child_slots != with_parent {
            return Err(format!(
                "cover: {child_slots} child-list entries for {with_parent} parented nodes"
            ));
        }

        // 7c. Parent chains are acyclic: color-propagating walk, O(n) total
        // (each node is finalized once).
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on current path, 2 done
        let mut path: Vec<usize> = Vec::new();
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut cur = start;
            loop {
                match state[cur] {
                    1 => return Err(format!("cover: parent chain through node {cur} is cyclic")),
                    2 => break,
                    _ => {}
                }
                state[cur] = 1;
                path.push(cur);
                match self.cover.parent(NodeId::from_index(cur)) {
                    Some(p) => cur = p.index(),
                    None => break,
                }
            }
            for ix in path.drain(..) {
                state[ix] = 2;
            }
        }

        // 8. A frozen plane must still mirror the labeling and graph it
        // snapshot.
        if let Some(frozen) = &self.frozen {
            frozen
                .check_consistency(&self.lab, &self.graph)
                .map_err(|e| format!("query plane: {e}"))?;
        }

        // 9. Sampled propagation fixed point: a node's stored set must
        // cover exactly its tree interval plus everything inherited from
        // its current successors. Both the global and the scoped deletion
        // recompute leave every node in this state, so checking it on a
        // deterministic sample cross-checks the scoped path against what
        // the global sweep would have produced — at O(out-degree + set
        // sizes) per sampled node instead of a second full propagation.
        // Representations may differ (a refinement shrinks an advertised
        // interval other nodes hold wide copies of), so coverage is
        // compared through the canonical merged form.
        const FIXED_POINT_SAMPLE: usize = 8;
        if n > 0 {
            let mut scratch: Vec<Interval> = Vec::new();
            for k in 0..FIXED_POINT_SAMPLE.min(n) as u64 {
                let ix = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n;
                let v = NodeId::from_index(ix);
                let mut expected = tc_interval::IntervalSet::singleton(Interval::new(
                    self.lab.low[ix],
                    self.lab.post[ix],
                ));
                for &q in self.graph.successors(v) {
                    crate::propagate::inherit_into_scratch(&self.lab, q, &mut scratch);
                    for &iv in &scratch {
                        expected.insert(iv);
                    }
                }
                expected.merge_adjacent();
                let mut stored = self.lab.sets[ix].clone();
                stored.merge_adjacent();
                if stored != expected {
                    return Err(format!(
                        "{v:?}: stored set {stored} is not the propagation fixed point \
                         {expected} of its successors"
                    ));
                }
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{ClosureConfig, CompressedClosure};
    use tc_graph::{generators, DiGraph};
    use tc_interval::IntervalSet;

    fn base() -> CompressedClosure {
        let g = DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        ClosureConfig::new().gap(16).reserve(3).build(&g).unwrap()
    }

    #[test]
    fn fresh_closures_pass() {
        for seed in 0..4 {
            let g = generators::random_dag(generators::RandomDagConfig {
                nodes: 60,
                avg_out_degree: 2.0,
                seed,
            });
            for config in [
                ClosureConfig::new(),
                ClosureConfig::new().gap(8).reserve(2),
                ClosureConfig::new().gap(1),
                ClosureConfig::new().merge_adjacent(true),
            ] {
                config.build(&g).unwrap().audit().unwrap();
            }
        }
        CompressedClosure::build(&DiGraph::new()).unwrap().audit().unwrap();
    }

    #[test]
    fn audit_survives_every_update_kind() {
        let mut c = base();
        c.audit().unwrap();
        let x = c.add_node_with_parents(&[tc_graph::NodeId(1), tc_graph::NodeId(2)]).unwrap();
        c.audit().unwrap();
        c.add_edge(tc_graph::NodeId(4), x).unwrap();
        c.audit().unwrap();
        let preds = c.graph().predecessors(tc_graph::NodeId(4)).to_vec();
        c.refine_insert(tc_graph::NodeId(4), &preds).unwrap();
        c.audit().unwrap();
        c.remove_edge(tc_graph::NodeId(1), tc_graph::NodeId(3)).unwrap();
        c.audit().unwrap();
        c.remove_node(tc_graph::NodeId(2)).unwrap();
        c.audit().unwrap();
        c.relabel();
        c.audit().unwrap();
        c.rebuild();
        c.audit().unwrap();
    }

    #[test]
    fn corrupted_post_is_caught() {
        let mut c = base();
        // Swap one node's post number without touching the line.
        c.lab.post[1] += 1;
        assert!(c.audit().unwrap_err().contains("line slot"));
    }

    #[test]
    fn corrupted_low_is_caught() {
        let mut c = base();
        c.lab.low[2] = c.lab.post[2] + 1;
        assert!(c.audit().unwrap_err().contains("label ordering"));
    }

    #[test]
    fn dropped_tree_interval_is_caught() {
        let mut c = base();
        c.lab.sets[0] = IntervalSet::new();
        assert!(c.audit().unwrap_err().contains("does not cover own tree interval"));
    }

    #[test]
    fn cover_graph_drift_is_caught() {
        let mut c = base();
        // Remove the graph arc under a tree arc without telling the cover.
        let child = tc_graph::NodeId(1);
        let parent = c.cover().parent(child).unwrap();
        c.graph.remove_edge(parent, child);
        assert!(c.audit().unwrap_err().contains("not a graph arc"));
    }

    #[test]
    fn stale_line_slot_is_caught() {
        let mut c = base();
        // Tombstone a live number behind the labeling's back.
        c.lab.line.tombstone(c.lab.post[3]);
        assert!(c.audit().is_err());
    }

    #[test]
    fn stale_plane_is_caught() {
        let mut c = base();
        c.freeze();
        c.audit().unwrap();
        // Grow a label behind the frozen plane's back (every real update
        // path invalidates the plane before mutating; this simulates one
        // that forgot). The new interval is structurally valid, so only the
        // plane-coherence check can object.
        let hi = c.lab.advertised_hi.iter().copied().max().unwrap_or(0);
        c.lab.sets[0].insert(tc_interval::Interval::point(hi + 100));
        assert!(c.audit().unwrap_err().contains("query plane"));
    }

    #[test]
    fn phantom_interval_is_caught_by_fixed_point_check() {
        let mut c = base();
        // A far-away point interval is structurally fine (sorted, own tree
        // interval still covered) but is not derivable from any successor —
        // only the sampled fixed-point check can object. Node 0 is always
        // in the deterministic sample (hash of k = 0).
        let hi = c.lab.advertised_hi.iter().copied().max().unwrap_or(0);
        c.lab.sets[0].insert(tc_interval::Interval::point(hi + 100));
        assert!(c.audit().unwrap_err().contains("fixed point"));
    }

    #[test]
    fn dropped_inherited_interval_is_caught_by_fixed_point_check() {
        let mut c = base();
        // Node 2 reaches 3 over a non-tree arc, so its set must hold 3's
        // intervals beyond its own tree interval; resetting it to the bare
        // tree singleton passes invariants 1-8 but not the fixed point.
        let ix = 2;
        c.lab.sets[ix] = IntervalSet::singleton(tc_interval::Interval::new(
            c.lab.low[ix],
            c.lab.post[ix],
        ));
        assert!(c.audit().unwrap_err().contains("fixed point"));
    }

    #[test]
    fn occupied_reserve_tail_is_caught() {
        let mut c = base();
        // Assign a rogue number inside node 0's advertised tail.
        let post = c.lab.post[0];
        if c.lab.advertised_hi[0] > post {
            // Fake an extra node so counts still line up, then point the
            // line at it from inside the tail.
            c.lab.line.tombstone(c.lab.post[4]);
            c.lab.line.assign(post + 1, 4);
            c.lab.post[4] = post + 1;
            let r = c.audit();
            assert!(r.is_err());
        }
    }
}
