//! Incremental updates (§4 of the paper).
//!
//! The closure absorbs base-relation updates without recomputing the whole
//! closure:
//!
//! * **Node + tree-arc addition** ([`crate::CompressedClosure::add_node_with_parents`]):
//!   the new leaf takes the midpoint of the number gap *owned* by its tree
//!   parent — no other label changes (§4.1 "Addition of a tree arc").
//!   Additional parents are handled "as an addition of a tree arc followed
//!   by an addition of a non-tree arc".
//! * **Non-tree arc addition** ([`crate::CompressedClosure::add_edge`]): the
//!   destination's intervals propagate to the source and its predecessors,
//!   stopping wherever subsumption leaves a node unchanged (§4.1 "Addition
//!   of a non-tree arc").
//! * **Constant-time hierarchy refinement**
//!   ([`crate::CompressedClosure::refine_insert`]): when a new node is
//!   interposed below *all* current predecessors of an existing node, it is
//!   placed in that node's *reserve tail* and **no interval anywhere
//!   changes** (§4.1's `z` example with interval `[11,25]`).
//! * **Arc deletion** ([`crate::CompressedClosure::remove_edge`]): deleting
//!   a non-tree arc re-derives the non-tree intervals with one reverse-
//!   topological sweep (§4.2). Deleting a tree arc additionally relocates
//!   the orphaned subtree to fresh numbers above the current maximum,
//!   tombstoning the old numbers (stale ancestor intervals still span them,
//!   so they must not be reused until a [`crate::CompressedClosure::relabel`]).
//!
//! ## A note on gap ownership
//!
//! The paper picks the insertion number from "the two postorder numbers
//! between n1 and n2 that ... have the largest difference". Read literally
//! that may select a gap interior to a *sibling's* subtree, which would
//! create false positives. This implementation follows the paper's running
//! example instead (x under b → number 35 = the midpoint of b's own gap
//! (30, 40), interval [31, 35]): every node owns exactly the unused region
//! between its last descendant (or its interval low) and its own number, and
//! new children are placed by repeated midpoint subdivision of that region.
//! See DESIGN.md §3.2.

mod add;
mod delete;
mod delta;
mod refine;

pub use delta::EdgeDelta;

use std::fmt;

use tc_graph::NodeId;

/// Errors from incremental update operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An operand node does not exist.
    UnknownNode(NodeId),
    /// The arc would create a directed cycle (the destination already
    /// reaches the source).
    WouldCreateCycle {
        /// Requested arc source.
        src: NodeId,
        /// Requested arc destination.
        dst: NodeId,
    },
    /// Self-loops are not representable (reflexivity is implicit).
    SelfLoop(NodeId),
    /// The arc to remove does not exist.
    NoSuchEdge(NodeId, NodeId),
    /// `refine_insert` requires the new node's parents to be exactly the
    /// current immediate predecessors of the refined node; anything else
    /// would make the no-propagation shortcut unsound.
    RefineParentsMismatch {
        /// The node being refined.
        child: NodeId,
    },
    /// The refined node's reserve tail is exhausted; call
    /// [`crate::CompressedClosure::relabel`] (which replenishes every tail)
    /// and retry, or fall back to
    /// [`crate::CompressedClosure::add_node_with_parents`].
    ReserveExhausted(NodeId),
    /// The number line has reached its configured capacity
    /// ([`tc_interval::NumberLine::capacity`]); no new node can take a
    /// postorder number. Checked *before* any structure mutates, so the
    /// closure is unchanged. [`crate::CompressedClosure::relabel`] reclaims
    /// tombstoned positions; otherwise the capacity must be raised.
    NumberLineFull {
        /// Occupied positions (live + tombstoned).
        used: usize,
        /// The configured ceiling.
        capacity: usize,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            UpdateError::WouldCreateCycle { src, dst } => {
                write!(f, "arc ({src:?},{dst:?}) would create a cycle")
            }
            UpdateError::SelfLoop(n) => write!(f, "self loop on {n:?}"),
            UpdateError::NoSuchEdge(s, d) => write!(f, "no arc ({s:?},{d:?})"),
            UpdateError::RefineParentsMismatch { child } => write!(
                f,
                "refine_insert parents must be exactly the immediate predecessors of {child:?}"
            ),
            UpdateError::ReserveExhausted(n) => {
                write!(f, "reserve tail of {n:?} is exhausted; relabel and retry")
            }
            UpdateError::NumberLineFull { used, capacity } => write!(
                f,
                "number line full ({used}/{capacity} positions occupied); \
                 relabel to reclaim tombstones or raise the capacity"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

impl crate::CompressedClosure {
    /// Checks that `node` exists.
    pub(crate) fn check_node(&self, node: NodeId) -> Result<(), UpdateError> {
        if node.index() < self.graph.node_count() {
            Ok(())
        } else {
            Err(UpdateError::UnknownNode(node))
        }
    }

    /// The open number region `(start, post(parent))` into which new tree
    /// children of `parent` are inserted. `start` is the highest committed
    /// boundary below the parent's number: the advertised top of the
    /// parent's last descendant (skipping its refinement tail), a tombstone,
    /// or the parent's own interval low minus one — whichever is greatest.
    pub(crate) fn insertion_region(&self, parent: NodeId) -> (u64, u64) {
        let hi = self.lab.post[parent.index()];
        let raw = self.lab.line.prev_used(hi).unwrap_or(0);
        let mut start = raw;
        if let Some(node) = self.lab.line.node_at(raw) {
            start = start.max(self.lab.advertised_hi[node as usize]);
        }
        start = start.max(self.lab.low[parent.index()].saturating_sub(1));
        debug_assert!(start < hi);
        (start, hi)
    }

    /// Re-derives every non-tree interval with one reverse-topological
    /// sweep over the current graph, keeping numbers, tree intervals and
    /// consumed reserve tails as they are. Used by arc deletion (§4.2).
    pub(crate) fn recompute_non_tree(&mut self) {
        self.lab.reset_sets();
        let order =
            tc_graph::topo::topo_sort(&self.graph).expect("closure graph must stay acyclic");
        crate::propagate::propagate_all(&self.graph, &order, &mut self.lab);
        self.apply_merge_policy();
    }

    /// Scoped counterpart of [`Self::recompute_non_tree`] (§4.2 locality):
    /// only nodes that can reach a deletion's origin can have their
    /// non-tree intervals change, so the reverse-topological sweep is
    /// restricted to `seeds ∪ predecessors*(seeds)` over the (already
    /// updated) base graph, with every other node's set treated as a frozen
    /// input. Deletion paths seed this with every node whose outgoing
    /// reachability or number changed: the removed arc's source, relocated
    /// subtree members and stragglers, a quarantined point label's old
    /// holder, a removed node's former predecessors.
    ///
    /// Falls back to the global sweep when
    /// [`crate::ClosureConfig::scoped_deletes`] is off — the differential
    /// fuzzer runs both settings as cross-check oracles of each other.
    pub(crate) fn recompute_non_tree_scoped(&mut self, seeds: &[NodeId]) {
        if !self.config.scoped_deletes {
            self.recompute_non_tree();
            return;
        }
        let n = self.graph.node_count();
        // Affected region: seeds plus everything that reaches one, by one
        // reverse DFS over the base graph. A node outside this region
        // reaches no affected node at all (otherwise it would reach a seed
        // through it), so both its reachable set and its interval
        // representation are already at the post-deletion fixed point.
        let mut affected = vec![false; n];
        let mut region: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &s in seeds {
            if !std::mem::replace(&mut affected[s.index()], true) {
                region.push(s);
                stack.push(s);
            }
        }
        while let Some(v) = stack.pop() {
            for &p in self.graph.predecessors(v) {
                if !std::mem::replace(&mut affected[p.index()], true) {
                    region.push(p);
                    stack.push(p);
                }
            }
        }
        // Induced reverse-topological order: DFS finish order over the
        // region following affected successors only (in a DAG the head of
        // every arc finishes before its tail). Paths between affected nodes
        // never leave the region, so this order is sufficient.
        let mut order: Vec<NodeId> = Vec::with_capacity(region.len());
        let mut visited = vec![false; n];
        let mut walk: Vec<(NodeId, usize)> = Vec::new();
        for &r in &region {
            if visited[r.index()] {
                continue;
            }
            visited[r.index()] = true;
            walk.push((r, 0));
            while let Some(&mut (v, ref mut next)) = walk.last_mut() {
                let succ = self.graph.successors(v);
                if *next < succ.len() {
                    let q = succ[*next];
                    *next += 1;
                    if affected[q.index()] && !visited[q.index()] {
                        visited[q.index()] = true;
                        walk.push((q, 0));
                    }
                } else {
                    order.push(v);
                    walk.pop();
                }
            }
        }
        // Reset only the region to tree singletons, re-propagate it against
        // the frozen remainder, and keep the merge policy scoped to it too.
        for &v in &order {
            self.lab.sets[v.index()] = tc_interval::IntervalSet::singleton(
                tc_interval::Interval::new(self.lab.low[v.index()], self.lab.post[v.index()]),
            );
        }
        crate::propagate::propagate_scoped(&self.graph, &order, &mut self.lab);
        if self.config.merge_adjacent {
            for &v in &order {
                self.lab.sets[v.index()].merge_adjacent();
            }
        }
    }
}
