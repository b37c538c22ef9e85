//! Reverse-topological interval propagation (§3.2).
//!
//! "Examine all the nodes of G in the reverse topological order. At each
//! node p: for every arc (p,q), add all the intervals associated with the
//! node q to the intervals associated with the node p. At the time of adding
//! an interval ... if one interval is subsumed by another, discard the
//! subsumed interval."

use tc_graph::{DiGraph, NodeId};
use tc_interval::Interval;

use crate::labeling::Labeling;

/// Runs the full propagation sweep over `g`, assuming `lab.sets` currently
/// holds exactly the tree intervals (as after [`Labeling::assign`] or
/// [`Labeling::reset_sets`]). `topo_order` must be a topological order of
/// `g`; nodes are processed in reverse so every successor's set is complete
/// before it is inherited.
///
/// For each arc `(p, q)`, `p` inherits `q`'s set with one substitution: `q`'s
/// own tree interval is inherited in its *advertised* form (which covers
/// `q`'s refinement-reserve tail), so future constant-time refinements under
/// `q` are visible to everything that reaches `q`. With `reserve == 0` the
/// two forms coincide.
pub(crate) fn propagate_all(g: &DiGraph, topo_order: &[NodeId], lab: &mut Labeling) {
    sweep(g, topo_order.iter().rev().copied(), lab);
}

/// Scoped sweep (§4.2 locality): re-propagates only the nodes in `order`,
/// treating every other node's existing interval set as a frozen input.
///
/// `order` must be an induced reverse topological order of the affected
/// region (successors before predecessors), and the caller must already have
/// reset those nodes' sets to their tree singletons. Soundness rests on two
/// facts (see DESIGN.md, "Scoped deletion recompute"): any path between two
/// affected nodes passes only through affected nodes, so the induced order
/// suffices; and an unaffected node reaches no affected node, so its set is
/// already at its post-deletion fixed point and can be inherited verbatim.
pub(crate) fn propagate_scoped(g: &DiGraph, order: &[NodeId], lab: &mut Labeling) {
    sweep(g, order.iter().copied(), lab);
}

/// Makes each node of `nodes`, in turn, inherit from all its successors:
/// one linear merge-union per arc ([`tc_interval::IntervalSet::union_sorted`]).
fn sweep(g: &DiGraph, nodes: impl Iterator<Item = NodeId>, lab: &mut Labeling) {
    let (mut scratch, mut tail) = (Vec::new(), Vec::new());
    for p in nodes {
        for &q in g.successors(p) {
            inherit_into_scratch(lab, q, &mut scratch);
            lab.sets[p.index()].union_sorted(&scratch, &mut tail);
        }
    }
}

/// Collects the intervals `q` passes to an inheritor, sorted by `lo`: its
/// advertised tree interval plus every non-tree interval it holds.
pub(crate) fn inherit_into_scratch(lab: &Labeling, q: NodeId, scratch: &mut Vec<Interval>) {
    scratch.clear();
    let own = lab.tree_interval(q);
    let advertised = lab.advertised_interval(q);
    for iv in lab.sets[q.index()].iter() {
        if iv == own {
            scratch.push(advertised);
        } else {
            scratch.push(iv);
        }
    }
    // If `q`'s set was merged, its own tree interval may have been absorbed
    // into a wider interval; the advertised tail must still be inherited.
    if lab.reserve > 0 && !scratch.contains(&advertised) {
        let at = scratch.partition_point(|e| e.lo() < advertised.lo());
        scratch.insert(at, advertised);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::Labeling;
    use crate::treecover::{cover_of, CoverStrategy};
    use tc_graph::topo;

    /// Paper-style DAG: diamond 0 -> {1,2} -> 3 plus an extra sink 4 under 2.
    fn dag() -> DiGraph {
        DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)])
    }

    fn propagated(g: &DiGraph, gap: u64, reserve: u64) -> Labeling {
        let cover = cover_of(g, CoverStrategy::Optimal).unwrap();
        let mut lab = Labeling::assign(&cover, gap, reserve);
        let order = topo::topo_sort(g).unwrap();
        propagate_all(g, &order, &mut lab);
        lab
    }

    #[test]
    fn non_tree_arcs_produce_extra_intervals() {
        let g = dag();
        let lab = propagated(&g, 1, 0);
        // Node 3's tree parent is 1 (tie-break), so (2,3) is a non-tree arc:
        // node 2 must hold its own interval plus 3's.
        assert_eq!(lab.sets[2].count(), 2);
        assert!(lab.sets[2].contains_point(lab.post[3]));
        // The root reaches everything through its tree interval alone.
        assert_eq!(lab.sets[0].count(), 1);
    }

    #[test]
    fn propagation_matches_dfs_reachability() {
        let g = dag();
        let lab = propagated(&g, 7, 0);
        for u in g.nodes() {
            for v in g.nodes() {
                let expect = tc_graph::traverse::reaches(&g, u, v);
                let got = lab.sets[u.index()].contains_point(lab.post[v.index()]);
                assert_eq!(got, expect, "reach({u:?},{v:?})");
            }
        }
    }

    /// Merging can absorb a node's own tree interval into a wider one; the
    /// advertised interval then re-added for inheritors must still land in
    /// `lo` order, which the merge-union relies on. (Under an Alg1 cover no
    /// node reaches the subtree numbered just below its own, so a
    /// first-parent cover is used to make absorption happen.)
    #[test]
    fn inherited_lists_stay_sorted_after_merging() {
        let g = tc_graph::generators::random_dag(tc_graph::generators::RandomDagConfig {
            nodes: 300,
            avg_out_degree: 3.0,
            seed: 4,
        });
        let cover = cover_of(&g, CoverStrategy::FirstParent).unwrap();
        let mut lab = Labeling::assign(&cover, 16, 3);
        propagate_all(&g, &topo::topo_sort(&g).unwrap(), &mut lab);
        for set in &mut lab.sets {
            set.merge_adjacent();
        }
        let (mut scratch, mut absorbed) = (Vec::new(), 0);
        for q in g.nodes() {
            inherit_into_scratch(&lab, q, &mut scratch);
            assert!(scratch.windows(2).all(|w| w[0].lo() <= w[1].lo()), "{q:?}: {scratch:?}");
            let own_kept = lab.sets[q.index()].as_slice().contains(&lab.tree_interval(q));
            absorbed += usize::from(!own_kept);
        }
        assert!(absorbed > 0, "no tree interval was absorbed; the case is not exercised");
    }

    #[test]
    fn subsumed_intervals_are_discarded() {
        // Chain 0 -> 1 -> 2 with shortcut 0 -> 2: the shortcut's interval is
        // subsumed by 0's tree interval, so 0 keeps a single interval.
        let g = DiGraph::from_edges([(0, 1), (1, 2), (0, 2)]);
        let lab = propagated(&g, 1, 0);
        assert_eq!(lab.sets[0].count(), 1);
    }

    #[test]
    fn reserve_tail_is_inherited_by_predecessors_only() {
        let g = dag();
        let lab = propagated(&g, 16, 3);
        // Node 2 inherits 3's advertised interval: it must cover 3's tail.
        let tail_num = lab.post[3] + 1; // a number inside 3's reserve
        assert!(lab.sets[2].contains_point(tail_num));
        // Node 3 itself must NOT claim its own tail.
        assert!(!lab.sets[3].contains_point(tail_num));
        // Node 0 covers the tail through its tree interval (3 is a tree
        // descendant).
        assert!(lab.sets[0].contains_point(tail_num));
        // Node 4 has nothing to do with 3's tail.
        assert!(!lab.sets[4].contains_point(tail_num));
    }
}
