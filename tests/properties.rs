//! Property-based tests (proptest) for the paper's lemmas and theorems on
//! randomized graph structures.

use proptest::prelude::*;
use tc_baselines::ChainIndex;
use tc_core::bruteforce::exhaustive_min_intervals;
use tc_core::{ClosureConfig, CompressedClosure};
use tc_graph::{topo, DiGraph, NodeId};
use tc_interval::{Interval, IntervalSet};

/// Strategy: an arbitrary DAG as (node count, edge mask bits over the
/// upper-triangular pairs).
fn arb_dag(max_nodes: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_nodes).prop_flat_map(|n| {
        let bits = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), bits).prop_map(move |edges| {
            let mut g = DiGraph::with_nodes(n);
            let mut bit = 0usize;
            for i in 0..n as u32 {
                for j in (i + 1)..n as u32 {
                    if edges[bit] {
                        g.add_edge(NodeId(i), NodeId(j));
                    }
                    bit += 1;
                }
            }
            g
        })
    })
}

proptest! {
    /// The closure agrees with DFS ground truth on arbitrary DAGs, for all
    /// gaps and with merging on or off.
    #[test]
    fn closure_matches_dfs(g in arb_dag(10), gap in 1u64..64, merge in any::<bool>()) {
        let c = ClosureConfig::new().gap(gap).merge_adjacent(merge).build(&g).unwrap();
        c.verify().unwrap();
    }

    /// Lemma 1: within the tree cover, reachability is exactly tree-interval
    /// containment.
    #[test]
    fn lemma_1_tree_interval_containment(g in arb_dag(10)) {
        let c = ClosureConfig::new().gap(1).build(&g).unwrap();
        // Restrict the graph to tree arcs only.
        let mut tree_only = DiGraph::with_nodes(g.node_count());
        for v in g.nodes() {
            if let Some(p) = c.cover().parent(v) {
                tree_only.add_edge(p, v);
            }
        }
        for a in g.nodes() {
            let iv = c.tree_interval(a);
            for b in g.nodes() {
                prop_assert_eq!(
                    iv.contains(c.post_number(b)),
                    tc_graph::traverse::reaches(&tree_only, a, b)
                );
            }
        }
    }

    /// Lemma 4: the number of non-tree intervals at a node i equals |N_i|,
    /// the set of nodes j reached via at least one non-tree arc with no
    /// tree-path from another member of N_i.
    #[test]
    fn lemma_4_non_tree_interval_count(g in arb_dag(9)) {
        let c = ClosureConfig::new().gap(1).build(&g).unwrap();
        // Paths "containing one or more non-tree arcs": reach j from i in
        // the full graph through a walk that is not all-tree. Compute, per
        // node i, the set of such j, then prune members tree-reachable from
        // other members.
        let n = g.node_count();
        // tree_reach[a][b]: a ->* b via tree arcs only.
        let mut tree_only = DiGraph::with_nodes(n);
        for v in g.nodes() {
            if let Some(p) = c.cover().parent(v) {
                tree_only.add_edge(p, v);
            }
        }
        let tree_reach: Vec<_> = g.nodes().map(|v| tc_graph::traverse::reachable_set(&tree_only, v)).collect();
        let full_reach: Vec<_> = g.nodes().map(|v| tc_graph::traverse::reachable_set(&g, v)).collect();

        for i in g.nodes() {
            // N_i candidates: j reachable from i, not tree-reachable from i
            // ... careful: a path with a non-tree arc may exist even if j is
            // also tree-reachable; but then j's interval is subsumed by i's
            // own tree interval, which Lemma 4's condition (ii) handles with
            // k = i? The lemma's N_i excludes such j because i itself...
            // The operative set: j reached via some non-tree-containing path.
            let mut candidates: Vec<NodeId> = Vec::new();
            for j in g.nodes() {
                if j == i { continue; }
                if !full_reach[i.index()].contains(j.index()) { continue; }
                // Does some path i ->* j use a non-tree arc? True unless the
                // ONLY paths are all-tree; equivalently there is an arc
                // (u, v) on some i-j path that is non-tree. Check: exists
                // non-tree arc (u,v) with i ->* u and v ->* j.
                let via_non_tree = g.edges().any(|(u, v)| {
                    !c.cover().is_tree_arc(u, v)
                        && full_reach[i.index()].contains(u.index())
                        && full_reach[v.index()].contains(j.index())
                });
                if via_non_tree {
                    candidates.push(j);
                }
            }
            // Condition (ii): drop j if some other k in N_i tree-reaches j;
            // also drop j if i itself tree-reaches j (its interval is
            // subsumed by i's own tree interval).
            let surviving: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|&j| !tree_reach[i.index()].contains(j.index()))
                .filter(|&j| {
                    !candidates.iter().any(|&k| k != j && tree_reach[k.index()].contains(j.index()))
                })
                .collect();
            let non_tree_at_i = c.intervals(i).count() - 1;
            prop_assert_eq!(
                non_tree_at_i,
                surviving.len(),
                "Lemma 4 at {:?}: intervals {:?}",
                i,
                c.intervals(i)
            );
        }
    }

    /// Lemma 3: "If an interval [i1,i2] subsumes another interval [j1,j2],
    /// then there is a path from i2 to j2 consisting solely of tree arcs" —
    /// tree-interval subsumption coincides with tree ancestry.
    #[test]
    fn lemma_3_subsumption_is_tree_ancestry(g in arb_dag(10)) {
        let c = ClosureConfig::new().gap(1).build(&g).unwrap();
        for a in g.nodes() {
            for b in g.nodes() {
                let subsumes = c.tree_interval(a).subsumes(c.tree_interval(b));
                prop_assert_eq!(
                    subsumes,
                    c.cover().is_tree_ancestor(a, b),
                    "({:?},{:?})", a, b
                );
            }
        }
    }

    /// Theorem 1: Alg1's interval count equals the brute-force minimum over
    /// all tree covers.
    #[test]
    fn theorem_1_alg1_is_optimal(g in arb_dag(7)) {
        if let Some(brute) = exhaustive_min_intervals(&g, 20_000) {
            let alg1 = CompressedClosure::build(&g).unwrap().total_intervals();
            prop_assert_eq!(alg1, brute.min_intervals);
        }
    }

    /// Theorem 2: tree-cover storage never exceeds the best chain-cover
    /// storage (entries and intervals both cost two numbers each).
    #[test]
    fn theorem_2_tree_beats_chains(g in arb_dag(12)) {
        let tree = ClosureConfig::new().gap(1).build(&g).unwrap();
        let chain = ChainIndex::build_minimum(&g).unwrap();
        prop_assert!(tree.total_intervals() <= chain.entry_count());
    }

    /// Interval-set invariants under arbitrary insertions.
    #[test]
    fn interval_set_invariants(ivs in proptest::collection::vec((0u64..200, 0u64..60), 0..40)) {
        let mut set = IntervalSet::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        for (lo, width) in ivs {
            set.insert(Interval::new(lo, lo + width));
            reference.push((lo, lo + width));
            prop_assert!(set.check_invariants());
        }
        // Coverage must equal the union of all inserted intervals.
        for p in 0..280u64 {
            let expect = reference.iter().any(|&(lo, hi)| lo <= p && p <= hi);
            prop_assert_eq!(set.contains_point(p), expect, "point {}", p);
        }
        // Merging preserves coverage and only shrinks the count.
        let before = set.count();
        set.merge_adjacent();
        prop_assert!(set.count() <= before);
        for p in 0..280u64 {
            let expect = reference.iter().any(|&(lo, hi)| lo <= p && p <= hi);
            prop_assert_eq!(set.contains_point(p), expect, "post-merge point {}", p);
        }
    }

    /// Successor decode round-trips the closure rows exactly.
    #[test]
    fn successors_match_rows(g in arb_dag(10), gap in 1u64..32) {
        let c = ClosureConfig::new().gap(gap).build(&g).unwrap();
        for v in g.nodes() {
            let mut got = c.successors(v);
            got.sort_unstable();
            let mut expect: Vec<NodeId> = tc_graph::traverse::reachable_set(&g, v)
                .iter().map(NodeId::from_index).collect();
            expect.sort_unstable();
            prop_assert_eq!(&got, &expect);
            prop_assert_eq!(c.successor_count(v), expect.len());
        }
    }

    /// Update equivalence: applying a random edge-addition sequence
    /// incrementally matches building the final graph from scratch.
    #[test]
    fn incremental_adds_match_batch_build(
        n in 3usize..10,
        ops in proptest::collection::vec((0u32..10, 0u32..10), 1..25),
        gap in 2u64..32,
    ) {
        let mut g = DiGraph::with_nodes(n);
        let mut c = ClosureConfig::new().gap(gap).build(&g).unwrap();
        for (a, b) in ops {
            let (a, b) = (a % n as u32, b % n as u32);
            if a == b { continue; }
            let (src, dst) = (NodeId(a), NodeId(b));
            if c.reaches(dst, src) {
                continue; // would create a cycle
            }
            c.add_edge(src, dst).unwrap();
            g.add_edge(src, dst);
        }
        let fresh = CompressedClosure::build(&g).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(c.reaches(u, v), fresh.reaches(u, v));
            }
        }
    }

    /// Topological sorters agree with each other and with validity.
    #[test]
    fn topo_sorts_are_valid(g in arb_dag(12)) {
        let kahn = topo::topo_sort(&g).unwrap();
        let dfs = topo::topo_sort_dfs(&g).unwrap();
        prop_assert!(topo::is_topo_order(&g, &kahn));
        prop_assert!(topo::is_topo_order(&g, &dfs));
    }

    /// Serialization round-trips arbitrary closures bit-for-bit.
    #[test]
    fn codec_roundtrip(g in arb_dag(10), gap in 2u64..64, reserve in 0u64..4) {
        prop_assume!(gap > 2 * reserve);
        let c = ClosureConfig::new().gap(gap).reserve(reserve).build(&g).unwrap();
        let bytes = c.to_bytes();
        let back = CompressedClosure::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bytes(), bytes);
        back.verify().unwrap();
    }

    /// The pooled-range layout answers identically to the flat layout, and
    /// its accounting identity holds.
    #[test]
    fn pooled_matches_flat(g in arb_dag(10)) {
        let c = ClosureConfig::new().gap(1).build(&g).unwrap();
        let p = tc_core::pooled::PooledClosure::from_closure(&c);
        prop_assert_eq!(p.flat_storage_units(), 2 * c.total_intervals());
        prop_assert_eq!(p.ref_count(), c.total_intervals());
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(p.reaches(u, v), c.reaches(u, v));
            }
        }
    }

    /// Batch queries agree with pointwise queries over the full node square,
    /// at any thread count.
    #[test]
    fn reaches_batch_matches_pointwise(g in arb_dag(12), threads in 1usize..5) {
        let c = ClosureConfig::new().threads(threads).build(&g).unwrap();
        let pairs: Vec<(NodeId, NodeId)> = g
            .nodes()
            .flat_map(|u| g.nodes().map(move |v| (u, v)))
            .collect();
        let batch = c.reaches_batch(&pairs);
        prop_assert_eq!(batch.len(), pairs.len());
        for (&(u, v), &got) in pairs.iter().zip(&batch) {
            prop_assert_eq!(got, c.reaches(u, v), "batch answer for ({:?},{:?})", u, v);
        }
    }

    /// A frozen query plane answers every query identically to the mutable
    /// closure it was snapshotted from, across the gap/merge configuration
    /// space (dead numbers and merged intervals exercise rank compression).
    #[test]
    fn frozen_plane_matches_mutable(g in arb_dag(10), gap in 1u64..64, merge in any::<bool>()) {
        let mut c = ClosureConfig::new().gap(gap).merge_adjacent(merge).build(&g).unwrap();
        let pairs: Vec<_> = g.nodes().flat_map(|v| g.nodes().map(move |w| (v, w))).collect();
        let mutable: Vec<_> = g
            .nodes()
            .map(|v| (c.successors(v), c.predecessors(v), c.successor_count(v)))
            .collect();
        // The hoisted mutable batch path must agree with per-pair probes.
        let mutable_batch = c.reaches_batch(&pairs);
        for (&(v, w), &got) in pairs.iter().zip(&mutable_batch) {
            prop_assert_eq!(
                got,
                mutable[v.index()].0.contains(&w),
                "mutable reaches_batch({:?},{:?})", v, w
            );
        }
        c.freeze();
        prop_assert!(c.is_frozen());
        c.verify().unwrap();
        for v in g.nodes() {
            let (succ, pred, count) = &mutable[v.index()];
            prop_assert_eq!(&c.successors(v), succ, "successors({:?})", v);
            prop_assert_eq!(&c.predecessors(v), pred, "predecessors({:?})", v);
            prop_assert_eq!(c.successor_count(v), *count, "successor_count({:?})", v);
            for w in g.nodes() {
                prop_assert_eq!(
                    c.reaches(v, w),
                    succ.contains(&w),
                    "frozen reaches({:?},{:?})", v, w
                );
            }
        }
        // Frozen batch answers match the mutable batch bit for bit.
        prop_assert_eq!(c.reaches_batch(&pairs), mutable_batch, "frozen reaches_batch");
    }

    /// Scoped deletion recompute is *identical* to the global sweep — not
    /// just reachability-equivalent, but the same interval sets node for
    /// node — over random DAGs, random deletion sequences (arc and node
    /// removals), serial and parallel, with merging on or off.
    #[test]
    fn scoped_deletes_match_global_sweep(
        g in arb_dag(12),
        dels in proptest::collection::vec((any::<u16>(), 0u32..12, 0u32..12), 1..20),
        gap in 2u64..32,
        merge in any::<bool>(),
        threads in 1usize..4,
    ) {
        let config = ClosureConfig::new().gap(gap).merge_adjacent(merge).threads(threads);
        let mut scoped = config.scoped_deletes(true).build(&g).unwrap();
        let mut global = config.scoped_deletes(false).build(&g).unwrap();
        for (pick, a, b) in dels {
            let n = g.node_count() as u32;
            let (a, b) = (NodeId(a % n), NodeId(b % n));
            if pick % 4 == 0 {
                // Node removal: always applicable (idempotent on isolated
                // nodes); ids stay stable, the node just loses its arcs.
                scoped.remove_node(a).unwrap();
                global.remove_node(a).unwrap();
            } else {
                // Arc removal: steer the random pair onto a real arc of the
                // *current* relation when one exists.
                let (src, dst) = if scoped.graph().has_edge(a, b) {
                    (a, b)
                } else {
                    match scoped.graph().edges().nth(pick as usize % scoped.graph().edge_count().max(1)) {
                        Some(e) => e,
                        None => continue,
                    }
                };
                scoped.remove_edge(src, dst).unwrap();
                global.remove_edge(src, dst).unwrap();
            }
            for v in g.nodes() {
                prop_assert_eq!(
                    scoped.intervals(v),
                    global.intervals(v),
                    "intervals of {:?} diverge after deletions", v
                );
            }
        }
        scoped.verify().unwrap();
        global.verify().unwrap();
    }

    /// `find_path` returns a genuine arc-by-arc witness exactly when
    /// reachability holds.
    #[test]
    fn find_path_is_sound_and_complete(g in arb_dag(10)) {
        let c = CompressedClosure::build(&g).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                match c.find_path(u, v) {
                    Some(path) => {
                        prop_assert_eq!(path[0], u);
                        prop_assert_eq!(*path.last().unwrap(), v);
                        prop_assert!(path.windows(2).all(|w| g.has_edge(w[0], w[1])));
                    }
                    None => prop_assert!(!tc_graph::traverse::reaches(&g, u, v)),
                }
            }
        }
    }
}

/// Strategy: a multi-component DAG assembled from 1–3 independent pieces,
/// each an arbitrary upper-triangular DAG — the shape the WCC partitioner
/// splits cleanly, before churn stitches components together.
fn arb_components() -> impl Strategy<Value = DiGraph> {
    proptest::collection::vec(arb_dag(5), 1..=3).prop_map(|parts| {
        let mut g = DiGraph::new();
        for part in parts {
            let base = g.node_count() as u32;
            for _ in 0..part.node_count() {
                g.add_node();
            }
            for (u, v) in part.edges() {
                g.add_edge(NodeId(base + u.0), NodeId(base + v.0));
            }
        }
        g
    })
}

/// Every answer the sharded closure gives — point probes, the batch path,
/// decoded successor and predecessor sets — must equal the DFS closure of
/// `g` (and therefore the unsharded closure, which `verify` pins to the
/// same ground truth elsewhere).
fn assert_sharded_matches(sc: &tc_core::ShardedClosure, flat: &CompressedClosure, g: &DiGraph) {
    let rows = tc_graph::traverse::closure_rows(g);
    let mut pairs = Vec::new();
    for u in g.nodes() {
        for v in g.nodes() {
            pairs.push((u, v));
            prop_assert_eq!(
                sc.reaches(u, v),
                rows[u.index()].contains(v.index()),
                "sharded reaches({u:?},{v:?})"
            );
        }
    }
    prop_assert_eq!(sc.reaches_batch(&pairs), flat.reaches_batch(&pairs));
    for v in g.nodes() {
        let got: Vec<usize> = sc.successors(v).iter().map(|u| u.index()).collect();
        let want: Vec<usize> = rows[v.index()].iter().collect();
        prop_assert_eq!(got, want, "sharded successors({v:?})");
        let got: Vec<usize> = sc.predecessors(v).iter().map(|u| u.index()).collect();
        let want: Vec<usize> =
            (0..g.node_count()).filter(|&u| rows[u].contains(v.index())).collect();
        prop_assert_eq!(got, want, "sharded predecessors({v:?})");
    }
}

proptest! {
    /// The sharded closure is observationally identical to the unsharded
    /// one on random multi-component DAGs, at every shard count.
    #[test]
    fn sharded_closure_matches_unsharded(g in arb_components(), shards in 1usize..5) {
        let flat = CompressedClosure::build(&g).unwrap();
        let sc = tc_core::ShardedClosure::build(ClosureConfig::new(), &g, shards).unwrap();
        sc.audit().unwrap();
        assert_sharded_matches(&sc, &flat, &g);
    }

    /// Equivalence survives update churn through the one sharded write
    /// path. Random edge inserts (cross-shard included), edge deletes,
    /// leaf inserts, node removals and refinements go to a
    /// `ShardedService` and a flat closure in lockstep; one id past the
    /// end exercises unknown-node rejections. The front end's verdict must
    /// match the flat closure's (`Rejected` exactly on `Err`, `Noop`
    /// exactly on `Ok(false)`, equal new node ids), and after every flush
    /// the reader must answer every pair like the flat closure.
    #[test]
    fn sharded_closure_survives_cross_shard_churn(
        g in arb_components(),
        shards in 2usize..5,
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..16),
    ) {
        use tc_core::{ServiceConfig, ServiceOp, ShardedService, SubmitOutcome, UpdateError};
        // A small reserve lets some flat refinements take the §4.1 path
        // and others exhaust it, so both feed the comparison.
        let cc = ClosureConfig::new().reserve(2);
        let mut flat = cc.build(&g).unwrap();
        let sc = tc_core::ShardedClosure::build(cc, &g, shards).unwrap();
        let service = ShardedService::start(sc, ServiceConfig::new().audit(true));
        let mut reader = service.reader();
        let mut rejected = 0;
        for (kind, a, b) in ops {
            let n = flat.node_count() as u32 + 1;
            let (u, v) = (NodeId(a % n), NodeId(b % n));
            let verdict = |r: Result<Option<NodeId>, UpdateError>| match r {
                Ok(new_node) => SubmitOutcome::Routed { new_node },
                Err(_) => SubmitOutcome::Rejected,
            };
            let (op, want) = match kind % 5 {
                0 => (
                    ServiceOp::AddEdge { src: u, dst: v },
                    match flat.add_edge(u, v) {
                        Ok(false) => SubmitOutcome::Noop,
                        r => verdict(r.map(|_| None)),
                    },
                ),
                1 => (
                    ServiceOp::RemoveEdge { src: u, dst: v },
                    verdict(flat.remove_edge(u, v).map(|_| None)),
                ),
                2 => (
                    // A leaf under two (possibly equal, possibly
                    // cross-shard) parents.
                    ServiceOp::AddNode { parents: vec![u, v] },
                    verdict(flat.add_node_with_parents(&[u, v]).map(Some)),
                ),
                3 => (
                    ServiceOp::RemoveNode { node: u },
                    verdict(flat.remove_node(u).map(|_| None)),
                ),
                _ => {
                    // The service always refines by the generic insert;
                    // the flat closure degrades to it when the reserve
                    // runs dry. Either way the new id comes next.
                    let parents = if u.index() < flat.node_count() {
                        flat.graph().predecessors(u).to_vec()
                    } else {
                        Vec::new()
                    };
                    let r = match flat.refine_insert(u, &parents) {
                        Err(UpdateError::ReserveExhausted(_)) => {
                            flat.add_node_with_parents(&parents).and_then(|z| {
                                flat.add_edge(z, u)?;
                                Ok(z)
                            })
                        }
                        r => r,
                    };
                    (ServiceOp::Refine { child: u }, verdict(r.map(Some)))
                }
            };
            if want == SubmitOutcome::Rejected {
                rejected += 1;
            }
            let (_, got) = service.submit_with_outcome(op.clone()).unwrap();
            prop_assert_eq!(got, want, "verdict for {:?}", op);
            let stats = service.flush();
            prop_assert_eq!(stats.skipped, 0, "shard writers must never skip");
            prop_assert_eq!(stats.audit_violation, None);
            let nodes = flat.node_count() as u32;
            let pairs: Vec<(NodeId, NodeId)> = (0..nodes)
                .flat_map(|s| (0..nodes).map(move |d| (NodeId(s), NodeId(d))))
                .collect();
            prop_assert_eq!(reader.reaches_batch(&pairs), flat.reaches_batch(&pairs));
            for &(s, d) in &pairs {
                prop_assert_eq!(reader.reaches(s, d), flat.reaches(s, d), "reaches({s:?},{d:?})");
            }
        }
        let (stats, sc) = service.shutdown();
        prop_assert_eq!(stats.rejected, rejected);
        sc.audit().unwrap();
        sc.verify().unwrap();
        assert_sharded_matches(&sc, &flat, flat.graph());
    }
}

/// Every answer a frozen plane gives — point probes, the batch path,
/// decoded successor and predecessor sets, counts — must equal the
/// mutable closure's.
fn assert_plane_matches<S: tc_core::paged::PageSource>(
    plane: &tc_core::paged::FrozenPlane<S>,
    c: &CompressedClosure,
) {
    prop_assert_eq!(plane.node_count(), c.node_count());
    let nodes: Vec<NodeId> = (0..c.node_count() as u32).map(NodeId).collect();
    let mut pairs = Vec::new();
    for &u in &nodes {
        prop_assert_eq!(plane.successors(u), c.successors(u), "successors({:?})", u);
        prop_assert_eq!(plane.predecessors(u), c.predecessors(u), "predecessors({:?})", u);
        prop_assert_eq!(plane.successor_count(u), c.successor_count(u));
        for &v in &nodes {
            pairs.push((u, v));
        }
    }
    let want: Vec<bool> = pairs.iter().map(|&(u, v)| c.reaches(u, v)).collect();
    prop_assert_eq!(plane.reaches_batch(&pairs), want);
    plane.verify_payload().unwrap();
}

proptest! {
    /// One code path, two page sources: the frozen image of an arbitrary
    /// DAG — across gaps, reserves, and update churn before the freeze
    /// (tombstones and reserve tails included) — answers exactly like the
    /// mutable closure, served resident or through buffer pools of 1, 2,
    /// 16 and every page (the 1- and 2-frame pools evict on nearly every
    /// probe).
    #[test]
    fn frozen_planes_match_the_mutable_closure(
        g in arb_dag(10),
        // Labeling::assign requires gap > 2 * reserve.
        gap in 8u64..64,
        reserve in 0u64..4,
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..12),
    ) {
        let mut mirror = g.clone();
        let mut c = ClosureConfig::new().gap(gap).reserve(reserve).build(&g).unwrap();
        for (kind, a, b) in ops {
            let n = mirror.node_count() as u32;
            let (u, v) = (NodeId(a % n), NodeId(b % n));
            match kind % 3 {
                0 => {
                    if u == v || mirror.has_edge(u, v)
                        || tc_graph::traverse::reaches(&mirror, v, u)
                    {
                        continue;
                    }
                    c.add_edge(u, v).unwrap();
                    mirror.add_edge(u, v);
                }
                1 => {
                    if !mirror.has_edge(u, v) {
                        continue;
                    }
                    c.remove_edge(u, v).unwrap();
                    mirror.remove_edge(u, v);
                }
                _ => {
                    let z = c.add_node_with_parents(&[u, v]).unwrap();
                    let m = mirror.add_node();
                    prop_assert_eq!(m, z);
                    mirror.add_edge(u, z);
                    mirror.add_edge(v, z);
                }
            }
        }
        let mut frozen = c.clone();
        frozen.freeze();
        let resident = frozen.plane().expect("resident freeze");
        assert_plane_matches(resident, &c);
        let bytes = c.to_paged_bytes();
        let every_page = resident.payload_pages() as usize;
        for pool in [1, 2, 16, every_page] {
            let paged = tc_core::PagedPlane::open_from_bytes(&bytes, pool).unwrap();
            assert_plane_matches(&paged, &c);
        }
    }
}

/// Freezes `c` with the hybrid oracle at `threshold` and checks every
/// query surface — point probes via the batch path, successor decodes and
/// counts, predecessors — against the mutable truth, plus the paged image
/// of the same configuration (HYB1 overlay riding the PLN1 section)
/// through an eviction-heavy 2-frame pool. Exactly the over-threshold rows
/// must have switched representation. Leaves the closure thawed.
fn assert_hybrid_matches(c: &mut CompressedClosure, threshold: usize) {
    let nodes: Vec<NodeId> = (0..c.node_count() as u32).map(NodeId).collect();
    let mutable: Vec<_> = nodes
        .iter()
        .map(|&v| (c.successors(v), c.predecessors(v)))
        .collect();
    let pairs: Vec<_> = nodes
        .iter()
        .flat_map(|&u| nodes.iter().map(move |&v| (u, v)))
        .collect();
    let want: Vec<bool> = pairs
        .iter()
        .map(|&(u, v)| mutable[u.index()].0.contains(&v))
        .collect();
    let over = c
        .merged_interval_counts()
        .iter()
        .filter(|&&k| k > threshold)
        .count();

    c.set_hybrid_threshold(threshold);
    c.freeze();
    c.verify().unwrap();
    let plane = c.plane().expect("just frozen");
    prop_assert_eq!(plane.bitset_rows(), over, "row selection at threshold {}", threshold);
    for (ix, &v) in nodes.iter().enumerate() {
        prop_assert_eq!(&c.successors(v), &mutable[ix].0, "successors({:?})", v);
        prop_assert_eq!(&c.predecessors(v), &mutable[ix].1, "predecessors({:?})", v);
        prop_assert_eq!(c.successor_count(v), mutable[ix].0.len());
    }
    prop_assert_eq!(c.reaches_batch(&pairs), want.clone(), "hybrid reaches_batch");

    let paged = tc_core::PagedPlane::open_from_bytes(&c.to_paged_bytes(), 2).unwrap();
    prop_assert_eq!(paged.reaches_batch(&pairs), want);
    for (ix, &v) in nodes.iter().enumerate() {
        prop_assert_eq!(paged.successors(v), mutable[ix].0.clone(), "paged successors({:?})", v);
        prop_assert_eq!(paged.successor_count(v), mutable[ix].0.len());
    }
    c.thaw();
}

/// Maps a proptest selector onto the three interesting threshold regimes:
/// 0 (every non-trivial row goes bitset), `usize::MAX` (pure interval,
/// the oracle disarmed), or a small mid value that splits the rows.
fn threshold_from(sel: usize) -> usize {
    match sel {
        0 => 0,
        7 => usize::MAX,
        mid => mid,
    }
}

proptest! {
    /// Hybrid == pure-interval == mutable on the dense-layered adversary,
    /// across the whole threshold spectrum.
    #[test]
    fn hybrid_matches_pure_on_dense_layered(
        layers in 1usize..5, width in 1usize..6, degree in 1usize..4,
        seed in any::<u64>(), sel in 0usize..8,
    ) {
        let g = tc_graph::generators::dense_layered(layers, width, degree, seed);
        let mut c = ClosureConfig::new().build(&g).unwrap();
        assert_hybrid_matches(&mut c, threshold_from(sel));
    }

    /// Same equivalence on the high-path-width adversary, whose scattered
    /// singleton intervals hit the bitset builder's worst fill pattern.
    #[test]
    fn hybrid_matches_pure_on_long_path_width(
        chains in 1usize..6, chain_len in 1usize..5, cross in 0usize..12,
        seed in any::<u64>(), sel in 0usize..8,
    ) {
        let g = tc_graph::generators::long_path_width(chains, chain_len, cross, seed);
        let mut c = ClosureConfig::new().build(&g).unwrap();
        assert_hybrid_matches(&mut c, threshold_from(sel));
    }

    /// The random-insertion-order adversary: the same dense-layered arcs
    /// replayed one at a time in seeded random order deny the tree cover
    /// its topological sweep, so labels fragment far past the bulk build.
    /// Every threshold regime must still answer identically (one closure,
    /// refrozen per regime).
    #[test]
    fn hybrid_matches_pure_after_random_order_insertion(
        layers in 1usize..4, width in 1usize..5, degree in 1usize..3,
        seed in any::<u64>(),
    ) {
        let g = tc_graph::generators::dense_layered(layers, width, degree, seed);
        let mut c = ClosureConfig::new()
            .build(&DiGraph::with_nodes(g.node_count()))
            .unwrap();
        for (u, v) in tc_graph::generators::shuffled_edges(&g, seed ^ 1) {
            c.add_edge(u, v).unwrap();
        }
        for threshold in [0, 2, usize::MAX] {
            assert_hybrid_matches(&mut c, threshold);
        }
    }
}

// --------------------------------------------------------------------
// Knowledge-base properties: the taxonomy codec, the subsumption order,
// and the rule engine's incremental maintenance, each against an oracle
// that shares no code with the implementation under test.

/// Concept name at (layer, slot) for the downhill fact generators below.
fn kb_name(layer: usize, slot: usize) -> String {
    format!("l{layer}n{slot}")
}

/// Strategy: IS-A arcs pointing strictly downhill through a small layer
/// stack — `(general_layer, general_slot, specific_layer, specific_slot)`
/// with `general_layer < specific_layer`, so no insertion order can form a
/// subsumption cycle.
fn arb_downhill_arcs(max: usize) -> impl Strategy<Value = Vec<(usize, usize, usize, usize)>> {
    proptest::collection::vec((1usize..4, 0usize..4, 0usize..4, 0usize..4), 1..=max).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(spec, i, gen_sel, j)| (gen_sel % spec, j, spec, i))
                .collect()
        },
    )
}

/// Builds a taxonomy from downhill arcs, creating concepts on first use.
fn taxonomy_from_arcs(arcs: &[(usize, usize, usize, usize)]) -> tc_kb::Taxonomy {
    let mut t = tc_kb::Taxonomy::new();
    for &(gl, gs, sl, ss) in arcs {
        for n in [kb_name(gl, gs), kb_name(sl, ss)] {
            if t.id(&n).is_err() {
                t.add_root(&n).expect("fresh concept");
            }
        }
        // Downhill by construction: only a duplicate arc can be rejected.
        let _ = t.add_isa(&kb_name(gl, gs), &kb_name(sl, ss));
    }
    t
}

proptest! {
    /// `to_bytes` / `from_bytes` is the identity on the whole observable
    /// surface: concept order, structural verification, and every pairwise
    /// subsumption answer.
    #[test]
    fn taxonomy_codec_roundtrips(arcs in arb_downhill_arcs(24)) {
        let t = taxonomy_from_arcs(&arcs);
        let back = tc_kb::Taxonomy::from_bytes(&t.to_bytes())
            .expect("clean snapshot decodes");
        back.verify().expect("decoded taxonomy verifies");
        prop_assert_eq!(t.len(), back.len());
        let names: Vec<&str> = t.concepts().collect();
        let back_names: Vec<&str> = back.concepts().collect();
        prop_assert_eq!(&names, &back_names);
        for a in &names {
            for b in &names {
                prop_assert_eq!(
                    t.subsumes(a, b).expect("known concepts"),
                    back.subsumes(a, b).expect("known concepts"),
                    "subsumes({}, {}) changed across the codec", a, b
                );
            }
        }
    }

    /// The interval-compressed subsumption order equals a from-scratch
    /// reachability oracle over plain adjacency sets (reflexive, per the
    /// closure's `reaches`).
    #[test]
    fn subsumption_matches_set_oracle(arcs in arb_downhill_arcs(24)) {
        let t = taxonomy_from_arcs(&arcs);
        let mut direct: std::collections::BTreeMap<String, std::collections::BTreeSet<String>> =
            std::collections::BTreeMap::new();
        for &(gl, gs, sl, ss) in &arcs {
            direct.entry(kb_name(gl, gs)).or_default().insert(kb_name(sl, ss));
        }
        let names: Vec<String> = t.concepts().map(str::to_owned).collect();
        for a in &names {
            // Depth-first reachability from `a` over the raw arc sets.
            let mut seen = std::collections::BTreeSet::new();
            let mut stack = vec![a.clone()];
            while let Some(n) = stack.pop() {
                if seen.insert(n.clone()) {
                    if let Some(kids) = direct.get(&n) {
                        stack.extend(kids.iter().cloned());
                    }
                }
            }
            for b in &names {
                prop_assert_eq!(
                    t.subsumes(a, b).expect("known concepts"),
                    seen.contains(b),
                    "subsumes({}, {}) disagrees with the set oracle", a, b
                );
            }
        }
    }

    /// Semi-naive forward chaining plus DRed retraction leaves exactly the
    /// fact base a naive from-scratch re-derivation would build, across
    /// random downhill assert/retract scripts over mixed relations.
    #[test]
    fn rule_engine_matches_naive_rederivation(
        ops in proptest::collection::vec(
            ((any::<bool>(), any::<bool>()), (1usize..4, 0usize..4), (0usize..4, 0usize..4)),
            1..40,
        )
    ) {
        use tc_kb::{AssertOutcome, KnowledgeBase, Pred};
        let mut kb = KnowledgeBase::new();
        kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").expect("rule parses");
        kb.define_rule("share: partof(X, Y) :- isa(X, Z), partof(Z, Y)").expect("rule parses");
        let mut live: Vec<(Pred, String, String)> = Vec::new();
        for ((retract, is_isa), (spec, i), (gen_sel, j)) in ops {
            if retract && !live.is_empty() {
                let ix = (spec * 13 + i * 7 + j) % live.len();
                let (p, a, b) = live.remove(ix);
                kb.retract_fact(p, &a, &b).expect("live fact retracts");
            } else {
                let pred = if is_isa { Pred::IsA } else { Pred::PartOf };
                let fact = (pred, kb_name(spec, i), kb_name(gen_sel % spec, j));
                let out = kb.assert_fact(pred, &fact.1, &fact.2).expect("downhill assert");
                prop_assert!(
                    !matches!(out, AssertOutcome::CycleRejected),
                    "downhill assert was cycle-rejected"
                );
                if !live.contains(&fact) {
                    live.push(fact);
                }
            }
        }
        prop_assert_eq!(kb.stats().cycle_rejected, 0);
        prop_assert_eq!(kb.stats().derive_failed, 0);
        if let Err(e) = kb.check_against_naive() {
            panic!("incremental fact base diverged from naive re-derivation: {e}");
        }
    }
}
