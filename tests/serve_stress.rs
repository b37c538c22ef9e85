//! Snapshot-consistency stress test for the sharded serving layer.
//!
//! For each seed, at 1 and at 2 shards, a tc-fuzz-generated op trace is
//! submitted to a [`ShardedService`] in 5-op chunks with a flush after
//! each, while reader threads concurrently pin views and record the
//! answers they observe. The service promises that every published view is
//! *one global prefix*: a view stamped `applied_seq = k` answers exactly as
//! the relation after the first `k` submitted ops (front-end rejections
//! count as no-ops), on every shard at once. After the run, every recorded
//! observation is checked against a DFS oracle of the relation at exactly
//! that prefix — any answer that matches no prefix, or a composed answer
//! mixing two shards' prefixes, is a violation.
//!
//! The pre-freeze structural audit is on throughout
//! ([`ServiceConfig::audit`]); a single audit violation fails the test.
//!
//! Reader count: `TC_SERVE_READERS`, else `RUST_TEST_THREADS`, else 4 —
//! CI runs this with elevated thread counts.

use std::sync::atomic::{AtomicBool, Ordering};

use tc_core::serve::{ServiceConfig, ServiceOp};
use tc_core::{ClosureConfig, CompressedClosure, ShardedClosure, ShardedService, ShardedView};
use tc_core::{SubmitOutcome, UpdateError};
use tc_fuzz::{generate, GenConfig, Op};
use tc_graph::{traverse, DiGraph, NodeId};

const SEEDS: u64 = 8;
const OPS_PER_SEED: usize = 240;
/// Ops submitted between two flushes.
const CHUNK: usize = 5;

fn reader_threads() -> usize {
    for var in ["TC_SERVE_READERS", "RUST_TEST_THREADS"] {
        if let Some(n) = std::env::var(var).ok().and_then(|v| v.parse::<usize>().ok()) {
            if n >= 1 {
                return n;
            }
        }
    }
    4
}

/// Maps a fuzz op to its serving-layer equivalent. Freeze/thaw and
/// thread-count ops have no service analogue (the service owns its planes
/// and its thread); service ops never appear (the generator knob is off).
fn to_service(op: &Op) -> Option<ServiceOp> {
    match op {
        Op::AddNode { parents } => Some(ServiceOp::AddNode {
            parents: parents.iter().map(|&p| NodeId(p)).collect(),
        }),
        Op::AddEdge { src, dst } => {
            Some(ServiceOp::AddEdge { src: NodeId(*src), dst: NodeId(*dst) })
        }
        Op::RemoveEdge { src, dst } => {
            Some(ServiceOp::RemoveEdge { src: NodeId(*src), dst: NodeId(*dst) })
        }
        Op::RemoveNode { node } => Some(ServiceOp::RemoveNode { node: NodeId(*node) }),
        Op::Refine { child } => Some(ServiceOp::Refine { child: NodeId(*child) }),
        Op::Relabel => Some(ServiceOp::Relabel),
        Op::Rebuild => Some(ServiceOp::Rebuild),
        Op::Freeze | Op::Thaw | Op::SetThreads { .. } => None,
        Op::ServicePublish | Op::ServiceQuery | Op::PagedProbe => None,
    }
}

/// Replays one op on the oracle closure with exactly the front end's
/// semantics and returns the verdict the front end must have given:
/// rejected ops change nothing, and `Refine` is the generic insert (a new
/// node under the child's current parents plus an arc into the child).
fn replay(oracle: &mut CompressedClosure, op: &ServiceOp) -> SubmitOutcome {
    let verdict = |r: Result<Option<NodeId>, UpdateError>| match r {
        Ok(new_node) => SubmitOutcome::Routed { new_node },
        Err(_) => SubmitOutcome::Rejected,
    };
    match op {
        ServiceOp::AddNode { parents } => verdict(oracle.add_node_with_parents(parents).map(Some)),
        ServiceOp::AddEdge { src, dst } => match oracle.add_edge(*src, *dst) {
            Ok(false) => SubmitOutcome::Noop,
            r => verdict(r.map(|_| None)),
        },
        ServiceOp::RemoveEdge { src, dst } => verdict(oracle.remove_edge(*src, *dst).map(|_| None)),
        ServiceOp::RemoveNode { node } => verdict(oracle.remove_node(*node).map(|_| None)),
        ServiceOp::Refine { child } => {
            if child.index() >= oracle.node_count() {
                return SubmitOutcome::Rejected;
            }
            let parents = oracle.graph().predecessors(*child).to_vec();
            let z = oracle.add_node_with_parents(&parents).expect("fresh node under live parents");
            oracle.add_edge(z, *child).expect("a fresh node cannot close a cycle");
            SubmitOutcome::Routed { new_node: Some(z) }
        }
        ServiceOp::Relabel => {
            oracle.relabel();
            SubmitOutcome::Routed { new_node: None }
        }
        ServiceOp::Rebuild => {
            oracle.rebuild();
            SubmitOutcome::Routed { new_node: None }
        }
    }
}

/// One recorded reader observation: the prefix the view is stamped with
/// plus the answers read off it.
struct Observation {
    applied_seq: u64,
    nodes: usize,
    /// Sampled `(src, dst, answer)` point probes.
    probes: Vec<(u32, u32, bool)>,
    /// `(node, successors-sorted-by-id)` decodes.
    successor_sets: Vec<(u32, Vec<u32>)>,
    /// `(node, predecessors-sorted-by-id)` decodes.
    predecessor_sets: Vec<(u32, Vec<u32>)>,
}

fn observe(snap: &ShardedView, salt: u64) -> Observation {
    let n = snap.node_count();
    let mut probes = Vec::new();
    let mut successor_sets = Vec::new();
    let mut predecessor_sets = Vec::new();
    if n > 0 {
        for k in 0..32u64 {
            let h = (k + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let s = ((h >> 32) as usize % n) as u32;
            let d = ((h >> 13) as usize % n) as u32;
            probes.push((s, d, snap.reaches(NodeId(s), NodeId(d))));
        }
        for k in 0..3u64 {
            let v = (((k + salt).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 32) as usize % n) as u32;
            let succ: Vec<u32> = snap.successors(NodeId(v)).iter().map(|u| u.0).collect();
            successor_sets.push((v, succ));
            let preds: Vec<u32> = snap.predecessors(NodeId(v)).iter().map(|u| u.0).collect();
            predecessor_sets.push((v, preds));
        }
    }
    Observation {
        applied_seq: snap.applied_seq(),
        nodes: n,
        probes,
        successor_sets,
        predecessor_sets,
    }
}

fn check_observations(
    what: &str,
    config: ClosureConfig,
    ops: &[ServiceOp],
    outcomes: &[SubmitOutcome],
    mut observations: Vec<Observation>,
) {
    observations.sort_by_key(|o| o.applied_seq);
    let mut oracle = config.build(&DiGraph::new()).expect("empty graph is acyclic");
    let mut replayed = 0usize;
    let mut rows: Option<Vec<tc_graph::BitSet>> = None;
    let mut rows_at = u64::MAX;
    for obs in &observations {
        let prefix = obs.applied_seq as usize;
        assert!(
            prefix <= ops.len(),
            "{what}: view claims {prefix} ops of a {}-op submission",
            ops.len()
        );
        assert!(
            prefix % CHUNK == 0 || prefix == ops.len(),
            "{what}: view stamped {prefix}, but views are published only at flushes"
        );
        while replayed < prefix {
            let want = replay(&mut oracle, &ops[replayed]);
            assert_eq!(
                outcomes[replayed], want,
                "{what}: front-end verdict for op {replayed} ({:?})",
                ops[replayed]
            );
            replayed += 1;
        }
        if rows_at != obs.applied_seq {
            rows = Some(traverse::closure_rows(oracle.graph()));
            rows_at = obs.applied_seq;
        }
        let rows = rows.as_ref().expect("rows computed above");
        assert_eq!(
            obs.nodes,
            oracle.node_count(),
            "{what} prefix {prefix}: view node count diverges from the replayed prefix"
        );
        for &(s, d, got) in &obs.probes {
            let want = rows[s as usize].contains(d as usize);
            assert_eq!(
                got, want,
                "{what} prefix {prefix}: observed reaches({s},{d}) = {got}, oracle says {want}"
            );
        }
        for (v, got) in &obs.successor_sets {
            let want: Vec<u32> = rows[*v as usize].iter().map(|u| u as u32).collect();
            assert_eq!(
                got, &want,
                "{what} prefix {prefix}: observed successors({v}) diverge"
            );
        }
        for (v, got) in &obs.predecessor_sets {
            let want: Vec<u32> = (0..obs.nodes as u32)
                .filter(|&u| rows[u as usize].contains(*v as usize))
                .collect();
            assert_eq!(
                got, &want,
                "{what} prefix {prefix}: observed predecessors({v}) diverge"
            );
        }
    }
}

fn stress_one_seed(seed: u64, shards: usize, readers: usize) {
    let what = format!("seed {seed} at {shards} shard(s)");
    let fuzz_cfg = GenConfig {
        ops: OPS_PER_SEED,
        seed,
        // Odd seeds run deletion-heavy mixed churn, so the scoped deletion
        // recompute serves live readers as often as insertion does.
        delete_bias: seed % 2 == 1,
        config: tc_fuzz::FuzzConfig { gap: 64, reserve: 4, ..tc_fuzz::FuzzConfig::default() },
        ..GenConfig::default()
    };
    let ops: Vec<ServiceOp> = generate(&fuzz_cfg).ops.iter().filter_map(to_service).collect();
    let config = ClosureConfig::new().gap(64).reserve(4);
    // From the empty graph, parentless nodes spread over the shards and
    // later arcs between them cross shards.
    let sharded = ShardedClosure::build(config, &DiGraph::new(), shards).expect("empty graph");
    let service = ShardedService::start(sharded, ServiceConfig::new().audit(true));

    let done = AtomicBool::new(false);
    let mut outcomes = Vec::with_capacity(ops.len());
    let observations = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let mut reader = service.reader();
                let done = &done;
                scope.spawn(move || {
                    let mut obs = Vec::new();
                    let mut salt = (r as u64) << 32;
                    while !done.load(Ordering::Relaxed) {
                        obs.push(observe(&reader.snapshot(), salt));
                        salt += 1;
                        std::thread::yield_now();
                    }
                    // One final look at the fully-applied state.
                    obs.push(observe(&reader.snapshot(), salt));
                    obs
                })
            })
            .collect();

        // Feed the trace in chunks so readers see many distinct prefixes.
        let mut flushes = 1u64;
        for chunk in ops.chunks(CHUNK) {
            for op in chunk {
                let (_, outcome) =
                    service.submit_with_outcome(op.clone()).expect("service closed mid-stress");
                outcomes.push(outcome);
            }
            service.flush();
            flushes += 1;
            std::thread::yield_now();
        }
        let stats = service.flush();
        done.store(true, Ordering::Relaxed);
        assert_eq!(stats.submitted, ops.len() as u64, "{what}: front end saw every op");
        assert_eq!(stats.skipped, 0, "{what}: shard writers must never skip");
        assert_eq!(stats.audit_violation, None, "{what}: structural audit failed mid-serve");
        // Shard writers freeze only when a flush asks, at most once each.
        assert!(
            stats.freezes <= flushes * shards as u64,
            "{what}: {} freezes over {flushes} flushes",
            stats.freezes
        );
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect::<Vec<Observation>>()
    });

    let (stats, sc) = service.shutdown();
    assert_eq!(stats.applied, stats.routed, "{what}: routed ops are never dropped");
    sc.audit().expect("final sharded closure audits");
    sc.verify().expect("final sharded closure verifies");

    // Sanity: readers must have caught more than just the initial and final
    // views, or the test is not exercising concurrency at all.
    let distinct: std::collections::BTreeSet<u64> =
        observations.iter().map(|o| o.applied_seq).collect();
    assert!(distinct.len() >= 2, "{what}: readers observed only {distinct:?} prefixes");

    check_observations(&what, config, &ops, &outcomes, observations);
}

#[test]
fn snapshot_readers_only_ever_see_submission_prefixes() {
    let readers = reader_threads();
    for shards in [1, 2] {
        for seed in 0..SEEDS {
            stress_one_seed(seed, shards, readers);
        }
    }
}
