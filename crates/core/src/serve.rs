//! Serving primitives: the update vocabulary, the frozen snapshot a reader
//! probes, and the per-shard writer behind
//! [`ShardedService`](crate::ShardedService).
//!
//! The paper's premise is that a compressed closure is *served*, not
//! recomputed — "compression is a one-time activity, and once the
//! compressed closure has been obtained, it can be repeatedly used" (§3.2)
//! — and §4's incremental updates exist so the structure stays online while
//! the relation churns (DESIGN.md, "Concurrent serving"):
//!
//! * A [`ServiceSnapshot`] is one immutable frozen plane, resident or
//!   paged, shared behind an `Arc`. Its probes take no lock and allocate
//!   nothing beyond their own result.
//! * `ClosureService` is one shard's writer: a background thread owning
//!   the mutable closure. Submitted [`ServiceOp`]s queue up FIFO; each
//!   round drains the whole queue and applies it with the §4 update
//!   routines. The writer freezes a fresh snapshot only on demand: when a
//!   flush has asked for one and the queue is drained, or on close while
//!   it still holds unfrozen ops. A burst of writes between two publishes
//!   therefore costs one freeze, not one per round.
//!
//! A writer publishes nothing to readers on its own. Readers see only what
//! [`ShardedService::flush`](crate::ShardedService::flush) publishes: it
//! asks every shard writer to freeze what it has applied, waits for those
//! snapshots, and swaps them in together as one view stamped with the
//! prefix of submitted ops it reflects. Every answer a reader can observe
//! is therefore the truth of *some* prefix of the submission order — the
//! invariant the snapshot-consistency stress test checks against a DFS
//! oracle — and writes submitted after the last flush stay invisible.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tc_graph::NodeId;

use crate::paged::Frozen;
use crate::updates::UpdateError;
use crate::CompressedClosure;

/// One mutation submitted to the service's write queue — the §4 update
/// vocabulary, minus the arguments the writer derives itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceOp {
    /// Add a node with incoming arcs from `parents` (empty = new root).
    AddNode {
        /// Immediate predecessors of the new node.
        parents: Vec<NodeId>,
    },
    /// Add the arc `src -> dst`.
    AddEdge {
        /// Arc source.
        src: NodeId,
        /// Arc destination.
        dst: NodeId,
    },
    /// Remove the arc `src -> dst`.
    RemoveEdge {
        /// Arc source.
        src: NodeId,
        /// Arc destination.
        dst: NodeId,
    },
    /// Remove `node` and all incident arcs.
    RemoveNode {
        /// The node to remove.
        node: NodeId,
    },
    /// Interpose a refinement node between `child` and its current
    /// immediate predecessors (§4.1). The writer reads the predecessor
    /// list at apply time, so the op stays valid however the queue ahead
    /// of it reshapes the graph.
    Refine {
        /// The node being refined.
        child: NodeId,
    },
    /// Re-label: fresh gaps and reserves, tombstones dropped.
    Relabel,
    /// Rebuild from scratch with a freshly optimized tree cover.
    Rebuild,
}

/// Tuning knobs for a [`ShardedService`](crate::ShardedService)'s shard
/// writers.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Run the O(n + intervals) structural audit on the mutable closure
    /// before every freeze. Defaults to on in debug builds; the first
    /// violation is reported in
    /// [`ShardedStats::audit_violation`](crate::ShardedStats::audit_violation)
    /// (the tainted state is still frozen — the audit is a tripwire, not a
    /// rollback).
    pub audit: bool,
}

/// Whether shard writers audit before each freeze unless told otherwise:
/// on in debug builds only.
const AUDIT_BY_DEFAULT: bool = cfg!(debug_assertions);

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { audit: AUDIT_BY_DEFAULT }
    }
}

impl ServiceConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables the pre-freeze structural audit.
    pub fn audit(mut self, enable: bool) -> Self {
        self.audit = enable;
        self
    }
}

/// Error returned by [`ShardedService::submit`](crate::ShardedService::submit)
/// once the service has been closed: the op was *not* enqueued and will
/// never be applied.
///
/// Every op ever accepted (`Ok(seq)`) is still drained and applied before
/// the writers exit — a submission racing
/// [`ShardedService::close`](crate::ShardedService::close) is therefore
/// either applied or observably rejected here, never silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClosed;

impl fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "service is closed: op rejected, not enqueued")
    }
}

impl std::error::Error for ServiceClosed {}

/// Applies one op to the writer's closure.
fn apply(c: &mut CompressedClosure, op: &ServiceOp) -> Result<(), UpdateError> {
    match op {
        ServiceOp::AddNode { parents } => c.add_node_with_parents(parents).map(|_| ()),
        ServiceOp::AddEdge { src, dst } => c.add_edge(*src, *dst).map(|_| ()),
        ServiceOp::RemoveEdge { src, dst } => c.remove_edge(*src, *dst),
        ServiceOp::RemoveNode { node } => c.remove_node(*node),
        ServiceOp::Refine { child } => {
            if child.index() >= c.node_count() {
                return Err(UpdateError::UnknownNode(*child));
            }
            let parents = c.graph().predecessors(*child).to_vec();
            c.refine_insert(*child, &parents).map(|_| ())
        }
        ServiceOp::Relabel => {
            c.relabel();
            Ok(())
        }
        ServiceOp::Rebuild => {
            c.rebuild();
            Ok(())
        }
    }
}

/// Freezes the writer's closure into a snapshot. A closure configured with
/// [`crate::ClosureConfig::paged`] freezes out-of-core snapshots, so the
/// served plane never has to fit in RAM; an I/O failure falls back to the
/// (bit-identical) resident plane rather than killing the writer.
fn freeze_snapshot(c: &CompressedClosure) -> ServiceSnapshot {
    let plane = Frozen::build(&c.graph, &c.lab, &c.config)
        .unwrap_or_else(|_| Frozen::resident(&c.graph, &c.lab, c.config.hybrid_threshold));
    ServiceSnapshot { plane, nodes: c.node_count() }
}

/// One immutable view of a closure: a frozen plane — resident, or paged
/// out-of-core when the closure was configured with
/// [`crate::ClosureConfig::paged`]. A published
/// [`ShardedView`](crate::ShardedView) holds one per shard.
///
/// Nodes created after the snapshot was cut simply do not exist in it:
/// probes involving them report unreachable / empty rather than panicking.
///
/// ```
/// use tc_graph::{DiGraph, NodeId};
/// use tc_core::serve::ServiceSnapshot;
/// use tc_core::CompressedClosure;
///
/// let g = DiGraph::from_edges([(0, 1), (1, 2)]);
/// let mut closure = CompressedClosure::build(&g).unwrap();
/// let snap = ServiceSnapshot::capture(&closure);
/// closure.add_node_with_parents(&[NodeId(2)]).unwrap();
/// // The snapshot keeps answering from the state it was cut from.
/// assert!(snap.reaches(NodeId(0), NodeId(2)));
/// assert!(!snap.reaches(NodeId(0), NodeId(3)));
/// assert_eq!(snap.successor_count(NodeId(1)), 2);
/// ```
#[derive(Debug)]
pub struct ServiceSnapshot {
    plane: Frozen,
    nodes: usize,
}

impl ServiceSnapshot {
    /// Snapshots a standalone closure outside any service — the fuzzer's
    /// way of pinning "the published view" at a trace point and replaying
    /// queries against it later. A frozen closure is captured by sharing
    /// its plane (an `Arc` clone — no freeze at all); anything else
    /// freezes a resident plane.
    pub fn capture(closure: &CompressedClosure) -> ServiceSnapshot {
        let plane = closure.frozen.clone().unwrap_or_else(|| {
            Frozen::resident(&closure.graph, &closure.lab, closure.config.hybrid_threshold)
        });
        ServiceSnapshot { plane, nodes: closure.node_count() }
    }

    /// Whether this snapshot serves its plane out-of-core.
    pub fn is_paged(&self) -> bool {
        matches!(self.plane, Frozen::Paged(_))
    }

    /// Number of nodes the snapshot knows about.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Whether `src` reaches `dst` (reflexive). Nodes beyond the snapshot
    /// are unreachable. Zero locks, zero allocation.
    #[inline]
    pub fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        src.index() < self.nodes && dst.index() < self.nodes && self.plane.reaches(src, dst)
    }

    /// Answers every pair into a fresh vector; see
    /// [`ServiceSnapshot::reaches_batch_into`] for the allocation-free
    /// form.
    pub fn reaches_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<bool> {
        let mut out = Vec::new();
        self.reaches_batch_into(pairs, &mut out);
        out
    }

    /// Answers every pair into `out` (cleared first), all under one page
    /// session: a paged snapshot takes its pool lock once per batch. With a
    /// caller-reused buffer the whole batch allocates nothing.
    pub fn reaches_batch_into(&self, pairs: &[(NodeId, NodeId)], out: &mut Vec<bool>) {
        self.plane.reaches_batch_below(self.nodes, pairs, out);
    }

    /// All nodes reachable from `node` (including itself), ascending by
    /// postorder number; empty for nodes beyond the snapshot.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        if node.index() >= self.nodes {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.plane.successors_into(node, &mut out);
        out
    }

    /// [`ServiceSnapshot::successors`] into a caller-provided buffer
    /// (cleared first); with a reused buffer the decode allocates nothing.
    pub fn successors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        if node.index() >= self.nodes {
            out.clear();
            return;
        }
        self.plane.successors_into(node, out);
    }

    /// Count of nodes reachable from `node` (including itself).
    pub fn successor_count(&self, node: NodeId) -> usize {
        if node.index() >= self.nodes {
            return 0;
        }
        self.plane.successor_count(node)
    }

    /// All nodes reaching `node` (including itself), ascending by node id:
    /// one reverse traversal over the plane's in-arc segment, O(answer and
    /// its in-arcs).
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.predecessors_into(node, &mut out);
        out
    }

    /// [`ServiceSnapshot::predecessors`] into a caller-provided buffer
    /// (cleared first). Each call allocates an n-bit visited set, as the
    /// mutable closure's walk does.
    pub fn predecessors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        if node.index() >= self.nodes {
            out.clear();
            return;
        }
        self.plane.predecessors_into(node, out);
    }
}

/// One shard writer's progress: its latest frozen snapshot and the
/// counters behind it.
#[derive(Debug, Clone)]
pub(crate) struct WriterState {
    /// Ops reflected in `snapshot`: every op consumed from the queue
    /// (applied or skipped) up to the last freeze. Advances only at a
    /// freeze.
    consumed: u64,
    /// Ops applied to the closure so far, frozen or not.
    pub(crate) applied: u64,
    /// Ops the update routines rejected and skipped so far.
    pub(crate) skipped: u64,
    /// Snapshots frozen since the writer started (the initial one not
    /// counted).
    pub(crate) freezes: u64,
    /// First structural-audit failure observed, if any.
    pub(crate) violation: Option<String>,
    /// The closure as of the last freeze: the first `consumed` ops.
    pub(crate) snapshot: Arc<ServiceSnapshot>,
}

/// Writer-side queue: ops waiting to be applied, how many were ever
/// submitted, the freeze request, and the shutdown latch.
struct QueueState {
    ops: VecDeque<ServiceOp>,
    submitted: u64,
    /// The highest `submitted` count a flush has asked to see frozen.
    wanted: u64,
    closed: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Signals the writer that ops arrived, a freeze was asked for, or
    /// shutdown was requested.
    work: Condvar,
    state: Mutex<WriterState>,
    /// Signals flushers that `WriterState::consumed` advanced.
    drained: Condvar,
}

/// One shard's writer: a background thread that owns the mutable closure,
/// drains its op queue in rounds, and freezes a fresh snapshot when
/// [`ShardedService::flush`](crate::ShardedService::flush) asks for one to
/// publish.
pub(crate) struct ClosureService {
    shared: Arc<Shared>,
    writer: Option<JoinHandle<CompressedClosure>>,
}

impl ClosureService {
    /// Starts the writer. The initial snapshot is frozen synchronously, so
    /// there is always one to publish.
    pub(crate) fn start(closure: CompressedClosure, config: ServiceConfig) -> ClosureService {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                ops: VecDeque::new(),
                submitted: 0,
                wanted: 0,
                closed: false,
            }),
            work: Condvar::new(),
            state: Mutex::new(WriterState {
                consumed: 0,
                applied: 0,
                skipped: 0,
                freezes: 0,
                violation: None,
                snapshot: Arc::new(freeze_snapshot(&closure)),
            }),
            drained: Condvar::new(),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tc-serve-writer".into())
                .spawn(move || writer_loop(shared, closure, config))
                .expect("spawn service writer thread")
        };
        ClosureService { shared, writer: Some(writer) }
    }

    /// Enqueues one op without waiting for the writer. Once the writer is
    /// [closed](ClosureService::close), returns [`ServiceClosed`] instead:
    /// an accepted op is always consumed before the writer exits.
    pub(crate) fn submit(&self, op: ServiceOp) -> Result<(), ServiceClosed> {
        {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            if q.closed {
                return Err(ServiceClosed);
            }
            q.ops.push_back(op);
            q.submitted += 1;
        }
        self.shared.work.notify_one();
        Ok(())
    }

    /// Closes the queue: later submits fail, everything accepted before is
    /// still drained. Idempotent.
    pub(crate) fn close(&self) {
        self.shared.queue.lock().expect("queue poisoned").closed = true;
        self.shared.work.notify_all();
    }

    /// Asks the writer to freeze every op submitted so far, without
    /// waiting; returns the count to pass to
    /// [`ClosureService::wait_frozen`]. If nothing was submitted since the
    /// last request the writer is not woken, and a writer with nothing
    /// unfrozen freezes nothing.
    pub(crate) fn request_freeze(&self) -> u64 {
        let (target, wake) = {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            let wake = q.wanted < q.submitted;
            q.wanted = q.submitted;
            (q.submitted, wake)
        };
        if wake {
            self.shared.work.notify_one();
        }
        target
    }

    /// Blocks until the writer's snapshot reflects the first `target`
    /// submitted ops, then returns its state.
    pub(crate) fn wait_frozen(&self, target: u64) -> WriterState {
        let mut st = self.shared.state.lock().expect("writer state poisoned");
        while st.consumed < target {
            st = self.shared.drained.wait(st).expect("writer state poisoned");
        }
        st.clone()
    }

    /// The writer's current state (non-blocking).
    pub(crate) fn state(&self) -> WriterState {
        self.shared.state.lock().expect("writer state poisoned").clone()
    }

    /// Drains the queue, stops the writer, and hands the mutable closure
    /// back.
    pub(crate) fn shutdown(mut self) -> CompressedClosure {
        self.close();
        self.writer
            .take()
            .expect("writer joined twice")
            .join()
            .expect("service writer panicked")
    }
}

impl Drop for ClosureService {
    fn drop(&mut self) {
        if let Some(handle) = self.writer.take() {
            if let Ok(mut q) = self.shared.queue.lock() {
                q.closed = true;
            }
            self.shared.work.notify_all();
            let _ = handle.join();
        }
    }
}

/// The writer thread. Each round drains the queue and applies it; the
/// closure is frozen only when a flush has asked for it and the queue is
/// drained, or on close while applied ops are still unfrozen. Under
/// [`ShardedService::flush`](crate::ShardedService::flush) the front-end
/// lock keeps new ops out between the request and the freeze, so the
/// snapshot is exactly the requested prefix.
fn writer_loop(
    shared: Arc<Shared>,
    mut closure: CompressedClosure,
    config: ServiceConfig,
) -> CompressedClosure {
    let mut batch: Vec<ServiceOp> = Vec::new();
    // Ops consumed from the queue, and how many of them the last freeze
    // reflects.
    let (mut seen, mut frozen) = (0u64, 0u64);
    loop {
        {
            let mut q = shared.queue.lock().expect("queue poisoned");
            while q.ops.is_empty() && !q.closed && q.wanted <= frozen {
                q = shared.work.wait(q).expect("queue poisoned");
            }
            batch.extend(q.ops.drain(..));
        }
        if !batch.is_empty() {
            let (mut applied, mut skipped) = (0u64, 0u64);
            // A rejected op (unknown node, cycle, exhausted reserve, ...)
            // is counted and skipped; the state stays a pure function of
            // the submission order either way.
            for op in batch.drain(..) {
                match apply(&mut closure, &op) {
                    Ok(()) => applied += 1,
                    Err(_) => skipped += 1,
                }
            }
            seen += applied + skipped;
            let mut st = shared.state.lock().expect("writer state poisoned");
            st.applied += applied;
            st.skipped += skipped;
        }
        let (freeze, exit) = {
            let q = shared.queue.lock().expect("queue poisoned");
            let drained = q.ops.is_empty();
            (drained && seen > frozen && (q.wanted > frozen || q.closed), drained && q.closed)
        };
        if freeze {
            let violation = if config.audit { closure.audit().err() } else { None };
            let snapshot = Arc::new(freeze_snapshot(&closure));
            frozen = seen;
            let retired = {
                let mut st = shared.state.lock().expect("writer state poisoned");
                st.consumed = seen;
                st.freezes += 1;
                if st.violation.is_none() {
                    st.violation = violation;
                }
                std::mem::replace(&mut st.snapshot, snapshot)
            };
            // The retired snapshot is freed outside the lock, unless a
            // published view still holds it.
            drop(retired);
            shared.drained.notify_all();
        }
        if exit {
            break;
        }
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardedClosure, ShardedService};
    use crate::ClosureConfig;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use tc_graph::{generators, DiGraph};

    fn dag(nodes: usize, seed: u64) -> DiGraph {
        generators::random_dag(generators::RandomDagConfig {
            nodes,
            avg_out_degree: 2.0,
            seed,
        })
    }

    /// An audited service over `g` with `shards` shards built from `config`.
    fn start(config: ClosureConfig, g: &DiGraph, shards: usize) -> ShardedService {
        let sc = ShardedClosure::build(config, g, shards).unwrap();
        ShardedService::start(sc, ServiceConfig::new().audit(true))
    }

    /// Composed sets come back ascending by id; the flat closure's
    /// successors come back in postorder.
    fn sorted(mut v: Vec<NodeId>) -> Vec<NodeId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn snapshot_answers_match_the_closure() {
        let g = dag(60, 3);
        let oracle = CompressedClosure::build(&g).unwrap();
        let service = start(ClosureConfig::new(), &g, 1);
        let mut reader = service.reader();
        for u in g.nodes() {
            assert_eq!(reader.successors(u), sorted(oracle.successors(u)), "successors({u:?})");
            assert_eq!(reader.predecessors(u), oracle.predecessors(u), "predecessors({u:?})");
            for v in g.nodes().step_by(7) {
                assert_eq!(reader.reaches(u, v), oracle.reaches(u, v), "reaches({u:?},{v:?})");
            }
        }
        let (stats, sc) = service.shutdown();
        assert_eq!(stats.publishes, 1, "no writes, no republishing");
        assert_eq!(stats.audit_violation, None);
        sc.verify().unwrap();
    }

    #[test]
    fn writes_apply_in_order_and_publish() {
        let g = DiGraph::from_edges([(0, 1), (1, 2)]);
        let service = start(ClosureConfig::new(), &g, 1);
        let mut reader = service.reader();
        assert!(!reader.reaches(NodeId(0), NodeId(3)));

        let s1 = service.submit(ServiceOp::AddNode { parents: vec![NodeId(2)] }).unwrap();
        let s2 = service.submit(ServiceOp::AddEdge { src: NodeId(3), dst: NodeId(0) }).unwrap(); // cycle
        let s3 = service.submit(ServiceOp::RemoveEdge { src: NodeId(0), dst: NodeId(9) }).unwrap(); // no such
        assert_eq!((s1, s2, s3), (1, 2, 3));
        let stats = service.flush();
        assert_eq!((stats.submitted, stats.rejected, stats.routed), (3, 2, 1));
        assert_eq!((stats.applied, stats.skipped), (1, 0));
        assert_eq!(stats.audit_violation, None);

        assert!(reader.reaches(NodeId(0), NodeId(3)));
        let view = reader.snapshot();
        assert_eq!(view.applied_seq(), 3);
        assert_eq!(view.node_count(), 4);
        assert_eq!(reader.staleness(), 0);

        let (_, sc) = service.shutdown();
        sc.verify().unwrap();
        assert_eq!(sc.node_count(), 4);
    }

    #[test]
    fn submit_racing_close_is_applied_or_rejected_never_lost() {
        // The shard writer on its own: everything it accepted is drained
        // before it exits, everything it refused never touched the queue.
        let g = DiGraph::from_edges([(0, 1)]);
        let closure = CompressedClosure::build(&g).unwrap();
        let writer = ClosureService::start(closure, ServiceConfig::new().audit(true));
        let accepted = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        match writer.submit(ServiceOp::AddNode { parents: vec![NodeId(1)] }) {
                            Ok(()) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServiceClosed) => break,
                        }
                        std::thread::yield_now();
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            writer.close();
        });
        let ok = accepted.load(Ordering::Relaxed);
        writer.close(); // idempotent
        assert_eq!(writer.submit(ServiceOp::Relabel), Err(ServiceClosed));
        let state = writer.wait_frozen(writer.request_freeze());
        assert_eq!(state.consumed, ok, "accepted ops are never dropped");
        assert_eq!(state.freezes, u64::from(ok > 0), "close froze the unfrozen ops once");
        assert_eq!((state.applied, state.skipped), (ok, 0));
        assert_eq!(state.violation, None);
        assert_eq!(state.snapshot.node_count() as u64, 2 + ok);
        let closure = writer.shutdown();
        closure.verify().unwrap();
        assert_eq!(closure.node_count() as u64, 2 + ok);
    }

    #[test]
    fn pinned_snapshots_survive_later_writes() {
        let g = DiGraph::from_edges([(0, 1)]);
        let service = start(ClosureConfig::new(), &g, 1);
        let mut reader = service.reader();
        let old = reader.snapshot();
        for _ in 0..10 {
            service.submit(ServiceOp::AddNode { parents: vec![NodeId(0)] }).unwrap();
        }
        service.flush();
        // The pinned view still answers from its original prefix.
        assert_eq!((old.applied_seq(), old.node_count()), (0, 2));
        assert!(!old.reaches(NodeId(0), NodeId(5)));
        // A refreshed probe sees the new nodes.
        assert!(reader.reaches(NodeId(0), NodeId(5)));
        assert_eq!(reader.snapshot().node_count(), 12);
    }

    #[test]
    fn refine_and_structural_ops_flow_through() {
        let g = DiGraph::from_edges([(0, 2), (1, 2), (2, 3)]);
        let service = start(ClosureConfig::new().gap(32).reserve(4), &g, 1);
        service.submit(ServiceOp::Refine { child: NodeId(2) }).unwrap();
        service.submit(ServiceOp::Relabel).unwrap();
        service.submit(ServiceOp::RemoveNode { node: NodeId(0) }).unwrap();
        service.submit(ServiceOp::Rebuild).unwrap();
        let stats = service.flush();
        assert_eq!(stats.rejected, 0);
        assert_eq!((stats.applied, stats.skipped), (stats.routed, 0));
        assert_eq!(stats.audit_violation, None);
        let mut reader = service.reader();
        // The refinement node (id 4) still reaches 2 and 3 after all that.
        assert!(reader.reaches(NodeId(4), NodeId(3)));
        assert!(!reader.reaches(NodeId(0), NodeId(2)), "node 0 removed");
        let (_, sc) = service.shutdown();
        sc.verify().unwrap();
    }

    #[test]
    fn paged_backend_publishes_out_of_core_snapshots() {
        let g = dag(60, 5);
        // Pool of 2 frames: almost every probe faults pages in, so the
        // paged path is genuinely exercised, not just resident-cached.
        let service = start(ClosureConfig::new().paged(2), &g, 2);
        let oracle = CompressedClosure::build(&g).unwrap();
        let mut reader = service.reader();
        let paged = |view: &crate::ShardedView| view.shards.iter().all(|s| s.is_paged());
        assert!(paged(&reader.snapshot()), "initial shard snapshots must be paged");
        for u in g.nodes() {
            assert_eq!(reader.successors(u), sorted(oracle.successors(u)), "successors({u:?})");
            assert_eq!(reader.predecessors(u), oracle.predecessors(u), "predecessors({u:?})");
            for v in g.nodes().step_by(9) {
                assert_eq!(reader.reaches(u, v), oracle.reaches(u, v), "reaches({u:?},{v:?})");
            }
        }
        // Writes republish fresh paged snapshots.
        service.submit(ServiceOp::AddNode { parents: vec![NodeId(0)] }).unwrap();
        let stats = service.flush();
        assert_eq!((stats.applied, stats.skipped), (1, 0));
        assert_eq!(stats.audit_violation, None);
        let view = reader.snapshot();
        assert!(paged(&view), "republished shard snapshots must stay paged");
        assert!(view.reaches(NodeId(0), NodeId(60)));
        let (_, sc) = service.shutdown();
        sc.verify().unwrap();
    }

    #[test]
    fn capture_pins_a_frozen_paged_plane_without_refreezing() {
        let g = dag(40, 11);
        let mut closure = ClosureConfig::new().paged(4).build(&g).unwrap();
        closure.freeze();
        let snap = ServiceSnapshot::capture(&closure);
        assert!(snap.is_paged());
        let oracle = CompressedClosure::build(&g).unwrap();
        for u in g.nodes() {
            assert_eq!(snap.successors(u), oracle.successors(u), "successors({u:?})");
        }
    }

    #[test]
    fn concurrent_readers_and_writer_stay_consistent() {
        // A smoke-scale version of the full stress test in tests/: the
        // writer grows a chain, flushing every 4 ops, while readers check
        // each pinned view against the prefix it is stamped with.
        let g = DiGraph::from_edges([(0, 1)]);
        let service = start(ClosureConfig::new(), &g, 1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut reader = service.reader();
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let view = reader.snapshot();
                        let n = view.node_count() as u32;
                        assert_eq!(u64::from(n), 2 + view.applied_seq(), "one node per op");
                        for v in 0..n.min(16) {
                            assert!(view.reaches(NodeId(v), NodeId(v)), "reflexivity");
                        }
                        assert!(view.reaches(NodeId(0), NodeId(n - 1)), "chain tip reachable");
                    }
                });
            }
            let mut tip = NodeId(1);
            for i in 0..64 {
                let seq = service.submit(ServiceOp::AddNode { parents: vec![tip] }).unwrap();
                tip = NodeId(2 + i);
                assert_eq!(seq, u64::from(i + 1));
                if seq % 4 == 0 {
                    service.flush();
                }
            }
            let stats = service.flush();
            assert_eq!((stats.submitted, stats.applied), (64, 64));
            assert_eq!(stats.audit_violation, None);
            stop.store(true, Ordering::Relaxed);
        });
        let mut reader = service.reader();
        assert!(reader.reaches(NodeId(0), NodeId(65)));
        let (_, sc) = service.shutdown();
        sc.verify().unwrap();
    }
}
