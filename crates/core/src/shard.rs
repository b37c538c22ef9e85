//! Sharded closure: partition the DAG, scatter-gather queries, per-shard
//! writers, one published view.
//!
//! One writer thread freezing one monolithic
//! [`QueryPlane`](crate::QueryPlane) per publish is the throughput ceiling
//! ROADMAP item 3 measured. This module splits the closure into
//! independent pieces, in the spirit of DAG decomposition reachability
//! oracles (Kritikakis–Tollis; Jin's separate small index for the
//! cross-piece arcs):
//!
//! * [`topo::partition`] splits the node set by
//!   weakly connected component, with a level-cut fallback when one
//!   component dominates. Each shard gets its own [`CompressedClosure`]
//!   over the intra-shard arcs only.
//! * The few arcs that cross shards are kept in a **boundary closure**: the
//!   transitive closure of the tiny graph whose vertices are the cross-arc
//!   endpoints and whose arcs are the cross arcs plus the intra-shard
//!   reachability between same-shard endpoints. `reaches(src, dst)` then
//!   composes as *intra-shard probe* ∨ (*src → boundary exit* ∧ *boundary
//!   hop* ∧ *boundary entry → dst*).
//! * [`ShardedClosure`] is the partitioned value: routing tables, one
//!   closure per shard, the cross arcs, the whole-graph mirror and the
//!   boundary closure, with exact composed reads, `audit` and `verify`.
//!   [`ShardedClosure::build`] produces it and [`ShardedService::shutdown`]
//!   hands it back; it has no update methods of its own.
//! * [`ShardedService`] is the one write path for the §4 update
//!   vocabulary: one background writer per shard, and a front end that
//!   validates ops against an authoritative mirror (so the shard writers
//!   never skip and never diverge from the routing tables). Refinement is
//!   always the generic insert (new node under the child's parents, plus
//!   an arc into the child), which answers like §4.1's because refinement
//!   keeps the parent→child arcs.
//! * [`ShardedService::flush`] is the only publish point. It asks every
//!   shard writer to freeze what it has applied (a writer freezes only
//!   when asked, or on close) and publishes one [`ShardedView`]: the
//!   routing and boundary, every shard's fresh snapshot, and the count of
//!   front-end ops it reflects. A view is one global prefix of the
//!   submission order, so composed answers never mix prefixes; ops
//!   submitted after the last flush stay invisible.
//!
//! [`ShardedReader`] pins the current view with one atomic epoch load (an
//! `Arc` clone only when the epoch moved) and scatter-gathers batch
//! probes: pairs are grouped by shard and answered through the zero-alloc
//! [`ServiceSnapshot::reaches_batch_into`] path, then the leftovers take
//! the boundary route.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tc_graph::topo::{self, CycleError, Partition};
use tc_graph::{traverse, BitSet, DiGraph, NodeId};

use crate::serve::{
    ClosureService, ServiceClosed, ServiceConfig, ServiceOp, ServiceSnapshot, WriterState,
};
use crate::{ClosureConfig, CompressedClosure};

/// Global↔local id translation for a fixed shard assignment. Global ids
/// are dense (`0..node_count`); each shard's local ids are dense too, in
/// ascending global order, so new nodes append on both sides.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Routing {
    /// Global id → owning shard.
    shard_of: Vec<u32>,
    /// Global id → local id within the owning shard.
    local_of: Vec<u32>,
    /// Shard → local id → global id.
    global_of: Vec<Vec<NodeId>>,
}

impl Routing {
    fn from_partition(part: &Partition) -> Routing {
        let n = part.node_count();
        let shards = part.shards();
        let mut shard_of = vec![0u32; n];
        let mut local_of = vec![0u32; n];
        let mut global_of = vec![Vec::new(); shards];
        for g in 0..n {
            let v = NodeId(g as u32);
            let s = part.shard_of(v);
            shard_of[g] = s as u32;
            local_of[g] = global_of[s].len() as u32;
            global_of[s].push(v);
        }
        Routing { shard_of, local_of, global_of }
    }

    #[inline]
    fn node_count(&self) -> usize {
        self.shard_of.len()
    }

    #[inline]
    fn shards(&self) -> usize {
        self.global_of.len()
    }

    #[inline]
    fn shard(&self, g: NodeId) -> usize {
        self.shard_of[g.index()] as usize
    }

    #[inline]
    fn local(&self, g: NodeId) -> NodeId {
        NodeId(self.local_of[g.index()])
    }

    #[inline]
    fn global(&self, shard: usize, local: NodeId) -> NodeId {
        self.global_of[shard][local.index()]
    }

    /// Appends a fresh global id to `shard`; returns `(global, local)`.
    fn push_node(&mut self, shard: usize) -> (NodeId, NodeId) {
        let g = NodeId(self.shard_of.len() as u32);
        let l = NodeId(self.global_of[shard].len() as u32);
        self.shard_of.push(shard as u32);
        self.local_of.push(l.0);
        self.global_of[shard].push(g);
        (g, l)
    }

    /// The least-populated shard (ties break to the lowest index) — where
    /// parentless nodes land.
    fn smallest_shard(&self) -> usize {
        (0..self.shards())
            .min_by_key(|&s| (self.global_of[s].len(), s))
            .unwrap_or(0)
    }
}

/// The boundary closure: cross-arc endpoints, and the transitive closure
/// of (cross arcs ∪ intra-shard reachability between same-shard
/// endpoints). Tiny by construction — the partitioner minimizes cross
/// arcs — and rebuilt from scratch whenever it could have changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Boundary {
    /// Boundary nodes as *global* ids, ascending.
    nodes: Vec<NodeId>,
    /// Shard → indices into `nodes` of the boundary nodes it hosts.
    by_shard: Vec<Vec<u32>>,
    /// Reflexive closure rows of the boundary graph, indexed like `nodes`.
    rows: Vec<BitSet>,
}

impl Boundary {
    #[inline]
    fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rebuilds the boundary closure from the cross-arc list. `intra(s, a,
    /// b)` must answer intra-shard reachability between *local* ids `a`
    /// and `b` of shard `s`.
    fn rebuild<F: FnMut(usize, NodeId, NodeId) -> bool>(
        cross: &[(NodeId, NodeId)],
        routing: &Routing,
        mut intra: F,
    ) -> Boundary {
        let mut by_shard = vec![Vec::new(); routing.shards()];
        if cross.is_empty() {
            return Boundary { nodes: Vec::new(), by_shard, rows: Vec::new() };
        }
        let mut nodes: Vec<NodeId> = cross.iter().flat_map(|&(u, v)| [u, v]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for (i, &v) in nodes.iter().enumerate() {
            by_shard[routing.shard(v)].push(i as u32);
        }
        let mut bg = DiGraph::with_nodes(nodes.len());
        for &(u, v) in cross {
            let ui = nodes.binary_search(&u).expect("cross endpoint indexed");
            let vi = nodes.binary_search(&v).expect("cross endpoint indexed");
            bg.add_edge(NodeId(ui as u32), NodeId(vi as u32));
        }
        // Same-shard boundary pairs inherit the shard's own reachability.
        for (s, members) in by_shard.iter().enumerate() {
            for &i in members {
                for &j in members {
                    if i != j
                        && intra(
                            s,
                            routing.local(nodes[i as usize]),
                            routing.local(nodes[j as usize]),
                        )
                    {
                        bg.add_edge(NodeId(i), NodeId(j));
                    }
                }
            }
        }
        let rows = traverse::closure_rows(&bg);
        Boundary { nodes, by_shard, rows }
    }

    /// Whether `src` reaches `dst` through the boundary: an intra hop from
    /// `src` to a boundary node of its shard, a (possibly empty) boundary
    /// walk, and an intra hop from a boundary node of `dst`'s shard to
    /// `dst`. Covers cross-shard pairs *and* same-shard pairs whose only
    /// path leaves the shard and comes back.
    fn route<F: FnMut(usize, NodeId, NodeId) -> bool>(
        &self,
        routing: &Routing,
        src: NodeId,
        dst: NodeId,
        mut intra: F,
    ) -> bool {
        if self.is_empty() {
            return false;
        }
        let (ss, sd) = (routing.shard(src), routing.shard(dst));
        let (ls, ld) = (routing.local(src), routing.local(dst));
        for &bi in &self.by_shard[ss] {
            if !intra(ss, ls, routing.local(self.nodes[bi as usize])) {
                continue;
            }
            for &bj in &self.by_shard[sd] {
                if self.rows[bi as usize].contains(bj as usize)
                    && intra(sd, routing.local(self.nodes[bj as usize]), ld)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Boundary indices reachable from `src` (through one intra hop plus
    /// the boundary walk); rows are reflexive, so a boundary node `src`
    /// itself reaches is included.
    fn reachable_from<F: FnMut(usize, NodeId, NodeId) -> bool>(
        &self,
        routing: &Routing,
        src: NodeId,
        mut intra: F,
    ) -> BitSet {
        let mut out = BitSet::new(self.nodes.len());
        if self.is_empty() {
            return out;
        }
        let ss = routing.shard(src);
        let ls = routing.local(src);
        for &bi in &self.by_shard[ss] {
            if intra(ss, ls, routing.local(self.nodes[bi as usize])) {
                out.union_with(&self.rows[bi as usize]);
            }
        }
        out
    }

    /// Boundary indices that reach `dst` (boundary walk plus one intra hop
    /// into `dst`'s shard).
    fn reaching_to<F: FnMut(usize, NodeId, NodeId) -> bool>(
        &self,
        routing: &Routing,
        dst: NodeId,
        mut intra: F,
    ) -> BitSet {
        let mut hits = BitSet::new(self.nodes.len());
        if self.is_empty() {
            return hits;
        }
        let sd = routing.shard(dst);
        let ld = routing.local(dst);
        for &bj in &self.by_shard[sd] {
            if intra(sd, routing.local(self.nodes[bj as usize]), ld) {
                hits.insert(bj as usize);
            }
        }
        let mut out = BitSet::new(self.nodes.len());
        if hits.is_empty() {
            return out;
        }
        for (bi, row) in self.rows.iter().enumerate() {
            if row.intersects(&hits) {
                out.insert(bi);
            }
        }
        out
    }
}

/// Read access to one shard: a mutable closure inside a
/// [`ShardedClosure`], or a frozen snapshot inside a [`ShardedView`].
trait ShardRead {
    fn reaches(&self, src: NodeId, dst: NodeId) -> bool;
    /// Successors (`forward`) or predecessors of `node` into `out`.
    fn closure_into(&self, node: NodeId, forward: bool, out: &mut Vec<NodeId>);
}

impl ShardRead for CompressedClosure {
    fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        CompressedClosure::reaches(self, src, dst)
    }

    fn closure_into(&self, node: NodeId, forward: bool, out: &mut Vec<NodeId>) {
        if forward {
            self.successors_into(node, out);
        } else {
            *out = self.predecessors(node);
        }
    }
}

impl ShardRead for Arc<ServiceSnapshot> {
    fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        ServiceSnapshot::reaches(self, src, dst)
    }

    fn closure_into(&self, node: NodeId, forward: bool, out: &mut Vec<NodeId>) {
        if forward {
            self.successors_into(node, out);
        } else {
            self.predecessors_into(node, out);
        }
    }
}

/// Composed reads over one consistent routing, boundary and shard set —
/// the one implementation behind [`ShardedClosure`]'s and
/// [`ShardedView`]'s queries.
struct Composed<'a, S> {
    routing: &'a Routing,
    boundary: &'a Boundary,
    shards: &'a [S],
}

impl<S: ShardRead> Composed<'_, S> {
    /// Whether `src` reaches `dst` (reflexive): intra-shard probe first,
    /// then the boundary route. Out-of-range ids are unreachable.
    fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        let (routing, shards) = (self.routing, self.shards);
        let n = routing.node_count();
        if src.index() >= n || dst.index() >= n {
            return false;
        }
        let (ss, sd) = (routing.shard(src), routing.shard(dst));
        if ss == sd && shards[ss].reaches(routing.local(src), routing.local(dst)) {
            return true;
        }
        self.boundary.route(routing, src, dst, |s, a, b| shards[s].reaches(a, b))
    }

    /// All nodes `node` reaches (`forward`) or that reach it, including
    /// itself, ascending by global id, into `out` (cleared first). `seen`
    /// is decode scratch.
    fn closure_into(
        &self,
        node: NodeId,
        forward: bool,
        out: &mut Vec<NodeId>,
        seen: &mut Vec<NodeId>,
    ) {
        let (routing, shards) = (self.routing, self.shards);
        out.clear();
        if node.index() >= routing.node_count() {
            return;
        }
        let mut decode = |g: NodeId, out: &mut Vec<NodeId>| {
            let s = routing.shard(g);
            shards[s].closure_into(routing.local(g), forward, seen);
            out.extend(seen.iter().map(|&l| routing.global(s, l)));
        };
        decode(node, out);
        if !self.boundary.is_empty() {
            let intra = |s: usize, a, b| shards[s].reaches(a, b);
            let hops = if forward {
                self.boundary.reachable_from(routing, node, intra)
            } else {
                self.boundary.reaching_to(routing, node, intra)
            };
            for j in hops.iter() {
                decode(self.boundary.nodes[j], out);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    fn closure(&self, node: NodeId, forward: bool) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.closure_into(node, forward, &mut out, &mut Vec::new());
        out
    }
}

/// A partitioned closure: one [`CompressedClosure`] per shard over the
/// intra-shard arcs, the cross-arc list, the whole-graph mirror, and the
/// boundary closure. [`ShardedClosure::build`] produces it and
/// [`ShardedService::shutdown`] returns it; in between, every update goes
/// through the service. The value itself is read-only: composed reads,
/// [`ShardedClosure::audit`] and [`ShardedClosure::verify`].
///
/// ```
/// use tc_graph::{DiGraph, NodeId};
/// use tc_core::serve::{ServiceConfig, ServiceOp};
/// use tc_core::shard::{ShardedClosure, ShardedService};
/// use tc_core::ClosureConfig;
///
/// // Two weakly connected components land on different shards.
/// let g = DiGraph::from_edges([(0, 1), (1, 2), (3, 4)]);
/// let sc = ShardedClosure::build(ClosureConfig::new(), &g, 2).unwrap();
/// assert_eq!(sc.shard_count(), 2);
/// assert!(sc.reaches(NodeId(0), NodeId(2)));
/// assert!(!sc.reaches(NodeId(0), NodeId(4)));
/// // A cross-shard arc goes through the service and the boundary closure.
/// let service = ShardedService::start(sc, ServiceConfig::new());
/// service.submit(ServiceOp::AddEdge { src: NodeId(2), dst: NodeId(3) }).unwrap();
/// let (_, sc) = service.shutdown();
/// assert!(sc.reaches(NodeId(0), NodeId(4)));
/// assert_eq!(sc.cross_arc_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedClosure {
    routing: Routing,
    shards: Vec<CompressedClosure>,
    /// Cross-shard arcs by *global* id, unordered.
    cross: Vec<(NodeId, NodeId)>,
    /// The whole graph, authoritative for validation and verification.
    mirror: DiGraph,
    boundary: Boundary,
    config: ClosureConfig,
}

fn boundary_over(
    shards: &[CompressedClosure],
    cross: &[(NodeId, NodeId)],
    routing: &Routing,
) -> Boundary {
    Boundary::rebuild(cross, routing, |s, a, b| shards[s].reaches(a, b))
}

impl ShardedClosure {
    /// Partitions `g` into (at most) `shards` pieces and builds one
    /// compressed closure per piece plus the boundary closure over the
    /// cross arcs. Rejects cyclic graphs like [`CompressedClosure::build`].
    pub fn build(
        config: ClosureConfig,
        g: &DiGraph,
        shards: usize,
    ) -> Result<ShardedClosure, CycleError> {
        let part = topo::partition(g, shards)?;
        let mut routing = Routing::from_partition(&part);
        // `partition` caps the shard count at the number of pieces it found;
        // pad with empty shards so a small (or empty) graph can still grow
        // into the requested count — parentless inserts land on the
        // least-populated shard and fill the empties first.
        while routing.global_of.len() < shards.max(1) {
            routing.global_of.push(Vec::new());
        }
        let mut locals: Vec<DiGraph> = routing
            .global_of
            .iter()
            .map(|members| DiGraph::with_nodes(members.len()))
            .collect();
        let mut cross = Vec::new();
        for (u, v) in g.edges() {
            let (su, sv) = (routing.shard(u), routing.shard(v));
            if su == sv {
                locals[su].add_edge(routing.local(u), routing.local(v));
            } else {
                cross.push((u, v));
            }
        }
        let closures: Vec<CompressedClosure> = locals
            .iter()
            .map(|lg| config.build(lg))
            .collect::<Result<_, _>>()?;
        let boundary = boundary_over(&closures, &cross, &routing);
        Ok(ShardedClosure {
            routing,
            shards: closures,
            cross,
            mirror: g.clone(),
            boundary,
            config,
        })
    }

    /// Total number of nodes across all shards.
    pub fn node_count(&self) -> usize {
        self.routing.node_count()
    }

    /// Number of shards (fixed at build time).
    pub fn shard_count(&self) -> usize {
        self.routing.shards()
    }

    /// Node count per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.routing.global_of.iter().map(Vec::len).collect()
    }

    /// Number of cross-shard arcs currently tracked.
    pub fn cross_arc_count(&self) -> usize {
        self.cross.len()
    }

    /// Number of boundary nodes (cross-arc endpoints).
    pub fn boundary_size(&self) -> usize {
        self.boundary.nodes.len()
    }

    /// The authoritative whole-graph mirror.
    pub fn graph(&self) -> &DiGraph {
        &self.mirror
    }

    /// The configuration every shard was built with.
    pub fn config(&self) -> &ClosureConfig {
        &self.config
    }

    fn composed(&self) -> Composed<'_, CompressedClosure> {
        Composed { routing: &self.routing, boundary: &self.boundary, shards: &self.shards }
    }

    /// Whether `src` reaches `dst` (reflexive): intra-shard probe first,
    /// then the boundary route. Out-of-range ids are unreachable.
    pub fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        self.composed().reaches(src, dst)
    }

    /// Batch form of [`ShardedClosure::reaches`].
    pub fn reaches_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<bool> {
        pairs.iter().map(|&(s, d)| self.reaches(s, d)).collect()
    }

    /// All nodes reachable from `node` (including itself), ascending by
    /// global id.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        self.composed().closure(node, true)
    }

    /// All nodes that reach `node` (including itself), ascending by global
    /// id.
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        self.composed().closure(node, false)
    }

    /// Structural audit: every shard's own audit, the routing bijection,
    /// the intra/cross edge split against the mirror, and the boundary
    /// closure against a from-scratch rebuild.
    pub fn audit(&self) -> Result<(), String> {
        for (s, c) in self.shards.iter().enumerate() {
            c.audit().map_err(|e| format!("shard {s}: {e}"))?;
        }
        let n = self.routing.node_count();
        if self.mirror.node_count() != n {
            return Err(format!(
                "mirror has {} nodes, routing has {n}",
                self.mirror.node_count()
            ));
        }
        for g in 0..n {
            let v = NodeId(g as u32);
            let s = self.routing.shard(v);
            if s >= self.shards.len() || self.routing.global(s, self.routing.local(v)) != v {
                return Err(format!("routing bijection broken at node {g}"));
            }
        }
        let intra: usize = self.shards.iter().map(|c| c.graph().edge_count()).sum();
        if intra + self.cross.len() != self.mirror.edge_count() {
            return Err(format!(
                "edge split mismatch: {intra} intra + {} cross != {} mirror arcs",
                self.cross.len(),
                self.mirror.edge_count()
            ));
        }
        let fresh = boundary_over(&self.shards, &self.cross, &self.routing);
        if fresh != self.boundary {
            return Err("boundary closure out of date".into());
        }
        Ok(())
    }

    /// Full semantic check: every composed successor set against a DFS
    /// closure of the mirror. O(n·m) — tests and fuzzing only.
    pub fn verify(&self) -> Result<(), String> {
        let rows = traverse::closure_rows(&self.mirror);
        for (u, row) in rows.iter().enumerate() {
            let got: Vec<usize> = self
                .successors(NodeId(u as u32))
                .iter()
                .map(|v| v.index())
                .collect();
            let want: Vec<usize> = row.iter().collect();
            if got != want {
                return Err(format!(
                    "successors({u}): sharded {got:?} != DFS {want:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Aggregated progress counters for a [`ShardedService`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Ops accepted by the front end.
    pub submitted: u64,
    /// Ops the front end validated and dropped (unknown node, cycle, ...)
    /// — the ops a lone §4 writer would have skipped.
    pub rejected: u64,
    /// Per-shard ops enqueued to shard writers (one front-end op can fan
    /// out to several, e.g. a refinement).
    pub routed: u64,
    /// Sum of shard writers' applied ops.
    pub applied: u64,
    /// Sum of shard writers' skipped ops. The front end validates against
    /// an authoritative mirror, so this stays 0 unless something is wrong.
    pub skipped: u64,
    /// Views published (the initial one included).
    pub publishes: u64,
    /// Snapshots frozen by the shard writers since start, summed over
    /// shards. A writer freezes only when a flush asks and it holds
    /// unfrozen ops, or on close, so this never exceeds `publishes` times
    /// the shard count.
    pub freezes: u64,
    /// First structural-audit failure reported by any shard writer.
    pub audit_violation: Option<String>,
}

impl ShardedStats {
    /// Adds one shard writer's counters.
    fn absorb(&mut self, w: &WriterState) {
        self.applied += w.applied;
        self.skipped += w.skipped;
        self.freezes += w.freezes;
        if self.audit_violation.is_none() {
            self.audit_violation.clone_from(&w.violation);
        }
    }
}

/// The front end's synchronous verdict for one submitted op, reported by
/// [`ShardedService::submit_with_outcome`]. Validation and id assignment
/// happen under the front-end lock at submit time, so `Routed` can carry
/// the id of a node the op created before any shard writer has applied it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Validated and routed to the shard writers; `new_node` is the global
    /// id assigned if the op creates a node (`AddNode`, `Refine`).
    Routed {
        /// Id of the node this op created, if any.
        new_node: Option<NodeId>,
    },
    /// Validated and dropped (unknown node, cycle, absent arc, ...);
    /// counted in [`ShardedStats::rejected`].
    Rejected,
    /// A no-op by definition (currently: a duplicate arc) — accepted
    /// without routing anything.
    Noop,
}

/// One published view of a [`ShardedService`]: the routing tables, the
/// boundary closure and every shard's frozen snapshot, all cut at the same
/// [`ShardedService::flush`] and stamped with the number of front-end ops
/// it reflects. Pinned views are immutable and stay valid however far the
/// service moves on.
#[derive(Debug)]
pub struct ShardedView {
    /// Shared with the previous view while no node was added.
    routing: Arc<Routing>,
    /// Shared with the previous view while no flush dirtied it.
    boundary: Arc<Boundary>,
    pub(crate) shards: Vec<Arc<ServiceSnapshot>>,
    applied_seq: u64,
    epoch: u64,
}

impl ShardedView {
    fn composed(&self) -> Composed<'_, Arc<ServiceSnapshot>> {
        Composed { routing: &self.routing, boundary: &self.boundary, shards: &self.shards }
    }

    /// Number of submitted ops this view reflects: it answers exactly as
    /// the relation after the first `applied_seq` front-end ops (rejected
    /// ones included, as no-ops).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Number of nodes the view knows about.
    pub fn node_count(&self) -> usize {
        self.routing.node_count()
    }

    /// Whether `src` reaches `dst` (reflexive); nodes beyond the view are
    /// unreachable.
    pub fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        self.composed().reaches(src, dst)
    }

    /// All nodes reachable from `node` (including itself), ascending by
    /// global id.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        self.composed().closure(node, true)
    }

    /// All nodes that reach `node` (including itself), ascending by global
    /// id.
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        self.composed().closure(node, false)
    }
}

/// The publish point. [`ShardedService::flush`] swaps the slot's `Arc`
/// under the mutex and then bumps the epoch with a `Release` store, so a
/// reader whose `Acquire` load sees epoch *e* finds a view at least that
/// new when it locks the slot.
struct ViewCell {
    epoch: AtomicU64,
    slot: Mutex<Arc<ShardedView>>,
    /// Front-end ops submitted so far, for [`ShardedReader::staleness`].
    submitted: AtomicU64,
}

/// Front-end state: the authoritative mirror the router validates against,
/// plus longest-path-to-sink levels for O(1) admission of the common
/// "edge points down" case.
struct FrontState {
    routing: Routing,
    mirror: DiGraph,
    /// Longest path to a sink per node: every arc `(p, q)` satisfies
    /// `level[p] >= level[q] + 1`, so a path `dst -> .. -> src` forces
    /// `level[dst] > level[src]` — the cheap cycle-admission test.
    level: Vec<usize>,
    cross: Vec<(NodeId, NodeId)>,
    /// Whether the boundary closure must be rebuilt at the next flush.
    dirty: bool,
    /// Set by [`ShardedService::close`]: later submits are rejected with
    /// [`ServiceClosed`] before touching the mirror or any shard writer.
    closed: bool,
    submitted: u64,
    rejected: u64,
    routed: u64,
    /// Generation-stamped DFS visit marks (no clearing between checks).
    visit: Vec<u32>,
    visit_gen: u32,
    stack: Vec<NodeId>,
    queue: Vec<NodeId>,
}

impl FrontState {
    /// Recomputes `level` from successors for each seed, propagating to
    /// predecessors while anything changes (handles both raises on insert
    /// and drops on delete).
    fn recompute_levels_up(&mut self, seeds: &[NodeId]) {
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        queue.extend_from_slice(seeds);
        while let Some(v) = queue.pop() {
            let want = self
                .mirror
                .successors(v)
                .iter()
                .map(|d| self.level[d.index()] + 1)
                .max()
                .unwrap_or(0);
            if self.level[v.index()] != want {
                self.level[v.index()] = want;
                queue.extend_from_slice(self.mirror.predecessors(v));
            }
        }
        self.queue = queue;
    }

    /// Whether adding `src -> dst` would create a cycle, i.e. whether
    /// `dst` already reaches `src`. Levels admit most inserts in O(1);
    /// otherwise a DFS from `dst` pruned to nodes with
    /// `level > level[src]` settles it.
    fn creates_cycle(&mut self, src: NodeId, dst: NodeId) -> bool {
        if self.level[dst.index()] <= self.level[src.index()] {
            return false;
        }
        self.visit_gen = self.visit_gen.wrapping_add(1);
        if self.visit_gen == 0 {
            self.visit.iter_mut().for_each(|v| *v = 0);
            self.visit_gen = 1;
        }
        let gen = self.visit_gen;
        self.stack.clear();
        self.stack.push(dst);
        self.visit[dst.index()] = gen;
        while let Some(v) = self.stack.pop() {
            if v == src {
                return true;
            }
            for &w in self.mirror.successors(v) {
                if self.visit[w.index()] == gen {
                    continue;
                }
                // Only nodes above src's level can sit on a path to src.
                if w != src && self.level[w.index()] <= self.level[src.index()] {
                    continue;
                }
                self.visit[w.index()] = gen;
                self.stack.push(w);
            }
        }
        false
    }

    /// Registers a fresh node on `shard` in the routing tables, mirror,
    /// and level/visit arrays; returns `(global, local)`.
    fn push_node(&mut self, shard: usize) -> (NodeId, NodeId) {
        let (zg, zl) = self.routing.push_node(shard);
        let zm = self.mirror.add_node();
        debug_assert_eq!(zm, zg);
        self.level.push(0);
        self.visit.push(0);
        (zg, zl)
    }
}

/// The sharded serving layer: one background writer per shard, a
/// validating front end, and one [`ShardedView`] published at every
/// [`ShardedService::flush`].
///
/// The front end owns an authoritative mirror, so every op is validated
/// *synchronously* (unknown nodes, self-loops, duplicate arcs, cycles) and
/// either rejected — counted in [`ShardedStats::rejected`] — or routed to
/// the owning shard's writer as ops that cannot fail there. That keeps the
/// routing tables, which the front end extends synchronously, in lockstep
/// with what the writers will eventually apply.
///
/// Consistency: readers see only published views, and each view is the
/// exact state after some prefix of the submitted ops — across all
/// shards at once. Ops submitted after the last flush stay invisible
/// until the next one.
///
/// ```
/// use tc_graph::{DiGraph, NodeId};
/// use tc_core::serve::{ServiceConfig, ServiceOp};
/// use tc_core::shard::{ShardedClosure, ShardedService};
/// use tc_core::ClosureConfig;
///
/// let g = DiGraph::from_edges([(0, 1), (2, 3)]);
/// let sc = ShardedClosure::build(ClosureConfig::new(), &g, 2).unwrap();
/// let service = ShardedService::start(sc, ServiceConfig::new());
/// let mut reader = service.reader();
///
/// // A cross-shard arc: 1 (shard of {0,1}) -> 2 (shard of {2,3}).
/// service.submit(ServiceOp::AddEdge { src: NodeId(1), dst: NodeId(2) }).unwrap();
/// assert!(!reader.reaches(NodeId(0), NodeId(3)), "not published yet");
/// service.flush();
/// assert!(reader.reaches(NodeId(0), NodeId(3)));
/// assert_eq!(reader.snapshot().applied_seq(), 1);
///
/// let (stats, sc) = service.shutdown();
/// assert_eq!(stats.skipped, 0);
/// assert!(sc.audit().is_ok());
/// ```
pub struct ShardedService {
    services: Vec<ClosureService>,
    front: Mutex<FrontState>,
    cell: Arc<ViewCell>,
    config: ClosureConfig,
}

impl ShardedService {
    /// Starts one background writer per shard and publishes the initial
    /// view.
    pub fn start(sharded: ShardedClosure, config: ServiceConfig) -> ShardedService {
        let ShardedClosure { routing, shards, cross, mirror, boundary, config: closure_config } =
            sharded;
        let lv = topo::levels(&mirror).expect("sharded closure mirror is acyclic");
        let n = routing.node_count();
        let level: Vec<usize> = (0..n).map(|i| lv.level_of(NodeId(i as u32))).collect();
        let services: Vec<ClosureService> = shards
            .into_iter()
            .map(|c| ClosureService::start(c, config))
            .collect();
        let view = ShardedView {
            routing: Arc::new(routing.clone()),
            boundary: Arc::new(boundary),
            shards: services.iter().map(|s| s.state().snapshot).collect(),
            applied_seq: 0,
            epoch: 1,
        };
        let cell = Arc::new(ViewCell {
            epoch: AtomicU64::new(1),
            slot: Mutex::new(Arc::new(view)),
            submitted: AtomicU64::new(0),
        });
        let front = Mutex::new(FrontState {
            routing,
            mirror,
            level,
            cross,
            dirty: false,
            closed: false,
            submitted: 0,
            rejected: 0,
            routed: 0,
            visit: vec![0; n],
            visit_gen: 0,
            stack: Vec::new(),
            queue: Vec::new(),
        });
        ShardedService { services, front, cell, config: closure_config }
    }

    /// Validates and routes one op; returns its front-end sequence number.
    /// Invalid ops (the ones a lone §4 writer would skip) are counted in
    /// [`ShardedStats::rejected`] and dropped here, before any writer sees
    /// them. After [`ShardedService::close`] the op is rejected with
    /// [`ServiceClosed`] before touching any state.
    pub fn submit(&self, op: ServiceOp) -> Result<u64, ServiceClosed> {
        self.submit_with_outcome(op).map(|(seq, _)| seq)
    }

    /// [`ShardedService::submit`], but also reports the front end's
    /// synchronous verdict. Because validation and id assignment happen
    /// under the front-end lock *at submit time*, a caller learns the id
    /// of a node created by `AddNode`/`Refine` immediately — the network
    /// dictionary layer binds string keys to exactly these ids.
    pub fn submit_with_outcome(
        &self,
        op: ServiceOp,
    ) -> Result<(u64, SubmitOutcome), ServiceClosed> {
        let mut f = self.front.lock().expect("front state poisoned");
        if f.closed {
            return Err(ServiceClosed);
        }
        f.submitted += 1;
        self.cell.submitted.store(f.submitted, Ordering::Relaxed);
        let seq = f.submitted;
        let outcome = self.route_op(&mut f, op);
        Ok((seq, outcome))
    }

    /// Submits a batch under one front-end lock; returns the last sequence
    /// number (the current one if `ops` is empty). All-or-nothing under a
    /// close race: either the whole batch is validated and routed, or
    /// [`ServiceClosed`] comes back and none of it was.
    pub fn submit_batch(
        &self,
        ops: impl IntoIterator<Item = ServiceOp>,
    ) -> Result<u64, ServiceClosed> {
        let mut f = self.front.lock().expect("front state poisoned");
        if f.closed {
            return Err(ServiceClosed);
        }
        for op in ops {
            f.submitted += 1;
            self.route_op(&mut f, op);
        }
        self.cell.submitted.store(f.submitted, Ordering::Relaxed);
        Ok(f.submitted)
    }

    /// Closes the front end and every shard writer's queue: later submits
    /// return [`ServiceClosed`]; everything accepted before the close is
    /// still applied and published. Taken under the front-end lock, so no
    /// accepted op can observe a closed shard writer. Idempotent.
    pub fn close(&self) {
        let mut f = self.front.lock().expect("front state poisoned");
        f.closed = true;
        for svc in &self.services {
            svc.close();
        }
    }

    fn route_op(&self, f: &mut FrontState, op: ServiceOp) -> SubmitOutcome {
        let n = f.routing.node_count();
        match op {
            ServiceOp::AddNode { parents } => {
                if parents.iter().any(|p| p.index() >= n) {
                    f.rejected += 1;
                    return SubmitOutcome::Rejected;
                }
                let mut uniq: Vec<NodeId> = Vec::with_capacity(parents.len());
                for &p in &parents {
                    if !uniq.contains(&p) {
                        uniq.push(p);
                    }
                }
                let s = uniq
                    .first()
                    .map(|&p| f.routing.shard(p))
                    .unwrap_or_else(|| f.routing.smallest_shard());
                let (zg, _) = f.push_node(s);
                for &p in &uniq {
                    f.mirror.add_edge(p, zg);
                    if f.routing.shard(p) != s {
                        f.cross.push((p, zg));
                        f.dirty = true;
                    }
                }
                f.recompute_levels_up(&uniq);
                let local_parents: Vec<NodeId> = uniq
                    .iter()
                    .filter(|&&p| f.routing.shard(p) == s)
                    .map(|&p| f.routing.local(p))
                    .collect();
                self.services[s]
                    .submit(ServiceOp::AddNode { parents: local_parents })
                    .expect("shard writer closed before front end");
                f.routed += 1;
                SubmitOutcome::Routed { new_node: Some(zg) }
            }
            ServiceOp::AddEdge { src, dst } => {
                if src.index() >= n || dst.index() >= n || src == dst {
                    f.rejected += 1;
                    return SubmitOutcome::Rejected;
                }
                if f.mirror.has_edge(src, dst) {
                    // duplicate: a no-op, matching CompressedClosure::add_edge
                    return SubmitOutcome::Noop;
                }
                if f.creates_cycle(src, dst) {
                    f.rejected += 1;
                    return SubmitOutcome::Rejected;
                }
                f.mirror.add_edge(src, dst);
                f.recompute_levels_up(&[src]);
                let (ss, sd) = (f.routing.shard(src), f.routing.shard(dst));
                if ss == sd {
                    self.services[ss]
                        .submit(ServiceOp::AddEdge {
                            src: f.routing.local(src),
                            dst: f.routing.local(dst),
                        })
                        .expect("shard writer closed before front end");
                    f.routed += 1;
                    if !f.cross.is_empty() {
                        f.dirty = true;
                    }
                } else {
                    f.cross.push((src, dst));
                    f.dirty = true;
                }
                SubmitOutcome::Routed { new_node: None }
            }
            ServiceOp::RemoveEdge { src, dst } => {
                if src.index() >= n || dst.index() >= n || !f.mirror.has_edge(src, dst) {
                    f.rejected += 1;
                    return SubmitOutcome::Rejected;
                }
                f.mirror.remove_edge(src, dst);
                f.recompute_levels_up(&[src]);
                let (ss, sd) = (f.routing.shard(src), f.routing.shard(dst));
                if ss == sd {
                    self.services[ss]
                        .submit(ServiceOp::RemoveEdge {
                            src: f.routing.local(src),
                            dst: f.routing.local(dst),
                        })
                        .expect("shard writer closed before front end");
                    f.routed += 1;
                    if !f.cross.is_empty() {
                        f.dirty = true;
                    }
                } else {
                    let pos = f
                        .cross
                        .iter()
                        .position(|&a| a == (src, dst))
                        .expect("cross arc tracked in cross list");
                    f.cross.swap_remove(pos);
                    f.dirty = true;
                }
                SubmitOutcome::Routed { new_node: None }
            }
            ServiceOp::RemoveNode { node } => {
                if node.index() >= n {
                    f.rejected += 1;
                    return SubmitOutcome::Rejected;
                }
                let preds = f.mirror.predecessors(node).to_vec();
                for d in f.mirror.successors(node).to_vec() {
                    f.mirror.remove_edge(node, d);
                }
                for &p in &preds {
                    f.mirror.remove_edge(p, node);
                }
                let had_cross = f.cross.iter().any(|&(u, v)| u == node || v == node);
                f.cross.retain(|&(u, v)| u != node && v != node);
                if had_cross || !f.cross.is_empty() {
                    f.dirty = true;
                }
                let mut seeds = preds;
                seeds.push(node);
                f.recompute_levels_up(&seeds);
                let s = f.routing.shard(node);
                self.services[s]
                    .submit(ServiceOp::RemoveNode { node: f.routing.local(node) })
                    .expect("shard writer closed before front end");
                f.routed += 1;
                SubmitOutcome::Routed { new_node: None }
            }
            ServiceOp::Refine { child } => {
                if child.index() >= n {
                    f.rejected += 1;
                    return SubmitOutcome::Rejected;
                }
                let parents = f.mirror.predecessors(child).to_vec();
                let s = f.routing.shard(child);
                let (zg, zl) = f.push_node(s);
                for &p in &parents {
                    f.mirror.add_edge(p, zg);
                    if f.routing.shard(p) != s {
                        f.cross.push((p, zg));
                        f.dirty = true;
                    }
                }
                f.mirror.add_edge(zg, child);
                let mut seeds = parents.clone();
                seeds.push(zg);
                f.recompute_levels_up(&seeds);
                let local_parents: Vec<NodeId> = parents
                    .iter()
                    .filter(|&&p| f.routing.shard(p) == s)
                    .map(|&p| f.routing.local(p))
                    .collect();
                // The shard writer applies these FIFO: the generic form of
                // refinement (reachability-identical because the original
                // parent -> child arcs stay).
                self.services[s]
                    .submit(ServiceOp::AddNode { parents: local_parents })
                    .expect("shard writer closed before front end");
                self.services[s]
                    .submit(ServiceOp::AddEdge { src: zl, dst: f.routing.local(child) })
                    .expect("shard writer closed before front end");
                f.routed += 2;
                SubmitOutcome::Routed { new_node: Some(zg) }
            }
            ServiceOp::Relabel => {
                for svc in &self.services {
                    svc.submit(ServiceOp::Relabel).expect("shard writer closed before front end");
                    f.routed += 1;
                }
                SubmitOutcome::Routed { new_node: None }
            }
            ServiceOp::Rebuild => {
                for svc in &self.services {
                    svc.submit(ServiceOp::Rebuild).expect("shard writer closed before front end");
                    f.routed += 1;
                }
                SubmitOutcome::Routed { new_node: None }
            }
        }
    }

    /// Asks every shard writer to freeze its routed ops, waits for the
    /// snapshots, publishes a new [`ShardedView`] if anything was submitted
    /// since the last one, and returns the aggregated stats. Shards with
    /// nothing new freeze nothing, and the shards that do freeze work in
    /// parallel. The front end is locked throughout, so the view reflects
    /// exactly the ops submitted before this call.
    pub fn flush(&self) -> ShardedStats {
        let mut f = self.front.lock().expect("front state poisoned");
        let mut stats = ShardedStats {
            submitted: f.submitted,
            rejected: f.rejected,
            routed: f.routed,
            ..ShardedStats::default()
        };
        let targets: Vec<u64> = self.services.iter().map(ClosureService::request_freeze).collect();
        let shards: Vec<Arc<ServiceSnapshot>> = self
            .services
            .iter()
            .zip(targets)
            .map(|(svc, target)| {
                let w = svc.wait_frozen(target);
                stats.absorb(&w);
                w.snapshot
            })
            .collect();
        let current = Arc::clone(&self.cell.slot.lock().expect("view cell poisoned"));
        if current.applied_seq != f.submitted {
            let routing = if current.routing.node_count() == f.routing.node_count() {
                Arc::clone(&current.routing)
            } else {
                Arc::new(f.routing.clone())
            };
            let boundary = if f.dirty {
                let intra = |s: usize, a, b| shards[s].reaches(a, b);
                Arc::new(Boundary::rebuild(&f.cross, &f.routing, intra))
            } else {
                Arc::clone(&current.boundary)
            };
            let epoch = current.epoch + 1;
            let view = ShardedView { routing, boundary, shards, applied_seq: f.submitted, epoch };
            *self.cell.slot.lock().expect("view cell poisoned") = Arc::new(view);
            self.cell.epoch.store(epoch, Ordering::Release);
            f.dirty = false;
        }
        stats.publishes = self.cell.epoch.load(Ordering::Acquire);
        stats
    }

    /// Current counters without waiting for the writers to drain.
    pub fn stats(&self) -> ShardedStats {
        let f = self.front.lock().expect("front state poisoned");
        let mut stats = ShardedStats {
            submitted: f.submitted,
            rejected: f.rejected,
            routed: f.routed,
            publishes: self.cell.epoch.load(Ordering::Acquire),
            ..ShardedStats::default()
        };
        for svc in &self.services {
            stats.absorb(&svc.state());
        }
        stats
    }

    /// A new scatter-gather reader pinned to the current view.
    pub fn reader(&self) -> ShardedReader {
        ShardedReader {
            view: Arc::clone(&self.cell.slot.lock().expect("view cell poisoned")),
            cell: Arc::clone(&self.cell),
            local_pairs: Vec::new(),
            slots: Vec::new(),
            bools: Vec::new(),
            seen: Vec::new(),
        }
    }

    /// Flushes, stops every shard writer, and reassembles the exact
    /// [`ShardedClosure`].
    pub fn shutdown(self) -> (ShardedStats, ShardedClosure) {
        self.close();
        let stats = self.flush();
        let ShardedService { services, front, cell: _, config } = self;
        let f = front.into_inner().expect("front state poisoned");
        let shards: Vec<CompressedClosure> =
            services.into_iter().map(ClosureService::shutdown).collect();
        let boundary = boundary_over(&shards, &f.cross, &f.routing);
        (
            stats,
            ShardedClosure {
                routing: f.routing,
                shards,
                cross: f.cross,
                mirror: f.mirror,
                boundary,
                config,
            },
        )
    }
}

/// A query handle over a [`ShardedService`]: it caches the current
/// [`ShardedView`] and revalidates it with one `Acquire` epoch load per
/// query, taking the view cell's mutex (to clone the new `Arc`) only when
/// the epoch moved. Batch probes group pairs by shard and run through
/// each snapshot's zero-alloc [`ServiceSnapshot::reaches_batch_into`]
/// path; only pairs the intra probes left unanswered take the boundary
/// route. All scratch buffers are reused across calls.
pub struct ShardedReader {
    cell: Arc<ViewCell>,
    view: Arc<ShardedView>,
    local_pairs: Vec<Vec<(NodeId, NodeId)>>,
    slots: Vec<Vec<usize>>,
    bools: Vec<bool>,
    seen: Vec<NodeId>,
}

impl ShardedReader {
    /// Moves to the latest published view if the epoch moved.
    #[inline]
    fn refresh(&mut self) {
        if self.cell.epoch.load(Ordering::Acquire) != self.view.epoch {
            self.view = Arc::clone(&self.cell.slot.lock().expect("view cell poisoned"));
        }
    }

    /// Pins and returns the latest published view. The returned `Arc`
    /// stays valid (and immutable) however far the service moves on.
    pub fn snapshot(&mut self) -> Arc<ShardedView> {
        self.refresh();
        Arc::clone(&self.view)
    }

    /// Front-end ops submitted since the view this reader last pinned —
    /// how far behind the submissions its answers are.
    pub fn staleness(&self) -> u64 {
        self.cell.submitted.load(Ordering::Relaxed).saturating_sub(self.view.applied_seq)
    }

    /// Whether `src` reaches `dst` on the latest published view.
    pub fn reaches(&mut self, src: NodeId, dst: NodeId) -> bool {
        self.refresh();
        self.view.reaches(src, dst)
    }

    /// Batch reachability, scatter-gathered across shards; see
    /// [`ShardedReader::reaches_batch_into`] for the allocation-free form.
    pub fn reaches_batch(&mut self, pairs: &[(NodeId, NodeId)]) -> Vec<bool> {
        let mut out = Vec::new();
        self.reaches_batch_into(pairs, &mut out);
        out
    }

    /// Answers every pair into `out` (cleared first) on one view.
    /// Same-shard pairs are grouped per shard and answered through that
    /// snapshot's [`ServiceSnapshot::reaches_batch_into`]; pairs still
    /// unanswered — cross-shard pairs and same-shard pairs whose only path
    /// leaves the shard — take the boundary route. With reused buffers the
    /// whole batch allocates nothing.
    pub fn reaches_batch_into(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<bool>) {
        self.refresh();
        let view = &*self.view;
        let (routing, snaps) = (&*view.routing, &view.shards);
        let shards = routing.shards();
        self.local_pairs.resize_with(shards, Vec::new);
        self.slots.resize_with(shards, Vec::new);
        for v in &mut self.local_pairs {
            v.clear();
        }
        for v in &mut self.slots {
            v.clear();
        }
        out.clear();
        out.resize(pairs.len(), false);
        let n = routing.node_count();
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            if src.index() >= n || dst.index() >= n {
                continue;
            }
            let (ss, sd) = (routing.shard(src), routing.shard(dst));
            if ss == sd {
                self.local_pairs[ss].push((routing.local(src), routing.local(dst)));
                self.slots[ss].push(i);
            }
        }
        for (s, snap) in snaps.iter().enumerate() {
            if self.slots[s].is_empty() {
                continue;
            }
            snap.reaches_batch_into(&self.local_pairs[s], &mut self.bools);
            for (k, &i) in self.slots[s].iter().enumerate() {
                out[i] = self.bools[k];
            }
        }
        if !view.boundary.is_empty() {
            for (i, &(src, dst)) in pairs.iter().enumerate() {
                if out[i] || src.index() >= n || dst.index() >= n {
                    continue;
                }
                out[i] = view.boundary.route(routing, src, dst, |s, a, b| snaps[s].reaches(a, b));
            }
        }
    }

    /// All nodes reachable from `node` (including itself), ascending by
    /// global id.
    pub fn successors(&mut self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.successors_into(node, &mut out);
        out
    }

    /// [`ShardedReader::successors`] into a reused buffer (cleared
    /// first): local decode per shard through the zero-alloc
    /// [`ServiceSnapshot::successors_into`], then the boundary expansion.
    pub fn successors_into(&mut self, node: NodeId, out: &mut Vec<NodeId>) {
        self.refresh();
        self.view.composed().closure_into(node, true, out, &mut self.seen);
    }

    /// All nodes that reach `node` (including itself), ascending by global
    /// id.
    pub fn predecessors(&mut self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.predecessors_into(node, &mut out);
        out
    }

    /// [`ShardedReader::predecessors`] into a reused buffer (cleared
    /// first).
    pub fn predecessors_into(&mut self, node: NodeId, out: &mut Vec<NodeId>) {
        self.refresh();
        self.view.composed().closure_into(node, false, out, &mut self.seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServiceOp;
    use crate::updates::UpdateError;

    /// Three weak components plus an isolated node (id 9).
    fn forest() -> DiGraph {
        let mut g = DiGraph::from_edges([
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3), // component A: diamond 0..=3
            (4, 5),
            (5, 6), // component B: path 4..=6
            (7, 8), // component C
        ]);
        g.add_node();
        g
    }

    fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::with_capacity(n * n);
        for s in 0..n {
            for d in 0..n {
                pairs.push((NodeId(s as u32), NodeId(d as u32)));
            }
        }
        pairs
    }

    fn assert_matches_unsharded(sc: &ShardedClosure, flat: &CompressedClosure) {
        let n = flat.node_count();
        assert_eq!(sc.node_count(), n);
        for &(s, d) in &all_pairs(n) {
            assert_eq!(
                sc.reaches(s, d),
                flat.reaches(s, d),
                "reaches({s:?}, {d:?}) diverged"
            );
        }
        let pairs = all_pairs(n);
        assert_eq!(sc.reaches_batch(&pairs), flat.reaches_batch(&pairs));
        for u in 0..n {
            let v = NodeId(u as u32);
            let mut want = flat.successors(v);
            want.sort_unstable();
            assert_eq!(sc.successors(v), want, "successors({u}) diverged");
            let mut want = flat.predecessors(v);
            want.sort_unstable();
            assert_eq!(sc.predecessors(v), want, "predecessors({u}) diverged");
        }
    }

    #[test]
    fn multi_component_matches_unsharded() {
        let g = forest();
        let flat = CompressedClosure::build(&g).unwrap();
        for shards in [1, 2, 3, 8] {
            let sc = ShardedClosure::build(ClosureConfig::new(), &g, shards).unwrap();
            assert!(sc.audit().is_ok(), "audit: {:?}", sc.audit());
            assert_eq!(sc.cross_arc_count(), 0, "weak components never split");
            assert_matches_unsharded(&sc, &flat);
        }
    }

    #[test]
    fn giant_component_routes_through_boundary() {
        // One dominant component: a path with chords, level-cut into bands.
        let mut edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        edges.extend([(0, 10), (3, 15), (5, 18)]);
        let g = DiGraph::from_edges(edges);
        let flat = CompressedClosure::build(&g).unwrap();
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 4).unwrap();
        assert!(sc.shard_count() > 1);
        assert!(sc.cross_arc_count() > 0, "level cut must produce cross arcs");
        assert!(sc.audit().is_ok(), "audit: {:?}", sc.audit());
        assert!(sc.verify().is_ok(), "verify: {:?}", sc.verify());
        assert_matches_unsharded(&sc, &flat);
    }

    /// After a flush, every reader answer — point and batch probes,
    /// decoded successor and predecessor sets — equals the flat closure's.
    fn assert_reader_matches(reader: &mut ShardedReader, flat: &CompressedClosure) {
        let n = flat.node_count();
        let pairs = all_pairs(n);
        for &(s, d) in &pairs {
            assert_eq!(reader.reaches(s, d), flat.reaches(s, d), "reaches({s:?}, {d:?})");
        }
        assert_eq!(reader.reaches_batch(&pairs), flat.reaches_batch(&pairs));
        for u in 0..n {
            let v = NodeId(u as u32);
            let mut want = flat.successors(v);
            want.sort_unstable();
            assert_eq!(reader.successors(v), want, "successors({u})");
            let mut want = flat.predecessors(v);
            want.sort_unstable();
            assert_eq!(reader.predecessors(v), want, "predecessors({u})");
        }
    }

    #[test]
    fn update_stream_stays_equivalent() {
        let g = forest();
        let mut flat = CompressedClosure::build(&g).unwrap();
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 3).unwrap();
        let service = ShardedService::start(sc, ServiceConfig::new().audit(true));
        let mut reader = service.reader();
        // A churn script hitting every op class, including cross-shard
        // arcs (component A and component B live on different shards).
        // Each op goes to the flat closure and through the service; the
        // front end's verdict must match, and so must every answer after
        // the flush.
        let a = |i: u32| NodeId(i);
        let routed = |new_node| SubmitOutcome::Routed { new_node };
        let mut step = |op: ServiceOp, want: SubmitOutcome, flat: &CompressedClosure| {
            let (_, got) = service.submit_with_outcome(op.clone()).unwrap();
            assert_eq!(got, want, "{op:?}");
            let stats = service.flush();
            assert_eq!(stats.skipped, 0, "shard writers must never skip");
            assert_eq!(stats.audit_violation, None);
            assert_reader_matches(&mut reader, flat);
        };
        // Cross-shard arc: 3 (comp A) -> 4 (comp B).
        assert!(flat.add_edge(a(3), a(4)).unwrap());
        step(ServiceOp::AddEdge { src: a(3), dst: a(4) }, routed(None), &flat);
        // A cycle attempt across the boundary is rejected by both.
        assert!(matches!(flat.add_edge(a(6), a(0)), Err(UpdateError::WouldCreateCycle { .. })));
        step(ServiceOp::AddEdge { src: a(6), dst: a(0) }, SubmitOutcome::Rejected, &flat);
        // New node with parents on two shards.
        let z = flat.add_node_with_parents(&[a(6), a(8)]).unwrap();
        step(ServiceOp::AddNode { parents: vec![a(6), a(8)] }, routed(Some(z)), &flat);
        // Refinement with cross-shard parents. The flat closure was built
        // with reserve 0, so its §4.1 path is exhausted; the generic insert
        // it degrades to is what the service always applies.
        assert!(matches!(
            flat.refine_insert(z, &[a(6), a(8)]),
            Err(UpdateError::ReserveExhausted(_))
        ));
        let r = flat.add_node_with_parents(&[a(6), a(8)]).unwrap();
        flat.add_edge(r, z).unwrap();
        step(ServiceOp::Refine { child: z }, routed(Some(r)), &flat);
        // Remove the cross arc again, then a node with cross arcs.
        flat.remove_edge(a(3), a(4)).unwrap();
        step(ServiceOp::RemoveEdge { src: a(3), dst: a(4) }, routed(None), &flat);
        flat.remove_node(a(6)).unwrap();
        step(ServiceOp::RemoveNode { node: a(6) }, routed(None), &flat);
        flat.relabel();
        step(ServiceOp::Relabel, routed(None), &flat);
        let (stats, sc) = service.shutdown();
        assert_eq!(stats.rejected, 1);
        assert!(sc.audit().is_ok(), "audit: {:?}", sc.audit());
        assert!(sc.verify().is_ok(), "verify: {:?}", sc.verify());
        assert_matches_unsharded(&sc, &flat);
    }

    #[test]
    fn sharded_service_matches_flat_service_after_flush() {
        // The flat service is the one-shard service every unsharded caller
        // runs: no boundary, local ids are global ids.
        let g = forest();
        let cc = ClosureConfig::new().reserve(8);
        let start = |shards| {
            let sc = ShardedClosure::build(cc, &g, shards).unwrap();
            ShardedService::start(sc, ServiceConfig::new().audit(true))
        };
        let (service, flat_service) = (start(3), start(1));
        let mut reader = service.reader();
        let mut flat_reader = flat_service.reader();

        let ops = [
            ServiceOp::AddEdge { src: NodeId(3), dst: NodeId(4) }, // cross
            ServiceOp::AddNode { parents: vec![NodeId(6), NodeId(8)] }, // cross parents
            ServiceOp::Refine { child: NodeId(3) },
            ServiceOp::AddEdge { src: NodeId(6), dst: NodeId(0) }, // cycle: rejected
            ServiceOp::AddEdge { src: NodeId(7), dst: NodeId(7) }, // self-loop: rejected
            ServiceOp::RemoveEdge { src: NodeId(3), dst: NodeId(4) }, // cross removal
            ServiceOp::RemoveNode { node: NodeId(5) },
            ServiceOp::Relabel,
        ];
        for op in ops {
            service.submit(op.clone()).unwrap();
            flat_service.submit(op).unwrap();
            let stats = service.flush();
            flat_service.flush();
            assert_eq!(stats.skipped, 0, "shard writers must never skip");
            assert_eq!(stats.audit_violation, None);
            let n = flat_reader.snapshot().node_count();
            for &(s, d) in &all_pairs(n) {
                assert_eq!(
                    reader.reaches(s, d),
                    flat_reader.reaches(s, d),
                    "reaches({s:?}, {d:?}) diverged post-flush"
                );
            }
            for u in 0..n {
                let v = NodeId(u as u32);
                assert_eq!(reader.successors(v), flat_reader.successors(v), "successors({u})");
                let want = flat_reader.predecessors(v);
                assert_eq!(reader.predecessors(v), want, "predecessors({u})");
            }
            let pairs = all_pairs(n);
            assert_eq!(reader.reaches_batch(&pairs), flat_reader.reaches_batch(&pairs));
        }
        let stats = service.stats();
        assert_eq!(stats.rejected, 2, "cycle + self-loop rejected at the front");
        let (_, sc) = service.shutdown();
        assert!(sc.audit().is_ok(), "audit: {:?}", sc.audit());
        assert!(sc.verify().is_ok(), "verify: {:?}", sc.verify());
    }

    #[test]
    fn writes_stay_invisible_until_flush() {
        let g = DiGraph::from_edges([(0, 1)]);
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 1).unwrap();
        let service = ShardedService::start(sc, ServiceConfig::new());
        let mut reader = service.reader();
        assert_eq!(reader.successors(NodeId(0)).len(), 2);
        service.submit(ServiceOp::AddNode { parents: vec![NodeId(0)] }).unwrap();
        // Wait for the shard writer to apply the op *without* a flush: it
        // must not freeze it, and the new node must stay invisible until a
        // flush publishes it.
        for _ in 0..5000 {
            if service.stats().applied >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(service.stats().applied, 1, "shard writer apply timed out");
        assert_eq!(service.stats().freezes, 0, "a writer freezes only when a flush asks");
        assert_eq!(reader.successors(NodeId(0)).len(), 2, "unflushed write leaked");
        assert_eq!(reader.predecessors(NodeId(2)), Vec::new());
        assert_eq!(reader.staleness(), 1, "one op submitted since the pinned view");
        service.flush();
        assert_eq!(reader.successors(NodeId(0)).len(), 3, "visible after the flush");
        assert_eq!(reader.staleness(), 0);
        let (_, sc) = service.shutdown();
        assert!(sc.audit().is_ok());
    }

    #[test]
    fn writers_freeze_once_per_flush_that_finds_work() {
        let g = DiGraph::from_edges([(0, 1)]);
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 1).unwrap();
        let service = ShardedService::start(sc, ServiceConfig::new().audit(true));
        let mut reader = service.reader();
        const N: u64 = 20;
        for _ in 0..N {
            service.submit(ServiceOp::AddNode { parents: vec![NodeId(1)] }).unwrap();
        }
        for _ in 0..5000 {
            if service.stats().applied >= N {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = service.stats();
        assert_eq!(stats.applied, N, "shard writer apply timed out");
        assert_eq!((stats.freezes, stats.publishes), (0, 1), "applied, not frozen");
        assert_eq!(reader.snapshot().node_count(), 2, "nothing visible before a flush");

        let stats = service.flush();
        assert_eq!((stats.freezes, stats.publishes), (1, 2), "one flush, one freeze");
        assert_eq!(reader.snapshot().node_count(), 2 + N as usize);
        let stats = service.flush();
        assert_eq!((stats.freezes, stats.publishes), (1, 2), "nothing pending: no freeze");
        assert_eq!(stats.audit_violation, None);

        // Only the shards an op touched freeze at the next flush.
        let g = DiGraph::from_edges([(0, 1), (2, 3)]);
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 2).unwrap();
        let service = ShardedService::start(sc, ServiceConfig::new());
        service.submit(ServiceOp::AddNode { parents: vec![NodeId(1)] }).unwrap();
        assert_eq!(service.flush().freezes, 1, "one touched shard, one freeze");
        // A cross-shard arc lives in the boundary: a publish, no freeze.
        service.submit(ServiceOp::AddEdge { src: NodeId(1), dst: NodeId(2) }).unwrap();
        let stats = service.flush();
        assert_eq!((stats.freezes, stats.publishes), (1, 3));
        service.submit(ServiceOp::AddNode { parents: vec![NodeId(3)] }).unwrap();
        service.submit(ServiceOp::AddNode { parents: vec![NodeId(0)] }).unwrap();
        let stats = service.flush();
        assert_eq!((stats.freezes, stats.publishes), (3, 4), "both shards touched");
        let mut reader = service.reader();
        assert!(reader.reaches(NodeId(0), NodeId(5)), "0 -> 1 -> 2 -> 3 -> new node 5");
        let (stats, _) = service.shutdown();
        assert_eq!((stats.freezes, stats.publishes), (3, 4), "shutdown adds no freeze");
    }

    #[test]
    fn submit_racing_close_is_applied_or_rejected_never_lost() {
        let g = DiGraph::from_edges([(0, 1), (2, 3)]);
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 2).unwrap();
        let service = ShardedService::start(sc, ServiceConfig::new());
        let accepted = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        match service.submit(ServiceOp::AddNode { parents: vec![NodeId(1)] }) {
                            Ok(_) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServiceClosed) => break,
                        }
                        std::thread::yield_now();
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            service.close();
        });
        let ok = accepted.load(Ordering::Relaxed);
        service.close(); // idempotent
        assert_eq!(service.submit(ServiceOp::Relabel), Err(ServiceClosed));
        assert_eq!(service.submit_batch([ServiceOp::Relabel]), Err(ServiceClosed));
        assert!(service.submit_with_outcome(ServiceOp::Relabel).is_err());
        let (stats, sc) = service.shutdown();
        // Every Ok(seq) was validated, routed, and applied by a shard
        // writer; every Err(ServiceClosed) touched nothing.
        assert_eq!(stats.submitted, ok, "submitted must equal the Ok count");
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.routed, ok, "each accepted AddNode routes one shard op");
        assert_eq!(stats.applied, stats.routed, "routed ops are never dropped");
        assert_eq!(stats.skipped, 0);
        assert!(sc.audit().is_ok(), "audit: {:?}", sc.audit());
    }

    #[test]
    fn outcome_reports_assigned_node_ids_and_verdicts() {
        let g = DiGraph::from_edges([(0, 1)]);
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 2).unwrap();
        let service = ShardedService::start(sc, ServiceConfig::new());
        let (_, out) = service
            .submit_with_outcome(ServiceOp::AddNode { parents: vec![NodeId(1)] })
            .unwrap();
        assert_eq!(out, SubmitOutcome::Routed { new_node: Some(NodeId(2)) });
        let (_, out) = service
            .submit_with_outcome(ServiceOp::AddEdge { src: NodeId(0), dst: NodeId(2) })
            .unwrap();
        assert_eq!(out, SubmitOutcome::Routed { new_node: None });
        let (_, out) = service
            .submit_with_outcome(ServiceOp::AddEdge { src: NodeId(0), dst: NodeId(2) })
            .unwrap();
        assert_eq!(out, SubmitOutcome::Noop, "duplicate arc is a no-op");
        let (_, out) = service
            .submit_with_outcome(ServiceOp::AddEdge { src: NodeId(2), dst: NodeId(0) })
            .unwrap();
        assert_eq!(out, SubmitOutcome::Rejected, "cycle is rejected");
        let mut reader = service.reader();
        service.flush();
        assert!(reader.reaches(NodeId(0), NodeId(2)));
        let (stats, sc) = service.shutdown();
        assert_eq!(stats.skipped, 0);
        assert!(sc.audit().is_ok());
    }

    #[test]
    fn front_end_rejects_what_flat_writer_would_skip() {
        let g = DiGraph::from_edges([(0, 1)]);
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 2).unwrap();
        let service = ShardedService::start(sc, ServiceConfig::new());
        service.submit(ServiceOp::AddEdge { src: NodeId(9), dst: NodeId(0) }).unwrap(); // unknown
        service.submit(ServiceOp::RemoveEdge { src: NodeId(1), dst: NodeId(0) }).unwrap(); // no such edge
        service.submit(ServiceOp::RemoveNode { node: NodeId(44) }).unwrap(); // unknown
        service.submit(ServiceOp::Refine { child: NodeId(44) }).unwrap(); // unknown
        service.submit(ServiceOp::AddEdge { src: NodeId(1), dst: NodeId(0) }).unwrap(); // cycle
        let stats = service.flush();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.rejected, 5);
        assert_eq!(stats.routed, 0);
        assert_eq!(stats.skipped, 0);
        let (_, sc) = service.shutdown();
        assert!(sc.verify().is_ok());
    }

    #[test]
    fn shutdown_roundtrips_through_service() {
        let mut edges: Vec<(u32, u32)> = (0..15).map(|i| (i, i + 1)).collect();
        edges.push((2, 9));
        let g = DiGraph::from_edges(edges);
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 4).unwrap();
        let before: Vec<bool> = sc.reaches_batch(&all_pairs(16));
        let service = ShardedService::start(sc, ServiceConfig::new());
        let (stats, sc) = service.shutdown();
        assert_eq!(stats.rejected, 0);
        assert_eq!(before, sc.reaches_batch(&all_pairs(16)));
        assert!(sc.audit().is_ok(), "audit: {:?}", sc.audit());
    }
}
