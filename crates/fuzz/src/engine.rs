//! Trace execution: the closure under test, a lockstep mirror graph, the
//! structural audit after every applied op, and the differential oracles.
//!
//! The engine holds two models of the same evolving relation:
//!
//! * the [`CompressedClosure`] under test, driven through its §4 update API;
//! * a plain [`DiGraph`] **mirror**, updated by trivially-correct edge-list
//!   surgery.
//!
//! Every applied op is followed (optionally) by
//! [`CompressedClosure::audit`]; periodically the closure's answers are
//! compared against a brute-force DFS closure of the mirror
//! ([`tc_graph::traverse::closure_rows`]) and against an independently
//! implemented chain-decomposition index ([`tc_baselines::ChainIndex`])
//! rebuilt from the mirror.
//!
//! ## Skip rules
//!
//! Ops whose operands are invalid in the current state are **skipped**
//! (state untouched) rather than treated as failures, under rules that are
//! pure functions of the mirror — this is what makes traces shrinkable:
//! deleting a prefix op can turn a later op into a skip, never into an
//! unreplayable trace.
//!
//! | op | skipped when |
//! |----|--------------|
//! | `add-node` | never (out-of-range parents are dropped from the list) |
//! | `add-edge` | endpoint out of range, self-loop, arc already present, or the arc would create a cycle |
//! | `remove-edge` | endpoint out of range or arc absent |
//! | `remove-node` | node out of range |
//! | `refine` | node out of range, or the closure reports `ReserveExhausted` |
//! | `relabel` / `rebuild` / `set-threads` | never |
//! | `freeze` / `thaw` | never |
//! | `service-publish` | never |
//! | `service-query` | nothing published yet |
//! | `paged-probe` | never |
//!
//! `freeze`/`thaw` never mutate the relation, but they count as *applied* so
//! the per-step audit (which cross-checks a frozen plane against the mutable
//! labeling) and subsequent oracle passes run against the flipped query
//! path — the whole point of fuzzing them.
//!
//! `refine` is the one rule that consults the closure rather than the
//! mirror: reserve-tail headroom is label state with no mirror analogue.
//! The outcome is still deterministic, so replay and shrinking stay sound.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use tc_baselines::{ChainIndex, ReachabilityIndex};
use tc_core::serve::{ServiceConfig, ServiceOp, ServiceSnapshot};
use tc_core::{
    CompressedClosure, PagedPlane, ShardedClosure, ShardedReader, ShardedService, UpdateError,
};
use tc_graph::{traverse, DiGraph, NodeId};

use crate::ops::{FuzzConfig, Op, OpTrace};

/// What the engine checks while replaying a trace.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Run [`CompressedClosure::audit`] after every applied op.
    pub audit_every_step: bool,
    /// Run the full differential oracle every this many applied ops
    /// (`0` = only once, after the final op).
    pub oracle_every: usize,
    /// Cross-check reachability against [`ChainIndex`] during oracle runs.
    pub baseline: bool,
    /// When `> 1`, drive a [`ShardedService`] with that many shards in
    /// lockstep with the closure under test: every op the engine *applies*
    /// is forwarded, flushed, and the scatter-gather answers are compared
    /// after each step (sampled) and at every oracle pass (exhaustively).
    pub shards: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            audit_every_step: true,
            oracle_every: 64,
            baseline: true,
            shards: 1,
        }
    }
}

/// Why a trace failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The trace's configuration cannot build a closure.
    Config,
    /// An update call returned an error the skip rules say cannot happen.
    Update,
    /// [`CompressedClosure::audit`] rejected the structure.
    Audit,
    /// The closure's answers diverged from the DFS closure of the mirror.
    Oracle,
    /// The chain-decomposition baseline disagreed with the DFS closure
    /// (an oracle bug, not a closure bug — still worth a reproducer).
    Baseline,
    /// A pinned service snapshot's answers diverged from the DFS closure of
    /// the relation as it was when that snapshot was published.
    Service,
    /// The out-of-core `PLN1` round trip failed, or the paged plane's
    /// answers diverged from the closure under test.
    Paged,
    /// The lockstep [`ShardedService`] replica diverged from the closure
    /// under test (or its front end rejected / its writers skipped an op
    /// the reference engine applied).
    Sharded,
    /// The op (or a check after it) panicked.
    Panic,
}

/// A trace failure: which op, which check, and the details.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the op being executed when the failure surfaced (`None`
    /// for configuration failures before the first op).
    pub step: Option<usize>,
    /// The check that failed.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(s) => write!(f, "step {s}: {:?}: {}", self.kind, self.detail),
            None => write!(f, "{:?}: {}", self.kind, self.detail),
        }
    }
}

/// Summary of a successful trace replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunReport {
    /// Ops that mutated state.
    pub applied: usize,
    /// Ops skipped under the documented rules.
    pub skipped: usize,
    /// Differential oracle passes performed.
    pub oracle_checks: usize,
    /// Node count at the end of the trace.
    pub final_nodes: usize,
    /// Edge count at the end of the trace.
    pub final_edges: usize,
}

/// A pinned serving-layer view: the snapshot [`Op::ServicePublish`]
/// captured plus the mirror relation as it was at that moment (the oracle
/// [`Op::ServiceQuery`] replays against).
pub struct PublishedView {
    /// The frozen snapshot, exactly as a service reader would pin it.
    pub snapshot: ServiceSnapshot,
    /// The relation at publish time.
    pub mirror: DiGraph,
}

/// The lockstep sharded replica: a [`ShardedService`] that receives
/// exactly the ops the reference engine applied, flushed after every
/// forward so its scatter-gather answers are comparable.
pub struct ShardedLockstep {
    service: ShardedService,
    reader: ShardedReader,
    /// Ops forwarded so far (seeds the sampling hash so consecutive
    /// quick checks probe different pairs).
    forwarded: u64,
}

/// Live replay state: the closure under test plus its mirror relation.
pub struct EngineState {
    /// The interval-compressed closure being fuzzed.
    pub closure: CompressedClosure,
    /// The trivially-maintained mirror of the same relation.
    pub mirror: DiGraph,
    /// The most recent [`Op::ServicePublish`] capture, if any.
    pub published: Option<PublishedView>,
    /// The lockstep sharded replica, when [`CheckOptions::shards`] > 1.
    pub sharded: Option<ShardedLockstep>,
}

impl EngineState {
    /// Starts from an empty relation under `config`.
    pub fn new(config: &FuzzConfig) -> Result<Self, Violation> {
        let cc = config.closure_config().map_err(|detail| Violation {
            step: None,
            kind: ViolationKind::Config,
            detail,
        })?;
        let mirror = DiGraph::new();
        let closure = cc.build(&mirror).expect("empty graph is acyclic");
        Ok(EngineState { closure, mirror, published: None, sharded: None })
    }

    /// Attaches a lockstep [`ShardedService`] replica with `shards` shards,
    /// seeded from the current relation. Every subsequently *applied* op is
    /// forwarded to it and the composed answers are compared.
    pub fn enable_sharding(&mut self, shards: usize, config: &FuzzConfig) -> Result<(), Violation> {
        let cc = config.closure_config().map_err(|detail| Violation {
            step: None,
            kind: ViolationKind::Config,
            detail,
        })?;
        let sc = ShardedClosure::build(cc, &self.mirror, shards).map_err(|e| Violation {
            step: None,
            kind: ViolationKind::Config,
            detail: format!("sharded build failed: {e:?}"),
        })?;
        let service = ShardedService::start(sc, ServiceConfig::new());
        let reader = service.reader();
        self.sharded = Some(ShardedLockstep { service, reader, forwarded: 0 });
        Ok(())
    }

    fn in_range(&self, id: u32) -> bool {
        (id as usize) < self.mirror.node_count()
    }

    /// Applies one op. `Ok(true)` = state mutated, `Ok(false)` = skipped,
    /// `Err` = the closure returned an error the skip rules rule out, or a
    /// service-snapshot check failed.
    pub fn apply(&mut self, op: &Op) -> Result<bool, (ViolationKind, String)> {
        let update = |detail: String| (ViolationKind::Update, detail);
        match op {
            Op::AddNode { parents } => {
                let valid: Vec<NodeId> = parents
                    .iter()
                    .filter(|&&p| self.in_range(p))
                    .map(|&p| NodeId(p))
                    .collect();
                let z = self
                    .closure
                    .add_node_with_parents(&valid)
                    .map_err(|e| update(format!("add_node_with_parents({valid:?}): {e}")))?;
                let m = self.mirror.add_node();
                debug_assert_eq!(z, m);
                for &p in &valid {
                    self.mirror.add_edge(p, z); // duplicates collapse
                }
                self.forward_sharded(ServiceOp::AddNode { parents: valid })?;
                Ok(true)
            }
            Op::AddEdge { src, dst } => {
                if !self.in_range(*src) || !self.in_range(*dst) || src == dst {
                    return Ok(false);
                }
                let (s, d) = (NodeId(*src), NodeId(*dst));
                if self.mirror.has_edge(s, d) || traverse::reaches(&self.mirror, d, s) {
                    return Ok(false);
                }
                let fresh = self
                    .closure
                    .add_edge(s, d)
                    .map_err(|e| update(format!("add_edge({s:?},{d:?}): {e}")))?;
                if !fresh {
                    return Err(update(format!(
                        "add_edge({s:?},{d:?}) reported a duplicate the mirror does not have"
                    )));
                }
                self.mirror.add_edge(s, d);
                self.forward_sharded(ServiceOp::AddEdge { src: s, dst: d })?;
                Ok(true)
            }
            Op::RemoveEdge { src, dst } => {
                if !self.in_range(*src) || !self.in_range(*dst) {
                    return Ok(false);
                }
                let (s, d) = (NodeId(*src), NodeId(*dst));
                if !self.mirror.has_edge(s, d) {
                    return Ok(false);
                }
                self.closure
                    .remove_edge(s, d)
                    .map_err(|e| update(format!("remove_edge({s:?},{d:?}): {e}")))?;
                self.mirror.remove_edge(s, d);
                self.forward_sharded(ServiceOp::RemoveEdge { src: s, dst: d })?;
                Ok(true)
            }
            Op::RemoveNode { node } => {
                if !self.in_range(*node) {
                    return Ok(false);
                }
                let v = NodeId(*node);
                self.closure
                    .remove_node(v)
                    .map_err(|e| update(format!("remove_node({v:?}): {e}")))?;
                // The closure quarantines the node (dense ids keep the slot,
                // reaching only itself); the mirror equivalent is stripping
                // every incident arc.
                for d in self.mirror.successors(v).to_vec() {
                    self.mirror.remove_edge(v, d);
                }
                for s in self.mirror.predecessors(v).to_vec() {
                    self.mirror.remove_edge(s, v);
                }
                self.forward_sharded(ServiceOp::RemoveNode { node: v })?;
                Ok(true)
            }
            Op::Refine { child } => {
                if !self.in_range(*child) {
                    return Ok(false);
                }
                let c = NodeId(*child);
                let parents: Vec<NodeId> = self.mirror.predecessors(c).to_vec();
                match self.closure.refine_insert(c, &parents) {
                    Ok(z) => {
                        let m = self.mirror.add_node();
                        debug_assert_eq!(z, m);
                        for &p in &parents {
                            self.mirror.add_edge(p, z);
                        }
                        self.mirror.add_edge(z, c);
                        // The sharded front end reads the predecessor list
                        // from its own mirror, which is exactly one op
                        // behind — i.e. the pre-refinement parents.
                        self.forward_sharded(ServiceOp::Refine { child: c })?;
                        Ok(true)
                    }
                    Err(UpdateError::ReserveExhausted(_)) => Ok(false),
                    Err(e) => Err(update(format!("refine_insert({c:?},{parents:?}): {e}"))),
                }
            }
            Op::Relabel => {
                self.closure.relabel();
                self.forward_sharded(ServiceOp::Relabel)?;
                Ok(true)
            }
            Op::Rebuild => {
                self.closure.rebuild();
                self.forward_sharded(ServiceOp::Rebuild)?;
                Ok(true)
            }
            Op::SetThreads { threads } => {
                self.closure.set_threads(*threads);
                Ok(true)
            }
            Op::Freeze => {
                self.closure.freeze();
                Ok(true)
            }
            Op::Thaw => {
                self.closure.thaw();
                Ok(true)
            }
            Op::ServicePublish => {
                self.published = Some(PublishedView {
                    snapshot: ServiceSnapshot::capture(&self.closure),
                    mirror: self.mirror.clone(),
                });
                Ok(true)
            }
            Op::ServiceQuery => match &self.published {
                None => Ok(false),
                Some(view) => {
                    check_published(view).map_err(|detail| (ViolationKind::Service, detail))?;
                    Ok(true)
                }
            },
            Op::PagedProbe => {
                self.check_paged().map_err(|detail| (ViolationKind::Paged, detail))?;
                Ok(true)
            }
        }
    }

    /// Round-trips the closure through the `PLN1` out-of-core format and
    /// compares the paged plane's answers — served through a 2-frame pool,
    /// so nearly every probe evicts — against the closure under test:
    /// every successor set, every predecessor set, every successor count,
    /// and the shared deterministic point-query sample, asked pair by pair
    /// and again as one `reaches_batch` on a 1-frame pool.
    fn check_paged(&self) -> Result<(), String> {
        let bytes = self.closure.to_paged_bytes();
        let plane = PagedPlane::open_from_bytes(&bytes, 2)
            .map_err(|e| format!("open_from_bytes on a freshly written stream: {e}"))?;
        let n = self.mirror.node_count();
        if plane.node_count() != n {
            return Err(format!(
                "paged plane has {} nodes, closure has {n}",
                plane.node_count()
            ));
        }
        for v in 0..n as u32 {
            let node = NodeId(v);
            let mut got = plane.successors(node);
            got.sort_unstable_by_key(|u| u.index());
            let mut want = self.closure.successors(node);
            want.sort_unstable_by_key(|u| u.index());
            if got != want {
                return Err(format!(
                    "paged successors({v}) = {got:?}, closure says {want:?}"
                ));
            }
            if plane.successor_count(node) != want.len() {
                return Err(format!(
                    "paged successor_count({v}) = {}, closure says {}",
                    plane.successor_count(node),
                    want.len()
                ));
            }
            let got_preds = plane.predecessors(node);
            let mut want_preds = self.closure.predecessors(node);
            want_preds.sort_unstable();
            if got_preds != want_preds {
                return Err(format!(
                    "paged predecessors({v}) = {got_preds:?}, closure says {want_preds:?}"
                ));
            }
        }
        if n > 0 {
            let samples = (4 * n).min(1024);
            let pairs: Vec<(NodeId, NodeId)> =
                (0..samples as u64).map(|k| sample_pair(k, n)).collect();
            // The same pairs as one batch, through a one-frame pool: a
            // single session in which every fetch evicts.
            let batch = PagedPlane::open_from_bytes(&bytes, 1)
                .map_err(|e| format!("open_from_bytes with one frame: {e}"))?
                .reaches_batch(&pairs);
            for (&(s, d), &batched) in pairs.iter().zip(&batch) {
                let got = plane.reaches(s, d);
                let want = self.closure.reaches(s, d);
                if got != want || batched != want {
                    return Err(format!(
                        "paged reaches({s:?},{d:?}) = {got}, batched {batched}, \
                         closure says {want}"
                    ));
                }
            }
        }
        plane
            .verify_payload()
            .map_err(|e| format!("verify_payload on a freshly written stream: {e}"))
    }

    /// Full differential pass: decoded successor sets and batched point
    /// queries against the DFS closure of the mirror, plus (optionally) the
    /// chain baseline. Returns an error string naming the first divergence.
    pub fn differential_check(&self, baseline: bool) -> Result<(), (ViolationKind, String)> {
        let n = self.mirror.node_count();
        let rows = traverse::closure_rows(&self.mirror);

        // Every successor set, decoded in full.
        for (v, row) in rows.iter().enumerate() {
            let mut got: Vec<usize> =
                self.closure.successors(NodeId(v as u32)).iter().map(|u| u.index()).collect();
            got.sort_unstable();
            let want: Vec<usize> = row.iter().collect();
            if got != want {
                let extra: Vec<usize> = got.iter().copied().filter(|u| !want.contains(u)).collect();
                let missing: Vec<usize> =
                    want.iter().copied().filter(|u| !got.contains(u)).collect();
                return Err((
                    ViolationKind::Oracle,
                    format!(
                        "successors({v}) diverge from DFS closure: spurious {extra:?}, missing {missing:?}"
                    ),
                ));
            }
        }

        // A deterministic sample of point queries through `reaches_batch`
        // (exercising the parallel chunking path) and the chain baseline.
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        if n > 0 {
            let samples = (4 * n).min(4096);
            for k in 0..samples as u64 {
                let s = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n;
                let d = (k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 32) as usize % n;
                pairs.push((NodeId(s as u32), NodeId(d as u32)));
            }
        }
        let answers = self.closure.reaches_batch(&pairs);
        for (&(s, d), &got) in pairs.iter().zip(&answers) {
            let want = rows[s.index()].contains(d.index());
            if got != want {
                return Err((
                    ViolationKind::Oracle,
                    format!("reaches({s:?},{d:?}) = {got}, DFS closure says {want}"),
                ));
            }
        }

        if baseline {
            let chain = ChainIndex::build_greedy(&self.mirror)
                .map_err(|e| (ViolationKind::Baseline, format!("chain build failed: {e:?}")))?;
            for &(s, d) in &pairs {
                let got = chain.reaches(s, d);
                let want = rows[s.index()].contains(d.index());
                if got != want {
                    return Err((
                        ViolationKind::Baseline,
                        format!("chain baseline reaches({s:?},{d:?}) = {got}, DFS says {want}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Forwards one applied op to the lockstep sharded replica (no-op when
    /// sharding is off), flushes it, and runs a sampled comparison against
    /// the closure under test: the front end must reject nothing, the
    /// per-shard writers must skip nothing, and 32 point probes plus 4
    /// decoded successor sets must agree.
    fn forward_sharded(&mut self, op: ServiceOp) -> Result<(), (ViolationKind, String)> {
        let Some(ls) = self.sharded.as_mut() else {
            return Ok(());
        };
        let viol = |detail: String| (ViolationKind::Sharded, detail);
        ls.service.submit(op.clone()).expect("lockstep service closed mid-trace");
        ls.forwarded += 1;
        let stats = ls.service.flush();
        if stats.rejected != 0 {
            return Err(viol(format!(
                "front end rejected {} op(s) the reference engine applied (last forwarded: {op:?})",
                stats.rejected
            )));
        }
        if stats.skipped != 0 {
            return Err(viol(format!(
                "shard writers skipped {} op(s) behind the validating front end (last forwarded: {op:?})",
                stats.skipped
            )));
        }
        if let Some(v) = stats.audit_violation {
            return Err(viol(format!("per-shard audit after {op:?}: {v}")));
        }
        let n = self.mirror.node_count();
        if n == 0 {
            return Ok(());
        }
        let seed = ls.forwarded.wrapping_mul(131);
        for k in 0..32u64 {
            let (s, d) = sample_pair(seed.wrapping_add(k), n);
            let want = self.closure.reaches(s, d);
            let got = ls.reader.reaches(s, d);
            if got != want {
                return Err(viol(format!(
                    "after {op:?}: sharded reaches({s:?},{d:?}) = {got}, closure under test says {want}"
                )));
            }
        }
        for k in 0..4u64 {
            let (v, _) = sample_pair(seed.wrapping_add(64 + k), n);
            let mut got: Vec<NodeId> = ls.reader.successors(v);
            got.sort_unstable_by_key(|u| u.index());
            let mut want: Vec<NodeId> = self.closure.successors(v);
            want.sort_unstable_by_key(|u| u.index());
            if got != want {
                return Err(viol(format!(
                    "after {op:?}: sharded successors({v:?}) = {got:?}, closure under test says {want:?}"
                )));
            }
        }
        Ok(())
    }

    /// Exhaustive comparison of the lockstep sharded replica against the
    /// DFS closure of the mirror: every successor and predecessor set plus
    /// the same deterministic point-query sample as the live oracle, routed
    /// through the scatter-gather batch path. No-op when sharding is off.
    pub fn sharded_full_check(&mut self) -> Result<(), (ViolationKind, String)> {
        let Some(ls) = self.sharded.as_mut() else {
            return Ok(());
        };
        let viol = |detail: String| (ViolationKind::Sharded, detail);
        let n = self.mirror.node_count();
        let rows = traverse::closure_rows(&self.mirror);
        for (v, row) in rows.iter().enumerate() {
            let node = NodeId(v as u32);
            let mut got: Vec<usize> = ls.reader.successors(node).iter().map(|u| u.index()).collect();
            got.sort_unstable();
            let want: Vec<usize> = row.iter().collect();
            if got != want {
                return Err(viol(format!(
                    "sharded successors({v}) = {got:?}, DFS closure says {want:?}"
                )));
            }
            let mut preds: Vec<usize> =
                ls.reader.predecessors(node).iter().map(|u| u.index()).collect();
            preds.sort_unstable();
            let want_preds: Vec<usize> = (0..n).filter(|&u| rows[u].contains(v)).collect();
            if preds != want_preds {
                return Err(viol(format!(
                    "sharded predecessors({v}) = {preds:?}, DFS closure says {want_preds:?}"
                )));
            }
        }
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        if n > 0 {
            let samples = (4 * n).min(4096);
            for k in 0..samples as u64 {
                pairs.push(sample_pair(k, n));
            }
        }
        let answers = ls.reader.reaches_batch(&pairs);
        for (&(s, d), &got) in pairs.iter().zip(&answers) {
            let want = rows[s.index()].contains(d.index());
            if got != want {
                return Err(viol(format!(
                    "sharded batch reaches({s:?},{d:?}) = {got}, DFS closure says {want}"
                )));
            }
        }
        Ok(())
    }

    /// Shuts the lockstep replica down, auditing and verifying the
    /// reassembled [`ShardedClosure`]. No-op when sharding is off.
    pub fn finish_sharded(&mut self) -> Result<(), (ViolationKind, String)> {
        let Some(ls) = self.sharded.take() else {
            return Ok(());
        };
        let viol = |detail: String| (ViolationKind::Sharded, detail);
        let (stats, sc) = ls.service.shutdown();
        if stats.skipped != 0 {
            return Err(viol(format!("shard writers skipped {} op(s)", stats.skipped)));
        }
        if let Some(v) = stats.audit_violation {
            return Err(viol(format!("per-shard audit at shutdown: {v}")));
        }
        sc.audit().map_err(|e| viol(format!("reassembled sharded closure audit: {e}")))?;
        sc.verify().map_err(|e| viol(format!("reassembled sharded closure verify: {e}")))?;
        Ok(())
    }
}

/// The multiplicative-hash pair sample shared by every oracle.
fn sample_pair(k: u64, n: usize) -> (NodeId, NodeId) {
    let s = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n;
    let d = (k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 32) as usize % n;
    (NodeId(s as u32), NodeId(d as u32))
}

/// Checks every answer a pinned service snapshot can give against the DFS
/// closure of the relation as it was at publish time: full successor and
/// predecessor sets, successor counts, and a deterministic sample of point
/// queries (the same multiplicative-hash sample as the live oracle).
fn check_published(view: &PublishedView) -> Result<(), String> {
    let snap = &view.snapshot;
    let n = view.mirror.node_count();
    if snap.node_count() != n {
        return Err(format!(
            "published snapshot has {} nodes, publish-time mirror has {n}",
            snap.node_count()
        ));
    }
    let rows = traverse::closure_rows(&view.mirror);
    for (v, row) in rows.iter().enumerate() {
        let node = NodeId(v as u32);
        let mut got: Vec<usize> = snap.successors(node).iter().map(|u| u.index()).collect();
        got.sort_unstable();
        let want: Vec<usize> = row.iter().collect();
        if got != want {
            return Err(format!("snapshot successors({v}) = {got:?}, publish-time DFS says {want:?}"));
        }
        if snap.successor_count(node) != want.len() {
            return Err(format!(
                "snapshot successor_count({v}) = {}, publish-time DFS says {}",
                snap.successor_count(node),
                want.len()
            ));
        }
        let preds: Vec<usize> = snap.predecessors(node).iter().map(|u| u.index()).collect();
        let want_preds: Vec<usize> = (0..n).filter(|&u| rows[u].contains(v)).collect();
        if preds != want_preds {
            return Err(format!(
                "snapshot predecessors({v}) = {preds:?}, publish-time DFS says {want_preds:?}"
            ));
        }
    }
    if n > 0 {
        let samples = (4 * n).min(4096);
        for k in 0..samples as u64 {
            let s = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n;
            let d = (k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 32) as usize % n;
            let got = snap.reaches(NodeId(s as u32), NodeId(d as u32));
            let want = rows[s].contains(d);
            if got != want {
                return Err(format!(
                    "snapshot reaches({s},{d}) = {got}, publish-time DFS says {want}"
                ));
            }
        }
    }
    Ok(())
}

/// Replays `trace` with the given checks. Panics inside ops propagate —
/// use [`run_trace_catching`] when the trace may crash.
pub fn run_trace(trace: &OpTrace, opts: &CheckOptions) -> Result<RunReport, Violation> {
    run_trace_observed(trace, opts, |_| {})
}

/// [`run_trace`] with a progress callback invoked with each op index just
/// before that op executes — the hook [`run_trace_catching`] uses to
/// attribute panics to a step.
fn run_trace_observed(
    trace: &OpTrace,
    opts: &CheckOptions,
    mut before_step: impl FnMut(usize),
) -> Result<RunReport, Violation> {
    let mut state = EngineState::new(&trace.config)?;
    if opts.shards > 1 {
        state.enable_sharding(opts.shards, &trace.config)?;
    }
    let mut report = RunReport::default();
    let mut since_oracle = 0usize;
    for (step, op) in trace.ops.iter().enumerate() {
        before_step(step);
        let applied = state.apply(op).map_err(|(kind, detail)| Violation {
            step: Some(step),
            kind,
            detail,
        })?;
        if !applied {
            report.skipped += 1;
            continue;
        }
        report.applied += 1;
        if opts.audit_every_step {
            state.closure.audit().map_err(|detail| Violation {
                step: Some(step),
                kind: ViolationKind::Audit,
                detail,
            })?;
        }
        since_oracle += 1;
        if opts.oracle_every > 0 && since_oracle >= opts.oracle_every {
            since_oracle = 0;
            report.oracle_checks += 1;
            state.differential_check(opts.baseline).map_err(|(kind, detail)| Violation {
                step: Some(step),
                kind,
                detail,
            })?;
            state.sharded_full_check().map_err(|(kind, detail)| Violation {
                step: Some(step),
                kind,
                detail,
            })?;
        }
    }
    // Always one final differential pass (audit too, covering all-skipped
    // traces where the per-step audit never ran).
    let last = trace.ops.len().checked_sub(1);
    state.closure.audit().map_err(|detail| Violation {
        step: last,
        kind: ViolationKind::Audit,
        detail,
    })?;
    report.oracle_checks += 1;
    state
        .differential_check(opts.baseline)
        .map_err(|(kind, detail)| Violation { step: last, kind, detail })?;
    state
        .sharded_full_check()
        .map_err(|(kind, detail)| Violation { step: last, kind, detail })?;
    state
        .finish_sharded()
        .map_err(|(kind, detail)| Violation { step: last, kind, detail })?;
    report.final_nodes = state.mirror.node_count();
    report.final_edges = state.mirror.edge_count();
    Ok(report)
}

/// Replays `trace`, converting a panic anywhere in an op or its checks into
/// a [`ViolationKind::Panic`] violation attributed to the op that was
/// executing. The default panic hook still prints the panic message; callers
/// that expect crashes (the shrinker, the CLI) may want to install a quiet
/// hook first.
pub fn run_trace_catching(trace: &OpTrace, opts: &CheckOptions) -> Result<RunReport, Violation> {
    let progress = AtomicUsize::new(usize::MAX);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_trace_observed(trace, opts, |step| progress.store(step, Ordering::Relaxed))
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let at = progress.load(Ordering::Relaxed);
            Err(Violation {
                step: (at != usize::MAX).then_some(at),
                kind: ViolationKind::Panic,
                detail: format!("panicked: {msg}"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{FuzzConfig, Op, OpTrace};

    fn trace(config: FuzzConfig, ops: Vec<Op>) -> OpTrace {
        OpTrace { config, ops }
    }

    #[test]
    fn empty_trace_passes() {
        let r = run_trace(&trace(FuzzConfig::default(), vec![]), &CheckOptions::default()).unwrap();
        assert_eq!(r.applied, 0);
        assert_eq!(r.final_nodes, 0);
    }

    #[test]
    fn diamond_lifecycle_passes() {
        let ops = vec![
            Op::AddNode { parents: vec![] },       // 0
            Op::AddNode { parents: vec![0] },      // 1
            Op::AddNode { parents: vec![0] },      // 2
            Op::AddNode { parents: vec![1, 2] },   // 3
            Op::AddEdge { src: 0, dst: 3 },        // transitive fact, but the direct arc is new
            Op::RemoveEdge { src: 1, dst: 3 },
            Op::RemoveNode { node: 2 },
            Op::Relabel,
            Op::Rebuild,
            Op::SetThreads { threads: 2 },
            Op::AddNode { parents: vec![3, 0, 3] }, // duplicate parent on purpose
        ];
        let r = run_trace(&trace(FuzzConfig::default(), ops), &CheckOptions::default()).unwrap();
        assert_eq!(r.final_nodes, 5);
        assert!(r.oracle_checks >= 1);
    }

    #[test]
    fn skip_rules_swallow_invalid_ops() {
        let ops = vec![
            Op::AddNode { parents: vec![7, 9] }, // out-of-range parents dropped -> root
            Op::AddEdge { src: 0, dst: 0 },      // self-loop: skip
            Op::AddEdge { src: 0, dst: 5 },      // out of range: skip
            Op::AddNode { parents: vec![0] },
            Op::AddEdge { src: 0, dst: 1 },      // already present: skip
            Op::AddEdge { src: 1, dst: 0 },      // would create a cycle: skip
            Op::RemoveEdge { src: 1, dst: 0 },   // absent: skip
            Op::RemoveNode { node: 33 },         // out of range: skip
            Op::Refine { child: 44 },            // out of range: skip
        ];
        let r = run_trace(&trace(FuzzConfig::default(), ops), &CheckOptions::default()).unwrap();
        assert_eq!(r.applied, 2);
        assert_eq!(r.skipped, 7);
    }

    #[test]
    fn refine_applies_with_reserve_and_skips_without() {
        let base = vec![
            Op::AddNode { parents: vec![] },
            Op::AddNode { parents: vec![0] },
            Op::Refine { child: 1 },
        ];
        let with = FuzzConfig { gap: 64, reserve: 4, ..FuzzConfig::default() };
        let r = run_trace(&trace(with, base.clone()), &CheckOptions::default()).unwrap();
        assert_eq!(r.final_nodes, 3);
        let without = FuzzConfig { gap: 64, reserve: 0, ..FuzzConfig::default() };
        let r = run_trace(&trace(without, base), &CheckOptions::default()).unwrap();
        assert_eq!(r.final_nodes, 2);
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn invalid_config_is_a_config_violation() {
        let bad = FuzzConfig { gap: 2, reserve: 1, ..FuzzConfig::default() };
        let v = run_trace(&trace(bad, vec![]), &CheckOptions::default()).unwrap_err();
        assert_eq!(v.kind, ViolationKind::Config);
        assert!(v.step.is_none());
    }

    #[test]
    fn catching_runner_attributes_panics() {
        // A panic injected through a poisoned op is hard to stage from the
        // outside; instead exercise the machinery directly on a healthy
        // trace (no panic -> identical result).
        let ops = vec![Op::AddNode { parents: vec![] }, Op::AddNode { parents: vec![0] }];
        let r = run_trace_catching(&trace(FuzzConfig::default(), ops), &CheckOptions::default())
            .unwrap();
        assert_eq!(r.applied, 2);
    }

    #[test]
    fn service_publish_pins_a_consistent_view() {
        let ops = vec![
            Op::AddNode { parents: vec![] },
            Op::AddNode { parents: vec![0] },
            Op::ServiceQuery, // nothing published yet: skip
            Op::ServicePublish,
            Op::AddNode { parents: vec![1] },
            Op::RemoveEdge { src: 0, dst: 1 },
            Op::ServiceQuery, // must answer from the 2-node publish-time view
            Op::ServicePublish,
            Op::ServiceQuery,
        ];
        let r = run_trace(&trace(FuzzConfig::default(), ops), &CheckOptions::default()).unwrap();
        assert_eq!(r.skipped, 1);
        assert_eq!(r.applied, 8);
    }

    #[test]
    fn sharded_lockstep_matches_on_a_churny_trace() {
        let ops = vec![
            Op::AddNode { parents: vec![] },     // 0
            Op::AddNode { parents: vec![] },     // 1 (second shard fills)
            Op::AddNode { parents: vec![0] },    // 2
            Op::AddNode { parents: vec![1] },    // 3
            Op::AddEdge { src: 2, dst: 3 },      // cross-shard arc
            Op::AddNode { parents: vec![2, 3] }, // cross-shard parents
            Op::AddEdge { src: 3, dst: 0 },      // would create a cycle: skip
            Op::RemoveEdge { src: 2, dst: 3 },
            Op::Relabel,
            Op::RemoveNode { node: 1 },
            Op::AddEdge { src: 0, dst: 3 },
            Op::Rebuild,
        ];
        let opts = CheckOptions { shards: 3, ..CheckOptions::default() };
        let r = run_trace(&trace(FuzzConfig::default(), ops), &opts).unwrap();
        assert_eq!(r.applied, 11);
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn sharded_lockstep_covers_refinement() {
        let cfg = FuzzConfig { gap: 64, reserve: 4, ..FuzzConfig::default() };
        let ops = vec![
            Op::AddNode { parents: vec![] },  // 0
            Op::AddNode { parents: vec![] },  // 1
            Op::AddNode { parents: vec![0] }, // 2
            Op::AddEdge { src: 1, dst: 2 },   // cross-shard arc; 2 now has two parents
            Op::Refine { child: 2 },          // interposes 3 between {0,1} and 2
            Op::AddNode { parents: vec![3] },
        ];
        let opts = CheckOptions { shards: 2, ..CheckOptions::default() };
        let r = run_trace(&trace(cfg, ops), &opts).unwrap();
        assert_eq!(r.applied, 6);
        assert_eq!(r.final_nodes, 5);
    }

    #[test]
    fn paged_probe_round_trips_through_every_state() {
        let cfg = FuzzConfig { gap: 32, reserve: 3, ..FuzzConfig::default() };
        let ops = vec![
            Op::PagedProbe, // empty relation: still round-trips
            Op::AddNode { parents: vec![] },
            Op::AddNode { parents: vec![0] },
            Op::AddNode { parents: vec![0] },
            Op::AddEdge { src: 1, dst: 2 },
            Op::PagedProbe,
            Op::Refine { child: 2 },
            Op::RemoveNode { node: 1 }, // tombstones
            Op::PagedProbe,
            Op::Freeze, // probe while a resident plane is live too
            Op::PagedProbe,
            Op::Relabel,
            Op::PagedProbe,
        ];
        let r = run_trace(&trace(cfg, ops), &CheckOptions::default()).unwrap();
        assert_eq!(r.skipped, 0);
        assert_eq!(r.final_nodes, 4);
    }

    #[test]
    fn quarantined_node_can_be_reused() {
        let ops = vec![
            Op::AddNode { parents: vec![] },
            Op::AddNode { parents: vec![0] },
            Op::RemoveNode { node: 0 },
            Op::AddEdge { src: 1, dst: 0 }, // resurrect the removed node as a leaf
            Op::AddNode { parents: vec![0] },
        ];
        let r = run_trace(&trace(FuzzConfig::default(), ops), &CheckOptions::default()).unwrap();
        assert_eq!(r.applied, 5);
        assert_eq!(r.final_nodes, 3);
    }
}
