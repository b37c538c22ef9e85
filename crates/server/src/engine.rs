//! The serving engine: one [`ShardedService`] plus the dictionary, shared
//! by every connection.
//!
//! Reads never lock the engine: each connection owns a
//! [`ShardedReader`] whose answers come from epoch-validated snapshots.
//! Writes take the dictionary's write lock for exactly as long as it takes
//! to validate keys and hand the op to the validating front end — id
//! assignment is synchronous there (see
//! [`ShardedService::submit_with_outcome`]), so a new node's key is bound
//! before the response line is written, while the actual closure update
//! proceeds on the background shard writers.
//!
//! A background *flusher* thread bounds staleness and paces publishes: it
//! publishes at most once per `flush_interval`. A write that arrives after
//! at least one interval of quiet is published at once (the leading edge);
//! writes that arrive within an interval of the last publish wait for that
//! interval to end and are published together (the trailing edge), so a
//! write burst costs one publish and one freeze per shard per interval,
//! not one per write. Readers answer from the view of the last flush —
//! exactly the accepted writes up to that flush, across all shards; an
//! accepted write stays invisible for at most one interval plus one
//! freeze. The `flush` verb, an `ask isa` with KB writes pending, and
//! `close` publish immediately. The `stats` verb's `staleness` counts the
//! writes accepted since the connection's pinned view.
//!
//! The KB verbs (`define-rule` / `assert` / `retract` / `ask`) drive a
//! [`tc_kb::KnowledgeBase`] behind a mutex. Every IS-A arc the rule engine
//! adds or removes — base or derived — is forwarded from the KB's journal
//! into the sharded service, so `ask isa` answers through the same
//! epoch-validated reader snapshots as `reaches`; an `ask` only flushes
//! when KB writes are actually pending, so query windows between writes
//! run at full snapshot-read speed. PART-OF stays resident in the KB's own
//! closure (the service mirrors one relation), so `ask partof` answers
//! from the KB directly. Concept names are also bound in the shared
//! dictionary when free, which makes KB concepts visible to the generic
//! graph verbs (`successors kb-concept`, ...).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::collections::HashMap;

use tc_core::shard::SubmitOutcome;
use tc_core::{ServiceOp, ShardedClosure, ShardedReader, ShardedService, ShardedStats};
use tc_graph::NodeId;
use tc_kb::{KbChange, KbCommand, KbError, KnowledgeBase, Pred};

use crate::dict::{valid_key, Dict};
use crate::proto::{parse, ProtoError, Request};

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The background flusher's pacing: it publishes at most once per
    /// interval. A write after an interval of quiet publishes at once; later
    /// writes within the interval are published together when it ends.
    pub flush_interval: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { flush_interval: Duration::from_millis(25) }
    }
}

struct FlusherState {
    dirty: bool,
    stop: bool,
}

/// The knowledge base behind the KB verbs, plus the mapping from its dense
/// concept ids to the service node ids its IS-A arcs were forwarded under.
struct KbState {
    kb: KnowledgeBase,
    node_of: HashMap<u32, NodeId>,
}

/// The shared serving engine. Cheap to share via `Arc`; connections call
/// [`Engine::handle`] with their own reader.
pub struct Engine {
    service: ShardedService,
    dict: RwLock<Dict>,
    kb: Mutex<KbState>,
    /// KB writes forwarded to the service but not yet flushed; the next
    /// `ask isa` flushes once and clears this, so reads between writes stay
    /// pure snapshot probes.
    kb_dirty: AtomicBool,
    closed: AtomicBool,
    flusher: Mutex<Option<JoinHandle<()>>>,
    fl: Arc<(Mutex<FlusherState>, Condvar)>,
}

impl Engine {
    /// Starts the engine over a built sharded closure and its dictionary,
    /// spawning the background flusher.
    pub fn start(closure: ShardedClosure, dict: Dict, config: EngineConfig) -> Arc<Engine> {
        let service = ShardedService::start(closure, tc_core::ServiceConfig::new());
        let engine = Arc::new(Engine {
            service,
            dict: RwLock::new(dict),
            kb: Mutex::new(KbState { kb: KnowledgeBase::new(), node_of: HashMap::new() }),
            kb_dirty: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            flusher: Mutex::new(None),
            fl: Arc::new((Mutex::new(FlusherState { dirty: false, stop: false }), Condvar::new())),
        });
        let worker = Arc::clone(&engine);
        let interval = config.flush_interval;
        let handle = std::thread::Builder::new()
            .name("tc-flusher".into())
            .spawn(move || worker.flusher_loop(interval))
            .expect("spawn flusher");
        *engine.flusher.lock().expect("flusher slot poisoned") = Some(handle);
        engine
    }

    /// Publishes pending writes at most once per `interval`: at once if
    /// the last publish is an interval old (leading edge), otherwise when
    /// its interval ends (trailing edge). Stops without a flush of its own;
    /// [`Engine::close`] publishes the last writes.
    fn flusher_loop(&self, interval: Duration) {
        let (lock, cv) = &*self.fl;
        let mut last: Option<Instant> = None;
        loop {
            {
                let mut st = lock.lock().expect("flusher state poisoned");
                while !st.dirty && !st.stop {
                    st = cv.wait(st).expect("flusher state poisoned");
                }
                let due = last.map(|t| t + interval);
                while let Some(wait) = due.and_then(|d| d.checked_duration_since(Instant::now())) {
                    if st.stop {
                        break;
                    }
                    st = cv.wait_timeout(st, wait).expect("flusher state poisoned").0;
                }
                if st.stop {
                    return;
                }
                st.dirty = false;
            }
            last = Some(Instant::now());
            self.service.flush();
        }
    }

    fn mark_dirty(&self) {
        let (lock, cv) = &*self.fl;
        // Only the first write since the last publish wakes the flusher.
        if !std::mem::replace(&mut lock.lock().expect("flusher state poisoned").dirty, true) {
            cv.notify_all();
        }
    }

    /// A zero-lock reader for one connection.
    pub fn reader(&self) -> ShardedReader {
        self.service.reader()
    }

    /// Drains the shard writers and republishes now; after this returns,
    /// reads are exact with respect to every admitted write.
    pub fn flush(&self) -> ShardedStats {
        self.service.flush()
    }

    /// Current engine counters without forcing a flush.
    pub fn stats(&self) -> ShardedStats {
        self.service.stats()
    }

    /// Whether [`Engine::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closes the engine: later writes answer `err closed`, every admitted
    /// write is drained and published, the flusher stops. Reads keep
    /// working off the final snapshots. Idempotent.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.service.close();
        let (lock, cv) = &*self.fl;
        {
            let mut st = lock.lock().expect("flusher state poisoned");
            st.stop = true;
            st.dirty = false;
        }
        cv.notify_all();
        let handle = self.flusher.lock().expect("flusher slot poisoned").take();
        if let Some(h) = handle {
            // A panicking flusher must not take the daemon down with it.
            if h.join().is_err() {
                eprintln!("tc-server: flusher thread panicked; continuing without it");
            }
        }
        self.service.flush();
    }

    /// A snapshot of the dictionary (for persistence).
    pub fn dict_bytes(&self) -> Vec<u8> {
        self.dict.read().expect("dict poisoned").to_bytes()
    }

    /// Parses and executes one request line, returning the response line
    /// (no terminator). Never panics on malformed input; semantic
    /// rejections answer `ok rejected`.
    pub fn handle(&self, reader: &mut ShardedReader, line: &str) -> String {
        match parse(line) {
            Err(e) => e.line(),
            Ok(req) => self.dispatch(reader, req),
        }
    }

    fn dispatch(&self, reader: &mut ShardedReader, req: Request<'_>) -> String {
        match req {
            Request::Ping => "ok pong".to_owned(),
            Request::Flush => {
                self.flush();
                "ok flushed".to_owned()
            }
            Request::Shutdown => {
                self.close();
                "ok bye".to_owned()
            }
            Request::Stats => {
                let s = self.stats();
                let dict = self.dict.read().expect("dict poisoned");
                format!(
                    "ok submitted={} rejected={} routed={} applied={} skipped={} \
                     publishes={} staleness={} keys={} tombstones={} freezes={}",
                    s.submitted,
                    s.rejected,
                    s.routed,
                    s.applied,
                    s.skipped,
                    s.publishes,
                    reader.staleness(),
                    dict.live_count(),
                    dict.tombstone_count(),
                    s.freezes,
                )
            }
            Request::Reaches(a, b) => match self.resolve2(a, b) {
                Err(e) => e.line(),
                Ok((src, dst)) => format!("ok {}", reader.reaches(src, dst)),
            },
            Request::ReachesBatch(pairs) => {
                let ids = {
                    let dict = self.dict.read().expect("dict poisoned");
                    let mut ids = Vec::with_capacity(pairs.len());
                    for (a, b) in &pairs {
                        match (dict.resolve(a), dict.resolve(b)) {
                            (Some(s), Some(d)) => ids.push((s, d)),
                            _ => return ProtoError::UnknownKey.line(),
                        }
                    }
                    ids
                };
                let bits = reader.reaches_batch(&ids);
                let mut out = String::with_capacity(3 + 2 * bits.len());
                out.push_str("ok");
                for b in bits {
                    out.push(' ');
                    out.push(if b { '1' } else { '0' });
                }
                out
            }
            Request::Successors(k) => self.render_set(k, |r, id| r.successors(id), reader),
            Request::Predecessors(k) => self.render_set(k, |r, id| r.predecessors(id), reader),
            Request::AddNode { key, parents } => {
                let mut dict = self.dict.write().expect("dict poisoned");
                if !valid_key(key) {
                    return ProtoError::BadRequest("invalid key").line();
                }
                if dict.resolve(key).is_some() {
                    return ProtoError::Exists.line();
                }
                let mut pids = Vec::with_capacity(parents.len());
                for p in &parents {
                    match dict.resolve(p) {
                        Some(id) => pids.push(id),
                        None => return ProtoError::UnknownKey.line(),
                    }
                }
                match self.service.submit_with_outcome(ServiceOp::AddNode { parents: pids }) {
                    Err(_) => ProtoError::Closed.line(),
                    Ok((_, SubmitOutcome::Routed { new_node: Some(id) })) => {
                        self.mark_dirty();
                        // A dictionary handed to `Engine::start` may already
                        // name this id; the node exists either way, so the
                        // request fails without a panic under the guard.
                        match dict.bind(id, key) {
                            Ok(()) => "ok added".to_owned(),
                            Err(e) => format!("err internal node {} not bound: {e}", id.0),
                        }
                    }
                    Ok(_) => "ok rejected".to_owned(),
                }
            }
            Request::AddEdge(a, b) => self.write_pair(a, b, |s, d| ServiceOp::AddEdge {
                src: s,
                dst: d,
            }, "added"),
            Request::RemoveEdge(a, b) => self.write_pair(a, b, |s, d| ServiceOp::RemoveEdge {
                src: s,
                dst: d,
            }, "removed"),
            Request::DefineRule(text) => self.kb_mutate(&format!("rule {text}")),
            Request::Assert { rel, a, b } => self.kb_mutate(&format!("assert {rel} {a} {b}")),
            Request::Retract { rel, a, b } => self.kb_mutate(&format!("retract {rel} {a} {b}")),
            Request::Ask { rel, a, b } => self.kb_ask(reader, rel, a, b),
            Request::RemoveNode(k) => {
                let mut dict = self.dict.write().expect("dict poisoned");
                let Some(id) = dict.resolve(k) else {
                    return ProtoError::UnknownKey.line();
                };
                match self.service.submit_with_outcome(ServiceOp::RemoveNode { node: id }) {
                    Err(_) => ProtoError::Closed.line(),
                    Ok((_, SubmitOutcome::Routed { .. })) => {
                        dict.unbind(id);
                        self.mark_dirty();
                        "ok removed".to_owned()
                    }
                    Ok(_) => "ok rejected".to_owned(),
                }
            }
        }
    }

    /// Executes one mutating KB command through the shared command layer,
    /// then forwards the journaled IS-A closure changes into the service.
    fn kb_mutate(&self, line: &str) -> String {
        if self.is_closed() {
            return ProtoError::Closed.line();
        }
        let cmd = match KbCommand::parse(line) {
            Ok(c) => c,
            Err(e) => return format!("err bad-request {e}"),
        };
        let mut st = self.kb.lock().expect("kb poisoned");
        let answer = match cmd.execute(&mut st.kb) {
            Ok(a) => a,
            Err(KbError::UnknownConcept(_)) => return ProtoError::UnknownKey.line(),
            Err(e) => return format!("err bad-request {e}"),
        };
        if let Err(resp) = self.kb_forward(&mut st) {
            return resp;
        }
        format!("ok {answer}")
    }

    /// Drains the KB journal into the sharded service: new concepts become
    /// service nodes (bound in the dictionary when the name is free, so the
    /// generic graph verbs can see them), IS-A arc changes — asserted and
    /// rule-derived alike — become edge ops. PART-OF changes stay resident
    /// in the KB's own closure.
    fn kb_forward(&self, st: &mut KbState) -> Result<(), String> {
        let mut wrote = false;
        for change in st.kb.take_journal() {
            match change {
                KbChange::NewConcept { id, name } => {
                    match self.service.submit_with_outcome(ServiceOp::AddNode { parents: vec![] })
                    {
                        Err(_) => return Err(ProtoError::Closed.line()),
                        Ok((_, SubmitOutcome::Routed { new_node: Some(nid) })) => {
                            st.node_of.insert(id, nid);
                            wrote = true;
                            let mut dict = self.dict.write().expect("dict poisoned");
                            // Best effort: a name that is taken, or an id the
                            // dictionary already names, stays unbound.
                            if valid_key(&name) && dict.resolve(&name).is_none() {
                                let _ = dict.bind(nid, &name);
                            }
                        }
                        Ok(_) => {
                            return Err("err internal kb concept rejected by service".to_owned())
                        }
                    }
                }
                KbChange::EdgeAdded { pred: Pred::IsA, src, dst, .. } => {
                    let (Some(&s), Some(&d)) = (st.node_of.get(&src), st.node_of.get(&dst))
                    else {
                        continue;
                    };
                    match self
                        .service
                        .submit_with_outcome(ServiceOp::AddEdge { src: s, dst: d })
                    {
                        Err(_) => return Err(ProtoError::Closed.line()),
                        Ok(_) => wrote = true,
                    }
                }
                KbChange::EdgeRemoved { pred: Pred::IsA, src, dst } => {
                    let (Some(&s), Some(&d)) = (st.node_of.get(&src), st.node_of.get(&dst))
                    else {
                        continue;
                    };
                    match self
                        .service
                        .submit_with_outcome(ServiceOp::RemoveEdge { src: s, dst: d })
                    {
                        Err(_) => return Err(ProtoError::Closed.line()),
                        Ok(_) => wrote = true,
                    }
                }
                // PART-OF is answered from the KB's resident closure.
                KbChange::EdgeAdded { .. } | KbChange::EdgeRemoved { .. } => {}
            }
        }
        if wrote {
            self.kb_dirty.store(true, Ordering::Release);
            self.mark_dirty();
        }
        Ok(())
    }

    /// `ask rel a b`. IS-A probes resolve to service node ids and answer
    /// through the connection's epoch-validated reader — the same path as
    /// `reaches` — flushing first only if KB writes are pending. PART-OF
    /// probes answer from the KB's own closure.
    fn kb_ask(&self, reader: &mut ShardedReader, rel: &str, a: &str, b: &str) -> String {
        let Some(pred) = Pred::parse(rel) else {
            return format!("err bad-request unknown relation {rel:?} (want isa or partof)");
        };
        let st = self.kb.lock().expect("kb poisoned");
        match pred {
            Pred::PartOf => match st.kb.ask(pred, a, b) {
                Ok(v) => format!("ok {v}"),
                Err(KbError::UnknownConcept(_)) => ProtoError::UnknownKey.line(),
                Err(e) => format!("err bad-request {e}"),
            },
            Pred::IsA => {
                let ids = (
                    st.kb.concept_id(a).and_then(|x| st.node_of.get(&x).copied()),
                    st.kb.concept_id(b).and_then(|y| st.node_of.get(&y).copied()),
                );
                let (Some(s), Some(d)) = ids else {
                    return ProtoError::UnknownKey.line();
                };
                drop(st);
                if self.kb_dirty.swap(false, Ordering::AcqRel) {
                    self.flush();
                }
                // The KB relation is strict; the closure is reflexive.
                format!("ok {}", s != d && reader.reaches(s, d))
            }
        }
    }

    fn resolve2(&self, a: &str, b: &str) -> Result<(NodeId, NodeId), ProtoError> {
        let dict = self.dict.read().expect("dict poisoned");
        match (dict.resolve(a), dict.resolve(b)) {
            (Some(s), Some(d)) => Ok((s, d)),
            _ => Err(ProtoError::UnknownKey),
        }
    }

    /// Writes that take two existing keys and map to one op; `verb` is the
    /// success token (`added` / `removed`).
    fn write_pair(
        &self,
        a: &str,
        b: &str,
        op: impl FnOnce(NodeId, NodeId) -> ServiceOp,
        verb: &str,
    ) -> String {
        let dict = self.dict.write().expect("dict poisoned");
        let (src, dst) = match (dict.resolve(a), dict.resolve(b)) {
            (Some(s), Some(d)) => (s, d),
            _ => return ProtoError::UnknownKey.line(),
        };
        match self.service.submit_with_outcome(op(src, dst)) {
            Err(_) => ProtoError::Closed.line(),
            Ok((_, SubmitOutcome::Routed { .. })) => {
                drop(dict);
                self.mark_dirty();
                format!("ok {verb}")
            }
            Ok((_, SubmitOutcome::Noop)) => "ok noop".to_owned(),
            Ok((_, SubmitOutcome::Rejected)) => "ok rejected".to_owned(),
        }
    }

    /// Renders a successor/predecessor set as sorted keys. Ids whose slot
    /// is tombstoned (a removal racing this read's snapshot) are skipped:
    /// they are unreachable by name.
    fn render_set(
        &self,
        key: &str,
        query: impl FnOnce(&mut ShardedReader, NodeId) -> Vec<NodeId>,
        reader: &mut ShardedReader,
    ) -> String {
        let id = {
            let dict = self.dict.read().expect("dict poisoned");
            match dict.resolve(key) {
                Some(id) => id,
                None => return ProtoError::UnknownKey.line(),
            }
        };
        let ids = query(reader, id);
        let dict = self.dict.read().expect("dict poisoned");
        let mut keys: Vec<&str> = ids.iter().filter_map(|&v| dict.key(v)).collect();
        keys.sort_unstable();
        let mut out = String::from("ok");
        for k in keys {
            out.push(' ');
            out.push_str(k);
        }
        out
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::ClosureConfig;
    use tc_graph::DiGraph;

    fn engine() -> (Arc<Engine>, ShardedReader) {
        let g = DiGraph::from_edges([(0, 1), (1, 2)]);
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 1).unwrap();
        let e = Engine::start(sc, Dict::with_default_keys(3), EngineConfig::default());
        let r = e.reader();
        (e, r)
    }

    #[test]
    fn reads_and_writes_roundtrip_by_key() {
        let (e, mut r) = engine();
        assert_eq!(e.handle(&mut r, "ping"), "ok pong");
        assert_eq!(e.handle(&mut r, "reaches n0 n2"), "ok true");
        assert_eq!(e.handle(&mut r, "reaches n2 n0"), "ok false");
        assert_eq!(e.handle(&mut r, "add-node leaf n2"), "ok added");
        assert_eq!(e.handle(&mut r, "flush"), "ok flushed");
        assert_eq!(e.handle(&mut r, "reaches n0 leaf"), "ok true");
        assert_eq!(e.handle(&mut r, "reaches-batch n0 leaf leaf n0"), "ok 1 0");
        assert_eq!(e.handle(&mut r, "successors n1"), "ok leaf n1 n2"); // reflexive
        assert_eq!(e.handle(&mut r, "predecessors leaf"), "ok leaf n0 n1 n2");
        assert_eq!(e.handle(&mut r, "add-edge leaf n0"), "ok rejected"); // cycle
        assert_eq!(e.handle(&mut r, "add-edge n2 leaf"), "ok noop"); // duplicate
        assert_eq!(e.handle(&mut r, "remove-node leaf"), "ok removed");
        assert_eq!(e.handle(&mut r, "flush"), "ok flushed");
        assert_eq!(e.handle(&mut r, "reaches n0 leaf"), "err unknown-key no node by that key");
        assert_eq!(e.handle(&mut r, "add-node leaf n0"), "ok added"); // name reuse
        e.close();
    }

    #[test]
    fn protocol_errors_do_not_disturb_the_engine() {
        let (e, mut r) = engine();
        assert!(e.handle(&mut r, "frobnicate").starts_with("err unknown-verb"));
        assert!(e.handle(&mut r, "reaches n0").starts_with("err bad-request"));
        assert!(e.handle(&mut r, "reaches nope n0").starts_with("err unknown-key"));
        assert!(e.handle(&mut r, "add-node bad\u{7f}key").starts_with("err bad-request"));
        assert!(e.handle(&mut r, "add-node n0").starts_with("err exists"));
        assert_eq!(e.handle(&mut r, "reaches n0 n2"), "ok true");
        let stats = e.stats();
        assert_eq!(stats.submitted, 0, "failed requests never touch the service");
        e.close();
    }

    #[test]
    fn kb_verbs_serve_rule_driven_inference_over_the_wire() {
        let (e, mut r) = engine();
        assert_eq!(
            e.handle(&mut r, "define-rule up: isa(X, Y) :- partof(X, Z), isa(Z, Y)"),
            "ok rule up"
        );
        assert_eq!(e.handle(&mut r, "assert partof engine piston"), "ok applied");
        assert_eq!(e.handle(&mut r, "assert isa piston forged"), "ok applied");
        // The derived isa(engine, forged) arc was forwarded to the service;
        // ask answers through the reader snapshot, flushing the pending
        // writes itself.
        assert_eq!(e.handle(&mut r, "ask isa engine forged"), "ok true");
        assert_eq!(e.handle(&mut r, "ask isa forged engine"), "ok false");
        assert_eq!(e.handle(&mut r, "ask partof engine piston"), "ok true");
        // Strictness: a concept neither subsumes itself nor is its own part.
        assert_eq!(e.handle(&mut r, "ask isa engine engine"), "ok false");
        // Concept names were bound in the shared dictionary, so generic
        // graph verbs see the KB's IS-A relation too.
        assert_eq!(e.handle(&mut r, "reaches engine forged"), "ok true");
        // Retraction cascades: the derived arc falls with its support, and
        // the removal is forwarded so the service agrees.
        assert_eq!(e.handle(&mut r, "retract partof engine piston"), "ok removed");
        assert_eq!(e.handle(&mut r, "ask isa engine forged"), "ok false");
        assert_eq!(e.handle(&mut r, "ask partof engine piston"), "ok false");
        e.close();
    }

    #[test]
    fn kb_verbs_fail_closed_on_bad_input() {
        let (e, mut r) = engine();
        assert!(e.handle(&mut r, "ask isa ghost gone").starts_with("err unknown-key"));
        assert!(e.handle(&mut r, "ask friendof a b").starts_with("err bad-request"));
        assert!(e
            .handle(&mut r, "define-rule broken: isa(X, Y) :- ")
            .starts_with("err bad-request"));
        assert!(e
            .handle(&mut r, "retract isa never asserted")
            .starts_with("err unknown-key"));
        assert_eq!(e.handle(&mut r, "assert isa a b"), "ok applied");
        // Both concepts exist, but isa(b, a) was never a base fact.
        assert!(e.handle(&mut r, "retract isa b a").starts_with("err bad-request"));
        assert_eq!(e.handle(&mut r, "assert isa b a"), "ok rejected"); // cycle
        assert_eq!(e.handle(&mut r, "assert isa a b"), "ok noop");
        e.close();
        assert!(e.handle(&mut r, "assert isa c d").starts_with("err closed"));
    }

    #[test]
    fn failed_key_bind_answers_err_and_keeps_the_dictionary_usable() {
        // Live slots past the closure's node count: the next new node gets
        // id 3, which the dictionary already names.
        let g = DiGraph::from_edges([(0, 1), (1, 2)]);
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 1).unwrap();
        let e = Engine::start(sc, Dict::with_default_keys(5), EngineConfig::default());
        let mut r = e.reader();
        assert!(e.handle(&mut r, "add-node x n0").starts_with("err internal"));
        assert_eq!(e.handle(&mut r, "reaches n0 n2"), "ok true");
        let answer = e.handle(&mut r, "add-node y n2");
        assert_eq!(answer, "err internal node 4 not bound: node already has a key");
        assert_eq!(e.handle(&mut r, "reaches n1 n2"), "ok true");
        e.close();
    }

    #[test]
    fn closed_engine_rejects_writes_but_serves_reads() {
        let (e, mut r) = engine();
        assert_eq!(e.handle(&mut r, "add-node leaf n2"), "ok added");
        assert_eq!(e.handle(&mut r, "shutdown"), "ok bye");
        assert!(e.is_closed());
        assert!(e.handle(&mut r, "add-edge n0 n2").starts_with("err closed"));
        assert!(e.handle(&mut r, "add-node more n0").starts_with("err closed"));
        assert!(e.handle(&mut r, "remove-node n0").starts_with("err closed"));
        // The admitted write was drained and published by close().
        assert_eq!(e.handle(&mut r, "reaches n0 leaf"), "ok true");
        e.close(); // idempotent
    }

    /// An engine over the chain n0 -> n1 -> ... -> n59 whose flusher
    /// publishes at most once per `interval`.
    fn paced(interval: Duration) -> (Arc<Engine>, ShardedReader) {
        let g = DiGraph::from_edges((0..59).map(|i| (i, i + 1)));
        let sc = ShardedClosure::build(ClosureConfig::new(), &g, 1).unwrap();
        let config = EngineConfig { flush_interval: interval };
        let e = Engine::start(sc, Dict::with_default_keys(60), config);
        let r = e.reader();
        (e, r)
    }

    /// Polls until the reader's view holds every accepted write; returns
    /// how long that took, or `None` past `limit`.
    fn wait_published(r: &mut ShardedReader, limit: Duration) -> Option<Duration> {
        let t = Instant::now();
        while t.elapsed() < limit {
            r.snapshot();
            if r.staleness() == 0 {
                return Some(t.elapsed());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn a_write_after_quiet_publishes_on_the_leading_edge() {
        let interval = Duration::from_secs(2);
        let (e, mut r) = paced(interval);
        for (round, write) in ["add-edge n0 n2", "add-edge n1 n3"].into_iter().enumerate() {
            assert_eq!(e.handle(&mut r, write), "ok added");
            let took = wait_published(&mut r, Duration::from_secs(10)).expect("never published");
            assert!(took < interval / 2, "write {round} after quiet waited {took:?}");
            // A full interval of quiet before the next write.
            std::thread::sleep(interval + Duration::from_millis(200));
        }
        assert_eq!(e.stats().publishes, 3, "the initial view plus one per write");
        e.close();
    }

    #[test]
    fn a_write_burst_publishes_once_per_interval() {
        let interval = Duration::from_secs(2);
        let (e, mut r) = paced(interval);
        let p0 = e.stats().publishes;
        let t0 = Instant::now();
        for i in 0..50 {
            let line = format!("add-edge n{i} n{}", i + 2);
            assert_eq!(e.handle(&mut r, &line), "ok added");
        }
        std::thread::sleep(Duration::from_millis(200).saturating_sub(t0.elapsed()));
        let p1 = e.stats().publishes;
        assert!(p1 - p0 <= 2, "{} publishes within 200 ms of a 50-write burst", p1 - p0);
        r.snapshot();
        if r.staleness() > 0 {
            // The rest of the burst waits for the trailing edge.
            wait_published(&mut r, Duration::from_secs(10)).expect("never published");
            let at = t0.elapsed();
            assert!(at >= interval, "trailing publish after {at:?}, before one interval");
            assert_eq!(e.stats().publishes, p1 + 1, "one trailing publish for the burst");
        }
        assert_eq!(e.handle(&mut r, "reaches n49 n51"), "ok true");
        assert!(e.stats().freezes <= e.stats().publishes - p0, "one shard, one freeze a publish");
        e.close();
    }

    #[test]
    fn flush_ask_and_close_publish_immediately_under_a_long_interval() {
        let (e, mut r) = paced(Duration::from_secs(60));
        // The first write takes the leading edge; the next ones would wait
        // a minute for the flusher.
        assert_eq!(e.handle(&mut r, "add-node leaf n59"), "ok added");
        wait_published(&mut r, Duration::from_secs(10)).expect("leading edge never published");
        assert_eq!(e.handle(&mut r, "add-node twig n59"), "ok added");
        assert_eq!(e.handle(&mut r, "reaches n0 twig"), "ok false", "not published yet");
        assert_eq!(e.handle(&mut r, "flush"), "ok flushed");
        assert_eq!(e.handle(&mut r, "reaches n0 twig"), "ok true");

        assert_eq!(e.handle(&mut r, "assert isa a b"), "ok applied");
        assert_eq!(e.handle(&mut r, "assert isa b c"), "ok applied");
        assert_eq!(e.handle(&mut r, "ask isa a c"), "ok true", "ask flushes its own writes");
        let stats = e.handle(&mut r, "stats");
        assert!(stats.ends_with(" freezes=3"), "three publishing flushes: {stats}");

        assert_eq!(e.handle(&mut r, "add-node bud n59"), "ok added");
        let t = Instant::now();
        e.close();
        assert!(t.elapsed() < Duration::from_secs(10), "close waited for the interval");
        assert_eq!(e.handle(&mut r, "reaches n0 bud"), "ok true", "close publishes");
    }
}
