//! The traced run's in-process half: replays requests through each layer's
//! public functions, timed from this benchmark's own code, and measures
//! each layer on the workload's graph.

use std::hint::black_box;
use std::time::Instant;

use tc_core::{
    ClosureConfig, ServiceConfig, ServiceOp, ShardedClosure, ShardedService, SubmitOutcome,
};
use tc_graph::topo::CutoffLabels;
use tc_graph::{DiGraph, NodeId};
use tc_kb::{KbCommand, KnowledgeBase, Pred};
use tc_ledger::{median, Histogram};
use tc_server::{parse, Dict, Engine, EngineConfig, Request};

use crate::inputs::{write_arcs, KbWindow, PairPool, Rng, KB_RULES};
use crate::{Checks, Metric, Span};

/// Buffer-pool pages of every paged plane: about 1/16 of the `batch_paged`
/// plane, so its working set does not fit.
pub const POOL_PAGES: usize = 365;
/// Write cycles (4 ops each) replayed on the replica closure and service.
const CYCLES: usize = 8;
/// Freezes timed per plane kind.
const FREEZES: usize = 3;
/// Sources whose successor sets the plane metrics decode.
const SUCC_PROBES: usize = 256;
/// Clock reads timed to learn what one costs.
const CLOCK_CALLS: u32 = 10_000;

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One request broken into layer calls, summed over a replay.
#[derive(Debug, Default)]
pub struct Decomp {
    parse: Histogram,
    /// Per request; `keys` says how many keys that covered.
    resolve: Histogram,
    keys: u64,
    /// Per request; `probes` says how many pairs that covered.
    reader: Histogram,
    probes: u64,
    /// PART-OF asks, answered by the KB's own closure.
    kb: Histogram,
    render: Histogram,
    handle: Histogram,
    start: Option<Instant>,
    /// What one `Instant::now()` costs: every timed interval holds about
    /// one, and it is taken back out of each layer's time.
    clock_ns: f64,
    /// Replay spans: a `replay` parent per request with its children, and
    /// the `engine.handle` call on the same line.
    pub spans: Vec<Span>,
    /// Responses that disagreed with `Engine::handle`.
    pub checks: Checks,
}

/// Timestamps around one decomposed request.
struct Marks {
    t: [Instant; 5],
    layer: &'static str,
}

impl Decomp {
    /// An empty decomposition whose span clock starts now.
    fn starting_now() -> Decomp {
        let t = Instant::now();
        for _ in 0..CLOCK_CALLS {
            black_box(Instant::now());
        }
        let clock_ns = ns(t.elapsed()) as f64 / CLOCK_CALLS as f64;
        Decomp {
            start: Some(Instant::now()),
            clock_ns,
            ..Decomp::default()
        }
    }

    /// Total time in `h`, less one clock read per sample.
    fn net(&self, h: &Histogram) -> f64 {
        (total(h) - h.count() as f64 * self.clock_ns).max(0.0)
    }

    fn since(&self, t: Instant) -> u64 {
        ns(t.saturating_duration_since(self.start.expect("set by starting_now")))
    }

    /// Records one decomposed request and compares its rendering with the
    /// engine's.
    fn add(&mut self, id: u64, m: Marks, rendered: &str, handle: (Instant, Instant), want: &str) {
        let [t0, t1, t2, t3, t4] = m.t;
        self.parse.record_duration(t1 - t0);
        self.resolve.record_duration(t2 - t1);
        if m.layer == "shard.reader" {
            self.reader.record_duration(t3 - t2);
        } else {
            self.kb.record_duration(t3 - t2);
        }
        self.render.record_duration(t4 - t3);
        self.handle.record_duration(handle.1 - handle.0);
        let spans = [
            ("replay", None, t0, t4),
            ("proto.parse", Some("replay"), t0, t1),
            ("dict.resolve", Some("replay"), t1, t2),
            (m.layer, Some("replay"), t2, t3),
            ("render", Some("replay"), t3, t4),
            ("engine.handle", None, handle.0, handle.1),
        ];
        for (name, parent, a, b) in spans {
            let (start_ns, end_ns) = (self.since(a), self.since(b));
            self.spans.push(Span {
                req: id,
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
        self.checks.attempted += 1;
        if rendered != want {
            self.checks.fail(format!(
                "replay rendered {rendered:?}, Engine::handle answered {want:?}"
            ));
        }
    }

    /// The per-layer metrics, given the traced wire time per request on one
    /// connection (ns) of the same verb and the tracing overhead.
    pub fn metrics(&self, wire_ns: f64, overhead: f64) -> Result<Vec<Metric>, String> {
        if self.handle.count() == 0 {
            return Err("no replayed requests".to_owned());
        }
        let n = self.parse.count().max(1) as f64;
        let layers = (self.net(&self.parse)
            + self.net(&self.resolve)
            + self.net(&self.reader)
            + self.net(&self.kb))
            / n;
        Ok(vec![
            Metric::new(
                "server.residual_us",
                "us",
                (wire_ns - self.net(&self.handle) / n) / 1e3,
            ),
            Metric::new("proto.parse_ns", "ns", self.net(&self.parse) / n),
            Metric::new(
                "dict.resolve_ns",
                "ns",
                self.net(&self.resolve) / self.keys.max(1) as f64,
            ),
            Metric::new(
                "shard.reader_ns_per_probe",
                "ns",
                self.net(&self.reader) / self.probes.max(1) as f64,
            ),
            Metric::new("engine.handle_ns", "ns", self.net(&self.handle) / n),
            Metric::new("engine.self_ns", "ns", self.net(&self.handle) / n - layers),
            Metric::new("trace.overhead_frac", "frac", overhead),
        ])
    }

    /// Numbers for the stderr report.
    pub fn report(&self) -> Vec<Metric> {
        let n = self.parse.count().max(1) as f64;
        let mut out = vec![
            Metric::new("replay.requests", "count", self.parse.count() as f64),
            Metric::new("dict.keys_per_request", "count", self.keys as f64 / n),
            Metric::new("render_ns", "ns", self.net(&self.render) / n),
            Metric::new("replay.clock_ns", "ns", self.clock_ns),
        ];
        if self.kb.count() > 0 {
            out.push(Metric::new(
                "kb.partof_ask_ns",
                "ns",
                self.net(&self.kb) / self.kb.count() as f64,
            ));
        }
        out
    }
}

/// Sum of a histogram's samples (exact: the mean is exact).
fn total(h: &Histogram) -> f64 {
    h.mean().map_or(0.0, |m| m * h.count() as f64)
}

/// Replays read requests (`reaches`, `reaches-batch`) through `parse`,
/// `Dict::resolve`, a `ShardedReader` and a rendering of the response, then
/// through `Engine::handle` itself, against the daemon's live engine.
pub fn decompose(engine: &Engine, lines: &[&str]) -> Decomp {
    let mut d = Decomp::starting_now();
    let dict = Dict::from_bytes(&engine.dict_bytes()).expect("the engine's dictionary decodes");
    let mut reader = engine.reader();
    // `Engine::handle` first, over every line, then the decomposition over
    // every line: each pass starts as cold as the other, instead of one
    // warming the rows the other then probes.
    let handled = handle_all(engine, &mut reader, lines);
    for (id, (line, (want, h))) in lines.iter().zip(handled).enumerate() {
        let t0 = Instant::now();
        let req = parse(line);
        let t1 = Instant::now();
        let (rendered, t2, t3) = match req {
            Ok(Request::Reaches(a, b)) => {
                let ids = (dict.resolve(a), dict.resolve(b));
                d.keys += 2;
                let t2 = Instant::now();
                let ans = match ids {
                    (Some(s), Some(t)) => reader.reaches(s, t),
                    _ => false,
                };
                d.probes += 1;
                let t3 = Instant::now();
                (format!("ok {ans}"), t2, t3)
            }
            Ok(Request::ReachesBatch(pairs)) => {
                let ids: Vec<(NodeId, NodeId)> = pairs
                    .iter()
                    .filter_map(|(a, b)| Some((dict.resolve(a)?, dict.resolve(b)?)))
                    .collect();
                d.keys += 2 * pairs.len() as u64;
                let t2 = Instant::now();
                let bits = reader.reaches_batch(&ids);
                d.probes += bits.len() as u64;
                let t3 = Instant::now();
                let mut out = String::with_capacity(2 + 2 * bits.len());
                out.push_str("ok");
                for b in bits {
                    out.push_str(if b { " 1" } else { " 0" });
                }
                (out, t2, t3)
            }
            other => {
                d.checks
                    .fail(format!("{line:?} is not a read request: {other:?}"));
                continue;
            }
        };
        let t4 = Instant::now();
        d.add(
            id as u64,
            Marks {
                t: [t0, t1, t2, t3, t4],
                layer: "shard.reader",
            },
            &rendered,
            h,
            &want,
        );
    }
    d
}

/// `Engine::handle` on every line, with each call's start and end.
fn handle_all(
    engine: &Engine,
    reader: &mut tc_core::ShardedReader,
    lines: &[&str],
) -> Vec<(String, (Instant, Instant))> {
    lines
        .iter()
        .map(|line| {
            let h0 = Instant::now();
            let want = engine.handle(reader, line);
            (want, (h0, Instant::now()))
        })
        .collect()
}

fn asks_of(w: &KbWindow) -> Vec<&str> {
    w.asks.iter().map(String::as_str).collect()
}

/// What replaying the KB stream in-process produced.
pub struct KbReplay {
    /// The `ask` decomposition.
    pub decomp: Decomp,
    /// KB work per verb and derivation counts.
    pub report: Vec<Metric>,
    /// The IS-A graph the stream built (concept ids as nodes).
    pub graph: DiGraph,
    /// The `ask isa` pairs, as concept ids.
    pub probes: Vec<(u32, u32)>,
    /// Engine answers that disagreed with the bare knowledge base.
    pub checks: Checks,
}

/// Replays the whole KB stream twice in lockstep: through `Engine::handle`
/// on a fresh engine, and through `KbCommand::execute` on a bare
/// `KnowledgeBase`. The difference in mutation cost is the forwarding of
/// IS-A changes into the service (`engine.kb_forward_us`). Each `ask` is
/// also decomposed into parse, dictionary, reader (or the KB's PART-OF
/// closure) and rendering.
pub fn kb_replay(stream: &[KbWindow]) -> KbReplay {
    let sharded = ShardedClosure::build(ClosureConfig::new(), &DiGraph::new(), 1)
        .expect("the empty graph is acyclic");
    let engine = Engine::start(sharded, Dict::new(), EngineConfig::default());
    let mut reader = engine.reader();
    let mut bare = KnowledgeBase::new();
    let mut checks = Checks::default();
    for rule in KB_RULES {
        engine.handle(&mut reader, &format!("define-rule {rule}"));
        let _ = KbCommand::parse(&format!("rule {rule}")).and_then(|c| c.execute(&mut bare));
    }
    let (mut handle_mut, mut bare_mut) = (
        [Histogram::new(), Histogram::new()],
        [Histogram::new(), Histogram::new()],
    );
    let mut bare_ask = Histogram::new();
    let mut d = Decomp::starting_now();
    let mut probes = Vec::new();
    let (mut mutations, mut retracts) = (0u64, 0u64);
    let mut id = 0u64;
    for w in stream {
        for line in &w.mutations {
            let verb = usize::from(line.starts_with("retract"));
            let h0 = Instant::now();
            let got = engine.handle(&mut reader, line);
            let h1 = Instant::now();
            let want = KbCommand::parse(line).and_then(|c| c.execute(&mut bare));
            let b1 = Instant::now();
            handle_mut[verb].record_duration(h1 - h0);
            bare_mut[verb].record_duration(b1 - h1);
            mutations += 1;
            retracts += verb as u64;
            checks.attempted += 1;
            match want {
                Ok(a) if got == format!("ok {a}") => {}
                other => checks.fail(format!(
                    "{line:?}: engine {got:?}, bare knowledge base {other:?}"
                )),
            }
        }
        let handled = handle_all(&engine, &mut reader, &asks_of(w));
        let dict = Dict::from_bytes(&engine.dict_bytes()).expect("the engine's dictionary decodes");
        for (line, (want, h)) in w.asks.iter().zip(handled) {
            let t0 = Instant::now();
            let Ok(Request::Ask { rel, a, b }) = parse(line) else {
                d.checks.fail(format!("{line:?} is not an ask"));
                continue;
            };
            let t1 = Instant::now();
            let ids = (dict.resolve(a), dict.resolve(b));
            d.keys += 2;
            let t2 = Instant::now();
            let (ans, layer) = match (rel, ids) {
                ("isa", (Some(s), Some(t))) => {
                    d.probes += 1;
                    (s != t && reader.reaches(s, t), "shard.reader")
                }
                _ => (bare.ask(Pred::PartOf, a, b).unwrap_or(false), "kb.ask"),
            };
            let t3 = Instant::now();
            let rendered = format!("ok {ans}");
            let t4 = Instant::now();
            d.add(
                id,
                Marks {
                    t: [t0, t1, t2, t3, t4],
                    layer,
                },
                &rendered,
                h,
                &want,
            );
            id += 1;
            let pred = if rel == "isa" {
                Pred::IsA
            } else {
                Pred::PartOf
            };
            let b0 = Instant::now();
            black_box(bare.ask(pred, a, b).ok());
            bare_ask.record_duration(b0.elapsed());
            if rel == "isa" {
                if let (Some(x), Some(y)) = (bare.concept_id(a), bare.concept_id(b)) {
                    probes.push((x, y));
                }
            }
        }
    }
    engine.close();
    let us = |h: &Histogram| h.mean().unwrap_or(f64::NAN) / 1e3;
    let st = bare.stats();
    let handle_all = (handle_mut[0].mean().unwrap_or(0.0) * handle_mut[0].count() as f64
        + handle_mut[1].mean().unwrap_or(0.0) * handle_mut[1].count() as f64)
        / mutations.max(1) as f64;
    let bare_all = (bare_mut[0].mean().unwrap_or(0.0) * bare_mut[0].count() as f64
        + bare_mut[1].mean().unwrap_or(0.0) * bare_mut[1].count() as f64)
        / mutations.max(1) as f64;
    let report = vec![
        Metric::new("engine.handle_us.assert", "us", us(&handle_mut[0])),
        Metric::new("engine.handle_us.retract", "us", us(&handle_mut[1])),
        Metric::new("kb.assert_us", "us", us(&bare_mut[0])),
        Metric::new("kb.retract_us", "us", us(&bare_mut[1])),
        Metric::new("kb.ask_us", "us", us(&bare_ask)),
        Metric::new("engine.kb_forward_us", "us", (handle_all - bare_all) / 1e3),
        Metric::new(
            "kb.derived_per_op",
            "count",
            st.derived as f64 / mutations.max(1) as f64,
        ),
        Metric::new(
            "kb.overdeleted_per_retract",
            "count",
            st.overdeleted as f64 / retracts.max(1) as f64,
        ),
        Metric::new(
            "kb.rederive_frac",
            "frac",
            st.rederived as f64 / st.overdeleted.max(1) as f64,
        ),
    ];
    let graph = bare.taxonomy().closure().graph().clone();
    KbReplay {
        decomp: d,
        report,
        graph,
        probes,
        checks,
    }
}

/// Per-layer costs on the workload's graph `g`: a resident plane and a
/// paged plane probing `pool`'s pairs (each answer checked against the
/// pool), full freezes of both kinds, the write cycle on a replica
/// closure, and the same cycle through a replica `ShardedService`
/// configured like the daemon (paged or resident).
pub fn layers(
    g: &DiGraph,
    pool: &PairPool,
    daemon_paged: bool,
    pool_pages: usize,
    rng: &mut Rng,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let pairs = &pool.pairs;
    let succ: Vec<NodeId> = pairs
        .iter()
        .take(SUCC_PROBES)
        .map(|&(a, _)| NodeId(a))
        .collect();
    let mut wrong = 0u64;
    let mut timed = |probe: &mut dyn FnMut(NodeId, NodeId) -> bool| -> f64 {
        let t = Instant::now();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if black_box(probe(NodeId(a), NodeId(b))) != pool.answers[i] {
                wrong += 1;
            }
        }
        ns(t.elapsed()) as f64 / pairs.len().max(1) as f64
    };
    let per_call = |f: &mut dyn FnMut(NodeId) -> usize| -> f64 {
        let t = Instant::now();
        for &v in &succ {
            black_box(f(v));
        }
        ns(t.elapsed()) as f64 / succ.len().max(1) as f64
    };
    let freeze_ms = |c: &mut tc_core::CompressedClosure| -> f64 {
        let times: Vec<f64> = (0..FREEZES)
            .map(|_| {
                c.thaw();
                let t = Instant::now();
                c.freeze();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times).expect("FREEZES > 0")
    };

    let mut resident = ClosureConfig::new()
        .build(g)
        .map_err(|e| format!("replica build: {e:?}"))?;
    let resident_freeze = freeze_ms(&mut resident);
    let plane = resident.plane().ok_or("a frozen closure has a plane")?;
    let reaches = timed(&mut |a, b| plane.reaches(a, b));
    let interval_only = timed(&mut |a, b| plane.reaches_interval_only(a, b));
    let successors = per_call(&mut |v| plane.successors(v).len());
    let labels = CutoffLabels::build(g);
    let rejected = pairs
        .iter()
        .filter(|&&(a, b)| !labels.may_reach(NodeId(a), NodeId(b)))
        .count();

    let mut paged = ClosureConfig::new()
        .paged(pool_pages)
        .build(g)
        .map_err(|e| format!("replica build: {e:?}"))?;
    let paged_freeze = freeze_ms(&mut paged);
    let pp = paged
        .paged_plane()
        .ok_or("a paged freeze has a paged plane")?;
    pp.reset_io();
    timed(&mut |a, b| pp.reaches(a, b)); // warm the pool
    let io0 = pp.io_stats();
    let paged_reaches = timed(&mut |a, b| pp.reaches(a, b));
    let io1 = pp.io_stats();
    let paged_successors = per_call(&mut |v| pp.successors(v).len());
    let (hits, misses) = (
        io1.pool.hits - io0.pool.hits,
        io1.pool.misses - io0.pool.misses,
    );
    checks.attempted += 1;
    if wrong > 0 {
        checks.fail(format!(
            "{wrong} plane probes disagreed with the traversal oracle"
        ));
    }

    let arcs = write_arcs(g, CYCLES, rng);
    if arcs.is_empty() {
        return Err("the graph has no admissible write arc".to_owned());
    }
    let parents: Vec<NodeId> = arcs
        .iter()
        .map(|_| NodeId(rng.below(g.node_count()) as u32))
        .collect();
    let mut apply = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    resident.thaw();
    for (&(u, v), &p) in arcs.iter().zip(&parents) {
        let (u, v) = (NodeId(u), NodeId(v));
        let t0 = Instant::now();
        let leaf = resident
            .add_node_with_parents(&[p])
            .map_err(|e| format!("replica add-node: {e:?}"))?;
        let t1 = Instant::now();
        let added = resident
            .add_edge(u, v)
            .map_err(|e| format!("replica add-edge: {e:?}"))?;
        let t2 = Instant::now();
        resident
            .remove_edge(u, v)
            .map_err(|e| format!("replica remove-edge: {e:?}"))?;
        let t3 = Instant::now();
        resident
            .remove_node(leaf)
            .map_err(|e| format!("replica remove-node: {e:?}"))?;
        let t4 = Instant::now();
        checks.attempted += 1;
        if !added {
            checks.fail(format!("replica add-edge {u:?}->{v:?} was a no-op"));
        }
        for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)]
            .into_iter()
            .enumerate()
        {
            apply[k].push((b - a).as_secs_f64() * 1e6);
        }
    }

    let daemon = if daemon_paged {
        ClosureConfig::new().paged(pool_pages)
    } else {
        ClosureConfig::new()
    };
    let sharded =
        ShardedClosure::build(daemon, g, 1).map_err(|e| format!("replica build: {e:?}"))?;
    let svc = ShardedService::start(sharded, ServiceConfig::new());
    let (mut submit_us, mut flush_ms) = (Vec::new(), Vec::new());
    for (&(u, v), &p) in arcs.iter().zip(&parents) {
        let (u, v) = (NodeId(u), NodeId(v));
        let mut leaf = None;
        for k in 0..4 {
            let op = match k {
                0 => ServiceOp::AddNode { parents: vec![p] },
                1 => ServiceOp::AddEdge { src: u, dst: v },
                2 => ServiceOp::RemoveEdge { src: u, dst: v },
                _ => ServiceOp::RemoveNode {
                    node: leaf.ok_or("the leaf was created")?,
                },
            };
            let t0 = Instant::now();
            let outcome = svc
                .submit_with_outcome(op)
                .map_err(|e| format!("replica service: {e}"))?
                .1;
            let t1 = Instant::now();
            svc.flush();
            let t2 = Instant::now();
            checks.attempted += 1;
            match outcome {
                SubmitOutcome::Routed { new_node } => leaf = leaf.or(new_node),
                other => checks.fail(format!("replica service op {k} came back {other:?}")),
            }
            submit_us.push((t1 - t0).as_secs_f64() * 1e6);
            flush_ms.push((t2 - t1).as_secs_f64() * 1e3);
        }
    }
    drop(svc.shutdown());

    let med = |xs: &[f64]| median(xs).expect("CYCLES > 0");
    let all_apply: Vec<f64> = apply.iter().flatten().copied().collect();
    let daemon_freeze = if daemon_paged {
        paged_freeze
    } else {
        resident_freeze
    };
    Ok(vec![
        Metric::new("plane.reaches_ns", "ns", reaches),
        Metric::new("plane.reaches_interval_only_ns", "ns", interval_only),
        Metric::new("plane.successors_ns", "ns", successors),
        Metric::new(
            "plane.cutoff_reject_frac",
            "frac",
            rejected as f64 / pairs.len().max(1) as f64,
        ),
        Metric::new("paged.reaches_ns", "ns", paged_reaches),
        Metric::new("paged.successors_ns", "ns", paged_successors),
        Metric::new(
            "pager.page_reads_per_probe",
            "count",
            (io1.page_reads - io0.page_reads) as f64 / pairs.len().max(1) as f64,
        ),
        Metric::new(
            "pager.hit_rate",
            "frac",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        Metric::new("closure.freeze_ms", "ms", resident_freeze),
        Metric::new("paged.freeze_ms", "ms", paged_freeze),
        Metric::new("closure.add_node_us", "us", med(&apply[0])),
        Metric::new("closure.add_edge_us", "us", med(&apply[1])),
        Metric::new("closure.remove_edge_us", "us", med(&apply[2])),
        Metric::new("closure.remove_node_us", "us", med(&apply[3])),
        Metric::new("shard.submit_us", "us", med(&submit_us)),
        Metric::new("shard.flush_ms", "ms", med(&flush_ms)),
        Metric::new(
            "serve.publish_residual_ms",
            "ms",
            med(&flush_ms) - med(&all_apply) / 1e3 - daemon_freeze,
        ),
    ])
}
