//! The four workloads: inputs, set-up, the measured wire phase and its
//! oracle checks. The module doc of `main.rs` says why each exists.
//!
//! A graph workload starts its daemon several times. Each start is one
//! `setup_s` sample, and each daemon then serves a warmup and
//! [`SEGMENTS`] measured segments on fresh connections, so the daemon's
//! memory layout and the placement of its threads are drawn anew. Each
//! metric is the median over all segments. On a small shared machine, an
//! unlucky placement or a burst of noise from a neighbour then moves a few
//! segments, not the run.
//!
//! The graph workloads keep requests in flight on each connection (a
//! pipelined closed loop): the daemon's connection thread always has the
//! next request waiting, so the numbers measure the daemon's work per
//! request rather than how fast a shared host wakes a sleeping thread.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tc_core::{ClosureConfig, ShardedClosure};
use tc_graph::generators::{dense_layered, random_dag, RandomDagConfig};
use tc_graph::DiGraph;
use tc_kb::{KbCommand, KnowledgeBase};
use tc_ledger::env::{peak_rss_mb, rss_mb};
use tc_ledger::{median, Better, Histogram};
use tc_server::{Dict, Engine, EngineConfig, Server, ServerConfig};

use crate::inputs::{
    fnv1a, kb_stream, successors_line, write_arcs, KbShape, KbWindow, PairPool, Rng, KB_RULES,
};
use crate::replay;
use crate::wire::{
    push_span, rates, segment_percentile, start_graph_daemon, stop_daemon, Conn, Segment, WireSpan,
};
use crate::{Checks, Metric, Outcome, Span};

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Measure per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Miniature inputs.
    pub smoke: bool,
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined single `reaches`.
    ReadPoint,
    /// Pipelined reads beside an open-loop writer.
    ReadWriteMix,
    /// `reaches-batch` against a paged plane.
    BatchPaged,
    /// The KB assert/retract/ask stream.
    KbIngest,
}

/// Every workload, in the order a full run goes through them.
pub const ALL: [Workload; 4] = [
    Workload::ReadPoint,
    Workload::ReadWriteMix,
    Workload::BatchPaged,
    Workload::KbIngest,
];

impl Workload {
    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadPoint => "read_point",
            Workload::ReadWriteMix => "read_write_mix",
            Workload::BatchPaged => "batch_paged",
            Workload::KbIngest => "kb_ingest",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs the workload. `Err` is a harness failure (no result is
    /// printed); wrong answers are counted in the outcome's checks.
    pub fn run(self, o: &RunOpts, tmp: &Path) -> Result<Outcome, String> {
        let s = Sizes::of(o);
        match self {
            Workload::ReadPoint => read_point(o, &s),
            Workload::ReadWriteMix => read_write_mix(o, &s),
            Workload::BatchPaged => batch_paged(o, &s, tmp),
            Workload::KbIngest => kb_ingest(o, &s),
        }
    }
}

/// Client connections and requests kept in flight on each.
#[derive(Debug, Clone, Copy)]
struct Load {
    conns: usize,
    depth: usize,
}

/// `read_point` and the mix's readers.
const READ_LOAD: Load = Load { conns: 2, depth: 8 };
/// `batch_paged`: two connections, each with its next batch queued.
const BATCH_LOAD: Load = Load { conns: 2, depth: 2 };
/// Measured segments per daemon instance.
const SEGMENTS: usize = 5;
/// One `batch_paged` request in this many is a `successors`.
const SUCC_EVERY: u64 = 32;
/// Distinct `successors` targets in `batch_paged`.
const SUCC_NODES: usize = 64;
/// The mix's open-loop write rate: every write refreezes the plane, and 2/s
/// keeps the writer below saturation (see the module doc of `main.rs`).
const WRITES_PER_S: u32 = 2;
/// Arcs the mix's writer cycles through (one mask bit each).
const WRITE_ARCS: usize = 64;
/// How often a graph workload samples its resident set.
const RSS_EVERY: Duration = Duration::from_millis(100);
/// How often the mix's writer asks whether its last write shows yet.
const VISIBLE_POLL: Duration = Duration::from_millis(1);

/// Input sizes: the benchmark's, or `--smoke`'s miniature of the same
/// shape.
struct Sizes {
    nodes: usize,
    pool: usize,
    batch_layers: usize,
    batch_width: usize,
    /// Pairs per `reaches-batch`.
    batch: usize,
    batches: usize,
    pool_pages: usize,
    kb: KbShape,
    /// Distinct KB streams a run cycles through.
    kb_streams: usize,
    /// Warmup before each daemon instance's segments.
    warmup: Duration,
    /// Daemon instances per graph run, each one `setup_s` sample.
    instances: usize,
    kb_setups: usize,
    replay: usize,
}

impl Sizes {
    fn of(o: &RunOpts) -> Sizes {
        if o.smoke {
            Sizes {
                nodes: 2_000,
                pool: 1 << 12,
                batch_layers: 12,
                batch_width: 100,
                batch: 16,
                batches: 256,
                pool_pages: 16,
                kb: KbShape {
                    layers: 4,
                    width: 12,
                    windows: 4,
                    ops: 60,
                    asks: 256,
                    retract_pct: 20,
                },
                kb_streams: 2,
                warmup: Duration::from_millis(50),
                instances: 2,
                kb_setups: 5,
                replay: 2_000,
            }
        } else {
            Sizes {
                nodes: 20_000,
                pool: 1 << 16,
                batch_layers: 48,
                batch_width: 300,
                batch: 256,
                batches: 256,
                pool_pages: replay::POOL_PAGES,
                kb: KbShape {
                    layers: 6,
                    width: 48,
                    windows: 6,
                    ops: 400,
                    asks: 256,
                    retract_pct: 20,
                },
                kb_streams: 6,
                warmup: Duration::from_millis(250),
                instances: 5,
                kb_setups: 51,
                replay: 20_000,
            }
        }
    }

    /// One daemon instance's share of the run: `--seconds` is split over
    /// every instance's segments.
    fn plan(&self, o: &RunOpts, load: Load) -> Plan {
        let segments = (self.instances * SEGMENTS) as f64;
        Plan {
            warmup: self.warmup,
            segment: Duration::from_secs_f64(o.seconds / segments),
            load,
        }
    }
}

/// One daemon instance's wire phase: a warmup, then [`SEGMENTS`] measured
/// segments.
#[derive(Debug, Clone, Copy)]
struct Plan {
    warmup: Duration,
    segment: Duration,
    load: Load,
}

impl Plan {
    /// From the phase's start to the end of its last segment.
    fn length(&self) -> Duration {
        self.warmup + self.segment * SEGMENTS as u32
    }

    /// The measured segment `t` after the phase's start falls in, if any.
    fn segment_at(&self, t: Duration) -> Option<usize> {
        let k = t.checked_sub(self.warmup)?.as_nanos() / self.segment.as_nanos().max(1);
        usize::try_from(k).ok().filter(|&k| k < SEGMENTS)
    }
}

/// What a request must be answered with.
enum Expect {
    /// `ok true` / `ok false`.
    Bool(bool),
    /// `ok false` until one of the mix's write arcs in this mask is added
    /// for the first time; from then on `ok true` is consistent too.
    UnlessAdded(u64),
    /// This exact line.
    Exact(String),
    /// A line with this FNV-1a hash (long `successors` answers).
    Hash(u64),
}

impl Expect {
    /// Whether `resp` is a correct answer, given the mix's arcs sent so far
    /// (0 outside the mix).
    fn matches(&self, resp: &str, arcs_started: u64) -> bool {
        match self {
            Expect::Bool(b) => resp == if *b { "ok true" } else { "ok false" },
            Expect::UnlessAdded(mask) => {
                resp == "ok false" || resp == "ok true" && mask & arcs_started != 0
            }
            Expect::Exact(s) => resp == s,
            Expect::Hash(h) => fnv1a(resp.as_bytes()) == *h,
        }
    }
}

/// One request of a closed loop.
struct Req {
    line: String,
    expect: Expect,
    verb: &'static str,
    /// Main requests feed `ops_per_s`, `p50_us` and `p99_us`.
    main: bool,
}

/// `reaches` requests over the pool; pairs that one of the mix's write arcs
/// would connect accept either answer once that arc was sent.
fn reach_reqs(pool: &PairPool) -> Vec<Req> {
    pool.reach_lines()
        .into_iter()
        .enumerate()
        .map(|(i, line)| {
            let mask = pool.arc_mask.get(i).copied().unwrap_or(0);
            let expect = if pool.answers[i] || mask == 0 {
                Expect::Bool(pool.answers[i])
            } else {
                Expect::UnlessAdded(mask)
            };
            Req {
                line,
                expect,
                verb: "reaches",
                main: true,
            }
        })
        .collect()
}

fn clip(s: &str) -> &str {
    &s[..s.char_indices().nth(80).map_or(s.len(), |(i, _)| i)]
}

fn connect(addr: &str) -> Result<Conn, String> {
    Conn::pinged(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// [`segment_percentile`] of the main requests, or why there is none.
fn run_percentile(segments: &[Segment], q: f64) -> Result<tc_ledger::Quantile, String> {
    segment_percentile(segments, q, |s| &s.main)
        .ok_or(format!("too few main requests for a p{}", q * 100.0))
}

/// What a wire phase brought home.
#[derive(Default)]
struct Phase {
    segments: Vec<Segment>,
    /// The resident set (MB), sampled every [`RSS_EVERY`] while the first
    /// daemon served its segments.
    rss: Vec<f64>,
    checks: Checks,
    spans: Vec<WireSpan>,
    /// Client connections the phase ran.
    conns: usize,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.segments.extend(other.segments);
        // Each later daemon inherits the allocator's history of the earlier
        // ones, and the resident set then grows by steps of up to 10 % that
        // vary from run to run; the first daemon's is the steady number.
        if self.rss.is_empty() {
            self.rss = other.rss;
        }
        self.checks.merge(other.checks);
        self.spans.extend(other.spans);
        self.conns = other.conns;
    }

    fn rates(&self, work: f64) -> Vec<f64> {
        rates(&self.segments, work)
    }

    fn p50(&self) -> Result<f64, String> {
        Ok(run_percentile(&self.segments, 0.5)?.value)
    }

    /// Wall time per main request on one connection, in ns: the median
    /// segment's interval between answers on each connection.
    fn ns_per_request(&self) -> f64 {
        self.conns as f64 * 1e9 / median(&self.rates(1.0)).unwrap_or(f64::NAN)
    }
}

/// What a request's answer is checked against, given the mix's arcs sent
/// so far.
type Accept<'a> = dyn Fn(&Req, &str) -> bool + Sync + 'a;

/// Runs one daemon instance's phase of a pipelined closed loop, one thread
/// per connection; `next(c, j)` is connection `c`'s `j`-th request. This
/// thread samples the resident set while the segments run.
fn closed_loop<'a>(
    addr: &str,
    plan: Plan,
    trace: bool,
    next: &(dyn Fn(usize, u64) -> &'a Req + Sync),
    accept: &Accept<'_>,
) -> Result<Phase, String> {
    let origin = Instant::now();
    let conns = plan.load.conns;
    let barrier = Barrier::new(conns + 1);
    let (per_conn, rss) = std::thread::scope(|sc| {
        let barrier = &barrier;
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                sc.spawn(move || {
                    let lane = Lane {
                        addr,
                        c,
                        plan,
                        trace,
                        origin,
                    };
                    pipelined(&lane, barrier, &|j| next(c, j), accept)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut rss: Vec<Option<f64>> = Vec::new();
        let mut at = start + plan.warmup;
        while at < start + plan.length() {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            rss.push(rss_mb());
            at += RSS_EVERY;
        }
        let per_conn: Vec<Result<ConnShare, String>> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect();
        (per_conn, rss)
    });
    let mut phase = Phase {
        segments: vec![Segment::new(); SEGMENTS],
        rss: rss
            .into_iter()
            .collect::<Option<_>>()
            .ok_or("VmRSS is unavailable")?,
        conns,
        ..Phase::default()
    };
    for r in per_conn {
        let (segs, checks, spans) = r?;
        for (all, s) in phase.segments.iter_mut().zip(&segs) {
            all.merge(s);
        }
        phase.checks.merge(checks);
        phase.spans.extend(spans);
    }
    Ok(phase)
}

/// What one connection brings home from one phase: its share of each
/// segment.
type ConnShare = (Vec<Segment>, Checks, Vec<WireSpan>);

/// One connection's part in a phase.
struct Lane<'a> {
    addr: &'a str,
    c: usize,
    plan: Plan,
    trace: bool,
    origin: Instant,
}

/// One connection's share of a phase. It keeps up to `depth` requests in
/// flight, and tops the pipeline up in one write each time it has read
/// every answer that arrived. Its writes then carry the acknowledgements
/// the daemon's socket waits for before it sends the next answers (the
/// daemon leaves Nagle's algorithm on). A request's latency runs from the
/// write that sent it to the read of its answer, and counts in the segment
/// the answer arrived in. After the last segment it sends nothing more and
/// collects, unmeasured, what is still in flight.
fn pipelined<'a>(
    lane: &Lane<'_>,
    barrier: &Barrier,
    next: &dyn Fn(u64) -> &'a Req,
    accept: &Accept<'_>,
) -> Result<ConnShare, String> {
    let conn = connect(lane.addr);
    barrier.wait();
    let mut conn = conn?;
    let plan = lane.plan;
    let depth = plan.load.depth;
    let mut checks = Checks::default();
    let mut segs = vec![Segment::new(); SEGMENTS];
    let mut spans = lane.trace.then(Vec::new);
    let mut inflight: VecDeque<(u64, &Req, Instant)> = VecDeque::with_capacity(depth);
    let mut j = 0u64;
    let start = Instant::now();
    let end = start + plan.length();
    loop {
        if conn.drained() && inflight.len() < depth {
            let now = Instant::now();
            if now < end {
                let first = inflight.len();
                while inflight.len() < depth {
                    inflight.push_back((j, next(j), now));
                    j += 1;
                }
                checks.attempted += (depth - first) as u64;
                let lines = inflight.range(first..).map(|(_, r, _)| r.line.as_str());
                if let Err(e) = conn.send(lines) {
                    checks.fail(format!("connection {}: {e}", lane.c));
                    checks.failed += inflight.len() as u64 - 1;
                    break;
                }
            }
        }
        let Some((id, req, sent)) = inflight.pop_front() else {
            break;
        };
        let resp = match conn.recv() {
            Ok(r) => r,
            Err(e) => {
                checks.fail(format!("connection {}: {e}", lane.c));
                checks.failed += inflight.len() as u64;
                break;
            }
        };
        let done = Instant::now();
        if !accept(req, resp) {
            checks.fail(format!(
                "{:?} was answered {:?}",
                clip(&req.line),
                clip(resp)
            ));
        }
        let Some(k) = plan.segment_at(done - start) else {
            continue;
        };
        let seg = &mut segs[k];
        let h = if req.main {
            &mut seg.main
        } else {
            &mut seg.side
        };
        h.record_duration(done - sent);
        push_span(
            &mut spans,
            WireSpan {
                id,
                conn: lane.c,
                verb: req.verb,
                start_ns: ns_since(lane.origin, sent),
                end_ns: ns_since(lane.origin, done),
            },
        );
    }
    for s in &mut segs {
        s.secs = plan.segment.as_secs_f64();
    }
    Ok((segs, checks, spans.unwrap_or_default()))
}

/// The plain answer check: no write arcs are in play.
fn exact(req: &Req, resp: &str) -> bool {
    req.expect.matches(resp, 0)
}

fn ns_since(start: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// The end-to-end metrics: median set-up, median resident set at segment
/// ends, median segment throughput and the main requests' median.
fn end_to_end(
    setups: &[f64],
    rss: &[f64],
    rates: &[f64],
    segments: &[Segment],
) -> Result<Vec<Metric>, String> {
    let p50 = run_percentile(segments, 0.5)?;
    Ok(vec![
        Metric::new("setup_s", "s", median(setups).ok_or("no set-up")?)
            .better(Better::Lower)
            .samples(setups.len() as u64),
        Metric::new("rss_mb", "MB", median(rss).ok_or("no RSS sample")?)
            .better(Better::Lower)
            .samples(rss.len() as u64),
        Metric::new("ops_per_s", "1/s", median(rates).ok_or("no segments")?)
            .better(Better::Higher)
            .samples(rates.len() as u64),
        Metric::new("p50_us", "us", p50.value / 1e3)
            .better(Better::Lower)
            .samples(p50.samples),
    ])
}

/// The traced pass's p99, kept per layer.
fn wire_p99(traced: &[Segment]) -> Result<Metric, String> {
    Ok(Metric::new(
        "server.wire_p99_us",
        "us",
        run_percentile(traced, 0.99)?.value / 1e3,
    ))
}

/// Sets the run's end-to-end metrics, and adds to its record the peak
/// resident set so far and, when the run was long enough for one, the main
/// requests' p99.
fn finish(
    out: &mut Outcome,
    setups: &[f64],
    rss: &[f64],
    rates: &[f64],
    segments: &[Segment],
) -> Result<(), String> {
    out.e2e = end_to_end(setups, rss, rates, segments)?;
    let peak = peak_rss_mb().ok_or("VmHWM is unavailable")?;
    out.extras
        .push(Metric::new("peak_rss_mb", "MB", peak).better(Better::Lower));
    if let Some(p99) = segment_percentile(segments, 0.99, |s| &s.main) {
        out.extras.push(
            Metric::new("p99_us", "us", p99.value / 1e3)
                .better(Better::Lower)
                .samples(p99.samples),
        );
    }
    Ok(())
}

/// Starts the graph daemon `instances` times in turn, timing each start,
/// and runs `measure` against each; `measure` learns whether its daemon is
/// the last. Returns the set-up times.
fn over_instances(
    g: &DiGraph,
    config: &ClosureConfig,
    instances: usize,
    mut measure: impl FnMut(&Server, bool) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut setups = Vec::with_capacity(instances);
    for k in 0..instances {
        let t = Instant::now();
        let server = start_graph_daemon(g, *config);
        setups.push(t.elapsed().as_secs_f64());
        let measured = measure(&server, k + 1 == instances);
        stop_daemon(server)?;
        measured?;
    }
    Ok(setups)
}

fn wire_spans(spans: &[WireSpan], conns: usize) -> impl Iterator<Item = Span> + '_ {
    spans.iter().map(move |s| Span {
        req: s.id * conns as u64 + s.conn as u64,
        name: s.verb,
        parent: None,
        start_ns: s.start_ns,
        end_ns: s.end_ns,
    })
}

fn overhead(plain: &[f64], traced: &[f64]) -> f64 {
    let (p, t) = (
        median(plain).unwrap_or(f64::NAN),
        median(traced).unwrap_or(f64::NAN),
    );
    1.0 - t / p
}

/// What the traced half of a graph workload replays and measures.
struct TraceInputs<'a> {
    /// Requests replayed through the layers.
    lines: Vec<&'a str>,
    /// Work units per main request (pairs per batch).
    work: f64,
    /// The graph and the probes each layer is measured on.
    g: &'a DiGraph,
    pool: &'a PairPool,
    /// Whether the daemon's plane is paged.
    paged: bool,
}

/// The traced half of a graph workload: the replayed decomposition of the
/// traced requests, and each layer measured on the workload's graph.
fn trace_graph(
    out: &mut Outcome,
    server: &Server,
    (plain, traced): (&Phase, &Phase),
    li: TraceInputs<'_>,
    s: &Sizes,
    rng: &mut Rng,
) -> Result<(), String> {
    let d = replay::decompose(server.engine(), &li.lines);
    out.layers = d.metrics(
        traced.ns_per_request(),
        overhead(&plain.rates(li.work), &traced.rates(li.work)),
    )?;
    out.layers.push(wire_p99(&traced.segments)?);
    out.report
        .push(Metric::new("wire.traced_p50_us", "us", traced.p50()? / 1e3));
    out.report.extend(d.report());
    out.checks.merge(d.checks);
    out.layers.extend(replay::layers(
        li.g,
        li.pool,
        li.paged,
        s.pool_pages,
        rng,
        &mut out.checks,
    )?);
    out.spans.extend(wire_spans(&traced.spans, traced.conns));
    out.spans.extend(d.spans);
    Ok(())
}

fn random_dag_of(o: &RunOpts, s: &Sizes) -> DiGraph {
    random_dag(RandomDagConfig {
        nodes: s.nodes,
        avg_out_degree: 2.0,
        seed: o.seed,
    })
}

fn read_point(o: &RunOpts, s: &Sizes) -> Result<Outcome, String> {
    let g = random_dag_of(o, s);
    let n = g.node_count();
    let mut rng = Rng::new(o.seed, 1);
    let pool = PairPool::draw(&g, s.pool, 0..n, 0..n, &[], &mut rng);
    let reqs = reach_reqs(&pool);
    let conns = READ_LOAD.conns as u64;
    let next = |c: usize, j: u64| &reqs[(c as u64 + conns * j) as usize % reqs.len()];
    let plan = s.plan(o, READ_LOAD);
    let mut plain = Phase::default();
    let mut out = Outcome::default();
    let setups = over_instances(&g, &ClosureConfig::new(), s.instances, |server, last| {
        let addr = server.addr().to_string();
        plain.absorb(closed_loop(&addr, plan, false, &next, &exact)?);
        if last && o.trace {
            let traced = closed_loop(&addr, plan, true, &next, &exact)?;
            let li = TraceInputs {
                lines: reqs
                    .iter()
                    .take(s.replay)
                    .map(|r| r.line.as_str())
                    .collect(),
                work: 1.0,
                g: &g,
                pool: &pool,
                paged: false,
            };
            trace_graph(&mut out, server, (&plain, &traced), li, s, &mut rng)?;
            out.checks.merge(traced.checks);
        }
        Ok(())
    })?;
    finish(
        &mut out,
        &setups,
        &plain.rss,
        &plain.rates(1.0),
        &plain.segments,
    )?;
    out.checks.merge(plain.checks);
    Ok(out)
}

/// State the mix's readers and writer share.
struct MixShared {
    /// Bit `j` is set once arc `j` has been sent for the first time; an
    /// answer that needs one of these arcs is consistent with some prefix
    /// of the write sequence.
    arcs_started: AtomicU64,
    /// Set when the readers' last segment ends.
    stop: AtomicBool,
}

/// The writer side of one mix phase.
#[derive(Default)]
struct MixWrite {
    /// From each write's due time to its acknowledgement.
    ack: Histogram,
    /// From each write's due time until the writer's probe saw it.
    visible: Histogram,
    /// How late each write was sent.
    late: Histogram,
    /// Writes not yet visible when the next one was due.
    lost: u64,
    checks: Checks,
    spans: Vec<WireSpan>,
}

impl MixWrite {
    fn absorb(&mut self, other: MixWrite) {
        self.ack.merge(&other.ack);
        self.visible.merge(&other.visible);
        self.late.merge(&other.late);
        self.lost += other.lost;
        self.checks.merge(other.checks);
        self.spans.extend(other.spans);
    }
}

/// One write of the mix's cycle: the line, its acknowledgement, and the
/// probe that shows it (none for the leaf's removal).
struct Write {
    line: String,
    want: &'static str,
    verb: &'static str,
    probe: Option<(String, &'static str)>,
}

/// Write `i` of the cycle add-node, add-edge, remove-edge, remove-node.
fn mix_write(i: u64, arcs: &[(u32, u32)], parents: &[u32]) -> Write {
    let cycle = i / 4;
    let j = cycle as usize % arcs.len();
    let ((u, v), p) = (arcs[j], parents[j]);
    let (line, want, verb, probe) = match i % 4 {
        0 => (
            format!("add-node leaf{cycle} n{p}"),
            "ok added",
            "add-node",
            Some((format!("reaches n{p} leaf{cycle}"), "ok true")),
        ),
        1 => (
            format!("add-edge n{u} n{v}"),
            "ok added",
            "add-edge",
            Some((format!("reaches n{u} n{v}"), "ok true")),
        ),
        2 => (
            format!("remove-edge n{u} n{v}"),
            "ok removed",
            "remove-edge",
            Some((format!("reaches n{u} n{v}"), "ok false")),
        ),
        _ => (
            format!("remove-node leaf{cycle}"),
            "ok removed",
            "remove-node",
            None,
        ),
    };
    Write {
        line,
        want,
        verb,
        probe,
    }
}

/// The open-loop writer: one write every `1/WRITES_PER_S` from `start`,
/// each timed from when it was due, until the readers stop. After each
/// acknowledged write it asks, every [`VISIBLE_POLL`], the question that
/// shows the write, until the answer does or the next write is due. The
/// cycle running when the readers stop is completed at once, untimed, so
/// the graph is back at its base.
fn mix_writer(
    addr: &str,
    start: Instant,
    trace: bool,
    origin: Instant,
    (arcs, parents): (&[(u32, u32)], &[u32]),
    sh: &MixShared,
) -> Result<MixWrite, String> {
    let mut conn = connect(addr)?;
    let mut w = MixWrite::default();
    let mut spans = trace.then(Vec::new);
    let period = Duration::from_secs(1) / WRITES_PER_S;
    let mut i = 0u64;
    loop {
        let due = start + period * i as u32;
        let timed = !sh.stop.load(Ordering::SeqCst);
        if timed {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        } else if i.is_multiple_of(4) {
            break;
        }
        let write = mix_write(i, arcs, parents);
        if i % 4 == 1 {
            let j = (i / 4) as usize % arcs.len();
            sh.arcs_started.fetch_or(1 << j, Ordering::SeqCst);
        }
        let sent = Instant::now();
        w.checks.attempted += 1;
        let resp = match conn.request(&write.line) {
            Ok(r) => r,
            Err(e) => {
                w.checks.fail(format!("writer: {e}"));
                break;
            }
        };
        let acked = Instant::now();
        if resp != write.want {
            w.checks
                .fail(format!("{:?} was answered {resp:?}", write.line));
        }
        if timed {
            w.late.record_duration(sent.saturating_duration_since(due));
            w.ack.record_duration(acked.saturating_duration_since(due));
        }
        push_span(
            &mut spans,
            WireSpan {
                id: i,
                conn: 1,
                verb: write.verb,
                start_ns: ns_since(origin, sent),
                end_ns: ns_since(origin, acked),
            },
        );
        if let (true, Some((probe, visible))) = (timed, &write.probe) {
            let next_due = due + period;
            loop {
                w.checks.attempted += 1;
                let resp = conn
                    .request(probe)
                    .map_err(|e| format!("writer's probe: {e}"))?;
                if resp == *visible {
                    w.visible
                        .record_duration(Instant::now().saturating_duration_since(due));
                    break;
                }
                if resp != "ok true" && resp != "ok false" {
                    w.checks.fail(format!("{probe:?} was answered {resp:?}"));
                    break;
                }
                if Instant::now() + VISIBLE_POLL >= next_due {
                    w.lost += 1;
                    break;
                }
                std::thread::sleep(VISIBLE_POLL);
            }
        }
        i += 1;
    }
    w.spans = spans.unwrap_or_default();
    Ok(w)
}

/// The mix's readers and writer side by side.
fn mix_phase(
    addr: &str,
    plan: Plan,
    trace: bool,
    reqs: &[Req],
    writes: (&[(u32, u32)], &[u32]),
) -> Result<(Phase, MixWrite), String> {
    let sh = MixShared {
        arcs_started: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    };
    let origin = Instant::now();
    let conns = plan.load.conns as u64;
    let next = |c: usize, j: u64| &reqs[(c as u64 + conns * j) as usize % reqs.len()];
    let accept = |req: &Req, resp: &str| {
        req.expect
            .matches(resp, sh.arcs_started.load(Ordering::SeqCst))
    };
    let (r, w) = std::thread::scope(|sc| {
        let w = sc.spawn(|| mix_writer(addr, origin + plan.warmup, trace, origin, writes, &sh));
        let r = closed_loop(addr, plan, trace, &next, &accept);
        sh.stop.store(true, Ordering::SeqCst);
        (r, w.join())
    });
    let phase = r?;
    let w = w.map_err(|_| "writer thread panicked".to_owned())??;
    Ok((phase, w))
}

/// After the writer restored the base graph: flush, then every answer must
/// be the base answer again.
fn mix_restored(addr: &str, reqs: &[Req], count: usize, checks: &mut Checks) -> Result<(), String> {
    let mut conn = connect(addr)?;
    checks.attempted += 1;
    match conn.request("flush") {
        Ok("ok flushed") => {}
        other => checks.fail(format!("flush answered {other:?}")),
    }
    for r in reqs.iter().take(count) {
        checks.attempted += 1;
        match conn.request(&r.line) {
            Ok(resp) if exact(r, resp) => {}
            other => checks.fail(format!(
                "after the writes, {:?} was answered {other:?}",
                r.line
            )),
        }
    }
    Ok(())
}

fn read_write_mix(o: &RunOpts, s: &Sizes) -> Result<Outcome, String> {
    let g = random_dag_of(o, s);
    let n = g.node_count();
    let mut rng = Rng::new(o.seed, 2);
    let arcs = write_arcs(&g, WRITE_ARCS, &mut rng);
    if arcs.is_empty() {
        return Err("the graph has no admissible write arc".to_owned());
    }
    let parents: Vec<u32> = arcs.iter().map(|_| rng.below(n) as u32).collect();
    let pool = PairPool::draw(&g, s.pool, 0..n, 0..n, &arcs, &mut rng);
    let reqs = reach_reqs(&pool);
    let plan = s.plan(o, READ_LOAD);
    let mut plain = Phase::default();
    let mut w = MixWrite::default();
    let (mut publishes, mut rejected, mut submitted) = (0, 0, 0);
    let mut out = Outcome::default();
    let setups = over_instances(&g, &ClosureConfig::new(), s.instances, |server, last| {
        let addr = server.addr().to_string();
        let before = server.engine().stats();
        let (phase, writes) = mix_phase(&addr, plan, false, &reqs, (&arcs, &parents))?;
        let after = server.engine().stats();
        publishes += after.publishes - before.publishes;
        rejected += after.rejected - before.rejected;
        submitted += after.submitted - before.submitted;
        plain.absorb(phase);
        w.absorb(writes);
        mix_restored(&addr, &reqs, 1000, &mut out.checks)?;
        if last && o.trace {
            let (traced, tw) = mix_phase(&addr, plan, true, &reqs, (&arcs, &parents))?;
            mix_restored(&addr, &reqs, 1000, &mut out.checks)?;
            let li = TraceInputs {
                lines: reqs
                    .iter()
                    .take(s.replay)
                    .map(|r| r.line.as_str())
                    .collect(),
                work: 1.0,
                g: &g,
                pool: &pool,
                paged: false,
            };
            trace_graph(&mut out, server, (&plain, &traced), li, s, &mut rng)?;
            out.spans.extend(wire_spans(&tw.spans, 1));
            out.checks.merge(traced.checks);
            out.checks.merge(tw.checks);
        }
        Ok(())
    })?;
    let measured: f64 = plain.segments.iter().map(|s| s.secs).sum();
    out.report.extend([
        Metric::new("loadgen.writes", "count", w.ack.count() as f64),
        Metric::new("write.visible_lost", "count", w.lost as f64),
        Metric::new("shard.publishes_per_s", "1/s", publishes as f64 / measured),
        Metric::new(
            "shard.rejected_frac",
            "frac",
            rejected as f64 / submitted.max(1) as f64,
        ),
    ]);
    if let (Some(p), Some(m)) = (w.late.percentile(0.5), w.late.max()) {
        out.report
            .push(Metric::new("loadgen.late_p50_ms", "ms", p.value / 1e6));
        out.report
            .push(Metric::new("loadgen.late_max_ms", "ms", m as f64 / 1e6));
    }
    for (name, h) in [
        ("write_ack_p50_ms", &w.ack),
        ("write_visible_p50_ms", &w.visible),
    ] {
        // Too few writes for the percentile (a short run) leaves it out.
        if let Some(p) = h.percentile(0.5) {
            out.extras.push(
                Metric::new(name, "ms", p.value / 1e6)
                    .better(Better::Lower)
                    .samples(p.samples),
            );
        }
    }
    finish(
        &mut out,
        &setups,
        &plain.rss,
        &plain.rates(1.0),
        &plain.segments,
    )?;
    out.checks.merge(plain.checks);
    out.checks.merge(w.checks);
    Ok(out)
}

fn batch_paged(o: &RunOpts, s: &Sizes, tmp: &Path) -> Result<Outcome, String> {
    let g = dense_layered(s.batch_layers, s.batch_width, 3, o.seed);
    let n = g.node_count();
    let mut rng = Rng::new(o.seed, 3);
    let pool = PairPool::draw(&g, s.batches * s.batch, 0..n / 4, n / 4..n, &[], &mut rng);
    let batches: Vec<Req> = pool
        .batch_lines(s.batch)
        .into_iter()
        .zip(pool.answers.chunks(s.batch))
        .map(|(line, bits)| {
            let expect: String = std::iter::once("ok")
                .chain(bits.iter().map(|&b| if b { " 1" } else { " 0" }))
                .collect();
            Req {
                line,
                expect: Expect::Exact(expect),
                verb: "reaches-batch",
                main: true,
            }
        })
        .collect();
    let succ: Vec<Req> = (0..SUCC_NODES)
        .map(|_| {
            let x = rng.below(n) as u32;
            let expect = Expect::Hash(fnv1a(successors_line(&g, x).as_bytes()));
            Req {
                line: format!("successors n{x}"),
                expect,
                verb: "successors",
                main: false,
            }
        })
        .collect();
    let conns = BATCH_LOAD.conns as u64;
    let next = |c: usize, j: u64| {
        let k = c as u64 + conns * j;
        if j % SUCC_EVERY == SUCC_EVERY - 1 {
            &succ[(k / SUCC_EVERY) as usize % succ.len()]
        } else {
            &batches[k as usize % batches.len()]
        }
    };
    let config = ClosureConfig::new().paged(s.pool_pages);
    let plan = s.plan(o, BATCH_LOAD);
    let mut plain = Phase::default();
    let mut out = Outcome::default();
    let setups = over_instances(&g, &config, s.instances, |server, last| {
        // A paged freeze that cannot write its file falls back to a
        // resident plane; a plane file in the run's temp directory shows it
        // did not.
        let paged = std::fs::read_dir(tmp)
            .map_err(|e| format!("read {}: {e}", tmp.display()))?
            .any(|e| e.is_ok_and(|e| e.path().extension().is_some_and(|x| x == "pln")));
        if !paged {
            return Err("the daemon's plane is not paged (no plane file in TMPDIR)".to_owned());
        }
        let addr = server.addr().to_string();
        plain.absorb(closed_loop(&addr, plan, false, &next, &exact)?);
        if last && o.trace {
            let traced = closed_loop(&addr, plan, true, &next, &exact)?;
            // Every batch at least once, and enough requests for a median.
            let li = TraceInputs {
                lines: batches
                    .iter()
                    .cycle()
                    .take(batches.len().max(256))
                    .map(|r| r.line.as_str())
                    .collect(),
                work: s.batch as f64,
                g: &g,
                pool: &pool,
                paged: true,
            };
            trace_graph(&mut out, server, (&plain, &traced), li, s, &mut rng)?;
            out.checks.merge(traced.checks);
        }
        Ok(())
    })?;
    if let Some(p) = segment_percentile(&plain.segments, 0.5, |s| &s.side) {
        out.extras.push(
            Metric::new("successors_p50_us", "us", p.value / 1e3)
                .better(Better::Lower)
                .samples(p.samples),
        );
    }
    finish(
        &mut out,
        &setups,
        &plain.rss,
        &plain.rates(s.batch as f64),
        &plain.segments,
    )?;
    out.checks.merge(plain.checks);
    Ok(out)
}

/// Starts an empty-graph daemon and defines the rules over the wire;
/// returns it with the set-up time. The wait for the accept loop to take
/// the connection (it polls every 2 ms) is left out, so the time is the
/// daemon's start plus the rule definitions.
fn start_kb_daemon(checks: &mut Checks) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let sharded = ShardedClosure::build(ClosureConfig::new(), &DiGraph::new(), 1)
        .expect("the empty graph is acyclic");
    let engine = Engine::start(sharded, Dict::new(), EngineConfig::default());
    let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let started = t.elapsed();
    let mut conn = connect(&server.addr().to_string())?;
    let t = Instant::now();
    for rule in KB_RULES {
        let want = format!(
            "ok rule {}",
            rule.split(':').next().expect("rules are named")
        );
        checks.attempted += 1;
        match conn.request(&format!("define-rule {rule}")) {
            Ok(r) if r == want => {}
            other => checks.fail(format!("define-rule {rule:?} was answered {other:?}")),
        }
    }
    Ok((server, (started + t.elapsed()).as_secs_f64()))
}

/// The mirror's answer to one command line, as the wire should give it.
fn mirror_answer(kb: &mut KnowledgeBase, line: &str) -> String {
    match KbCommand::parse(line).and_then(|c| c.execute(kb)) {
        Ok(a) => format!("ok {a}"),
        Err(e) => format!("(the mirror refused it: {e})"),
    }
}

/// Runs a stream through an in-process mirror `KnowledgeBase`, with the
/// naive re-derivation gate after every window, and returns the answer
/// the wire must give to each line. It runs after the measured passes, so
/// the mirror's memory stays out of the resident-set numbers.
fn kb_oracle(stream: &[KbWindow], checks: &mut Checks) -> Vec<Vec<String>> {
    let mut kb = KnowledgeBase::new();
    for rule in KB_RULES {
        mirror_answer(&mut kb, &format!("rule {rule}"));
    }
    let mut answers = Vec::with_capacity(stream.len());
    for (wi, w) in stream.iter().enumerate() {
        answers.push(
            w.mutations
                .iter()
                .chain(&w.asks)
                .map(|line| mirror_answer(&mut kb, line))
                .collect(),
        );
        checks.attempted += 1;
        let st = kb.stats();
        if st.cycle_rejected != 0 || st.derive_failed != 0 {
            checks.fail(format!(
                "window {wi}: {} cycle rejections, {} dropped derivations",
                st.cycle_rejected, st.derive_failed
            ));
        }
        if let Err(e) = kb.check_against_naive() {
            checks.fail(format!(
                "window {wi}: the naive re-derivation disagrees: {e}"
            ));
        }
    }
    answers
}

/// One pass of a KB stream against a fresh daemon.
struct KbPass {
    setup_s: f64,
    /// Mutations per second of waiting, per window.
    window_rates: Vec<f64>,
    /// Mutations per second at each window's median cost: one over the
    /// mean of the windows' median mutation round trips.
    rate: f64,
    /// Mutation round trips (`main`, with `secs` the time spent waiting on
    /// them) and `ask` round trips (`side`).
    seg: Segment,
    /// The resident set (MB) at the end of the stream.
    rss: f64,
    /// Every response, per window (first pass of a stream only).
    responses: Vec<Vec<String>>,
    checks: Checks,
    spans: Vec<WireSpan>,
}

/// Streams every window through one connection, one request at a time;
/// only the requests are timed. The first pass of a stream (no
/// `reference`) keeps every response, for the oracle to check once the
/// measuring is over; later passes must answer exactly as the first did.
fn kb_pass(
    stream: &[KbWindow],
    reference: Option<&[Vec<String>]>,
    trace: bool,
) -> Result<KbPass, String> {
    let mut checks = Checks::default();
    let t = Instant::now();
    let (server, setup_s) = start_kb_daemon(&mut checks)?;
    let mut conn = connect(&server.addr().to_string())?;
    let mut spans = trace.then(Vec::new);
    let mut seg = Segment::new();
    let mut window_rates = Vec::new();
    let mut window_medians = Vec::new();
    let mut responses = Vec::new();
    let mut mutation_ns = 0u64;
    let mut id = 0u64;
    for (wi, w) in stream.iter().enumerate() {
        let mut window_ns = 0u64;
        let mut window_lat = Histogram::new();
        let mut window = Vec::new();
        for (li, line) in w.mutations.iter().chain(&w.asks).enumerate() {
            checks.attempted += 1;
            let sent = Instant::now();
            let resp = conn
                .request(line)
                .map_err(|e| format!("the kb connection dropped: {e}"))?;
            let done = Instant::now();
            let ns = ns_since(sent, done);
            let verb = if li >= w.mutations.len() {
                seg.side.record(ns);
                "ask"
            } else {
                seg.main.record(ns);
                window_lat.record(ns);
                window_ns += ns;
                if line.starts_with("assert") {
                    "assert"
                } else {
                    "retract"
                }
            };
            let span = WireSpan {
                id,
                conn: 0,
                verb,
                start_ns: ns_since(t, sent),
                end_ns: ns_since(t, done),
            };
            push_span(&mut spans, span);
            id += 1;
            match reference {
                Some(r) if resp != r[wi][li] => checks.fail(format!(
                    "{line:?} was answered {resp:?}, the first pass got {:?}",
                    r[wi][li]
                )),
                Some(_) => {}
                None => window.push(resp.to_owned()),
            }
        }
        mutation_ns += window_ns;
        window_rates.push(w.mutations.len() as f64 / (window_ns as f64 / 1e9));
        let m = window_lat.percentile(0.5);
        window_medians.push(m.ok_or("too few mutations in a window for a median")?.value);
        if reference.is_none() {
            responses.push(window);
        }
    }
    let rss = rss_mb().ok_or("VmRSS is unavailable")?;
    stop_daemon(server)?;
    seg.secs = mutation_ns as f64 / 1e9;
    let mean_median = window_medians.iter().sum::<f64>() / window_medians.len() as f64;
    Ok(KbPass {
        setup_s,
        window_rates,
        rate: 1e9 / mean_median,
        seg,
        rss,
        responses,
        checks,
        spans: spans.unwrap_or_default(),
    })
}

fn kb_ingest(o: &RunOpts, s: &Sizes) -> Result<Outcome, String> {
    // Each stream its own random catalog: a run's numbers average over
    // several, instead of resting on how one stream's derivations pile up.
    let streams: Vec<Vec<KbWindow>> = (0..s.kb_streams)
        .map(|k| kb_stream(s.kb, &mut Rng::new(o.seed, 100 + k as u64)))
        .collect();
    let mut out = Outcome::default();
    let (mut setups, mut tails, mut passes, mut rss, mut typical) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first: Vec<Option<Vec<Vec<String>>>> = vec![None; streams.len()];
    let mut window_rates: Vec<Vec<f64>> = vec![Vec::new(); s.kb.windows];
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < o.seconds {
        let k = passes.len() % streams.len();
        let p = kb_pass(&streams[k], first[k].as_deref(), false)?;
        setups.push(p.setup_s);
        rss.push(p.rss);
        if first[k].is_none() {
            first[k] = Some(p.responses);
        }
        tails.push(*p.window_rates.last().ok_or("the stream has no window")?);
        typical.push(p.rate);
        for (i, r) in p.window_rates.iter().enumerate() {
            window_rates[i].push(*r);
        }
        out.checks.merge(p.checks);
        passes.push(p.seg);
    }
    while setups.len() < s.kb_setups {
        let (server, setup_s) = start_kb_daemon(&mut out.checks)?;
        setups.push(setup_s);
        stop_daemon(server)?;
    }
    for (i, r) in window_rates.iter().enumerate() {
        if let Some(m) = median(r) {
            out.report
                .push(Metric::new(&format!("kb.window{i}_ops_per_s"), "1/s", m));
        }
    }
    out.report
        .push(Metric::new("kb.passes", "count", passes.len() as f64));
    // Mutations slower than 5 ms, under 1 % of them, take a tenth to a
    // third of the waiting: DRed cascades, and waits on the service's front
    // lock while the flusher refreezes. How often those coincide follows
    // the host's load, and moved the plain rate by up to 1.7x from run to
    // run on one seed, while each window's median held; `ops_per_s` rests
    // on the medians, and the plain rate goes to the run record.
    finish(&mut out, &setups, &rss, &typical, &passes)?;
    out.extras.push(
        Metric::new(
            "kb_ingest_wall_ops_per_s",
            "1/s",
            median(&rates(&passes, 1.0)).expect("one pass at least"),
        )
        .better(Better::Higher)
        .samples(passes.len() as u64),
    );
    if let Some(p) = segment_percentile(&passes, 0.5, |s| &s.side) {
        out.extras.push(
            Metric::new("kb_ask_p50_us", "us", p.value / 1e3)
                .better(Better::Lower)
                .samples(p.samples),
        );
    }
    let checking = Instant::now();
    for (stream, got) in streams.iter().zip(&first) {
        let Some(got) = got else { continue };
        let expected = kb_oracle(stream, &mut out.checks);
        for ((w, got), want) in stream.iter().zip(got).zip(&expected) {
            for ((line, g), e) in w.mutations.iter().chain(&w.asks).zip(got).zip(want) {
                if g != e {
                    out.checks.fail(format!(
                        "{line:?} was answered {g:?}, the mirror says {e:?}"
                    ));
                }
            }
        }
    }
    out.report.push(Metric::new(
        "kb.oracle_s",
        "s",
        checking.elapsed().as_secs_f64(),
    ));
    if o.trace {
        let reference = first[0].as_deref();
        let traced = kb_pass(&streams[0], reference, true)?;
        let kr = replay::kb_replay(&streams[0]);
        let asks = &traced.seg.side;
        // The untraced passes over the same stream.
        let plain: Vec<Segment> = passes.iter().step_by(streams.len()).cloned().collect();
        out.layers = kr.decomp.metrics(
            asks.mean().ok_or("the traced pass has no ask")?,
            overhead(
                &rates(&plain, 1.0),
                &rates(std::slice::from_ref(&traced.seg), 1.0),
            ),
        )?;
        out.layers.push(Metric::new(
            "server.wire_p99_us",
            "us",
            asks.percentile(0.99).ok_or("too few asks for a p99")?.value / 1e3,
        ));
        out.report.extend(kr.decomp.report());
        out.report.extend(kr.report);
        out.checks.merge(kr.checks);
        let pool = PairPool::answer(&kr.graph, kr.probes, &[]);
        let mut rng = Rng::new(o.seed, 5);
        out.layers.extend(replay::layers(
            &kr.graph,
            &pool,
            false,
            s.pool_pages,
            &mut rng,
            &mut out.checks,
        )?);
        out.spans.extend(wire_spans(&traced.spans, 1));
        out.spans.extend(kr.decomp.spans);
        out.checks.merge(traced.checks);
    }
    out.extras.push(
        Metric::new(
            "kb_ingest_tail_ops_per_s",
            "1/s",
            median(&tails).expect("one pass at least"),
        )
        .better(Better::Higher)
        .samples(tails.len() as u64),
    );
    Ok(out)
}
