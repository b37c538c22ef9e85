//! Rule-driven knowledge-base serving through the network layer
//! (DESIGN.md, "Rule-driven inference"; EXPERIMENTS.md, X11).
//!
//! Starts the TCP daemon in-process on an ephemeral localhost port with an
//! *empty* graph, defines Horn rules over the wire, then streams a layered
//! parts-catalog fact stream (`assert` / `retract` with `isa` and `partof`
//! relations) through real sockets in windows. After each ingestion window
//! a batch of `ask` probes measures query latency against the snapshot
//! reader the daemon republished from the forwarded KB journal.
//!
//! Every single response is checked against an in-process mirror
//! [`tc_kb::KnowledgeBase`] executing the identical command stream — the
//! wire answer must equal `ok <mirror answer>` verbatim — and at the end
//! of every window the mirror's differential gate
//! ([`KnowledgeBase::check_against_naive`]) re-derives the whole fact base
//! from scratch with a naive all-rules fixpoint and compares closures. A
//! single divergence fails the run with a nonzero exit before any number
//! is reported as a result.
//!
//! The fact stream points strictly downhill through the layer stack, so no
//! assert can be cycle-rejected and the differential gate stays
//! order-independent (`cycle_rejected` is asserted zero).
//!
//! ```text
//! kb_scale [--layers 6] [--width 48] [--windows 6] [--ops-per-window 400]
//!          [--queries-per-window 256] [--retract-pct 20] [--seed 1]
//!          [--shards 2]
//! ```
//!
//! Writes `results/kb_scale.csv` with one row per window: streaming
//! ingestion throughput (ops/s over the socket, closed loop), cumulative
//! fact/concept/derived counts, p50/p95 `ask` round-trip latency (µs), the
//! median assert and retract round trips next to the mirror's own median
//! time for the same commands (the wire-vs-bare split), and the views
//! published and snapshots frozen during the window. Every rate and wire
//! latency counts only the wire round trips; the mirror's work and the
//! generator's bookkeeping between requests are left out of them.
//!
//! Shard writers freeze only when a publish asks, so a window may freeze
//! at most `publishes x shards` snapshots; more fails the run too.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_bench::{Args, Table};
use tc_core::{ClosureConfig, ShardedClosure};
use tc_graph::DiGraph;
use tc_kb::{KbCommand, KnowledgeBase, Pred};
use tc_server::{Client, Dict, Engine, EngineConfig, Server, ServerConfig};

/// One ingestion window plus its query batch, after the oracle agreed.
struct WindowCell {
    window: usize,
    ops: u64,
    ops_per_s: f64,
    facts: usize,
    concepts: usize,
    derived: u64,
    overdeleted: u64,
    queries: u64,
    asks_per_s: f64,
    p50_us: u64,
    p95_us: u64,
    /// Median mutation round trip over the wire, asserts then retracts.
    wire_p50_us: [u64; 2],
    /// Median time the bare mirror `KnowledgeBase` took for the same
    /// mutations, asserts then retracts.
    bare_p50_us: [u64; 2],
    /// Views the daemon published during the window.
    publishes: u64,
    /// Snapshots its shard writers froze during the window.
    freezes: u64,
}

/// The bench's view of the knowledge base: the wire client, the in-process
/// mirror executing the same commands, and the live asserted-fact set the
/// workload generator draws retract targets from.
struct Harness {
    client: Client,
    mirror: KnowledgeBase,
    live: BTreeSet<(Pred, String, String)>,
    names: Vec<String>,
    mismatches: u64,
    /// Time spent in wire round trips since the caller last reset it.
    wire: Duration,
    /// The last step's wire round trip and mirror execution times.
    last: (Duration, Duration),
}

impl Harness {
    /// Sends one request line over the socket and the equivalent command to
    /// the mirror; any disagreement is a correctness divergence. Only the
    /// round trip is added to [`Harness::wire`].
    fn step(&mut self, wire_line: &str, mirror_line: &str) -> String {
        let sent = Instant::now();
        let got = self.client.request(wire_line).expect("daemon answered");
        let wire = sent.elapsed();
        self.wire += wire;
        let cmd = KbCommand::parse(mirror_line).expect("bench emits well-formed commands");
        let started = Instant::now();
        let want = cmd.execute(&mut self.mirror).expect("mirror accepts the command");
        self.last = (wire, started.elapsed());
        if got != format!("ok {want}") {
            self.mismatches += 1;
            eprintln!("DIVERGENCE: {wire_line:?} -> wire {got:?}, mirror {want:?}");
        }
        got
    }

    /// Full from-scratch re-derivation check on the mirror; the wire side
    /// was already proven answer-for-answer identical to it.
    fn gate(&mut self, window: usize) {
        assert_eq!(self.mirror.stats().cycle_rejected, 0, "downhill stream cannot cycle");
        assert_eq!(self.mirror.stats().derive_failed, 0, "no derivation may be dropped");
        if let Err(e) = self.mirror.check_against_naive() {
            eprintln!("FAIL: differential gate after window {window}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = Args::parse(&[
        "layers",
        "width",
        "windows",
        "ops-per-window",
        "queries-per-window",
        "retract-pct",
        "seed",
        "shards",
    ]);
    let layers: usize = args.get("layers", 6).max(2);
    let width: usize = args.get("width", 48).max(1);
    let windows: usize = args.get("windows", 6);
    let ops_per_window: u64 = args.get("ops-per-window", 400);
    let queries_per_window: u64 = args.get("queries-per-window", 256);
    let retract_pct: u64 = args.get("retract-pct", 20).min(90);
    let seed: u64 = args.get("seed", 1);
    let shards: usize = args.get("shards", 2);

    let sharded = ShardedClosure::build(ClosureConfig::new(), &DiGraph::new(), shards)
        .expect("empty graph is acyclic");
    let engine = Engine::start(sharded, Dict::new(), EngineConfig::default());
    let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral localhost port");
    let addr = server.addr().to_string();
    eprintln!("daemon up on {addr} ({shards} shard(s)), empty graph, empty dictionary");

    let mut h = Harness {
        client: Client::connect(&addr).expect("bench client connects"),
        mirror: KnowledgeBase::new(),
        live: BTreeSet::new(),
        names: Vec::new(),
        mismatches: 0,
        wire: Duration::ZERO,
        last: (Duration::ZERO, Duration::ZERO),
    };

    // The rule set: lift part-hood through subsumption in both directions.
    // Derived heads stay downhill through the layers, so forward chaining
    // can never be cycle-rejected.
    for rule in [
        "up: isa(X, Y) :- partof(X, Z), isa(Z, Y)",
        "share: partof(X, Y) :- isa(X, Z), partof(Z, Y)",
    ] {
        let resp = h.step(&format!("define-rule {rule}"), &format!("rule {rule}"));
        assert!(resp.starts_with("ok rule"), "rule definition failed: {resp:?}");
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells: Vec<WindowCell> = Vec::new();
    let mut overfrozen = 0;
    for window in 0..windows {
        let before = server.engine().stats();
        h.wire = Duration::ZERO;
        // Mutation times in µs, [assert, retract] x [wire, bare mirror].
        let mut split: [[Vec<u64>; 2]; 2] = Default::default();
        for _ in 0..ops_per_window {
            let verb = usize::from(ingest_op(&mut h, &mut rng, layers, width, retract_pct));
            split[verb][0].push(h.last.0.as_micros() as u64);
            split[verb][1].push(h.last.1.as_micros() as u64);
        }
        let ingest_s = h.wire.as_secs_f64();

        let mut lat: Vec<u64> = Vec::with_capacity(queries_per_window as usize);
        h.wire = Duration::ZERO;
        for _ in 0..queries_per_window {
            query_op(&mut h, &mut rng, &mut lat);
        }
        let query_s = h.wire.as_secs_f64();

        h.gate(window);
        let after = server.engine().stats();
        let (publishes, freezes) =
            (after.publishes - before.publishes, after.freezes - before.freezes);
        if freezes > publishes * shards as u64 {
            overfrozen += 1;
            eprintln!("FAIL: window {window} froze {freezes} snapshots for {publishes} publishes");
        }
        let stats = h.mirror.stats();
        let cell = WindowCell {
            window,
            ops: ops_per_window,
            ops_per_s: ops_per_window as f64 / ingest_s,
            facts: h.live.len(),
            concepts: h.mirror.concept_count(),
            derived: stats.derived,
            overdeleted: stats.overdeleted,
            queries: lat.len() as u64,
            asks_per_s: lat.len() as f64 / query_s,
            p50_us: percentile(&mut lat, 0.50),
            p95_us: percentile(&mut lat, 0.95),
            wire_p50_us: split.each_mut().map(|v| percentile(&mut v[0], 0.5)),
            bare_p50_us: split.each_mut().map(|v| percentile(&mut v[1], 0.5)),
            publishes,
            freezes,
        };
        eprintln!(
            "window {}: {:>7.0} ops/s ingest, {} live facts, {} derived (cum), \
             {:>7.0} asks/s, p50 {}us p95 {}us, assert/retract p50 {:?}us wire \
             vs {:?}us bare, {} publishes, {} freezes, gate ok",
            cell.window,
            cell.ops_per_s,
            cell.facts,
            cell.derived,
            cell.asks_per_s,
            cell.p50_us,
            cell.p95_us,
            cell.wire_p50_us,
            cell.bare_p50_us,
            cell.publishes,
            cell.freezes
        );
        cells.push(cell);
    }

    let caught = server.caught_panics();
    server.stop().expect("accept loop survived the load");

    let mut table = Table::new(
        &format!(
            "KB serving: {layers} layers x {width}, {ops_per_window} ops + \
             {queries_per_window} asks per window, {retract_pct}% retracts, \
             {shards} shard(s), every answer mirrored + naive re-derivation gate \
             per window, seed {seed}"
        ),
        &[
            "window",
            "ops",
            "ops_per_s",
            "live_facts",
            "concepts",
            "derived_cum",
            "overdeleted_cum",
            "queries",
            "asks_per_s",
            "ask_p50_us",
            "ask_p95_us",
            "assert_p50_us",
            "retract_p50_us",
            "bare_assert_p50_us",
            "bare_retract_p50_us",
            "publishes",
            "freezes",
            "mismatches",
        ],
    );
    for c in &cells {
        table.row(&[
            c.window.to_string(),
            c.ops.to_string(),
            format!("{:.0}", c.ops_per_s),
            c.facts.to_string(),
            c.concepts.to_string(),
            c.derived.to_string(),
            c.overdeleted.to_string(),
            c.queries.to_string(),
            format!("{:.0}", c.asks_per_s),
            c.p50_us.to_string(),
            c.p95_us.to_string(),
            c.wire_p50_us[0].to_string(),
            c.wire_p50_us[1].to_string(),
            c.bare_p50_us[0].to_string(),
            c.bare_p50_us[1].to_string(),
            c.publishes.to_string(),
            c.freezes.to_string(),
            h.mismatches.to_string(),
        ]);
    }
    table.finish("kb_scale");

    if h.mismatches > 0 || caught > 0 || overfrozen > 0 {
        eprintln!(
            "FAIL: {} wire/mirror divergences, {caught} handler panics, \
             {overfrozen} windows froze more than once per shard per publish",
            h.mismatches
        );
        std::process::exit(1);
    }
    println!(
        "every wire answer matched the mirror and the naive re-derivation gate \
         held after all {windows} windows"
    );
}

/// The `p`-quantile of `v` (sorted in place); 0 when `v` is empty.
fn percentile(v: &mut [u64], p: f64) -> u64 {
    v.sort_unstable();
    match v.len() {
        0 => 0,
        n => v[((n - 1) as f64 * p).round() as usize],
    }
}

/// Concept name at (layer, slot): the stream points strictly from higher to
/// lower layers, so the union of base and derived facts is acyclic.
fn name(layer: usize, slot: usize) -> String {
    format!("l{layer}n{slot}")
}

/// One streamed mutation: mostly downhill asserts, `retract_pct` percent
/// retracts of a still-asserted fact (exercising DRed over the wire).
/// Returns whether it was a retract.
fn ingest_op(
    h: &mut Harness,
    rng: &mut StdRng,
    layers: usize,
    width: usize,
    retract_pct: u64,
) -> bool {
    if !h.live.is_empty() && rng.random_range(0..100u64) < retract_pct {
        let ix = rng.random_range(0..h.live.len());
        let (pred, a, b) = h.live.iter().nth(ix).expect("index in range").clone();
        let line = format!("retract {} {a} {b}", pred.name());
        let resp = h.step(&line, &line);
        // `removed` and `kept-derived` both leave the fact un-asserted.
        assert!(resp.starts_with("ok"), "retract of a live fact failed: {resp:?}");
        h.live.remove(&(pred, a, b));
        return true;
    }
    let hi = rng.random_range(1..layers);
    let lo = rng.random_range(0..hi);
    let a = name(hi, rng.random_range(0..width));
    let b = name(lo, rng.random_range(0..width));
    let pred = if rng.random_bool(0.5) { Pred::IsA } else { Pred::PartOf };
    let line = format!("assert {} {a} {b}", pred.name());
    let resp = h.step(&line, &line);
    assert!(
        resp == "ok applied" || resp == "ok noop",
        "downhill assert was rejected: {resp:?}"
    );
    for n in [&a, &b] {
        if !h.names.contains(n) {
            h.names.push(n.clone());
        }
    }
    h.live.insert((pred, a, b));
    false
}

/// One timed `ask` probe over known concepts; the answer is still checked
/// against the mirror (isa answers come from the daemon's snapshot reader,
/// partof answers from the KB's resident closure).
fn query_op(h: &mut Harness, rng: &mut StdRng, lat: &mut Vec<u64>) {
    if h.names.len() < 2 {
        return;
    }
    let a = h.names[rng.random_range(0..h.names.len())].clone();
    let b = h.names[rng.random_range(0..h.names.len())].clone();
    if a == b {
        return;
    }
    let rel = if rng.random_bool(0.7) { "isa" } else { "partof" };
    let line = format!("ask {rel} {a} {b}");
    let before = h.wire;
    let resp = h.step(&line, &line);
    lat.push((h.wire - before).as_micros() as u64);
    assert!(resp == "ok true" || resp == "ok false", "ask failed: {resp:?}");
}
