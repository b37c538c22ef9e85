//! Hybrid oracle vs pure-interval frozen plane on a hostile graph
//! (DESIGN.md, "Hybrid oracle"; EXPERIMENTS.md X10).
//!
//! Builds a dense-layered adversarial DAG — wide layers, each node drawing
//! arcs from nodes scattered across all earlier layers — whose merged
//! frozen rows fragment into many rank intervals, then times single
//! `reaches` probes and `successors` decodes through three probe paths:
//!
//! * `interval` — the pre-hybrid baseline: the boundary-array row alone,
//!   no negative-cutoff screen (`reaches_interval_only`).
//! * `cutoff` — this PR with the oracle unarmed (threshold `usize::MAX`):
//!   negative-cutoff labels screen every probe, rows stay intervals.
//! * `hybrid` — the armed oracle: cutoff screen plus bitset rows for every
//!   node whose merged row exceeds the threshold.
//!
//! Before any number is reported, all paths (and the mutable closure) are
//! checked to answer identically over the full probe sets — the experiment
//! refuses to time a wrong answer.
//!
//! ```text
//! hybrid_scale [--layers 96] [--width 700] [--degree 3] [--seed 1]
//!              [--order random] [--sources heavy] [--threshold 64]
//!              [--probes 400000] [--decodes 300] [--reps 3]
//! ```
//!
//! `--order topo` bulk-builds the closure (one topological sweep);
//! `--order random` (the default) replays the same arcs through the §4
//! incremental update path in seeded random order — the
//! *random-insertion-order* adversary, which denies the tree cover its
//! topological sweep so postorder numbers interleave chaotically and
//! merged rows fragment into far more rank intervals.
//!
//! `--sources heavy` (the default) draws probe *sources* from the
//! over-threshold rows — the fragmented rows the oracle exists for, and
//! the ones a hostile workload hammers — while destinations stay uniform;
//! `--sources uniform` draws both ends uniformly, which dilutes the
//! measurement with the tree-like rows both planes store identically.
//! Either way the identity gate checks the same probe set on every path.
//!
//! Writes `results/hybrid_scale.csv` with one row per (query, path).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_bench::{f2, Args, Table};
use tc_core::ClosureConfig;
use tc_graph::{generators, NodeId};

fn main() {
    let args = Args::parse(&[
        "layers",
        "width",
        "degree",
        "seed",
        "order",
        "sources",
        "threshold",
        "probes",
        "decodes",
        "reps",
    ]);
    let layers: usize = args.get("layers", 96);
    let width: usize = args.get("width", 700);
    let degree: usize = args.get("degree", 3);
    let seed: u64 = args.get("seed", 1);
    let order: String = args.get("order", "random".to_string());
    let sources: String = args.get("sources", "heavy".to_string());
    let threshold: usize = args.get("threshold", 64);
    let probe_count: usize = args.get("probes", 400_000);
    let decode_count: usize = args.get("decodes", 300);
    let reps: usize = args.get("reps", 3).max(1);

    let nodes = layers * width;
    eprintln!(
        "generating dense-layered DAG: {layers} layers x {width} wide, \
         fan-out {degree} scattered over all earlier layers (seed {seed})..."
    );
    let g = generators::dense_layered(layers, width, degree, seed);

    let start = Instant::now();
    let mut closure = match order.as_str() {
        "topo" => ClosureConfig::new()
            .hybrid(threshold)
            .build(&g)
            .expect("layered DAG is acyclic"),
        "random" => {
            // The random-insertion-order adversary: same arcs, one at a
            // time, in shuffled order. The reachable *sets* are identical
            // to the bulk build; only the postorder geometry — and with it
            // the per-row interval counts — degrades.
            let arcs = generators::shuffled_edges(&g, seed ^ 0x5eed);
            let empty = tc_graph::DiGraph::with_nodes(nodes);
            let mut c = ClosureConfig::new()
                .hybrid(threshold)
                .build(&empty)
                .expect("edgeless graph is acyclic");
            for (src, dst) in arcs {
                c.add_edge(src, dst).expect("replayed arc keeps the DAG acyclic");
            }
            c
        }
        other => panic!("unknown --order {other:?} (want topo|random)"),
    };
    eprintln!(
        "built closure ({order} order): {} intervals in {:.2}s",
        closure.total_intervals(),
        start.elapsed().as_secs_f64()
    );

    // The row-size histogram is the whole point of the hostile generator:
    // the experiment is only meaningful when the p95 merged row is past the
    // threshold, so the hybrid freeze actually switches representations.
    let per_node = closure.merged_interval_counts();
    let heavy: Vec<usize> = (0..nodes).filter(|&v| per_node[v] > threshold).collect();
    let mut counts = per_node;
    counts.sort_unstable();
    let pct = |p: f64| counts[((counts.len() - 1) as f64 * p) as usize];
    let (p50, p95, max) = (pct(0.50), pct(0.95), counts[counts.len() - 1]);
    let over = heavy.len();
    eprintln!(
        "merged intervals/row: p50 {p50}, p95 {p95}, max {max} \
         ({over} of {nodes} rows over threshold {threshold})"
    );
    assert!(
        p95 > threshold,
        "graph is not hostile enough: p95 merged row {p95} <= threshold {threshold}"
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut draw_src: Box<dyn FnMut(&mut StdRng) -> usize> = match sources.as_str() {
        "heavy" => Box::new(move |rng| heavy[rng.random_range(0..heavy.len())]),
        "uniform" => Box::new(move |rng| rng.random_range(0..nodes)),
        other => panic!("unknown --sources {other:?} (want heavy|uniform)"),
    };
    let probes: Vec<(NodeId, NodeId)> = (0..probe_count)
        .map(|_| {
            (
                NodeId::from_index(draw_src(&mut rng)),
                NodeId::from_index(rng.random_range(0..nodes)),
            )
        })
        .collect();
    // Decode sample follows the same source distribution, so the bitset
    // stride-scan cost on heavy rows is reported, not hidden.
    let sample: Vec<NodeId> = (0..decode_count)
        .map(|_| NodeId::from_index(draw_src(&mut rng)))
        .collect();

    // Mutable truth, then one freeze per configuration. Freezing with the
    // hybrid threshold first would be wrong for the interval baseline, so
    // the pure plane comes first.
    let want: Vec<bool> = probes.iter().map(|&(s, d)| closure.reaches(s, d)).collect();
    let want_succ: Vec<Vec<NodeId>> = sample.iter().map(|&v| closure.successors(v)).collect();

    closure.set_hybrid_threshold(usize::MAX);
    let start = Instant::now();
    closure.freeze();
    eprintln!("froze pure-interval plane in {:.2}s", start.elapsed().as_secs_f64());
    let pure = closure.plane().expect("just frozen").clone();
    assert_eq!(pure.bitset_rows(), 0, "threshold usize::MAX must stay pure");

    closure.thaw();
    closure.set_hybrid_threshold(threshold);
    let start = Instant::now();
    closure.freeze();
    eprintln!("froze hybrid plane in {:.2}s", start.elapsed().as_secs_f64());
    let hybrid = closure.plane().expect("just frozen").clone();
    assert_eq!(
        hybrid.bitset_rows(),
        over,
        "hybrid freeze must convert exactly the over-threshold rows"
    );

    // Identity gate: every probe path must agree with the mutable closure
    // on the full probe and decode sets before anything is timed.
    for (ix, &(s, d)) in probes.iter().enumerate() {
        assert_eq!(pure.reaches_interval_only(s, d), want[ix], "interval diverges at {s}->{d}");
        assert_eq!(pure.reaches(s, d), want[ix], "cutoff diverges at {s}->{d}");
        assert_eq!(hybrid.reaches(s, d), want[ix], "hybrid diverges at {s}->{d}");
    }
    for (ix, &v) in sample.iter().enumerate() {
        assert_eq!(pure.successors(v), want_succ[ix], "pure successors({v}) diverge");
        assert_eq!(hybrid.successors(v), want_succ[ix], "hybrid successors({v}) diverge");
        assert_eq!(hybrid.successor_count(v), want_succ[ix].len());
    }
    let reachable = want.iter().filter(|&&b| b).count();
    eprintln!(
        "all paths identical over {probe_count} probes ({reachable} reachable) \
         and {decode_count} decodes"
    );

    let mut cells: Vec<(&str, &str, f64)> = Vec::new();
    let reaches_ms = |work: &dyn Fn(NodeId, NodeId) -> bool| {
        best_of(reps, || probes.iter().filter(|&&(s, d)| work(s, d)).count())
    };
    cells.push(("reaches", "interval", reaches_ms(&|s, d| pure.reaches_interval_only(s, d))));
    cells.push(("reaches", "cutoff", reaches_ms(&|s, d| pure.reaches(s, d))));
    cells.push(("reaches", "hybrid", reaches_ms(&|s, d| hybrid.reaches(s, d))));

    let mut buf = Vec::new();
    let decode_ms = |plane: &tc_core::QueryPlane, buf: &mut Vec<NodeId>| {
        best_of(reps, || {
            sample
                .iter()
                .map(|&v| {
                    plane.successors_into(v, buf);
                    buf.len()
                })
                .sum()
        })
    };
    cells.push(("successors", "interval", decode_ms(&pure, &mut buf)));
    cells.push(("successors", "hybrid", decode_ms(&hybrid, &mut buf)));

    let base = |query: &str| {
        cells
            .iter()
            .find(|&&(q, path, _)| q == query && path == "interval")
            .map(|&(_, _, ms)| ms)
            .expect("interval baseline timed first")
    };
    let mut table = Table::new(
        &format!(
            "hybrid oracle vs pure-interval plane: {layers}x{width} dense-layered, \
             fan-out {degree}, {order} insertion order, threshold {threshold}, \
             p95 row {p95} intervals, {over} bitset rows, {probe_count} probes \
             ({sources} sources) / {decode_count} decodes"
        ),
        &["query", "path", "ms", "speedup_vs_interval"],
    );
    for &(query, path, ms) in &cells {
        let speedup = base(query) / ms;
        table.row(&[query.to_string(), path.to_string(), f2(ms), f2(speedup)]);
        println!("{query:<10} {path:<8} {:>9} ms  {:.2}x over interval", f2(ms), speedup);
    }
    table.finish("hybrid_scale");

    let hybrid_speedup = base("reaches")
        / cells
            .iter()
            .find(|&&(q, p, _)| q == "reaches" && p == "hybrid")
            .map(|&(_, _, ms)| ms)
            .unwrap();
    eprintln!("hybrid reaches speedup over pure-interval: {hybrid_speedup:.2}x");
}

/// Best wall-clock milliseconds of `reps` runs; the result is passed
/// through `std::hint::black_box` so the work cannot be elided.
fn best_of(reps: usize, mut work: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(work());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}
