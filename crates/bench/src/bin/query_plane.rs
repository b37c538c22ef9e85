//! Frozen query plane vs mutable label structures (DESIGN.md, "Frozen
//! query plane").
//!
//! Builds one random §3.3 DAG, then times the read side — single `reaches`
//! probes, `reaches_batch` sweeps, `successors` decodes and `predecessors`
//! queries — against the mutable closure and against a frozen
//! [`tc_core::QueryPlane`], reporting the frozen/mutable speedup per
//! (query kind, thread count). Before any number is reported, frozen
//! answers are checked to be identical to mutable ones over the full probe
//! sets, and `--threads` batches to single-threaded ones, frozen and
//! mutable.
//!
//! ```text
//! query_plane [--nodes 50000] [--degree 3.0] [--seed 1]
//!             [--probes 1000000] [--pairs 200000] [--decodes 300]
//!             [--threads 4] [--reps 3]
//! ```
//!
//! Writes `results/query_plane.csv` with one row per (query kind, mode,
//! thread count).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_bench::{f2, Args, Table};
use tc_core::{ClosureConfig, CompressedClosure};
use tc_graph::{generators, NodeId};

/// One timed cell: which query, frozen or mutable, how many workers.
struct Measurement {
    query: &'static str,
    frozen: bool,
    threads: usize,
    ms: f64,
}

fn main() {
    let args = Args::parse(&[
        "nodes",
        "degree",
        "seed",
        "reps",
        "probes",
        "pairs",
        "decodes",
        "threads",
    ]);
    let nodes: usize = args.get("nodes", 50_000);
    let degree: f64 = args.get("degree", 3.0);
    let seed: u64 = args.get("seed", 1);
    let reps: usize = args.get("reps", 3).max(1);
    let probe_count: usize = args.get("probes", 1_000_000);
    let pair_count: usize = args.get("pairs", 200_000);
    let decode_count: usize = args.get("decodes", 300);
    let threads: usize = args.get("threads", 4);

    eprintln!("generating {nodes}-node, degree-{degree} DAG (seed {seed})...");
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes,
        avg_out_degree: degree,
        seed,
    });
    let start = Instant::now();
    let mut closure = ClosureConfig::new().build(&g).expect("generated DAG is acyclic");
    eprintln!(
        "built closure: {} intervals in {:.2}s",
        closure.total_intervals(),
        start.elapsed().as_secs_f64()
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let probes = random_pairs(&mut rng, nodes, probe_count);
    let pairs = random_pairs(&mut rng, nodes, pair_count);
    let sample: Vec<NodeId> = (0..decode_count)
        .map(|_| NodeId::from_index(rng.random_range(0..nodes)))
        .collect();

    let start = Instant::now();
    closure.freeze();
    eprintln!(
        "froze query plane in {:.3}s: {} rank intervals after merging",
        start.elapsed().as_secs_f64(),
        closure.plane().expect("just frozen").total_intervals()
    );
    check_equivalence(&mut closure, &pairs, &sample, threads);

    let mut cells: Vec<Measurement> = Vec::new();
    for frozen in [false, true] {
        if frozen {
            closure.freeze();
        } else {
            closure.thaw();
        }

        let ms = best_of(reps, || {
            let mut hits = 0usize;
            for &(s, d) in &probes {
                hits += usize::from(closure.reaches(s, d));
            }
            hits
        });
        cells.push(Measurement { query: "reaches", frozen, threads: 1, ms });

        for t in [1, threads] {
            closure.set_threads(t);
            let ms = best_of(reps, || closure.reaches_batch(&pairs).len());
            cells.push(Measurement { query: "reaches_batch", frozen, threads: t, ms });
        }
        closure.set_threads(1);

        // Hoisted decode buffer: only the largest row pays allocation.
        let mut buf = Vec::new();
        let ms = best_of(reps, || {
            sample
                .iter()
                .map(|&v| {
                    closure.successors_into(v, &mut buf);
                    buf.len()
                })
                .sum::<usize>()
        });
        cells.push(Measurement { query: "successors", frozen, threads: 1, ms });

        // Neither the mutable in-arc traversal nor the frozen stabbing
        // query uses worker threads.
        let ms = best_of(reps, || {
            sample.iter().map(|&v| closure.predecessors(v).len()).sum::<usize>()
        });
        cells.push(Measurement { query: "predecessors", frozen, threads: 1, ms });
    }

    let mut table = Table::new(
        &format!(
            "frozen plane vs mutable labels: n={nodes}, degree={degree}, \
             {probe_count} probes / {pair_count} batched / {} decodes",
            sample.len()
        ),
        &["query", "mode", "threads", "ms", "speedup_vs_mutable"],
    );
    for cell in &cells {
        let speedup = if cell.frozen {
            mutable_ms(&cells, cell.query, cell.threads).map(|base| base / cell.ms)
        } else {
            None
        };
        table.row(&[
            cell.query.to_string(),
            if cell.frozen { "frozen" } else { "mutable" }.to_string(),
            cell.threads.to_string(),
            f2(cell.ms),
            speedup.map(f2).unwrap_or_default(),
        ]);
    }
    table.finish("query_plane");

    for cell in cells.iter().filter(|c| c.frozen) {
        if let Some(base) = mutable_ms(&cells, cell.query, cell.threads) {
            println!(
                "frozen {} (threads {}): {:.2}x over mutable",
                cell.query,
                cell.threads,
                base / cell.ms
            );
        }
    }
}

/// The mutable baseline for a (query, threads) cell, if one was timed.
fn mutable_ms(cells: &[Measurement], query: &str, threads: usize) -> Option<f64> {
    cells
        .iter()
        .find(|c| !c.frozen && c.query == query && c.threads == threads)
        .map(|c| c.ms)
}

/// Frozen answers must be identical to mutable ones, and `threads`-worker
/// batches identical to single-threaded ones in both modes; refuse to
/// report numbers for a wrong answer. Leaves the closure thawed.
fn check_equivalence(
    closure: &mut CompressedClosure,
    pairs: &[(NodeId, NodeId)],
    sample: &[NodeId],
    threads: usize,
) {
    assert!(closure.is_frozen());
    let frozen_batch = batch_at(closure, pairs, 1);
    let threaded = batch_at(closure, pairs, threads);
    assert_eq!(
        frozen_batch, threaded,
        "frozen reaches_batch diverges at {threads} threads"
    );
    let frozen_succ: Vec<Vec<NodeId>> = sample.iter().map(|&v| closure.successors(v)).collect();
    let frozen_pred: Vec<Vec<NodeId>> = sample.iter().map(|&v| closure.predecessors(v)).collect();
    closure.thaw();
    assert_eq!(frozen_batch, batch_at(closure, pairs, 1), "reaches diverge");
    let threaded = batch_at(closure, pairs, threads);
    assert_eq!(
        frozen_batch, threaded,
        "mutable reaches_batch diverges at {threads} threads"
    );
    for (ix, &v) in sample.iter().enumerate() {
        assert_eq!(frozen_succ[ix], closure.successors(v), "successors({v:?}) diverge");
        assert_eq!(frozen_pred[ix], closure.predecessors(v), "predecessors({v:?}) diverge");
    }
    eprintln!(
        "frozen answers identical to mutable over all probe sets, \
         batches identical at 1 and {threads} threads"
    );
}

/// `reaches_batch` answers on `threads` workers; leaves the closure at one.
fn batch_at(
    closure: &mut CompressedClosure,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<bool> {
    closure.set_threads(threads);
    let answers = closure.reaches_batch(pairs);
    closure.set_threads(1);
    answers
}

fn random_pairs(rng: &mut StdRng, nodes: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| {
            (
                NodeId::from_index(rng.random_range(0..nodes)),
                NodeId::from_index(rng.random_range(0..nodes)),
            )
        })
        .collect()
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
