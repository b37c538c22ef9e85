//! Scaling of level-parallel closure construction and batch queries over
//! worker-thread counts (DESIGN.md, "Parallel construction").
//!
//! Builds one random §3.3 DAG, then times `ClosureConfig::threads(t)` builds
//! and `reaches_batch` sweeps for each requested thread count, reporting
//! speedups against the `threads = 1` serial baseline. Every parallel build
//! is checked to be interval-identical to the serial one before its numbers
//! are reported.
//!
//! ```text
//! parallel_scale [--nodes 50000] [--degree 3.0] [--seed 1]
//!                [--threads 1,2,4,8] [--pairs 200000] [--reps 3]
//! ```
//!
//! Writes `results/parallel_scale.csv`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_bench::{f2, Args, Table};
use tc_core::{ClosureConfig, CompressedClosure};
use tc_graph::{generators, NodeId};

fn main() {
    let args = Args::parse(&["nodes", "degree", "seed", "reps", "pairs", "threads"]);
    let nodes: usize = args.get("nodes", 50_000);
    let degree: f64 = args.get("degree", 3.0);
    let seed: u64 = args.get("seed", 1);
    let reps: usize = args.get("reps", 3).max(1);
    let pair_count: usize = args.get("pairs", 200_000);
    let list: String = args.get("threads", "1,2,4,8".to_string());
    let thread_counts: Vec<usize> = list
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();

    eprintln!("generating {nodes}-node, degree-{degree} DAG (seed {seed})...");
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes,
        avg_out_degree: degree,
        seed,
    });

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let pairs: Vec<(NodeId, NodeId)> = (0..pair_count)
        .map(|_| {
            (
                NodeId::from_index(rng.random_range(0..nodes)),
                NodeId::from_index(rng.random_range(0..nodes)),
            )
        })
        .collect();

    let (serial_build_ms, serial) = time_build(&g, 1, reps);
    let serial_batch_ms = time_batch(&serial, &pairs, reps);

    let mut table = Table::new(
        &format!("level-parallel scaling: n={nodes}, degree={degree}, {pair_count} batched queries"),
        &["threads", "build_ms", "build_speedup", "batch_ms", "batch_speedup"],
    );
    for &t in &thread_counts {
        let (build_ms, closure) = if t == 1 {
            (serial_build_ms, serial.clone())
        } else {
            let (ms, c) = time_build(&g, t, reps);
            assert_identical(&serial, &c, t);
            (ms, c)
        };
        let batch_ms = if t == 1 {
            serial_batch_ms
        } else {
            time_batch(&closure, &pairs, reps)
        };
        table.row(&[
            t.to_string(),
            f2(build_ms),
            f2(serial_build_ms / build_ms),
            f2(batch_ms),
            f2(serial_batch_ms / batch_ms),
        ]);
    }
    table.finish("parallel_scale");
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("(host reports {cpus} available CPUs)");
}

/// Builds the closure with `threads` workers `reps` times, returning the
/// best wall-clock milliseconds and the last closure.
fn time_build(g: &tc_graph::DiGraph, threads: usize, reps: usize) -> (f64, CompressedClosure) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let c = ClosureConfig::new()
            .threads(threads)
            .build(g)
            .expect("generated DAG is acyclic");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(c);
    }
    (best, out.expect("reps >= 1"))
}

/// Times one `reaches_batch` sweep over `pairs`, best of `reps`.
fn time_batch(c: &CompressedClosure, pairs: &[(NodeId, NodeId)], reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let answers = c.reaches_batch(pairs);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(answers.len(), pairs.len());
    }
    best
}

/// The parallel build must be interval-identical to the serial one; refuse
/// to report numbers for a wrong answer.
fn assert_identical(serial: &CompressedClosure, parallel: &CompressedClosure, threads: usize) {
    assert_eq!(
        serial.total_intervals(),
        parallel.total_intervals(),
        "threads={threads}: interval totals diverge from serial build"
    );
    for ix in 0..serial.node_count() {
        let v = NodeId::from_index(ix);
        assert_eq!(
            serial.intervals(v),
            parallel.intervals(v),
            "threads={threads}: interval set of {v:?} diverges from serial build"
        );
    }
}
