//! Out-of-core frozen plane: I/O scaling (DESIGN.md, "Out-of-core frozen
//! plane").
//!
//! Two experiments over `save_paged` images of random §3.3 DAGs:
//!
//! 1. **startup** — for graphs of increasing size, time
//!    [`tc_core::CompressedClosure::open_paged`] (directory-only, O(1) in
//!    the interval count) against a full [`tc_core::CompressedClosure::load`]
//!    decode of the same file. The open column must stay flat while the
//!    load column grows with the graph.
//! 2. **pool sweep** — on the largest graph, serve a mixed probe workload
//!    (point `reaches`, `successors` and `predecessors` decodes) through
//!    buffer pools sized from a small fraction of the plane up past its
//!    full footprint, reporting page reads per probe and the pool hit
//!    rate. Before any timing, paged answers over the full probe sets are
//!    asserted identical to a resident [`tc_core::QueryPlane`] freeze —
//!    including for pools far smaller than the plane — and the same
//!    workload timed on that resident plane gives the floor to read the
//!    pool rows against.
//!
//! ```text
//! io_scale [--nodes 40000] [--degree 3.0] [--seed 1]
//!          [--probes 200000] [--decodes 400] [--reps 3]
//! ```
//!
//! Writes `results/io_scale.csv`: one `startup` row per graph size, one
//! `resident` row, and one `pool` row per pool size.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_bench::{f2, Args, Table};
use tc_core::paged::{FrozenPlane, PageSource};
use tc_core::{ClosureConfig, CompressedClosure, PagedPlane};
use tc_graph::{generators, NodeId};

fn main() {
    let args = Args::parse(&["nodes", "degree", "seed", "probes", "decodes", "reps"]);
    let nodes: usize = args.get("nodes", 40_000);
    let degree: f64 = args.get("degree", 3.0);
    let seed: u64 = args.get("seed", 1);
    let probe_count: usize = args.get("probes", 200_000);
    let decode_count: usize = args.get("decodes", 400);
    let reps: usize = args.get("reps", 3).max(1);

    let mut table = Table::new(
        &format!(
            "out-of-core frozen plane: degree={degree}, seed={seed}, \
             {probe_count} probes / {decode_count} decodes per direction"
        ),
        &[
            "phase",
            "nodes",
            "intervals",
            "payload_pages",
            "pool_pages",
            "open_ms",
            "load_ms",
            "probe_ms",
            "reads_per_probe",
            "hit_rate",
        ],
    );

    // Phase 1: restart cost. Open the directory vs decode the whole stream
    // for the same image, across graph sizes.
    let sizes = [nodes / 8, nodes / 4, nodes / 2, nodes];
    let mut largest: Option<(CompressedClosure, std::path::PathBuf)> = None;
    for &n in sizes.iter().filter(|&&n| n >= 2) {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: n,
            avg_out_degree: degree,
            seed,
        });
        let closure = ClosureConfig::new().build(&g).expect("generated DAG is acyclic");
        let path = temp_path(n);
        closure.save_paged(&path).expect("writing paged image");

        let open_ms = best_of(reps, || {
            CompressedClosure::open_paged(&path, 2).expect("open_paged").node_count()
        });
        let load_ms = best_of(reps, || {
            CompressedClosure::load(&path).expect("full load").node_count()
        });
        let plane = CompressedClosure::open_paged(&path, 2).expect("open_paged");
        table.row(&[
            "startup".into(),
            n.to_string(),
            closure.total_intervals().to_string(),
            plane.plane().payload_pages().to_string(),
            String::new(),
            // open_paged is microseconds; keep enough digits to show the
            // flat trend next to the growing full-load column.
            format!("{open_ms:.4}"),
            f2(load_ms),
            String::new(),
            String::new(),
            String::new(),
        ]);
        eprintln!(
            "startup n={n}: open_paged {open_ms:.3}ms vs full load {load_ms:.2}ms \
             ({:.0}x)",
            load_ms / open_ms
        );
        if n == *sizes.last().unwrap() {
            largest = Some((closure, path));
        } else {
            let _ = std::fs::remove_file(&path);
        }
    }

    // Phase 2: pool sweep on the largest image. Answers first, numbers
    // second: every pool size is checked bit-identical to the resident
    // plane over the full probe sets before it is timed.
    let (mut closure, path) = largest.expect("at least one size benchmarked");
    let n = closure.node_count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let probes: Vec<(NodeId, NodeId)> = (0..probe_count)
        .map(|_| {
            (
                NodeId::from_index(rng.random_range(0..n)),
                NodeId::from_index(rng.random_range(0..n)),
            )
        })
        .collect();
    let sample: Vec<NodeId> = (0..decode_count)
        .map(|_| NodeId::from_index(rng.random_range(0..n)))
        .collect();

    closure.set_paged_pool(0);
    closure.freeze();
    let resident = closure.plane().expect("resident freeze");
    let want: Vec<bool> = probes.iter().map(|&(s, d)| resident.reaches(s, d)).collect();
    let want_succ: Vec<Vec<NodeId>> = sample.iter().map(|&v| resident.successors(v)).collect();
    let want_pred: Vec<Vec<NodeId>> = sample.iter().map(|&v| resident.predecessors(v)).collect();

    let full = CompressedClosure::open_paged(&path, 2)
        .expect("open_paged")
        .plane()
        .payload_pages();
    let mut pools: Vec<usize> = [full / 16, full / 4, full / 2, full, full * 2]
        .iter()
        .map(|&p| (p as usize).max(2))
        .collect();
    pools.dedup();
    // The same workload on the resident plane: the floor every pool row is
    // read against.
    let resident_ms = time_workload(resident, &probes, &sample);
    table.row(&[
        "resident".into(),
        n.to_string(),
        closure.total_intervals().to_string(),
        full.to_string(),
        String::new(),
        String::new(),
        String::new(),
        f2(resident_ms),
        String::new(),
        String::new(),
    ]);
    eprintln!("resident: {resident_ms:.1}ms");
    for pool in pools {
        let plane = CompressedClosure::open_paged(&path, pool).expect("open_paged");
        let plane: &PagedPlane = plane.plane();
        check_identical(plane, &probes, &want, &sample, &want_succ, &want_pred);

        plane.reset_io();
        let probe_ms = time_workload(plane, &probes, &sample);
        let io = plane.io_stats();
        let ops = (probes.len() + 2 * sample.len()) as f64;
        table.row(&[
            "pool".into(),
            n.to_string(),
            closure.total_intervals().to_string(),
            full.to_string(),
            pool.to_string(),
            String::new(),
            String::new(),
            f2(probe_ms),
            format!("{:.3}", io.page_reads as f64 / ops),
            format!("{:.4}", io.pool.hit_ratio()),
        ]);
        eprintln!(
            "pool {pool}/{full} pages: {probe_ms:.1}ms, {:.3} page reads/probe, \
             hit rate {:.1}% ({} evictions)",
            io.page_reads as f64 / ops,
            io.pool.hit_ratio() * 100.0,
            io.pool.evictions
        );
    }
    let _ = std::fs::remove_file(&path);

    table.finish("io_scale");
}

/// Refuse to time wrong answers: the paged plane must match the resident
/// one over every probe and decode in the workload.
fn check_identical(
    plane: &PagedPlane,
    probes: &[(NodeId, NodeId)],
    want: &[bool],
    sample: &[NodeId],
    want_succ: &[Vec<NodeId>],
    want_pred: &[Vec<NodeId>],
) {
    assert_eq!(plane.reaches_batch(probes), want, "paged reaches diverge");
    for (ix, &v) in sample.iter().enumerate() {
        assert_eq!(plane.successors(v), want_succ[ix], "successors({v:?}) diverge");
        assert_eq!(plane.predecessors(v), want_pred[ix], "predecessors({v:?}) diverge");
    }
}

/// Milliseconds to run the pool-sweep workload once on `plane`: every point
/// probe, then a `successors` and a `predecessors` decode per sample node.
fn time_workload<S: PageSource>(
    plane: &FrozenPlane<S>,
    probes: &[(NodeId, NodeId)],
    sample: &[NodeId],
) -> f64 {
    let start = Instant::now();
    let mut acc = 0usize;
    for &(s, d) in probes {
        acc += usize::from(plane.reaches(s, d));
    }
    for &v in sample {
        acc += plane.successors(v).len();
        acc += plane.predecessors(v).len();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

fn temp_path(tag: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tc-io-scale-{}-{tag}.itc", std::process::id()))
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
