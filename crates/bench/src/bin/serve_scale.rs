//! Reader scaling of the concurrent serving layer (DESIGN.md, "Concurrent
//! serving").
//!
//! Builds one random §3.3 DAG, starts a one-shard
//! [`tc_core::ShardedService`] — what the daemon and the CLI `serve` run by
//! default — and measures reader throughput (batched `reaches` probes) at 1/2/4/8 reader
//! threads, with and without a writer concurrently churning 1000-op
//! batches of §4-incremental updates (arc + leaf-node inserts, see
//! [`churn_ops`]) through the service. For comparison it also times the
//! mutex-serialized design the service replaces: readers and the writer
//! sharing one `Mutex<CompressedClosure>`, where every published batch
//! (apply + refreeze) stalls all readers for its full duration. Before any
//! number is reported, the service's answers are checked to be identical
//! to the mutable closure's over the full probe set.
//!
//! ```text
//! serve_scale [--nodes 50000] [--degree 3.0] [--seed 1] [--pairs 4096]
//!             [--duration-ms 300] [--reps 5] [--churn-batch 1000]
//!             [--churn-mix]
//! ```
//!
//! `--churn-mix` turns the writer batches into mixed add/remove churn
//! (arc removals of this batch's own inserts plus occasional node
//! removals), exercising the scoped deletion recompute under serving load.
//!
//! Writes `results/serve_scale.csv` with one row per (mode, readers,
//! writer) cell: probes/s, per-reader probes/s, scaling vs the same mode's
//! 1-reader cell, max observed staleness (ops), and snapshots published.
//! The `cores` column records `std::thread::available_parallelism` — reader
//! scaling is capped by physical cores, while the service-vs-mutex gap
//! under churn shows even on one core (snapshot readers never stall behind
//! the writer's apply+freeze).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_bench::{f2, Args, Table};
use tc_core::{
    ClosureConfig, CompressedClosure, ServiceConfig, ServiceOp, ShardedClosure, ShardedService,
};
use tc_graph::{generators, NodeId};

const READER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One timed cell.
struct Measurement {
    mode: &'static str,
    readers: usize,
    writer: bool,
    /// Total reader probes per second (best of reps).
    qps: f64,
    /// Max staleness (submitted-but-unseen ops) any reader observed.
    max_staleness: u64,
    /// Snapshots the writer published during the best rep.
    publishes: u64,
}

fn main() {
    let args = Args::parse();
    let nodes: usize = args.get("nodes", 50_000);
    let degree: f64 = args.get("degree", 3.0);
    let seed: u64 = args.get("seed", 1);
    let pair_count: usize = args.get("pairs", 4096);
    let duration_ms: u64 = args.get("duration-ms", 300);
    let reps: usize = args.get("reps", 5).max(1);
    let churn_batch: usize = args.get("churn-batch", 1000);
    let churn_mix = args.has("churn-mix");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());

    eprintln!("generating {nodes}-node, degree-{degree} DAG (seed {seed})...");
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes,
        avg_out_degree: degree,
        seed,
    });
    let start = Instant::now();
    let closure = ClosureConfig::new().build(&g).expect("generated DAG is acyclic");
    eprintln!(
        "built closure: {} intervals in {:.2}s ({cores} cores available)",
        closure.total_intervals(),
        start.elapsed().as_secs_f64()
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let pairs: Vec<(NodeId, NodeId)> = (0..pair_count)
        .map(|_| {
            (
                NodeId::from_index(rng.random_range(0..nodes)),
                NodeId::from_index(rng.random_range(0..nodes)),
            )
        })
        .collect();

    // Answers must be right before they are fast: the service's published
    // view must agree with the mutable closure over the whole probe set.
    let want = closure.reaches_batch(&pairs);
    let sharded =
        ShardedClosure::build(ClosureConfig::new(), &g, 1).expect("generated DAG is acyclic");
    {
        let service = ShardedService::start(sharded.clone(), ServiceConfig::new());
        let got = service.reader().reaches_batch(&pairs);
        assert_eq!(got, want, "service answers diverge from the mutable closure");
        eprintln!("service answers identical to mutable closure over {pair_count} pairs");
    }

    let mut cells: Vec<Measurement> = Vec::new();
    for writer in [false, true] {
        for &readers in &READER_COUNTS {
            let cell = best_service_cell(
                &sharded, &pairs, readers, writer, duration_ms, reps, churn_batch, nodes,
                churn_mix,
            );
            eprintln!(
                "service  readers={readers} writer={}: {:>12.0} probes/s, staleness<={}, {} publishes",
                u8::from(writer), cell.qps, cell.max_staleness, cell.publishes
            );
            cells.push(cell);
        }
    }
    for &readers in &READER_COUNTS {
        let cell = best_mutex_cell(
            &closure, &pairs, readers, duration_ms, reps, churn_batch, nodes, churn_mix,
        );
        eprintln!(
            "mutex    readers={readers} writer=1: {:>12.0} probes/s, {} publishes",
            cell.qps, cell.publishes
        );
        cells.push(cell);
    }

    let mut table = Table::new(
        &format!(
            "concurrent serving: n={nodes}, degree={degree}, {pair_count}-pair probe batches, \
             {churn_batch}-op writer batches, {duration_ms}ms cells, best of {reps}, \
             {cores} cores"
        ),
        &[
            "mode",
            "readers",
            "writer",
            "cores",
            "probes_per_s",
            "per_reader",
            "scaling_vs_1reader",
            "max_staleness_ops",
            "publishes",
        ],
    );
    for cell in &cells {
        let base = cells
            .iter()
            .find(|c| c.mode == cell.mode && c.writer == cell.writer && c.readers == 1)
            .map(|c| c.qps)
            .unwrap_or(cell.qps);
        table.row(&[
            cell.mode.to_string(),
            cell.readers.to_string(),
            u8::from(cell.writer).to_string(),
            cores.to_string(),
            format!("{:.0}", cell.qps),
            format!("{:.0}", cell.qps / cell.readers as f64),
            f2(cell.qps / base),
            cell.max_staleness.to_string(),
            cell.publishes.to_string(),
        ]);
    }
    table.finish("serve_scale");

    let service_churn = |readers: usize| {
        cells
            .iter()
            .find(|c| c.mode == "service" && c.writer && c.readers == readers)
            .map(|c| c.qps)
    };
    let mutex_churn = |readers: usize| {
        cells.iter().find(|c| c.mode == "mutex" && c.readers == readers).map(|c| c.qps)
    };
    for &readers in &READER_COUNTS {
        if let (Some(s), Some(m)) = (service_churn(readers), mutex_churn(readers)) {
            println!(
                "under churn, {readers} readers: snapshot service {:.2}x over mutex-serialized",
                s / m
            );
        }
    }
    if let (Some(one), Some(eight)) = (service_churn(1), service_churn(8)) {
        println!(
            "service under churn: 8 readers at {:.2}x the 1-reader throughput ({cores} cores)",
            eight / one
        );
    }
}

/// A 1000-op churn batch of §4-incremental ops: alternating non-tree arc
/// inserts and leaf-node adds at hashed positions, plus — with `mix` on —
/// arc removals (each one deleting the arc an earlier slot of the same
/// batch inserted, so removals hit real arcs) and occasional node removals.
/// Deletions used to be excluded here because `remove_edge`/`remove_node`
/// ended in a full non-tree recompute (near-rebuild, minutes of
/// repropagation per delete-heavy batch at 50k nodes); the scoped
/// affected-region recompute (DESIGN.md, "Scoped deletion recompute";
/// delete_scale / X2 measures the gap) made them batch-friendly. Arc
/// sources and leaf parents come from the shallow decile of the id space
/// (random DAGs here only have descending-id arcs, so low ids have few
/// predecessors): §4 insertion propagates the new intervals to every
/// predecessor of the attachment point, and shallow sources keep a batch —
/// and the scoped recompute of its removals — at real-but-bounded cost.
/// Arc destinations strictly ascend ids so no op is rejected as a cycle.
fn churn_ops(k: u64, batch: usize, nodes: usize, mix: bool) -> Vec<ServiceOp> {
    let shallow = (nodes / 10).max(1);
    let arc_at = |j: u64| {
        let h = j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let src = (h >> 32) as usize % shallow;
        let dst = src + 1 + (h >> 7) as usize % (nodes - src - 1);
        (NodeId(src as u32), NodeId(dst as u32))
    };
    (0..batch as u64)
        .map(|i| {
            let h = (k + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let src = NodeId(((h >> 32) as usize % shallow) as u32);
            match (i % 4, mix) {
                // Remove the arc slot i-2 of this batch inserted two ops
                // ago; a rare node removal rides along (the node regrows
                // arcs from later batches' inserts).
                (2, true) => {
                    let (src, dst) = arc_at(k + i - 2);
                    ServiceOp::RemoveEdge { src, dst }
                }
                (3, true) if h & 0x1f == 0 => ServiceOp::RemoveNode { node: src },
                _ => {
                    if i % 2 == 0 {
                        let (src, dst) = arc_at(k + i);
                        ServiceOp::AddEdge { src, dst }
                    } else {
                        ServiceOp::AddNode { parents: vec![src] }
                    }
                }
            }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn best_service_cell(
    sharded: &ShardedClosure,
    pairs: &[(NodeId, NodeId)],
    readers: usize,
    writer: bool,
    duration_ms: u64,
    reps: usize,
    churn_batch: usize,
    nodes: usize,
    mix: bool,
) -> Measurement {
    let mut best = Measurement {
        mode: "service",
        readers,
        writer,
        qps: 0.0,
        max_staleness: 0,
        publishes: 0,
    };
    for _ in 0..reps {
        let service = ShardedService::start(sharded.clone(), ServiceConfig::new().audit(false));
        let stop = AtomicBool::new(false);
        let (total, max_stale, elapsed) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let mut r = service.reader();
                    let (stop, pairs) = (&stop, pairs);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut probes = 0u64;
                        let mut max_stale = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            r.reaches_batch_into(pairs, &mut out);
                            probes += pairs.len() as u64;
                            max_stale = max_stale.max(r.staleness());
                        }
                        (probes, max_stale)
                    })
                })
                .collect();
            let start = Instant::now();
            let deadline = start + Duration::from_millis(duration_ms);
            let mut k = 0u64;
            while Instant::now() < deadline {
                if writer {
                    // flush() paces submission to the writer's real apply+
                    // freeze throughput instead of growing the queue without
                    // bound; readers keep answering from snapshots meanwhile.
                    service
                        .submit_batch(churn_ops(k, churn_batch, nodes, mix))
                        .expect("service closed mid-bench");
                    k += churn_batch as u64;
                    service.flush();
                } else {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            stop.store(true, Ordering::Relaxed);
            let elapsed = start.elapsed().as_secs_f64();
            let mut total = 0u64;
            let mut max_stale = 0u64;
            for h in handles {
                let (p, s) = h.join().expect("reader panicked");
                total += p;
                max_stale = max_stale.max(s);
            }
            (total, max_stale, elapsed)
        });
        let (stats, _) = service.shutdown();
        let qps = total as f64 / elapsed;
        if qps > best.qps {
            best.qps = qps;
            best.max_staleness = max_stale;
            best.publishes = stats.publishes;
        }
    }
    best
}

/// The design the service replaces: one big lock. Readers take the mutex
/// per probe batch; the churn writer takes it for a whole batch apply plus
/// refreeze, stalling every reader for that entire window.
#[allow(clippy::too_many_arguments)]
fn best_mutex_cell(
    closure: &CompressedClosure,
    pairs: &[(NodeId, NodeId)],
    readers: usize,
    duration_ms: u64,
    reps: usize,
    churn_batch: usize,
    nodes: usize,
    mix: bool,
) -> Measurement {
    let mut best = Measurement {
        mode: "mutex",
        readers,
        writer: true,
        qps: 0.0,
        max_staleness: 0,
        publishes: 0,
    };
    for _ in 0..reps {
        let mut frozen = closure.clone();
        frozen.freeze();
        let shared = Mutex::new(frozen);
        let stop = AtomicBool::new(false);
        let (total, publishes, elapsed) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let (stop, shared, pairs) = (&stop, &shared, pairs);
                    scope.spawn(move || {
                        let mut probes = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let guard = shared.lock().expect("closure mutex poisoned");
                            std::hint::black_box(guard.reaches_batch(pairs));
                            probes += pairs.len() as u64;
                        }
                        probes
                    })
                })
                .collect();
            let start = Instant::now();
            let deadline = start + Duration::from_millis(duration_ms);
            let mut k = 0u64;
            let mut publishes = 0u64;
            while Instant::now() < deadline {
                let ops = churn_ops(k, churn_batch, nodes, mix);
                k += churn_batch as u64;
                let mut guard = shared.lock().expect("closure mutex poisoned");
                for op in &ops {
                    let _ = match op {
                        ServiceOp::AddEdge { src, dst } => guard.add_edge(*src, *dst).map(|_| ()),
                        ServiceOp::AddNode { parents } => {
                            guard.add_node_with_parents(parents).map(|_| ())
                        }
                        ServiceOp::RemoveEdge { src, dst } => guard.remove_edge(*src, *dst),
                        ServiceOp::RemoveNode { node } => guard.remove_node(*node),
                        _ => Ok(()),
                    };
                }
                guard.freeze();
                drop(guard);
                publishes += 1;
            }
            stop.store(true, Ordering::Relaxed);
            let elapsed = start.elapsed().as_secs_f64();
            let total: u64 = handles.into_iter().map(|h| h.join().expect("reader panicked")).sum();
            (total, publishes, elapsed)
        });
        let qps = total as f64 / elapsed;
        if qps > best.qps {
            best.qps = qps;
            best.publishes = publishes;
        }
    }
    best
}
