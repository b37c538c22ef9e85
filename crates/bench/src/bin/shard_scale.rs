//! Shard scaling of the sharded closure layer (DESIGN.md, "Sharded
//! closure").
//!
//! Builds a multi-component random DAG — `--components` independent §3.3
//! DAGs side by side, the multi-rooted KB shape the WCC partitioner splits
//! cleanly — verifies the sharded answers bit-identical to the unsharded
//! closure over the full probe set (answers must be right before they are
//! fast), then measures, at 1/2/4/8 shards:
//!
//! * **writer throughput** — churn batches submitted through the
//!   [`tc_core::ShardedService`] front end, which validates each op against
//!   its authoritative mirror and fans the survivors out to one writer
//!   thread per shard (ops/s of submitted churn, plus the applied count);
//! * **batch-read throughput** — reader threads scatter-gathering the
//!   probe set through [`tc_core::ShardedReader::reaches_batch_into`]
//!   (same-shard pairs grouped per shard, leftovers through the boundary
//!   closure), with and without concurrent churn.
//!
//! Scaling ratios are against the 1-shard row, the service every
//! unsharded caller runs. Writer scaling is capped by physical cores — the
//! `cores` column records `std::thread::available_parallelism` so
//! single-core runs read honestly.
//!
//! Churn is component-local (shallow-source arc inserts, leaf adds, and
//! removals of the batch's own inserts within one component) with a 1/128
//! sprinkle of cross-component arcs, so per-shard writers see independent
//! streams while boundary maintenance still runs.
//!
//! ```text
//! shard_scale [--nodes 20000] [--components 8] [--degree 3.0] [--seed 1]
//!             [--pairs 4096] [--duration-ms 300] [--reps 3] [--readers 2]
//!             [--churn-batch 512]
//! ```
//!
//! Writes `results/shard_scale.csv`: one row per shard count with writer
//! ops/s, read-only and under-churn probes/s, the cross-arc and boundary
//! sizes the best churn rep left behind, and scaling ratios against the
//! 1-shard row.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_bench::{f2, Args, Table};
use tc_core::{ClosureConfig, ServiceConfig, ServiceOp, ShardedClosure, ShardedService};
use tc_graph::{generators, NodeId};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One row per shard count.
struct Measurement {
    shards: usize,
    /// Cross-shard arcs and boundary nodes after the best churn rep (the
    /// generated components are independent, so both start at zero).
    cross_arcs: usize,
    boundary: usize,
    /// Churn ops submitted+flushed per second (best of reps).
    write_ops: f64,
    /// Ops the shard writers actually applied during the best write rep.
    applied: u64,
    /// Read-only probes/s (best of reps).
    read_qps: f64,
    /// Probes/s with churn running concurrently (best of reps).
    churn_qps: f64,
}

fn main() {
    let args = Args::parse(&[
        "nodes",
        "degree",
        "seed",
        "pairs",
        "duration-ms",
        "reps",
        "readers",
        "churn-batch",
        "components",
    ]);
    let nodes: usize = args.get("nodes", 20_000);
    let degree: f64 = args.get("degree", 3.0);
    let seed: u64 = args.get("seed", 1);
    let pair_count: usize = args.get("pairs", 4096);
    let duration_ms: u64 = args.get("duration-ms", 300);
    let reps: usize = args.get("reps", 3).max(1);
    let readers: usize = args.get("readers", 2);
    let churn_batch: usize = args.get("churn-batch", 512);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());

    let components: usize = args.get("components", 8).max(1);
    let comp_size = (nodes / components).max(2);
    let nodes = comp_size * components;
    eprintln!(
        "generating {components} x {comp_size}-node degree-{degree} components (seed {seed})..."
    );
    let mut g = tc_graph::DiGraph::with_nodes(nodes);
    for c in 0..components {
        let part = generators::random_dag(generators::RandomDagConfig {
            nodes: comp_size,
            avg_out_degree: degree,
            seed: seed ^ (c as u64).wrapping_mul(0x632B_E5AB),
        });
        let base = (c * comp_size) as u32;
        for (u, v) in part.edges() {
            g.add_edge(NodeId(base + u.0), NodeId(base + v.0));
        }
    }
    let g = g;
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
    let want = closure.reaches_batch(&pairs);

    let churn = Churn { components, comp_size };
    let mut cells: Vec<Measurement> = Vec::new();
    for &shards in &SHARD_COUNTS {
        let start = Instant::now();
        let sharded = ShardedClosure::build(ClosureConfig::new(), &g, shards)
            .expect("generated DAG is acyclic");
        // The identity gate: every probe answered exactly as the unsharded
        // closure answers it, before any timing.
        assert_eq!(
            sharded.reaches_batch(&pairs),
            want,
            "sharded answers diverge from the unsharded closure at {shards} shards"
        );
        eprintln!(
            "{shards} shards (sizes {:?}, {} cross arcs, boundary {}) built in {:.2}s; \
             {pair_count} probe answers identical to the unsharded closure",
            sharded.shard_sizes(),
            sharded.cross_arc_count(),
            sharded.boundary_size(),
            start.elapsed().as_secs_f64()
        );
        cells.push(sharded_cell(
            &sharded, &pairs, &want, shards, readers, duration_ms, reps, churn_batch, churn,
        ));
    }

    let mut table = Table::new(
        &format!(
            "sharded closure scaling: n={nodes}, degree={degree}, {pair_count}-pair probe \
             batches, {churn_batch}-op churn batches, {readers} readers, {duration_ms}ms \
             cells, best of {reps}, {cores} cores"
        ),
        &[
            "shards",
            "cores",
            "cross_arcs",
            "boundary",
            "writer_ops_per_s",
            "applied",
            "read_probes_per_s",
            "churn_probes_per_s",
            "writer_scaling_vs_1shard",
            "read_scaling_vs_1shard",
        ],
    );
    let one_write = cells[0].write_ops;
    let one_read = cells[0].read_qps;
    for cell in &cells {
        table.row(&[
            cell.shards.to_string(),
            cores.to_string(),
            cell.cross_arcs.to_string(),
            cell.boundary.to_string(),
            format!("{:.0}", cell.write_ops),
            cell.applied.to_string(),
            format!("{:.0}", cell.read_qps),
            format!("{:.0}", cell.churn_qps),
            f2(cell.write_ops / one_write),
            f2(cell.read_qps / one_read),
        ]);
    }
    table.finish("shard_scale");

    for cell in &cells[1..] {
        println!(
            "{} shards: writer {:.2}x, batch reads {:.2}x vs 1 shard ({cores} cores)",
            cell.shards,
            cell.write_ops / one_write,
            cell.read_qps / one_read
        );
    }
}

/// Per-component churn geometry.
#[derive(Clone, Copy)]
struct Churn {
    components: usize,
    comp_size: usize,
}

impl Churn {
    /// Mostly component-local arc at hashed position `j`: shallow source
    /// within a hashed component, destination strictly ascending (global
    /// ids ascend within and across components, so ascending arcs can
    /// never close a cycle). About every 128th arc jumps past its
    /// component's end — a cross-component (usually cross-shard) arc that
    /// exercises boundary maintenance without letting the boundary swamp
    /// the run. The choice reads the hash's top bits: its low bits repeat
    /// `j`'s residues, so they would never pick a `j ≡ 3 (mod 4)` arc.
    fn arc_at(&self, j: u64) -> (NodeId, NodeId) {
        let h = j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let comp = (h >> 17) as usize % self.components;
        let base = comp * self.comp_size;
        let shallow = (self.comp_size / 10).max(1);
        let src = base + (h >> 32) as usize % shallow;
        let cross = h >> 57 == 0;
        let end = if cross { self.components * self.comp_size } else { base + self.comp_size };
        let dst = src + 1 + (h >> 7) as usize % (end - src - 1);
        (NodeId(src as u32), NodeId(dst as u32))
    }
}

/// Churn batch of arc inserts, leaf adds, and removals of this batch's own
/// earlier inserts, all component-local (see [`Churn::arc_at`]), so
/// per-shard writers see independent streams. The sharded front end
/// validates each op and routes it to the owning shard's writer;
/// cross-shard arcs go through boundary maintenance instead.
///
/// Each 4-op group inserts arc `k+i`, adds a leaf, removes that arc again
/// and inserts the group's last arc, which no other op touches, so a batch
/// leaves `batch / 4` new arcs behind.
fn churn_ops(k: u64, batch: usize, churn: Churn) -> Vec<ServiceOp> {
    (0..batch as u64)
        .map(|i| match i % 4 {
            0 => {
                let (src, dst) = churn.arc_at(k + i);
                ServiceOp::AddEdge { src, dst }
            }
            1 => {
                let (src, _) = churn.arc_at(k + i);
                ServiceOp::AddNode { parents: vec![src] }
            }
            2 => {
                let (src, dst) = churn.arc_at(k + i - 2);
                ServiceOp::RemoveEdge { src, dst }
            }
            _ => {
                let (src, dst) = churn.arc_at(k + i);
                ServiceOp::AddEdge { src, dst }
            }
        })
        .collect()
}

/// Generic timed cell: spawns `readers` probe threads against `read`,
/// drives `churn` on the main thread until the deadline, returns (probes/s,
/// churn ops/s).
fn timed_cell(
    readers: usize,
    duration_ms: u64,
    read: impl Fn(&AtomicBool) -> u64 + Sync,
    mut churn: impl FnMut() -> u64,
) -> (f64, f64) {
    let stop = AtomicBool::new(false);
    let (probes, ops, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..readers).map(|_| scope.spawn(|| read(&stop))).collect();
        let start = Instant::now();
        let deadline = start + Duration::from_millis(duration_ms);
        let mut ops = 0u64;
        while Instant::now() < deadline {
            let done = churn();
            if done == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            ops += done;
        }
        stop.store(true, Ordering::Relaxed);
        let elapsed = start.elapsed().as_secs_f64();
        let probes: u64 = handles.into_iter().map(|h| h.join().expect("reader panicked")).sum();
        (probes, ops, elapsed)
    });
    (probes as f64 / elapsed, ops as f64 / elapsed)
}

#[allow(clippy::too_many_arguments)]
fn sharded_cell(
    sharded: &ShardedClosure,
    pairs: &[(NodeId, NodeId)],
    want: &[bool],
    shards: usize,
    readers: usize,
    duration_ms: u64,
    reps: usize,
    churn_batch: usize,
    churn: Churn,
) -> Measurement {
    let mut best = Measurement {
        shards,
        cross_arcs: 0,
        boundary: 0,
        write_ops: 0.0,
        applied: 0,
        read_qps: 0.0,
        churn_qps: 0.0,
    };
    for _ in 0..reps {
        // Read-only cell.
        let service = ShardedService::start(sharded.clone(), ServiceConfig::new().audit(false));
        assert_eq!(service.reader().reaches_batch(pairs), want);
        let (read_qps, _) = timed_cell(
            readers,
            duration_ms,
            |stop| {
                let mut r = service.reader();
                let mut out = Vec::new();
                let mut probes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    r.reaches_batch_into(pairs, &mut out);
                    probes += pairs.len() as u64;
                }
                probes
            },
            || 0,
        );
        service.shutdown();
        best.read_qps = best.read_qps.max(read_qps);

        // Churn cell: the front end validates, routes to per-shard writers,
        // and publishes one view of all shards at each flush.
        let service = ShardedService::start(sharded.clone(), ServiceConfig::new().audit(false));
        let mut k = 0u64;
        let (churn_qps, write_ops) = timed_cell(
            readers,
            duration_ms,
            |stop| {
                let mut r = service.reader();
                let mut out = Vec::new();
                let mut probes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    r.reaches_batch_into(pairs, &mut out);
                    probes += pairs.len() as u64;
                }
                probes
            },
            || {
                service
                    .submit_batch(churn_ops(k, churn_batch, churn))
                    .expect("service closed mid-bench");
                k += churn_batch as u64;
                service.flush();
                churn_batch as u64
            },
        );
        let (stats, after) = service.shutdown();
        if let Some(v) = stats.audit_violation {
            panic!("shard audit failed during churn: {v}");
        }
        if write_ops > best.write_ops {
            best.write_ops = write_ops;
            best.applied = stats.applied;
            best.churn_qps = churn_qps;
            best.cross_arcs = after.cross_arc_count();
            best.boundary = after.boundary_size();
        }
    }
    eprintln!(
        "sharded {shards:>2} shards: {:>10.0} writer ops/s, {:>12.0} read probes/s, {:>12.0} under churn",
        best.write_ops, best.read_qps, best.churn_qps
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const CHURN: Churn = Churn {
        components: 8,
        comp_size: 2500,
    };

    /// The arcs a batch's last-of-group ops insert.
    fn kept_arcs(ops: &[ServiceOp]) -> Vec<(NodeId, NodeId)> {
        ops.iter()
            .skip(3)
            .step_by(4)
            .map(|op| match *op {
                ServiceOp::AddEdge { src, dst } => (src, dst),
                _ => panic!("the last op of a group must insert an arc, got {op:?}"),
            })
            .collect()
    }

    #[test]
    fn churn_keeps_every_arc_its_last_op_inserts() {
        let ops = churn_ops(0, 512, CHURN);
        let mut arcs = HashSet::new();
        for op in &ops {
            match *op {
                ServiceOp::AddEdge { src, dst } => {
                    arcs.insert((src, dst));
                }
                ServiceOp::RemoveEdge { src, dst } => {
                    arcs.remove(&(src, dst));
                }
                _ => {}
            }
        }
        for (src, dst) in kept_arcs(&ops) {
            assert!(
                arcs.contains(&(src, dst)),
                "churn took back its insert {src:?} -> {dst:?}"
            );
        }
    }

    #[test]
    fn kept_churn_arcs_include_cross_component_ones() {
        let kept: Vec<_> = (0..16u64)
            .flat_map(|b| kept_arcs(&churn_ops(b * 512, 512, CHURN)))
            .collect();
        let cross = kept
            .iter()
            .filter(|(s, d)| s.index() / CHURN.comp_size != d.index() / CHURN.comp_size)
            .count();
        // About 1 in 128 of the 2048 kept arcs.
        assert!(
            (4..=64).contains(&cross),
            "{cross} of {} kept arcs cross components",
            kept.len()
        );
    }
}
