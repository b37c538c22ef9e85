//! **§4 extension** — cost of incremental updates vs recomputation, and vs
//! Italiano's structure.
//!
//! The paper argues "the incremental cost of adding new nodes and
//! relationships should be less than recomputing the transitive closure"
//! and gives the §4 algorithms; this experiment quantifies the gap on this
//! implementation, including the constant-time refinement path.
//!
//! Usage: `cargo run --release -p tc-bench --bin updates [--nodes 2000]
//! [--ops 200]`

use std::time::Instant;

use tc_baselines::ItalianoIndex;
use tc_bench::{f3, Args, Table};
use tc_core::{ClosureConfig, CompressedClosure};
use tc_graph::generators::{random_dag, RandomDagConfig};
use tc_graph::NodeId;

fn micros_per_op(total: std::time::Duration, ops: usize) -> String {
    f3(total.as_secs_f64() * 1e6 / ops as f64)
}

fn main() {
    let args = Args::parse(&["nodes", "ops"]);
    let nodes: usize = args.get("nodes", 2000);
    let ops: usize = args.get("ops", 200);

    let g = random_dag(RandomDagConfig {
        nodes,
        avg_out_degree: 2.0,
        seed: 42,
    });

    let mut table = Table::new(
        &format!("Update costs on a {nodes}-node degree-2 DAG ({ops} ops each)"),
        &["operation", "us_per_op"],
    );

    // Leaf additions (tree arcs): constant-work midpoint insertion.
    let mut c = ClosureConfig::new().reserve(8).build(&g).expect("DAG");
    let start = Instant::now();
    for i in 0..ops {
        c.add_node_with_parents(&[NodeId((i % nodes) as u32)]).expect("add leaf");
    }
    table.row(&["add leaf (tree arc)".into(), micros_per_op(start.elapsed(), ops)]);

    // Non-tree arc additions with propagation cut-off.
    let mut c = ClosureConfig::new().build(&g).expect("DAG");
    let pairs: Vec<(NodeId, NodeId)> = {
        let mut out = Vec::new();
        let mut s = 1u64;
        while out.len() < ops {
            // Simple LCG over node pairs; keep only cycle-safe new arcs.
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = NodeId((s >> 33) as u32 % nodes as u32);
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = NodeId((s >> 33) as u32 % nodes as u32);
            if a != b && !c.reaches(b, a) && !c.graph().has_edge(a, b) {
                out.push((a, b));
            }
        }
        out
    };
    let start = Instant::now();
    let mut applied = 0usize;
    for &(a, b) in &pairs {
        // Earlier insertions may have made this pair cycle-forming; the
        // check itself is one closure lookup.
        if !c.reaches(b, a) {
            c.add_edge(a, b).expect("checked");
            applied += 1;
        }
    }
    table.row(&["add non-tree arc".into(), micros_per_op(start.elapsed(), applied.max(1))]);

    // Constant-time refinement: one refinement per (distinct) node, the
    // hierarchy-refinement pattern of §4.1.
    let mut c = ClosureConfig::new().reserve(8).build(&g).expect("DAG");
    let start = Instant::now();
    let mut done = 0usize;
    for i in 0..ops.min(nodes) {
        let child = NodeId(i as u32);
        let preds: Vec<NodeId> = c.graph().predecessors(child).to_vec();
        if c.refine_insert(child, &preds).is_ok() {
            done += 1;
        }
    }
    table.row(&["refine_insert (reserve)".into(), micros_per_op(start.elapsed(), done.max(1))]);

    // Arc deletion (reverse-topological recompute).
    let mut c = ClosureConfig::new().build(&g).expect("DAG");
    let victims: Vec<(NodeId, NodeId)> = c.graph().edges().take(ops).collect();
    let start = Instant::now();
    for &(a, b) in &victims {
        c.remove_edge(a, b).expect("edge exists");
    }
    table.row(&["remove arc".into(), micros_per_op(start.elapsed(), ops)]);

    // Full rebuild (the §4 alternative the incremental path avoids).
    let start = Instant::now();
    let reps = 10;
    for _ in 0..reps {
        let _ = CompressedClosure::build(&g).expect("DAG");
    }
    table.row(&["full rebuild (Alg1 + propagate)".into(), micros_per_op(start.elapsed(), reps)]);

    // Italiano [17]: amortized-efficient arc insertion, O(n^2) memory.
    let start = Instant::now();
    let mut it = ItalianoIndex::new(nodes);
    for (s, d) in g.edges() {
        it.insert_edge(s, d);
    }
    table.row(&[
        "italiano insert (per arc, full build)".into(),
        micros_per_op(start.elapsed(), g.edge_count()),
    ]);

    table.finish("updates");
    println!(
        "Paper-shape check: leaf addition and refinement are orders of magnitude cheaper than\n\
         a rebuild; non-tree additions sit in between (subsumption cut-off); deletions cost\n\
         one reverse-topological sweep."
    );
}
