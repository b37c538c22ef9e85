//! **Figure 3.11** — storage required for a degree-2 graph as a function of
//! the number of nodes.
//!
//! "The size of the compressed closure increases slower than the size of
//! the full closure as the size of the graph is increased, giving better
//! compression for larger graphs."
//!
//! Usage: `cargo run --release -p tc-bench --bin fig3_11 [--degree 2]
//! [--seeds 3] [--max-nodes 3200]`

use tc_bench::{f2, mean, Args, Table};
use tc_core::CompressedClosure;
use tc_graph::generators::{random_dag, RandomDagConfig};

fn main() {
    let args = Args::parse(&["degree", "seeds", "max-nodes"]);
    let degree: f64 = args.get("degree", 2.0);
    let seeds: u64 = args.get("seeds", 3);
    let max_nodes: usize = args.get("max-nodes", 3200);

    let mut table = Table::new(
        &format!("Fig 3.11 — storage for a degree-{degree} graph vs node count (x{seeds} seeds)"),
        &[
            "nodes",
            "graph_arcs",
            "closure",
            "closure/graph",
            "compressed",
            "compressed/graph",
        ],
    );

    let mut nodes = 100usize;
    while nodes <= max_nodes {
        let mut arcs = Vec::new();
        let mut closure_sizes = Vec::new();
        let mut compressed = Vec::new();
        for seed in 0..seeds {
            let g = random_dag(RandomDagConfig {
                nodes,
                avg_out_degree: degree,
                seed: seed * 7919 + nodes as u64,
            });
            let c = CompressedClosure::build(&g).expect("generator yields DAGs");
            let stats = c.stats();
            arcs.push(stats.graph_arcs as f64);
            closure_sizes.push(stats.closure_size as f64);
            compressed.push(stats.compressed_units() as f64);
        }
        let (a, cl, co) = (mean(&arcs), mean(&closure_sizes), mean(&compressed));
        table.row(&[
            nodes.to_string(),
            format!("{a:.0}"),
            format!("{cl:.0}"),
            f2(cl / a),
            format!("{co:.0}"),
            f2(co / a),
        ]);
        nodes *= 2;
    }

    table.finish("fig3_11");
    println!(
        "Paper-shape check: closure/graph grows roughly linearly in n while compressed/graph\n\
         grows much slower — compression improves with graph size."
    );
}
