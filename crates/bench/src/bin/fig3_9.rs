//! **Figure 3.9** — storage required for a 1000-node graph as a function of
//! average degree.
//!
//! Reproduces the paper's series: size of the full transitive closure and of
//! the compressed closure, both as multiples of the original graph's size,
//! for random DAGs of increasing average out-degree. Expected shape: the
//! closure ratio rises steeply to a large plateau (most arcs derivable by
//! degree ~4), while the compressed ratio rises slightly, then *falls below
//! 1.0* — "the size of the compressed closure becomes even less than the
//! size of the original graph itself".
//!
//! Usage: `cargo run --release -p tc-bench --bin fig3_9 [--nodes 1000]
//! [--seeds 3] [--max-degree 10]`

use tc_bench::{f2, mean, Args, Table};
use tc_core::CompressedClosure;
use tc_graph::generators::{random_dag, RandomDagConfig};

fn main() {
    let args = Args::parse(&["nodes", "seeds", "max-degree"]);
    let nodes: usize = args.get("nodes", 1000);
    let seeds: u64 = args.get("seeds", 3);
    // Default schedule extends past 10 so the compressed-below-graph
    // crossover ("even less than the size of the original graph itself") is
    // visible; --max-degree d switches to a dense 1..=d sweep.
    let degrees: Vec<u64> = if args.has("max-degree") {
        (1..=args.get("max-degree", 10)).collect()
    } else {
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 24, 32]
    };

    let mut table = Table::new(
        &format!("Fig 3.9 — storage for a {nodes}-node graph vs average degree (x{seeds} seeds)"),
        &[
            "degree",
            "graph_arcs",
            "closure",
            "closure/graph",
            "compressed",
            "compressed/graph",
        ],
    );

    for &degree in &degrees {
        let mut arcs = Vec::new();
        let mut closure_sizes = Vec::new();
        let mut compressed = Vec::new();
        for seed in 0..seeds {
            let g = random_dag(RandomDagConfig {
                nodes,
                avg_out_degree: degree as f64,
                seed: seed * 1000 + degree,
            });
            let c = CompressedClosure::build(&g).expect("generator yields DAGs");
            let stats = c.stats();
            arcs.push(stats.graph_arcs as f64);
            closure_sizes.push(stats.closure_size as f64);
            compressed.push(stats.compressed_units() as f64);
        }
        let (a, cl, co) = (mean(&arcs), mean(&closure_sizes), mean(&compressed));
        table.row(&[
            degree.to_string(),
            format!("{a:.0}"),
            format!("{cl:.0}"),
            f2(cl / a),
            format!("{co:.0}"),
            f2(co / a),
        ]);
    }

    table.finish("fig3_9");
    println!(
        "Paper-shape checks: closure/graph peaks early then declines relative to graph growth;\n\
         compressed/graph dips below 1.0 at higher degrees (redundant arcs eliminated)."
    );
}
