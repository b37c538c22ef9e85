//! **Figure 3.10** — storage for a 1000-node graph vs average degree,
//! compressed closure against the *inverse* closure.
//!
//! The paper: "The size of the inverse closure falls rapidly as the degree
//! of the graph is increased … However, the size of the compressed closure
//! stays well below that of the inverse closure, and decreases at a rate
//! comparable to the inverse closure for high degrees."
//!
//! Usage: `cargo run --release -p tc-bench --bin fig3_10 [--nodes 1000]
//! [--seeds 3] [--max-degree 10]`

use tc_baselines::{InverseClosure, ReachabilityIndex};
use tc_bench::{f2, mean, Args, Table};
use tc_core::CompressedClosure;
use tc_graph::generators::{random_dag, RandomDagConfig};

fn main() {
    let args = Args::parse(&["nodes", "seeds", "max-degree"]);
    let nodes: usize = args.get("nodes", 1000);
    let seeds: u64 = args.get("seeds", 3);
    let degrees: Vec<u64> = if args.has("max-degree") {
        (1..=args.get("max-degree", 10)).collect()
    } else {
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 24, 32]
    };

    let mut table = Table::new(
        &format!("Fig 3.10 — compressed vs inverse closure, {nodes} nodes (x{seeds} seeds)"),
        &[
            "degree",
            "graph_arcs",
            "inverse",
            "inverse/graph",
            "compressed",
            "compressed/graph",
        ],
    );

    for &degree in &degrees {
        let mut arcs = Vec::new();
        let mut inverse_units = Vec::new();
        let mut compressed = Vec::new();
        for seed in 0..seeds {
            let g = random_dag(RandomDagConfig {
                nodes,
                avg_out_degree: degree as f64,
                seed: seed * 1000 + degree,
            });
            let inv = InverseClosure::build(&g).expect("generator yields DAGs");
            let c = CompressedClosure::build(&g).expect("generator yields DAGs");
            arcs.push(g.edge_count() as f64);
            inverse_units.push(inv.storage_units() as f64);
            compressed.push(c.stats().compressed_units() as f64);
        }
        let (a, iv, co) = (mean(&arcs), mean(&inverse_units), mean(&compressed));
        table.row(&[
            degree.to_string(),
            format!("{a:.0}"),
            format!("{iv:.0}"),
            f2(iv / a),
            format!("{co:.0}"),
            f2(co / a),
        ]);
    }

    table.finish("fig3_10");
    println!(
        "Paper-shape checks: inverse falls rapidly with degree; compressed stays below inverse\n\
         throughout and declines comparably at high degree."
    );
}
