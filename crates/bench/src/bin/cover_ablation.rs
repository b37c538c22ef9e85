//! **Ablation** — how much the optimal (Alg1) tree cover matters.
//!
//! Compares interval counts across cover strategies over the §3.3 workload
//! grid, quantifying the value of Theorem 1's optimality in practice.
//!
//! Usage: `cargo run --release -p tc-bench --bin cover_ablation
//! [--nodes 1000] [--seeds 3] [--max-degree 8]`

use tc_bench::{f2, mean, Args, Table};
use tc_core::{ClosureConfig, CoverStrategy};
use tc_graph::generators::{random_dag, RandomDagConfig};

fn main() {
    let args = Args::parse(&["nodes", "seeds", "max-degree"]);
    let nodes: usize = args.get("nodes", 1000);
    let seeds: u64 = args.get("seeds", 3);
    let max_degree: u64 = args.get("max-degree", 8);

    let strategies = [
        ("alg1-optimal", CoverStrategy::Optimal),
        ("first-parent", CoverStrategy::FirstParent),
        ("random", CoverStrategy::Random { seed: 5 }),
        ("deepest", CoverStrategy::Deepest),
    ];

    let mut table = Table::new(
        &format!("Tree-cover ablation: total intervals, {nodes} nodes (x{seeds} seeds)"),
        &[
            "degree",
            "alg1-optimal",
            "first-parent",
            "random",
            "deepest",
            "worst/optimal",
        ],
    );

    for degree in 1..=max_degree {
        let mut per_strategy: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
        for seed in 0..seeds {
            let g = random_dag(RandomDagConfig {
                nodes,
                avg_out_degree: degree as f64,
                seed: seed * 17 + degree,
            });
            for (ix, (_, strat)) in strategies.iter().enumerate() {
                let c = ClosureConfig::new().strategy(*strat).build(&g).expect("DAG");
                per_strategy[ix].push(c.total_intervals() as f64);
            }
        }
        let means: Vec<f64> = per_strategy.iter().map(|xs| mean(xs)).collect();
        let worst = means.iter().cloned().fold(0.0f64, f64::max);
        table.row(&[
            degree.to_string(),
            format!("{:.0}", means[0]),
            format!("{:.0}", means[1]),
            format!("{:.0}", means[2]),
            format!("{:.0}", means[3]),
            f2(worst / means[0]),
        ]);
    }

    table.finish("cover_ablation");
    println!("Alg1 is the row minimum everywhere (Theorem 1); the margin grows with density.");
}
