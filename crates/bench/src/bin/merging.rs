//! **§3.3 merging claim** — benefit of adjacent-interval merging.
//!
//! "We finally performed experiments in all cases to assess the benefits of
//! interval merging. We found the additional compression obtained was rather
//! small, usually less than 5%."
//!
//! Usage: `cargo run --release -p tc-bench --bin merging [--nodes 1000]
//! [--seeds 3] [--max-degree 8]`

use tc_bench::{f2, mean, Args, Table};
use tc_core::ClosureConfig;
use tc_graph::generators::{random_dag, RandomDagConfig};

fn main() {
    let args = Args::parse(&["nodes", "seeds", "max-degree"]);
    let nodes: usize = args.get("nodes", 1000);
    let seeds: u64 = args.get("seeds", 3);
    let max_degree: u64 = args.get("max-degree", 8);

    let mut table = Table::new(
        &format!("Adjacent-interval merging benefit, {nodes} nodes (x{seeds} seeds)"),
        &["degree", "intervals", "merged", "saved_%"],
    );

    let mut worst = 0.0f64;
    for degree in 1..=max_degree {
        let mut plain_counts = Vec::new();
        let mut merged_counts = Vec::new();
        for seed in 0..seeds {
            let g = random_dag(RandomDagConfig {
                nodes,
                avg_out_degree: degree as f64,
                seed: seed * 131 + degree,
            });
            // gap(1): contiguous numbering, the setting where adjacency can
            // occur at all.
            let plain = ClosureConfig::new().gap(1).build(&g).expect("DAG");
            let merged = ClosureConfig::new()
                .gap(1)
                .merge_adjacent(true)
                .build(&g)
                .expect("DAG");
            plain_counts.push(plain.total_intervals() as f64);
            merged_counts.push(merged.total_intervals() as f64);
        }
        let (p, m) = (mean(&plain_counts), mean(&merged_counts));
        let saved = 100.0 * (p - m) / p;
        worst = worst.max(saved);
        table.row(&[
            degree.to_string(),
            format!("{p:.0}"),
            format!("{m:.0}"),
            f2(saved),
        ]);
    }

    table.finish("merging");
    println!(
        "Paper claim: merging saves \"usually less than 5%\". Largest saving observed here: {:.2}%.",
        worst
    );
}
