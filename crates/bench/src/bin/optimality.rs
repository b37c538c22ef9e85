//! **Theorem 1** — Alg1 vs exhaustive tree-cover search and vs heuristic
//! covers.
//!
//! Sweeps every 6-node DAG (2^15 masks) checking that Alg1's interval count
//! equals the brute-force minimum over *all* tree covers, then quantifies on
//! larger random graphs how much worse the naive heuristics are — the
//! ablation justifying Alg1's existence.
//!
//! Usage: `cargo run --release -p tc-bench --bin optimality [--mask-nodes 6]
//! [--random-nodes 9] [--random-graphs 50]`

use tc_bench::{f2, Args, Table};
use tc_core::bruteforce::exhaustive_min_intervals;
use tc_core::{ClosureConfig, CompressedClosure, CoverStrategy};
use tc_graph::generators::{dag_from_mask, enumerate_dag_masks, random_dag, RandomDagConfig};

fn main() {
    let args = Args::parse(&["mask-nodes", "random-nodes", "random-graphs"]);
    let mask_nodes: usize = args.get("mask-nodes", 6);
    let random_nodes: usize = args.get("random-nodes", 9);
    let random_graphs: u64 = args.get("random-graphs", 50);

    // Part 1: exhaustive Theorem 1 sweep over all small DAGs.
    let mut checked = 0u64;
    let mut skipped = 0u64;
    let mut mismatches = 0u64;
    for mask in enumerate_dag_masks(mask_nodes) {
        let g = dag_from_mask(mask_nodes, mask);
        match exhaustive_min_intervals(&g, 100_000) {
            Some(brute) => {
                let alg1 = CompressedClosure::build(&g).expect("DAG").total_intervals();
                if alg1 != brute.min_intervals {
                    mismatches += 1;
                    eprintln!("MISMATCH mask {mask:#b}: alg1 {alg1} vs brute {}", brute.min_intervals);
                }
                checked += 1;
            }
            None => skipped += 1,
        }
    }
    println!(
        "Theorem 1 sweep over all {mask_nodes}-node DAGs: {checked} graphs checked, \
         {skipped} skipped (cover space > limit), {mismatches} mismatches.\n"
    );
    assert_eq!(mismatches, 0, "Theorem 1 violated!");

    // Part 2: heuristic ablation on random graphs.
    let mut table = Table::new(
        &format!("Cover heuristics vs Alg1 on {random_graphs} random {random_nodes}-node DAGs"),
        &["strategy", "suboptimal_graphs", "avg_excess_intervals", "max_excess"],
    );
    let strategies = [
        ("first-parent", CoverStrategy::FirstParent),
        ("random", CoverStrategy::Random { seed: 999 }),
        ("deepest", CoverStrategy::Deepest),
    ];
    let mut excess: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    for seed in 0..random_graphs {
        let g = random_dag(RandomDagConfig {
            nodes: random_nodes,
            avg_out_degree: 1.8,
            seed,
        });
        let optimal = CompressedClosure::build(&g).expect("DAG").total_intervals();
        for (ix, (_, strat)) in strategies.iter().enumerate() {
            let other = ClosureConfig::new()
                .strategy(*strat)
                .build(&g)
                .expect("DAG")
                .total_intervals();
            assert!(other >= optimal, "Theorem 1 violated by {strat:?}");
            excess[ix].push((other - optimal) as f64);
        }
    }
    for (ix, (name, _)) in strategies.iter().enumerate() {
        let subopt = excess[ix].iter().filter(|&&e| e > 0.0).count();
        let avg = tc_bench::mean(&excess[ix]);
        let max = excess[ix].iter().cloned().fold(0.0f64, f64::max);
        table.row(&[
            name.to_string(),
            subopt.to_string(),
            f2(avg),
            format!("{max:.0}"),
        ]);
    }
    table.finish("optimality");
}
