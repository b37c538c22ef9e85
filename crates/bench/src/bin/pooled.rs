//! **§3.3 footnote** — shared-range storage: "one may do better, for
//! example, by storing the ranges separately and pointers to ranges at the
//! nodes".
//!
//! Compares the flat layout (two endpoints per interval, the paper's
//! "baseline performance measure") with the pooled layout (distinct ranges
//! stored once, one pointer per reference) across the §3.3 workload grid.
//!
//! Usage: `cargo run --release -p tc-bench --bin pooled [--nodes 1000]
//! [--seeds 3] [--max-degree 16]`

use tc_bench::{f2, mean, Args, Table};
use tc_core::pooled::PooledClosure;
use tc_core::ClosureConfig;
use tc_graph::generators::{random_dag, RandomDagConfig};

fn main() {
    let args = Args::parse(&["nodes", "seeds", "max-degree"]);
    let nodes: usize = args.get("nodes", 1000);
    let seeds: u64 = args.get("seeds", 3);
    let max_degree: u64 = args.get("max-degree", 16);

    let mut table = Table::new(
        &format!("Shared-range pool vs flat interval storage, {nodes} nodes (x{seeds} seeds)"),
        &["degree", "flat_units", "pooled_units", "distinct_ranges", "refs", "saved_%"],
    );

    let mut degree = 1u64;
    while degree <= max_degree {
        let mut flat = Vec::new();
        let mut pooled = Vec::new();
        let mut ranges = Vec::new();
        let mut refs = Vec::new();
        for seed in 0..seeds {
            let g = random_dag(RandomDagConfig {
                nodes,
                avg_out_degree: degree as f64,
                seed: seed * 53 + degree,
            });
            let c = ClosureConfig::new().gap(1).build(&g).expect("DAG");
            let p = PooledClosure::from_closure(&c);
            flat.push(p.flat_storage_units() as f64);
            pooled.push(p.storage_units() as f64);
            ranges.push(p.pool_size() as f64);
            refs.push(p.ref_count() as f64);
        }
        let (f, p) = (mean(&flat), mean(&pooled));
        table.row(&[
            degree.to_string(),
            format!("{f:.0}"),
            format!("{p:.0}"),
            format!("{:.0}", mean(&ranges)),
            format!("{:.0}", mean(&refs)),
            f2(100.0 * (f - p) / f),
        ]);
        degree *= 2;
    }

    table.finish("pooled");
    println!(
        "Paper-shape check: the pool never stores more than n distinct ranges (every interval\n\
         is some node's tree interval), so savings grow with interval sharing — i.e. with\n\
         density, exactly where the flat layout is largest."
    );
}
