//! **Figures 3.6 / 3.7** — the bipartite worst case and its hub rewrite.
//!
//! Fig 3.6: a complete bipartite DAG K(m+1, n−m−1) drives the compressed
//! closure to its quadratic maximum — "(n+1)²/4 for n = 2m+1". Fig 3.7:
//! routing the same reachability through one intermediary node brings it
//! back to "(m+2) + 2(n−m−1) … which is again O(n)" intervals.
//!
//! Usage: `cargo run --release -p tc-bench --bin worst_case [--max-half 64]`

use tc_bench::{Args, Table};
use tc_core::ClosureConfig;
use tc_graph::generators::{bipartite_with_hub, bipartite_worst};

fn main() {
    let args = Args::parse(&["max-half"]);
    let max_half: usize = args.get("max-half", 64);

    let mut table = Table::new(
        "Fig 3.6/3.7 — bipartite worst case vs hub rewrite (storage units = 2 x intervals)",
        &[
            "m",
            "n",
            "flat_units",
            "formula_(n+1)^2/4*2",
            "hub_units",
            "hub_formula",
        ],
    );

    let mut half = 2usize;
    while half <= max_half {
        let m = half; // m+1 sources in the paper's notation; we use m = m.
        let n = 2 * m + 1; // paper's worst-case sizing: n = 2m+1
        let sources = m + 1;
        let sinks = n - m - 1;

        let flat = ClosureConfig::new()
            .gap(1)
            .build(&bipartite_worst(sources, sinks))
            .expect("DAG");
        let hub = ClosureConfig::new()
            .gap(1)
            .build(&bipartite_with_hub(sources, sinks))
            .expect("DAG");

        // Paper's worst-case count: (n+1)^2 / 4 intervals (units = x2).
        let formula_flat = 2 * ((n + 1) * (n + 1) / 4);
        // Paper's hub count: (m+2) + 2(n-m-1) intervals.
        let formula_hub = 2 * ((m + 2) + 2 * (n - m - 1));

        table.row(&[
            m.to_string(),
            n.to_string(),
            (2 * flat.total_intervals()).to_string(),
            formula_flat.to_string(),
            (2 * hub.total_intervals()).to_string(),
            formula_hub.to_string(),
        ]);
        half *= 2;
    }

    table.finish("worst_case");
    println!(
        "Paper-shape check: flat K(m+1, m) grows quadratically and matches (n+1)^2/4;\n\
         the hub rewrite stays linear in n."
    );
}
