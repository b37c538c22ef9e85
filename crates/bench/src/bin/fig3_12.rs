//! **Figure 3.12** — frequency distribution of the total number of intervals
//! in the compressed closure over all possible small acyclic graphs.
//!
//! "We also performed a sensitivity experiment in which we generated all
//! possible directed acyclic graphs of 8 nodes and computed the size of
//! compressed closure in number of intervals. The result … demonstrates the
//! infrequency of worst-case graphs."
//!
//! The 7-node universe (2^21 = 2,097,152 graphs) is always swept
//! exhaustively. The 8-node universe (2^28 = 268,435,456 graphs) is sampled
//! by default; pass `--exhaustive` for the full parallel census (a few
//! minutes on a laptop).
//!
//! Usage: `cargo run --release -p tc-bench --bin fig3_12
//! [--sample 2000000] [--threads 8] [--exhaustive]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_bench::{Args, Table};
use tc_core::small_dag::{interval_count, Census};
use tc_graph::generators::dag_mask_count;

fn census_exhaustive(n: usize, threads: usize) -> Census {
    let total = dag_mask_count(n);
    let chunk = total.div_ceil(threads as u64);
    let mut merged = Census::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                scope.spawn(move || {
                    let lo = t * chunk;
                    let hi = (lo + chunk).min(total);
                    let mut census = Census::default();
                    for mask in lo..hi {
                        census.record(interval_count(n, mask));
                    }
                    census
                })
            })
            .collect();
        for h in handles {
            merged.merge(&h.join().expect("census worker panicked"));
        }
    });
    merged
}

fn census_sampled(n: usize, samples: u64, threads: usize) -> Census {
    let universe = dag_mask_count(n);
    let per_thread = samples.div_ceil(threads as u64);
    let mut merged = Census::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x00F16312 + t);
                    let mut census = Census::default();
                    for _ in 0..per_thread {
                        let mask = rng.random_range(0..universe);
                        census.record(interval_count(n, mask));
                    }
                    census
                })
            })
            .collect();
        for h in handles {
            merged.merge(&h.join().expect("census worker panicked"));
        }
    });
    merged
}

fn print_census(label: &str, n: usize, census: &Census, csv: &str) {
    let mut table = Table::new(
        &format!("Fig 3.12 — interval-count distribution over {label} {n}-node DAGs"),
        &["total_intervals", "graphs", "fraction"],
    );
    for (intervals, &count) in census.buckets.iter().enumerate() {
        if count > 0 {
            table.row(&[
                intervals.to_string(),
                count.to_string(),
                format!("{:.6}", count as f64 / census.total as f64),
            ]);
        }
    }
    table.finish(csv);
    println!(
        "graphs={} mean={:.3} max={} (worst case is 2 (n+1)^2/4 = {} storage units => {} intervals)\n",
        census.total,
        census.mean(),
        census.max(),
        (n + 1) * (n + 1) / 2,
        (n + 1) * (n + 1) / 4,
    );
}

fn main() {
    let args = Args::parse(&["threads", "sample", "exhaustive"]);
    let threads: usize = args.get(
        "threads",
        std::thread::available_parallelism().map_or(4, |p| p.get()),
    );
    let sample: u64 = args.get("sample", 2_000_000);

    // n = 7: always exhaustive (2M graphs).
    let c7 = census_exhaustive(7, threads);
    print_census("all", 7, &c7, "fig3_12_n7");

    // n = 8: sampled by default, exhaustive on request.
    if args.has("exhaustive") {
        let c8 = census_exhaustive(8, threads);
        print_census("all", 8, &c8, "fig3_12_n8");
    } else {
        let c8 = census_sampled(8, sample, threads);
        print_census(&format!("{sample} sampled"), 8, &c8, "fig3_12_n8_sampled");
        println!("(pass --exhaustive to sweep all 2^28 8-node DAGs)");
    }
    println!(
        "Paper-shape check: the distribution is sharply unimodal near n intervals; graphs\n\
         anywhere near the quadratic worst case are vanishingly rare."
    );
}
