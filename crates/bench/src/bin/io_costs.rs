//! **§2.2 extension** — I/O per reachability query on paged storage.
//!
//! The paper's motivation: "in the case of large relations, the information
//! will reside on secondary storage, and hence we need to minimize I/O
//! traffic". This experiment serves the same random query mix from three
//! page layouts — compressed interval labels, full-closure successor lists,
//! and raw adjacency queried by pointer chasing — and counts page reads
//! under a small LRU buffer pool and under a cold cache. The three layouts
//! must give the same answer to every query; a disagreement panics.
//!
//! Usage: `cargo run --release -p tc-bench --bin io_costs [--nodes 2000]
//! [--degree 3] [--queries 2000] [--page 4096] [--pool 16]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_bench::{f2, Args, Table};
use tc_core::ClosureConfig;
use tc_graph::generators::{random_dag, RandomDagConfig};
use tc_graph::NodeId;
use tc_store::{AdjStore, BufferPool, LabelStore, TcListStore};

fn main() {
    let args = Args::parse(&["nodes", "degree", "queries", "page", "pool"]);
    // Defaults sized so no layout fits entirely in the buffer pool — the
    // regime the paper's §2.2 motivation is about.
    let nodes: usize = args.get("nodes", 5000);
    let degree: f64 = args.get("degree", 3.0);
    let queries: usize = args.get("queries", 2000);
    let page: usize = args.get("page", 512);
    let pool_frames: usize = args.get("pool", 32);

    let g = random_dag(RandomDagConfig {
        nodes,
        avg_out_degree: degree,
        seed: 7,
    });
    let closure = ClosureConfig::new().gap(1).build(&g).expect("DAG");

    let labels = LabelStore::build(&closure, page);
    let tclists = TcListStore::build(&g, page);
    let adj = AdjStore::build(&g, page);

    let mut rng = StdRng::seed_from_u64(99);
    let mix: Vec<(NodeId, NodeId)> = (0..queries)
        .map(|_| {
            (
                NodeId(rng.random_range(0..nodes as u32)),
                NodeId(rng.random_range(0..nodes as u32)),
            )
        })
        .collect();

    let mut table = Table::new(
        &format!(
            "I/O per reachability query: {nodes} nodes, degree {degree}, {queries} queries, \
             {page}B pages, {pool_frames}-frame pool"
        ),
        &["layout", "disk_pages", "reads/query", "hit_ratio", "footprint_pages"],
    );

    // Compressed labels.
    let mut pool = BufferPool::new(pool_frames);
    labels.blob().pager().reset_counters();
    let answers: Vec<bool> = mix.iter().map(|&(u, v)| labels.reaches(u, v, &mut pool)).collect();
    table.row(&[
        "compressed labels".into(),
        labels.blob().page_count().to_string(),
        f2(labels.blob().pager().reads() as f64 / queries as f64),
        f2(pool.stats().hit_ratio()),
        labels.blob().page_count().to_string(),
    ]);

    // Full-closure successor lists.
    let mut pool = BufferPool::new(pool_frames);
    tclists.blob().pager().reset_counters();
    for (&(u, v), &want) in mix.iter().zip(&answers) {
        assert_eq!(tclists.reaches(u, v, &mut pool), want, "closure lists ({u:?},{v:?})");
    }
    table.row(&[
        "full closure lists".into(),
        tclists.blob().page_count().to_string(),
        f2(tclists.blob().pager().reads() as f64 / queries as f64),
        f2(pool.stats().hit_ratio()),
        tclists.blob().page_count().to_string(),
    ]);

    // Pointer chasing over adjacency.
    let mut pool = BufferPool::new(pool_frames);
    adj.blob().pager().reset_counters();
    for (&(u, v), &want) in mix.iter().zip(&answers) {
        assert_eq!(adj.reaches(u, v, &mut pool), want, "pointer chasing ({u:?},{v:?})");
    }
    table.row(&[
        "adjacency (pointer chasing)".into(),
        adj.blob().page_count().to_string(),
        f2(adj.blob().pager().reads() as f64 / queries as f64),
        f2(pool.stats().hit_ratio()),
        adj.blob().page_count().to_string(),
    ]);

    table.finish("io_costs");
    println!(
        "Paper-shape check: compressed labels answer in ~1 page read; full closure lists pay\n\
         for their footprint; pointer chasing multiplies reads by path length."
    );
}
