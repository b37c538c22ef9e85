//! Renders the paper's worked figures (3.1, 3.2, 3.6, 3.7, 4.1, 4.2) as
//! Graphviz files under `results/figures/`, with interval labels on nodes
//! and non-tree arcs dashed — `dot -Tpng` turns them into the diagrams the
//! paper prints.
//!
//! Usage: `cargo run --release -p tc-bench --bin figures`

use std::path::PathBuf;

use tc_core::{ClosureConfig, CompressedClosure};
use tc_graph::{generators, DiGraph, NodeId};

fn out_dir() -> PathBuf {
    let dir = tc_bench::results_dir().join("figures");
    std::fs::create_dir_all(&dir).expect("create results/figures");
    dir
}

fn save(name: &str, closure: &CompressedClosure) {
    let path = out_dir().join(format!("{name}.dot"));
    std::fs::write(&path, closure.to_dot()).expect("write dot file");
    println!(
        "{:<12} {:>3} nodes {:>3} intervals -> {}",
        name,
        closure.node_count(),
        closure.total_intervals(),
        path.display()
    );
}

fn main() {
    // No flags: any argument exits 2 instead of being ignored.
    tc_bench::Args::parse(&[]);
    // Fig 3.1 — a tree with contiguous postorder labels.
    let tree = DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
    save("fig3_1", &ClosureConfig::new().gap(1).build(&tree).unwrap());

    // Fig 3.2/3.3 — a DAG: tree cover plus surviving non-tree intervals.
    let dag = DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5)]);
    save("fig3_2", &ClosureConfig::new().gap(1).build(&dag).unwrap());

    // Fig 3.6 — the bipartite worst case (m = 3).
    let flat = generators::bipartite_worst(4, 3);
    save("fig3_6", &ClosureConfig::new().gap(1).build(&flat).unwrap());

    // Fig 3.7 — the hub rewrite.
    let hub = generators::bipartite_with_hub(4, 3);
    save("fig3_7", &ClosureConfig::new().gap(1).build(&hub).unwrap());

    // Fig 4.1 — gapped numbering after two leaf insertions.
    let base = DiGraph::from_edges([(0, 1), (0, 2)]);
    let mut updatable = ClosureConfig::new().gap(10).build(&base).unwrap();
    let x = updatable.add_node_with_parents(&[NodeId(1)]).unwrap();
    updatable.add_node_with_parents(&[NodeId(2)]).unwrap();
    save("fig4_1", &updatable);

    // Fig 4.2 — plus a non-tree arc whose interval is subsumed upstream.
    let h = updatable.add_node_with_parents(&[NodeId(2)]).unwrap();
    updatable.add_edge(x, h).unwrap();
    save("fig4_2", &updatable);

    println!("\nRender with: dot -Tpng results/figures/fig3_2.dot -o fig3_2.png");
}
