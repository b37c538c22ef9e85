//! Course prerequisites: bidirectional reachability and path witnesses.
//!
//! A prerequisite DAG queried in both directions — "what must I take before
//! X?" (predecessors) and "what does X unlock?" (successors) — over one
//! [`tc_core::CompressedClosure`], plus concrete prerequisite chains via
//! `find_path`. Frozen or not, predecessors come from one reverse
//! traversal over the prerequisite arcs.
//!
//! Run with: `cargo run -p tc-suite --example course_prereqs`

use tc_core::CompressedClosure;
use tc_graph::{DiGraph, NodeId};

fn main() {
    let courses = [
        "calculus-1",     // 0
        "calculus-2",     // 1
        "linear-algebra", // 2
        "probability",    // 3
        "statistics",     // 4
        "programming",    // 5
        "data-structs",   // 6
        "algorithms",     // 7
        "machine-learn",  // 8
        "deep-learning",  // 9
    ];
    // Arc a -> b: a is a prerequisite of b.
    let g = DiGraph::from_edges([
        (0, 1), // calc1 -> calc2
        (0, 2), // calc1 -> linalg
        (1, 3), // calc2 -> prob
        (3, 4), // prob -> stats
        (5, 6), // prog -> ds
        (6, 7), // ds -> algo
        (2, 8), // linalg -> ml
        (4, 8), // stats -> ml
        (7, 8), // algo -> ml
        (8, 9), // ml -> dl
    ]);
    let mut tc = CompressedClosure::build(&g).expect("prerequisites are acyclic");
    tc.freeze();

    let name = |v: NodeId| courses[v.index()];

    // Everything required before machine learning (reverse traversal).
    let mut before: Vec<&str> = tc
        .predecessors(NodeId(8))
        .into_iter()
        .filter(|&v| v != NodeId(8))
        .map(name)
        .collect();
    before.sort_unstable();
    println!("required before machine-learn: {before:?}");

    // Everything calculus-1 unlocks (forward decode).
    let mut unlocks: Vec<&str> = tc
        .successors(NodeId(0))
        .into_iter()
        .filter(|&v| v != NodeId(0))
        .map(name)
        .collect();
    unlocks.sort_unstable();
    println!("calculus-1 unlocks: {unlocks:?}");

    // A concrete prerequisite chain, reconstructed by greedy descent over
    // the closure (no backtracking).
    let path = tc
        .find_path(NodeId(0), NodeId(9))
        .expect("calc1 leads to deep learning");
    let chain: Vec<&str> = path.into_iter().map(name).collect();
    println!("one chain from calculus-1 to deep-learning: {}", chain.join(" -> "));

    // Curriculum change: a new cross-listed course slots in incrementally
    // (an update thaws the closure; refreeze for indexed predecessors).
    let optimization = tc
        .add_node_with_parents(&[NodeId(1), NodeId(2)]) // needs calc2 + linalg
        .expect("valid parents");
    tc.add_edge(optimization, NodeId(8)).expect("acyclic");
    tc.freeze();
    println!(
        "\nafter adding 'optimization' (calc2 + linalg -> optimization -> ml):"
    );
    println!(
        "  is calculus-1 now a prerequisite of it? {}",
        tc.reaches(NodeId(0), optimization)
    );
    println!(
        "  does it feed deep-learning? {}",
        tc.reaches(optimization, NodeId(9))
    );
    println!(
        "  prerequisites of ml now number {}",
        tc.predecessors(NodeId(8)).len() - 1
    );
}
