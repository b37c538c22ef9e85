//! Scoped vs global deletion recompute cost (EXPERIMENTS.md X2).
//!
//! Builds one random DAG, then times the same deletion sequence twice: once
//! with [`ClosureConfig::scoped_deletes`] on (the affected-region sweep) and
//! once with it off (the historical whole-graph sweep). Before any timing,
//! a correctness pass replays the full sequence on a scoped and a global
//! clone side by side and asserts the interval sets identical node for node
//! after every deletion — the speedup column is only meaningful because the
//! two modes are bit-equal.
//!
//! Three deletion kinds get their own rows: non-tree arc removals (the
//! §4.2 fast path — no renumbering at all), tree-arc removals (subtree
//! relocation plus recompute) and node removals (quarantine plus orphan
//! relocation).
//!
//! ```text
//! cargo run --release -p tc-bench --bin delete_scale -- \
//!     [--nodes N] [--degree D] [--seed S] [--ops K]
//! ```

use std::time::Instant;

use tc_bench::{f2, Args, Table};
use tc_core::{ClosureConfig, CompressedClosure};
use tc_graph::{generators, DiGraph, NodeId};

/// One deletion, chosen up front so every mode replays the same sequence.
#[derive(Debug, Clone, Copy)]
enum Deletion {
    Arc(NodeId, NodeId),
    Node(NodeId),
}

fn apply(c: &mut CompressedClosure, d: Deletion) {
    match d {
        Deletion::Arc(src, dst) => c.remove_edge(src, dst).expect("arc exists"),
        Deletion::Node(node) => c.remove_node(node).expect("node exists"),
    }
}

/// Deterministically samples `count` distinct arcs matching `tree`-ness in
/// the base cover. Distinct arcs stay removable however many of the others
/// have been removed before them.
fn pick_arcs(c: &CompressedClosure, g: &DiGraph, tree: bool, count: usize) -> Vec<Deletion> {
    let pool: Vec<(NodeId, NodeId)> = g
        .edges()
        .filter(|&(u, v)| c.cover().is_tree_arc(u, v) == tree)
        .collect();
    assert!(!pool.is_empty(), "no {} arcs to sample", if tree { "tree" } else { "non-tree" });
    let mut picked = Vec::with_capacity(count);
    let mut taken = vec![false; pool.len()];
    let mut k = 0u64;
    while picked.len() < count.min(pool.len()) {
        let ix = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % pool.len();
        k += 1;
        if !std::mem::replace(&mut taken[ix], true) {
            let (u, v) = pool[ix];
            picked.push(Deletion::Arc(u, v));
        }
    }
    picked
}

fn pick_nodes(n: usize, count: usize) -> Vec<Deletion> {
    let mut picked = Vec::with_capacity(count);
    let mut taken = vec![false; n];
    let mut k = 0u64;
    while picked.len() < count.min(n) {
        let ix = (k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 32) as usize % n;
        k += 1;
        if !std::mem::replace(&mut taken[ix], true) {
            picked.push(Deletion::Node(NodeId(ix as u32)));
        }
    }
    picked
}

/// Replays `dels` on a scoped and a global clone in lockstep, asserting the
/// interval sets identical at every node after every deletion.
fn assert_modes_identical(base: &CompressedClosure, dels: &[Deletion]) {
    let mut scoped = base.clone();
    scoped.set_scoped_deletes(true);
    let mut global = base.clone();
    global.set_scoped_deletes(false);
    for (step, &d) in dels.iter().enumerate() {
        apply(&mut scoped, d);
        apply(&mut global, d);
        for v in 0..base.node_count() {
            let v = NodeId(v as u32);
            assert_eq!(
                scoped.intervals(v),
                global.intervals(v),
                "scoped and global diverge at {v:?} after step {step} ({d:?})"
            );
        }
    }
    scoped.audit().expect("scoped audit");
    global.audit().expect("global audit");
}

/// Replays `dels` on a fresh clone with the given mode and returns the mean
/// microseconds per deletion.
fn time_mode(base: &CompressedClosure, dels: &[Deletion], scoped: bool) -> f64 {
    let mut c = base.clone();
    c.set_scoped_deletes(scoped);
    let start = Instant::now();
    for &d in dels {
        apply(&mut c, d);
    }
    start.elapsed().as_micros() as f64 / dels.len() as f64
}

fn main() {
    let args = Args::parse(&["nodes", "degree", "seed", "ops"]);
    let nodes = args.get("nodes", 50_000usize);
    let degree = args.get("degree", 3.0f64);
    let seed = args.get("seed", 42u64);
    let ops = args.get("ops", 24usize);

    let g = generators::random_dag(generators::RandomDagConfig {
        nodes,
        avg_out_degree: degree,
        seed,
    });
    println!(
        "building closure: {} nodes, {} arcs (degree {degree}, seed {seed})",
        g.node_count(),
        g.edge_count()
    );
    let base = ClosureConfig::new()
        .build(&g)
        .expect("random_dag is acyclic");

    let mut table = Table::new(
        &format!("scoped vs global deletion recompute ({nodes} nodes, degree {degree})"),
        &["kind", "ops", "scoped_us_per_op", "global_us_per_op", "speedup"],
    );

    let kinds: Vec<(&str, Vec<Deletion>)> = vec![
        ("non-tree-arc", pick_arcs(&base, &g, false, ops)),
        ("tree-arc", pick_arcs(&base, &g, true, ops)),
        ("node", pick_nodes(nodes, ops)),
    ];
    for (kind, dels) in kinds {
        // Correctness gate: the timed modes must be interval-identical on
        // this exact sequence before their costs are worth comparing.
        print!("{kind}: verifying scoped == global over {} deletions ... ", dels.len());
        assert_modes_identical(&base, &dels);
        println!("ok");
        let scoped_us = time_mode(&base, &dels, true);
        let global_us = time_mode(&base, &dels, false);
        table.row(&[
            kind.to_string(),
            dels.len().to_string(),
            f2(scoped_us),
            f2(global_us),
            f2(global_us / scoped_us),
        ]);
    }

    table.finish("delete_scale");
}
