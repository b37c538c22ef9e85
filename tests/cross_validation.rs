//! Cross-validation: every reachability index in the workspace must agree
//! with every other (and with DFS ground truth) on the same graphs.

use tc_baselines::{
    ChainIndex, DfsOracle, FullClosure, InverseClosure, ItalianoIndex, ReachMatrix,
    ReachabilityIndex, SchubertIndex,
};
use tc_core::{ClosureConfig, CompressedClosure};
use tc_graph::{generators, traverse, DiGraph};

fn indexes_for(g: &DiGraph) -> Vec<Box<dyn ReachabilityIndex>> {
    vec![
        Box::new(FullClosure::build(g)),
        Box::new(ReachMatrix::build(g)),
        Box::new(ReachMatrix::build_warshall(g)),
        Box::new(InverseClosure::build(g).unwrap()),
        Box::new(ChainIndex::build_greedy(g).unwrap()),
        Box::new(ChainIndex::build_minimum(g).unwrap()),
        Box::new(DfsOracle::new(g.clone())),
        Box::new(ItalianoIndex::build(g)),
    ]
}

fn check_graph(g: &DiGraph, label: &str) {
    let compressed = CompressedClosure::build(g).unwrap();
    let merged = ClosureConfig::new()
        .gap(1)
        .merge_adjacent(true)
        .build(g)
        .unwrap();
    let reserved = ClosureConfig::new().reserve(4).build(g).unwrap();
    let indexes = indexes_for(g);
    for u in g.nodes() {
        let truth = traverse::reachable_set(g, u);
        for v in g.nodes() {
            let expect = truth.contains(v.index());
            assert_eq!(compressed.reaches(u, v), expect, "{label}: compressed ({u:?},{v:?})");
            assert_eq!(merged.reaches(u, v), expect, "{label}: merged ({u:?},{v:?})");
            assert_eq!(reserved.reaches(u, v), expect, "{label}: reserved ({u:?},{v:?})");
            for index in &indexes {
                assert_eq!(
                    index.reaches(u, v),
                    expect,
                    "{label}: {} disagrees on ({u:?},{v:?})",
                    index.name()
                );
            }
        }
    }
}

#[test]
fn all_indexes_agree_on_random_dags() {
    for seed in 0..6 {
        for degree in [1.0, 2.0, 4.0] {
            let g = generators::random_dag(generators::RandomDagConfig {
                nodes: 40,
                avg_out_degree: degree,
                seed,
            });
            check_graph(&g, &format!("random seed={seed} d={degree}"));
        }
    }
}

#[test]
fn all_indexes_agree_on_structured_graphs() {
    check_graph(&generators::balanced_tree(3, 3), "balanced tree");
    check_graph(&generators::chain(30), "chain");
    check_graph(&generators::bipartite_worst(5, 5), "bipartite worst");
    check_graph(&generators::bipartite_with_hub(5, 5), "bipartite hub");
    check_graph(&generators::layered_dag(4, 8, 2, 3), "layered");
    check_graph(&DiGraph::with_nodes(10), "edgeless");
}

#[test]
fn all_indexes_agree_on_every_tiny_dag() {
    // Exhaustive over all 4-node DAGs (64 masks).
    for mask in generators::enumerate_dag_masks(4) {
        let g = generators::dag_from_mask(4, mask);
        check_graph(&g, &format!("mask {mask:#b}"));
    }
}

#[test]
fn schubert_is_sound_but_incomplete() {
    // The §5 comparison: Schubert never lies positively, but can miss
    // cross-hierarchy paths — exactly the gap the paper's scheme closes.
    let mut sound = 0usize;
    let mut incomplete = 0usize;
    for seed in 0..10 {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 30,
            avg_out_degree: 2.0,
            seed,
        });
        let ix = SchubertIndex::build(&g).unwrap();
        for u in g.nodes() {
            let truth = traverse::reachable_set(&g, u);
            for v in g.nodes() {
                match (ix.reaches(u, v), truth.contains(v.index())) {
                    (true, false) => panic!("Schubert false positive on seed {seed}"),
                    (false, true) => incomplete += 1,
                    _ => sound += 1,
                }
            }
        }
    }
    assert!(sound > 0);
    assert!(
        incomplete > 0,
        "random DAGs should exhibit the cross-hierarchy incompleteness of [28]"
    );
}

#[test]
fn dynamic_cyclic_closure_matches_warshall_under_churn() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tc_core::cyclic::CyclicClosure;

    let mut rng = StdRng::seed_from_u64(6);
    for seed in 0..3 {
        let mut g = DiGraph::with_nodes(15);
        let mut seeder = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let a = seeder.random_range(0..15u32);
            let b = seeder.random_range(0..15u32);
            if a != b {
                g.add_edge(tc_graph::NodeId(a), tc_graph::NodeId(b));
            }
        }
        let mut dynamic = CyclicClosure::build(&g);
        for step in 0..50 {
            let a = tc_graph::NodeId(rng.random_range(0..15u32));
            let b = tc_graph::NodeId(rng.random_range(0..15u32));
            if a == b {
                continue;
            }
            if rng.random_bool(0.6) {
                dynamic.add_edge(a, b);
                g.add_edge(a, b);
            } else if g.remove_edge(a, b) {
                assert!(dynamic.remove_edge(a, b));
            }
            if step % 10 == 9 {
                let truth = ReachMatrix::build_warshall(&g);
                for u in g.nodes() {
                    for v in g.nodes() {
                        assert_eq!(
                            dynamic.reaches(u, v),
                            truth.reaches(u, v),
                            "seed {seed} step {step} ({u:?},{v:?})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn storage_orderings_match_the_paper() {
    // On a moderately dense graph: compressed < full closure; matrix is
    // density-independent; Italiano >= full closure.
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes: 200,
        avg_out_degree: 4.0,
        seed: 9,
    });
    let compressed = CompressedClosure::build(&g).unwrap();
    let full = FullClosure::build(&g);
    let italiano = ItalianoIndex::build(&g);
    assert!(compressed.stats().compressed_units() < full.storage_units());
    assert!(italiano.storage_units() >= full.storage_units());
}
