//! Batch fan-out equivalence: with `threads > 1`, `reaches_batch` and
//! `stats` split their work across scoped workers and must answer exactly
//! as the pointwise queries and the single-threaded reads do.

use tc_core::ClosureConfig;
use tc_graph::{generators, NodeId};

#[test]
fn reaches_batch_matches_pointwise_queries() {
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes: 150,
        avg_out_degree: 2.0,
        seed: 5,
    });
    let c = ClosureConfig::new().threads(4).build(&g).unwrap();
    let pairs: Vec<(NodeId, NodeId)> = (0..g.node_count())
        .flat_map(|u| {
            (0..g.node_count())
                .step_by(3)
                .map(move |v| (NodeId::from_index(u), NodeId::from_index(v)))
        })
        .collect();
    let batch = c.reaches_batch(&pairs);
    assert_eq!(batch.len(), pairs.len());
    for (&(src, dst), &got) in pairs.iter().zip(&batch) {
        assert_eq!(got, c.reaches(src, dst), "batch answer for ({src:?},{dst:?})");
    }
    assert!(c.reaches_batch(&[]).is_empty());
}

#[test]
fn parallel_predecessors_and_stats_match_serial() {
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes: 130,
        avg_out_degree: 3.0,
        seed: 8,
    });
    let serial = ClosureConfig::new().threads(1).build(&g).unwrap();
    let parallel = ClosureConfig::new().threads(4).build(&g).unwrap();
    for v in g.nodes() {
        assert_eq!(
            serial.predecessors(v),
            parallel.predecessors(v),
            "predecessors of {v:?}"
        );
    }
    assert_eq!(serial.stats(), parallel.stats());
}
