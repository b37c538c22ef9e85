//! Delta-reporting arc insertion for incremental inference clients.
//!
//! A rule engine doing semi-naive evaluation needs to know exactly which
//! reachability pairs an arc insertion made true: those pairs seed the next
//! forward-chaining round. For the arc `(src, dst)` the candidates are
//! precisely `predecessors*(src) × successors*(dst)` — any pair outside
//! that rectangle has the same witness paths before and after the update —
//! so the hook captures the rectangle against the *pre-update* closure,
//! applies the regular §4.1 `add_edge`, and reports the pairs whose truth
//! value moved.

use tc_graph::NodeId;

use crate::updates::UpdateError;
use crate::CompressedClosure;

/// The reachability pairs one arc insertion made true.
///
/// `sources` and `targets` are the affected rectangle's axes as captured
/// before the update: every node that reached the arc's source (including
/// the source itself) and every node the arc's destination reached
/// (including the destination). `changed` lists the `(from, to)` pairs
/// within that rectangle whose `reaches` answer was false before the
/// insertion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// `predecessors*(src)` at capture time, source included.
    pub sources: Vec<NodeId>,
    /// `successors*(dst)` at capture time, destination included.
    pub targets: Vec<NodeId>,
    /// Pairs whose reachability flipped, in `(sources × targets)` order.
    pub changed: Vec<(NodeId, NodeId)>,
}

impl CompressedClosure {
    /// [`Self::add_edge`] that also reports every reachability pair the arc
    /// made true. A duplicate arc is a no-op with an empty delta; cycle and
    /// validation failures are the same errors `add_edge` raises, with the
    /// closure untouched.
    pub fn add_edge_delta(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeDelta, UpdateError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(UpdateError::SelfLoop(src));
        }
        if self.graph().has_edge(src, dst) {
            return Ok(EdgeDelta::default());
        }
        if self.reaches(dst, src) {
            return Err(UpdateError::WouldCreateCycle { src, dst });
        }
        let sources = self.predecessors(src);
        let targets = self.successors(dst);
        let pairs = rectangle(&sources, &targets);
        let before = self.reaches_batch(&pairs);
        let inserted = self.add_edge(src, dst)?;
        debug_assert!(inserted, "duplicate arcs were handled above");
        // After the addition every pair in the rectangle is true (from
        // reaches src, src -> dst, dst reaches to), so the flips are exactly
        // the previously-false pairs — no second probe pass needed.
        let changed = pairs
            .into_iter()
            .zip(before)
            .filter_map(|(pair, was)| (!was).then_some(pair))
            .collect();
        Ok(EdgeDelta {
            sources,
            targets,
            changed,
        })
    }
}

fn rectangle(sources: &[NodeId], targets: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::with_capacity(sources.len() * targets.len());
    for &s in sources {
        for &t in targets {
            pairs.push((s, t));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClosureConfig;
    use std::collections::BTreeSet;
    use tc_graph::{generators, DiGraph};

    fn diamond() -> CompressedClosure {
        let g = DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3)]);
        ClosureConfig::new().gap(16).build(&g).unwrap()
    }

    fn pair_set(c: &CompressedClosure) -> BTreeSet<(u32, u32)> {
        let mut out = BTreeSet::new();
        for u in c.graph().nodes() {
            for v in c.successors(u) {
                out.insert((u.0, v.0));
            }
        }
        out
    }

    #[test]
    fn add_delta_reports_exactly_the_new_pairs() {
        let mut c = diamond();
        let tail = c.add_node_with_parents(&[]).unwrap();
        let before = pair_set(&c);
        let delta = c.add_edge_delta(NodeId(3), tail).unwrap();
        let after = pair_set(&c);
        let flipped: BTreeSet<(u32, u32)> =
            delta.changed.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let expected: BTreeSet<(u32, u32)> = after.difference(&before).copied().collect();
        assert_eq!(flipped, expected);
        assert_eq!(flipped.len(), 4, "0,1,2,3 newly reach the tail; (tail,tail) was reflexive");
        c.verify().unwrap();
    }

    #[test]
    fn add_delta_skips_already_true_pairs() {
        let mut c = diamond();
        // 0 already reaches 3 through 1; the direct arc adds no pairs.
        let delta = c.add_edge_delta(NodeId(0), NodeId(3)).unwrap();
        assert!(delta.changed.is_empty());
        assert!(!delta.sources.is_empty() && !delta.targets.is_empty());
        c.verify().unwrap();
    }

    #[test]
    fn duplicate_add_is_an_empty_delta() {
        let mut c = diamond();
        let delta = c.add_edge_delta(NodeId(0), NodeId(1)).unwrap();
        assert!(delta.changed.is_empty() && delta.sources.is_empty());
    }

    #[test]
    fn add_delta_rejects_cycles_without_mutating() {
        let mut c = diamond();
        let before = pair_set(&c);
        assert_eq!(
            c.add_edge_delta(NodeId(3), NodeId(0)),
            Err(UpdateError::WouldCreateCycle {
                src: NodeId(3),
                dst: NodeId(0)
            })
        );
        assert_eq!(pair_set(&c), before);
    }

    #[test]
    fn random_add_remove_deltas_match_ground_truth_diffs() {
        use rand::rngs::StdRng;
        use rand::seq::IndexedRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for seed in 0..3 {
            let g = generators::random_dag(generators::RandomDagConfig {
                nodes: 18,
                avg_out_degree: 1.8,
                seed,
            });
            let mut c = ClosureConfig::new().gap(32).build(&g).unwrap();
            for step in 0..60 {
                if rng.random_bool(0.6) {
                    let src = NodeId(rng.random_range(0..c.node_count() as u32));
                    let dst = NodeId(rng.random_range(0..c.node_count() as u32));
                    if src == dst || c.reaches(dst, src) {
                        continue;
                    }
                    let before = pair_set(&c);
                    let d = c.add_edge_delta(src, dst).unwrap();
                    let reported: BTreeSet<(u32, u32)> =
                        d.changed.iter().map(|&(a, b)| (a.0, b.0)).collect();
                    let expected: BTreeSet<(u32, u32)> =
                        pair_set(&c).difference(&before).copied().collect();
                    assert_eq!(
                        reported, expected,
                        "seed {seed} step {step}: delta disagrees with ground truth"
                    );
                } else {
                    let edges: Vec<(NodeId, NodeId)> = c.graph().edges().collect();
                    let Some(&(s, d)) = edges.choose(&mut rng) else { continue };
                    c.remove_edge(s, d).unwrap();
                }
                if step % 20 == 19 {
                    c.verify().unwrap();
                }
            }
        }
    }
}
