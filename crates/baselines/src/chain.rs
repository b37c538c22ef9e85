//! Chain-decomposition transitive-closure compression (§5, Theorem 2).
//!
//! "A transitive closure compression technique based on chain decomposition
//! of graphs was proposed in \[18\]. Each node is indexed with a chain number,
//! and its sequence number in the chain. At each node, one need store only
//! the earliest node in a chain (the one with the lowest sequence number)
//! that can be reached from it, and deduce that later nodes in the chain are
//! reachable."
//!
//! Theorem 2 states the interval scheme never needs more storage than the
//! *best* chain compression (without chain reduction); this module provides
//! both a greedy decomposition and the true minimum (Dilworth via
//! Hopcroft–Karp over the closure's comparability pairs) so the theorem can
//! be checked empirically against the strongest opponent.
//!
//! The paper's footnote 6 notes a further *chain reduction* variant of \[18\]
//! that "leaves some nodes uncovered by chains"; Theorem 2 explicitly
//! excludes it ("We do not consider the additional compression offered by
//! chain reduction in Thm 2"), and so does this module.

use tc_graph::{topo, traverse, BitSet, DiGraph, NodeId};

use crate::hk::hopcroft_karp;
use crate::ReachabilityIndex;

/// A decomposition of a DAG's nodes into chains: within a chain, each node
/// reaches all later nodes.
#[derive(Debug, Clone)]
pub struct ChainCover {
    /// `chain_of[v]` — the chain holding `v`.
    pub chain_of: Vec<u32>,
    /// `seq_of[v]` — `v`'s position within its chain (0-based).
    pub seq_of: Vec<u32>,
    /// The chains themselves, each a list of nodes in chain order.
    pub chains: Vec<Vec<NodeId>>,
}

impl ChainCover {
    /// Greedy decomposition: walk the nodes in topological order, appending
    /// each to the first chain whose tail reaches it, opening a new chain
    /// otherwise. Fast and usually close to minimal on sparse DAGs.
    pub fn greedy(g: &DiGraph, rows: &[BitSet]) -> Result<Self, topo::CycleError> {
        let order = topo::topo_sort(g)?;
        let mut chains: Vec<Vec<NodeId>> = Vec::new();
        let mut chain_of = vec![0u32; g.node_count()];
        let mut seq_of = vec![0u32; g.node_count()];
        for &v in &order {
            let slot = chains
                .iter()
                .position(|c| rows[c.last().unwrap().index()].contains(v.index()));
            let c = match slot {
                Some(c) => c,
                None => {
                    chains.push(Vec::new());
                    chains.len() - 1
                }
            };
            chain_of[v.index()] = c as u32;
            seq_of[v.index()] = chains[c].len() as u32;
            chains[c].push(v);
        }
        Ok(ChainCover {
            chain_of,
            seq_of,
            chains,
        })
    }

    /// Minimum decomposition (Dilworth): minimum chains = n − maximum
    /// matching over the strict comparability pairs of the closure.
    pub fn minimum(g: &DiGraph, rows: &[BitSet]) -> Result<Self, topo::CycleError> {
        topo::topo_sort(g)?; // reject cyclic inputs up front
        let n = g.node_count();
        let adj: Vec<Vec<usize>> = rows
            .iter()
            .enumerate()
            .map(|(u, row)| row.iter().filter(|&v| v != u).collect())
            .collect();
        let (match_l, _) = hopcroft_karp(n, n, &adj);

        // Chains follow matched-successor links from unmatched-on-the-right
        // heads.
        let mut has_pred = vec![false; n];
        for m in match_l.iter().flatten() {
            has_pred[*m] = true;
        }
        let mut chains = Vec::new();
        let mut chain_of = vec![0u32; n];
        let mut seq_of = vec![0u32; n];
        for (head, _) in has_pred.iter().enumerate().filter(|(_, &p)| !p) {
            let c = chains.len();
            let mut chain = Vec::new();
            let mut cur = Some(head);
            while let Some(v) = cur {
                chain_of[v] = c as u32;
                seq_of[v] = chain.len() as u32;
                chain.push(NodeId::from_index(v));
                cur = match_l[v];
            }
            chains.push(chain);
        }
        Ok(ChainCover {
            chain_of,
            seq_of,
            chains,
        })
    }

    /// Number of chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Validates that each chain is totally ordered by reachability.
    pub fn check(&self, rows: &[BitSet]) -> bool {
        self.chains.iter().all(|chain| {
            chain
                .windows(2)
                .all(|w| rows[w[0].index()].contains(w[1].index()))
        })
    }
}

/// The queryable chain-compression index of \[18\].
#[derive(Debug, Clone)]
pub struct ChainIndex {
    cover: ChainCover,
    /// Per node, sorted `(chain, earliest reachable seq)` entries.
    entries: Vec<Vec<(u32, u32)>>,
}

impl ChainIndex {
    /// Builds the index over a given chain cover.
    pub fn build(g: &DiGraph, cover: ChainCover) -> Self {
        let rows = traverse::closure_rows(g);
        Self::from_rows(&rows, cover)
    }

    /// Builds the index from precomputed closure rows.
    pub fn from_rows(rows: &[BitSet], cover: ChainCover) -> Self {
        let n = rows.len();
        let chains = cover.chain_count();
        let mut entries = Vec::with_capacity(n);
        let mut earliest: Vec<u32> = Vec::new();
        for row in rows.iter().take(n) {
            earliest.clear();
            earliest.resize(chains, u32::MAX);
            for v in row.iter() {
                let c = cover.chain_of[v] as usize;
                earliest[c] = earliest[c].min(cover.seq_of[v]);
            }
            let mut list: Vec<(u32, u32)> = earliest
                .iter()
                .enumerate()
                .filter(|(_, &s)| s != u32::MAX)
                .map(|(c, &s)| (c as u32, s))
                .collect();
            list.sort_unstable();
            entries.push(list);
        }
        ChainIndex { cover, entries }
    }

    /// Convenience: build with the greedy cover.
    pub fn build_greedy(g: &DiGraph) -> Result<Self, topo::CycleError> {
        let rows = traverse::closure_rows(g);
        let cover = ChainCover::greedy(g, &rows)?;
        Ok(Self::from_rows(&rows, cover))
    }

    /// Convenience: build with the minimum (Dilworth) cover.
    pub fn build_minimum(g: &DiGraph) -> Result<Self, topo::CycleError> {
        let rows = traverse::closure_rows(g);
        let cover = ChainCover::minimum(g, &rows)?;
        Ok(Self::from_rows(&rows, cover))
    }

    /// The underlying cover.
    pub fn cover(&self) -> &ChainCover {
        &self.cover
    }

    /// Total number of `(chain, seq)` entries across all nodes — the unit
    /// Theorem 2 compares against the interval count.
    pub fn entry_count(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }
}

impl ReachabilityIndex for ChainIndex {
    fn name(&self) -> &'static str {
        "chain-compression"
    }

    fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        let c = self.cover.chain_of[dst.index()];
        let list = &self.entries[src.index()];
        match list.binary_search_by_key(&c, |&(chain, _)| chain) {
            Ok(pos) => list[pos].1 <= self.cover.seq_of[dst.index()],
            Err(_) => false,
        }
    }

    /// Two numbers per entry (chain id + sequence number), mirroring the
    /// two endpoints per interval counted for the compressed closure.
    fn storage_units(&self) -> usize {
        2 * self.entry_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::generators;

    fn diamond() -> DiGraph {
        DiGraph::from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn greedy_cover_is_valid() {
        let g = diamond();
        let rows = traverse::closure_rows(&g);
        let cover = ChainCover::greedy(&g, &rows).unwrap();
        assert!(cover.check(&rows));
        // Diamond width is 2: greedy should find 2 chains here.
        assert_eq!(cover.chain_count(), 2);
    }

    #[test]
    fn minimum_cover_achieves_width() {
        let g = diamond();
        let rows = traverse::closure_rows(&g);
        let cover = ChainCover::minimum(&g, &rows).unwrap();
        assert!(cover.check(&rows));
        assert_eq!(cover.chain_count(), 2, "diamond has width 2");
        // An antichain of k isolated nodes needs k chains.
        let iso = DiGraph::with_nodes(5);
        let rows = traverse::closure_rows(&iso);
        assert_eq!(ChainCover::minimum(&iso, &rows).unwrap().chain_count(), 5);
    }

    #[test]
    fn minimum_never_worse_than_greedy() {
        for seed in 0..8 {
            let g = generators::random_dag(generators::RandomDagConfig {
                nodes: 30,
                avg_out_degree: 2.0,
                seed,
            });
            let rows = traverse::closure_rows(&g);
            let greedy = ChainCover::greedy(&g, &rows).unwrap();
            let min = ChainCover::minimum(&g, &rows).unwrap();
            assert!(min.chain_count() <= greedy.chain_count(), "seed {seed}");
            assert!(min.check(&rows));
        }
    }

    #[test]
    fn index_queries_match_dfs() {
        for seed in 0..5 {
            let g = generators::random_dag(generators::RandomDagConfig {
                nodes: 35,
                avg_out_degree: 2.5,
                seed,
            });
            for index in [
                ChainIndex::build_greedy(&g).unwrap(),
                ChainIndex::build_minimum(&g).unwrap(),
            ] {
                for u in g.nodes() {
                    let truth = traverse::reachable_set(&g, u);
                    for v in g.nodes() {
                        assert_eq!(
                            index.reaches(u, v),
                            truth.contains(v.index()),
                            "{} seed {seed} ({u:?},{v:?})",
                            index.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chain_storage_on_a_chain_graph_is_linear() {
        // A pure chain compresses perfectly in both schemes.
        let g = generators::chain(20);
        let index = ChainIndex::build_minimum(&g).unwrap();
        assert_eq!(index.cover().chain_count(), 1);
        assert_eq!(index.entry_count(), 20, "one self-entry per node");
    }

    #[test]
    fn tree_is_bad_for_chains() {
        // Theorem 2's separating example: a bushy tree has width ~ leaf
        // count, so chains blow up where intervals stay linear.
        let g = generators::balanced_tree(2, 4); // 31 nodes, 16 leaves
        let index = ChainIndex::build_minimum(&g).unwrap();
        assert_eq!(index.cover().chain_count(), 16);
        assert!(index.entry_count() > g.node_count() * 2);
    }

    #[test]
    fn cyclic_rejected() {
        let g = DiGraph::from_edges([(0, 1), (1, 0)]);
        assert!(ChainIndex::build_greedy(&g).is_err());
        assert!(ChainIndex::build_minimum(&g).is_err());
    }
}
