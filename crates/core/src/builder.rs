//! Closure construction configuration.

use tc_graph::{topo, DiGraph};

use crate::closure::CompressedClosure;
use crate::labeling::Labeling;
use crate::propagate::propagate_all;
use crate::treecover::{CoverStrategy, TreeCover};
use crate::DEFAULT_GAP;

/// Configuration for building a [`CompressedClosure`].
///
/// ```
/// use tc_core::{ClosureConfig, CoverStrategy};
/// use tc_graph::DiGraph;
///
/// let g = DiGraph::from_edges([(0, 1), (1, 2), (0, 2)]);
/// let closure = ClosureConfig::new()
///     .strategy(CoverStrategy::Optimal)
///     .gap(1 << 16)
///     .merge_adjacent(true)
///     .build(&g)
///     .unwrap();
/// assert!(closure.reaches(0.into(), 2.into()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ClosureConfig {
    pub(crate) strategy: CoverStrategy,
    pub(crate) gap: u64,
    pub(crate) reserve: u64,
    pub(crate) merge_adjacent: bool,
    pub(crate) threads: usize,
    pub(crate) scoped_deletes: bool,
    /// Buffer-pool pages for out-of-core freezes; 0 freezes in memory.
    pub(crate) paged_pool: usize,
    /// Merged-interval count above which a freeze gives a node a bitset
    /// row instead of an interval row; `usize::MAX` disables the hybrid.
    pub(crate) hybrid_threshold: usize,
}

impl Default for ClosureConfig {
    /// Optimal (Alg1) cover, the [`DEFAULT_GAP`] spacing, no refinement
    /// reserve, no adjacent-interval merging — the configuration the paper's
    /// §3.3 experiments use (merging is evaluated separately and found to
    /// save < 5%).
    fn default() -> Self {
        ClosureConfig {
            strategy: CoverStrategy::Optimal,
            gap: DEFAULT_GAP,
            reserve: 0,
            merge_adjacent: false,
            threads: 1,
            scoped_deletes: true,
            paged_pool: 0,
            hybrid_threshold: usize::MAX,
        }
    }
}

impl ClosureConfig {
    /// Default configuration (see [`ClosureConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the tree-cover strategy.
    pub fn strategy(mut self, strategy: CoverStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the spacing between consecutive postorder numbers. `1` gives the
    /// paper's §3 contiguous numbering (no room for updates); larger values
    /// leave gaps for incremental insertion (§4.1).
    ///
    /// Must satisfy `gap >= 2 * (reserve + 1)` at build time.
    pub fn gap(mut self, gap: u64) -> Self {
        assert!(gap >= 1, "gap must be positive");
        self.gap = gap;
        self
    }

    /// Sets the per-node refinement reserve (§4.1): a tail of `reserve`
    /// numbers above each postorder number into which
    /// [`CompressedClosure::refine_insert`] can place new nodes without any
    /// interval propagation.
    pub fn reserve(mut self, reserve: u64) -> Self {
        self.reserve = reserve;
        self
    }

    /// Enables the §3.2 "Improvements" post-pass that merges adjacent and
    /// overlapping intervals.
    pub fn merge_adjacent(mut self, enable: bool) -> Self {
        self.merge_adjacent = enable;
        self
    }

    /// Sets the worker-thread count for batch reads:
    /// [`CompressedClosure::reaches_batch`] and [`CompressedClosure::stats`]
    /// split their work across this many scoped workers.
    ///
    /// `1` (the default) runs them inline; `0` means one worker per
    /// available CPU; anything else is taken literally. Construction,
    /// relabeling and deletion recomputes always run the serial §3.2 sweeps
    /// — see DESIGN.md, "Batch fan-out".
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Restricts deletion recomputes to the affected region (§4.2 locality:
    /// only nodes that can reach the deletion site can change). On by
    /// default; `false` restores the historical global sweep, which the
    /// differential fuzzer keeps as a cross-check oracle. Both settings
    /// produce identical reachability; see DESIGN.md, "Scoped deletion
    /// recompute".
    pub fn scoped_deletes(mut self, enable: bool) -> Self {
        self.scoped_deletes = enable;
        self
    }

    /// Serves frozen snapshots *out-of-core*: [`CompressedClosure::freeze`]
    /// writes the `PLN2` plane image to a temp file and answers queries
    /// through a `pool_pages`-page buffer pool ([`crate::PagedPlane`])
    /// instead of holding the payload in RAM ([`crate::QueryPlane`]). Same
    /// image, same reader, identical answers; steady-state memory drops to
    /// the pool plus the resident overlay. `0` (the default) keeps freezes
    /// in memory.
    pub fn paged(mut self, pool_pages: usize) -> Self {
        self.paged_pool = pool_pages;
        self
    }

    /// Enables the *hybrid reachability oracle* on subsequent freezes: any
    /// node whose rank-compressed row would hold more than `threshold`
    /// merged intervals gets a word-aligned bitset row instead, turning its
    /// `reaches` probe into one word test however fragmented its successor
    /// set is. Negative-cutoff labels are consulted first in all modes, so
    /// most unreachable pairs never touch a row at all. `usize::MAX` (the
    /// default) keeps freezes pure-interval; `0` gives every node a bitset
    /// row. Answers are bit-identical at any threshold — see DESIGN.md,
    /// "Hybrid oracle".
    pub fn hybrid(mut self, threshold: usize) -> Self {
        self.hybrid_threshold = threshold;
        self
    }

    /// Builds the compressed closure of `g`.
    ///
    /// Fails with a [`topo::CycleError`] if `g` is cyclic — wrap cyclic
    /// graphs with [`crate::cyclic::CyclicClosure`] instead.
    pub fn build(self, g: &DiGraph) -> Result<CompressedClosure, topo::CycleError> {
        let order = topo::topo_sort(g)?;
        let cover = self.strategy.compute(g, &order);
        Ok(self.build_parts(g, cover, &order))
    }

    /// Builds the closure over an explicit tree cover (used by the
    /// brute-force optimality oracle and the Fig 3.8 order-dependence
    /// experiments).
    pub fn build_with_cover(
        self,
        g: &DiGraph,
        cover: TreeCover,
    ) -> Result<CompressedClosure, topo::CycleError> {
        let order = topo::topo_sort(g)?;
        Ok(self.build_parts(g, cover, &order))
    }

    fn build_parts(
        self,
        g: &DiGraph,
        cover: TreeCover,
        order: &[tc_graph::NodeId],
    ) -> CompressedClosure {
        let mut lab = Labeling::assign(&cover, self.gap, self.reserve);
        propagate_all(g, order, &mut lab);
        if self.merge_adjacent {
            for set in &mut lab.sets {
                set.merge_adjacent();
            }
        }
        CompressedClosure::from_parts(g.clone(), cover, lab, self)
    }
}
