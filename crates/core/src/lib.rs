//! # tc-core — interval-labeled compressed transitive closure
//!
//! An implementation of the transitive-closure compression scheme of
//! *Agrawal, Borgida & Jagadish, "Efficient Management of Transitive
//! Relationships in Large Data and Knowledge Bases", SIGMOD 1989*.
//!
//! ## The scheme in brief
//!
//! Given an acyclic directed graph (a binary relation):
//!
//! 1. Cover the graph with a spanning tree (the **tree cover**). The paper's
//!    **Alg1** picks, for every node, the incoming arc from the immediate
//!    predecessor with the *largest predecessor set*; Theorem 1 proves this
//!    minimizes the total number of intervals over all tree covers.
//! 2. Number the nodes by **postorder** position in the tree cover and label
//!    every node with its **tree interval** `[lowest number in subtree, own
//!    number]`. Within a tree, `u` reaches `v` iff `post(v)` lies in `u`'s
//!    tree interval (Lemma 1) — one range comparison.
//! 3. Sweep the DAG in **reverse topological order**, adding, for every arc
//!    `(p, q)`, all of `q`'s intervals to `p` and discarding subsumed
//!    intervals. The extra intervals a node ends up with are its **non-tree
//!    intervals**; Lemma 4 characterizes how many survive.
//!
//! A reachability query `u →* v` is then a binary search of `u`'s interval
//! set for `post(v)`. Storage is `2 × (total interval count)` numbers, which
//! §3.3 shows is usually a small multiple of — and for denser graphs *less
//! than* — the size of the original relation.
//!
//! ## Incremental updates (§4)
//!
//! Postorder numbers are spaced with configurable **gaps** so the closure
//! absorbs updates without renumbering: new leaves take the midpoint of the
//! gap owned by their parent, new non-tree arcs propagate intervals to
//! predecessors with subsumption cut-off, and an optional per-node **reserve
//! region** makes IS-A *hierarchy refinement* a constant-time operation.
//! When gaps run out the closure relabels itself (keeping the tree cover);
//! [`CompressedClosure::rebuild`] recovers optimality after heavy churn.
//!
//! ## Quick start
//!
//! ```
//! use tc_graph::{DiGraph, NodeId};
//! use tc_core::CompressedClosure;
//!
//! // The IS-A fragment: device ⊃ {scanner, printer} ⊃ laser-printer …
//! let g = DiGraph::from_edges([
//!     (0, 1), // device -> printer
//!     (0, 2), // device -> scanner
//!     (1, 3), // printer -> laser-printer
//!     (2, 3), // scanner -> laser-printer (a multifunction device)
//! ]);
//! let closure = CompressedClosure::build(&g).unwrap();
//! assert!(closure.reaches(NodeId(0), NodeId(3)));
//! assert!(!closure.reaches(NodeId(1), NodeId(2)));
//! // Every reachability fact, decoded back out of the intervals:
//! assert_eq!(closure.successors(NodeId(0)).len(), 4); // reflexive
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod audit;
mod builder;
mod closure;
mod labeling;
mod parallel;
mod propagate;
mod stats;

pub mod bruteforce;
pub mod codec;
pub mod cyclic;
pub mod paged;
pub mod pooled;
pub mod serve;
pub mod shard;
pub mod small_dag;
pub mod treecover;
pub mod updates;

pub use builder::ClosureConfig;
pub use closure::CompressedClosure;
pub use paged::{
    PagedClosure, PagedError, PagedIoStats, PagedPlane, QueryPlane, DEFAULT_POOL_PAGES,
};
pub use serve::{ServiceClosed, ServiceConfig, ServiceOp, ServiceSnapshot};
pub use shard::{
    ShardedClosure, ShardedReader, ShardedService, ShardedStats, ShardedView, SubmitOutcome,
};
pub use stats::ClosureStats;
pub use treecover::{CoverStrategy, TreeCover};
pub use updates::{EdgeDelta, UpdateError};

/// Default spacing between consecutive postorder numbers: the paper suggests
/// "dividing the range of integers that can be accommodated in one word by
/// the number of nodes"; with 64-bit numbers, 2³² leaves room for four
/// billion nodes *and* 2³² insertions between any two.
pub const DEFAULT_GAP: u64 = 1 << 32;
