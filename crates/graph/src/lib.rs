//! Directed-graph substrate for the `interval-tc` workspace.
//!
//! This crate provides everything the transitive-closure layers need from a
//! graph library, implemented from scratch:
//!
//! * [`DiGraph`] — a growable directed graph with both out- and in-adjacency,
//!   the base representation for binary relations (paper §3: "a binary
//!   relation ... corresponds to a graph").
//! * [`BitSet`] — a fixed-capacity bitset used for reachability baselines,
//!   traversal visited sets and update worklists.
//! * [`topo`] — topological sorting and cycle detection.
//! * [`scc`] — Tarjan's strongly-connected components and graph condensation
//!   (paper §3: "cyclic graphs [are handled] by collapsing strongly connected
//!   components into one node").
//! * [`traverse`] — DFS/BFS iterators and reachable-set computation (the
//!   "pointer chasing" the paper wants to avoid at query time, and the ground
//!   truth our tests compare against).
//! * [`generators`] — the synthetic workloads of §3.3: random DAGs with a
//!   specified average out-degree (following Agrawal & Jagadish, VLDB'87),
//!   trees, the bipartite worst cases of Fig 3.6/3.7, layered DAGs, and the
//!   exhaustive small-DAG enumeration behind Fig 3.12.
//! * [`dot`] / [`edgelist`] — Graphviz export and a plain-text edge-list
//!   format for getting graphs in and out.
//!
//! # Example
//!
//! ```
//! use tc_graph::{DiGraph, NodeId};
//!
//! let mut g = DiGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let c = g.add_node();
//! g.add_edge(a, b);
//! g.add_edge(b, c);
//! assert!(tc_graph::topo::is_acyclic(&g));
//! let order = tc_graph::topo::topo_sort(&g).unwrap();
//! assert_eq!(order[0], a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bitset;
mod digraph;
mod node;

pub mod dot;
pub mod edgelist;
pub mod generators;
pub mod metrics;
pub mod scc;
pub mod topo;
pub mod traverse;

pub use bitset::BitSet;
pub use digraph::{DiGraph, EdgeKindError};
pub use node::NodeId;
