#![warn(missing_docs)]

//! Graph substrate for the `local-advice` workspace.
//!
//! This crate provides everything the advice schemas of
//! [the PODC 2024 paper] manipulate:
//!
//! - a compact immutable [`Graph`] (CSR adjacency, deterministic neighbor
//!   order) with a mutable [`GraphBuilder`],
//! - unique-identifier assignments ([`IdAssignment`]) as used by the LOCAL
//!   model (IDs from `{1, …, poly(n)}`),
//! - deterministic and randomized [`generators`] for every graph family the
//!   evaluation uses (cycles, paths, grids, tori, trees, hypercubes, random
//!   bounded-degree graphs, bipartite regular graphs, random 3-colorable
//!   graphs, even-degree graphs),
//! - traversal utilities (BFS [`distances`](traversal::bfs_distances),
//!   [balls](traversal::ball), components, diameter),
//! - power graphs, greedy and distance-`k` colorings, maximal independent
//!   sets and `(α, β)`-ruling sets,
//! - [`orientation`]: edge orientations, balance checks, and the Euler
//!   partition of the edge set into trails (cycles and paths) that drives
//!   the paper's balanced-orientation schema (Section 5),
//! - [`growth`]: neighborhood-growth measurement and the `α`-search of the
//!   paper's Lemma 4.3.
//!
//! # Example
//!
//! ```
//! use lad_graph::{generators, traversal};
//!
//! let g = generators::cycle(8);
//! assert_eq!(g.n(), 8);
//! assert_eq!(g.m(), 8);
//! assert_eq!(g.max_degree(), 2);
//! let d = traversal::bfs_distances(&g, lad_graph::NodeId(0));
//! assert_eq!(d[4], Some(4));
//! ```
//!
//! [the PODC 2024 paper]: https://doi.org/10.1145/3662158.3662796

pub mod builder;
pub mod coloring;
pub mod generators;
pub mod graph;
pub mod growth;
pub mod ids;
pub mod mutate;
pub mod orientation;
pub mod power;
pub mod ruling;
pub mod shard;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use graph::{EdgeId, Graph, NodeId};
pub use ids::IdAssignment;
pub use mutate::{Edit, EditReport, MutableGraph};
pub use orientation::{EulerPartition, Orientation, Trail};
pub use shard::{Partition, ShardView};
pub use subgraph::InducedSubgraph;
