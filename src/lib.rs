//! # local-advice
//!
//! A Rust reproduction of *“Brief Announcement: Local Advice and Local
//! Decompression”* (Balliu, Brandt, Kuhn, Nowicki, Olivetti, Rotenberg,
//! Suomela — PODC 2024): local computation with advice in the LOCAL model
//! of distributed computing, and local decompression of graph labelings.
//!
//! This crate is a facade over the workspace crates:
//!
//! - [`graph`] — graph substrate: CSR graphs, generators, traversals,
//!   ruling sets, Euler partitions, growth measurement.
//! - [`runtime`] — the LOCAL-model runtime: per-node ball views with round
//!   accounting, and class tables that hold an order-invariant algorithm
//!   as a finite map from canonical views to outputs.
//! - [`lcl`] — locally checkable labelings: problem trait, concrete LCLs,
//!   distributed checkers, brute-force completion.
//! - [`core`] — the paper's contributions: advice schemas for balanced
//!   orientations, edge-subset decompression, LCLs on sub-exponential
//!   growth, Δ-coloring, 3-coloring, splitting and Δ-edge-coloring, the
//!   composability framework, and the ETH-side machinery.
//! - [`baselines`] — trivial advice schemas and no-advice distributed
//!   algorithms for comparison.
//!
//! # Quickstart
//!
//! Encode and locally decode an almost-balanced orientation with sparse
//! advice (Contribution 3):
//!
//! ```
//! use local_advice::core::balanced::BalancedOrientationSchema;
//! use local_advice::core::schema::AdviceSchema;
//! use local_advice::graph::generators;
//! use local_advice::runtime::Network;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::cycle(64);
//! let net = Network::with_identity_ids(g);
//! let schema = BalancedOrientationSchema::default();
//! let advice = schema.encode(&net)?;
//! let (orientation, stats) = schema.decode(&net, &advice)?;
//! assert!(orientation.is_almost_balanced(net.graph()));
//! assert!(stats.rounds() < 64); // local, not global
//! # Ok(())
//! # }
//! ```

pub use lad_baselines as baselines;
pub use lad_core as core;
pub use lad_graph as graph;
pub use lad_lcl as lcl;
pub use lad_runtime as runtime;
