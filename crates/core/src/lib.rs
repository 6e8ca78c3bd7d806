#![warn(missing_docs)]

//! The paper's contributions: advice schemas for local computation with
//! advice and local decompression.
//!
//! An *advice schema* (Definition 3.4 of the paper) pairs a centralized,
//! all-powerful **encoder** — which sees the whole graph (identifiers
//! included) and assigns each node a short bit string — with a distributed
//! **decoder** that must reconstruct a solution in `T(Δ)` rounds of the
//! LOCAL model, independent of `n`.
//!
//! Module map (→ paper section):
//!
//! | module | contribution |
//! |--------|--------------|
//! | [`schema`], [`advice`], [`bits`] | Definitions 3.4–3.5: schema kinds, sparsity, bit-level codecs |
//! | [`tracks`], [`onebit`] | Section 9 composability: Lemma-1 composition via multiplexed tracks, Lemma-2 conversion to uniform 1-bit advice |
//! | [`lll`] | algorithmic Lovász Local Lemma (Moser–Tardos), replacing the paper's existential LLL uses |
//! | [`balanced`] | Contribution 3 / Section 5: almost-balanced orientations |
//! | [`decompress`] | Contribution 4: edge-subset compression at `⌈d/2⌉ + O(1)` bits per node |
//! | [`lcl_subexp`] | Contribution 1 / Section 4: any LCL with 1-bit advice on sub-exponential growth |
//! | [`cluster_coloring`], [`delta_coloring`] | Contribution 5 / Section 6: Δ-coloring pipeline |
//! | [`three_coloring`] | Contribution 6 / Section 7: 3-coloring 3-colorable graphs |
//! | [`splitting`] | Section 5 extensions: splitting and Δ-edge-coloring of bipartite regular graphs |
//! | [`proofs`] | Section 1.2 corollary: locally checkable proofs from schemas |
//! | [`eth`] | Contribution 2 / Section 8: brute-force advice search and order-invariant simulation |
//!
//! # Example
//!
//! ```
//! use lad_core::balanced::BalancedOrientationSchema;
//! use lad_core::schema::AdviceSchema;
//! use lad_graph::generators;
//! use lad_runtime::Network;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Network::with_identity_ids(generators::cycle(100));
//! let schema = BalancedOrientationSchema::default();
//! let advice = schema.encode(&net)?;
//! let (orientation, stats) = schema.decode(&net, &advice)?;
//! assert!(orientation.is_almost_balanced(net.graph()));
//! assert!(stats.rounds() < 40); // local: independent of n = 100
//! # Ok(())
//! # }
//! ```

pub mod advice;
pub mod balanced;
pub mod bits;
pub mod checked;
pub mod churn;
pub mod cluster_coloring;
pub mod composable;
pub mod compose;
pub mod decompress;
pub mod delta_coloring;
pub mod error;
pub mod eth;
pub mod kempe;
pub mod lcl_subexp;
pub mod lll;
pub mod onebit;
pub mod proofs;
pub mod schema;
pub mod served;
pub mod sharded;
pub mod splitting;
pub mod three_coloring;
pub mod tracks;

pub use advice::AdviceMap;
pub use bits::{BitReader, BitString};
pub use error::{DecodeError, EncodeError};
pub use schema::AdviceSchema;
pub use served::{
    ball_from_words, ball_to_words, by_name, query_key, train_store, ServedSchema, TrainError,
    WireError, SERVED_SCHEMAS,
};
