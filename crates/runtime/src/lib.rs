#![warn(missing_docs)]

//! LOCAL-model runtime: networks, ball views, round accounting, an explicit
//! synchronous message-passing simulator, and class tables that turn an
//! order-invariant algorithm into a finite map from canonical views to
//! outputs ([`ClassStore`]).
//!
//! # The model
//!
//! In the LOCAL model (Section 3.2 of the paper), an `n`-node graph's nodes
//! carry unique identifiers from `{1, …, poly(n)}`; computation proceeds in
//! synchronous rounds of unbounded-size messages and unbounded local
//! computation. A classical equivalence says a `T`-round LOCAL algorithm is
//! exactly a function of each node's *radius-`T` view*: the subgraph induced
//! by `N_{≤T}(v)` (without edges between two nodes at distance exactly `T`),
//! together with all identifiers, inputs, and degrees in it.
//!
//! This crate realizes that equivalence directly: a decoder receives a
//! [`NodeCtx`] whose [`NodeCtx::ball`] calls materialize views of requested
//! radii, or, climbing a decode ladder ([`Run::ladder`]), a [`BallView`]
//! per rung that reads the same view in place. The maximum radius requested
//! over all nodes **is** the measured round complexity ([`RoundStats`]);
//! decoders physically cannot read anything outside the views they paid
//! for. [`LocalView`] is what a step reads of a view; a [`Ball`] and a
//! [`BallView`] answer it alike, so a step is written once for both.
//!
//! For completeness (and tests that want the "real" round-by-round
//! mechanics), [`messaging`] provides an explicit synchronous
//! message-passing simulator.
//!
//! # Example
//!
//! ```
//! use lad_graph::generators;
//! use lad_runtime::{Network, run_local};
//!
//! // Every node reports how many nodes it sees at distance ≤ 2.
//! let net = Network::with_identity_ids(generators::cycle(10));
//! let (outs, stats) = run_local(&net, |ctx| ctx.ball(2).n());
//! assert!(outs.iter().all(|&k| k == 5));
//! assert_eq!(stats.rounds(), 2);
//! ```

//! # Execution paths
//!
//! [`run_local`] is the sequential reference executor. Every other run
//! goes through one per-call spec, [`Run`] — its thread count — and
//! computes the same outputs and [`RoundStats`] bit for bit: LOCAL
//! algorithms are pure per-node functions of their views, so scheduling
//! cannot change results, and `crates/runtime/tests/equivalence.rs`
//! enforces this differentially. Runs fan out on a process-wide worker
//! pool; see [`executor::effective_parallelism`] for how worker counts
//! resolve when the spec sets none (`LAD_THREADS=1` runs sequentially).
//! Decode ladders ([`Run::ladder`]) climb every node's ladder on its own,
//! reading each rung's view in place on the chunk's BFS scratch: a rung
//! allocates nothing and assembles no subgraph.
//!
//! For *order-invariant* algorithms, a class memo evaluates a step once
//! per canonical isomorphism class of advice-labeled balls instead of
//! once per node, with a built-in [`NotOrderInvariant`] safety net. It
//! lives where verdicts are kept: [`ClassStore::train`] runs one pass
//! into the persistent store, and [`ChurnMemoLocal`] keeps one warm
//! across edit batches, reporting its exact [`MemoStats`]. A trained
//! store is Section 8's finite table: [`ClassStore::get`] answers any
//! view whose class it holds, on any network. The planner
//! ([`plan_decode`]) picks the family a [`PlannedChurnLocal`] opens. No
//! knob or counter is process-wide.

//! # Fault injection
//!
//! Message delivery is pluggable ([`transport`]): [`run_rounds`] fixes it
//! to [`PerfectLink`] (the classical model), while [`run_rounds_on`] and
//! [`run_gathered_robust`] accept any [`Transport`] — in particular a
//! seeded [`FaultPlan`], which deterministically drops, duplicates,
//! delays, and corrupts messages and crash-stops nodes, tallying every
//! injected fault in [`FaultStats`]. Robust gathering validates what it
//! heard and degrades to a typed [`GatherError`] rather than ever
//! assembling a silently wrong view.

pub mod ball;
pub mod canonical;
pub mod churn;
pub mod ctx;
pub mod executor;
pub mod gather;
pub mod messaging;
pub mod network;
pub mod plan;
mod pool;
pub mod shard;
pub mod store;
pub mod transport;

pub use ball::{Ball, BallView, LocalView};
pub use canonical::{
    canonicalize, canonicalize_tagged_with, canonicalize_with, CanonScratch, CanonicalKey,
};
pub use churn::{ChurnLocal, ChurnMemoLocal, PlannedChurnLocal, RepairReport};
pub use ctx::NodeCtx;
pub use executor::{
    effective_parallelism, run_local, run_local_fallible, MemoStats, MemoStep, NotOrderInvariant,
    RoundStats, Run,
};
pub use gather::{run_gathered_robust, GatherError, GatherReport, NodeRecord};
pub use messaging::{
    run_rounds, run_rounds_on, LocalInfo, LossyRoundAlgorithm, RoundAlgorithm, RoundLimitExceeded,
    RoundOutcome, Strict,
};
pub use network::Network;
pub use plan::{plan_decode, ExecPath, PlanDecision};
pub use shard::{run_sharded_fallible, HaloExceeded, ShardOpts};
pub use store::{
    ClassStore, ClassVerdict, SchemaId, StoreError, StoreValue, KEY_LAYOUT_VERSION, STORE_VERSION,
};
pub use transport::{
    CopyFate, Corruptible, Fate, FaultPlan, FaultRun, FaultStats, PerfectLink, Transport,
};
