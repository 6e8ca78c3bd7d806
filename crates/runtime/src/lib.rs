#![warn(missing_docs)]

//! LOCAL-model runtime: networks, ball views, round accounting, an explicit
//! synchronous message-passing simulator, and order-invariant lookup-table
//! algorithms.
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
//! radii. The maximum radius requested over all nodes **is** the measured
//! round complexity ([`RoundStats`]); decoders physically cannot read
//! anything outside the views they paid for.
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
//! [`run_local`] is the sequential reference executor. [`run_local_par`]
//! (and the `*_cached` variants over a shared [`ViewCache`]) computes the
//! same outputs and [`RoundStats`] bit for bit — LOCAL algorithms are pure
//! per-node functions of their views, so scheduling cannot change results,
//! and `crates/runtime/tests/equivalence.rs` enforces this differentially.
//! Threading sits behind the `parallel` cargo feature (default-on); see
//! [`executor::effective_parallelism`] for how worker counts resolve.
//!
//! For *order-invariant* algorithms, [`run_local_memo`] (and its
//! fallible/parallel variants) additionally decodes once per canonical
//! isomorphism class of advice-labeled balls instead of once per node,
//! with a built-in [`NotOrderInvariant`] safety net; on bounded-growth
//! graphs this is the difference between O(n) and O(#classes) step
//! evaluations.

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
pub mod cache;
pub mod canonical;
pub mod churn;
pub mod ctx;
pub mod executor;
pub mod gather;
pub mod lookup;
pub mod messaging;
pub mod network;
pub mod plan;
#[cfg(feature = "parallel")]
mod pool;
pub mod shard;
pub mod shell;
pub mod store;
pub mod transport;

pub use ball::Ball;
pub use cache::{CacheStats, ViewCache};
pub use canonical::{
    canonicalize, canonicalize_tagged_with, canonicalize_with, CanonScratch, CanonicalKey,
};
pub use churn::{ChurnLocal, ChurnMemoLocal, PlannedChurnLocal, RepairReport};
pub use ctx::NodeCtx;
pub use executor::{
    effective_parallelism, memo_stats, memo_stats_reset, par_map, par_map_with, run_local,
    run_local_cached, run_local_fallible, run_local_fallible_cached, run_local_fallible_par,
    run_local_fallible_par_cached, run_local_fallible_par_with, run_local_memo,
    run_local_memo_fallible, run_local_memo_fallible_par, run_local_memo_fallible_par_with,
    run_local_memo_par_with, run_local_par, run_local_par_cached, run_local_par_with,
    set_thread_override, MemoStats, MemoStep, RoundStats,
};
pub use gather::{run_gathered, run_gathered_robust, GatherError, GatherReport, NodeRecord};
pub use lookup::{LookupTable, NotOrderInvariant};
pub use messaging::{
    run_rounds, run_rounds_on, LocalInfo, LossyRoundAlgorithm, RoundAlgorithm, RoundLimitExceeded,
    RoundOutcome, Strict,
};
pub use network::Network;
pub use plan::{
    forced_path, plan_decode, probe_stride, set_force_path, Calibration, ExecPath, PlanDecision,
};
pub use shard::{
    run_sharded_fallible, run_sharded_stream_fallible, HaloExceeded, MemoMerge, ShardMemo,
    ShardOpts, ShardRun, ShardSlice, ShardTrafficStats, ShardedTransport, Spillable,
};
pub use shell::{fold_key_words, shell_class_keys, shell_class_keys_at_radii};
pub use store::{
    ClassStore, ClassVerdict, SchemaId, StoreError, KEY_LAYOUT_VERSION, STORE_VERSION,
};
pub use transport::{
    CopyFate, Corruptible, Fate, FaultPlan, FaultRun, FaultStats, PerfectLink, Transport,
};
