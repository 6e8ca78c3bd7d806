//! Executing a LOCAL algorithm at every node and measuring its locality.
//!
//! # Entry points
//!
//! All executors run the same per-node function against [`NodeCtx`] handles
//! and produce *identical* outputs and [`RoundStats`] — a LOCAL algorithm is
//! a pure function of each node's view, so scheduling cannot change results.
//! They differ only in wall-clock cost:
//!
//! | function | views | schedule |
//! |---|---|---|
//! | [`run_local`] | fresh BFS per request | sequential (reference) |
//! | [`run_local_cached`] | shared [`ViewCache`] | sequential |
//! | [`run_local_par`] | worker-local scratch + memo | contiguous chunks across threads |
//! | [`run_local_par_cached`] | shared [`ViewCache`] | contiguous chunks across threads |
//! | [`run_local_memo`] | shared shell sweep per 64-center tile, decode once per canonical class | BFS tile order |
//! | [`run_local_memo_fallible_par`] | per-worker shell engines + class memos, replay-merged | contiguous chunks across threads |
//!
//! (`run_local_fallible*` variants propagate the first per-node error in
//! node-index order — also independent of the schedule.)
//!
//! The `run_local_memo*` family is restricted to *order-invariant* steps
//! (a step whose output depends only on the canonical form of its view)
//! and turns the paper's order-invariance theorem into a hot path: on
//! bounded-growth graphs almost all balls are pairwise isomorphic, so one
//! evaluation per [`CanonicalKey`] replaces one evaluation per node.
//!
//! Parallelism is gated behind the `parallel` cargo feature (on by
//! default); with the feature off every entry point runs sequentially but
//! keeps its signature. Thread count resolution is described at
//! [`effective_parallelism`]. The differential harness in
//! `crates/runtime/tests/equivalence.rs` pins down the equivalence of all
//! paths bit for bit.

use crate::ball::{Ball, BallMembers, Scratch};
use crate::cache::ViewCache;
use crate::canonical::{key_of_members, CanonScratch, CanonicalKey};
use crate::ctx::NodeCtx;
use crate::lookup::NotOrderInvariant;
use crate::network::Network;
use crate::shard::{MemoMerge, ShardMemo, ShardRun};
use crate::shell::ShellEngine;
use lad_graph::frontier::TILE_WIDTH;
use lad_graph::{Graph, NodeId};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Round-complexity statistics of one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    per_node: Vec<usize>,
}

impl RoundStats {
    /// The all-zero statistics of an `n`-node execution that never
    /// communicated. This is the identity of [`RoundStats::sequential`].
    pub fn zero(n: usize) -> Self {
        RoundStats {
            per_node: vec![0; n],
        }
    }

    /// Statistics from explicit per-node view radii.
    pub fn from_per_node(per_node: Vec<usize>) -> Self {
        RoundStats { per_node }
    }

    /// The per-node view radii, indexed by node.
    pub fn per_node(&self) -> &[usize] {
        &self.per_node
    }

    /// Number of nodes in the measured execution.
    pub fn n(&self) -> usize {
        self.per_node.len()
    }

    /// The round complexity: the maximum view radius any node requested.
    pub fn rounds(&self) -> usize {
        self.per_node.iter().copied().max().unwrap_or(0)
    }

    /// The view radius requested by node `v`.
    pub fn rounds_at(&self, v: NodeId) -> usize {
        self.per_node[v.index()]
    }

    /// Mean view radius over nodes.
    pub fn mean_rounds(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        self.per_node.iter().sum::<usize>() as f64 / self.per_node.len() as f64
    }

    /// Merges two executions run back to back (radii add: the second
    /// phase starts after the first finished).
    pub fn sequential(&self, later: &RoundStats) -> RoundStats {
        assert_eq!(self.per_node.len(), later.per_node.len());
        RoundStats {
            per_node: self
                .per_node
                .iter()
                .zip(&later.per_node)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

/// Networks smaller than this run sequentially even when threads are
/// available — fan-out overhead would dominate.
const PAR_MIN_NODES: usize = 512;

/// [`std::thread::available_parallelism`], read once per process (on
/// Linux every call re-reads the cgroup files).
pub(crate) fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// The `LAD_THREADS` environment variable if it is a positive integer,
/// read once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("LAD_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t >= 1)
    })
}

/// `0` means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide thread-count override for the `*_par` entry points, taking
/// precedence over the `LAD_THREADS` environment variable and the detected
/// parallelism. `Some(1)` forces sequential execution; `None` restores
/// automatic selection. Intended for tests and benchmarks that compare
/// schedules within one process.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |t| t.max(1)), Ordering::SeqCst);
}

/// The explicitly configured worker count (feature gate, override,
/// `LAD_THREADS`), or `None` when selection should be automatic.
fn configured_threads() -> Option<usize> {
    if cfg!(not(feature = "parallel")) {
        return Some(1);
    }
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => env_threads(),
        o => Some(o),
    }
}

/// The number of chunks [`run_local_par`] splits an `n`-node network
/// into, resolved in order:
///
/// 1. `1` when built without the `parallel` feature;
/// 2. the [`set_thread_override`] value, if set;
/// 3. the `LAD_THREADS` environment variable, if a positive integer;
/// 4. `1` when `n` is too small to amortize a fan-out;
/// 5. [`std::thread::available_parallelism`].
///
/// The chunks run on the process-wide worker pool (`host_threads − 1`
/// workers plus the calling thread), so the count may exceed the pool.
pub fn effective_parallelism(n: usize) -> usize {
    if let Some(t) = configured_threads() {
        return t;
    }
    if n < PAR_MIN_NODES {
        return 1;
    }
    host_threads()
}

/// Splits `0..n` into `chunks` contiguous ranges of equal length (the
/// last one shorter) — the fixed chunk boundaries every fan-out uses, so
/// results never depend on which thread ran which range.
fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let len = n.div_ceil(chunks.max(1)).max(1);
    (0..n).step_by(len).map(|s| s..(s + len).min(n)).collect()
}

/// Runs `f` on every task on the worker pool, results in task order.
fn fan_out<T: Send, R: Send>(tasks: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    #[cfg(feature = "parallel")]
    return crate::pool::map(tasks, f);
    #[cfg(not(feature = "parallel"))]
    tasks.into_iter().map(f).collect()
}

/// Applies `f` to each item across worker threads, returning outputs in
/// item order — the fan-out primitive the centralized encoders use for
/// per-trail, per-cluster, and per-network work.
///
/// Items are split into contiguous chunks run on the process-wide worker
/// pool, so a chunk's items run in index order and outputs are
/// reassembled in chunk order: results never depend on scheduling. The
/// chunk count resolves like [`effective_parallelism`] except there is no
/// minimum item count — encoder work items are coarse (a whole Euler
/// trail, a whole training network), unlike per-node decoder calls. Runs
/// sequentially without the `parallel` feature.
pub fn par_map<T, U>(items: &[T], f: impl Fn(usize, &T) -> U + Sync) -> Vec<U>
where
    T: Sync,
    U: Send,
{
    par_map_with(items, || (), |(), i, t| f(i, t))
}

/// [`par_map`] with per-chunk mutable state: `init` runs once per chunk
/// (once in total for a sequential run) and every `f` call in that chunk
/// receives the same `&mut` state. This is how reusable workspaces
/// ([`crate::CanonScratch`], BFS scratch) thread through fan-outs
/// *explicitly* — a chunk may run on any pool worker or on the caller, so
/// thread-local storage would tie a workspace to whichever thread ran it.
pub fn par_map_with<T, U, S>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> U + Sync,
) -> Vec<U>
where
    T: Sync,
    U: Send,
{
    let n = items.len();
    let map_range = |range: Range<usize>| -> Vec<U> {
        let mut state = init();
        range.map(|i| f(&mut state, i, &items[i])).collect()
    };
    let threads = configured_threads()
        .unwrap_or_else(host_threads)
        .min(n.max(1));
    if !worth_fanning_out(n, threads) {
        return map_range(0..n);
    }
    fan_out(chunk_ranges(n, threads), map_range)
        .into_iter()
        .flatten()
        .collect()
}

/// Runs `algo` independently at every node, returning per-node outputs and
/// the measured locality.
///
/// This is the *reference* executor: one fresh BFS per view request, no
/// sharing, no threads. [`run_local_par`] and the cached variants are
/// drop-in replacements with identical results.
///
/// # Example
///
/// ```
/// use lad_graph::generators;
/// use lad_runtime::{run_local, Network};
///
/// let net = Network::with_identity_ids(generators::path(5));
/// let (uids, stats) = run_local(&net, |ctx| ctx.uid());
/// assert_eq!(uids, vec![1, 2, 3, 4, 5]);
/// assert_eq!(stats.rounds(), 0); // no communication needed
/// ```
pub fn run_local<In: Clone, Out>(
    net: &Network<In>,
    algo: impl Fn(&NodeCtx<In>) -> Out,
) -> (Vec<Out>, RoundStats) {
    let mut outs = Vec::with_capacity(net.graph().n());
    let mut per_node = Vec::with_capacity(net.graph().n());
    for v in net.graph().nodes() {
        let ctx = NodeCtx::new(net, v);
        outs.push(algo(&ctx));
        per_node.push(ctx.rounds_used());
    }
    (outs, RoundStats { per_node })
}

/// Like [`run_local`] for fallible algorithms: stops at the first node that
/// errors. The partial round statistics are discarded on error.
///
/// # Errors
///
/// Propagates the first per-node error in node-index order.
pub fn run_local_fallible<In: Clone, Out, E>(
    net: &Network<In>,
    algo: impl Fn(&NodeCtx<In>) -> Result<Out, E>,
) -> Result<(Vec<Out>, RoundStats), E> {
    let mut outs = Vec::with_capacity(net.graph().n());
    let mut per_node = Vec::with_capacity(net.graph().n());
    for v in net.graph().nodes() {
        let ctx = NodeCtx::new(net, v);
        outs.push(algo(&ctx)?);
        per_node.push(ctx.rounds_used());
    }
    Ok((outs, RoundStats { per_node }))
}

/// Runs `algo` at the nodes of `range` in index order, backed by an
/// optional shared cache, otherwise by a range-local scratch; stops at
/// the range's first error. Returns the outputs and per-node radii.
fn run_range<In: Clone, Out, E>(
    net: &Network<In>,
    range: Range<usize>,
    cache: Option<&ViewCache<In>>,
    algo: &impl Fn(&NodeCtx<In>) -> Result<Out, E>,
) -> Result<(Vec<Out>, Vec<usize>), E> {
    let scratch = RefCell::new(Scratch::new(net.graph().n()));
    let mut outs = Vec::with_capacity(range.len());
    let mut per_node = Vec::with_capacity(range.len());
    for i in range {
        let v = NodeId::from_index(i);
        let ctx = match cache {
            Some(c) => NodeCtx::with_cache(net, v, c, &scratch),
            None => NodeCtx::with_scratch(net, v, &scratch),
        };
        outs.push(algo(&ctx)?);
        per_node.push(ctx.rounds_used());
    }
    Ok((outs, per_node))
}

/// Sequential executor backed by an optional shared cache; otherwise a
/// worker-local scratch/memo. Single code path for all non-reference
/// sequential variants.
fn run_seq_impl<In: Clone, Out, E>(
    net: &Network<In>,
    cache: Option<&ViewCache<In>>,
    algo: impl Fn(&NodeCtx<In>) -> Result<Out, E>,
) -> Result<(Vec<Out>, RoundStats), E> {
    let (outs, per_node) = run_range(net, 0..net.graph().n(), cache, &algo)?;
    Ok((outs, RoundStats { per_node }))
}

/// Parallel executor: splits nodes into `threads` contiguous chunks, each
/// processed in index order with its own BFS scratch on the worker pool,
/// and concatenates the chunks in node order, so results are
/// position-exact regardless of scheduling. Each chunk stops at its first
/// error and the first erroring chunk wins, so the error is the smallest
/// erroring node index's — per-node functions are independent, so that
/// is exactly the error a sequential run returns.
fn run_par_impl<In, Out, E>(
    net: &Network<In>,
    threads: usize,
    cache: Option<&ViewCache<In>>,
    algo: &(impl Fn(&NodeCtx<In>) -> Result<Out, E> + Sync),
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Send,
    E: Send,
{
    let n = net.graph().n();
    let chunks = fan_out(chunk_ranges(n, threads), |range| {
        run_range(net, range, cache, algo)
    });
    let mut outs = Vec::with_capacity(n);
    let mut per_node = Vec::with_capacity(n);
    for chunk in chunks {
        let (chunk_outs, chunk_radii) = chunk?;
        outs.extend(chunk_outs);
        per_node.extend(chunk_radii);
    }
    Ok((outs, RoundStats { per_node }))
}

fn infallible<In, Out>(
    algo: impl Fn(&NodeCtx<In>) -> Out,
) -> impl Fn(&NodeCtx<In>) -> Result<Out, Infallible> {
    move |ctx| Ok(algo(ctx))
}

fn unwrap_infallible<T>(r: Result<T, Infallible>) -> T {
    match r {
        Ok(t) => t,
        Err(e) => match e {},
    }
}

/// Whether `threads` workers actually beat a sequential pass over `n`
/// nodes, given the feature gate.
fn worth_fanning_out(n: usize, threads: usize) -> bool {
    cfg!(feature = "parallel") && threads > 1 && n > 1
}

/// [`run_local`] over a shared [`ViewCache`]: identical results, but view
/// requests hit the cache. A second execution over the same cache (another
/// phase of a composed algorithm, a lookup-table training pass, …) reuses
/// every ball the first one gathered.
pub fn run_local_cached<In: Clone, Out>(
    net: &Network<In>,
    cache: &ViewCache<In>,
    algo: impl Fn(&NodeCtx<In>) -> Out,
) -> (Vec<Out>, RoundStats) {
    unwrap_infallible(run_seq_impl(net, Some(cache), infallible(algo)))
}

/// Fallible [`run_local_cached`].
///
/// # Errors
///
/// Propagates the first per-node error in node-index order.
pub fn run_local_fallible_cached<In: Clone, Out, E>(
    net: &Network<In>,
    cache: &ViewCache<In>,
    algo: impl Fn(&NodeCtx<In>) -> Result<Out, E>,
) -> Result<(Vec<Out>, RoundStats), E> {
    run_seq_impl(net, Some(cache), algo)
}

/// Parallel [`run_local`]: same outputs and [`RoundStats`], bit for bit,
/// computed over [`effective_parallelism`] contiguous node ranges on the
/// process-wide worker pool. Falls back to a sequential pass when built without the
/// `parallel` feature, when only one thread is available, or when the
/// network is too small to amortize a fan-out.
pub fn run_local_par<In, Out>(
    net: &Network<In>,
    algo: impl Fn(&NodeCtx<In>) -> Out + Sync,
) -> (Vec<Out>, RoundStats)
where
    In: Clone + Send + Sync,
    Out: Send,
{
    run_local_par_with(net, effective_parallelism(net.graph().n()), algo)
}

/// [`run_local_par`] with an explicit worker-thread count (`<= 1` runs
/// sequentially). Results do not depend on `threads`.
pub fn run_local_par_with<In, Out>(
    net: &Network<In>,
    threads: usize,
    algo: impl Fn(&NodeCtx<In>) -> Out + Sync,
) -> (Vec<Out>, RoundStats)
where
    In: Clone + Send + Sync,
    Out: Send,
{
    if worth_fanning_out(net.graph().n(), threads) {
        unwrap_infallible(run_par_impl(net, threads, None, &infallible(algo)))
    } else {
        unwrap_infallible(run_seq_impl(net, None, infallible(algo)))
    }
}

/// Parallel [`run_local_fallible`]: same success results and the same
/// first-error-in-node-index-order semantics as the sequential run.
///
/// # Errors
///
/// Propagates the error of the smallest-index erroring node — per-node
/// functions are independent, so this is exactly the error a sequential
/// pass returns.
pub fn run_local_fallible_par<In, Out, E>(
    net: &Network<In>,
    algo: impl Fn(&NodeCtx<In>) -> Result<Out, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Send,
    E: Send,
{
    run_local_fallible_par_with(net, effective_parallelism(net.graph().n()), algo)
}

/// [`run_local_fallible_par`] with an explicit worker-thread count.
///
/// # Errors
///
/// Propagates the first per-node error in node-index order, independent of
/// `threads`.
pub fn run_local_fallible_par_with<In, Out, E>(
    net: &Network<In>,
    threads: usize,
    algo: impl Fn(&NodeCtx<In>) -> Result<Out, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Send,
    E: Send,
{
    if worth_fanning_out(net.graph().n(), threads) {
        run_par_impl(net, threads, None, &algo)
    } else {
        run_seq_impl(net, None, algo)
    }
}

/// Parallel execution over a shared [`ViewCache`]: overlapping balls are
/// gathered once (by whichever worker asks first) and reused by every
/// other worker and by later executions over the same cache.
pub fn run_local_par_cached<In, Out>(
    net: &Network<In>,
    cache: &ViewCache<In>,
    threads: usize,
    algo: impl Fn(&NodeCtx<In>) -> Out + Sync,
) -> (Vec<Out>, RoundStats)
where
    In: Clone + Send + Sync,
    Out: Send,
{
    if worth_fanning_out(net.graph().n(), threads) {
        unwrap_infallible(run_par_impl(net, threads, Some(cache), &infallible(algo)))
    } else {
        unwrap_infallible(run_seq_impl(net, Some(cache), infallible(algo)))
    }
}

/// Fallible [`run_local_par_cached`].
///
/// # Errors
///
/// Propagates the first per-node error in node-index order, independent of
/// `threads`.
pub fn run_local_fallible_par_cached<In, Out, E>(
    net: &Network<In>,
    cache: &ViewCache<In>,
    threads: usize,
    algo: impl Fn(&NodeCtx<In>) -> Result<Out, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Send,
    E: Send,
{
    if worth_fanning_out(net.graph().n(), threads) {
        run_par_impl(net, threads, Some(cache), &algo)
    } else {
        run_seq_impl(net, Some(cache), algo)
    }
}

// ---------------------------------------------------------------------------
// Memoized decode executor: decode once per canonical isomorphism class.
// ---------------------------------------------------------------------------

/// One rung of a memoized decode ladder (see [`run_local_memo`]).
///
/// The step function inspects a ball and either finishes or asks for a
/// strictly larger view — the same contract as an adaptive-radius
/// `ctx.ball(r)` loop under [`run_local`], reified as data so the
/// executor can memoize the decision per canonical class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoStep<Out> {
    /// The node's output is fully determined by the current view.
    Done(Out),
    /// The view is inconclusive; regather at this (strictly larger)
    /// radius and evaluate again.
    Expand(usize),
}

/// Counters describing one or more `run_local_memo*` executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Canonical-key lookups: one per ladder rung per node.
    pub lookups: u64,
    /// Distinct canonical classes evaluated (memo misses).
    pub classes: u64,
    /// Lookups answered from the memo without evaluating the step.
    pub hits: u64,
    /// Safety-net re-evaluations of already-memoized entries.
    pub verifications: u64,
    /// Misses whose class pre-fingerprint was absent from the memo — the
    /// probe was rejected before any exact word comparison. Always a subset
    /// of `classes`; a probe is counted once, never as both a fingerprint
    /// reject and a scanned miss (`lookups == hits + classes` holds).
    pub fp_rejects: u64,
    /// Nanoseconds spent gathering memberships and computing keys —
    /// exactly `sweep_ns + key_ns`.
    pub gather_ns: u64,
    /// Nanoseconds in the shared frontier sweep and per-shell bookkeeping
    /// (membership, uid-rank merge, edge appends).
    pub sweep_ns: u64,
    /// Nanoseconds serializing canonical key words and probing the memo.
    pub key_ns: u64,
    /// Nanoseconds spent materializing balls and evaluating the step.
    pub eval_ns: u64,
    /// Planner decisions that selected the plain parallel path.
    pub plans_plain: u64,
    /// Planner decisions that selected the memoized (shell-tiled) path.
    pub plans_memo: u64,
    /// Nanoseconds spent in planner instance probes (sampled keying and
    /// step evaluation).
    pub probe_ns: u64,
}

impl MemoStats {
    /// Fraction of lookups answered from the memo (`0.0` when none ran).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Fraction of misses rejected by the class pre-fingerprint alone,
    /// i.e. without comparing any exact key words (`0.0` when no miss
    /// occurred). High is good: a low rate means fingerprint collisions
    /// are forcing word comparisons on fresh classes.
    pub fn fp_reject_rate(&self) -> f64 {
        if self.classes == 0 {
            0.0
        } else {
            self.fp_rejects as f64 / self.classes as f64
        }
    }

    pub(crate) fn accumulate(&mut self, other: &MemoStats) {
        self.lookups += other.lookups;
        self.classes += other.classes;
        self.hits += other.hits;
        self.verifications += other.verifications;
        self.fp_rejects += other.fp_rejects;
        self.gather_ns += other.gather_ns;
        self.sweep_ns += other.sweep_ns;
        self.key_ns += other.key_ns;
        self.eval_ns += other.eval_ns;
        self.plans_plain += other.plans_plain;
        self.plans_memo += other.plans_memo;
        self.probe_ns += other.probe_ns;
    }
}

static MEMO_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static MEMO_CLASSES: AtomicU64 = AtomicU64::new(0);
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_VERIFICATIONS: AtomicU64 = AtomicU64::new(0);
static MEMO_FP_REJECTS: AtomicU64 = AtomicU64::new(0);
static MEMO_GATHER_NS: AtomicU64 = AtomicU64::new(0);
static MEMO_SWEEP_NS: AtomicU64 = AtomicU64::new(0);
static MEMO_KEY_NS: AtomicU64 = AtomicU64::new(0);
static MEMO_EVAL_NS: AtomicU64 = AtomicU64::new(0);
static MEMO_PLANS_PLAIN: AtomicU64 = AtomicU64::new(0);
static MEMO_PLANS_MEMO: AtomicU64 = AtomicU64::new(0);
static MEMO_PROBE_NS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn flush_memo_stats(s: &MemoStats) {
    MEMO_LOOKUPS.fetch_add(s.lookups, Ordering::Relaxed);
    MEMO_CLASSES.fetch_add(s.classes, Ordering::Relaxed);
    MEMO_HITS.fetch_add(s.hits, Ordering::Relaxed);
    MEMO_VERIFICATIONS.fetch_add(s.verifications, Ordering::Relaxed);
    MEMO_FP_REJECTS.fetch_add(s.fp_rejects, Ordering::Relaxed);
    MEMO_GATHER_NS.fetch_add(s.gather_ns, Ordering::Relaxed);
    MEMO_SWEEP_NS.fetch_add(s.sweep_ns, Ordering::Relaxed);
    MEMO_KEY_NS.fetch_add(s.key_ns, Ordering::Relaxed);
    MEMO_EVAL_NS.fetch_add(s.eval_ns, Ordering::Relaxed);
    MEMO_PLANS_PLAIN.fetch_add(s.plans_plain, Ordering::Relaxed);
    MEMO_PLANS_MEMO.fetch_add(s.plans_memo, Ordering::Relaxed);
    MEMO_PROBE_NS.fetch_add(s.probe_ns, Ordering::Relaxed);
}

/// Records one planner decision (and its probe cost) into the
/// process-wide counters — called by [`crate::plan`] so every planner
/// choice is visible to the same `memo_stats` snapshot benchmarks read.
pub(crate) fn record_plan(memo_chosen: bool, probe_ns: u64) {
    if memo_chosen {
        MEMO_PLANS_MEMO.fetch_add(1, Ordering::Relaxed);
    } else {
        MEMO_PLANS_PLAIN.fetch_add(1, Ordering::Relaxed);
    }
    MEMO_PROBE_NS.fetch_add(probe_ns, Ordering::Relaxed);
}

/// Resets the process-wide [`memo_stats`] counters. Benchmarks bracket a
/// decode with reset/read to attribute gather vs. evaluation time and the
/// memo hit rate; the counters flow through schema `decode` signatures
/// unchanged.
pub fn memo_stats_reset() {
    for c in [
        &MEMO_LOOKUPS,
        &MEMO_CLASSES,
        &MEMO_HITS,
        &MEMO_VERIFICATIONS,
        &MEMO_FP_REJECTS,
        &MEMO_GATHER_NS,
        &MEMO_SWEEP_NS,
        &MEMO_KEY_NS,
        &MEMO_EVAL_NS,
        &MEMO_PLANS_PLAIN,
        &MEMO_PLANS_MEMO,
        &MEMO_PROBE_NS,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

/// Snapshot of the process-wide memo executor counters accumulated since
/// the last [`memo_stats_reset`] (across every `run_local_memo*` call in
/// the process, all threads).
pub fn memo_stats() -> MemoStats {
    MemoStats {
        lookups: MEMO_LOOKUPS.load(Ordering::Relaxed),
        classes: MEMO_CLASSES.load(Ordering::Relaxed),
        hits: MEMO_HITS.load(Ordering::Relaxed),
        verifications: MEMO_VERIFICATIONS.load(Ordering::Relaxed),
        fp_rejects: MEMO_FP_REJECTS.load(Ordering::Relaxed),
        gather_ns: MEMO_GATHER_NS.load(Ordering::Relaxed),
        sweep_ns: MEMO_SWEEP_NS.load(Ordering::Relaxed),
        key_ns: MEMO_KEY_NS.load(Ordering::Relaxed),
        eval_ns: MEMO_EVAL_NS.load(Ordering::Relaxed),
        plans_plain: MEMO_PLANS_PLAIN.load(Ordering::Relaxed),
        plans_memo: MEMO_PLANS_MEMO.load(Ordering::Relaxed),
        probe_ns: MEMO_PROBE_NS.load(Ordering::Relaxed),
    }
}

/// Multiply-rotate hasher for memo tables keyed by [`CanonicalKey`].
///
/// A key's `Hash` impl writes its single construction-time fold word, so
/// per-lookup hashing is one `write_u64`; this hasher finishes that word
/// without SipHash's initialization and finalization overhead. Key words
/// derive from the caller's own graph, not attacker-controlled input, so a
/// fast non-cryptographic word hash is the right trade. Collisions only
/// cost an extra full-key comparison — never correctness.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }
}

pub(crate) type KeyHashMap<V> = HashMap<CanonicalKey, V, std::hash::BuildHasherDefault<KeyHasher>>;

/// What the memo records for one canonical class at one rung.
pub(crate) enum MemoEntryKind<Out> {
    /// The class decodes to this output.
    Done(Out),
    /// The class asks for a larger radius.
    Expand(usize),
    /// The step failed on this class. Error payloads address specific
    /// nodes, so only the *fact* of failure is shared; the actual error is
    /// regenerated for the smallest-index failing node at the end
    /// ([`memo_first_error`]), matching [`run_local_fallible`]'s
    /// first-error-in-node-order contract.
    Failed,
}

pub(crate) struct MemoEntry<Out> {
    pub(crate) kind: MemoEntryKind<Out>,
    /// Reuse count; drives the geometric verification schedule.
    pub(crate) hits: u32,
    /// Identity stable across bucket reordering ([`ClassMemo::entry_mut`]
    /// front-swaps on every hit), so long-lived sessions can refer to a
    /// class without holding its key. Assigned by [`ClassMemo::insert`].
    pub(crate) id: u64,
    /// How many nodes currently rely on this class. Only maintained by
    /// executors that pass an assignment log to [`memo_run_tile`] (the
    /// churn session); the one-shot executors leave it at zero.
    pub(crate) members: u32,
}

pub(crate) fn memo_kind_eq<Out: PartialEq>(a: &MemoEntryKind<Out>, b: &MemoEntryKind<Out>) -> bool {
    match (a, b) {
        (MemoEntryKind::Done(x), MemoEntryKind::Done(y)) => x == y,
        (MemoEntryKind::Expand(x), MemoEntryKind::Expand(y)) => x == y,
        (MemoEntryKind::Failed, MemoEntryKind::Failed) => true,
        _ => false,
    }
}

/// Network-wide BFS visit order, restarting at the smallest unvisited
/// node per component. Consecutive nodes overlap in all but an O(r·Δ)
/// frontier of their balls, so the incremental gather stays cache-hot and
/// new canonical classes surface early (seams first, then a long run of
/// hits).
pub(crate) fn bfs_visit_order(g: &Graph) -> Vec<NodeId> {
    let n = g.n();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut head = 0usize;
    let mut next_seed = 0usize;
    while order.len() < n {
        if head == order.len() {
            while seen[next_seed] {
                next_seed += 1;
            }
            seen[next_seed] = true;
            order.push(NodeId::from_index(next_seed));
        }
        let v = order[head];
        head += 1;
        for &u in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                order.push(u);
            }
        }
    }
    order
}

/// Two-level class memo: classes bucketed by pre-fingerprint, exact keys
/// compared word-for-word within a bucket. A probe whose fingerprint is
/// absent is rejected without touching any key words; a present bucket is
/// scanned with slice comparisons against the engine's reusable emission
/// buffer, so hits allocate nothing — an owned [`CanonicalKey`] is only
/// materialized when a new class is inserted.
type Bucket<Out> = Vec<(CanonicalKey, MemoEntry<Out>)>;

pub(crate) struct ClassMemo<Out> {
    buckets: HashMap<u64, Bucket<Out>, std::hash::BuildHasherDefault<KeyHasher>>,
    /// Next stable entry id; see [`MemoEntry::id`].
    next_id: u64,
}

impl<Out> Default for ClassMemo<Out> {
    fn default() -> Self {
        ClassMemo {
            buckets: HashMap::default(),
            next_id: 0,
        }
    }
}

/// A stable reference to one memo class: `(pre-fingerprint, entry id)`.
/// Survives bucket reordering; used by the churn session's per-node
/// assignment chains.
pub(crate) type ClassRef = (u64, u64);

/// Outcome of a [`ClassMemo::probe`], split so the accounting can tell a
/// fingerprint-rejected miss from a scanned-bucket miss without counting
/// either twice.
pub(crate) enum Probe {
    /// Exact match at this bucket position.
    Hit(usize),
    /// No bucket for the fingerprint: rejected before exact keying.
    MissRejected,
    /// Bucket existed (fingerprint collision) but no key words matched.
    MissScanned,
}

impl<Out> ClassMemo<Out> {
    /// Probes the memo with a caller-supplied word-equality test — the
    /// engine streams its would-be key serialization against each
    /// candidate's stored words, so a probe materializes nothing. The test
    /// must be a pure equality check (same verdict for the same candidate);
    /// bucket order is first-inserted-first, so within a fingerprint bucket
    /// the probe cost is one streamed comparison per colliding class, each
    /// failing at the first differing word.
    pub(crate) fn probe_with(&self, fp: u64, mut eq: impl FnMut(&[u64]) -> bool) -> Probe {
        match self.buckets.get(&fp) {
            None => Probe::MissRejected,
            Some(bucket) => bucket
                .iter()
                .position(|(key, _)| eq(key.words()))
                .map_or(Probe::MissScanned, Probe::Hit),
        }
    }

    /// Fetches a hit's entry and moves its class to the bucket front, so a
    /// run of probes matching the same class confirms against the first
    /// candidate. Bucket order is pure probe-cost heuristic: classes in a
    /// bucket have distinct keys, so a probe's verdict is order-blind.
    fn entry_mut(&mut self, fp: u64, idx: usize) -> &mut MemoEntry<Out> {
        let bucket = self.buckets.get_mut(&fp).expect("probed bucket");
        bucket.swap(0, idx);
        &mut bucket[0].1
    }

    /// Inserts a new class and returns its stable id.
    fn insert(&mut self, fp: u64, key: CanonicalKey, mut entry: MemoEntry<Out>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        entry.id = id;
        self.buckets.entry(fp).or_default().push((key, entry));
        id
    }

    /// Drops one membership from the class `(fp, id)` refers to. When the
    /// class loses its last member it is **retired**: the entry (and its
    /// bucket, if emptied) is removed, so a later probe of the same
    /// structure is a fresh miss that re-evaluates the step. Returns
    /// whether the class was retired.
    ///
    /// # Panics
    ///
    /// Panics if the reference is dangling or the class has no members —
    /// both mean the caller's assignment chains are out of sync.
    pub(crate) fn release(&mut self, (fp, id): ClassRef) -> bool {
        let bucket = self
            .buckets
            .get_mut(&fp)
            .expect("released class has a bucket");
        let idx = bucket
            .iter()
            .position(|(_, e)| e.id == id)
            .expect("released class is present");
        let entry = &mut bucket[idx].1;
        assert!(entry.members > 0, "released class has members");
        entry.members -= 1;
        if entry.members > 0 {
            return false;
        }
        bucket.swap_remove(idx);
        if bucket.is_empty() {
            self.buckets.remove(&fp);
        }
        true
    }

    /// Number of live classes.
    pub(crate) fn class_count(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Total membership across all classes (zero for one-shot executors,
    /// which don't log assignments).
    pub(crate) fn member_count(&self) -> usize {
        self.buckets
            .values()
            .flatten()
            .map(|(_, e)| e.members as usize)
            .sum()
    }

    pub(crate) fn into_entries(self) -> impl Iterator<Item = (CanonicalKey, MemoEntry<Out>)> {
        self.buckets.into_values().flatten()
    }
}

/// Runs the decode ladders of one tile of centers against a class memo,
/// sharing a single shell-indexed sweep ([`ShellEngine`]) across all of
/// them. On a memo miss the ball is materialized (from the canonical
/// membership) and the step evaluated, then shared with the whole class;
/// on a hit a center pays only its share of the sweep and the keying.
/// Every entry is re-evaluated on a geometric schedule of its reuses
/// (1st, 2nd, 4th, 8th, … hit) as a differential safety net: a step whose
/// output is *not* a function of the canonical view is reported as
/// [`NotOrderInvariant`] instead of silently decoding wrong.
///
/// Output and radius slots are addressed at `v.index() - base`, so the
/// sequential driver passes full slices (`base = 0`) and the parallel
/// driver passes its chunk (`base =` chunk start).
#[allow(clippy::too_many_arguments)]
pub(crate) fn memo_run_tile<In: Clone, Out: Clone + PartialEq, E>(
    net: &Network<In>,
    centers: &[NodeId],
    base: usize,
    initial_radius: usize,
    input_tag: &impl Fn(&In, &mut Vec<u64>),
    step: &impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
    memo: &mut ClassMemo<Out>,
    engine: &mut ShellEngine,
    stats: &mut MemoStats,
    failed: &mut Vec<usize>,
    outs: &mut [Option<Out>],
    per_node: &mut [usize],
    // When present (the churn session), every class a center confirms or
    // creates — each `Expand` rung plus the final verdict — is appended to
    // `assign[v.index() - base]` and counted in `MemoEntry::members`, so
    // invalidation can later release exactly what this node pinned.
    mut assign: Option<&mut [Vec<ClassRef>]>,
) -> Result<(), NotOrderInvariant> {
    let t0 = Instant::now();
    engine.start_tile(net, centers);
    let dt = t0.elapsed().as_nanos() as u64;
    stats.sweep_ns += dt;
    stats.gather_ns += dt;
    // `(bit, previous radius, target radius)`, `usize::MAX` = unstarted.
    // Each wave is grouped by (previous, target) rung so one
    // [`ShellEngine::extend_centers`] batch serves every center making the
    // same hop — that batching is where the shared gather pays. Grouping
    // permutes probe order within a wave, which is safe: memo entries are
    // keyed by canonical class and every output is class-determined, so
    // the decoded labeling cannot depend on which center created an entry.
    let mut active: Vec<(usize, usize, usize)> = (0..centers.len())
        .map(|bit| (bit, usize::MAX, initial_radius))
        .collect();
    let mut next: Vec<(usize, usize, usize)> = Vec::new();
    let mut group: Vec<usize> = Vec::new();
    while !active.is_empty() {
        active.sort_unstable_by_key(|&(bit, prev, r)| (prev, r, bit));
        let mut i = 0;
        while i < active.len() {
            let (_, prev, r) = active[i];
            group.clear();
            while i < active.len() && (active[i].1, active[i].2) == (prev, r) {
                group.push(active[i].0);
                i += 1;
            }
            let t = Instant::now();
            engine.extend_centers(net, &group, r, input_tag);
            let dt = t.elapsed().as_nanos() as u64;
            stats.sweep_ns += dt;
            stats.gather_ns += dt;
            for &bit in &group {
                let v = centers[bit];
                let t = Instant::now();
                // Hit path: stream-confirm against the fingerprint bucket's
                // classes without materializing this center's key words — only
                // a miss ever pays the full serialization (inside
                // `canonical_key`, on insert).
                let fp = engine.pre_fp(bit);
                let probe = memo.probe_with(fp, |cand| engine.confirm(bit, cand));
                let dt = t.elapsed().as_nanos() as u64;
                stats.key_ns += dt;
                stats.gather_ns += dt;
                stats.lookups += 1;
                match probe {
                    Probe::Hit(idx) => {
                        stats.hits += 1;
                        let entry = memo.entry_mut(fp, idx);
                        entry.hits += 1;
                        if let Some(assign) = assign.as_deref_mut() {
                            entry.members += 1;
                            assign[v.index() - base].push((fp, entry.id));
                        }
                        let verify = entry.hits.is_power_of_two();
                        let kind = match &entry.kind {
                            MemoEntryKind::Done(out) => MemoEntryKind::Done(out.clone()),
                            MemoEntryKind::Expand(r2) => MemoEntryKind::Expand(*r2),
                            MemoEntryKind::Failed => MemoEntryKind::Failed,
                        };
                        if verify {
                            stats.verifications += 1;
                            let t = Instant::now();
                            let ball = engine.build_ball(net, bit);
                            let res = step(&ball);
                            stats.eval_ns += t.elapsed().as_nanos() as u64;
                            let agrees = match (&res, &kind) {
                                (Ok(MemoStep::Done(a)), MemoEntryKind::Done(b)) => a == b,
                                (Ok(MemoStep::Expand(ra)), MemoEntryKind::Expand(rb)) => ra == rb,
                                (Err(_), MemoEntryKind::Failed) => true,
                                _ => false,
                            };
                            if !agrees {
                                return Err(NotOrderInvariant {
                                    key: engine.canonical_key(bit),
                                });
                            }
                        }
                        match kind {
                            MemoEntryKind::Done(out) => {
                                outs[v.index() - base] = Some(out);
                                per_node[v.index() - base] = r;
                            }
                            MemoEntryKind::Expand(r2) => next.push((bit, r, r2)),
                            MemoEntryKind::Failed => {
                                failed.push(v.index());
                                per_node[v.index() - base] = r;
                            }
                        }
                    }
                    miss => {
                        if matches!(miss, Probe::MissRejected) {
                            stats.fp_rejects += 1;
                        }
                        stats.classes += 1;
                        let t = Instant::now();
                        let ball = engine.build_ball(net, bit);
                        let res = step(&ball);
                        stats.eval_ns += t.elapsed().as_nanos() as u64;
                        let key = engine.canonical_key(bit);
                        let kind = match res {
                            Ok(MemoStep::Done(out)) => {
                                outs[v.index() - base] = Some(out.clone());
                                per_node[v.index() - base] = r;
                                MemoEntryKind::Done(out)
                            }
                            Ok(MemoStep::Expand(r2)) => {
                                assert!(
                                    r2 > r,
                                    "MemoStep::Expand must strictly increase the radius"
                                );
                                next.push((bit, r, r2));
                                MemoEntryKind::Expand(r2)
                            }
                            Err(_) => {
                                failed.push(v.index());
                                per_node[v.index() - base] = r;
                                MemoEntryKind::Failed
                            }
                        };
                        // The inserting node is the class's first member.
                        let members = u32::from(assign.is_some());
                        let id = memo.insert(
                            fp,
                            key,
                            MemoEntry {
                                kind,
                                hits: 0,
                                id: 0,
                                members,
                            },
                        );
                        if let Some(assign) = assign.as_deref_mut() {
                            assign[v.index() - base].push((fp, id));
                        }
                    }
                }
            }
        }
        active.clear();
        std::mem::swap(&mut active, &mut next);
    }
    Ok(())
}

/// Replays one node's full ladder *without* the memo to regenerate its
/// exact error — the payload addresses this node, so it cannot be shared
/// across the class. If the replay unexpectedly succeeds (or stalls) where
/// its class failed, the step is not order-invariant.
pub(crate) fn memo_first_error<In: Clone, Out, E: From<NotOrderInvariant>>(
    net: &Network<In>,
    v: NodeId,
    initial_radius: usize,
    input_tag: &impl Fn(&In, &mut Vec<u64>),
    step: &impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
    scratch: &mut Scratch,
    cscratch: &mut CanonScratch,
) -> E {
    let g = net.graph();
    let mut members = BallMembers::gather(g, v, initial_radius, scratch);
    loop {
        let ball = members.build_current(net, scratch);
        match step(&ball) {
            Err(e) => return e,
            Ok(MemoStep::Expand(r)) if r > members.radius() => members.expand(g, r, scratch),
            _ => {
                let key = key_of_members(
                    net,
                    members.members(),
                    members.radius(),
                    |u| scratch.current_local(u),
                    input_tag,
                    cscratch,
                );
                return NotOrderInvariant { key }.into();
            }
        }
    }
}

/// What one [`memo_pass`] hands back: its slots, its sealed class memo,
/// and the conflict that stopped it, if any.
pub(crate) struct MemoPass<Out> {
    pub(crate) run: ShardRun<Out>,
    pub(crate) memo: ShardMemo<Out>,
    pub(crate) conflict: Option<NotOrderInvariant>,
}

/// The one memo tile loop every memoized decode runs: the ladders of
/// `centers`, in order and in tiles of [`TILE_WIDTH`], against a fresh
/// class memo and shell engine. Output and radius slots cover the node
/// range `slots` (indexed from its start). The pass stops at the first
/// conflict.
///
/// A monolithic decode is one pass over every node in BFS order, a
/// parallel one a pass per contiguous chunk, and training a sealed table
/// ([`ShardMemo::train`]) one pass over every node.
pub(crate) fn memo_pass<In: Clone, Out: Clone + PartialEq, E>(
    net: &Network<In>,
    centers: &[NodeId],
    slots: Range<usize>,
    initial_radius: usize,
    input_tag: &impl Fn(&In, &mut Vec<u64>),
    step: &impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
) -> MemoPass<Out> {
    let mut run = ShardRun {
        outs: std::iter::repeat_with(|| None).take(slots.len()).collect(),
        per_node: vec![0; slots.len()],
        failed: Vec::new(),
        stats: MemoStats::default(),
    };
    let mut memo: ClassMemo<Out> = ClassMemo::default();
    let mut engine = ShellEngine::new(net, input_tag);
    let mut conflict = None;
    for tile in centers.chunks(TILE_WIDTH) {
        if let Err(c) = memo_run_tile(
            net,
            tile,
            slots.start,
            initial_radius,
            input_tag,
            step,
            &mut memo,
            &mut engine,
            &mut run.stats,
            &mut run.failed,
            &mut run.outs,
            &mut run.per_node,
            None,
        ) {
            conflict = Some(c);
            break;
        }
    }
    MemoPass {
        run,
        memo: ShardMemo { memo },
        conflict,
    }
}

/// Ends a memo decode whose slots cover every node: the smallest-index
/// failed node's own error, replayed on the network `replay_net` returns
/// ([`memo_first_error`]), or else every node's output.
pub(crate) fn memo_finish<In, Out, E, N>(
    run: ShardRun<Out>,
    replay_net: impl FnOnce() -> N,
    initial_radius: usize,
    input_tag: &impl Fn(&In, &mut Vec<u64>),
    step: &impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone,
    E: From<NotOrderInvariant>,
    N: Borrow<Network<In>>,
{
    let n = run.outs.len();
    if let Some(&i) = run.failed.iter().min() {
        let net = replay_net();
        let net = net.borrow();
        assert_eq!(net.graph().n(), n, "replay network covers the instance");
        let mut scratch = Scratch::new(n);
        let mut cscratch = CanonScratch::new();
        return Err(memo_first_error(
            net,
            NodeId::from_index(i),
            initial_radius,
            input_tag,
            step,
            &mut scratch,
            &mut cscratch,
        ));
    }
    let outs = run
        .outs
        .into_iter()
        .map(|o| o.expect("a run without failures fills every node's slot"))
        .collect();
    Ok((outs, RoundStats::from_per_node(run.per_node)))
}

fn run_memo_seq<In: Clone, Out: Clone + PartialEq, E: From<NotOrderInvariant>>(
    net: &Network<In>,
    initial_radius: usize,
    input_tag: impl Fn(&In, &mut Vec<u64>),
    step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
) -> Result<(Vec<Out>, RoundStats), E> {
    let g = net.graph();
    // BFS visit order keeps consecutive tiles spatially coherent, so one
    // shared frontier sweep covers 64 overlapping balls at once.
    let pass = memo_pass(
        net,
        &bfs_visit_order(g),
        0..g.n(),
        initial_radius,
        &input_tag,
        &step,
    );
    flush_memo_stats(&pass.run.stats);
    if let Some(c) = pass.conflict {
        return Err(c.into());
    }
    memo_finish(pass.run, || net, initial_radius, &input_tag, &step)
}

fn run_memo_par<In, Out, E>(
    net: &Network<In>,
    threads: usize,
    initial_radius: usize,
    input_tag: &(impl Fn(&In, &mut Vec<u64>) + Sync),
    step: &(impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E> + Sync),
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Clone + PartialEq + Send,
    E: From<NotOrderInvariant> + Send,
{
    let n = net.graph().n();
    // One pass per chunk, replay-merged below in chunk order.
    let passes = fan_out(chunk_ranges(n, threads), |range| {
        let centers: Vec<NodeId> = range.clone().map(NodeId::from_index).collect();
        memo_pass(net, &centers, range, initial_radius, input_tag, step)
    });
    let mut run = ShardRun {
        outs: Vec::with_capacity(n),
        per_node: Vec::with_capacity(n),
        failed: Vec::new(),
        stats: MemoStats::default(),
    };
    for pass in &passes {
        run.stats.accumulate(&pass.run.stats);
    }
    flush_memo_stats(&run.stats);
    if let Some(c) = passes.iter().find_map(|p| p.conflict.clone()) {
        return Err(c.into());
    }
    // A key two workers resolved differently is exactly a conflict the
    // sequential safety net would have caught — report it instead of
    // returning schedule-dependent outputs.
    let mut merge = MemoMerge::new();
    for pass in passes {
        run.outs.extend(pass.run.outs);
        run.per_node.extend(pass.run.per_node);
        run.failed.extend(pass.run.failed);
        merge.absorb(pass.memo)?;
    }
    memo_finish(run, || net, initial_radius, input_tag, step)
}

/// Memoized executor for **order-invariant** adaptive-radius algorithms:
/// runs `step` once per distinct canonical class of advice-labeled balls
/// and shares the output across every node in the class.
///
/// Nodes are processed in BFS order, in tiles of up to 64 centers that
/// share a *single* shell-indexed frontier sweep: one bitset BFS stamps
/// per-center distance shells for the whole tile at once, and each
/// center's [`CanonicalKey`] (inputs folded in through `input_tag`, which
/// must be prefix-free — fixed arity or self-delimiting) is serialized
/// incrementally shell by shell. A commutative pre-fingerprint of the key
/// buckets the memo, so most misses are rejected before any exact word
/// comparison. The ladder `step` prescribes: [`MemoStep::Done`] finishes
/// the node, [`MemoStep::Expand`] extends that center's sweep and re-keys
/// only the new shells.
///
/// Outputs, per-node radii, and error choice are identical to running the
/// equivalent `ctx.ball(r)` ladder under [`run_local`] — provided `step`
/// is order-invariant. That premise is *checked*, not trusted: memo
/// entries are re-evaluated against fresh balls on a geometric schedule
/// of their reuses, and any disagreement (including cross-shard
/// disagreement in the parallel variants) aborts with
/// [`NotOrderInvariant`] instead of returning wrong answers.
///
/// # Errors
///
/// [`NotOrderInvariant`] if two isomorphic views produced different step
/// results.
///
/// # Panics
///
/// Panics if `step` requests [`MemoStep::Expand`] to a radius that does
/// not strictly increase.
pub fn run_local_memo<In: Clone, Out: Clone + PartialEq>(
    net: &Network<In>,
    initial_radius: usize,
    input_tag: impl Fn(&In, &mut Vec<u64>),
    step: impl Fn(&Ball<In>) -> MemoStep<Out>,
) -> Result<(Vec<Out>, RoundStats), NotOrderInvariant> {
    run_memo_seq::<_, _, NotOrderInvariant>(net, initial_radius, input_tag, |ball| Ok(step(ball)))
}

/// [`run_local_memo`] for fallible steps. Failures are memoized as facts
/// ("this class fails") and the concrete error of the smallest-index
/// failing node is regenerated by replaying that node without the memo,
/// so node-addressed payloads match [`run_local_fallible`] exactly.
///
/// # Errors
///
/// The first per-node error in node-index order, or
/// [`NotOrderInvariant`] (through `E: From<NotOrderInvariant>`) if the
/// step is not order-invariant.
pub fn run_local_memo_fallible<In: Clone, Out: Clone + PartialEq, E: From<NotOrderInvariant>>(
    net: &Network<In>,
    initial_radius: usize,
    input_tag: impl Fn(&In, &mut Vec<u64>),
    step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
) -> Result<(Vec<Out>, RoundStats), E> {
    run_memo_seq(net, initial_radius, input_tag, step)
}

/// Parallel [`run_local_memo`] with an explicit worker count. Workers keep
/// *independent* class memos over contiguous node ranges (no shared-map
/// contention); after the join the chunks are replay-merged and any key
/// two workers resolved differently aborts with [`NotOrderInvariant`].
/// For an order-invariant step the outputs are bit-identical to the
/// sequential run for every `threads` value.
///
/// # Errors
///
/// [`NotOrderInvariant`] if two isomorphic views produced different step
/// results.
pub fn run_local_memo_par_with<In, Out>(
    net: &Network<In>,
    threads: usize,
    initial_radius: usize,
    input_tag: impl Fn(&In, &mut Vec<u64>) + Sync,
    step: impl Fn(&Ball<In>) -> MemoStep<Out> + Sync,
) -> Result<(Vec<Out>, RoundStats), NotOrderInvariant>
where
    In: Clone + Send + Sync,
    Out: Clone + PartialEq + Send,
{
    let step = |ball: &Ball<In>| Ok(step(ball));
    if worth_fanning_out(net.graph().n(), threads) {
        run_memo_par::<_, _, NotOrderInvariant>(net, threads, initial_radius, &input_tag, &step)
    } else {
        run_memo_seq::<_, _, NotOrderInvariant>(net, initial_radius, input_tag, step)
    }
}

/// Parallel [`run_local_memo_fallible`] with automatic worker count.
///
/// # Errors
///
/// The first per-node error in node-index order, or
/// [`NotOrderInvariant`] through `E: From<NotOrderInvariant>`.
pub fn run_local_memo_fallible_par<In, Out, E>(
    net: &Network<In>,
    initial_radius: usize,
    input_tag: impl Fn(&In, &mut Vec<u64>) + Sync,
    step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Clone + PartialEq + Send,
    E: From<NotOrderInvariant> + Send,
{
    run_local_memo_fallible_par_with(
        net,
        effective_parallelism(net.graph().n()),
        initial_radius,
        input_tag,
        step,
    )
}

/// [`run_local_memo_fallible_par`] with an explicit worker count; see
/// [`run_local_memo_par_with`] for the sharding and merge contract.
///
/// # Errors
///
/// The first per-node error in node-index order, or
/// [`NotOrderInvariant`] through `E: From<NotOrderInvariant>`.
pub fn run_local_memo_fallible_par_with<In, Out, E>(
    net: &Network<In>,
    threads: usize,
    initial_radius: usize,
    input_tag: impl Fn(&In, &mut Vec<u64>) + Sync,
    step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Clone + PartialEq + Send,
    E: From<NotOrderInvariant> + Send,
{
    if worth_fanning_out(net.graph().n(), threads) {
        run_memo_par(net, threads, initial_radius, &input_tag, &step)
    } else {
        run_memo_seq(net, initial_radius, input_tag, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn local_min_uid_within_radius() {
        let net = Network::with_identity_ids(generators::cycle(9));
        let (outs, stats) = run_local(&net, |ctx| {
            let ball = ctx.ball(2);
            ball.graph()
                .nodes()
                .map(|v| ball.uid(v))
                .min()
                .expect("nonempty ball")
        });
        assert_eq!(stats.rounds(), 2);
        assert_eq!(outs[0], 1); // sees uids {8,9,1,2,3} -> 1
        assert_eq!(outs[4], 3); // sees uids {3,4,5,6,7} -> 3
    }

    #[test]
    fn fallible_run_propagates_error() {
        let net = Network::with_identity_ids(generators::path(4));
        let res: Result<(Vec<()>, _), String> = run_local_fallible(&net, |ctx| {
            if ctx.uid() == 3 {
                Err("boom".to_string())
            } else {
                Ok(())
            }
        });
        assert_eq!(res.unwrap_err(), "boom");
    }

    #[test]
    fn stats_sequential_composition() {
        let net = Network::with_identity_ids(generators::path(4));
        let (_, s1) = run_local(&net, |ctx| ctx.ball(2).n());
        let (_, s2) = run_local(&net, |ctx| ctx.ball(3).n());
        let s = s1.sequential(&s2);
        assert_eq!(s.rounds(), 5);
        assert_eq!(s.rounds_at(NodeId(0)), 5);
    }

    #[test]
    fn mean_rounds() {
        let net = Network::with_identity_ids(generators::path(2));
        let (_, stats) = run_local(&net, |ctx| if ctx.uid() == 1 { ctx.ball(4).n() } else { 0 });
        assert_eq!(stats.rounds(), 4);
        assert!((stats.mean_rounds() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_radius_stops_early() {
        // Nodes expand until they see an endpoint of the path.
        let net = Network::with_identity_ids(generators::path(12));
        let (_, stats) = run_local(&net, |ctx| {
            let mut r = 1;
            loop {
                let ball = ctx.ball(r);
                let sees_endpoint = ball.graph().nodes().any(|v| ball.global_degree(v) == 1);
                if sees_endpoint {
                    return r;
                }
                r += 1;
            }
        });
        assert_eq!(stats.rounds_at(NodeId(0)), 1);
        assert_eq!(stats.rounds(), 5); // middle nodes reach an endpoint in 5
    }

    #[test]
    fn zero_stats_are_sequential_identity() {
        let net = Network::with_identity_ids(generators::cycle(6));
        let (_, s) = run_local(&net, |ctx| ctx.ball(2).n());
        assert_eq!(s.sequential(&RoundStats::zero(6)), s);
        assert_eq!(RoundStats::zero(6).sequential(&s), s);
        assert_eq!(RoundStats::zero(0).rounds(), 0);
    }

    #[test]
    fn parallel_matches_sequential_on_adaptive_algo() {
        let net = Network::with_identity_ids(generators::path(40));
        let algo = |ctx: &NodeCtx| {
            let mut r = 1;
            loop {
                let ball = ctx.ball(r);
                if ball.graph().nodes().any(|v| ball.global_degree(v) == 1) {
                    return (r, ball.n());
                }
                r += 1;
            }
        };
        let seq = run_local(&net, algo);
        for threads in [1, 2, 5] {
            assert_eq!(run_local_par_with(&net, threads, algo), seq);
        }
        let cache = ViewCache::for_network(&net);
        assert_eq!(run_local_cached(&net, &cache, algo), seq);
        assert_eq!(run_local_par_cached(&net, &cache, 3, algo), seq);
        assert!(cache.stats().hits > 0, "second run should hit the cache");
    }

    #[test]
    fn parallel_error_is_first_in_node_order() {
        // Nodes 7, 3, and 31 all fail; every schedule must report node 3's
        // error, like the sequential run does.
        let net = Network::with_identity_ids(generators::cycle(40));
        let algo = |ctx: &NodeCtx| {
            let idx = ctx.node().index();
            if idx == 7 || idx == 3 || idx == 31 {
                Err(format!("node {idx} failed"))
            } else {
                Ok(ctx.ball(1).n())
            }
        };
        let seq_err = run_local_fallible(&net, algo).unwrap_err();
        assert_eq!(seq_err, "node 3 failed");
        for threads in [1, 2, 4, 8, 40] {
            assert_eq!(
                run_local_fallible_par_with(&net, threads, algo).unwrap_err(),
                seq_err,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn thread_override_takes_precedence() {
        set_thread_override(Some(3));
        assert_eq!(
            effective_parallelism(1_000_000),
            if cfg!(feature = "parallel") { 3 } else { 1 }
        );
        set_thread_override(None);
        // Below the small-n cutoff only an explicit `LAD_THREADS` applies.
        let env = if cfg!(feature = "parallel") {
            env_threads()
        } else {
            None
        };
        assert_eq!(effective_parallelism(4), env.unwrap_or(1));
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        assert_eq!(
            par_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * x
            }),
            expect
        );
        for threads in [1, 2, 3, 8] {
            set_thread_override(Some(threads));
            assert_eq!(par_map(&items, |_, &x| x * x), expect, "threads {threads}");
        }
        set_thread_override(None);
        let empty: Vec<usize> = Vec::new();
        assert_eq!(par_map(&empty, |_, &x: &usize| x), empty);
    }

    #[test]
    fn memo_stats_reconcile() {
        // The only lib test touching the process-wide memo counters, so the
        // snapshot below observes exactly this run. Ladder: everyone expands
        // 1 -> 2 and then reports the ball size, giving both Expand and Done
        // rungs, plenty of hits, and (on a torus) very few classes.
        memo_stats_reset();
        let net = Network::with_identity_ids(generators::grid2d(8, 8, true));
        let (outs, _) = run_local_memo(
            &net,
            1,
            |_, _| {},
            |ball| {
                if ball.radius() < 2 {
                    MemoStep::Expand(2)
                } else {
                    MemoStep::Done(ball.n())
                }
            },
        )
        .expect("order-invariant step");
        assert!(outs.iter().all(|&k| k == 13));
        let s = memo_stats();
        // Every probe is either a hit or a new class — a fingerprint-
        // rejected miss is *not* double-counted as both.
        assert_eq!(s.lookups, s.hits + s.classes);
        assert!(s.fp_rejects <= s.classes, "rejects are a subset of misses");
        assert!(s.classes >= 1 && s.hits > 0);
        // The two gather phases partition the gather total exactly.
        assert_eq!(s.gather_ns, s.sweep_ns + s.key_ns);
        assert!(s.verifications >= 1);
    }

    #[test]
    fn empty_network_runs_everywhere() {
        let net: Network<()> =
            Network::with_identity_ids(lad_graph::builder::GraphBuilder::new(0).build());
        let (outs, stats) = run_local_par_with(&net, 4, |ctx| ctx.uid());
        assert!(outs.is_empty());
        assert_eq!(stats, RoundStats::zero(0));
    }
}
