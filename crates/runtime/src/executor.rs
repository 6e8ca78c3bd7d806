//! Executing a LOCAL algorithm at every node and measuring its locality.
//!
//! # Entry points
//!
//! Every run but the reference oracle goes through one spec, [`Run`]. Its
//! methods sit on one fallible per-node core and produce *identical*
//! outputs and [`RoundStats`] whatever the spec says — a LOCAL algorithm
//! is a pure function of each node's view, so scheduling cannot change
//! results. The spec only changes wall-clock cost:
//!
//! | call | runs | views |
//! |---|---|---|
//! | [`run_local`], [`run_local_fallible`] | a [`NodeCtx`] algorithm, sequentially (the reference) | fresh BFS per request |
//! | [`Run::nodes`], [`Run::try_nodes`] | a [`NodeCtx`] algorithm over contiguous chunks across threads | one BFS scratch per chunk |
//! | [`Run::ladder`] | a [`MemoStep`] ladder per node, through [`Run::try_nodes`] | as [`Run::try_nodes`] |
//! | [`Run::map`], [`Run::map_with`] | a closure per item, over contiguous chunks | — |
//!
//! Fallible runs propagate the first per-node error in node-index order —
//! also independent of the schedule. Nothing is recorded process-wide, so
//! two runs at once never see each other's state.
//!
//! # The class memo
//!
//! A decode's advice size and round count do not depend on how nodes are
//! scheduled, so every decode climbs each node's ladder on its own. The
//! class memo — one step evaluation per canonical class of input-labeled
//! balls, for *order-invariant* steps — lives where verdicts are kept:
//! [`crate::ClassStore::train`] runs one pass for the persistent class
//! store, and [`crate::ChurnMemoLocal`] keeps one warm across edit
//! batches. Both share this module's pass (`memo_run`), which keys one
//! ball at a time with the same canonical form
//! [`crate::canonicalize_tagged_with`] computes, and its
//! [`NotOrderInvariant`] safety net.
//!
//! Thread count resolution is described at [`effective_parallelism`]. The
//! differential harnesses in `crates/runtime/tests/` (`equivalence.rs`,
//! `memo.rs`) pin down the equivalence of all paths bit for bit.

use crate::ball::{Ball, BallMembers, Scratch};
use crate::canonical::{key_of_members, CanonScratch, CanonicalKey};
use crate::ctx::NodeCtx;
use crate::network::Network;
use crate::store::ClassVerdict;
use lad_graph::{Graph, NodeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

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

/// Networks smaller than this run sequentially when the run does not fix
/// a thread count — fan-out overhead would dominate.
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

/// The number of chunks a [`Run`] that sets no thread count splits an
/// `n`-node network into, resolved in order:
///
/// 1. the `LAD_THREADS` environment variable, if a positive integer;
/// 2. `1` when `n` is too small to amortize a fan-out;
/// 3. [`std::thread::available_parallelism`].
///
/// [`Run::threads`] replaces all three. The chunks run on the
/// process-wide worker pool (`host_threads − 1` workers plus the calling
/// thread), so the count may exceed the pool.
pub fn effective_parallelism(n: usize) -> usize {
    if let Some(t) = env_threads() {
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

/// How to run a LOCAL algorithm: a per-call spec, and the one way to run
/// anything but the [`run_local`] reference.
///
/// Its one setting, [`Run::threads`], is the chunk count. Unset, per-node
/// runs resolve it as [`effective_parallelism`] and [`Run::map`] from
/// `LAD_THREADS` or the host. It changes a run's cost, never its result,
/// and it is not global: runs in one process at once keep their own.
///
/// # Example
///
/// ```
/// use lad_graph::generators;
/// use lad_runtime::{run_local, Network, Run};
///
/// let net = Network::with_identity_ids(generators::cycle(10));
/// let sizes = |ctx: &lad_runtime::NodeCtx| ctx.ball(2).n();
/// assert_eq!(Run::default().threads(3).nodes(&net, sizes), run_local(&net, sizes));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Run {
    threads: Option<usize>,
}

impl Run {
    /// Splits every run into `threads` chunks (`0` counts as 1; one chunk
    /// is a sequential pass).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The number of chunks a per-node run over `n` nodes splits into.
    pub fn thread_count(&self, n: usize) -> usize {
        self.threads.unwrap_or_else(|| effective_parallelism(n))
    }

    /// Applies `f` to each item across worker threads, returning outputs
    /// in item order — the fan-out the centralized encoders use for
    /// per-trail, per-cluster and per-network work.
    ///
    /// Items are split into contiguous chunks run on the process-wide
    /// worker pool, so a chunk's items run in index order and outputs are
    /// reassembled in chunk order: results never depend on scheduling.
    /// There is no minimum item count, unlike per-node runs — encoder work
    /// items are coarse (a whole Euler trail, a whole training network).
    pub fn map<T, U>(&self, items: &[T], f: impl Fn(usize, &T) -> U + Sync) -> Vec<U>
    where
        T: Sync,
        U: Send,
    {
        self.map_with(items, || (), |(), i, t| f(i, t))
    }

    /// [`Run::map`] with per-chunk mutable state: `init` runs once per
    /// chunk and every `f` call in that chunk receives the same `&mut`
    /// state. This is how reusable workspaces ([`crate::CanonScratch`],
    /// BFS scratch) thread through fan-outs *explicitly* — a chunk may run
    /// on any pool worker or on the caller, so thread-local storage would
    /// tie a workspace to whichever thread ran it.
    pub fn map_with<T, U, S>(
        &self,
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
        let threads = self
            .threads
            .or_else(env_threads)
            .unwrap_or_else(host_threads)
            .min(n.max(1));
        if threads <= 1 {
            return map_range(0..n);
        }
        crate::pool::map(chunk_ranges(n, threads), map_range)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Runs `algo` at every node: the same outputs and [`RoundStats`] as
    /// [`run_local`], bit for bit, over [`Run::thread_count`] contiguous
    /// node ranges on the worker pool.
    pub fn nodes<In: Clone + Send + Sync, Out: Send>(
        &self,
        net: &Network<In>,
        algo: impl Fn(&NodeCtx<In>) -> Out + Sync,
    ) -> (Vec<Out>, RoundStats) {
        match self.try_nodes(net, |ctx| Ok::<_, Infallible>(algo(ctx))) {
            Ok(ran) => ran,
            Err(never) => match never {},
        }
    }

    /// [`Run::nodes`] for fallible algorithms: the same success results
    /// and first-error choice as [`run_local_fallible`].
    ///
    /// Each chunk stops at its first error and the first erroring chunk
    /// wins, so the error is the smallest erroring node index's — per-node
    /// functions are independent, so that is exactly the error a
    /// sequential pass returns.
    ///
    /// # Errors
    ///
    /// The first per-node error in node-index order.
    pub fn try_nodes<In: Clone + Send + Sync, Out: Send, E: Send>(
        &self,
        net: &Network<In>,
        algo: impl Fn(&NodeCtx<In>) -> Result<Out, E> + Sync,
    ) -> Result<(Vec<Out>, RoundStats), E> {
        let n = net.graph().n();
        let threads = self.thread_count(n);
        if threads <= 1 || n <= 1 {
            let (outs, per_node) = run_range(net, 0..n, &algo)?;
            return Ok((outs, RoundStats { per_node }));
        }
        let chunks = crate::pool::map(chunk_ranges(n, threads), |range| {
            run_range(net, range, &algo)
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

    /// Climbs an adaptive-radius ladder at every node: `step` sees the
    /// ball at `initial_radius` and either finishes ([`MemoStep::Done`])
    /// or asks for a strictly larger view ([`MemoStep::Expand`]). Each
    /// node climbs on its own, like [`Run::try_nodes`], so outputs,
    /// per-node radii and error choice equal those of the same ladder
    /// climbed under [`run_local_fallible`].
    ///
    /// # Errors
    ///
    /// The first per-node error in node-index order.
    ///
    /// # Panics
    ///
    /// Panics if `step` requests [`MemoStep::Expand`] to a radius that
    /// does not strictly increase.
    pub fn ladder<In: Clone + Send + Sync, Out: Send, E: Send>(
        &self,
        net: &Network<In>,
        initial_radius: usize,
        step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E> + Sync,
    ) -> Result<(Vec<Out>, RoundStats), E> {
        self.try_nodes(net, |ctx| {
            let mut r = initial_radius;
            loop {
                match step(&ctx.ball(r))? {
                    MemoStep::Done(out) => return Ok(out),
                    MemoStep::Expand(next) => {
                        assert!(
                            next > r,
                            "MemoStep::Expand must strictly increase the radius"
                        );
                        r = next;
                    }
                }
            }
        })
    }
}

/// Runs `algo` independently at every node, returning per-node outputs and
/// the measured locality.
///
/// This is the *reference* executor: one fresh BFS per view request, no
/// sharing, no threads. [`Run::nodes`] is the drop-in replacement with
/// identical results.
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

/// Runs `algo` at the nodes of `range` in index order, backed by a
/// range-local scratch; stops at the range's first error. Returns the
/// outputs and per-node radii.
fn run_range<In: Clone, Out, E>(
    net: &Network<In>,
    range: Range<usize>,
    algo: &impl Fn(&NodeCtx<In>) -> Result<Out, E>,
) -> Result<(Vec<Out>, Vec<usize>), E> {
    let scratch = RefCell::new(Scratch::new(net.graph().n()));
    let mut outs = Vec::with_capacity(range.len());
    let mut per_node = Vec::with_capacity(range.len());
    for i in range {
        let ctx = NodeCtx::with_scratch(net, NodeId::from_index(i), &scratch);
        outs.push(algo(&ctx)?);
        per_node.push(ctx.rounds_used());
    }
    Ok((outs, per_node))
}

// ---------------------------------------------------------------------------
// The class memo: one step evaluation per canonical isomorphism class.
// ---------------------------------------------------------------------------

/// One rung of a decode ladder (see [`Run::ladder`]).
///
/// The step function inspects a ball and either finishes or asks for a
/// strictly larger view — the same contract as an adaptive-radius
/// `ctx.ball(r)` loop under [`run_local`], reified as data so a class
/// memo can store the decision per canonical class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoStep<Out> {
    /// The node's output is fully determined by the current view.
    Done(Out),
    /// The view is inconclusive; regather at this (strictly larger)
    /// radius and evaluate again.
    Expand(usize),
}

/// Exact counters of one class-memo pass (a churn session's opening
/// decode or one of its repair batches).
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

pub(crate) struct MemoEntry<Out> {
    /// The class's verdict at its rung. A [`ClassVerdict::Failed`] class
    /// shares only the *fact* of failure (error payloads address specific
    /// nodes); the actual error is regenerated for the smallest-index
    /// failing node at the end ([`memo_first_error`]), matching
    /// [`run_local_fallible`]'s first-error-in-node-order contract.
    pub(crate) kind: ClassVerdict<Out>,
    /// Reuse count; drives the geometric verification schedule.
    pub(crate) hits: u32,
    /// Identity stable across bucket changes, so long-lived sessions can
    /// refer to a class without holding its key. Assigned by
    /// [`ClassMemo::insert`].
    pub(crate) id: u64,
    /// How many nodes currently rely on this class. Only maintained by
    /// passes that carry an assignment log into [`memo_run`] (the churn
    /// session); training leaves it at zero.
    pub(crate) members: u32,
}

/// Network-wide BFS visit order, restarting at the smallest unvisited
/// node per component. Consecutive nodes' balls overlap in all but an
/// O(r·Δ) frontier, so gathering stays cache-hot and new canonical
/// classes surface early (seams first, then a long run of hits).
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

/// Class memo: classes bucketed by their key's cached fold, exact keys
/// compared word for word within a bucket (a fold collision costs one
/// extra comparison, never a wrong match).
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

/// A stable reference to one memo class: `(key fold, entry id)`. Used by
/// the churn session's per-node assignment chains.
pub(crate) type ClassRef = (u64, u64);

impl<Out> ClassMemo<Out> {
    /// The entry of `key`'s class, if the memo holds it.
    fn get_mut(&mut self, key: &CanonicalKey) -> Option<&mut MemoEntry<Out>> {
        self.buckets
            .get_mut(&key.fold())?
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, entry)| entry)
    }

    /// Inserts a new class and returns its stable id.
    fn insert(&mut self, key: CanonicalKey, mut entry: MemoEntry<Out>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        entry.id = id;
        self.buckets
            .entry(key.fold())
            .or_default()
            .push((key, entry));
        id
    }

    /// Drops one membership from the class `(fold, id)` refers to. When
    /// the class loses its last member it is **retired**: the entry (and
    /// its bucket, if emptied) is removed, so a later probe of the same
    /// structure is a fresh miss that re-evaluates the step. Returns
    /// whether the class was retired.
    ///
    /// # Panics
    ///
    /// Panics if the reference is dangling or the class has no members —
    /// both mean the caller's assignment chains are out of sync.
    pub(crate) fn release(&mut self, (fold, id): ClassRef) -> bool {
        let bucket = self
            .buckets
            .get_mut(&fold)
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
            self.buckets.remove(&fold);
        }
        true
    }

    /// Number of live classes.
    pub(crate) fn class_count(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Total membership across all classes (zero for a trained table,
    /// which logs no assignments).
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

/// A conflict the class memo's safety net found: one canonical view, two
/// step results. The step is not order-invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotOrderInvariant {
    /// The offending canonical view.
    pub key: CanonicalKey,
}

impl fmt::Display for NotOrderInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "base algorithm is not order-invariant: one canonical view produced two outputs"
        )
    }
}

impl std::error::Error for NotOrderInvariant {}

/// Runs the decode ladders of `centers`, one center at a time and in
/// order, against a class memo. Each rung gathers the center's BFS
/// membership (growing it in place on `Expand`) and keys it with
/// [`key_of_members`]; only a miss materializes the ball and evaluates the
/// step, whose verdict is then shared with the whole class. Every entry is
/// re-evaluated on a geometric schedule of its reuses (1st, 2nd, 4th, 8th,
/// … hit) as a differential safety net: a step whose output is *not* a
/// function of the canonical view is reported as [`NotOrderInvariant`]
/// instead of silently decoding wrong. The pass stops at the first
/// conflict.
///
/// Output and radius slots are indexed by node; failing nodes are
/// appended to `failed`. Returns the pass's counters.
///
/// # Panics
///
/// Panics if `step` requests [`MemoStep::Expand`] to a radius that does
/// not strictly increase.
#[allow(clippy::too_many_arguments)]
pub(crate) fn memo_run<In: Clone, Out: Clone + PartialEq, E>(
    net: &Network<In>,
    centers: &[NodeId],
    initial_radius: usize,
    input_tag: &impl Fn(&In, &mut Vec<u64>),
    step: &impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
    memo: &mut ClassMemo<Out>,
    failed: &mut Vec<usize>,
    outs: &mut [Option<Out>],
    per_node: &mut [usize],
    // When present (the churn session), every class a center confirms or
    // creates — each `Expand` rung plus the final verdict — is appended to
    // `assign[v.index()]` and counted in `MemoEntry::members`, so
    // invalidation can later release exactly what this node pinned.
    mut assign: Option<&mut [Vec<ClassRef>]>,
) -> Result<MemoStats, NotOrderInvariant> {
    let g = net.graph();
    let mut stats = MemoStats::default();
    let mut scratch = Scratch::new(g.n());
    let mut cs = CanonScratch::new();
    for &v in centers {
        let mut members = BallMembers::gather(g, v, initial_radius, &mut scratch);
        loop {
            let r = members.radius();
            let key = key_of_members(net, &members, &scratch, input_tag, &mut cs);
            let fold = key.fold();
            stats.lookups += 1;
            let kind = if let Some(entry) = memo.get_mut(&key) {
                stats.hits += 1;
                entry.hits += 1;
                if let Some(assign) = assign.as_deref_mut() {
                    entry.members += 1;
                    assign[v.index()].push((fold, entry.id));
                }
                let kind = entry.kind.clone();
                if entry.hits.is_power_of_two() {
                    stats.verifications += 1;
                    let agrees = match (step(&members.build_current(net, &mut scratch)), &kind) {
                        (Ok(MemoStep::Done(a)), ClassVerdict::Done(b)) => a == *b,
                        (Ok(MemoStep::Expand(ra)), ClassVerdict::Expand(rb)) => ra == *rb,
                        (Err(_), ClassVerdict::Failed) => true,
                        _ => false,
                    };
                    if !agrees {
                        return Err(NotOrderInvariant { key });
                    }
                }
                kind
            } else {
                stats.classes += 1;
                let kind = match step(&members.build_current(net, &mut scratch)) {
                    Ok(MemoStep::Done(out)) => ClassVerdict::Done(out),
                    Ok(MemoStep::Expand(r2)) => ClassVerdict::Expand(r2),
                    Err(_) => ClassVerdict::Failed,
                };
                // The inserting node is the class's first member.
                let entry = MemoEntry {
                    kind: kind.clone(),
                    hits: 0,
                    id: 0,
                    members: u32::from(assign.is_some()),
                };
                let id = memo.insert(key, entry);
                if let Some(assign) = assign.as_deref_mut() {
                    assign[v.index()].push((fold, id));
                }
                kind
            };
            match kind {
                ClassVerdict::Done(out) => {
                    outs[v.index()] = Some(out);
                    per_node[v.index()] = r;
                    break;
                }
                ClassVerdict::Expand(r2) => {
                    assert!(r2 > r, "MemoStep::Expand must strictly increase the radius");
                    members.expand(g, r2, &mut scratch);
                }
                ClassVerdict::Failed => {
                    failed.push(v.index());
                    per_node[v.index()] = r;
                    break;
                }
            }
        }
        members.recycle(&mut scratch);
    }
    Ok(stats)
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
) -> E {
    let g = net.graph();
    let scratch = &mut Scratch::new(g.n());
    let mut members = BallMembers::gather(g, v, initial_radius, scratch);
    loop {
        let ball = members.build_current(net, scratch);
        match step(&ball) {
            Err(e) => return e,
            Ok(MemoStep::Expand(r)) if r > members.radius() => members.expand(g, r, scratch),
            _ => {
                let key =
                    key_of_members(net, &members, scratch, input_tag, &mut CanonScratch::new());
                return NotOrderInvariant { key }.into();
            }
        }
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
            assert_eq!(Run::default().threads(threads).nodes(&net, algo), seq);
        }
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
                Run::default()
                    .threads(threads)
                    .try_nodes(&net, algo)
                    .unwrap_err(),
                seq_err,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn explicit_threads_take_precedence() {
        assert_eq!(Run::default().threads(3).thread_count(1_000_000), 3);
        // Below the small-n cutoff only an explicit `LAD_THREADS` applies.
        let env = env_threads();
        assert_eq!(Run::default().thread_count(4), env.unwrap_or(1));
        assert_eq!(effective_parallelism(4), env.unwrap_or(1));
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        let run = Run::default();
        assert_eq!(
            run.map(&items, |i, &x| {
                assert_eq!(i, x);
                x * x
            }),
            expect
        );
        for threads in [1, 2, 3, 8] {
            let run = Run::default().threads(threads);
            assert_eq!(run.map(&items, |_, &x| x * x), expect, "threads {threads}");
        }
        let empty: Vec<usize> = Vec::new();
        assert_eq!(run.map(&empty, |_, &x: &usize| x), empty);
    }

    #[test]
    fn memo_stats_reconcile() {
        // Ladder: everyone expands 1 -> 2 and then reports the ball size,
        // giving both Expand and Done rungs, plenty of hits, and (on a
        // torus) very few classes. The counters come from the churn
        // session's own opening decode and repair batch.
        let net = Network::with_identity_ids(generators::grid2d(8, 8, true));
        let step = |ball: &Ball<()>| {
            Ok::<_, NotOrderInvariant>(if ball.radius() < 2 {
                MemoStep::Expand(2)
            } else {
                MemoStep::Done(ball.n())
            })
        };
        let mut session =
            crate::ChurnMemoLocal::new(net, 1, 2, |_, _| {}, step).expect("order-invariant step");
        assert!(session.outputs().iter().all(|&k| k == 13));
        let reconciles = |s: MemoStats, rungs: u64| {
            // Every probe is either a hit or a new class, never both.
            assert_eq!(s.lookups, s.hits + s.classes);
            assert_eq!(s.lookups, rungs, "one lookup per rung per node");
        };
        let opened = session.opening_stats();
        reconciles(opened, 2 * 64);
        assert!(opened.classes >= 1 && opened.hits > 0);
        assert!(opened.verifications >= 1);
        let edits = [lad_graph::mutate::Edit::Remove(NodeId(0), NodeId(1))];
        let report = session
            .apply::<NotOrderInvariant>(&edits)
            .expect("order-invariant step");
        reconciles(report.memo, 2 * report.repaired as u64);
    }

    #[test]
    fn empty_network_runs_everywhere() {
        let net: Network<()> =
            Network::with_identity_ids(lad_graph::builder::GraphBuilder::new(0).build());
        let (outs, stats) = Run::default().threads(4).nodes(&net, |ctx| ctx.uid());
        assert!(outs.is_empty());
        assert_eq!(stats, RoundStats::zero(0));
    }
}
