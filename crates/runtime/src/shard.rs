//! Shard-at-a-time execution on a bounded resident set.
//!
//! Every other executor in this crate assumes the whole instance fits in
//! one address space. This module removes that assumption: the nodes are
//! split into `K` shards, each shard decodes from a [`ShardSlice`] (its
//! interior nodes plus a radius-`T` halo, as a local network), and one
//! driver, [`run_sharded_stream_fallible`], decodes the slices one wave
//! at a time with at most `R` of them alive. Nothing outlives a wave but
//! its interior nodes' outputs and radii, so peak memory is the largest
//! wave of slices plus one output slot per node.
//!
//! The driver asks a provider closure for each slice, exactly once per
//! shard and in schedule order. [`run_sharded_fallible`] is the provider
//! for a resident [`Network`] cut by a [`Partition`]: it builds each
//! shard's [`ShardView`] when the shard's wave starts, so a shard outside
//! the current wave costs nothing. Instances too large to hold at all
//! supply slices generated from the graph family instead
//! (`lad_core::torus_stream`).
//!
//! # Why shard-local replay is sound
//!
//! A LOCAL decoder's output at `v` is a pure function of `v`'s
//! radius-`r` ball. The halo argument (proved in [`lad_graph::shard`])
//! says: inside a view built with halo depth `T`, every ball of radius
//! `r ≤ T − 1` around an *interior* node is bit-identical — graph,
//! distances, degrees, uids, inputs — to the same ball in the full graph.
//! So replaying the decode ladder inside the view produces exactly the
//! global outputs, provided the ladder never climbs past `T − 1`.
//!
//! That proviso is *enforced*, not assumed: the per-shard runner aborts
//! the whole run with a typed [`HaloExceeded`] the moment a
//! [`MemoStep::Expand`] requests a radius beyond the cap. A shard whose
//! members have no edge out of the view (for `K = 1`, or a union of whole
//! components) is complete, and its ladder is uncapped.
//!
//! # Plain slices
//!
//! Every slice climbs each interior node's ladder on its own ball, with
//! no class memo. A per-slice memo starts cold in every slice
//! (fingerprints are engine-local), and pooling its classes across slices
//! needs a table that grows with `K` — the one structure a bounded
//! resident set exists to avoid. Since no slice shares a verdict with
//! another, there is no cross-shard merge to check and outputs cannot
//! depend on the schedule; the monolithic memo executors keep the
//! [`NotOrderInvariant`] merge and the geometric re-verification that
//! class sharing needs. First-error behavior matches them too: failed
//! nodes are collected globally and the smallest-index one replays its
//! ladder on the **full** network (`memo_first_error`'s discipline), so
//! error payloads are bit-identical to `run_local_memo_fallible`.
//!
//! # Messaging
//!
//! [`ShardedTransport`] adapts any [`Transport`] to the sharded regime:
//! intra-shard messages are routed directly, cross-shard messages are
//! queued in per-`(src_shard, dst_shard)` mailboxes and flushed when the
//! schedule switches shards. Delivery is bit-identical to the inner
//! transport — each inbox slot has exactly one sender, so re-routing is a
//! permutation of the delivery order, which the round-synchronous model
//! cannot observe. Fault plans therefore compose unchanged.

use crate::ball::{Ball, BallMembers, Scratch};
use crate::canonical::CanonicalKey;
use crate::executor::{
    bfs_visit_order, memo_finish, memo_kind_eq, memo_pass, par_map, ClassMemo, KeyHashMap,
    MemoEntryKind, MemoStats, MemoStep, RoundStats,
};
use crate::lookup::NotOrderInvariant;
use crate::network::Network;
use crate::transport::{FaultStats, Transport};
use lad_graph::{Graph, IdAssignment, NodeId, Partition, ShardView};
use std::borrow::Borrow;
use std::fmt;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// Halo violations
// ---------------------------------------------------------------------------

/// A decode ladder asked for a radius its shard's halo cannot serve.
///
/// Shard views are built with halo depth `T`; balls of radius up to
/// `T − 1` around interior nodes are exact, anything deeper would read
/// truncated neighborhoods. Rather than silently decoding from a wrong
/// ball, the sharded runners abort with this error — rebuild the views
/// with a deeper halo (or fewer shards) and rerun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloExceeded {
    /// Shard whose ladder outgrew its view.
    pub shard: usize,
    /// Halo depth the views were built with (the ladder may use up to
    /// `halo_radius − 1`).
    pub halo_radius: usize,
    /// The radius the step requested.
    pub requested: usize,
}

impl fmt::Display for HaloExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}: decode ladder requested radius {} but the halo depth {} only serves \
             radii up to {}; rebuild with a deeper halo",
            self.shard,
            self.requested,
            self.halo_radius,
            self.halo_radius.saturating_sub(1),
        )
    }
}

impl std::error::Error for HaloExceeded {}

// ---------------------------------------------------------------------------
// Word-serializable values
// ---------------------------------------------------------------------------

/// A value that round-trips as a self-delimiting `u64` word sequence.
/// The persistent class store ([`crate::ClassStore`]) requires
/// `Out: Spillable` to write and reload class verdicts.
pub trait Spillable: Sized {
    /// Appends a self-delimiting encoding of `self`.
    fn spill(&self, words: &mut Vec<u64>);
    /// Reads one value back; `None` on truncated or malformed input.
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self>;
}

macro_rules! spillable_uint {
    ($($t:ty),*) => {$(
        impl Spillable for $t {
            fn spill(&self, words: &mut Vec<u64>) {
                words.push(*self as u64);
            }
            fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
                <$t>::try_from(*words.next()?).ok()
            }
        }
    )*};
}

spillable_uint!(u8, u16, u32, u64, usize);

impl Spillable for bool {
    fn spill(&self, words: &mut Vec<u64>) {
        words.push(u64::from(*self));
    }
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        match *words.next()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<A: Spillable, B: Spillable> Spillable for (A, B) {
    fn spill(&self, words: &mut Vec<u64>) {
        self.0.spill(words);
        self.1.spill(words);
    }
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        Some((A::unspill(words)?, B::unspill(words)?))
    }
}

impl<T: Spillable> Spillable for Vec<T> {
    fn spill(&self, words: &mut Vec<u64>) {
        words.push(self.len() as u64);
        for x in self {
            x.spill(words);
        }
    }
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        let len = usize::try_from(*words.next()?).ok()?;
        // Guard against a corrupt length word asking for more items than
        // words remain (each item consumes ≥ 1 word).
        if len > words.len() {
            return None;
        }
        (0..len).map(|_| T::unspill(words)).collect()
    }
}

impl<T: Spillable> Spillable for Option<T> {
    fn spill(&self, words: &mut Vec<u64>) {
        match self {
            None => words.push(0),
            Some(x) => {
                words.push(1);
                x.spill(words);
            }
        }
    }
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        match *words.next()? {
            0 => Some(None),
            1 => Some(Some(T::unspill(words)?)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Sealed memo tables and their merge
// ---------------------------------------------------------------------------

/// One sealed memo-class table, ready to merge or store.
pub struct ShardMemo<Out> {
    pub(crate) memo: ClassMemo<Out>,
}

impl<Out> ShardMemo<Out> {
    /// Distinct canonical classes this table holds.
    pub fn class_count(&self) -> usize {
        self.memo.class_count()
    }

    /// Unwraps the sealed class table (for the persistent class store).
    pub(crate) fn into_memo(self) -> ClassMemo<Out> {
        self.memo
    }
}

impl<Out: Clone + PartialEq> ShardMemo<Out> {
    /// Runs the memoized ladder over every node of `net` (in BFS order,
    /// through one class memo) and seals the table — the input a
    /// persistent dictionary is trained from
    /// ([`ClassStore::absorb_shard_memo`](crate::ClassStore::absorb_shard_memo)).
    /// Classes whose step failed are sealed as failures; no node's error
    /// is replayed.
    ///
    /// # Errors
    ///
    /// [`NotOrderInvariant`] (through `E: From<NotOrderInvariant>`) if two
    /// isomorphic views produced different step results.
    pub fn train<In: Clone, E: From<NotOrderInvariant>>(
        net: &Network<In>,
        initial_radius: usize,
        input_tag: impl Fn(&In, &mut Vec<u64>),
        step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
    ) -> Result<ShardMemo<Out>, E> {
        let g = net.graph();
        let pass = memo_pass(
            net,
            &bfs_visit_order(g),
            0..g.n(),
            initial_radius,
            &input_tag,
            &step,
        );
        match pass.conflict {
            Some(conflict) => Err(conflict.into()),
            None => Ok(pass.memo),
        }
    }
}

/// Accumulates sealed memo tables, detecting conflicts.
///
/// The parallel memo executor merges its per-chunk memos through this:
/// the first key two tables resolved differently aborts with
/// [`NotOrderInvariant`] instead of letting outputs depend on the chunk
/// boundaries. Which conflict is *reported* follows absorb order, so
/// callers absorb in chunk order.
pub struct MemoMerge<Out> {
    map: KeyHashMap<MemoEntryKind<Out>>,
}

impl<Out: PartialEq> MemoMerge<Out> {
    /// An empty merge.
    pub fn new() -> Self {
        MemoMerge {
            map: KeyHashMap::default(),
        }
    }

    /// Distinct canonical classes absorbed so far.
    pub fn class_count(&self) -> usize {
        self.map.len()
    }

    fn insert(
        &mut self,
        key: CanonicalKey,
        kind: MemoEntryKind<Out>,
    ) -> Result<(), NotOrderInvariant> {
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(kind);
                Ok(())
            }
            std::collections::hash_map::Entry::Occupied(slot) => {
                if memo_kind_eq(slot.get(), &kind) {
                    Ok(())
                } else {
                    Err(NotOrderInvariant {
                        key: slot.key().clone(),
                    })
                }
            }
        }
    }

    /// Folds one sealed table in.
    pub fn absorb(&mut self, shard_memo: ShardMemo<Out>) -> Result<(), NotOrderInvariant> {
        for (key, entry) in shard_memo.memo.into_entries() {
            self.insert(key, entry.kind)?;
        }
        Ok(())
    }
}

impl<Out: PartialEq> Default for MemoMerge<Out> {
    fn default() -> Self {
        MemoMerge::new()
    }
}

// ---------------------------------------------------------------------------
// The per-shard runner
// ---------------------------------------------------------------------------

/// What one shard's pass produced, in local ids. The sharded driver and
/// the monolithic memo executors collect whole runs in the same shape,
/// indexed by global node id.
pub struct ShardRun<Out> {
    /// Per local node: the decoded output (interior nodes only; halo and
    /// failed slots stay `None`).
    pub outs: Vec<Option<Out>>,
    /// Per local node: the final ladder radius (interior nodes only).
    pub per_node: Vec<usize>,
    /// Local indices of interior nodes whose step failed; the driver
    /// resolves the *global* first error after all shards ran.
    pub failed: Vec<usize>,
    /// Memo counters for this pass (zero for a plain shard pass).
    pub stats: MemoStats,
}

/// Runs the plain ladder over one shard's local network: every interior
/// node climbs its own ladder on its own ball, with no class memo.
///
/// `interior[l]` marks which local nodes this shard owns; only those are
/// decoded. `ladder_cap` is `Some(halo_radius − 1)` for a truncated view
/// and `None` for a complete one (no out-edges); a step expanding past the
/// cap aborts with [`HaloExceeded`]. A failing step is recorded in
/// [`ShardRun::failed`] and the driver replays it on the full network.
fn run_shard_plain_fallible<In: Clone, Out, E: From<HaloExceeded>>(
    local_net: &Network<In>,
    interior: &[bool],
    shard: usize,
    ladder_cap: Option<usize>,
    initial_radius: usize,
    step: &impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
) -> Result<ShardRun<Out>, E> {
    let g = local_net.graph();
    let n = g.n();
    assert_eq!(interior.len(), n, "one interior flag per local node");
    let halo_err = |requested: usize| HaloExceeded {
        shard,
        halo_radius: ladder_cap.map_or(0, |c| c + 1),
        requested,
    };
    if ladder_cap.is_some_and(|cap| initial_radius > cap) {
        return Err(halo_err(initial_radius).into());
    }
    let mut scratch = Scratch::new(n);
    let mut outs: Vec<Option<Out>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut per_node = vec![0usize; n];
    let mut failed: Vec<usize> = Vec::new();
    for li in 0..n {
        if !interior[li] {
            continue;
        }
        let v = NodeId::from_index(li);
        let mut members = BallMembers::gather(g, v, initial_radius, &mut scratch);
        loop {
            let ball = members.build_current(local_net, &mut scratch);
            match step(&ball) {
                Ok(MemoStep::Done(out)) => {
                    outs[li] = Some(out);
                    per_node[li] = members.radius();
                    break;
                }
                Ok(MemoStep::Expand(r2)) => {
                    assert!(
                        r2 > members.radius(),
                        "MemoStep::Expand must strictly increase the radius"
                    );
                    if ladder_cap.is_some_and(|cap| r2 > cap) {
                        return Err(halo_err(r2).into());
                    }
                    members.expand(g, r2, &mut scratch);
                }
                Err(_) => {
                    failed.push(li);
                    per_node[li] = members.radius();
                    break;
                }
            }
        }
    }
    Ok(ShardRun {
        outs,
        per_node,
        failed,
        stats: MemoStats::default(),
    })
}

// ---------------------------------------------------------------------------
// The sharded driver and its resident-network provider
// ---------------------------------------------------------------------------

/// Configuration for the sharded driver.
#[derive(Debug, Clone)]
pub struct ShardOpts {
    /// Halo depth `T` the views are built with; the decode ladder may use
    /// radii up to `T − 1` on truncated shards. Must be ≥ 1.
    pub halo_radius: usize,
    /// Maximum shard slices alive at once (`R`): the driver asks its
    /// provider for at most this many slices per wave and drops them
    /// before the next wave starts, so peak memory is the largest wave,
    /// not the instance. Clamped to ≥ 1. Defaults to "all resident".
    pub resident: usize,
    /// Shard processing order; `None` means `0..k`. Must be a permutation
    /// of the shard ids — outputs are schedule-invariant either way.
    pub schedule: Option<Vec<usize>>,
}

impl ShardOpts {
    /// Options with halo depth `halo_radius`, everything resident, and
    /// the identity schedule.
    pub fn new(halo_radius: usize) -> Self {
        ShardOpts {
            halo_radius,
            resident: usize::MAX,
            schedule: None,
        }
    }

    /// Caps the number of resident shard slices.
    pub fn resident(mut self, r: usize) -> Self {
        self.resident = r;
        self
    }

    /// Sets an explicit shard schedule.
    pub fn schedule(mut self, order: Vec<usize>) -> Self {
        self.schedule = Some(order);
        self
    }

    /// Inert: returns the options unchanged. The sharded driver keeps no
    /// state between waves, so it has nothing to write to a scratch
    /// directory. The method stays only so that existing callers (the
    /// end-to-end benchmark's `shard-spill` workload) keep compiling.
    pub fn spill_dir(self, _dir: impl Into<PathBuf>) -> Self {
        self
    }

    /// The order in which `k` shards are processed: the explicit schedule,
    /// or `0..k`. The sharded driver and `lad_core`'s sharded encoder both
    /// take their order from here, so both reject a bad schedule alike.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is not a permutation of `0..k`.
    pub fn schedule_for(&self, k: usize) -> Vec<usize> {
        let schedule = match &self.schedule {
            Some(s) => s.clone(),
            None => (0..k).collect(),
        };
        check_schedule(&schedule, k);
        schedule
    }
}

fn check_schedule(schedule: &[usize], k: usize) {
    assert_eq!(schedule.len(), k, "schedule must list every shard once");
    let mut seen = vec![false; k];
    for &s in schedule {
        assert!(s < k, "schedule names shard {s} of {k}");
        assert!(!seen[s], "schedule lists shard {s} twice");
        seen[s] = true;
    }
}

/// Sharded execution of a resident network: decodes `net` shard-at-a-time
/// under `part` with at most `opts.resident` shards in memory.
///
/// This is the resident-network provider for
/// [`run_sharded_stream_fallible`]: each shard's [`ShardView`] is built
/// when its wave starts and moved into a [`ShardSlice`], and first-error
/// replay runs on `net` itself. Outputs, [`RoundStats`], and first-error
/// choice are bit-identical to
/// [`run_local_memo_fallible`](crate::run_local_memo_fallible) (and, for
/// ladder steps, to `run_local`) whenever the halo is deep enough; a
/// ladder that outgrows the halo aborts with a typed [`HaloExceeded`]
/// instead of decoding from truncated views. Outputs are
/// schedule-invariant.
///
/// # Errors
///
/// See [`run_sharded_stream_fallible`].
///
/// # Panics
///
/// Panics if the partition does not match the graph, `halo_radius` is 0,
/// or the schedule is not a permutation.
pub fn run_sharded_fallible<In, Out, E>(
    net: &Network<In>,
    part: &Partition,
    opts: &ShardOpts,
    initial_radius: usize,
    input_tag: impl Fn(&In, &mut Vec<u64>) + Sync,
    step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Send,
    E: From<NotOrderInvariant> + From<HaloExceeded> + Send,
{
    let g = net.graph();
    assert_eq!(
        part.n(),
        g.n(),
        "partition does not match the network's graph"
    );
    run_sharded_stream_fallible(
        g.n(),
        part.k(),
        opts,
        initial_radius,
        |s| ShardSlice::from_view(net, ShardView::build(g, part, s, opts.halo_radius)),
        || net,
        input_tag,
        step,
    )
}

/// One shard materialized by a provider: the local network plus
/// membership metadata — everything the per-shard runner needs, with no
/// global graph behind it.
///
/// [`run_sharded_stream_fallible`] asks its provider for one `ShardSlice`
/// at a time: cut from a resident [`Network`] ([`ShardSlice::from_view`],
/// as [`run_sharded_fallible`] does), or generated directly from a
/// streaming graph family, so peak memory is the largest wave of slices,
/// not the graph.
pub struct ShardSlice<In> {
    /// The shard this slice serves.
    pub shard: usize,
    /// Global ids of the slice's nodes, ascending; local id = rank.
    pub members: Vec<NodeId>,
    /// Per local node: does this shard own it? Interior sets must
    /// partition the global node set across all `k` slices.
    pub interior: Vec<bool>,
    /// The local network: the halo-closed induced subgraph with global
    /// uids and inputs.
    pub net: Network<In>,
    /// `true` when no edge leaves the slice (every member interior): balls
    /// are then exact at every radius and the ladder runs uncapped.
    pub complete: bool,
}

impl<In: Clone> ShardSlice<In> {
    /// Materializes a slice from a [`ShardView`] of `net`: the view's
    /// induced subgraph with the members' global uids and cloned inputs.
    ///
    /// A view with a halo of at least 1 whose members are all interior has
    /// no edge leaving it (any boundary node would have pulled its
    /// exterior neighbor into the halo), so its slice is complete.
    ///
    /// # Panics
    ///
    /// Panics if the view was built with `halo_radius` 0.
    pub fn from_view(net: &Network<In>, view: ShardView) -> ShardSlice<In> {
        assert!(view.halo_radius >= 1, "a slice needs a halo of at least 1");
        let uids: Vec<u64> = view.members.iter().map(|&v| net.uid(v)).collect();
        let inputs: Vec<In> = view.members.iter().map(|&v| net.input(v).clone()).collect();
        ShardSlice {
            shard: view.shard,
            complete: view.interior.iter().all(|&b| b),
            net: Network::new(view.graph, IdAssignment::from_uids(uids), inputs),
            members: view.members,
            interior: view.interior,
        }
    }
}

/// Sharded execution over provider-materialized slices — the one sharded
/// driver.
///
/// `slice_of` is called exactly once per shard, in schedule order, and at
/// most `opts.resident` slices are alive at a time. Each wave decodes its
/// slices in parallel (behind the `parallel` feature, sequentially
/// otherwise) through the plain per-shard runner, and a truncated slice's
/// ladder is capped at `opts.halo_radius − 1`. Outputs and
/// [`RoundStats`] are bit-identical to the monolithic executors whenever
/// the provider's slices match [`ShardView`]s of some partition.
///
/// `replay_net` is invoked only on the error path: first-error payloads
/// address exact radii on the full graph, so the one failing node replays
/// there. Providers for instances that cannot materialize the full
/// network may panic in that closure; they then trade typed first-error
/// payloads for boundedness. `input_tag` only keys the
/// [`NotOrderInvariant`] error raised when that replay does not fail
/// where the slice did.
///
/// # Errors
///
/// The first failing node's own error (in node-index order), a
/// [`HaloExceeded`] ladder, or a [`NotOrderInvariant`] when the replay
/// on the full network does not fail where the slice did.
///
/// # Panics
///
/// Panics if `opts.halo_radius` is 0, the schedule is not a permutation
/// of `0..k`, a slice's metadata is inconsistent, or the slices'
/// interiors fail to partition `0..n`.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_stream_fallible<In, Out, E, N>(
    n: usize,
    k: usize,
    opts: &ShardOpts,
    initial_radius: usize,
    mut slice_of: impl FnMut(usize) -> ShardSlice<In>,
    replay_net: impl FnOnce() -> N,
    input_tag: impl Fn(&In, &mut Vec<u64>) + Sync,
    step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Send,
    E: From<NotOrderInvariant> + From<HaloExceeded> + Send,
    N: Borrow<Network<In>>,
{
    assert!(opts.halo_radius >= 1, "halo_radius must be at least 1");
    let schedule = opts.schedule_for(k);
    let resident = opts.resident.clamp(1, k.max(1));
    let mut run = ShardRun {
        outs: std::iter::repeat_with(|| None).take(n).collect(),
        per_node: vec![0; n],
        failed: Vec::new(),
        stats: MemoStats::default(),
    };
    // Which global nodes some slice's interior has claimed so far.
    let mut claimed = vec![false; n];
    for wave in schedule.chunks(resident) {
        let slices: Vec<ShardSlice<In>> = wave
            .iter()
            .map(|&s| {
                let slice = slice_of(s);
                assert_eq!(slice.shard, s, "provider returned the wrong shard");
                let m = slice.members.len();
                assert_eq!(slice.interior.len(), m, "one interior flag per member");
                assert_eq!(slice.net.graph().n(), m, "local network covers the members");
                slice
            })
            .collect();
        let shard_runs = par_map(&slices, |_, slice| {
            let cap = (!slice.complete).then(|| opts.halo_radius - 1);
            run_shard_plain_fallible(
                &slice.net,
                &slice.interior,
                slice.shard,
                cap,
                initial_radius,
                &step,
            )
        });
        for (slice, shard_run) in slices.iter().zip(shard_runs) {
            let shard_run = shard_run?;
            run.failed
                .extend(shard_run.failed.iter().map(|&lf| slice.members[lf].index()));
            for (li, out) in shard_run.outs.into_iter().enumerate() {
                if slice.interior[li] {
                    let gv = slice.members[li].index();
                    assert!(
                        !std::mem::replace(&mut claimed[gv], true),
                        "slice interiors overlap: shard {} claims node {gv}, which an \
                         earlier slice already owns",
                        slice.shard,
                    );
                    run.per_node[gv] = shard_run.per_node[li];
                    run.outs[gv] = out;
                }
            }
        }
    }
    if let Some(gv) = claimed.iter().position(|&c| !c) {
        panic!("slice interiors do not cover node {gv}: no shard claims it");
    }
    memo_finish(run, replay_net, initial_radius, &input_tag, &step)
}

// ---------------------------------------------------------------------------
// Sharded message routing
// ---------------------------------------------------------------------------

/// Traffic counters for a [`ShardedTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTrafficStats {
    /// Messages delivered directly (sender and receiver in one shard).
    pub intra_messages: u64,
    /// Messages that crossed a shard boundary through a mailbox.
    pub cross_messages: u64,
    /// Non-empty `(src_shard, dst_shard)` mailboxes flushed.
    pub flushes: u64,
    /// Most messages queued in mailboxes at once (per-round high water).
    pub mailbox_peak: u64,
}

/// Adapts any [`Transport`] to shard-at-a-time processing: messages whose
/// sender and receiver share a shard are routed directly while the shard
/// is current; cross-shard messages queue in per-`(src_shard, dst_shard)`
/// mailboxes and are flushed when the schedule switches to the receiving
/// shard.
///
/// Every inbox slot has exactly one sending edge, so the re-routing is a
/// permutation of delivery order within the round — delivered inboxes are
/// **bit-identical** to the inner transport's, and fault plans compose
/// unchanged (drops, duplicates, delays, and crashes all happen inside
/// the wrapped transport before routing).
#[derive(Debug, Clone)]
pub struct ShardedTransport<T> {
    inner: T,
    part: Partition,
    schedule: Vec<usize>,
    nodes_by_shard: Vec<Vec<NodeId>>,
    stats: ShardTrafficStats,
}

impl<T> ShardedTransport<T> {
    /// Wraps `inner`, processing shards in id order.
    pub fn new(inner: T, part: Partition) -> Self {
        let schedule = (0..part.k()).collect();
        ShardedTransport::with_schedule(inner, part, schedule)
    }

    /// Wraps `inner` with an explicit shard schedule.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is not a permutation of `0..part.k()`.
    pub fn with_schedule(inner: T, part: Partition, schedule: Vec<usize>) -> Self {
        check_schedule(&schedule, part.k());
        let nodes_by_shard = (0..part.k()).map(|s| part.shard_nodes(s)).collect();
        ShardedTransport {
            inner,
            part,
            schedule,
            nodes_by_shard,
            stats: ShardTrafficStats::default(),
        }
    }

    /// Traffic counters accumulated so far.
    pub fn traffic(&self) -> ShardTrafficStats {
        self.stats
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<Msg: Clone, T: Transport<Msg>> Transport<Msg> for ShardedTransport<T> {
    fn exchange(&mut self, g: &Graph, round: usize, outboxes: &[Vec<Msg>]) -> Vec<Vec<Vec<Msg>>> {
        assert_eq!(self.part.n(), g.n(), "partition does not match the graph");
        let mut delivered = self.inner.exchange(g, round, outboxes);
        let k = self.part.k();
        let mut inboxes: Vec<Vec<Vec<Msg>>> = delivered
            .iter()
            .map(|slots| vec![Vec::new(); slots.len()])
            .collect();
        // Pass 1 — process shards in schedule order: deliver intra-shard
        // slots directly, queue cross-shard slots in (src, dst) mailboxes.
        let mut mailboxes: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); k * k];
        let mut queued: u64 = 0;
        for &dst in &self.schedule {
            for &v in &self.nodes_by_shard[dst] {
                for (port, &u) in g.neighbors(v).iter().enumerate() {
                    let src = self.part.owner(u);
                    if src == dst {
                        let msgs = std::mem::take(&mut delivered[v.index()][port]);
                        self.stats.intra_messages += msgs.len() as u64;
                        inboxes[v.index()][port] = msgs;
                    } else {
                        queued += delivered[v.index()][port].len() as u64;
                        mailboxes[src * k + dst].push((v, port));
                    }
                }
            }
        }
        self.stats.mailbox_peak = self.stats.mailbox_peak.max(queued);
        // Pass 2 — flush: when the schedule switches to shard `dst`, drain
        // every mailbox addressed to it, in schedule order of the source.
        for &dst in &self.schedule {
            for &src in &self.schedule {
                let slots = std::mem::take(&mut mailboxes[src * k + dst]);
                if slots.is_empty() {
                    continue;
                }
                self.stats.flushes += 1;
                for (v, port) in slots {
                    let msgs = std::mem::take(&mut delivered[v.index()][port]);
                    self.stats.cross_messages += msgs.len() as u64;
                    inboxes[v.index()][port] = msgs;
                }
            }
        }
        inboxes
    }

    fn is_crashed(&self, v: NodeId, round: usize) -> bool {
        self.inner.is_crashed(v, round)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_local_memo_fallible, MemoStep};
    use crate::transport::PerfectLink;
    use lad_graph::generators;

    /// Error enum for tests exercising every failure mode.
    #[derive(Debug, PartialEq)]
    enum ShardDecodeError {
        Conflict(NotOrderInvariant),
        Halo(HaloExceeded),
    }

    impl From<NotOrderInvariant> for ShardDecodeError {
        fn from(c: NotOrderInvariant) -> Self {
            ShardDecodeError::Conflict(c)
        }
    }

    impl From<HaloExceeded> for ShardDecodeError {
        fn from(h: HaloExceeded) -> Self {
            ShardDecodeError::Halo(h)
        }
    }

    /// An order-invariant ladder step: expand to radius 2, then output a
    /// statistic of the ball's canonical content (sizes, degrees, inputs
    /// weighted by distance) — a pure function of the isomorphism class.
    fn ball_stat_step(ball: &Ball<u32>) -> Result<MemoStep<u64>, ShardDecodeError> {
        if ball.radius() < 2 {
            return Ok(MemoStep::Expand(2));
        }
        let mut acc = ball.n() as u64;
        for i in 0..ball.n() {
            let v = NodeId::from_index(i);
            acc += u64::from(*ball.input(v)) * 31
                + ball.global_degree(v) as u64 * 7
                + ball.dist(v) as u64;
        }
        Ok(MemoStep::Done(acc))
    }

    fn tag(x: &u32, words: &mut Vec<u64>) {
        words.push(u64::from(*x));
    }

    fn net(g: Graph) -> Network<u32> {
        let inputs = (0..g.n() as u32).map(|i| i % 5).collect();
        let ids = IdAssignment::from_uids(
            (0..g.n() as u64)
                .map(|i| (i * 7) % (g.n() as u64 * 7) + 1)
                .collect(),
        );
        Network::new(g, ids, inputs)
    }

    #[test]
    fn sharded_matches_unsharded_memo() {
        let g = generators::cycle(40);
        let net = net(g);
        let reference =
            run_local_memo_fallible(&net, 1, tag, ball_stat_step).expect("reference decodes");
        for k in [1usize, 2, 3, 5] {
            for resident in [1usize, 2, usize::MAX] {
                let part = Partition::contiguous(40, k);
                let opts = ShardOpts::new(4).resident(resident);
                let got = run_sharded_fallible(&net, &part, &opts, 1, tag, ball_stat_step)
                    .expect("sharded decodes");
                assert_eq!(got, reference, "k={k} resident={resident}");
            }
        }
    }

    #[test]
    fn sharded_is_schedule_invariant() {
        let g = generators::grid2d(6, 5, false);
        let net = net(g);
        let part = Partition::bfs_grown(net.graph(), 4);
        let forward = ShardOpts::new(5).schedule(vec![0, 1, 2, 3]).resident(2);
        let reverse = ShardOpts::new(5).schedule(vec![3, 2, 1, 0]).resident(2);
        let a = run_sharded_fallible(&net, &part, &forward, 1, tag, ball_stat_step)
            .expect("forward decodes");
        let b = run_sharded_fallible(&net, &part, &reverse, 1, tag, ball_stat_step)
            .expect("reverse decodes");
        assert_eq!(a, b);
    }

    #[test]
    fn stream_driver_halo_cap_still_bites() {
        let g = generators::cycle(24);
        let network = net(g);
        let part = Partition::contiguous(24, 4);
        // Ladder needs radius 2; halo 2 caps truncated slices at 1.
        let opts = ShardOpts::new(2);
        let mut slices: Vec<Option<ShardSlice<u32>>> = (0..4)
            .map(|s| {
                let view = ShardView::build(network.graph(), &part, s, 2);
                Some(ShardSlice::from_view(&network, view))
            })
            .collect();
        let got = run_sharded_stream_fallible(
            24,
            4,
            &opts,
            1,
            |s| slices[s].take().expect("each shard requested once"),
            || -> Network<u32> { unreachable!("halo errors do not replay") },
            tag,
            ball_stat_step,
        );
        match got {
            Err(ShardDecodeError::Halo(h)) => {
                assert_eq!(h.halo_radius, 2);
                assert_eq!(h.requested, 2);
            }
            other => panic!("expected a halo error, got {other:?}"),
        }
    }

    #[test]
    fn halo_too_shallow_is_a_typed_error() {
        let g = generators::cycle(24);
        let net = net(g);
        let part = Partition::contiguous(24, 4);
        // Ladder needs radius 2; halo 2 caps it at 1.
        let opts = ShardOpts::new(2);
        let err = run_sharded_fallible(&net, &part, &opts, 1, tag, ball_stat_step)
            .map(|_| ())
            .expect_err("halo 2 cannot serve radius 2");
        match err {
            ShardDecodeError::Halo(h) => {
                assert_eq!(h.requested, 2);
                assert_eq!(h.halo_radius, 2);
            }
            other => panic!("expected HaloExceeded, got {other:?}"),
        }
    }

    #[test]
    fn sharded_transport_delivers_bit_identically() {
        let g = generators::grid2d(5, 4, false);
        let part = Partition::contiguous(g.n(), 3);
        let outboxes: Vec<Vec<u64>> = g
            .nodes()
            .map(|v| {
                (0..g.degree(v))
                    .map(|p| (v.index() as u64) << 8 | p as u64)
                    .collect()
            })
            .collect();
        let want = PerfectLink.exchange(&g, 0, &outboxes);
        let mut sharded = ShardedTransport::new(PerfectLink, part.clone());
        let got = sharded.exchange(&g, 0, &outboxes);
        assert_eq!(got, want);
        let t = sharded.traffic();
        assert!(t.cross_messages > 0, "a 3-shard grid must cross shards");
        assert_eq!(
            t.intra_messages + t.cross_messages,
            2 * g.m() as u64,
            "every directed edge carries one message"
        );
        // An alternate schedule delivers the same inboxes.
        let mut reversed = ShardedTransport::with_schedule(PerfectLink, part, vec![2, 1, 0]);
        assert_eq!(reversed.exchange(&g, 0, &outboxes), want);
    }
}
