//! Shard-at-a-time execution of a resident network.
//!
//! [`run_sharded_fallible`] splits a [`Network`]'s nodes into the `K`
//! shards of a [`Partition`] and decodes them in waves of at most `R`
//! (`ShardOpts::resident`). Each shard decodes from a slice: its
//! [`ShardView`] (interior nodes plus a radius-`T` halo) as a local
//! network, built when the shard's wave starts and dropped when the wave
//! ends. Nothing outlives a wave but its interior nodes' outputs and
//! radii, so besides the network itself a run holds the largest wave of
//! slices plus one output slot per node.
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
//! no class memo, like the monolithic [`Run::ladder`]. A per-slice memo
//! starts cold in every slice, and pooling its classes across slices
//! needs a table that grows with `K` — the one structure a bounded
//! resident set exists to avoid. Since no
//! slice shares a verdict with another, outputs cannot depend on the
//! schedule. Failed nodes are collected globally and the smallest-index
//! one replays its ladder on the **full** network, so error payloads are
//! bit-identical to the monolithic ladder's.

use crate::ball::{Ball, BallMembers, Scratch};
use crate::executor::{memo_first_error, MemoStep, NotOrderInvariant, RoundStats, Run};
use crate::network::Network;
use lad_graph::{IdAssignment, NodeId, Partition, ShardView};
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
// The per-shard runner
// ---------------------------------------------------------------------------

/// What one shard's pass produced, in local ids. The sharded driver
/// collects the whole run in the same shape, indexed by global node id.
struct ShardRun<Out> {
    /// Per local node: the decoded output (interior nodes only; halo and
    /// failed slots stay `None`).
    outs: Vec<Option<Out>>,
    /// Per local node: the final ladder radius (interior nodes only).
    per_node: Vec<usize>,
    /// Local indices of interior nodes whose step failed; the driver
    /// resolves the *global* first error after all shards ran.
    failed: Vec<usize>,
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
    })
}

// ---------------------------------------------------------------------------
// The sharded driver
// ---------------------------------------------------------------------------

/// Configuration for the sharded driver.
#[derive(Debug, Clone)]
pub struct ShardOpts {
    /// Halo depth `T` the views are built with; the decode ladder may use
    /// radii up to `T − 1` on truncated shards. Must be ≥ 1.
    pub halo_radius: usize,
    /// Maximum shard slices alive at once (`R`): the driver builds at
    /// most this many slices per wave and drops them before the next wave
    /// starts. Clamped to ≥ 1. Defaults to "all resident".
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
        assert_eq!(schedule.len(), k, "schedule must list every shard once");
        let mut seen = vec![false; k];
        for &s in &schedule {
            assert!(s < k, "schedule names shard {s} of {k}");
            assert!(!seen[s], "schedule lists shard {s} twice");
            seen[s] = true;
        }
        schedule
    }
}

/// Sharded execution of a resident network: decodes `net` shard-at-a-time
/// under `part`, in waves of at most `opts.resident` shards.
///
/// Each shard's [`ShardView`] is built when its wave starts, and the
/// wave's shards decode in parallel ([`Run::map`]; `LAD_THREADS=1` runs
/// them in turn). Every interior node climbs its own ladder, capped at
/// `opts.halo_radius − 1` when edges leave the shard's view. Outputs,
/// [`RoundStats`], and first-error choice are bit-identical to the
/// monolithic ladder ([`Run::ladder`], and so to the same ladder under
/// `run_local`) whenever the halo is deep enough; a ladder that outgrows
/// the halo aborts with a typed [`HaloExceeded`] instead of decoding from
/// truncated views. Outputs are schedule-invariant.
///
/// # Errors
///
/// The first failing node's own error (in node-index order), a
/// [`HaloExceeded`] ladder, or a [`NotOrderInvariant`]. The failing node
/// replays its ladder on `net`, so the payload addresses exact radii;
/// `input_tag` only keys the [`NotOrderInvariant`] raised when that
/// replay does not fail where the shard did.
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
        net,
        part.k(),
        opts,
        initial_radius,
        |s| ShardSlice::from_view(net, ShardView::build(g, part, s, opts.halo_radius)),
        input_tag,
        step,
    )
}

/// One shard's slice: the local network plus membership metadata —
/// everything the per-shard runner needs.
struct ShardSlice<In> {
    /// The shard this slice serves.
    shard: usize,
    /// Global ids of the slice's nodes, ascending; local id = rank.
    members: Vec<NodeId>,
    /// Per local node: does this shard own it? Interior sets must
    /// partition the global node set across all `k` slices.
    interior: Vec<bool>,
    /// The local network: the halo-closed induced subgraph with global
    /// uids and inputs.
    net: Network<In>,
    /// `true` when no edge leaves the slice (every member interior): balls
    /// are then exact at every radius and the ladder runs uncapped.
    complete: bool,
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
    fn from_view(net: &Network<In>, view: ShardView) -> ShardSlice<In> {
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

/// The wave loop behind [`run_sharded_fallible`]: decodes the `k` slices
/// `slice_of` returns and replays the first failing node on `net`.
///
/// `slice_of` is called exactly once per shard, in schedule order, and at
/// most `opts.resident` slices are alive at a time. Outputs and
/// [`RoundStats`] are bit-identical to the monolithic ladder whenever the
/// slices are [`ShardView`]s of one partition of `net`.
///
/// # Panics
///
/// Panics if `opts.halo_radius` is 0, the schedule is not a permutation
/// of `0..k`, a slice's metadata is inconsistent, or the slices'
/// interiors fail to partition `net`'s nodes.
fn run_sharded_stream_fallible<In, Out, E>(
    net: &Network<In>,
    k: usize,
    opts: &ShardOpts,
    initial_radius: usize,
    mut slice_of: impl FnMut(usize) -> ShardSlice<In>,
    input_tag: impl Fn(&In, &mut Vec<u64>) + Sync,
    step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Send,
    E: From<NotOrderInvariant> + From<HaloExceeded> + Send,
{
    assert!(opts.halo_radius >= 1, "halo_radius must be at least 1");
    let n = net.graph().n();
    let schedule = opts.schedule_for(k);
    let resident = opts.resident.clamp(1, k.max(1));
    let mut run = ShardRun {
        outs: std::iter::repeat_with(|| None).take(n).collect(),
        per_node: vec![0; n],
        failed: Vec::new(),
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
        let shard_runs = Run::default().map(&slices, |_, slice| {
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
    if let Some(&i) = run.failed.iter().min() {
        return Err(memo_first_error(
            net,
            NodeId::from_index(i),
            initial_radius,
            &input_tag,
            &step,
        ));
    }
    let outs = run
        .outs
        .into_iter()
        .map(|o| o.expect("a run without failures fills every node's slot"))
        .collect();
    Ok((outs, RoundStats::from_per_node(run.per_node)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball::LocalView;
    use lad_graph::{generators, Graph};

    /// Error enum for tests exercising every failure mode.
    #[derive(Debug, PartialEq)]
    enum ShardDecodeError {
        Conflict(NotOrderInvariant),
        Halo(HaloExceeded),
        Step(u64),
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

    /// A statistic of the ball's canonical content (sizes, degrees, inputs
    /// weighted by distance) — a pure function of the isomorphism class.
    fn ball_stat(ball: &impl LocalView<u32>) -> u64 {
        let mut acc = ball.n() as u64;
        for i in 0..ball.n() {
            let v = NodeId::from_index(i);
            acc += u64::from(*ball.input(v)) * 31
                + ball.global_degree(v) as u64 * 7
                + ball.dist(v) as u64;
        }
        acc
    }

    /// An order-invariant ladder step: expand to radius 2, then output
    /// [`ball_stat`].
    fn ball_stat_step(ball: &impl LocalView<u32>) -> Result<MemoStep<u64>, ShardDecodeError> {
        if ball.radius() < 2 {
            return Ok(MemoStep::Expand(2));
        }
        Ok(MemoStep::Done(ball_stat(ball)))
    }

    /// Like [`ball_stat_step`] but fails (with a class-invariant payload)
    /// on balls whose statistic is divisible by 3.
    fn failing_step(ball: &Ball<u32>) -> Result<MemoStep<u64>, ShardDecodeError> {
        match ball_stat_step(ball)? {
            MemoStep::Done(s) if s.is_multiple_of(3) => Err(ShardDecodeError::Step(s)),
            other => Ok(other),
        }
    }

    /// Order-invariant step that outputs at radius 3, the deepest a halo
    /// of 4 serves.
    fn radius3_step(ball: &Ball<u32>) -> Result<MemoStep<u64>, ShardDecodeError> {
        if ball.radius() < 3 {
            return Ok(MemoStep::Expand(3));
        }
        Ok(MemoStep::Done(ball_stat(ball)))
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

    /// The slice [`run_sharded_fallible`] builds for shard `s`.
    fn slice(net: &Network<u32>, part: &Partition, s: usize, halo: usize) -> ShardSlice<u32> {
        ShardSlice::from_view(net, ShardView::build(net.graph(), part, s, halo))
    }

    #[test]
    fn sharded_matches_unsharded_ladder() {
        let g = generators::cycle(40);
        let net = net(g);
        let reference = Run::default()
            .threads(1)
            .ladder(&net, 1, |view| ball_stat_step(view))
            .expect("reference decodes");
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
    fn stream_driver_asks_for_each_slice_once_in_schedule_order() {
        let network = net(generators::cycle(30));
        let part = Partition::contiguous(30, 5);
        for schedule in [
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![0, 2, 4, 1, 3],
        ] {
            for resident in [1usize, 2, usize::MAX] {
                let opts = ShardOpts::new(4)
                    .schedule(schedule.clone())
                    .resident(resident);
                let mut requested = Vec::new();
                run_sharded_stream_fallible(
                    &network,
                    5,
                    &opts,
                    1,
                    |s| {
                        requested.push(s);
                        slice(&network, &part, s, 4)
                    },
                    tag,
                    ball_stat_step,
                )
                .expect("decodes");
                assert_eq!(requested, schedule, "resident={resident}");
            }
        }
    }

    #[test]
    fn stream_driver_halo_cap_still_bites() {
        let g = generators::cycle(24);
        let network = net(g);
        let part = Partition::contiguous(24, 4);
        // Ladder needs radius 2; halo 2 caps truncated slices at 1.
        let opts = ShardOpts::new(2);
        let got = run_sharded_stream_fallible(
            &network,
            4,
            &opts,
            1,
            |s| slice(&network, &part, s, 2),
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

    /// Decodes `path(40)` through the driver from two contiguous halo-4
    /// slices, after `tamper` has edited slice 1's interior flags.
    fn run_tampered_path(
        tamper: impl Fn(&mut [bool]),
        step: fn(&Ball<u32>) -> Result<MemoStep<u64>, ShardDecodeError>,
    ) -> Result<(Vec<u64>, RoundStats), ShardDecodeError> {
        let network = net(generators::path(40));
        let part = Partition::contiguous(40, 2);
        run_sharded_stream_fallible(
            &network,
            2,
            &ShardOpts::new(4),
            1,
            |s| {
                let mut slice = slice(&network, &part, s, 4);
                if s == 1 {
                    tamper(&mut slice.interior);
                }
                slice
            },
            tag,
            step,
        )
    }

    #[test]
    #[should_panic(expected = "slice interiors overlap")]
    fn overlapping_slice_interiors_are_rejected() {
        // Slice 1 also claims shard 0's halo nodes 16..20, whose radius-3
        // balls its view truncates; taking them would decode 4 nodes wrong.
        let _ = run_tampered_path(|interior| interior.fill(true), radius3_step);
    }

    #[test]
    #[should_panic(expected = "slice interiors do not cover node 20")]
    fn unclaimed_nodes_are_rejected_even_when_a_node_failed() {
        // Slice 1 claims nothing, so nodes 20..40 have no output. A failing
        // node in shard 0 must not turn that into an ordinary first error.
        let network = net(generators::path(40));
        assert!(
            (0..20)
                .any(|i| failing_step(&Ball::collect(&network, NodeId::from_index(i), 2)).is_err()),
            "a node of shard 0 must fail"
        );
        let _ = run_tampered_path(|interior| interior.fill(false), failing_step);
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
}
