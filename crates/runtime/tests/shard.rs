//! Differential harness for the sharded driver: shard-at-a-time
//! execution computes the *same function* as the monolithic executors.
//!
//! Coverage:
//! * the full deterministic generator grid × shard counts {1, 2, 3, 5, 8}
//!   × partition shapes (contiguous, BFS-grown) × schedules (forward,
//!   reverse, interleaved) × residency bounds {1, 2, ∞}: outputs and
//!   [`RoundStats`] of the plain per-shard ladders must match the
//!   monolithic class-memo decode (a [`ChurnMemoLocal`]'s opening decode)
//!   **bit for bit**;
//! * the provider contract: the driver asks for every slice exactly once,
//!   in schedule order, and slices whose interiors overlap or leave a
//!   node unclaimed stop the run with a panic instead of a wrong answer;
//! * first-error identity: a failing step reports the same
//!   first-in-node-order error payload sharded as monolithic, for every
//!   shard count and schedule;
//! * fault plans × [`ShardedTransport`]: fault-free sharded delivery is
//!   bit-identical to [`PerfectLink`], recoverable plans heal to the same
//!   outputs through shard mailboxes, and replays are deterministic
//!   across schedules.

use lad_graph::{builder::GraphBuilder, generators, Graph, Partition, ShardView};
use lad_runtime::{
    run_gathered_robust, run_sharded_fallible, run_sharded_stream_fallible, Ball, ChurnMemoLocal,
    FaultPlan, HaloExceeded, MemoStep, Network, NodeCtx, NotOrderInvariant, PerfectLink,
    RoundStats, ShardOpts, ShardSlice, ShardedTransport,
};

/// The deterministic generator grid (mirrors `equivalence.rs`).
fn generator_grid() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", generators::path(17)),
        ("cycle", generators::cycle(24)),
        ("star", generators::star(6)),
        ("complete", generators::complete(7)),
        ("balanced-tree", generators::balanced_tree(2, 4)),
        ("caterpillar", generators::caterpillar(8, 2)),
        ("random-tree", generators::random_tree(30, 3)),
        ("grid", generators::grid2d(6, 5, false)),
        ("torus", generators::grid2d(5, 5, true)),
        ("hypercube", generators::hypercube(4)),
        ("ladder", generators::ladder(6)),
        ("random-regular", generators::random_regular(24, 3, 5)),
        (
            "random-bounded-degree",
            generators::random_bounded_degree(40, 4, 60, 9),
        ),
        (
            "subexp-torus-patch",
            generators::random_torus_patch(8, 8, 0.85, 4),
        ),
        (
            "disconnected",
            generators::disjoint_union(&[
                generators::cycle(5),
                generators::path(4),
                GraphBuilder::new(2).build(),
            ]),
        ),
    ]
}

fn network_for(g: &Graph) -> Network<u32> {
    let inputs: Vec<u32> = (0..g.n())
        .map(|i| (i as u32).wrapping_mul(7) % 13)
        .collect();
    let ids = lad_graph::IdAssignment::random_permutation(g.n(), 0xC0FFEE);
    Network::with_ids(g.clone(), ids).with_inputs(inputs)
}

#[derive(Debug, PartialEq)]
enum TestError {
    Conflict(NotOrderInvariant),
    Halo(HaloExceeded),
    Step(u64),
}

impl From<NotOrderInvariant> for TestError {
    fn from(c: NotOrderInvariant) -> Self {
        TestError::Conflict(c)
    }
}

impl From<HaloExceeded> for TestError {
    fn from(h: HaloExceeded) -> Self {
        TestError::Halo(h)
    }
}

fn tag(x: &u32, words: &mut Vec<u64>) {
    words.push(u64::from(*x));
}

/// The monolithic reference: the ladder decoded through a class memo (a
/// churn session's opening decode) in one BFS-ordered pass.
fn monolithic<E: From<NotOrderInvariant>>(
    net: &Network<u32>,
    step: impl Fn(&Ball<u32>) -> Result<MemoStep<u64>, E>,
) -> Result<(Vec<u64>, RoundStats), E> {
    let session = ChurnMemoLocal::new(net.clone(), 1, usize::MAX, tag, step)?;
    Ok((session.outputs(), session.round_stats()))
}

/// An order-invariant statistic of the ball's canonical content: sizes,
/// degrees, and inputs weighted by distance from the center.
fn ball_stat(ball: &Ball<u32>) -> u64 {
    let mut acc = ball.n() as u64;
    for i in 0..ball.n() {
        let v = lad_graph::NodeId::from_index(i);
        acc +=
            u64::from(*ball.input(v)) * 31 + ball.global_degree(v) as u64 * 7 + ball.dist(v) as u64;
    }
    acc
}

/// Adaptive order-invariant step: expand 1 → 2 → 4, then output.
fn adaptive_step(ball: &Ball<u32>) -> Result<lad_runtime::MemoStep<u64>, TestError> {
    let r = ball.radius();
    if r < 2 {
        return Ok(lad_runtime::MemoStep::Expand(2));
    }
    if r < 4 && (ball.n() as u64).is_multiple_of(5) {
        return Ok(lad_runtime::MemoStep::Expand(4));
    }
    Ok(lad_runtime::MemoStep::Done(ball_stat(ball)))
}

/// Like [`adaptive_step`] but fails (with a class-invariant payload) on
/// balls whose statistic is divisible by 3 — exercising first-error
/// resolution.
fn failing_step(ball: &Ball<u32>) -> Result<lad_runtime::MemoStep<u64>, TestError> {
    let r = ball.radius();
    if r < 2 {
        return Ok(lad_runtime::MemoStep::Expand(2));
    }
    let s = ball_stat(ball);
    if s.is_multiple_of(3) {
        return Err(TestError::Step(s));
    }
    Ok(lad_runtime::MemoStep::Done(s))
}

fn schedules(k: usize) -> Vec<Vec<usize>> {
    let forward: Vec<usize> = (0..k).collect();
    let reverse: Vec<usize> = (0..k).rev().collect();
    // Evens first, then odds.
    let interleaved: Vec<usize> = (0..k).step_by(2).chain((1..k).step_by(2)).collect();
    vec![forward, reverse, interleaved]
}

fn partitions(g: &Graph, k: usize) -> Vec<(&'static str, Partition)> {
    vec![
        ("contiguous", Partition::contiguous(g.n(), k)),
        ("bfs-grown", Partition::bfs_grown(g, k)),
    ]
}

#[test]
fn sharded_matches_monolithic_across_grid() {
    for (name, g) in generator_grid() {
        let net = network_for(&g);
        let reference = monolithic(&net, adaptive_step).expect("reference decodes");
        let halo = reference.1.rounds() + 1;
        for k in [1usize, 2, 3, 5, 8] {
            let k = k.min(g.n().max(1));
            for (pname, part) in partitions(&g, k) {
                for schedule in schedules(k) {
                    for resident in [1usize, 2, usize::MAX] {
                        let opts = ShardOpts::new(halo)
                            .schedule(schedule.clone())
                            .resident(resident);
                        let got = run_sharded_fallible(&net, &part, &opts, 1, tag, adaptive_step)
                            .unwrap_or_else(|e| {
                                panic!("{name} {pname} k={k} {schedule:?} r={resident}: {e:?}")
                            });
                        assert_eq!(
                            got, reference,
                            "{name} {pname} k={k} sched={schedule:?} resident={resident}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn stream_driver_matches_monolithic_across_grid() {
    for (name, g) in generator_grid() {
        let net = network_for(&g);
        let reference = monolithic(&net, adaptive_step).expect("reference decodes");
        let halo = reference.1.rounds() + 1;
        for k in [1usize, 2, 3, 5, 8] {
            let k = k.min(g.n().max(1));
            let part = Partition::contiguous(g.n(), k);
            for schedule in schedules(k) {
                for resident in [1usize, 2, usize::MAX] {
                    let opts = ShardOpts::new(halo)
                        .schedule(schedule.clone())
                        .resident(resident);
                    let mut slices: Vec<Option<ShardSlice<u32>>> = (0..k)
                        .map(|s| {
                            let view = ShardView::build(&g, &part, s, halo);
                            Some(ShardSlice::from_view(&net, view))
                        })
                        .collect();
                    let mut requested = Vec::new();
                    let got = run_sharded_stream_fallible(
                        g.n(),
                        k,
                        &opts,
                        1,
                        |s| {
                            requested.push(s);
                            slices[s].take().expect("each shard requested once")
                        },
                        || &net,
                        tag,
                        adaptive_step,
                    )
                    .expect("stream decodes");
                    let at = format!("{name} k={k} sched={schedule:?} resident={resident}");
                    assert_eq!(got, reference, "{at}");
                    assert_eq!(requested, schedule, "{at}: one request per shard, in order");
                }
            }
        }
    }
}

#[test]
fn first_error_is_identical_to_monolithic() {
    let mut failing_cases = 0usize;
    for (name, g) in generator_grid() {
        let net = network_for(&g);
        let reference = monolithic(&net, failing_step);
        let halo = match &reference {
            Ok((_, stats)) => stats.rounds() + 1,
            // Deep enough for the deepest rung the failing ladder can reach.
            Err(_) => 5,
        };
        if reference.is_err() {
            failing_cases += 1;
        }
        for k in [1usize, 2, 5] {
            let k = k.min(g.n().max(1));
            for schedule in schedules(k) {
                let part = Partition::contiguous(g.n(), k);
                let opts = ShardOpts::new(halo).schedule(schedule.clone()).resident(1);
                let got = run_sharded_fallible(&net, &part, &opts, 1, tag, failing_step);
                assert_eq!(got, reference, "{name} k={k} sched={schedule:?}");
            }
        }
    }
    assert!(
        failing_cases >= 3,
        "the failing step must actually fail somewhere ({failing_cases} cases)"
    );
}

/// Order-invariant step that outputs at radius 3, the deepest a halo of
/// 4 serves.
fn radius3_step(ball: &Ball<u32>) -> Result<lad_runtime::MemoStep<u64>, TestError> {
    if ball.radius() < 3 {
        return Ok(lad_runtime::MemoStep::Expand(3));
    }
    Ok(lad_runtime::MemoStep::Done(ball_stat(ball)))
}

/// Decodes `path(40)` through the driver from two contiguous halo-4
/// slices, after `tamper` has edited slice 1's interior flags.
fn run_tampered_path(
    tamper: impl Fn(&mut [bool]),
    step: fn(&Ball<u32>) -> Result<lad_runtime::MemoStep<u64>, TestError>,
) -> Result<(Vec<u64>, RoundStats), TestError> {
    let g = generators::path(40);
    let net = network_for(&g);
    let part = Partition::contiguous(40, 2);
    let mut slices: Vec<Option<ShardSlice<u32>>> = (0..2)
        .map(|s| {
            Some(ShardSlice::from_view(
                &net,
                ShardView::build(&g, &part, s, 4),
            ))
        })
        .collect();
    tamper(&mut slices[1].as_mut().expect("slice 1").interior);
    run_sharded_stream_fallible(
        40,
        2,
        &ShardOpts::new(4),
        1,
        |s| slices[s].take().expect("each shard requested once"),
        || &net,
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
    let net = network_for(&generators::path(40));
    let (fails, _) = lad_runtime::run_local(&net, |ctx: &NodeCtx<u32>| {
        failing_step(&ctx.ball(2)).is_err()
    });
    assert!(fails[..20].contains(&true), "a node of shard 0 must fail");
    let _ = run_tampered_path(|interior| interior.fill(false), failing_step);
}

// ---------------------------------------------------------------------------
// ShardedTransport × fault plans (gathered execution)
// ---------------------------------------------------------------------------

fn gather_truth(net: &Network<u32>, radius: usize) -> (Vec<u64>, RoundStats) {
    lad_runtime::run_local(net, |ctx: &NodeCtx<u32>| ball_stat(&ctx.ball(radius)))
}

#[test]
fn fault_free_sharded_transport_equals_perfect_link() {
    for (name, g) in generator_grid() {
        if g.n() == 0 {
            continue;
        }
        let net = network_for(&g);
        let radius = 2;
        let expected = gather_truth(&net, radius).0;
        let (bare, bare_report) =
            run_gathered_robust(&net, radius, radius + 5, &mut PerfectLink, |ball| {
                ball_stat(ball)
            })
            .expect("perfect link gathers");
        assert_eq!(bare, expected, "{name}: PerfectLink");
        for k in [2usize, 3] {
            let k = k.min(g.n());
            let part = Partition::contiguous(g.n(), k);
            let mut transport = ShardedTransport::new(PerfectLink, part);
            let (outs, report) =
                run_gathered_robust(&net, radius, radius + 5, &mut transport, |ball| {
                    ball_stat(ball)
                })
                .expect("sharded perfect link gathers");
            assert_eq!(outs, expected, "{name} k={k}: sharded PerfectLink");
            assert_eq!(
                report.rounds_used, bare_report.rounds_used,
                "{name} k={k}: extra rounds spent through mailboxes"
            );
            assert!(
                transport.traffic().intra_messages + transport.traffic().cross_messages > 0,
                "{name} k={k}: transport saw no traffic"
            );
        }
    }
}

#[test]
fn recoverable_fault_plans_heal_through_shard_mailboxes() {
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("drop20", FaultPlan::new(31).drop_rate(0.20)),
        ("dup20", FaultPlan::new(32).duplicate_rate(0.20)),
        ("delay2", FaultPlan::new(33).delay(0.4, 2)),
        (
            "drop+dup+delay",
            FaultPlan::new(34)
                .drop_rate(0.15)
                .duplicate_rate(0.15)
                .delay(0.2, 2),
        ),
    ];
    for (name, g) in [
        ("cycle", generators::cycle(18)),
        ("grid", generators::grid2d(5, 4, false)),
        (
            "random-bounded-degree",
            generators::random_bounded_degree(24, 4, 40, 5),
        ),
    ] {
        let net = network_for(&g);
        let radius = 2;
        let expected = gather_truth(&net, radius).0;
        let budget = radius + 40;
        for (pname, plan) in &plans {
            assert!(plan.is_content_preserving(), "{pname} must be recoverable");
            for k in [2usize, 3] {
                let part = Partition::contiguous(g.n(), k);
                let mut transport = ShardedTransport::new(plan.start::<_>(), part);
                let (outs, _) = run_gathered_robust(&net, radius, budget, &mut transport, |ball| {
                    ball_stat(ball)
                })
                .unwrap_or_else(|e| panic!("{name} {pname} k={k}: failed to heal: {e:?}"));
                assert_eq!(outs, expected, "{name} {pname} k={k}");
            }
        }
    }
}

#[test]
fn sharded_fault_replay_is_deterministic_across_schedules() {
    let g = generators::grid2d(6, 4, false);
    let net = network_for(&g);
    let radius = 2;
    let plan = FaultPlan::new(55).drop_rate(0.25).delay(0.3, 2);
    let part = Partition::contiguous(g.n(), 3);
    let run = |schedule: Vec<usize>| {
        let mut transport =
            ShardedTransport::with_schedule(plan.start::<_>(), part.clone(), schedule);
        run_gathered_robust(&net, radius, radius + 40, &mut transport, |ball| {
            ball_stat(ball)
        })
        .map(|(outs, report)| (outs, report.rounds_used))
        .expect("recoverable plan heals")
    };
    let a = run(vec![0, 1, 2]);
    let b = run(vec![0, 1, 2]);
    assert_eq!(a, b, "same schedule must replay bit-identically");
    let c = run(vec![2, 0, 1]);
    assert_eq!(
        a.0, c.0,
        "outputs are schedule-invariant (mailbox routing is a permutation)"
    );
}
