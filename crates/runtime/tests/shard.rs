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
//! * first-error identity: a failing step reports the same
//!   first-in-node-order error payload sharded as monolithic, for every
//!   shard count and schedule.
//!
//! The driver's slice contract (one request per shard in schedule order,
//! panics on overlapping or unclaimed interiors) is pinned by the unit
//! tests in `src/shard.rs`, where the slices are reachable.

use lad_graph::{builder::GraphBuilder, generators, Graph, Partition};
use lad_runtime::{
    run_sharded_fallible, Ball, ChurnMemoLocal, HaloExceeded, MemoStep, Network, NotOrderInvariant,
    RoundStats, ShardOpts,
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
