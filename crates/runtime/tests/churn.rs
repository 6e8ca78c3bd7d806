//! Churn differential harness: incremental repair is indistinguishable
//! from recomputation.
//!
//! [`ChurnLocal`] and [`ChurnMemoLocal`] promise that after every edit
//! batch their outputs are **bit-identical** to a from-scratch run on the
//! mutated graph. This harness pins that promise:
//!
//! * deterministic edit scripts (interleaved inserts, deletes, mixed
//!   batches, no-ops) over the same generator grid as `equivalence.rs`,
//!   × radii, × the thread grid for the scratch reference;
//! * [`MutableGraph::dirty_within`] soundness by brute force: every node
//!   the tracker calls clean must have an identical radius-`r` ball in the
//!   old and new graphs (balls compare structure, uids, inputs, degrees);
//! * memo-session bookkeeping invariants: one membership per confirmed
//!   ladder rung per node, classes retired exactly when their last member
//!   is released;
//! * first-error choice after churn must match the from-scratch fallible
//!   run (smallest failing node index, payload regenerated exactly);
//! * proptest-driven random families and random edit scripts, so failures
//!   shrink to a minimal script.

use lad_graph::mutate::{Edit, MutableGraph};
use lad_graph::{builder::GraphBuilder, generators, Graph, NodeId};
use lad_runtime::{
    run_local, run_local_fallible, Ball, ChurnLocal, ChurnMemoLocal, MemoStep, Network, NodeCtx,
    NotOrderInvariant, PlannedChurnLocal, Run,
};
use proptest::prelude::*;

const THREAD_GRID: [usize; 4] = [1, 2, 3, 8];

/// Same deterministic generator grid as `equivalence.rs`.
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
                GraphBuilder::new(2).build(), // isolated nodes
            ]),
        ),
    ]
}

/// Nontrivial identifiers and inputs, as in `equivalence.rs`.
fn network_for(g: &Graph) -> Network<u32> {
    let inputs: Vec<u32> = (0..g.n())
        .map(|i| (i as u32).wrapping_mul(7) % 13)
        .collect();
    let ids = lad_graph::IdAssignment::random_permutation(g.n(), 0xC0FFEE);
    Network::with_ids(g.clone(), ids).with_inputs(inputs)
}

fn tag(input: &u32, words: &mut Vec<u64>) {
    words.push(u64::from(*input));
}

/// Order-invariant ball digest, as in `memo.rs`.
fn oi_digest(ball: &Ball<u32>) -> (usize, usize, u64, usize) {
    let c = ball.center();
    let center_rank = ball.uids().iter().filter(|&&u| u < ball.uid(c)).count();
    let weighted: u64 = (0..ball.n())
        .map(|i| {
            let v = NodeId(i as u32);
            u64::from(*ball.input(v)) * (ball.dist(v) as u64 + 1)
        })
        .sum();
    (ball.n(), ball.graph().m(), weighted, center_rank)
}

/// Everything a LOCAL algorithm may legitimately depend on: the view
/// subgraph and, per ball-local node, its global name, distance, global
/// degree, identifier, and input. Deliberately excludes the ball's
/// global *edge*-id table: edge ids are a CSR artifact that renumbers
/// wholesale on any edit, not LOCAL-model information, and the churn
/// sessions' bit-identity contract is scoped to view-determined outputs
/// (see `lad_runtime::churn` docs).
type NodeFields = Vec<(NodeId, usize, usize, u64, u32)>;
type ViewFingerprint = (Graph, NodeId, usize, NodeFields);

fn view_fingerprint(ball: &Ball<u32>) -> ViewFingerprint {
    let per_node = (0..ball.n())
        .map(|i| {
            let v = NodeId(i as u32);
            (
                ball.global_node(v),
                ball.dist(v),
                ball.global_degree(v),
                ball.uid(v),
                *ball.input(v),
            )
        })
        .collect();
    (ball.graph().clone(), ball.center(), ball.radius(), per_node)
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A deterministic edit script: `batches` batches of up to `per_batch`
/// edits each — random inserts and removes, including no-ops and
/// within-batch cancelling pairs, the messiest realistic shape.
fn script_for(n: usize, mut seed: u64, batches: usize, per_batch: usize) -> Vec<Vec<Edit>> {
    seed |= 1;
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .filter_map(|_| {
                    let u = (xorshift(&mut seed) % n as u64) as u32;
                    let v = (xorshift(&mut seed) % n as u64) as u32;
                    if u == v {
                        return None;
                    }
                    Some(if xorshift(&mut seed).is_multiple_of(2) {
                        Edit::Insert(NodeId(u), NodeId(v))
                    } else {
                        Edit::Remove(NodeId(u), NodeId(v))
                    })
                })
                .collect()
        })
        .collect()
}

#[test]
fn churn_local_matches_scratch_on_generator_grid() {
    for (idx, (tag_, g)) in generator_grid().into_iter().enumerate() {
        let n = g.n();
        for radius in 0..=2 {
            let algo = |ctx: &NodeCtx<u32>| view_fingerprint(&ctx.ball(radius));
            let mut session = ChurnLocal::new(network_for(&g), radius, algo);
            for (b, batch) in script_for(n, 0xAB5E * (idx as u64 + 1), 4, 3)
                .into_iter()
                .enumerate()
            {
                let report = session.apply(&batch);
                assert_eq!(
                    report.applied + report.skipped,
                    batch.len(),
                    "{tag_}/r{radius}/batch{b}: edits unaccounted for"
                );
                let expected = run_local(session.network(), algo);
                assert_eq!(
                    session.outputs(),
                    &expected.0[..],
                    "{tag_}/r{radius}/batch{b}: outputs diverged from scratch"
                );
                assert_eq!(
                    session.round_stats(),
                    expected.1,
                    "{tag_}/r{radius}/batch{b}: round stats diverged"
                );
                for threads in THREAD_GRID {
                    assert_eq!(
                        Run::default()
                            .threads(threads)
                            .nodes(session.network(), algo),
                        expected,
                        "{tag_}/r{radius}/batch{b}: par reference, {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn dirty_within_is_sound_by_brute_force_ball_diff() {
    for (idx, (tag_, g)) in generator_grid().into_iter().enumerate() {
        let n = g.n();
        let old_net = network_for(&g);
        let mut mg = MutableGraph::new(g.clone());
        for batch in script_for(n, 0xD1FF * (idx as u64 + 1), 3, 4) {
            mg.apply(&batch);
        }
        let new_net = Network::with_ids(mg.graph().clone(), old_net.ids().clone())
            .with_inputs(old_net.inputs().to_vec());
        for radius in 0..=3 {
            let dirty = mg.dirty_within(radius);
            for v in g.nodes() {
                if dirty.binary_search(&v).is_ok() {
                    continue;
                }
                assert_eq!(
                    view_fingerprint(&Ball::collect(&old_net, v, radius)),
                    view_fingerprint(&Ball::collect(&new_net, v, radius)),
                    "{tag_}/r{radius}: node {v:?} is clean but its ball changed"
                );
            }
        }
    }
}

#[test]
fn churn_memo_matches_scratch_and_keeps_membership_invariant() {
    // Adaptive ladder: expand until the ball covers >= 10 nodes or radius
    // 3; the output carries the final radius so the membership invariant
    // (one class per confirmed rung per node) is checkable from outside.
    type LadderOut = (usize, (usize, usize, u64, usize));
    let step = |ball: &Ball<u32>| -> Result<MemoStep<LadderOut>, NotOrderInvariant> {
        let r = ball.radius();
        if ball.n() >= 10 || r >= 3 {
            Ok(MemoStep::Done((r, oi_digest(ball))))
        } else {
            Ok(MemoStep::Expand(r + 1))
        }
    };
    let reference = |ctx: &NodeCtx<u32>| {
        let mut r = 0;
        loop {
            let ball = ctx.ball(r);
            if ball.n() >= 10 || r >= 3 {
                return (r, oi_digest(&ball));
            }
            r += 1;
        }
    };
    for (idx, (tag_, g)) in generator_grid().into_iter().enumerate() {
        let n = g.n();
        let mut session = ChurnMemoLocal::new(network_for(&g), 0, 3, tag, step).unwrap();
        for (b, batch) in script_for(n, 0x31E0 * (idx as u64 + 1), 4, 3)
            .into_iter()
            .enumerate()
        {
            let report = session.apply(&batch).unwrap();
            assert_eq!(
                report.applied + report.skipped,
                batch.len(),
                "{tag_}/batch{b}: edits unaccounted for"
            );
            let expected = run_local(session.network(), reference);
            let outs = session.outputs();
            assert_eq!(
                outs, expected.0,
                "{tag_}/batch{b}: memo outputs diverged from scratch"
            );
            assert_eq!(
                session.round_stats(),
                expected.1,
                "{tag_}/batch{b}: memo round stats diverged"
            );
            // One membership per confirmed rung: a node finishing at
            // radius r walked rungs 0..=r, so the memo's total member
            // count is exactly n plus the summed final radii.
            let rung_sum: usize = outs.iter().map(|&(r, _)| r).sum();
            assert_eq!(
                session.member_count(),
                n + rung_sum,
                "{tag_}/batch{b}: membership bookkeeping leaked"
            );
            assert!(
                session.class_count() <= session.member_count(),
                "{tag_}/batch{b}: more classes than members"
            );
        }
    }
}

/// Node-specific error payload, as in `memo.rs`: the memo must
/// regenerate it by replaying the failing node, never share it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TestErr {
    Algo(String),
    Oi(NotOrderInvariant),
}

impl From<NotOrderInvariant> for TestErr {
    fn from(e: NotOrderInvariant) -> Self {
        TestErr::Oi(e)
    }
}

#[test]
fn churn_memo_first_error_after_churn_matches_scratch() {
    // On the pristine 2d grid no node exceeds degree 4, so nothing fails;
    // an edit batch then pushes several nodes over the threshold at once,
    // and the session must report the same first-in-node-order error a
    // from-scratch fallible run reports.
    let g = generators::grid2d(5, 4, false);
    let net = network_for(&g);
    let fails = |ball: &Ball<u32>| ball.graph().degree(ball.center()) >= 5;
    let step = |ball: &Ball<u32>| -> Result<MemoStep<usize>, TestErr> {
        if fails(ball) {
            Err(TestErr::Algo(format!(
                "uid {} overloaded",
                ball.uid(ball.center())
            )))
        } else {
            Ok(MemoStep::Done(ball.n()))
        }
    };
    let mut session = ChurnMemoLocal::new(net.clone(), 1, 1, tag, step).unwrap();
    // Overload nodes 7 and 12 in one batch (both have degree 4 initially).
    let batch = vec![
        Edit::Insert(NodeId(7), NodeId(19)),
        Edit::Insert(NodeId(12), NodeId(0)),
    ];
    let err = session.apply(&batch).unwrap_err();
    let mut mg = MutableGraph::new(g);
    mg.apply(&batch);
    let scratch_net =
        Network::with_ids(mg.graph().clone(), net.ids().clone()).with_inputs(net.inputs().to_vec());
    let expected = run_local_fallible(
        &scratch_net,
        |ctx: &NodeCtx<u32>| -> Result<usize, TestErr> {
            let ball = ctx.ball(1);
            if fails(&ball) {
                Err(TestErr::Algo(format!(
                    "uid {} overloaded",
                    ball.uid(ball.center())
                )))
            } else {
                Ok(ball.n())
            }
        },
    )
    .unwrap_err();
    assert_eq!(err, expected, "first-error choice diverged after churn");
}

#[test]
fn planned_churn_matches_scratch_under_every_forced_path() {
    // The planner picks the session family per instance; whichever leg it
    // lands on — and each forced leg, opened directly — every batch must
    // leave outputs and round stats bit-identical to a from-scratch run,
    // and the three sessions must agree with each other.
    type LadderOut = (usize, (usize, usize, u64, usize));
    let algo = |ctx: &NodeCtx<u32>| {
        let mut r = 0;
        loop {
            let ball = ctx.ball(r);
            if ball.n() >= 10 || r >= 3 {
                return (r, oi_digest(&ball));
            }
            r += 1;
        }
    };
    let step = |ball: &Ball<u32>| -> Result<MemoStep<LadderOut>, NotOrderInvariant> {
        let r = ball.radius();
        if ball.n() >= 10 || r >= 3 {
            Ok(MemoStep::Done((r, oi_digest(ball))))
        } else {
            Ok(MemoStep::Expand(r + 1))
        }
    };
    for (idx, (tag_, g)) in generator_grid().into_iter().enumerate() {
        let n = g.n();
        let mut final_outputs: Vec<Vec<LadderOut>> = Vec::new();
        let (planned, plan) =
            PlannedChurnLocal::open(network_for(&g), 0, 3, algo, tag, step).unwrap();
        assert_eq!(
            planned.path(),
            plan.path,
            "{tag_}: session family disagrees with the recorded plan"
        );
        let sessions = [
            planned,
            PlannedChurnLocal::Plain(ChurnLocal::new(network_for(&g), 3, algo)),
            PlannedChurnLocal::Memo(ChurnMemoLocal::new(network_for(&g), 0, 3, tag, step).unwrap()),
        ];
        for mut session in sessions {
            let leg = session.path();
            for (b, batch) in script_for(n, 0x91AD * (idx as u64 + 1), 3, 3)
                .into_iter()
                .enumerate()
            {
                let report = session.apply(&batch).unwrap();
                assert_eq!(
                    report.applied + report.skipped,
                    batch.len(),
                    "{tag_}/batch{b} [{leg:?}]: edits unaccounted for"
                );
                let expected = run_local(session.network(), algo);
                assert_eq!(
                    session.outputs(),
                    expected.0,
                    "{tag_}/batch{b} [{leg:?}]: outputs diverged from scratch"
                );
                assert_eq!(
                    session.round_stats(),
                    expected.1,
                    "{tag_}/batch{b} [{leg:?}]: round stats diverged"
                );
            }
            final_outputs.push(session.outputs());
        }
        assert!(
            final_outputs.windows(2).all(|w| w[0] == w[1]),
            "{tag_}: sessions disagree after identical edit scripts"
        );
    }
}

/// Builds the `family`-th random graph family, as in `equivalence.rs`.
fn arb_family(family: usize, n: usize, seed: u64) -> Graph {
    match family {
        0 => generators::path(n.max(2)),
        1 => generators::cycle(n.max(3)),
        2 => generators::random_tree(n.max(2), seed),
        3 => generators::random_bounded_degree(n, 4, 2 * n, seed),
        4 => {
            let side = (n / 2).max(2);
            generators::random_bipartite_regular(side, 2, seed)
        }
        5 => generators::random_regular(
            if n.is_multiple_of(2) {
                n.max(4)
            } else {
                n.max(4) + 1
            },
            3,
            seed,
        ),
        6 => {
            let w = (n as f64).sqrt().ceil() as usize;
            generators::grid2d(w.max(2), w.max(2), seed.is_multiple_of(2))
        }
        _ => generators::random_torus_patch(6, 6, 0.7 + (seed % 3) as f64 * 0.1, seed),
    }
}

/// Decodes a proptest-generated raw script into edit batches over `n`
/// nodes, dropping self-loops.
fn decode_script(raw: Vec<Vec<(u32, u32, bool)>>, n: usize) -> Vec<Vec<Edit>> {
    raw.into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .filter_map(|(u, v, insert)| {
                    let (u, v) = (u as usize % n, v as usize % n);
                    if u == v {
                        return None;
                    }
                    let (u, v) = (NodeId(u as u32), NodeId(v as u32));
                    Some(if insert {
                        Edit::Insert(u, v)
                    } else {
                        Edit::Remove(u, v)
                    })
                })
                .collect()
        })
        .collect()
}

fn arb_script() -> impl Strategy<Value = Vec<Vec<(u32, u32, bool)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..6),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn churn_local_matches_scratch_on_random_scripts(
        family in 0usize..8,
        n in 8usize..32,
        seed in 0u64..1_000,
        radius in 0usize..3,
        raw in arb_script(),
    ) {
        let g = arb_family(family, n, seed);
        let algo = |ctx: &NodeCtx<u32>| view_fingerprint(&ctx.ball(radius));
        let mut session = ChurnLocal::new(network_for(&g), radius, algo);
        for batch in decode_script(raw, g.n()) {
            session.apply(&batch);
            let expected = run_local(session.network(), algo);
            prop_assert_eq!(session.outputs(), &expected.0[..]);
            prop_assert_eq!(session.round_stats(), expected.1);
        }
    }

    #[test]
    fn dirty_within_sound_on_random_scripts(
        family in 0usize..8,
        n in 8usize..32,
        seed in 0u64..1_000,
        radius in 0usize..3,
        raw in arb_script(),
    ) {
        let g = arb_family(family, n, seed);
        let old_net = network_for(&g);
        let mut mg = MutableGraph::new(g.clone());
        for batch in decode_script(raw, g.n()) {
            mg.apply(&batch);
        }
        let new_net = Network::with_ids(mg.graph().clone(), old_net.ids().clone())
            .with_inputs(old_net.inputs().to_vec());
        let dirty = mg.dirty_within(radius);
        for v in g.nodes() {
            if dirty.binary_search(&v).is_err() {
                prop_assert_eq!(
                    view_fingerprint(&Ball::collect(&old_net, v, radius)),
                    view_fingerprint(&Ball::collect(&new_net, v, radius))
                );
            }
        }
    }

    #[test]
    fn churn_memo_matches_scratch_on_random_scripts(
        family in 0usize..8,
        n in 8usize..32,
        seed in 0u64..1_000,
        radius in 0usize..3,
        raw in arb_script(),
    ) {
        let g = arb_family(family, n, seed);
        let step = move |ball: &Ball<u32>| -> Result<MemoStep<(usize, usize, u64, usize)>, NotOrderInvariant> {
            Ok(MemoStep::Done(oi_digest(ball)))
        };
        let reference = move |ctx: &NodeCtx<u32>| oi_digest(&ctx.ball(radius));
        let mut session = ChurnMemoLocal::new(network_for(&g), radius, radius, tag, step).unwrap();
        for batch in decode_script(raw, g.n()) {
            session.apply(&batch).unwrap();
            let expected = run_local(session.network(), reference);
            prop_assert_eq!(session.outputs(), expected.0);
            prop_assert_eq!(session.round_stats(), expected.1);
            prop_assert_eq!(session.member_count(), g.n());
        }
    }
}
