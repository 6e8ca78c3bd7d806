//! Differential harness for the class memo: a ladder decoded through it
//! (the opening decode of a [`ChurnMemoLocal`]) must compute the *same
//! function* as [`run_local`] whenever the step is order-invariant, and
//! must *refuse* (never silently mis-share) when it is not. The plain
//! [`Run::ladder`] is held to the same reference on the thread grid.
//!
//! Coverage mirrors `equivalence.rs`:
//! * the deterministic generator grid × four step shapes (fixed radius,
//!   adaptive Expand ladders, a 0 → 1 → 3 jump ladder, fallible with
//!   order-invariant failure sets), with the plain ladder on thread
//!   counts {1, 2, 3, 8};
//! * balls and ladders of any size: a 70 000-leaf star's hub ball and a
//!   ladder jumping to radius 300;
//! * proptest-driven random shapes, radii, and thread counts;
//! * deliberately order-*sensitive* steps, which the memo must reject
//!   with [`NotOrderInvariant`] instead of returning answers;
//! * first-error choice on fallible steps, which must match
//!   [`run_local_fallible`]'s smallest-failing-node-index semantics, with
//!   the error value regenerated exactly (node-specific payloads included).

use lad_graph::{builder::GraphBuilder, generators, Graph};
use lad_runtime::{
    plan_decode, run_local, run_local_fallible, Ball, ChurnMemoLocal, ClassStore, MemoStep,
    Network, NodeCtx, NotOrderInvariant, RoundStats, Run, SchemaId, StoreError,
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

/// Nontrivial identifiers and inputs, as in `equivalence.rs`: memoization
/// must survive scrambled uids, because keys depend on uid *order* only.
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

/// The ladder decoded through a class memo: the opening decode of a churn
/// session, in one BFS-ordered pass.
fn memo_ladder<Out, E>(
    net: &Network<u32>,
    initial_radius: usize,
    step: impl Fn(&Ball<u32>) -> Result<MemoStep<Out>, E>,
) -> Result<(Vec<Out>, RoundStats), E>
where
    Out: Clone + PartialEq,
    E: From<NotOrderInvariant>,
{
    let session = ChurnMemoLocal::new(net.clone(), initial_radius, usize::MAX, tag, step)?;
    Ok((session.outputs(), session.round_stats()))
}

/// [`memo_ladder`] for an infallible step.
fn memo<Out: Clone + PartialEq>(
    net: &Network<u32>,
    initial_radius: usize,
    step: impl Fn(&Ball<u32>) -> MemoStep<Out>,
) -> Result<(Vec<Out>, RoundStats), NotOrderInvariant> {
    memo_ladder(net, initial_radius, |ball| Ok(step(ball)))
}

/// An order-invariant digest of a ball: structure, inputs, distances, and
/// the center's *rank* among ball uids (order information is fine — the
/// numerical uid values are not).
fn oi_digest(ball: &Ball<u32>) -> (usize, usize, u64, usize) {
    let c = ball.center();
    let center_rank = ball.uids().iter().filter(|&&u| u < ball.uid(c)).count();
    let weighted: u64 = (0..ball.n())
        .map(|i| {
            let v = lad_graph::NodeId(i as u32);
            u64::from(*ball.input(v)) * (ball.dist(v) as u64 + 1)
        })
        .sum();
    (ball.n(), ball.graph().m(), weighted, center_rank)
}

/// Asserts the memo and the plain ladder on every thread count reproduce
/// `run_local`'s outputs and per-node round statistics exactly.
fn assert_memo_equals_reference<Out>(
    tag_: &str,
    net: &Network<u32>,
    initial_radius: usize,
    step: impl Fn(&Ball<u32>) -> MemoStep<Out> + Sync,
    reference: impl Fn(&NodeCtx<u32>) -> Out + Sync,
) where
    Out: Clone + PartialEq + std::fmt::Debug + Send,
{
    let expected: (Vec<Out>, RoundStats) = run_local(net, &reference);
    let memoized = memo(net, initial_radius, &step)
        .unwrap_or_else(|e| panic!("{tag_}: memo refused an order-invariant step: {e}"));
    assert_eq!(memoized, expected, "{tag_}: memo");
    for threads in THREAD_GRID {
        let plain = Run::default()
            .threads(threads)
            .ladder(net, initial_radius, |ball| {
                Ok::<_, NotOrderInvariant>(step(ball))
            })
            .expect("infallible step");
        assert_eq!(plain, expected, "{tag_}: plain ladder, {threads} threads");
    }
}

#[test]
fn fixed_radius_digests_identical_everywhere() {
    for (tag_, g) in generator_grid() {
        let net = network_for(&g);
        for radius in 0..=3 {
            assert_memo_equals_reference(
                &format!("{tag_}/r{radius}"),
                &net,
                radius,
                |ball| MemoStep::Done(oi_digest(ball)),
                |ctx| oi_digest(&ctx.ball(radius)),
            );
        }
    }
}

#[test]
fn adaptive_expand_ladders_identical_everywhere() {
    // Expand until the ball covers ≥ 12 nodes or radius 6 is reached: the
    // memo walks the same radius ladder `run_local`'s loop walks, so the
    // per-node `RoundStats` must agree too.
    for (tag_, g) in generator_grid() {
        let net = network_for(&g);
        assert_memo_equals_reference(
            tag_,
            &net,
            0,
            |ball| {
                let r = ball.radius();
                if ball.n() >= 12 || r >= 6 {
                    MemoStep::Done((r, oi_digest(ball)))
                } else {
                    MemoStep::Expand(r + 1)
                }
            },
            |ctx| {
                let mut r = 0;
                loop {
                    let ball = ctx.ball(r);
                    if ball.n() >= 12 || r >= 6 {
                        return (r, oi_digest(&ball));
                    }
                    r += 1;
                }
            },
        );
    }
}

#[test]
fn jump_expand_ladders_identical_everywhere() {
    // Expand 0 -> 1 -> 3, then report the digest: rungs that skip radii
    // grow each membership by more than one shell at a time.
    for (tag_, g) in generator_grid() {
        let net = network_for(&g);
        assert_memo_equals_reference(
            tag_,
            &net,
            0,
            |ball| match ball.radius() {
                0 => MemoStep::Expand(1),
                1 => MemoStep::Expand(3),
                _ => MemoStep::Done(oi_digest(ball)),
            },
            |ctx| {
                ctx.ball(0);
                ctx.ball(1);
                oi_digest(&ctx.ball(3))
            },
        );
    }
}

/// A 70 000-leaf star: the hub's radius-1 ball holds 70 001 nodes, and
/// every memo entry point keys it like any other ball.
fn hub_star() -> Network<u32> {
    network_for(&generators::star(70_000))
}

fn hub_step(ball: &Ball<u32>) -> Result<MemoStep<(usize, usize, u64, usize)>, NotOrderInvariant> {
    Ok(MemoStep::Done(oi_digest(ball)))
}

#[test]
fn hub_ball_memo_decode_matches_run_local() {
    let net = hub_star();
    let expected = run_local(&net, |ctx: &NodeCtx<u32>| oi_digest(&ctx.ball(1)));
    assert_eq!(memo_ladder(&net, 1, hub_step), Ok(expected));
}

#[test]
fn hub_ball_trains_a_store() {
    let mut store = ClassStore::new(SchemaId::new("hub", 0), 1);
    let fresh = store
        .train(&hub_star(), tag, hub_step)
        .expect("order-invariant");
    assert!(fresh > 1);
    assert_eq!(store.len(), fresh);
}

#[test]
fn hub_ball_is_planned() {
    let plan = plan_decode(&hub_star(), 1, tag, "", None);
    assert!(plan.sampled > 0 && plan.distinct > 0, "{plan:?}");
}

#[test]
fn ladder_beyond_radius_255_matches_run_local() {
    let net = network_for(&generators::path(700));
    let step = |ball: &Ball<u32>| {
        if ball.radius() < 300 {
            MemoStep::Expand(300)
        } else {
            MemoStep::Done(oi_digest(ball))
        }
    };
    let expected = run_local(&net, |ctx: &NodeCtx<u32>| {
        ctx.ball(1);
        oi_digest(&ctx.ball(300))
    });
    assert_eq!(memo(&net, 1, step).expect("order-invariant"), expected);
}

/// Test error carrying a node-specific payload; the memo must
/// reproduce it exactly by replaying the failing node, never by sharing a
/// stored error across a class.
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
fn fallible_first_error_choice_matches_sequential() {
    // Which nodes fail is order-invariant (a property of the labeled
    // ball); the error *payload* names the concrete failing node.
    for (tag_, g) in generator_grid() {
        let net = network_for(&g);
        for radius in 0..=2 {
            let fails = |ball: &Ball<u32>| *ball.input(ball.center()) % 5 == 3;
            let step = |ball: &Ball<u32>| -> Result<MemoStep<(usize, usize, u64, usize)>, TestErr> {
                if fails(ball) {
                    Err(TestErr::Algo(format!(
                        "uid {} refused",
                        ball.uid(ball.center())
                    )))
                } else {
                    Ok(MemoStep::Done(oi_digest(ball)))
                }
            };
            let reference = run_local_fallible(&net, |ctx: &NodeCtx<u32>| -> Result<_, TestErr> {
                let ball = ctx.ball(radius);
                if fails(&ball) {
                    Err(TestErr::Algo(format!(
                        "uid {} refused",
                        ball.uid(ball.center())
                    )))
                } else {
                    Ok(oi_digest(&ball))
                }
            });
            let memoized = memo_ladder(&net, radius, step);
            assert_eq!(memoized, reference, "{tag_}/r{radius}: fallible memo");
            for threads in THREAD_GRID {
                let plain = Run::default().threads(threads).ladder(&net, radius, step);
                assert_eq!(
                    plain, reference,
                    "{tag_}/r{radius}: fallible plain ladder, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn order_sensitive_step_is_refused_not_mis_shared() {
    // Raw uid values are order-*sensitive*: nodes of the same canonical
    // class return different answers. The memo must detect this (via
    // verify-on-reuse) and refuse. A cycle with constant inputs puts every
    // node in one class, so detection is guaranteed at the first reuse.
    let net = Network::with_ids(
        generators::cycle(24),
        lad_graph::IdAssignment::random_permutation(24, 7),
    )
    .with_inputs(vec![0u32; 24]);
    let step = |ball: &Ball<u32>| MemoStep::Done(ball.uid(ball.center()));
    assert!(
        memo(&net, 1, step).is_err(),
        "memo accepted an order-sensitive step"
    );
    let fallible = |ball: &Ball<u32>| -> Result<MemoStep<u64>, TestErr> {
        Ok(MemoStep::Done(ball.uid(ball.center())))
    };
    assert!(matches!(
        memo_ladder(&net, 1, fallible),
        Err(TestErr::Oi(_))
    ));
    // Training a store runs the same pass, and refuses the same way.
    let mut store = ClassStore::new(SchemaId::new("raw-uid", 0), 1);
    assert!(matches!(
        store.train(&net, tag, fallible),
        Err(StoreError::Conflict(_))
    ));
}

#[test]
fn order_sensitive_expand_ladder_is_refused() {
    // Order sensitivity hiding in the *ladder shape* (how far a node
    // expands depends on its uid value) must be caught as well.
    let net = Network::with_ids(
        generators::cycle(24),
        lad_graph::IdAssignment::random_permutation(24, 11),
    )
    .with_inputs(vec![0u32; 24]);
    let step = |ball: &Ball<u32>| {
        let r = ball.radius();
        if r > (ball.uid(ball.center()) % 3) as usize {
            MemoStep::Done(ball.n())
        } else {
            MemoStep::Expand(r + 1)
        }
    };
    assert!(
        memo(&net, 0, step).is_err(),
        "memo accepted a uid-dependent expansion ladder"
    );
}

/// Builds the `family`-th random graph family at size `n` with `seed`
/// (same grid as `equivalence.rs`).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memo_equals_sequential_on_random_shapes(
        family in 0usize..8,
        n in 8usize..40,
        seed in 0u64..1_000,
        threads in 1usize..10,
        radius in 0usize..4,
    ) {
        let net = network_for(&arb_family(family, n, seed));
        let expected = run_local(&net, |ctx: &NodeCtx<u32>| oi_digest(&ctx.ball(radius)));
        let step = |ball: &Ball<u32>| MemoStep::Done(oi_digest(ball));
        prop_assert_eq!(
            memo(&net, radius, step).expect("order-invariant"),
            expected.clone()
        );
        let plain = Run::default()
            .threads(threads)
            .ladder(&net, radius, |ball| Ok::<_, NotOrderInvariant>(step(ball)));
        prop_assert_eq!(plain.expect("infallible step"), expected);
    }

    #[test]
    fn memo_error_choice_matches_sequential_on_random_failure_sets(
        family in 0usize..8,
        n in 8usize..40,
        seed in 0u64..1_000,
        threads in 2usize..10,
        modulus in 2u32..7,
    ) {
        let net = network_for(&arb_family(family, n, seed));
        let fails = move |ball: &Ball<u32>| (*ball.input(ball.center())).is_multiple_of(modulus);
        let reference = run_local_fallible(&net, |ctx: &NodeCtx<u32>| -> Result<_, TestErr> {
            let ball = ctx.ball(1);
            if fails(&ball) {
                Err(TestErr::Algo(format!("uid {}", ball.uid(ball.center()))))
            } else {
                Ok(oi_digest(&ball))
            }
        });
        let step = |ball: &Ball<u32>| -> Result<MemoStep<(usize, usize, u64, usize)>, TestErr> {
            if fails(ball) {
                Err(TestErr::Algo(format!("uid {}", ball.uid(ball.center()))))
            } else {
                Ok(MemoStep::Done(oi_digest(ball)))
            }
        };
        prop_assert_eq!(memo_ladder(&net, 1, step), reference.clone());
        prop_assert_eq!(Run::default().threads(threads).ladder(&net, 1, step), reference);
    }
}
