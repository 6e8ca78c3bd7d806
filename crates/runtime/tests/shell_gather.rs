//! Differential harness for the shared shell-indexed gather.
//!
//! The memo executor no longer materializes one ball per node: a tile of
//! up to 64 centers shares a single bitset frontier sweep, and each
//! center's [`CanonicalKey`] is serialized incrementally shell by shell.
//! That path is only allowed to exist because it is *word-identical* to
//! the per-ball oracle — this file pins the equivalence from three sides:
//!
//! * `shell_class_keys` versus [`canonicalize_tagged_with`] on a
//!   materialized [`Ball::collect`], across the full deterministic
//!   generator grid × radii × scrambled identifiers;
//! * ladders decoded through the class memo (a [`ChurnMemoLocal`]'s
//!   opening decode, which rides the shell path) versus [`run_local`]
//!   outputs, [`RoundStats`], and first-error choice — under both feature
//!   configurations;
//! * proptests: the class pre-fingerprint is *sound* (equal keys ⇒ equal
//!   fingerprints, so bucketing can only split classes, never merge
//!   them), and the incremental Expand re-keying equals keys rebuilt
//!   from scratch at every rung.

use lad_graph::{builder::GraphBuilder, generators, Graph, NodeId};
use lad_runtime::{
    canonicalize_tagged_with, run_local, run_local_fallible, shell_class_keys,
    shell_class_keys_at_radii, Ball, CanonScratch, ChurnMemoLocal, MemoStep, Network, NodeCtx,
    NotOrderInvariant, RoundStats,
};
use proptest::prelude::*;

/// Same deterministic generator grid as `memo.rs` / `equivalence.rs`.
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

/// Scrambled identifiers and nontrivial inputs: the shell path reproduces
/// uid-*order* canonicalization, so it must survive arbitrary uid values.
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
/// session, in one BFS-ordered pass (as in `memo.rs`).
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

/// Fallible-step error able to absorb the memo's refusal (as in `memo.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
enum TestErr {
    Algo(String),
    Refused(NotOrderInvariant),
}

impl From<NotOrderInvariant> for TestErr {
    fn from(e: NotOrderInvariant) -> Self {
        TestErr::Refused(e)
    }
}

/// An order-invariant digest of a ball (as in `memo.rs`).
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

/// Tentpole equivalence: for every generator, radius, and center, the
/// shared-sweep key is *word-identical* to canonicalizing a freshly
/// materialized ball. Any divergence here would let the memo share
/// outputs across non-isomorphic views.
#[test]
fn shell_keys_match_per_ball_oracle_on_generator_grid() {
    let mut cs = CanonScratch::new();
    for (tag_, g) in generator_grid() {
        let net = network_for(&g);
        let centers: Vec<NodeId> = net.graph().nodes().collect();
        for radius in 0..=3 {
            let keys = shell_class_keys(&net, &centers, radius, tag);
            assert_eq!(keys.len(), centers.len(), "{tag_}: one key per center");
            for (&c, (key, _)) in centers.iter().zip(&keys) {
                let ball = Ball::collect(&net, c, radius);
                let oracle = canonicalize_tagged_with(&ball, tag, &mut cs);
                assert_eq!(
                    key, &oracle,
                    "{tag_}: center {c:?} radius {radius}: shell key diverged"
                );
            }
        }
    }
}

/// The class memo (riding the shared sweep) still computes the same
/// function as `run_local`, bit for bit, on an adaptive Expand ladder.
#[test]
fn memo_over_shell_gather_equals_run_local() {
    for (tag_, g) in generator_grid() {
        let net = network_for(&g);
        // Expand 0 -> 1 -> 3, then report the digest: exercises the
        // incremental shell appends at every rung.
        let step = |ball: &Ball<u32>| match ball.radius() {
            0 => MemoStep::Expand(1),
            1 => MemoStep::Expand(3),
            _ => MemoStep::Done(oi_digest(ball)),
        };
        let reference = |ctx: &NodeCtx<u32>| {
            ctx.ball(0);
            ctx.ball(1);
            oi_digest(&ctx.ball(3))
        };
        let expected: (Vec<_>, RoundStats) = run_local(&net, reference);
        let memoized = memo(&net, 0, step)
            .unwrap_or_else(|e| panic!("{tag_}: refused order-invariant step: {e}"));
        assert_eq!(memoized, expected, "{tag_}: memo vs run_local");
    }
}

/// First-error choice on fallible ladders is unchanged by the shared
/// sweep: smallest failing node index, error value regenerated exactly.
#[test]
fn memo_first_error_choice_survives_shell_gather() {
    for (tag_, g) in generator_grid() {
        let net = network_for(&g);
        let fails = |ball: &Ball<u32>| (*ball.input(ball.center())).is_multiple_of(3);
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
        assert_eq!(memo_ladder(&net, 1, step), reference, "{tag_}: first error");
    }
}

/// Order-*sensitive* steps must still be refused, not silently shared:
/// the shell path changed how classes are found, not what is checked.
#[test]
fn order_sensitive_step_still_refused() {
    // Constant inputs put every cycle node in one class, so detection is
    // guaranteed at the first reuse (as in `memo.rs`).
    let net = Network::with_ids(
        generators::cycle(24),
        lad_graph::IdAssignment::random_permutation(24, 7),
    )
    .with_inputs(vec![0u32; 24]);
    // Raw uid values are not order-invariant.
    let step = |ball: &Ball<u32>| MemoStep::Done(ball.uid(ball.center()));
    let err = memo(&net, 1, step);
    assert!(
        matches!(err, Err(NotOrderInvariant { .. })),
        "uid-leaking step must be refused"
    );
}

/// Builds the `family`-th random graph family at size `n` with `seed`
/// (same grid as `memo.rs` / `equivalence.rs`).
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

    /// Pre-fingerprint soundness: the fingerprint is a function of the
    /// exact key, so equal keys always carry equal fingerprints — the
    /// fingerprint bucketing can split a class across buckets only if
    /// the keys differ, never merge distinct classes. (Collisions the
    /// other way are allowed and cost only a word compare.)
    #[test]
    fn fingerprint_is_sound_for_key_equality(
        family in 0usize..8,
        n in 8usize..48,
        seed in 0u64..1_000,
        radius in 0usize..4,
    ) {
        let net = network_for(&arb_family(family, n, seed));
        let centers: Vec<NodeId> = net.graph().nodes().collect();
        let keys = shell_class_keys(&net, &centers, radius, tag);
        let mut fp_of = std::collections::HashMap::new();
        let mut repeats = 0usize;
        for (key, fp) in &keys {
            match fp_of.entry(key.clone()) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(*fp);
                }
                std::collections::hash_map::Entry::Occupied(slot) => {
                    repeats += 1;
                    prop_assert_eq!(
                        slot.get(), fp,
                        "equal keys must have equal fingerprints"
                    );
                }
            }
        }
        // The families are heavily class-collapsing; make sure the
        // assertion above is actually exercised for most shapes.
        if n > 16 && family != 2 {
            prop_assert!(repeats > 0 || fp_of.len() == keys.len());
        }
    }

    /// Incremental Expand re-keying: walking a strictly increasing
    /// radius ladder by extending the previous rung's shells yields the
    /// same keys (and fingerprints) as keying each radius from scratch.
    #[test]
    fn incremental_rekeying_matches_scratch(
        family in 0usize..8,
        n in 8usize..40,
        seed in 0u64..1_000,
        ladder_seed in 0usize..8,
    ) {
        let net = network_for(&arb_family(family, n, seed));
        let centers: Vec<NodeId> = net.graph().nodes().collect();
        let radii: Vec<usize> = match ladder_seed % 4 {
            0 => vec![0, 1, 2, 3],
            1 => vec![1, 3],
            2 => vec![0, 2, 5],
            _ => vec![2, 3, 4],
        };
        let incremental = shell_class_keys_at_radii(&net, &centers, &radii, tag);
        for (j, &r) in radii.iter().enumerate() {
            let scratch: Vec<_> = shell_class_keys(&net, &centers, r, tag);
            for (i, ladder) in incremental.iter().enumerate() {
                prop_assert_eq!(
                    &ladder[j], &scratch[i],
                    "center {} radius {}: incremental key diverged", i, r
                );
            }
        }
    }
}
