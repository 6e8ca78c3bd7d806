//! Differential harness: every executor path computes the *same function*.
//!
//! The sequential reference [`run_local`] defines the LOCAL semantics.
//! [`Run::nodes`] and [`Run::try_nodes`] on every thread count, and a
//! [`ChurnLocal`] session's opening run, must reproduce its outputs and
//! [`RoundStats`] **bit for bit** on every graph family — algorithms here
//! return entire [`Ball`] values so the comparison covers view subgraphs,
//! identifier/input/degree tables, and global-name maps, not just
//! summaries.
//!
//! Coverage:
//! * a deterministic generator grid (paths, cycles, trees, grids, random
//!   regular, random bounded-degree, subexponential-growth torus patches,
//!   disconnected unions, …) × four algorithm shapes (fixed radius,
//!   adaptive radius growth, uid-dependent mixed radii, non-monotone radius
//!   sequences) × thread counts {1, 2, 3, 8};
//! * proptest-driven random graph shapes, radii, and thread counts;
//! * fallible executions, including proptest-driven simultaneous failures,
//!   which must report the same first-in-node-order error everywhere.

use lad_graph::{builder::GraphBuilder, generators, Graph};
use lad_runtime::{run_local, run_local_fallible, Ball, ChurnLocal, Network, NodeCtx, Run};
use proptest::prelude::*;

const THREAD_GRID: [usize; 4] = [1, 2, 3, 8];

/// The deterministic generator grid. Names are for failure messages.
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
        // Subexponential growth: a torus patch grows polynomially in r.
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

/// Wraps a graph with nontrivial identifiers and inputs so differences in
/// any ball table would show up.
fn network_for(g: &Graph) -> Network<u32> {
    let inputs: Vec<u32> = (0..g.n())
        .map(|i| (i as u32).wrapping_mul(7) % 13)
        .collect();
    let ids = lad_graph::IdAssignment::random_permutation(g.n(), 0xC0FFEE);
    Network::with_ids(g.clone(), ids).with_inputs(inputs)
}

/// Asserts that every executor path reproduces `run_local`'s outputs and
/// round statistics exactly: across the thread grid, and through a churn
/// session's opening run.
fn assert_all_paths_equal<Out>(
    tag: &str,
    net: &Network<u32>,
    algo: impl Fn(&NodeCtx<u32>) -> Out + Sync,
) where
    Out: PartialEq + std::fmt::Debug + Send,
{
    let reference = run_local(net, &algo);
    for threads in THREAD_GRID {
        assert_eq!(
            Run::default().threads(threads).nodes(net, &algo),
            reference,
            "{tag}: par, {threads} threads"
        );
    }
    // A churn session's opening run gathers every view through the one
    // scratch it keeps for the whole session.
    let session = ChurnLocal::new(net.clone(), reference.1.rounds(), &algo);
    assert_eq!(session.outputs(), &reference.0[..], "{tag}: churn");
    assert_eq!(session.round_stats(), reference.1, "{tag}: churn rounds");
}

#[test]
fn fixed_radius_balls_identical_everywhere() {
    for (tag, g) in generator_grid() {
        let net = network_for(&g);
        for radius in 0..=3 {
            assert_all_paths_equal(&format!("{tag}/r{radius}"), &net, |ctx: &NodeCtx<u32>| {
                ctx.ball(radius)
            });
        }
    }
}

#[test]
fn adaptive_radius_growth_identical_everywhere() {
    // Grow until the ball covers ≥ 12 nodes or stops growing: every
    // request of a node regathers on its chunk's shared scratch.
    for (tag, g) in generator_grid() {
        let net = network_for(&g);
        assert_all_paths_equal(tag, &net, |ctx: &NodeCtx<u32>| -> (usize, Ball<u32>) {
            let mut r = 0;
            let mut ball = ctx.ball(0);
            loop {
                let bigger = ctx.ball(r + 1);
                if bigger.n() >= 12 || bigger.n() == ball.n() {
                    return (r + 1, bigger);
                }
                r += 1;
                ball = bigger;
            }
        });
    }
}

#[test]
fn mixed_radii_identical_everywhere() {
    // Different nodes request different radii (uid-dependent), so one
    // worker's scratch gathers balls of heterogeneous radii back to back.
    for (tag, g) in generator_grid() {
        let net = network_for(&g);
        assert_all_paths_equal(tag, &net, |ctx: &NodeCtx<u32>| {
            ctx.ball((ctx.uid() % 4) as usize)
        });
    }
}

#[test]
fn non_monotone_radius_sequences_identical_everywhere() {
    // One context asking 1, then 3, then 2, then 0: memo expansion followed
    // by prefix slicing.
    for (tag, g) in generator_grid() {
        let net = network_for(&g);
        assert_all_paths_equal(tag, &net, |ctx: &NodeCtx<u32>| {
            let a = ctx.ball(1);
            let b = ctx.ball(3);
            let c = ctx.ball(2);
            let d = ctx.ball(0);
            (a, b, c, d)
        });
    }
}

#[test]
fn fallible_success_and_failure_identical_everywhere() {
    for (tag, g) in generator_grid() {
        let net = network_for(&g);
        // uid % 5 == 0 fails; others return their radius-2 ball.
        let algo = |ctx: &NodeCtx<u32>| -> Result<Ball<u32>, String> {
            if ctx.uid().is_multiple_of(5) {
                Err(format!("uid {} refused", ctx.uid()))
            } else {
                Ok(ctx.ball(2))
            }
        };
        let reference = run_local_fallible(&net, algo);
        for threads in THREAD_GRID {
            assert_eq!(
                Run::default().threads(threads).try_nodes(&net, algo),
                reference,
                "{tag}: fallible par, {threads} threads"
            );
        }
    }
}

/// Deterministic regression: many nodes fail at once, scattered across
/// chunk boundaries for every thread count in the grid; all paths must
/// report the error of the smallest failing node index.
#[test]
fn simultaneous_failures_report_first_in_node_order() {
    let net = network_for(&generators::cycle(64));
    let failing = [5usize, 6, 17, 31, 32, 33, 63];
    let algo = |ctx: &NodeCtx<u32>| -> Result<usize, String> {
        let idx = ctx.node().index();
        if failing.contains(&idx) {
            Err(format!("node {idx} failed"))
        } else {
            Ok(ctx.ball(1).n())
        }
    };
    let expected = "node 5 failed".to_string();
    assert_eq!(run_local_fallible(&net, algo).unwrap_err(), expected);
    for threads in [1, 2, 3, 4, 8, 16, 64] {
        assert_eq!(
            Run::default()
                .threads(threads)
                .try_nodes(&net, algo)
                .unwrap_err(),
            expected,
            "threads = {threads}"
        );
    }
}

/// Builds the `family`-th random graph family at size `n` with `seed`.
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
    fn parallel_equals_sequential_on_random_shapes(
        family in 0usize..8,
        n in 8usize..40,
        seed in 0u64..1_000,
        threads in 1usize..10,
        radius in 0usize..4,
    ) {
        let net = network_for(&arb_family(family, n, seed));
        let algo = |ctx: &NodeCtx<u32>| ctx.ball(radius);
        let reference = run_local(&net, algo);
        prop_assert_eq!(&Run::default().threads(threads).nodes(&net, algo), &reference);
        let session = ChurnLocal::new(net.clone(), radius, algo);
        prop_assert_eq!(session.outputs(), &reference.0[..]);
        prop_assert_eq!(session.round_stats(), reference.1);
    }

    #[test]
    fn parallel_error_choice_matches_sequential_on_random_failure_sets(
        family in 0usize..8,
        n in 8usize..40,
        seed in 0u64..1_000,
        threads in 2usize..10,
        modulus in 2u64..7,
    ) {
        let net = network_for(&arb_family(family, n, seed));
        let algo = |ctx: &NodeCtx<u32>| -> Result<usize, u64> {
            if ctx.uid().is_multiple_of(modulus) {
                Err(ctx.uid())
            } else {
                Ok(ctx.ball(1).n())
            }
        };
        let reference = run_local_fallible(&net, algo);
        prop_assert_eq!(Run::default().threads(threads).try_nodes(&net, algo), reference);
    }
}
