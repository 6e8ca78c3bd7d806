//! Property-based invariants of [`RoundStats`] and the scratch-backed
//! ball source.
//!
//! * Sequential composition of round statistics is associative and has
//!   [`RoundStats::zero`] as identity, `rounds()` is the max of the
//!   per-node radii, and `mean_rounds()` is bracketed by the min and max.
//! * A [`Run`]'s balls equal [`run_local`]'s reference balls at every
//!   radius, regardless of the order radii are requested in (the
//!   per-node membership's expansion and prefix paths).

use lad_graph::{generators, NodeId};
use lad_runtime::{run_local, Ball, Network, NodeCtx, RoundStats, Run};
use proptest::prelude::*;

fn arb_stats(n: usize) -> impl Strategy<Value = RoundStats> {
    proptest::collection::vec(0usize..12, n..=n).prop_map(RoundStats::from_per_node)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_is_associative_with_zero_identity(
        (a, b, c) in (2usize..30).prop_flat_map(|n| (arb_stats(n), arb_stats(n), arb_stats(n))),
    ) {
        let n = a.n();
        prop_assert_eq!(a.sequential(&RoundStats::zero(n)), a.clone());
        prop_assert_eq!(RoundStats::zero(n).sequential(&a), a.clone());
        prop_assert_eq!(
            a.sequential(&b).sequential(&c),
            a.sequential(&b.sequential(&c))
        );
        // Composition in the model is also commutative (radii add per node).
        prop_assert_eq!(a.sequential(&b), b.sequential(&a));
    }

    #[test]
    fn rounds_is_max_and_mean_is_bracketed(stats in (1usize..40).prop_flat_map(arb_stats)) {
        let per_node = stats.per_node();
        let max = per_node.iter().copied().max().unwrap_or(0);
        let min = per_node.iter().copied().min().unwrap_or(0);
        prop_assert_eq!(stats.rounds(), max);
        for (i, &r) in per_node.iter().enumerate() {
            prop_assert_eq!(stats.rounds_at(NodeId::from_index(i)), r);
        }
        let mean = stats.mean_rounds();
        prop_assert!(mean >= min as f64 - 1e-12, "mean {mean} below min {min}");
        prop_assert!(mean <= max as f64 + 1e-12, "mean {mean} above max {max}");
        // Sequential composition adds means exactly (same node count).
        let doubled = stats.sequential(&stats);
        prop_assert!((doubled.mean_rounds() - 2.0 * mean).abs() < 1e-9);
    }

    #[test]
    fn scratch_balls_equal_reference_at_every_radius(
        family in 0usize..5,
        n in 4usize..28,
        seed in 0u64..500,
        // Radii every node requests, in arbitrary (possibly repeating,
        // non-monotone) order.
        radii in proptest::collection::vec(0usize..5, 1..8),
    ) {
        let g = match family {
            0 => generators::path(n.max(2)),
            1 => generators::cycle(n.max(3)),
            2 => generators::random_tree(n.max(2), seed),
            3 => generators::random_bounded_degree(n, 4, 2 * n, seed),
            _ => {
                let w = (n as f64).sqrt().ceil() as usize;
                generators::grid2d(w.max(2), w.max(2), seed % 2 == 0)
            }
        };
        let inputs: Vec<u16> = (0..g.n()).map(|i| (i % 7) as u16).collect();
        let net = Network::with_identity_ids(g).with_inputs(inputs);
        let algo = |ctx: &NodeCtx<u16>| -> Vec<Ball<u16>> {
            radii.iter().map(|&r| ctx.ball(r)).collect()
        };
        prop_assert_eq!(Run::default().threads(1).nodes(&net, algo), run_local(&net, algo));
    }
}
