//! Cross-crate property tests: the LOCAL-model contract (outputs are
//! functions of views), locality of the decoders, the advice/no-advice
//! separation, and Section 8's finite table of an order-invariant
//! algorithm.

use local_advice::baselines::no_advice;
use local_advice::core::balanced::BalancedOrientationSchema;
use local_advice::core::schema::AdviceSchema;
use local_advice::graph::{generators, GraphBuilder, IdAssignment, NodeId};
use local_advice::runtime::canonical::canonicalize;
use local_advice::runtime::messaging::{run_rounds, FloodDistance};
use local_advice::runtime::{
    run_gathered_robust, run_local, Ball, ClassStore, ClassVerdict, FaultPlan, GatherError,
    MemoStep, Network, PerfectLink, SchemaId,
};
use proptest::prelude::*;
use std::convert::Infallible;

fn arb_connected_network() -> impl Strategy<Value = Network> {
    (5usize..35, 0u64..300).prop_flat_map(|(n, seed)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..2 * n).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for i in 1..n {
                b.add_edge(NodeId((i - 1) as u32), NodeId(i as u32));
            }
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v));
                }
            }
            Network::with_ids(b.build(), IdAssignment::random_permutation(n, seed))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ball-view executor and the explicit message-passing simulator
    /// agree on BFS distances — two independent realizations of the LOCAL
    /// model computing the same thing.
    #[test]
    fn ball_views_and_messaging_agree(net in arb_connected_network()) {
        let n = net.graph().n();
        let sources: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let msg_net = net.with_inputs(sources.clone());
        let (via_messages, _) = run_rounds(&msg_net, &FloodDistance, 4 * n).expect("terminates");
        let (via_balls, _) = run_local(&msg_net, |ctx| {
            // Expand until the source is visible, then report the distance.
            let mut r = 0;
            loop {
                let ball = ctx.ball(r);
                if let Some(v) = ball.graph().nodes().find(|&v| *ball.input(v)) {
                    return Some(ball.dist(v));
                }
                if ball.n() == ctx.n() {
                    return None;
                }
                r += 1;
            }
        });
        for v in 0..n {
            prop_assert_eq!(via_messages[v], via_balls[v]);
        }
    }

    /// Decoder locality: rounds never exceed the schema's published radius,
    /// on any graph, under any identifier assignment.
    #[test]
    fn decoder_locality_contract(net in arb_connected_network()) {
        let schema = BalancedOrientationSchema::new(10, 7);
        let advice = schema.encode(&net).expect("encode");
        let (o, stats) = schema.decode(&net, &advice).expect("decode");
        prop_assert!(o.is_almost_balanced(net.graph()));
        prop_assert!(stats.rounds() <= schema.decode_radius());
    }

    /// Gathering views by message flooding ([`run_gathered_robust`] on a
    /// [`PerfectLink`], with no spare round) equals direct ball collection
    /// ([`Ball::collect`]) — for any connected topology, any permuted
    /// identifier assignment, any radius. The two paths share no code above
    /// the graph layer, so agreement pins the LOCAL-model contract from
    /// both sides.
    #[test]
    fn gathered_views_equal_collected_balls(net in arb_connected_network(), r in 0usize..4) {
        let (gathered, report) = run_gathered_robust(&net, r, r, &mut PerfectLink, |ball| {
            canonicalize(ball, |_| 0)
        })
        .expect("a perfect link cannot fail");
        prop_assert_eq!(report.rounds_used, r);
        prop_assert_eq!(report.faults.total_faults(), 0);
        for v in net.graph().nodes() {
            let direct = canonicalize(&Ball::collect(&net, v, r), |_| 0);
            prop_assert_eq!(&gathered[v.index()], &direct, "node {:?} radius {}", v, r);
        }
    }

    /// The fault-tolerant gather agrees with [`Ball::collect`] too, even
    /// while healing a seeded drop plan — and fails loudly (never wrongly)
    /// when it cannot heal in time.
    #[test]
    fn robust_gather_equals_collected_balls_or_fails_loudly(
        net in arb_connected_network(),
        r in 0usize..3,
        seed in 0u64..64,
    ) {
        let plan = FaultPlan::new(seed).drop_rate(0.2);
        let mut transport = plan.start();
        match run_gathered_robust(&net, r, r + 20, &mut transport, |ball| {
            canonicalize(ball, |_| 0)
        }) {
            Ok((gathered, report)) => {
                prop_assert!(report.rounds_used <= r + 20);
                for v in net.graph().nodes() {
                    let direct = canonicalize(&Ball::collect(&net, v, r), |_| 0);
                    prop_assert_eq!(&gathered[v.index()], &direct);
                }
            }
            Err(e) => {
                // Typed degradation is allowed; silence is not. (With a
                // 20-round slack this branch is rare but legitimate.)
                prop_assert!(matches!(e, GatherError::PartialView { .. }));
            }
        }
    }

    /// The no-advice baseline pays (at least) the graph radius on cycles;
    /// the advice decoder does not.
    #[test]
    fn advice_separation_on_cycles(k in 18usize..60) {
        let n = 2 * k; // even so both baseline and schema apply
        let net = Network::with_ids(
            generators::cycle(n),
            IdAssignment::random_permutation(n, k as u64),
        );
        let (o, base_stats) = no_advice::balanced_orientation_no_advice(&net);
        prop_assert!(o.is_almost_balanced(net.graph()));
        prop_assert!(base_stats.rounds() >= n / 2);
        let schema = BalancedOrientationSchema::default();
        let advice = schema.encode(&net).unwrap();
        let (_, stats) = schema.decode(&net, &advice).unwrap();
        prop_assert!(stats.rounds() <= schema.decode_radius());
        prop_assert!(stats.rounds() < base_stats.rounds());
    }
}

/// Every ordering of the identifiers `1..=n`.
fn orderings(n: usize) -> Vec<Vec<u64>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in orderings(n - 1) {
        for at in 0..n {
            let mut uids = shorter.clone();
            uids.insert(at, n as u64);
            out.push(uids);
        }
    }
    out
}

/// Section 8: an order-invariant local algorithm is a finite table from
/// canonical views to outputs. A radius-`r` view in a graph of maximum
/// degree 2 is a path segment of at most `2r + 1` nodes or a whole cycle,
/// so one class store trained on every path of at most `2r + 2` nodes and
/// every cycle of at most `max(3, 2r + 1)` nodes, under every identifier
/// order, must answer every node of any such network exactly as the
/// algorithm does — here fresh sparse-ID cycles, paths and their disjoint
/// unions. Training on those networks adds no class, so the store's size
/// depends on `r` alone.
#[test]
fn order_invariant_algorithm_is_a_finite_class_table() {
    let local_min = |ball: &Ball| {
        let me = ball.uid(ball.center());
        ball.graph().nodes().all(|v| ball.uid(v) >= me)
    };
    let step = |ball: &Ball| Ok::<_, Infallible>(MemoStep::Done(local_min(ball)));
    let tag = |_: &(), words: &mut Vec<u64>| words.push(0);
    let mut sizes = Vec::new();
    for r in 0..=2usize {
        let mut store = ClassStore::new(SchemaId::new("local-min", 0), r);
        let witnesses = (1..=2 * r + 2)
            .map(generators::path)
            .chain((3..=(2 * r + 1).max(3)).map(generators::cycle));
        for g in witnesses {
            for uids in orderings(g.n()) {
                let net = Network::with_ids(g.clone(), IdAssignment::from_uids(uids));
                store
                    .train(&net, tag, step)
                    .expect("local-min is order-invariant");
            }
        }
        for seed in 0..5 {
            for g in [
                generators::cycle(40),
                generators::path(23),
                generators::disjoint_union(&[
                    generators::cycle(4),
                    generators::cycle(5),
                    generators::path(1),
                    generators::path(9),
                ]),
            ] {
                let n = g.n();
                let net = Network::with_ids(g, IdAssignment::random_sparse(n, 10_000, seed));
                for v in net.graph().nodes() {
                    let ball = Ball::collect(&net, v, r);
                    assert_eq!(
                        store.get(&canonicalize(&ball, |_| 0)),
                        Some(&ClassVerdict::Done(local_min(&ball))),
                        "radius {r}, seed {seed}, node {v:?}"
                    );
                }
                let fresh = store.train(&net, tag, step).expect("order-invariant");
                assert_eq!(
                    fresh, 0,
                    "radius {r}, seed {seed}: a fresh network added classes"
                );
            }
        }
        sizes.push(store.len());
    }
    assert!(
        sizes.windows(2).all(|w| w[0] < w[1]),
        "table sizes grow with the radius: {sizes:?}"
    );
    assert!(sizes[2] < 1000, "table stays small: {sizes:?}");
}
