//! A ladder's view is the ball it replaces. [`Run::ladder`] hands each
//! rung a [`BallView`] that reads the network in place; every read it
//! answers through [`LocalView`] must equal what the collected reference
//! ball answers for the same node and radius (`run_local`'s `ctx.ball`,
//! which is `Ball::collect_reference`):
//!
//! * the members in BFS order, with their distances and global names;
//! * each member's neighbours over known edges, with edges between two
//!   frontier nodes absent;
//! * identifiers, inputs, true degrees and `knows_all_edges_of`.
//!
//! The grid covers every node at radii 0–4 and at radius 9, on rungs
//! gathered afresh and on rungs grown in place by `Expand`, at one and at
//! three chunks; a proptest leg runs the same comparison on random
//! graphs. A read of a node outside the view must panic, in debug and
//! release builds alike.

use lad_graph::{generators, Graph, GraphBuilder, IdAssignment, NodeId};
use lad_runtime::{run_local, BallView, LocalView, MemoStep, Network, Run};
use proptest::prelude::*;
use std::convert::Infallible;

/// One member of a view, as every [`LocalView`] read reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Member {
    global: NodeId,
    dist: usize,
    uid: u64,
    input: u32,
    degree: usize,
    knows_all: bool,
    /// Neighbours over known edges, sorted (the trait leaves the order to
    /// the view).
    neighbors: Vec<NodeId>,
}

/// A whole view, read through the trait: its radius, its center, and its
/// members in local-index (BFS) order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    radius: usize,
    center: NodeId,
    members: Vec<Member>,
}

fn snapshot(view: &impl LocalView<u32>) -> Snapshot {
    let members = (0..view.n())
        .map(NodeId::from_index)
        .map(|v| {
            let mut neighbors: Vec<NodeId> = view.neighbors(v).collect();
            neighbors.sort_unstable();
            Member {
                global: view.global_node(v),
                dist: view.dist(v),
                uid: view.uid(v),
                input: *view.input(v),
                degree: view.global_degree(v),
                knows_all: view.knows_all_edges_of(v),
                neighbors,
            }
        })
        .collect();
    Snapshot {
        radius: view.radius(),
        center: view.center(),
        members,
    }
}

/// Checks a snapshot against the gathered-view contract on its own,
/// independently of the reference ball: the center is local 0 at distance
/// 0, distances never decrease in local order, no frontier node lists a
/// frontier neighbour, neighbour lists are symmetric, and an inner node
/// knows all its edges.
fn assert_well_formed(s: &Snapshot) {
    assert_eq!(s.center, NodeId(0));
    assert_eq!(s.members[0].dist, 0);
    assert!(s.members.windows(2).all(|w| w[0].dist <= w[1].dist));
    for (i, m) in s.members.iter().enumerate() {
        let v = NodeId::from_index(i);
        assert_eq!(m.knows_all, m.dist < s.radius, "member {i}");
        if m.knows_all {
            assert_eq!(m.neighbors.len(), m.degree, "inner member {i}");
        }
        for &u in &m.neighbors {
            let other = &s.members[u.index()];
            assert!(
                m.dist < s.radius || other.dist < s.radius,
                "frontier edge {i}–{} is visible",
                u.index()
            );
            assert!(
                other.neighbors.contains(&v),
                "edge {i}–{} is one-sided",
                u.index()
            );
        }
    }
}

/// The reference: every node's collected ball at `radius`, read through
/// the same trait.
fn reference(net: &Network<u32>, radius: usize) -> Vec<Snapshot> {
    run_local(net, |ctx| snapshot(&ctx.ball(radius))).0
}

/// Every node's ladder view at `radius`, on a one-rung ladder.
fn ladder_views(net: &Network<u32>, radius: usize, threads: usize) -> Vec<Snapshot> {
    Run::default()
        .threads(threads)
        .ladder(net, radius, |view| {
            Ok::<_, Infallible>(MemoStep::Done(snapshot(view)))
        })
        .expect("infallible")
        .0
}

fn with_inputs(net: Network) -> Network<u32> {
    let inputs = (0..net.graph().n() as u32)
        .map(|i| i.wrapping_mul(7) % 13)
        .collect();
    net.with_inputs(inputs)
}

fn random_ids(g: Graph, seed: u64) -> Network<u32> {
    let n = g.n();
    with_inputs(Network::with_ids(
        g,
        IdAssignment::random_permutation(n, seed),
    ))
}

fn identity_ids(g: Graph) -> Network<u32> {
    with_inputs(Network::with_identity_ids(g))
}

fn grid() -> Vec<(&'static str, Network<u32>)> {
    vec![
        ("cycle", random_ids(generators::cycle(13), 1)),
        ("path", random_ids(generators::path(11), 2)),
        ("open-grid", random_ids(generators::grid2d(5, 4, false), 3)),
        (
            "torus-identity",
            identity_ids(generators::grid2d(6, 6, true)),
        ),
        (
            "torus-random",
            random_ids(generators::grid2d(6, 6, true), 4),
        ),
        ("complete", random_ids(generators::complete(6), 5)),
        ("star", random_ids(generators::star(7), 6)),
        (
            "random-bounded-degree",
            random_ids(generators::random_bounded_degree(40, 4, 60, 9), 7),
        ),
        (
            "disjoint-union",
            random_ids(
                generators::disjoint_union(&[
                    generators::cycle(5),
                    generators::path(4),
                    GraphBuilder::new(2).build(),
                ]),
                8,
            ),
        ),
    ]
}

const RADII: [usize; 6] = [0, 1, 2, 3, 4, 9];

#[test]
fn ladder_views_read_like_reference_balls() {
    for (name, net) in grid() {
        for radius in RADII {
            let expected = reference(&net, radius);
            expected.iter().for_each(assert_well_formed);
            for threads in [1, 3] {
                assert_eq!(
                    ladder_views(&net, radius, threads),
                    expected,
                    "{name}, radius {radius}, {threads} chunks"
                );
            }
        }
    }
}

#[test]
fn rungs_grown_in_place_read_like_reference_balls() {
    // Every node climbs 0 → 1 → … → 4 → 9: each rung after the first is a
    // membership grown by `Expand`, not gathered afresh.
    for (name, net) in grid() {
        let expected: Vec<Vec<Snapshot>> = RADII.iter().map(|&r| reference(&net, r)).collect();
        let (climbed, stats) = Run::default()
            .threads(1)
            .ladder(&net, 0, |view| {
                let rung = RADII
                    .iter()
                    .position(|&r| r == view.radius())
                    .expect("the ladder visits the listed radii");
                let node = view.global_node(view.center()).index();
                assert_eq!(
                    snapshot(view),
                    expected[rung][node],
                    "{name}, node {node}, rung at radius {}",
                    view.radius()
                );
                Ok::<_, Infallible>(match RADII.get(rung + 1) {
                    Some(&next) => MemoStep::Expand(next),
                    None => MemoStep::Done(view.n()),
                })
            })
            .expect("infallible");
        let last = RADII[RADII.len() - 1];
        assert!(stats.per_node().iter().all(|&r| r == last), "{name}");
        let sizes: Vec<usize> = expected[RADII.len() - 1]
            .iter()
            .map(|s| s.members.len())
            .collect();
        assert_eq!(climbed, sizes, "{name}");
    }
}

/// Runs `read` on the first ladder view of a 6×6 torus with the local
/// index just past the view's last member.
fn read_past_membership(read: impl Fn(&BallView<u32>, NodeId) + Sync) {
    let net = random_ids(generators::grid2d(6, 6, true), 4);
    let _ = Run::default().threads(1).ladder(&net, 2, |view| {
        read(view, NodeId::from_index(view.n()));
        Ok::<_, Infallible>(MemoStep::Done(()))
    });
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn uid_outside_the_view_panics() {
    read_past_membership(|view, v| {
        view.uid(v);
    });
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn input_outside_the_view_panics() {
    read_past_membership(|view, v| {
        view.input(v);
    });
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn degree_outside_the_view_panics() {
    read_past_membership(|view, v| {
        view.global_degree(v);
    });
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn dist_outside_the_view_panics() {
    read_past_membership(|view, v| {
        view.dist(v);
    });
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn edge_knowledge_outside_the_view_panics() {
    read_past_membership(|view, v| {
        view.knows_all_edges_of(v);
    });
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn global_name_outside_the_view_panics() {
    read_past_membership(|view, v| {
        view.global_node(v);
    });
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn neighbors_outside_the_view_panic() {
    read_past_membership(|view, v| {
        view.neighbors(v).for_each(drop);
    });
}

/// A connected-ish random graph with random identifiers and inputs (the
/// shape of `arb_network` in `lad-core`'s `encoder_memo.rs`).
fn arb_network() -> impl Strategy<Value = Network<u32>> {
    (4usize..40, 0u64..500).prop_flat_map(|(n, seed)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for i in 1..n {
                b.add_edge(NodeId((i - 1) as u32), NodeId(i as u32));
            }
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v));
                }
            }
            random_ids(b.build(), seed)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ladder_views_read_like_reference_balls_on_random_graphs(
        net in arb_network(),
        radius in 0usize..6,
        threads in 1usize..4,
    ) {
        let expected = reference(&net, radius);
        expected.iter().for_each(assert_well_formed);
        prop_assert_eq!(ladder_views(&net, radius, threads), expected);
    }
}
