//! Schema-level parallel equivalence: every advice schema's decoder runs
//! through the parallel executor, so its decoded output and round
//! statistics must be **identical** under any worker-thread count.
//!
//! The runtime-level differential harness
//! (`crates/runtime/tests/equivalence.rs`) proves the executors equivalent
//! on arbitrary algorithms; these tests close the loop at the public API:
//! encode once, decode under runs of {1, 2, 5, auto} threads, and compare
//! outputs and stats bitwise. Each decode carries its thread count in its
//! own [`Run`], so the tests share no state.

use std::fmt::Debug;

use local_advice::core::balanced::BalancedOrientationSchema;
use local_advice::core::cluster_coloring::ClusterColoringSchema;
use local_advice::core::decompress::EdgeSubsetCodec;
use local_advice::core::delta_coloring::DeltaColoringSchema;
use local_advice::core::lcl_subexp::LclSubexpSchema;
use local_advice::core::onebit::OneBitSchema;
use local_advice::core::schema::AdviceSchema;
use local_advice::core::splitting::{EdgeColoringSchema, SplittingSchema};
use local_advice::core::three_coloring::ThreeColoringSchema;
use local_advice::graph::{generators, IdAssignment};
use local_advice::lcl::problems::ProperColoring;
use local_advice::runtime::{Network, RoundStats, Run};

/// A run on exactly `threads` chunks, or on the automatic count.
fn run_on(threads: Option<usize>) -> Run {
    threads.map_or(Run::default(), |t| Run::default().threads(t))
}

fn sparse_ids(g: local_advice::graph::Graph, seed: u64) -> Network {
    let n = g.n();
    let space = (n as u64).pow(2).max(16);
    Network::with_ids(g, IdAssignment::random_sparse(n, space, seed))
}

/// Decodes `schema` on `net` under each thread count and asserts the
/// results are bitwise identical.
fn assert_decode_thread_invariant<S>(schema: &S, net: &Network)
where
    S: AdviceSchema,
    S::Output: PartialEq + Debug,
{
    let advice = schema
        .encode(net)
        .unwrap_or_else(|e| panic!("{}: encode failed: {e}", schema.name()));
    let mut reference: Option<(S::Output, RoundStats)> = None;
    for threads in [Some(1), Some(2), Some(5), None] {
        let got = schema
            .decode_with(net, &advice, &run_on(threads))
            .unwrap_or_else(|e| {
                panic!(
                    "{}: decode failed ({threads:?} threads): {e}",
                    schema.name()
                )
            });
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(
                &got,
                want,
                "{}: decode differs with {threads:?} threads",
                schema.name()
            ),
        }
    }
}

#[test]
fn balanced_orientation_decode_is_thread_invariant() {
    let schema = BalancedOrientationSchema::default();
    for (i, g) in [
        generators::cycle(150),
        generators::grid2d(9, 9, true),
        generators::random_bounded_degree(120, 6, 260, 3),
    ]
    .into_iter()
    .enumerate()
    {
        assert_decode_thread_invariant(&schema, &sparse_ids(g, 300 + i as u64));
    }
}

#[test]
fn one_bit_decode_is_thread_invariant() {
    let schema = OneBitSchema::new(BalancedOrientationSchema::new(16, 90), 2);
    assert_decode_thread_invariant(&schema, &sparse_ids(generators::cycle(360), 5));
}

#[test]
fn coloring_decoders_are_thread_invariant() {
    let (g, _) = generators::random_tripartite([30, 30, 30], 5, 170, 12);
    let net = sparse_ids(g, 8);
    assert_decode_thread_invariant(&ClusterColoringSchema::default(), &net);
    assert_decode_thread_invariant(&DeltaColoringSchema::default(), &net);
    assert_decode_thread_invariant(&ThreeColoringSchema::default(), &net);
}

#[test]
fn splitting_and_edge_coloring_decoders_are_thread_invariant() {
    let net = sparse_ids(generators::random_bipartite_regular(20, 4, 31), 10);
    assert_decode_thread_invariant(&SplittingSchema::default(), &net);
    assert_decode_thread_invariant(&EdgeColoringSchema::default(), &net);
}

#[test]
fn lcl_subexp_decode_is_thread_invariant() {
    let lcl = ProperColoring::new(3);
    let schema = LclSubexpSchema::new(&lcl, 25, 50_000_000);
    assert_decode_thread_invariant(&schema, &sparse_ids(generators::cycle(200), 77));
}

#[test]
fn decompression_round_trip_is_thread_invariant() {
    let g = generators::random_bounded_degree(150, 7, 350, 9);
    let m = g.m();
    let net = sparse_ids(g, 6);
    let subset: Vec<bool> = (0..m).map(|i| i % 5 < 2).collect();
    let codec = EdgeSubsetCodec::default();
    let mut reference = None;
    for threads in [Some(1), Some(3), None] {
        let got = codec
            .round_trip_with(&net, &subset, &run_on(threads))
            .expect("round trip");
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{threads:?} threads"),
        }
    }
}
