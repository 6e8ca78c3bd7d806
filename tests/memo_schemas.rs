//! Schema-level differential tests for the decode ladders.
//!
//! The runtime-level harness (`crates/runtime/tests/memo.rs`) proves
//! `Run::ladder` ≡ `run_local` on arbitrary steps; these tests close the
//! loop at the public schema API: for every schema that decodes through a
//! ladder, the production `decode` must match the schema's
//! `decode_reference` oracle (which runs the unshared per-node reference
//! executor) — outputs *and* round statistics, on honest advice and on
//! tampered advice (same rejection, same node), under every thread count.
//! Each decode carries its thread count in its own [`Run`], so the tests
//! share no state.

use local_advice::core::advice::AdviceMap;
use local_advice::core::balanced::BalancedOrientationSchema;
use local_advice::core::bits::{bit_width, BitString};
use local_advice::core::cluster_coloring::ClusterColoringSchema;
use local_advice::core::decompress::EdgeSubsetCodec;
use local_advice::core::delta_coloring::DeltaColoringSchema;
use local_advice::core::schema::AdviceSchema;
use local_advice::graph::{generators, Graph, IdAssignment, NodeId};
use local_advice::runtime::{Network, Run};

/// A run on exactly `threads` chunks, or on the automatic count.
fn run_on(threads: Option<usize>) -> Run {
    threads.map_or(Run::default(), |t| Run::default().threads(t))
}

fn sparse_ids(g: Graph, seed: u64) -> Network {
    let n = g.n();
    let space = (n as u64).pow(2).max(16);
    Network::with_ids(g, IdAssignment::random_sparse(n, space, seed))
}

/// Families with shared structure (memo hits), scrambled-uid randomness
/// (memo misses), and wrap-around tori (every ball overlaps itself).
fn family_grid() -> Vec<Network> {
    vec![
        sparse_ids(generators::cycle(150), 41),
        sparse_ids(generators::path(150), 42),
        sparse_ids(generators::grid2d(9, 9, true), 43),
        sparse_ids(generators::grid2d(14, 14, true), 44),
        sparse_ids(generators::random_bounded_degree(120, 6, 260, 3), 45),
        Network::with_identity_ids(generators::grid2d(12, 12, true)),
    ]
}

#[test]
fn cluster_memo_decode_matches_reference_oracle() {
    let schema = ClusterColoringSchema::default();
    for net in family_grid() {
        let advice = schema.encode(&net).expect("encode");
        let expected = schema.decode_reference(&net, &advice).expect("reference");
        for threads in [Some(1), Some(2), Some(5), None] {
            let (output, stats) = schema
                .decode_with(&net, &advice, &run_on(threads))
                .expect("ladder decode");
            assert_eq!((output, stats), expected, "{threads:?} threads");
        }
    }
}

#[test]
fn balanced_memo_decode_matches_reference_oracle() {
    let schema = BalancedOrientationSchema::default();
    for net in family_grid() {
        let advice = schema.encode(&net).expect("encode");
        let expected = schema.decode_reference(&net, &advice).expect("reference");
        for threads in [Some(1), Some(2), Some(5), None] {
            let (output, stats) = schema
                .decode_with(&net, &advice, &run_on(threads))
                .expect("ladder decode");
            assert_eq!((output, stats), expected, "{threads:?} threads");
        }
    }
}

#[test]
fn tampered_advice_rejected_identically_on_both_paths() {
    // Tampering must be detected by the production decode with *exactly*
    // the error the reference path reports — same variant, same node:
    // the first failing node in node-index order.
    let schema = ClusterColoringSchema::default();
    for net in family_grid() {
        let advice = schema.encode(&net).expect("encode");
        for victim in [0usize, net.graph().n() / 2] {
            let mut tampered = advice.clone();
            // A 1-bit string has the wrong width wherever a decoder treats
            // the victim as a cluster center.
            tampered.set(lad_runtime_node(victim), BitString::one_bit(true));
            let want = schema.decode_reference(&net, &tampered);
            let got = schema.decode(&net, &tampered);
            assert_eq!(got.is_ok(), want.is_ok(), "victim {victim}");
            if let (Err(g), Err(w)) = (&got, &want) {
                assert_eq!(g, w, "victim {victim}: different rejections");
            }
        }
    }
}

fn lad_runtime_node(i: usize) -> local_advice::graph::NodeId {
    local_advice::graph::NodeId(u32::try_from(i).expect("test sizes fit u32"))
}

/// Three ways to corrupt balanced-orientation advice, each where the
/// network has a node it applies to: a holder's records with one bit too
/// many (no longer a whole number of records), a record naming a slot past
/// the node's last pair, and bits at a degree-1 path end (which has no
/// slot at all).
fn balanced_corruptions(net: &Network, advice: &AdviceMap) -> Vec<(&'static str, AdviceMap)> {
    let g = net.graph();
    let mut out = Vec::new();
    if let Some(holder) = advice.holders().next() {
        let mut bits = advice.get(holder);
        bits.push(true);
        let mut tampered = advice.clone();
        tampered.set(holder, bits);
        out.push(("wrong record length", tampered));
    }
    // A slot field is `bit_width(pairs)` wide, so slot `pairs` is writable
    // only where `pairs` is not a power of two.
    let overflows = |v: &NodeId| {
        let pairs = g.degree(*v) / 2;
        pairs >= 1 && 1usize << bit_width(pairs) > pairs
    };
    let victim = advice
        .holders()
        .find(overflows)
        .or_else(|| g.nodes().find(overflows));
    if let Some(v) = victim {
        let pairs = g.degree(v) / 2;
        let mut bits = BitString::new();
        bits.push_uint(pairs as u64, bit_width(pairs));
        bits.push(true);
        let mut tampered = advice.clone();
        tampered.set(v, bits);
        out.push(("out-of-range slot", tampered));
    }
    if let Some(end) = g.nodes().find(|&v| g.degree(v) == 1) {
        let mut tampered = advice.clone();
        tampered.set(end, BitString::parse("10"));
        out.push(("bits at a path end", tampered));
    }
    out
}

#[test]
fn tampered_balanced_advice_rejected_identically_on_both_paths() {
    // Each corruption must leave the ladder decode and the reference
    // decode in agreement: the same orientation and round statistics, or
    // the same error (variant, node and message).
    let schema = BalancedOrientationSchema::default();
    let mut kinds = std::collections::BTreeSet::new();
    for net in family_grid() {
        let advice = schema.encode(&net).expect("encode");
        for (kind, tampered) in balanced_corruptions(&net, &advice) {
            kinds.insert(kind);
            let want = schema.decode_reference(&net, &tampered);
            for threads in [Some(1), Some(2), None] {
                let got = schema.decode_with(&net, &tampered, &run_on(threads));
                assert_eq!(got, want, "{kind}, {threads:?} threads");
            }
        }
    }
    assert_eq!(kinds.len(), 3, "every corruption ran somewhere: {kinds:?}");
}

#[test]
fn delta_and_codec_ride_the_memo_path() {
    // Δ-coloring decodes through the cluster decoder's ladder and the edge
    // codec through the orientation decoder's; both must produce verified
    // outputs end to end.
    let net = Network::with_identity_ids(generators::grid2d(12, 12, true));
    let delta = net.graph().max_degree();
    let schema = DeltaColoringSchema::default();
    let advice = schema.encode(&net).expect("encode");
    let (colors, _) = schema.decode(&net, &advice).expect("decode");
    assert!(local_advice::graph::coloring::is_proper_k_coloring(
        net.graph(),
        &colors,
        delta
    ));

    let codec = EdgeSubsetCodec::default();
    let subset: Vec<bool> = (0..net.graph().m()).map(|e| e % 3 == 0).collect();
    let (decoded, _, _) = codec.round_trip(&net, &subset).expect("round trip");
    assert_eq!(decoded, subset);
}
