//! Property-based tests for the advice-schema core: bit-level codecs,
//! track multiplexing, and full schema round trips on random graphs.

use lad_core::advice::AdviceMap;
use lad_core::balanced::BalancedOrientationSchema;
use lad_core::bits::{decode_path_code, encode_path_code, BitReader, BitString};
use lad_core::decompress::EdgeSubsetCodec;
use lad_core::schema::AdviceSchema;
use lad_core::tracks::{demultiplex, multiplex};
use lad_graph::{generators, GraphBuilder, IdAssignment, NodeId};
use lad_runtime::Network;
use proptest::prelude::*;

fn arb_bitstring(max_len: usize) -> impl Strategy<Value = BitString> {
    proptest::collection::vec(any::<bool>(), 0..=max_len)
        .prop_map(|bits| bits.into_iter().collect())
}

/// A connected-ish random graph with a random uid permutation.
fn arb_network() -> impl Strategy<Value = Network> {
    (4usize..40, 0u64..500).prop_flat_map(|(n, seed)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            // A spanning path keeps most instances connected.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn uint_roundtrip(v in 0u64..u64::MAX / 2, extra in 0u64..16) {
        let width = 64 - v.leading_zeros().max(1) as usize + 1;
        let mut b = BitString::new();
        b.push_uint(v, width);
        b.push_uint(extra, 4);
        let mut r = BitReader::new(&b);
        prop_assert_eq!(r.read_uint(width), Some(v));
        prop_assert_eq!(r.read_uint(4), Some(extra));
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn gamma_roundtrip(values in proptest::collection::vec(0u64..100_000, 0..20)) {
        let mut b = BitString::new();
        for &v in &values {
            b.push_gamma(v);
        }
        let mut r = BitReader::new(&b);
        for &v in &values {
            prop_assert_eq!(r.read_gamma(), Some(v));
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn path_code_roundtrip_with_padding(payload in arb_bitstring(40), pad in 0usize..10) {
        let mut coded = encode_path_code(&payload);
        for _ in 0..pad {
            coded.push(false);
        }
        prop_assert_eq!(decode_path_code(&coded), Some(payload));
    }

    #[test]
    fn path_code_never_has_interior_marker(payload in arb_bitstring(40)) {
        let coded = encode_path_code(&payload);
        let s: Vec<bool> = coded.iter().collect();
        for i in 1..s.len().saturating_sub(3) {
            prop_assert!(!(s[i] && s[i + 1] && s[i + 2] && s[i + 3]));
        }
    }

    #[test]
    fn multiplex_roundtrip(
        strings in proptest::collection::vec(
            (arb_bitstring(12), arb_bitstring(12)), 1..20)
    ) {
        let n = strings.len();
        let mut a = AdviceMap::empty(n);
        let mut b = AdviceMap::empty(n);
        for (i, (x, y)) in strings.into_iter().enumerate() {
            a.set(NodeId::from_index(i), x);
            b.set(NodeId::from_index(i), y);
        }
        let mux = multiplex(&[&a, &b]);
        let parts = demultiplex(&mux, 2).expect("roundtrip");
        prop_assert_eq!(parts[0].clone(), a);
        prop_assert_eq!(parts[1].clone(), b);
    }

    #[test]
    fn balanced_orientation_schema_roundtrip(net in arb_network()) {
        let schema = BalancedOrientationSchema::new(12, 8);
        let advice = schema.encode(&net).expect("encode never fails");
        let (o, stats) = schema.decode(&net, &advice).expect("decode honest advice");
        prop_assert!(o.is_almost_balanced(net.graph()));
        prop_assert!(stats.rounds() <= schema.decode_radius());
    }

    #[test]
    fn edge_subset_roundtrip(net in arb_network(), seed in 0u64..100) {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let m = net.graph().m();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let subset: Vec<bool> = (0..m).map(|_| rng.random_range(0..2) == 1).collect();
        let codec = EdgeSubsetCodec::new(BalancedOrientationSchema::new(12, 8));
        let advice = codec.compress(&net, &subset).expect("compress");
        let (decoded, _) = codec.decompress(&net, &advice).expect("decompress");
        prop_assert_eq!(decoded, subset);
        // Per-node cost: membership bits (≤ ⌈d/2⌉) + gamma header + at
        // most one anchor record per slot.
        let g = net.graph();
        for v in g.nodes() {
            let d = g.degree(v);
            let record = lad_core::bits::bit_width(d / 2) + 1;
            let bound = d.div_ceil(2) + (d / 2) * record + 10;
            prop_assert!(
                advice.get(v).len() <= bound,
                "node {v} holds {} bits > bound {bound}",
                advice.get(v).len()
            );
        }
    }

    #[test]
    fn advice_stats_are_consistent(
        strings in proptest::collection::vec(arb_bitstring(6), 1..30)
    ) {
        let advice = AdviceMap::from_strings(strings.clone());
        let total: usize = strings.iter().map(BitString::len).sum();
        prop_assert_eq!(advice.total_bits(), total);
        let holders = strings.iter().filter(|s| !s.is_empty()).count();
        prop_assert_eq!(advice.holders().count(), holders);
        prop_assert!(advice.max_bits() <= 6);
    }
}

#[test]
fn balanced_schema_on_degenerate_graphs() {
    // Empty graph and a single edge.
    let net = Network::with_identity_ids(GraphBuilder::new(1).build());
    let schema = BalancedOrientationSchema::default();
    let advice = schema.encode(&net).unwrap();
    let (o, _) = schema.decode(&net, &advice).unwrap();
    assert!(o.is_almost_balanced(net.graph()));

    let net = Network::with_identity_ids(generators::path(2));
    let advice = schema.encode(&net).unwrap();
    let (o, _) = schema.decode(&net, &advice).unwrap();
    assert!(o.is_almost_balanced(net.graph()));
}
