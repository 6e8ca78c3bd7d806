//! Differential pinning for the encoders and decoders.
//!
//! Three layers of oracle, from strongest to broadest:
//!
//! 1. **Frozen seed oracles** — advice fingerprints recorded from the
//!    pre-memoization encoders (commit 8085994) over the generator grid.
//!    Today's encoders must reproduce every one bit-for-bit, including
//!    the error cases.
//! 2. **In-tree reference decoders** — `decode_reference` runs the
//!    untouched sequential executor with a fresh un-shared gather per
//!    node; the production `decode` must match its outputs, round stats,
//!    and first error exactly.
//! 3. **Invariance** — no thread count may change any encode or decode
//!    result.

use lad_core::advice::AdviceMap;
use lad_core::balanced::BalancedOrientationSchema;
use lad_core::bits::{BitReader, BitString};
use lad_core::cluster_coloring::ClusterColoringSchema;
use lad_core::delta_coloring::DeltaColoringSchema;
use lad_core::schema::AdviceSchema;
use lad_graph::{generators, Graph, GraphBuilder, IdAssignment, NodeId};
use lad_runtime::{Network, Run};
use proptest::prelude::*;

const THREAD_GRID: [usize; 4] = [1, 2, 3, 8];

/// The spec for one grid point: `threads` chunks.
fn run_at(threads: usize) -> Run {
    Run::default().threads(threads)
}

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

fn network_for(g: &Graph) -> Network {
    Network::with_ids(g.clone(), IdAssignment::random_permutation(g.n(), 0xC0FFEE))
}

/// FNV-1a over every node's advice string (length-prefixed bit stream),
/// stable across platforms and identical to the digest the seed-oracle
/// generator used.
fn advice_digest(a: &AdviceMap) -> u64 {
    fn mix(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in a.strings() {
        h = mix(h, s.len() as u64 + 1);
        let mut r = BitReader::new(&s);
        while let Some(bit) = r.read_uint(1) {
            h = mix(h, bit + 2);
        }
    }
    h
}

fn encode_fingerprint<S: AdviceSchema>(schema: &S, net: &Network, run: &Run) -> String {
    match schema.encode_with(net, run) {
        Ok(a) => format!("ok:{:016x}", advice_digest(&a)),
        Err(e) => format!("err:{e}"),
    }
}

fn decode_fingerprint<S: AdviceSchema>(
    schema: &S,
    net: &Network,
    advice: &AdviceMap,
    run: &Run,
) -> String
where
    S::Output: std::fmt::Debug,
{
    match schema.decode_with(net, advice, run) {
        Ok((out, stats)) => format!("ok:{out:?}|{stats:?}"),
        Err(e) => format!("err:{e}"),
    }
}

/// Seed-encoder fingerprints. Regenerate by checking out the seed commit
/// in a scratch worktree, dropping `seed_digest_gen.rs` (see repository
/// history of this file's PR) into its `crates/core/tests/`, and running
/// `cargo test -p lad-core --test seed_digest_gen -- --nocapture`.
const SEED_ENCODER_FINGERPRINTS: &[(&str, &str, &str)] =
    // (generator, schema, fingerprint) rows — the file is one `&[...]`
    // expression so it can be included here verbatim.
    include!("seed_encoder_fingerprints.in");

#[test]
fn encoders_match_frozen_seed_oracles() {
    let balanced = BalancedOrientationSchema::default();
    let cluster = ClusterColoringSchema::default();
    let delta = DeltaColoringSchema::default();
    for (name, g) in generator_grid() {
        let net = network_for(&g);
        for (schema_name, fp) in [
            (
                "balanced",
                encode_fingerprint(&balanced, &net, &Run::default()),
            ),
            (
                "cluster",
                encode_fingerprint(&cluster, &net, &Run::default()),
            ),
            ("delta", encode_fingerprint(&delta, &net, &Run::default())),
        ] {
            let golden = SEED_ENCODER_FINGERPRINTS
                .iter()
                .find(|(gen, s, _)| *gen == name && *s == schema_name)
                .map(|(_, _, f)| *f)
                .unwrap_or_else(|| panic!("no golden for {name}/{schema_name}"));
            assert_eq!(
                fp, golden,
                "{schema_name} encoder diverged from the seed oracle on {name}"
            );
        }
    }
}

#[test]
fn encode_is_invariant_under_threads() {
    let balanced = BalancedOrientationSchema::default();
    let cluster = ClusterColoringSchema::default();
    let delta = DeltaColoringSchema::default();
    for (name, g) in generator_grid() {
        let net = network_for(&g);
        let fingerprints = |run: &Run| {
            [
                encode_fingerprint(&balanced, &net, run),
                encode_fingerprint(&cluster, &net, run),
                encode_fingerprint(&delta, &net, run),
            ]
        };
        let base = fingerprints(&run_at(1));
        for threads in THREAD_GRID {
            assert_eq!(
                fingerprints(&run_at(threads)),
                base,
                "encode drifted on {name} at threads={threads}"
            );
        }
    }
}

#[test]
fn decode_matches_reference_and_is_thread_invariant() {
    let balanced = BalancedOrientationSchema::default();
    let cluster = ClusterColoringSchema::default();
    let delta = DeltaColoringSchema::default();
    for (name, g) in generator_grid() {
        let net = network_for(&g);

        // Balanced and cluster have per-node reference oracles over the
        // untouched sequential executor: pin outputs, stats, and errors.
        if let Ok(advice) = balanced.encode(&net) {
            let reference = match balanced.decode_reference(&net, &advice) {
                Ok((out, stats)) => format!("ok:{out:?}|{stats:?}"),
                Err(e) => format!("err:{e}"),
            };
            for threads in THREAD_GRID {
                assert_eq!(
                    decode_fingerprint(&balanced, &net, &advice, &run_at(threads)),
                    reference,
                    "balanced decode diverged on {name} threads={threads}"
                );
            }
        }
        if let Ok(advice) = cluster.encode(&net) {
            let reference = match cluster.decode_reference(&net, &advice) {
                Ok((out, stats)) => format!("ok:{out:?}|{stats:?}"),
                Err(e) => format!("err:{e}"),
            };
            for threads in THREAD_GRID {
                assert_eq!(
                    decode_fingerprint(&cluster, &net, &advice, &run_at(threads)),
                    reference,
                    "cluster decode diverged on {name} threads={threads}"
                );
            }
        }
        // Delta has no standalone reference decoder; pin the thread grid
        // against the sequential decode.
        if let Ok(advice) = delta.encode(&net) {
            let base = decode_fingerprint(&delta, &net, &advice, &run_at(1));
            for threads in THREAD_GRID {
                assert_eq!(
                    decode_fingerprint(&delta, &net, &advice, &run_at(threads)),
                    base,
                    "delta decode diverged on {name} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn advice_from_strings_matches_incremental_set() {
    // The delta encoder switched its override track from per-node `set`
    // calls to one `from_strings` pack; the two constructions must agree
    // for every sparse/dense mix, including empty strings (non-holders).
    let mut strings = Vec::new();
    let mut seed = 0x9E37u64;
    for i in 0..64usize {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut bits = BitString::new();
        if i % 3 != 0 {
            let width = 1 + (i % 13);
            bits.push_uint((seed >> 48) & ((1u64 << width) - 1), width);
        }
        strings.push(bits);
    }
    let packed = AdviceMap::from_strings(strings.clone());
    let mut incremental = AdviceMap::empty(strings.len());
    for (i, bits) in strings.iter().enumerate() {
        if !bits.is_empty() {
            incremental.set(NodeId(i as u32), bits.clone());
        }
    }
    assert_eq!(packed.strings(), incremental.strings());
    assert_eq!(
        advice_digest(&packed),
        advice_digest(&incremental),
        "digest helper must agree with string equality"
    );
}

/// A connected-ish random graph with a random uid permutation (same
/// shape as `properties.rs`).
fn arb_network() -> impl Strategy<Value = Network> {
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
            Network::with_ids(b.build(), IdAssignment::random_permutation(n, seed))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scheduling is a pure performance decision: the thread count never
    /// changes an encode or a decode on arbitrary graphs, not just the
    /// curated grid, and the cluster decode matches its reference oracle.
    #[test]
    fn thread_count_never_changes_outputs(net in arb_network()) {
        let balanced = BalancedOrientationSchema::default();
        let cluster = ClusterColoringSchema::default();
        let delta = DeltaColoringSchema::default();
        let base = encode_fingerprint(&balanced, &net, &run_at(1));
        prop_assert_eq!(
            encode_fingerprint(&balanced, &net, &run_at(3)),
            base,
            "balanced encode changed with the thread count"
        );
        if let Ok(advice) = cluster.encode(&net) {
            let reference = match cluster.decode_reference(&net, &advice) {
                Ok((out, stats)) => format!("ok:{out:?}|{stats:?}"),
                Err(e) => format!("err:{e}"),
            };
            let one = decode_fingerprint(&cluster, &net, &advice, &run_at(1));
            let three = decode_fingerprint(&cluster, &net, &advice, &run_at(3));
            prop_assert_eq!(&one, &reference, "cluster decode != reference");
            prop_assert_eq!(&one, &three, "cluster decode changed with the thread count");
        }
        if let Ok(advice) = delta.encode(&net) {
            let one = decode_fingerprint(&delta, &net, &advice, &run_at(1));
            let three = decode_fingerprint(&delta, &net, &advice, &run_at(3));
            prop_assert_eq!(&one, &three, "delta decode changed with the thread count");
        }
    }
}
