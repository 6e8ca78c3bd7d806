//! Encoder-level differential equivalence: the parallel encoders
//! (balanced orientation, cluster coloring, Δ-coloring) must be
//! **bit-identical** to the sequential algorithms they replaced, under
//! every worker-thread count.
//!
//! Two independent oracles are used:
//!
//! 1. **Sequential reference encoders** — the cluster-coloring seed
//!    algorithm reimplemented verbatim against the public API (full-graph
//!    Voronoi over all centers), and a sequential balanced-orientation
//!    reference that mirrors the canonical trail-record placement
//!    introduced with churn repair (anchors are a pure function of trail
//!    structure; see `trail_records`) through an independent
//!    implementation — brute-force smallest-rotation search, explicit
//!    reversal. Any algorithmic drift in the shipped encoders — trail
//!    merge order, rotation indexing, the bounded-BFS cluster
//!    assignment — shows up as a bit difference.
//! 2. **Thread-count invariance** — encoding under runs of {1, 2, 5,
//!    auto} threads must produce identical [`AdviceMap`]s and [`AdviceStats`];
//!    one worker *is* the sequential composition, so invariance extends
//!    the seed proof to every thread count.
//!
//! Each encode carries its thread count in its own [`Run`], so the tests
//! share no state.

use local_advice::core::advice::AdviceMap;
use local_advice::core::balanced::{
    cycle_canonical_forward, encode_records, open_canonical_forward, AnchorRecord,
    BalancedOrientationSchema,
};
use local_advice::core::bits::BitString;
use local_advice::core::cluster_coloring::ClusterColoringSchema;
use local_advice::core::delta_coloring::DeltaColoringSchema;
use local_advice::core::schema::AdviceSchema;
use local_advice::graph::orientation::{slot_edges, slot_of};
use local_advice::graph::{
    coloring, generators, ruling, traversal, EdgeId, EulerPartition, Graph, GraphBuilder,
    IdAssignment, NodeId,
};
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

/// Generator grid: connected families with distinct trail/cluster shapes.
fn grid_of_networks(seed: u64) -> Vec<(String, Network)> {
    vec![
        ("cycle-96".into(), sparse_ids(generators::cycle(96), seed)),
        ("path-97".into(), sparse_ids(generators::path(97), seed)),
        (
            "grid-8x8".into(),
            sparse_ids(generators::grid2d(8, 8, true), seed),
        ),
        (
            "rr-64-4".into(),
            sparse_ids(generators::random_regular(64, 4, seed), seed ^ 0x9e37),
        ),
        (
            "tree-3-3".into(),
            sparse_ids(generators::balanced_tree(3, 3), seed),
        ),
    ]
}

const THREAD_GRID: [Option<usize>; 4] = [Some(1), Some(2), Some(5), None];
const SEEDS: [u64; 3] = [7, 1234, 987654321];

// ---------------------------------------------------------------------------
// Sequential reference encoders.
// ---------------------------------------------------------------------------

/// Sequential balanced-orientation reference: one pass over the Euler
/// partition's trails, each trail's anchors derived from its structure
/// alone — the decoder's canonical direction rule, then (for closed
/// trails) a start at the smallest rotation of the directed uid word,
/// found here by comparing every rotation outright rather than via the
/// production `least_rotation_index`. Drift anywhere in the shipped
/// canonicalization — rotation indexing, tie handling, reversal, slot
/// lookups — shows up as a bit difference.
fn seed_balanced_encode(schema: &BalancedOrientationSchema, net: &Network) -> AdviceMap {
    let g = net.graph();
    let uids = net.uids();
    let uid = |v: NodeId| uids[v.index()];
    let ep = EulerPartition::new(g, uids);
    let mut records: Vec<Vec<AnchorRecord>> = vec![Vec::new(); g.n()];
    for trail in ep.trails() {
        let len = trail.len();
        // Canonical direction; a tied closed trail anchors regardless of
        // length and runs lo→hi across its smallest-uid edge.
        let (forward, force_anchor) = if trail.closed {
            let seq: Vec<u64> = trail.nodes[..len].iter().map(|&v| uid(v)).collect();
            match cycle_canonical_forward(&seq) {
                Some(f) => (f, false),
                None => {
                    let j = (0..len)
                        .min_by_key(|&i| {
                            let (x, y) = (uid(trail.nodes[i]), uid(trail.nodes[i + 1]));
                            (x.min(y), x.max(y))
                        })
                        .expect("closed trails have at least one edge");
                    (uid(trail.nodes[j]) < uid(trail.nodes[j + 1]), true)
                }
            }
        } else {
            let seq: Vec<u64> = trail.nodes.iter().map(|&v| uid(v)).collect();
            match open_canonical_forward(&seq) {
                Some(f) => (f, false),
                None => (true, true),
            }
        };
        if len <= schema.short_threshold && !force_anchor {
            continue;
        }
        // Directed sequences: edge i runs dnodes[i] -> dnodes[i + 1]
        // (cyclically for closed trails).
        let (dnodes, dedges): (Vec<NodeId>, Vec<EdgeId>) = if trail.closed {
            if forward {
                (trail.nodes[..len].to_vec(), trail.edges.clone())
            } else {
                let mut dn = vec![trail.nodes[0]];
                dn.extend(trail.nodes[1..len].iter().rev());
                (dn, trail.edges.iter().rev().copied().collect())
            }
        } else if forward {
            (trail.nodes.clone(), trail.edges.clone())
        } else {
            (
                trail.nodes.iter().rev().copied().collect(),
                trail.edges.iter().rev().copied().collect(),
            )
        };
        let positions: Vec<usize> = if trail.closed {
            let word: Vec<u64> = dnodes.iter().map(|&v| uid(v)).collect();
            let mut r0 = 0;
            for r in 1..len {
                for j in 0..len {
                    let (a, b) = (word[(r + j) % len], word[(r0 + j) % len]);
                    if a != b {
                        if a < b {
                            r0 = r;
                        }
                        break;
                    }
                }
            }
            (0..len.div_ceil(schema.anchor_spacing))
                .map(|j| (r0 + j * schema.anchor_spacing) % len)
                .collect()
        } else {
            (1..len).step_by(schema.anchor_spacing).collect()
        };
        for p in positions {
            let w = dnodes[p];
            let arrive = dedges[(p + len - 1) % len];
            let slot = slot_of(g, uids, w, arrive).expect("consecutive trail edges share a slot");
            let (first, _second) = slot_edges(g, uids, w, slot);
            records[w.index()].push(AnchorRecord {
                slot,
                enters_first: arrive == first,
            });
        }
    }
    let mut advice = AdviceMap::empty(g.n());
    for v in g.nodes() {
        if !records[v.index()].is_empty() {
            let bits = encode_records(&mut records[v.index()], g.degree(v));
            advice.set(v, bits);
        }
    }
    advice
}

/// The seed cluster-coloring encoder: full-graph BFS Voronoi over all
/// centers, then greedy coloring of the cluster graph by center-uid order.
fn seed_cluster_encode(schema: &ClusterColoringSchema, net: &Network) -> AdviceMap {
    let g = net.graph();
    let uids = net.uids();
    let centers = ruling::ruling_set(g, schema.cluster_spacing);
    let mut best: Vec<Option<(usize, u64, NodeId)>> = vec![None; g.n()];
    for &c in &centers {
        let dist = traversal::bfs_distances(g, c);
        for v in g.nodes() {
            if let Some(d) = dist[v.index()] {
                let cand = (d, uids[c.index()], c);
                if best[v.index()].is_none_or(|(bd, bu, _)| (cand.0, cand.1) < (bd, bu)) {
                    best[v.index()] = Some(cand);
                }
            }
        }
    }
    let cluster_of: Vec<NodeId> = best
        .into_iter()
        .map(|b| b.expect("ruling set dominates every node").2)
        .collect();
    let mut center_index = vec![usize::MAX; g.n()];
    for (i, &c) in centers.iter().enumerate() {
        center_index[c.index()] = i;
    }
    let mut cb = GraphBuilder::new(centers.len());
    for (_, (u, v)) in g.edges() {
        let cu = center_index[cluster_of[u.index()].index()];
        let cv = center_index[cluster_of[v.index()].index()];
        if cu != cv {
            cb.add_edge(NodeId::from_index(cu), NodeId::from_index(cv));
        }
    }
    let cluster_graph = cb.build();
    let mut order: Vec<NodeId> = cluster_graph.nodes().collect();
    order.sort_by_key(|&i| uids[centers[i.index()].index()]);
    let cluster_colors = coloring::greedy_coloring(&cluster_graph, &order);
    let used = cluster_colors.iter().max().map_or(0, |&c| c + 1);
    assert!(
        used <= schema.max_cluster_colors,
        "grid instance exceeds the color budget"
    );
    let width = schema.color_width();
    let mut advice = AdviceMap::empty(g.n());
    for (i, &c) in centers.iter().enumerate() {
        let mut bits = BitString::new();
        bits.push_uint(cluster_colors[i] as u64, width);
        advice.set(c, bits);
    }
    advice
}

/// Encodes `schema` under every thread count and asserts each result —
/// map and stats — is bit-identical to `reference`.
fn assert_encode_matches<S: AdviceSchema>(
    schema: &S,
    net: &Network,
    reference: &AdviceMap,
    label: &str,
) {
    for threads in THREAD_GRID {
        let got = schema
            .encode_with(net, &run_on(threads))
            .unwrap_or_else(|e| panic!("{label}: encode failed ({threads:?} threads): {e}"));
        assert_eq!(
            &got, reference,
            "{label}: advice differs from reference at {threads:?} threads"
        );
        assert_eq!(
            got.stats(),
            reference.stats(),
            "{label}: stats differ from reference at {threads:?} threads"
        );
    }
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[test]
fn balanced_encoder_matches_frozen_seed_across_grid() {
    let schema = BalancedOrientationSchema::default();
    for seed in SEEDS {
        for (name, net) in grid_of_networks(seed) {
            let reference = seed_balanced_encode(&schema, &net);
            assert_encode_matches(
                &schema,
                &net,
                &reference,
                &format!("balanced/{name}/{seed}"),
            );
        }
    }
}

#[test]
fn balanced_encoder_matches_seed_on_nondefault_parameters() {
    // Tight spacing exercises multi-anchor trails; threshold 1 anchors
    // even short trails.
    let schema = BalancedOrientationSchema::new(1, 3);
    for (name, net) in grid_of_networks(42) {
        let reference = seed_balanced_encode(&schema, &net);
        assert_encode_matches(&schema, &net, &reference, &format!("balanced-tight/{name}"));
    }
}

#[test]
fn cluster_encoder_matches_frozen_seed_across_grid() {
    let schema = ClusterColoringSchema::default();
    for seed in SEEDS {
        for (name, net) in grid_of_networks(seed) {
            let reference = seed_cluster_encode(&schema, &net);
            assert_encode_matches(&schema, &net, &reference, &format!("cluster/{name}/{seed}"));
        }
    }
}

#[test]
fn cluster_encoder_matches_seed_on_nondefault_spacing() {
    for spacing in [2usize, 3, 6] {
        let schema = ClusterColoringSchema::new(spacing, 64);
        for (name, net) in grid_of_networks(5) {
            let reference = seed_cluster_encode(&schema, &net);
            assert_encode_matches(
                &schema,
                &net,
                &reference,
                &format!("cluster-s{spacing}/{name}"),
            );
        }
    }
}

#[test]
fn delta_encoder_is_thread_invariant_and_decodes_properly() {
    let schema = DeltaColoringSchema::default();
    for seed in SEEDS {
        for (name, net) in grid_of_networks(seed) {
            // Δ-colorability: skip Brooks exceptions the repair search
            // correctly rejects (none in this grid, but keep the guard
            // honest if the grid grows).
            let reference = match schema.encode_with(&net, &run_on(Some(1))) {
                Ok(a) => a,
                Err(e) => panic!("delta/{name}/{seed}: encode failed sequentially: {e}"),
            };
            assert_encode_matches(&schema, &net, &reference, &format!("delta/{name}/{seed}"));
            let delta = net.graph().max_degree();
            let (chi, _) = schema
                .decode(&net, &reference)
                .unwrap_or_else(|e| panic!("delta/{name}/{seed}: decode failed: {e}"));
            assert!(
                coloring::is_proper_k_coloring(net.graph(), &chi, delta),
                "delta/{name}/{seed}: decoded coloring is not a proper Δ-coloring"
            );
        }
    }
}
