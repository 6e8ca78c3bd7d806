//! Fully streamed cluster coloring of tori: encode, decode, and verify
//! `rows × cols` wrapped grids **without ever materializing the global
//! graph, network, or advice map**.
//!
//! The sharded driver's resident-network provider
//! ([`lad_runtime::run_sharded_memo_fallible`]) bounds the *decode*
//! working set but still slices a resident [`Network`]; at `n = 10⁷` the
//! graph's CSR plus per-node advice strings alone exceed any sensible
//! budget. This module closes
//! the loop for one concrete family — the torus, whose row-banded
//! contiguous partition has an *exact* halo (a radius-`r` ball reaches
//! rows at distance ≤ `r`, full stop) — by generating each shard's slice
//! directly from the grid geometry:
//!
//! * **Encode** keeps only two global bitmaps (chosen centers, blocked
//!   nodes) plus the center list, and runs the ruling set, the Voronoi
//!   assignment, and cluster-edge collection slice-at-a-time. The
//!   resulting [`TorusAdvice`] is bit-identical (as an [`AdviceMap`]) to
//!   [`crate::AdviceSchema::encode`] on the materialized torus — pinned by
//!   tests below.
//! * **Decode** is a provider for the one sharded driver,
//!   [`lad_runtime::run_sharded_stream_memo_fallible`]: it feeds it
//!   slices built from the grid geometry and decodes them through the same
//!   ladder step as the monolithic decoder, then checks properness by
//!   streaming the edge list, so outputs and [`RoundStats`] match
//!   [`crate::AdviceSchema::decode`] exactly.
//!
//! # Identifiers
//!
//! Greedy-coloring dependency chains follow decreasing-uid paths, and on
//! a torus with *row-major identity* ids those paths hug the id gradient
//! for `Θ(diameter)` hops — far past the schema's radius budget. Random
//! priorities cut expected chain length to `O(log n)`, so this module
//! fixes uids to a seeded Feistel permutation of the node indices
//! ([`torus_uid`]): a stateless bijection each slice evaluates locally,
//! with no global permutation table.

use std::collections::{HashSet, VecDeque};

use crate::advice::AdviceMap;
use crate::bits::BitString;
use crate::cluster_coloring::ClusterColoringSchema;
use crate::error::{DecodeError, EncodeError};
use crate::sharded::local_voronoi;
use lad_graph::{builder, coloring, generators, Graph, IdAssignment, NodeId};
use lad_runtime::{run_sharded_stream_memo_fallible, Network, RoundStats, ShardOpts, ShardSlice};

// ---------------------------------------------------------------------------
// Seeded uid permutation
// ---------------------------------------------------------------------------

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The uid of node `index` in an `n`-node streamed torus: a seeded
/// 4-round Feistel permutation of `0..n` (cycle-walked down from the
/// enclosing power-of-four domain), shifted to `1..=n`.
///
/// Stateless and bijective: any slice can label its members without a
/// global table, and the whole assignment is a permutation of `1..=n` —
/// well inside the model's `poly(n)` id space.
pub fn torus_uid(n: usize, seed: u64, index: usize) -> u64 {
    debug_assert!(index < n);
    let half = (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()).div_ceil(2);
    let mask = (1u64 << half) - 1;
    let mut x = index as u64;
    loop {
        let (mut l, mut r) = (x >> half, x & mask);
        for round in 0..4u64 {
            let f = mix64(r ^ seed.wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15))) & mask;
            (l, r) = (r, l ^ f);
        }
        x = (l << half) | r;
        if (x as usize) < n {
            return x + 1;
        }
    }
}

/// The materialized `rows × cols` torus network this module's streamed
/// slices are exact fragments of: [`generators::grid2d`] with wraparound
/// and [`torus_uid`] identifiers. Used by tests, by first-error replay,
/// and by benchmarks as the single-address-space comparison point.
pub fn torus_net(rows: usize, cols: usize, seed: u64) -> Network {
    let n = rows * cols;
    let uids = (0..n).map(|i| torus_uid(n, seed, i)).collect();
    Network::new(
        generators::grid2d(cols, rows, true),
        IdAssignment::from_uids(uids),
        vec![(); n],
    )
}

// ---------------------------------------------------------------------------
// Slice geometry
// ---------------------------------------------------------------------------

/// One row-banded slice of the torus: shard `s` owns rows
/// `[s·rows/k, (s+1)·rows/k)` and its slice adds `halo` rows on each
/// side (cyclically). Node `(r, c)` has global id `r·cols + c`, matching
/// [`generators::grid2d`]`(cols, rows, true)` exactly.
///
/// The halo is *exact*, not an over-approximation: every step of a path
/// changes the row by at most one, so a radius-`halo − 1` ball around an
/// owned node — members, edges, distances, and boundary degrees — is
/// bit-identical to its global ball.
struct TorusSlice {
    members: Vec<NodeId>,
    interior: Vec<bool>,
    graph: Graph,
    complete: bool,
}

fn band(rows: usize, k: usize, s: usize) -> (usize, usize) {
    (s * rows / k, (s + 1) * rows / k)
}

fn build_torus_slice(rows: usize, cols: usize, k: usize, s: usize, halo: usize) -> TorusSlice {
    let (lo, hi) = band(rows, k, s);
    let halo = halo.min(rows); // beyond `rows` the window is the whole torus
    let mut marked = vec![false; rows];
    marked[lo..hi].fill(true);
    for d in 1..=halo {
        marked[(lo + rows - d) % rows] = true;
        marked[(hi - 1 + d) % rows] = true;
    }
    let rows_in: Vec<usize> = (0..rows).filter(|&r| marked[r]).collect();
    let complete = rows_in.len() == rows;
    let mut row_rank = vec![usize::MAX; rows];
    for (rank, &r) in rows_in.iter().enumerate() {
        row_rank[r] = rank;
    }
    let ln = rows_in.len() * cols;
    let mut members = Vec::with_capacity(ln);
    let mut interior = Vec::with_capacity(ln);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(2 * ln);
    let mut nbrs = [0usize; 4];
    for (rank, &r) in rows_in.iter().enumerate() {
        for c in 0..cols {
            let li = rank * cols + c;
            members.push(NodeId::from_index(r * cols + c));
            interior.push(r >= lo && r < hi);
            let mut cnt = 0;
            for (nr, nc) in [
                (r, (c + 1) % cols),
                (r, (c + cols - 1) % cols),
                ((r + 1) % rows, c),
                ((r + rows - 1) % rows, c),
            ] {
                if row_rank[nr] != usize::MAX {
                    let lj = row_rank[nr] * cols + nc;
                    if lj > li {
                        nbrs[cnt] = lj;
                        cnt += 1;
                    }
                }
            }
            nbrs[..cnt].sort_unstable();
            for &lj in &nbrs[..cnt] {
                edges.push((NodeId::from_index(li), NodeId::from_index(lj)));
            }
        }
    }
    TorusSlice {
        members,
        interior,
        graph: builder::from_sorted_edges(ln, edges),
        complete,
    }
}

// ---------------------------------------------------------------------------
// Streamed advice
// ---------------------------------------------------------------------------

/// Cluster-coloring advice for a streamed torus, in `O(#centers)` space:
/// the sorted center list plus one color per center. Equivalent to the
/// monolithic [`AdviceMap`] (see [`TorusAdvice::to_advice_map`]) but
/// holding no per-node strings — non-centers carry the empty string by
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TorusAdvice {
    /// Torus height (bands partition these).
    pub rows: usize,
    /// Torus width.
    pub cols: usize,
    /// Seed of the [`torus_uid`] permutation the advice was built for.
    pub seed: u64,
    /// Global ids of the ruling-set centers, ascending.
    pub centers: Vec<u32>,
    /// Greedy cluster color of each center.
    pub colors: Vec<u8>,
}

impl TorusAdvice {
    /// Total number of nodes the advice covers.
    pub fn n(&self) -> usize {
        self.rows * self.cols
    }

    fn input_for(&self, width: usize, id: u32) -> BitString {
        match self.centers.binary_search(&id) {
            Ok(i) => {
                let mut bits = BitString::new();
                bits.push_uint(self.colors[i] as u64, width);
                bits
            }
            Err(_) => BitString::new(),
        }
    }

    /// Materializes the per-node advice strings (tests and replay only —
    /// this is the `O(n)` representation streaming avoids).
    pub fn strings(&self, schema: &ClusterColoringSchema) -> Vec<BitString> {
        let width = schema.color_width();
        (0..self.n())
            .map(|i| self.input_for(width, i as u32))
            .collect()
    }

    /// The advice as a monolithic [`AdviceMap`] (tests and replay only).
    pub fn to_advice_map(&self, schema: &ClusterColoringSchema) -> AdviceMap {
        AdviceMap::from_strings(self.strings(schema))
    }
}

// ---------------------------------------------------------------------------
// Streamed encode
// ---------------------------------------------------------------------------

/// Encodes a `rows × cols` torus slice-at-a-time into [`TorusAdvice`]
/// bit-identical to [`crate::AdviceSchema::encode`] on
/// [`torus_net`]`(rows, cols, seed)`.
///
/// Peak memory is two `n`-bit… well, two `n`-byte global flag vectors
/// (chosen centers and blocked nodes), the center list, the deduplicated
/// cluster-edge set, and one slice (with `spacing` halo rows) at a time.
///
/// Why slicing is exact, stage by stage:
///
/// * **Ruling set** — the global greedy scans nodes in id order; row
///   bands in shard order *are* id order, and a chosen interior center
///   blocks exactly its radius-`spacing − 1` ball, which the
///   `spacing`-row halo contains. Blocked flags live in the global
///   vector, so blocking crossing a band boundary lands on the next
///   shard's interior before that shard is scanned.
/// * **Voronoi** — an interior node's `(distance, uid)`-nearest center
///   sits within `spacing − 1`, its neighbor's within `spacing`; both
///   balls (and their shortest paths) fit in the halo, so
///   `local_voronoi` reproduces the global assignment on every node a
///   cluster edge can touch.
/// * **Cluster edges** — every torus edge is examined exactly once, by
///   the shard owning its smaller endpoint; duplicates within a shard
///   dedupe in a per-shard set, across shards by a final sort.
///
/// # Errors
///
/// [`EncodeError::PlacementFailed`] if the cluster graph needs more than
/// `max_cluster_colors` colors — the same condition, detected at the same
/// point, as the monolithic encoder.
///
/// # Panics
///
/// Panics if `rows < 3`, `cols < 3` (no such torus), or `k` is not in
/// `1..=rows`.
pub fn torus_stream_encode(
    schema: &ClusterColoringSchema,
    rows: usize,
    cols: usize,
    k: usize,
    seed: u64,
) -> Result<TorusAdvice, EncodeError> {
    assert!(
        rows >= 3 && cols >= 3,
        "torus dimensions must be at least 3"
    );
    assert!(k >= 1 && k <= rows, "need 1 ≤ k ≤ rows row bands");
    let n = rows * cols;
    let spacing = schema.cluster_spacing;
    let halo = spacing;

    // Stage 1: the global greedy ruling set, slice-at-a-time.
    let mut blocked = vec![false; n];
    let mut centers: Vec<u32> = Vec::new();
    for s in 0..k {
        let ts = build_torus_slice(rows, cols, k, s, halo);
        let ln = ts.members.len();
        let mut stamp = vec![u32::MAX; ln];
        let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
        for li in 0..ln {
            let gv = ts.members[li].index();
            if !ts.interior[li] || blocked[gv] {
                continue;
            }
            centers.push(gv as u32);
            let cur = centers.len() as u32;
            stamp[li] = cur;
            queue.push_back((NodeId::from_index(li), 0));
            while let Some((u, d)) = queue.pop_front() {
                blocked[ts.members[u.index()].index()] = true;
                if d + 1 < spacing {
                    for &w in ts.graph.neighbors(u) {
                        if stamp[w.index()] != cur {
                            stamp[w.index()] = cur;
                            queue.push_back((w, d + 1));
                        }
                    }
                }
            }
        }
    }
    drop(blocked);

    // Stage 2: Voronoi assignment and cross-cluster edge collection.
    let mut is_center = vec![false; n];
    for &c in &centers {
        is_center[c as usize] = true;
    }
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for s in 0..k {
        let ts = build_torus_slice(rows, cols, k, s, halo);
        let ln = ts.members.len();
        let local_centers: Vec<NodeId> = (0..ln)
            .filter(|&li| is_center[ts.members[li].index()])
            .map(NodeId::from_index)
            .collect();
        let local_uids: Vec<u64> = ts
            .members
            .iter()
            .map(|&v| torus_uid(n, seed, v.index()))
            .collect();
        let assign = local_voronoi(&ts.graph, &local_uids, &local_centers, spacing);
        let center_of = |li: NodeId| -> u32 {
            let lc = assign[li.index()].expect("a center lies within spacing − 1 of every node");
            ts.members[lc.index()].index() as u32
        };
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for li in 0..ln {
            if !ts.interior[li] {
                continue;
            }
            let v = NodeId::from_index(li);
            let cu = center_of(v);
            for &w in ts.graph.neighbors(v) {
                // Members ascend in global id, so the local comparison
                // picks out exactly the edges whose smaller endpoint is
                // interior here — each global edge lands in one shard.
                if w.index() > li {
                    let cv = center_of(w);
                    if cu != cv {
                        seen.insert((cu.min(cv), cu.max(cv)));
                    }
                }
            }
        }
        pairs.extend(seen);
    }
    pairs.sort_unstable();
    pairs.dedup();

    // Stage 3: the (small) cluster graph, colored greedily in uid order.
    let m = centers.len();
    let rank = |c: u32| -> usize {
        centers
            .binary_search(&c)
            .expect("cluster edges name ruling-set centers")
    };
    let edges: Vec<(NodeId, NodeId)> = pairs
        .into_iter()
        .map(|(a, b)| (NodeId::from_index(rank(a)), NodeId::from_index(rank(b))))
        .collect();
    let cluster_graph = builder::from_sorted_edges(m, edges);
    let mut order: Vec<NodeId> = cluster_graph.nodes().collect();
    order.sort_by_key(|&i| torus_uid(n, seed, centers[i.index()] as usize));
    let cluster_colors = coloring::greedy_coloring(&cluster_graph, &order);
    let used = cluster_colors.iter().max().map_or(0, |&c| c + 1);
    if used > schema.max_cluster_colors {
        return Err(EncodeError::PlacementFailed(format!(
            "cluster graph needs {used} colors > configured max {}",
            schema.max_cluster_colors
        )));
    }
    Ok(TorusAdvice {
        rows,
        cols,
        seed,
        centers,
        colors: cluster_colors.into_iter().map(|c| c as u8).collect(),
    })
}

// ---------------------------------------------------------------------------
// Streamed decode
// ---------------------------------------------------------------------------

/// Decodes streamed torus advice slice-at-a-time through
/// [`run_sharded_stream_memo_fallible`], never materializing the global
/// graph or advice, and verifies properness by streaming the edge list.
///
/// Outputs and [`RoundStats`] are bit-identical to
/// [`crate::AdviceSchema::decode`] on the materialized torus whenever
/// `opts.halo_radius` exceeds the reference decode's round count; a
/// ladder that outgrows the halo surfaces as
/// [`DecodeError::Inconsistent`] (rerun with a deeper halo). First-error
/// replay materializes the full network — the one path that trades
/// boundedness for an exact payload.
///
/// # Errors
///
/// Everything [`crate::AdviceSchema::decode`] can return, plus the
/// halo-depth inconsistency above and [`DecodeError::Spill`] when the
/// spill scratch fails.
///
/// # Panics
///
/// Panics if `k` is not in `1..=rows`, `opts.halo_radius == 0`, or
/// `opts.schedule` is not a permutation of the shard ids.
pub fn torus_stream_decode(
    schema: &ClusterColoringSchema,
    advice: &TorusAdvice,
    k: usize,
    opts: &ShardOpts,
) -> Result<(Vec<usize>, RoundStats), DecodeError> {
    let (rows, cols, seed) = (advice.rows, advice.cols, advice.seed);
    let n = advice.n();
    assert!(k >= 1 && k <= rows, "need 1 ≤ k ≤ rows row bands");
    let mut opts = opts.clone();
    if opts.plan_schema.is_none() {
        opts = opts.plan_schema(schema.shard_plan_name());
    }
    let halo = opts.halo_radius;
    let width = schema.color_width();
    let (colors, stats) = run_sharded_stream_memo_fallible(
        n,
        k,
        &opts,
        schema.step_radius(),
        |s| {
            let ts = build_torus_slice(rows, cols, k, s, halo);
            let inputs: Vec<BitString> = ts
                .members
                .iter()
                .map(|&v| advice.input_for(width, v.index() as u32))
                .collect();
            let uids: Vec<u64> = ts
                .members
                .iter()
                .map(|&v| torus_uid(n, seed, v.index()))
                .collect();
            ShardSlice {
                shard: s,
                members: ts.members,
                interior: ts.interior,
                net: Network::new(ts.graph, IdAssignment::from_uids(uids), inputs),
                complete: ts.complete,
            }
        },
        || torus_net(rows, cols, seed).with_inputs(advice.strings(schema)),
        |bits: &BitString, words: &mut Vec<u64>| bits.push_key_words(words),
        |ball| schema.memo_step(ball),
    )?;
    let mut improper = false;
    generators::grid2d_edges(cols, rows, true, |u, v| {
        improper |= colors[u.index()] == colors[v.index()];
    });
    if improper {
        return Err(DecodeError::InvalidOutput(
            "decoded cluster coloring is improper".into(),
        ));
    }
    Ok((colors, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AdviceSchema;

    const SEED: u64 = 0x51AB_5EED;

    #[test]
    fn torus_uid_is_a_permutation() {
        for n in [1usize, 2, 3, 17, 64, 100, 257] {
            let mut seen = vec![false; n];
            for i in 0..n {
                let u = torus_uid(n, SEED, i);
                assert!((1..=n as u64).contains(&u), "n={n} i={i} uid={u}");
                assert!(!seen[(u - 1) as usize], "n={n}: uid {u} repeats");
                seen[(u - 1) as usize] = true;
            }
        }
    }

    #[test]
    fn streamed_encode_matches_monolithic() {
        let schema = ClusterColoringSchema::default();
        for (rows, cols) in [(9usize, 12usize), (15, 8), (20, 20)] {
            let net = torus_net(rows, cols, SEED);
            let want = schema.encode(&net).expect("monolithic encode");
            for k in [1usize, 2, 3, 7] {
                let advice =
                    torus_stream_encode(&schema, rows, cols, k, SEED).expect("streamed encode");
                assert_eq!(
                    advice.to_advice_map(&schema),
                    want,
                    "rows={rows} cols={cols} k={k}"
                );
            }
        }
    }

    #[test]
    fn streamed_decode_matches_monolithic() {
        let schema = ClusterColoringSchema::default();
        for (rows, cols) in [(12usize, 10usize), (16, 9)] {
            let net = torus_net(rows, cols, SEED);
            let advice = torus_stream_encode(&schema, rows, cols, 1, SEED).expect("encode");
            let map = advice.to_advice_map(&schema);
            let want = schema.decode(&net, &map).expect("monolithic decode");
            let halo = want.1.rounds() + 1;
            for k in [1usize, 2, 4] {
                for resident in [1usize, 2, usize::MAX] {
                    let opts = ShardOpts::new(halo).resident(resident);
                    let got =
                        torus_stream_decode(&schema, &advice, k, &opts).expect("streamed decode");
                    assert_eq!(
                        got, want,
                        "rows={rows} cols={cols} k={k} resident={resident}"
                    );
                }
            }
        }
    }

    #[test]
    fn shallow_halo_is_reported_not_miscomputed() {
        let schema = ClusterColoringSchema::default();
        let advice = torus_stream_encode(&schema, 12, 12, 1, SEED).expect("encode");
        // The ladder's first rung needs radius 2·spacing + 2 = 10.
        match torus_stream_decode(&schema, &advice, 4, &ShardOpts::new(3)) {
            Err(DecodeError::Inconsistent(msg)) => {
                assert!(msg.contains("halo"), "unexpected message: {msg}")
            }
            other => panic!("expected a halo inconsistency, got {other:?}"),
        }
    }

    #[test]
    fn streamed_decode_is_schedule_and_residency_invariant() {
        let schema = ClusterColoringSchema::default();
        let advice = torus_stream_encode(&schema, 14, 11, 1, SEED).expect("encode");
        let probe = torus_stream_decode(&schema, &advice, 1, &ShardOpts::new(usize::MAX / 2))
            .expect("probe decode");
        let halo = probe.1.rounds() + 1;
        let a = torus_stream_decode(
            &schema,
            &advice,
            3,
            &ShardOpts::new(halo).schedule(vec![0, 1, 2]).resident(1),
        )
        .expect("forward");
        let b = torus_stream_decode(
            &schema,
            &advice,
            3,
            &ShardOpts::new(halo).schedule(vec![2, 0, 1]).resident(2),
        )
        .expect("permuted");
        assert_eq!(a, b);
        assert_eq!(a, probe);
    }
}
