//! Contribution 5, stages 1–2 (Section 6.1): a proper `(Δ+1)`-coloring
//! from sparse cluster advice.
//!
//! The paper first computes an `O(Δ²)`-coloring via a ruling-set
//! clustering whose *cluster colors* are written into the advice, then
//! reduces to `Δ+1` colors with a standard distributed algorithm. We fuse
//! the two stages: with cluster colors in hand, the coloring
//!
//! > greedy over the global order `(color of own cluster, UID)`
//!
//! is simultaneously proper, uses at most `Δ+1` colors, and is *locally
//! simulatable*: the greedy dependency chain from a node descends through
//! strictly lower cluster colors every time it leaves a cluster, so it
//! spans at most `(#cluster colors) × (cluster diameter + 1)` hops — a
//! function of `Δ` and the schema parameters only, never of `n`.
//!
//! Advice: each cluster center holds its cluster color
//! (`⌈log₂ max_cluster_colors⌉` bits); everyone else holds nothing. The
//! decoder identifies centers by their non-empty advice, reconstructs the
//! Voronoi clustering (nearest center, ties by center UID), and expands
//! its view adaptively until its own greedy color is determined.

use crate::advice::AdviceMap;
use crate::bits::{bit_width, BitReader, BitString};
use crate::error::{DecodeError, EncodeError};
use crate::schema::AdviceSchema;
use lad_graph::{coloring, ruling, Graph, NodeId};
use lad_runtime::{LocalView, MemoStep, Network, RoundStats, Run};

/// The fused cluster-coloring schema producing a proper `(Δ+1)`-coloring.
///
/// # Example
///
/// ```
/// use lad_core::cluster_coloring::ClusterColoringSchema;
/// use lad_core::schema::AdviceSchema;
/// use lad_graph::{coloring, generators};
/// use lad_runtime::Network;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::random_bounded_degree(120, 4, 220, 7);
/// let delta = g.max_degree();
/// let net = Network::with_identity_ids(g);
/// let schema = ClusterColoringSchema::default();
/// let advice = schema.encode(&net)?;
/// let (colors, _) = schema.decode(&net, &advice)?;
/// assert!(coloring::is_proper_k_coloring(net.graph(), &colors, delta + 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterColoringSchema {
    /// Ruling-set spacing: cluster radius is below this, and centers are
    /// pairwise at least this far apart.
    pub cluster_spacing: usize,
    /// Upper bound on cluster colors the encoder may use (fixes the advice
    /// width and the decoder's worst-case radius).
    pub max_cluster_colors: usize,
}

impl Default for ClusterColoringSchema {
    fn default() -> Self {
        ClusterColoringSchema {
            cluster_spacing: 4,
            max_cluster_colors: 64,
        }
    }
}

impl ClusterColoringSchema {
    /// A schema with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(cluster_spacing: usize, max_cluster_colors: usize) -> Self {
        assert!(cluster_spacing >= 1 && max_cluster_colors >= 1);
        ClusterColoringSchema {
            cluster_spacing,
            max_cluster_colors,
        }
    }

    /// Advice width at a center.
    pub fn color_width(&self) -> usize {
        bit_width(self.max_cluster_colors)
    }

    /// The decoder's worst-case view radius.
    pub fn max_radius(&self) -> usize {
        (self.max_cluster_colors + 2) * (2 * self.cluster_spacing + 2)
    }

    /// The decode ladder's initial radius and per-`Expand` increment.
    pub fn step_radius(&self) -> usize {
        2 * self.cluster_spacing + 2
    }

    /// One rung of the decode ladder as a [`MemoStep`], written once over
    /// [`LocalView`]: [`AdviceSchema::decode`] runs it on the ladder's
    /// borrowed [`lad_runtime::BallView`]s, and the sharded driver, the
    /// class-memo pass and the decode server on collected
    /// [`lad_runtime::Ball`]s, so the paths cannot drift. `simulate_greedy`
    /// reads identifiers only through order comparisons (nearest-center
    /// tie-breaks, greedy order), so a rung is a function of the canonical
    /// advice-labeled view, which a class memo needs.
    pub(crate) fn memo_step(
        &self,
        ball: &impl LocalView<BitString>,
    ) -> Result<MemoStep<usize>, DecodeError> {
        let r = ball.radius();
        let max_radius = self.max_radius();
        match simulate_greedy(
            ball,
            self.cluster_spacing,
            self.color_width(),
            self.max_cluster_colors,
        )? {
            Some(color) => Ok(MemoStep::Done(color)),
            None if r >= max_radius => Err(DecodeError::malformed(
                ball.global_node(ball.center()),
                "greedy color undetermined at the maximum radius",
            )),
            None => Ok(MemoStep::Expand((r + self.step_radius()).min(max_radius))),
        }
    }

    /// The Voronoi clustering induced by `centers`: for each node, the
    /// `(distance, uid)`-nearest center.
    ///
    /// `centers` is a `spacing`-ruling set, so every node has a center
    /// within `spacing − 1` — a strictly smaller distance always wins the
    /// `(distance, uid)` comparison, so centers farther than `spacing − 1`
    /// can never claim a node. Each center therefore runs a BFS *bounded
    /// to radius `spacing − 1`* over an epoch-stamped visited array
    /// (ball-sized work per center instead of `O(n)`), and centers fan out
    /// across workers whose claim arrays merge by the same deterministic
    /// minimum. Result is identical to the full all-centers Voronoi.
    pub(crate) fn assign_clusters(
        g: &Graph,
        uids: &[u64],
        centers: &[NodeId],
        spacing: usize,
        run: &Run,
    ) -> Vec<NodeId> {
        let chunk_len = centers.len().div_ceil(run.thread_count(g.n())).max(1);
        let chunks: Vec<&[NodeId]> = centers.chunks(chunk_len).collect();
        let claims: Vec<Vec<Option<(usize, u64, NodeId)>>> = run.map(&chunks, |_, chunk| {
            let mut best: Vec<Option<(usize, u64, NodeId)>> = vec![None; g.n()];
            let mut stamp = vec![0u32; g.n()];
            let mut epoch = 0u32;
            let mut queue: Vec<(NodeId, usize)> = Vec::new();
            for &c in *chunk {
                epoch += 1;
                queue.clear();
                queue.push((c, 0));
                stamp[c.index()] = epoch;
                let mut head = 0;
                while head < queue.len() {
                    let (v, d) = queue[head];
                    head += 1;
                    let cand = (d, uids[c.index()], c);
                    if best[v.index()].is_none_or(|(bd, bu, _)| (cand.0, cand.1) < (bd, bu)) {
                        best[v.index()] = Some(cand);
                    }
                    if d + 1 < spacing {
                        for &u in g.neighbors(v) {
                            if stamp[u.index()] != epoch {
                                stamp[u.index()] = epoch;
                                queue.push((u, d + 1));
                            }
                        }
                    }
                }
            }
            best
        });
        let mut best: Vec<Option<(usize, u64, NodeId)>> = vec![None; g.n()];
        for chunk_best in claims {
            for (i, cand) in chunk_best.into_iter().enumerate() {
                if let Some(c) = cand {
                    if best[i].is_none_or(|(bd, bu, _)| (c.0, c.1) < (bd, bu)) {
                        best[i] = Some(c);
                    }
                }
            }
        }
        best.into_iter()
            .map(|b| b.expect("ruling set dominates every node").2)
            .collect()
    }

    /// The encode tail shared by the monolithic and sharded encoders:
    /// colors the cluster graph greedily (by center uid order) and packs
    /// each center's cluster color into the advice arena. Both encoders
    /// produce the same `(centers, cluster_of)` inputs, so sharing this
    /// tail is what makes their advice bit-identical.
    ///
    /// Also hands back the cluster colors, indexed like `centers`.
    pub(crate) fn advice_from_clusters(
        &self,
        g: &Graph,
        uids: &[u64],
        centers: &[NodeId],
        cluster_of: &[NodeId],
    ) -> Result<(AdviceMap, Vec<usize>), EncodeError> {
        let mut center_index = vec![usize::MAX; g.n()];
        for (i, &c) in centers.iter().enumerate() {
            center_index[c.index()] = i;
        }
        let mut cb = lad_graph::GraphBuilder::new(centers.len());
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
        if used > self.max_cluster_colors {
            return Err(EncodeError::PlacementFailed(format!(
                "cluster graph needs {used} colors > configured max {}",
                self.max_cluster_colors
            )));
        }
        let width = self.color_width();
        // Packed once via `from_strings` (per-center `set` calls would
        // shift the arena tail, quadratic in the center count).
        let mut strings = vec![BitString::new(); g.n()];
        for (i, &c) in centers.iter().enumerate() {
            let mut bits = BitString::new();
            bits.push_uint(cluster_colors[i] as u64, width);
            strings[c.index()] = bits;
        }
        Ok((AdviceMap::from_strings(strings), cluster_colors))
    }

    /// [`AdviceSchema::encode`] together with the stage-1 coloring its
    /// advice decodes to, computed centrally: greedy over the global order
    /// `(color of own cluster, UID)`. The decoder replays the same greedy
    /// locally from the advice alone; the unit test
    /// `central_coloring_is_the_decoders_oracle` pins that the two agree.
    /// The Δ encoder uses it in place of running the LOCAL decoder: unlike
    /// the decoder, an encoder sees the whole graph.
    pub(crate) fn encode_with_coloring(
        &self,
        net: &Network,
        run: &Run,
    ) -> Result<(AdviceMap, Vec<usize>), EncodeError> {
        let g = net.graph();
        let uids = net.uids();
        let centers = ruling::ruling_set(g, self.cluster_spacing);
        let cluster_of = Self::assign_clusters(g, uids, &centers, self.cluster_spacing, run);
        let (advice, cluster_colors) = self.advice_from_clusters(g, uids, &centers, &cluster_of)?;
        let mut center_color = vec![0; g.n()];
        for (&c, &color) in centers.iter().zip(&cluster_colors) {
            center_color[c.index()] = color;
        }
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_unstable_by_key(|v| {
            (center_color[cluster_of[v.index()].index()], uids[v.index()])
        });
        Ok((advice, coloring::greedy_coloring(g, &order)))
    }
}

impl AdviceSchema for ClusterColoringSchema {
    type Output = Vec<usize>;

    fn name(&self) -> String {
        format!(
            "cluster-coloring(spacing={}, colors<={})",
            self.cluster_spacing, self.max_cluster_colors
        )
    }

    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let uids = net.uids();
        let centers = ruling::ruling_set(g, self.cluster_spacing);
        let cluster_of = Self::assign_clusters(g, uids, &centers, self.cluster_spacing, run);
        Ok(self.advice_from_clusters(g, uids, &centers, &cluster_of)?.0)
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Vec<usize>, RoundStats), DecodeError> {
        let g = net.graph();
        if advice.n() != g.n() {
            return Err(DecodeError::Inconsistent(
                "advice covers a different node count".into(),
            ));
        }
        let advised = net.with_inputs(advice.strings());
        let (colors, stats) =
            run.ladder(&advised, self.step_radius(), |ball| self.memo_step(ball))?;
        // Validate output properness like a checker would.
        if !coloring::is_proper_coloring(g, &colors) {
            return Err(DecodeError::InvalidOutput(
                "decoded cluster coloring is improper".into(),
            ));
        }
        Ok((colors, stats))
    }
}

impl ClusterColoringSchema {
    /// Per-node oracle decode over the *reference* executor
    /// ([`lad_runtime::run_local_fallible`], fresh un-shared BFS per view
    /// request): the differential baseline the planned
    /// [`AdviceSchema::decode`] ladder is pinned against in tests.
    ///
    /// # Errors
    ///
    /// Same contract as [`AdviceSchema::decode`].
    pub fn decode_reference(
        &self,
        net: &Network,
        advice: &AdviceMap,
    ) -> Result<(Vec<usize>, RoundStats), DecodeError> {
        let g = net.graph();
        if advice.n() != g.n() {
            return Err(DecodeError::Inconsistent(
                "advice covers a different node count".into(),
            ));
        }
        let advised = net.with_inputs(advice.strings());
        let spacing = self.cluster_spacing;
        let width = self.color_width();
        let max_colors = self.max_cluster_colors;
        let max_radius = self.max_radius();
        let (colors, stats) = lad_runtime::run_local_fallible(&advised, |ctx| {
            let mut r = 2 * spacing + 2;
            loop {
                let ball = ctx.ball(r);
                match simulate_greedy(&ball, spacing, width, max_colors)? {
                    Some(color) => return Ok(color),
                    None => {
                        if r >= max_radius {
                            return Err(DecodeError::malformed(
                                ball.global_node(ball.center()),
                                "greedy color undetermined at the maximum radius",
                            ));
                        }
                        r = (r + 2 * spacing + 2).min(max_radius);
                    }
                }
            }
        })?;
        if !coloring::is_proper_coloring(g, &colors) {
            return Err(DecodeError::InvalidOutput(
                "decoded cluster coloring is improper".into(),
            ));
        }
        Ok((colors, stats))
    }
}

/// One adaptive step: simulate the `(cluster color, uid)`-greedy coloring
/// inside the view; `Ok(Some(color))` once the center's color is forced.
/// Every pass reads the view's members by local index and their
/// neighbours as a set, so a [`lad_runtime::Ball`] and a
/// [`lad_runtime::BallView`] of the same node and radius give the same
/// answer.
fn simulate_greedy(
    ball: &impl LocalView<BitString>,
    spacing: usize,
    width: usize,
    max_colors: usize,
) -> Result<Option<usize>, DecodeError> {
    let n = ball.n();
    let nodes = || (0..n).map(NodeId::from_index);
    let r = ball.radius();
    // 1. Centers: nodes with non-empty advice.
    let mut centers = Vec::new();
    for w in nodes() {
        let bits = ball.input(w);
        if bits.is_empty() {
            continue;
        }
        if bits.len() != width {
            return Err(DecodeError::malformed(
                ball.global_node(w),
                "cluster-color advice has the wrong width",
            ));
        }
        let mut reader = BitReader::new(bits);
        let color = reader.read_uint(width).expect("width checked") as usize;
        if color >= max_colors {
            return Err(DecodeError::malformed(
                ball.global_node(w),
                "cluster color out of range",
            ));
        }
        centers.push((w, color));
    }
    // 2. Trusted membership: nodes at ball-distance ≤ r − spacing whose
    // nearest in-ball center is within spacing − 1.
    //
    // One level-synchronous multi-source BFS computes every node's
    // `(dist, uid)`-minimal center in O(ball) instead of one BFS per
    // center: a node first reached at level d + 1 inherits the minimal
    // candidate among its level-d neighbors, and that minimum equals the
    // per-center minimum of (distance, center uid) — any nearest center
    // of w routes through a neighbor it is also nearest to.
    //
    // The per-node state is compact: a 16-byte `(distance, center slot,
    // center uid)` record, where the slot indexes `centers` (and so names
    // the cluster color) and `UNREACHED` marks a node no center reaches.
    const UNREACHED: u32 = u32::MAX;
    let mut nearest: Vec<(u32, u32, u64)> = vec![(UNREACHED, 0, 0); n];
    let mut frontier: Vec<NodeId> = Vec::with_capacity(centers.len());
    for (slot, &(c, _)) in centers.iter().enumerate() {
        nearest[c.index()] = (0, slot as u32, ball.uid(c));
        frontier.push(c);
    }
    let mut next: Vec<NodeId> = Vec::new();
    while !frontier.is_empty() {
        for &u in &frontier {
            let (d, slot, uid) = nearest[u.index()];
            let cand = (d + 1, slot, uid);
            for w in ball.neighbors(u) {
                let best = &mut nearest[w.index()];
                if best.0 == UNREACHED {
                    *best = cand;
                    next.push(w);
                } else if (cand.0, cand.2) < (best.0, best.2) {
                    *best = cand;
                }
            }
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    // A trusted node's greedy order key `(cluster color, uid)`, packed
    // into one `u128` as `color << 64 | uid`. Colors are below
    // `max_colors ≤ usize::MAX`, so no trusted key reaches `UNTRUSTED`.
    const UNTRUSTED: u128 = u128::MAX;
    let order: Vec<u128> = nodes()
        .map(|w| {
            if ball.dist(w) + spacing > r || !ball.knows_all_edges_of(w) {
                return UNTRUSTED;
            }
            match nearest[w.index()] {
                (d, slot, _) if d != UNREACHED && (d as usize) < spacing => {
                    (centers[slot as usize].1 as u128) << 64 | u128::from(ball.uid(w))
                }
                _ => UNTRUSTED,
            }
        })
        .collect();
    // 3. Greedy colors in dependency order: a trusted node takes the mex
    // of its lower-order neighbors' colors once all of them are decided.
    // An untrusted neighbor's order is unknowable — only a center-distance
    // argument could exclude it — so it is treated as potentially lower
    // and blocks its neighbors forever. The assignment is the unique
    // bottom-up fixpoint, so propagating readiness counts (each edge
    // visited O(1) times) colors exactly the nodes the round-based
    // fixpoint scan would, with the same colors.
    const UNCOLORED: u32 = u32::MAX;
    let mut colors: Vec<u32> = vec![UNCOLORED; n];
    const BLOCKED: u32 = u32::MAX;
    let mut pending: Vec<u32> = vec![BLOCKED; n];
    let mut ready: Vec<NodeId> = Vec::new();
    for w in nodes() {
        let my_order = order[w.index()];
        if my_order == UNTRUSTED {
            continue;
        }
        let mut lower_undecided = 0u32;
        let mut blocked = false;
        for u in ball.neighbors(w) {
            match order[u.index()] {
                UNTRUSTED => {
                    blocked = true;
                    break;
                }
                o if o < my_order => lower_undecided += 1,
                _ => {}
            }
        }
        if blocked {
            continue;
        }
        pending[w.index()] = lower_undecided;
        if lower_undecided == 0 {
            ready.push(w);
        }
    }
    let mut used: Vec<u32> = Vec::new();
    while let Some(w) = ready.pop() {
        let my_order = order[w.index()];
        used.clear();
        for u in ball.neighbors(w) {
            // Ready nodes have no untrusted neighbor, so this is exactly
            // the lower-order neighbors.
            if order[u.index()] < my_order {
                let c = colors[u.index()];
                assert_ne!(c, UNCOLORED, "lower neighbors are colored");
                used.push(c);
            }
        }
        used.sort_unstable();
        used.dedup();
        let mut c = 0;
        for &u in used.iter() {
            if u == c {
                c += 1;
            } else if u > c {
                break;
            }
        }
        colors[w.index()] = c;
        for u in ball.neighbors(w) {
            // Only trusted, unblocked nodes have a pending count.
            if pending[u.index()] != BLOCKED && order[u.index()] > my_order {
                pending[u.index()] -= 1;
                if pending[u.index()] == 0 {
                    ready.push(u);
                }
            }
        }
    }
    let color = colors[ball.center().index()];
    Ok((color != UNCOLORED).then_some(color as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    fn check(net: &Network, schema: &ClusterColoringSchema) -> (Vec<usize>, RoundStats) {
        let advice = schema.encode(net).expect("encode");
        let (colors, stats) = schema.decode(net, &advice).expect("decode");
        let delta = net.graph().max_degree();
        assert!(
            coloring::is_proper_k_coloring(net.graph(), &colors, delta + 1),
            "not a proper (Δ+1)-coloring"
        );
        (colors, stats)
    }

    #[test]
    fn cycle_gets_three_colors() {
        let net = Network::with_identity_ids(generators::cycle(120));
        check(&net, &ClusterColoringSchema::default());
    }

    #[test]
    fn random_graphs() {
        for seed in 0..5 {
            let g = generators::random_bounded_degree(100, 5, 200, seed);
            let net = Network::with_identity_ids(g);
            check(&net, &ClusterColoringSchema::default());
        }
    }

    #[test]
    fn grid() {
        let net = Network::with_identity_ids(generators::grid2d(10, 10, false));
        check(&net, &ClusterColoringSchema::default());
    }

    #[test]
    fn advice_only_at_centers() {
        let net = Network::with_identity_ids(generators::cycle(90));
        let schema = ClusterColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        // Roughly one center per spacing-ball.
        let holders = advice.holders().count();
        assert!(holders <= 90 / schema.cluster_spacing + 1);
        assert!(holders >= 90 / (2 * schema.cluster_spacing + 1));
        // Fixed width at each holder.
        for h in advice.holders() {
            assert_eq!(advice.get(h).len(), schema.color_width());
        }
    }

    #[test]
    fn rounds_do_not_grow_with_n() {
        let schema = ClusterColoringSchema::default();
        let mut rounds = Vec::new();
        for n in [100usize, 300] {
            let net = Network::with_identity_ids(generators::cycle(n));
            let (_, stats) = check(&net, &schema);
            rounds.push(stats.rounds());
        }
        // Adaptive radius depends on local cluster-color structure, not n.
        assert!(rounds[1] <= rounds[0] + 2 * schema.cluster_spacing + 2);
    }

    #[test]
    fn tampered_cluster_color_detected() {
        let net = Network::with_identity_ids(generators::cycle(80));
        let schema = ClusterColoringSchema::default();
        let mut advice = schema.encode(&net).unwrap();
        // Overwrite one center's color with an out-of-range value... the
        // width makes that impossible; instead corrupt the width itself.
        let holder = advice.holders().next().unwrap();
        advice.set(holder, BitString::parse("1"));
        assert!(schema.decode(&net, &advice).is_err());
    }

    /// The central stage-1 coloring shares no code with `simulate_greedy`
    /// or the executors, so it is an independent oracle for the decoder.
    #[test]
    fn central_coloring_is_the_decoders_oracle() {
        use lad_graph::{GraphBuilder, IdAssignment};
        // The generator grid of `tests/encoder_memo.rs`, three ID seeds.
        let grid = [
            generators::path(17),
            generators::cycle(24),
            generators::star(6),
            generators::complete(7),
            generators::balanced_tree(2, 4),
            generators::caterpillar(8, 2),
            generators::random_tree(30, 3),
            generators::grid2d(6, 5, false),
            generators::grid2d(5, 5, true),
            generators::hypercube(4),
            generators::ladder(6),
            generators::random_regular(24, 3, 5),
            generators::random_bounded_degree(40, 4, 60, 9),
            generators::random_torus_patch(8, 8, 0.85, 4),
            generators::disjoint_union(&[
                generators::cycle(5),
                generators::path(4),
                GraphBuilder::new(2).build(),
            ]),
        ];
        let mut nets = Vec::new();
        for g in &grid {
            for seed in [0xC0FFEE, 1, 2] {
                let ids = IdAssignment::random_permutation(g.n(), seed);
                nets.push(Network::with_ids(g.clone(), ids));
            }
        }
        // 32×32 tori with the pipelines' two ID kinds: row-major IDs with
        // every row rotated by one offset, and random permutations.
        let side = 32;
        let torus = generators::grid2d(side, side, true);
        for offset in [0, 5, 19] {
            let uid = |i: usize| (i / side * side + (i + offset) % side) as u64 + 1;
            let ids = IdAssignment::from_uids((0..side * side).map(uid).collect());
            nets.push(Network::with_ids(torus.clone(), ids));
        }
        for seed in [3, 4, 5] {
            let ids = IdAssignment::random_permutation(side * side, seed);
            nets.push(Network::with_ids(torus.clone(), ids));
        }
        let schema = ClusterColoringSchema::default();
        for (i, net) in nets.iter().enumerate() {
            let (advice, central) = schema
                .encode_with_coloring(net, &Run::default())
                .expect("encode");
            assert_eq!(advice, schema.encode(net).expect("encode"), "network {i}");
            let (decoded, _) = schema.decode(net, &advice).expect("decode");
            assert_eq!(decoded, central, "network {i}");
        }
    }

    #[test]
    fn equal_colors_give_proper_coloring_anyway() {
        // Decoded output is validated; a maliciously *consistent* but
        // wrong advice can at worst inflate colors, never break properness
        // silently.
        let net = Network::with_identity_ids(generators::cycle(50));
        let schema = ClusterColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        match schema.decode(&net, &advice) {
            Ok((colors, _)) => assert!(coloring::is_proper_coloring(net.graph(), &colors)),
            Err(_) => panic!("honest advice must decode"),
        }
    }
}
