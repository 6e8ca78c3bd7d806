//! Shard-at-a-time encode/decode for the cluster-coloring schema.
//!
//! The sharded driver ([`lad_runtime::run_sharded_stream_fallible`]) is
//! schema-agnostic; this module binds it to the paper's Δ-coloring
//! pipeline so instances too large for one address space can be encoded
//! and decoded with a bounded resident set.
//!
//! # Decode
//!
//! [`ClusterColoringSchema::decode_sharded`] runs the exact ladder step of
//! [`crate::AdviceSchema::decode`] (both call the shared
//! `ClusterColoringSchema::memo_step`) through the driver's
//! resident-network provider ([`lad_runtime::run_sharded_fallible`]), so
//! outputs, [`RoundStats`], and first-error payloads are bit-identical to
//! the monolithic path whenever the halo is deep enough. Every shard
//! climbs its nodes' ladders directly, with no class memo, and nothing is
//! written to disk. A ladder that outgrows the halo surfaces as a typed
//! [`DecodeError::Inconsistent`] instead of silently decoding from
//! truncated views.
//!
//! # Encode
//!
//! The monolithic encoder has three stages: a ruling set, the Voronoi
//! cluster assignment, and the cluster-graph coloring. The ruling set and
//! the (small) cluster graph stay global, but the assignment — the only
//! stage whose working set is a dense per-node candidate table — runs
//! shard-at-a-time: with halo depth `≥ spacing`, every interior node's
//! `(distance, uid)`-nearest center lies inside its shard view together
//! with a shortest path to it, so the per-shard assignment equals the
//! global one node for node, and the advice produced is bit-identical to
//! [`crate::AdviceSchema::encode`] (enforced by tests below).

use crate::advice::AdviceMap;
use crate::bits::BitString;
use crate::cluster_coloring::ClusterColoringSchema;
use crate::error::{DecodeError, EncodeError};
use lad_graph::{coloring, ruling, Graph, NodeId, Partition, ShardView};
use lad_runtime::{run_sharded_fallible, Network, RoundStats, ShardOpts};

impl ClusterColoringSchema {
    /// Decodes shard-at-a-time with a bounded resident set.
    ///
    /// Same contract as [`crate::AdviceSchema::decode`], plus: a decode
    /// ladder that needs a radius the halo cannot serve returns
    /// [`DecodeError::Inconsistent`] (rebuild with a deeper
    /// [`ShardOpts::halo_radius`] and rerun). Outputs and [`RoundStats`]
    /// are bit-identical to the monolithic decode for every shard count,
    /// residency bound, and schedule order.
    ///
    /// # Errors
    ///
    /// Everything [`crate::AdviceSchema::decode`] can return, plus the
    /// halo-depth inconsistency above.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not match the graph, or
    /// `opts.schedule` is not a permutation of the shard ids.
    pub fn decode_sharded(
        &self,
        net: &Network,
        advice: &AdviceMap,
        part: &Partition,
        opts: &ShardOpts,
    ) -> Result<(Vec<usize>, RoundStats), DecodeError> {
        let g = net.graph();
        if advice.n() != g.n() {
            return Err(DecodeError::Inconsistent(
                "advice covers a different node count".into(),
            ));
        }
        let advised = net.with_inputs(advice.strings());
        let (colors, stats) = run_sharded_fallible(
            &advised,
            part,
            opts,
            self.step_radius(),
            |bits: &BitString, words: &mut Vec<u64>| bits.push_key_words(words),
            |ball| self.memo_step(ball),
        )?;
        if !coloring::is_proper_coloring(g, &colors) {
            return Err(DecodeError::InvalidOutput(
                "decoded cluster coloring is improper".into(),
            ));
        }
        Ok((colors, stats))
    }

    /// Encodes shard-at-a-time: the Voronoi assignment (the encoder's only
    /// dense per-node stage) runs one shard view at a time, and the advice
    /// is bit-identical to [`crate::AdviceSchema::encode`].
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::AdviceSchema::encode`].
    ///
    /// # Panics
    ///
    /// Panics if the partition does not match the graph,
    /// `opts.halo_radius < cluster_spacing` (shallower halos cannot prove
    /// the per-shard assignment exact), or `opts.schedule` is not a
    /// permutation of the shard ids ([`ShardOpts::schedule_for`]).
    pub fn encode_sharded(
        &self,
        net: &Network,
        part: &Partition,
        opts: &ShardOpts,
    ) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let uids = net.uids();
        assert_eq!(
            part.n(),
            g.n(),
            "partition does not match the network's graph"
        );
        assert!(
            opts.halo_radius >= self.cluster_spacing,
            "sharded encode needs halo_radius ≥ cluster_spacing ({} < {}): an interior \
             node's nearest center lies within spacing − 1, so that halo keeps the whole \
             candidate set and its shortest paths inside the view",
            opts.halo_radius,
            self.cluster_spacing,
        );
        let centers = ruling::ruling_set(g, self.cluster_spacing);
        let mut is_center = vec![false; g.n()];
        for &c in &centers {
            is_center[c.index()] = true;
        }
        // Interior sets partition the nodes, so per-shard writes are
        // disjoint and the assignment is schedule-invariant.
        let mut cluster_of: Vec<NodeId> = vec![NodeId::from_index(0); g.n()];
        for s in opts.schedule_for(part.k()) {
            let view = ShardView::build(g, part, s, opts.halo_radius);
            let local_centers: Vec<NodeId> = (0..view.members.len())
                .map(NodeId::from_index)
                .filter(|li| is_center[view.members[li.index()].index()])
                .collect();
            let local_uids: Vec<u64> = view.members.iter().map(|&gv| uids[gv.index()]).collect();
            let assign = local_voronoi(
                &view.graph,
                &local_uids,
                &local_centers,
                self.cluster_spacing,
            );
            for (li, &gv) in view.members.iter().enumerate() {
                if view.interior[li] {
                    let lc = assign[li]
                        .expect("ruling set puts a center within spacing − 1 of every node");
                    cluster_of[gv.index()] = view.members[lc.index()];
                }
            }
        }
        Ok(self.advice_from_clusters(g, uids, &centers, &cluster_of)?.0)
    }
}

/// The `(distance, uid)`-nearest center within distance `spacing − 1` of
/// each node, or `None` beyond that range — the per-view slice of the
/// encoder's global Voronoi assignment.
///
/// One level-synchronous multi-source BFS; a node first reached at level
/// `d + 1` inherits the minimal candidate among its level-`d` neighbors,
/// which equals the per-center minimum (any nearest center of `w` routes
/// through a neighbor it is also nearest to).
pub(crate) fn local_voronoi(
    g: &Graph,
    uids: &[u64],
    centers: &[NodeId],
    spacing: usize,
) -> Vec<Option<NodeId>> {
    let mut nearest: Vec<Option<(usize, u64, NodeId)>> = vec![None; g.n()];
    let mut frontier: Vec<NodeId> = Vec::with_capacity(centers.len());
    for &c in centers {
        nearest[c.index()] = Some((0, uids[c.index()], c));
        frontier.push(c);
    }
    let mut next: Vec<NodeId> = Vec::new();
    for _ in 1..spacing {
        for &u in &frontier {
            let (d, bu, bc) = nearest[u.index()].expect("frontier nodes are reached");
            let cand = (d + 1, bu, bc);
            for &w in g.neighbors(u) {
                match &mut nearest[w.index()] {
                    slot @ None => {
                        *slot = Some(cand);
                        next.push(w);
                    }
                    Some((bd, bw, bcn)) => {
                        if (cand.0, cand.1) < (*bd, *bw) {
                            (*bd, *bw, *bcn) = cand;
                        }
                    }
                }
            }
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    nearest.into_iter().map(|o| o.map(|(_, _, c)| c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AdviceSchema;
    use lad_graph::{generators, IdAssignment};

    fn default_net(g: lad_graph::Graph) -> Network {
        Network::with_identity_ids(g)
    }

    #[test]
    fn sharded_encode_matches_monolithic() {
        let schema = ClusterColoringSchema::default();
        let graphs = vec![
            generators::cycle(90),
            generators::grid2d(9, 8, false),
            generators::random_bounded_degree(100, 5, 200, 3),
        ];
        for g in graphs {
            let n = g.n();
            let net = default_net(g);
            let want = schema.encode(&net).expect("monolithic encode");
            for k in [1usize, 2, 3] {
                let part = Partition::contiguous(n, k);
                let opts = ShardOpts::new(schema.cluster_spacing);
                let got = schema
                    .encode_sharded(&net, &part, &opts)
                    .expect("sharded encode");
                assert_eq!(got, want, "k={k}");
            }
            let part = Partition::bfs_grown(net.graph(), 3);
            let opts = ShardOpts::new(schema.cluster_spacing + 2).schedule(vec![2, 0, 1]);
            let got = schema
                .encode_sharded(&net, &part, &opts)
                .expect("bfs-grown sharded encode");
            assert_eq!(got, want, "bfs-grown, permuted schedule");
        }
        // The benchmark's shard shape, small: a torus with row-major IDs,
        // every row rotated by one offset, cut into 8 row bands, up to
        // the benchmark's halo of 64 (past the torus's diameter).
        let side = 32;
        let uid = |i: usize| (i / side * side + (i + 5) % side) as u64 + 1;
        let ids = IdAssignment::from_uids((0..side * side).map(uid).collect());
        let net = Network::with_ids(generators::grid2d(side, side, true), ids);
        let want = schema.encode(&net).expect("monolithic encode");
        let part = Partition::contiguous(side * side, 8);
        for halo in [4usize, 12, 64] {
            let got = schema
                .encode_sharded(&net, &part, &ShardOpts::new(halo))
                .expect("sharded encode");
            assert_eq!(got, want, "row-rotated torus, halo {halo}");
        }
    }

    #[test]
    fn encoder_and_decoder_reject_bad_schedules_alike() {
        let schema = ClusterColoringSchema::default();
        let net = default_net(generators::cycle(90));
        let advice = schema.encode(&net).expect("encode");
        let part = Partition::contiguous(90, 3);
        // Too short, a repeat, and a single shard three times: each would
        // leave a shard's nodes unassigned.
        for schedule in [vec![0, 1], vec![0, 0, 1], vec![2, 2, 2]] {
            let opts = ShardOpts::new(schema.cluster_spacing).schedule(schedule.clone());
            let encoded = std::panic::catch_unwind(|| schema.encode_sharded(&net, &part, &opts))
                .map(|_| ())
                .expect_err("encode accepted a bad schedule");
            let decoded =
                std::panic::catch_unwind(|| schema.decode_sharded(&net, &advice, &part, &opts))
                    .map(|_| ())
                    .expect_err("decode accepted a bad schedule");
            let encode_msg = encoded.downcast_ref::<String>();
            assert!(encode_msg.is_some(), "{schedule:?}");
            assert_eq!(encode_msg, decoded.downcast_ref::<String>(), "{schedule:?}");
        }
    }

    #[test]
    fn sharded_decode_matches_monolithic() {
        let schema = ClusterColoringSchema::default();
        // Every decode names a scratch directory, which the driver must
        // leave empty.
        let dir = std::env::temp_dir().join(format!("lad-sharded-decode-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        let check =
            |net: &Network, advice: &AdviceMap, want: &(Vec<usize>, RoundStats), k, opts| {
                let part = Partition::contiguous(net.graph().n(), k);
                let opts = ShardOpts::spill_dir(opts, &dir);
                let got = schema
                    .decode_sharded(net, advice, &part, &opts)
                    .expect("sharded decode");
                assert_eq!(&got, want, "k={k} {opts:?}");
                let written: Vec<_> = std::fs::read_dir(&dir)
                    .expect("scratch directory")
                    .map(|e| e.expect("readable entry").file_name())
                    .collect();
                assert!(written.is_empty(), "k={k} {opts:?}: wrote {written:?}");
            };
        for g in [
            generators::cycle(120),
            generators::grid2d(10, 9, false),
            generators::random_bounded_degree(110, 4, 200, 9),
        ] {
            let net = default_net(g);
            let advice = schema.encode(&net).expect("encode");
            let want = schema.decode(&net, &advice).expect("monolithic decode");
            // Halo deep enough for the deepest ladder the reference ran.
            let halo = want.1.rounds() + 1;
            for k in [1usize, 2, 4] {
                for resident in [1usize, 2, usize::MAX] {
                    check(
                        &net,
                        &advice,
                        &want,
                        k,
                        ShardOpts::new(halo).resident(resident),
                    );
                }
            }
        }
        // The benchmark's shard shape, small: a torus with row-rotated IDs
        // in 8 row bands, at the reference's depth and at the benchmark's
        // halo of 64 (past the torus's diameter).
        let side = 32;
        let uid = |i: usize| (i / side * side + (i + 5) % side) as u64 + 1;
        let ids = IdAssignment::from_uids((0..side * side).map(uid).collect());
        let net = Network::with_ids(generators::grid2d(side, side, true), ids);
        let advice = schema.encode(&net).expect("encode");
        let want = schema.decode(&net, &advice).expect("monolithic decode");
        for halo in [want.1.rounds() + 1, 64] {
            for resident in [1usize, 2, usize::MAX] {
                check(
                    &net,
                    &advice,
                    &want,
                    8,
                    ShardOpts::new(halo).resident(resident),
                );
            }
        }
        std::fs::remove_dir_all(&dir).expect("remove scratch directory");
    }

    #[test]
    fn shallow_halo_is_reported_not_miscomputed() {
        let schema = ClusterColoringSchema::default();
        let net = default_net(generators::cycle(80));
        let advice = schema.encode(&net).expect("encode");
        let part = Partition::contiguous(80, 4);
        // The ladder starts at 2·spacing + 2 = 10; a halo of 3 cannot even
        // serve the first rung of a truncated shard.
        let opts = ShardOpts::new(3);
        match schema.decode_sharded(&net, &advice, &part, &opts) {
            Err(DecodeError::Inconsistent(msg)) => {
                assert!(msg.contains("halo"), "unexpected message: {msg}")
            }
            other => panic!("expected a halo inconsistency, got {other:?}"),
        }
    }

    #[test]
    fn sharded_decode_is_schedule_invariant() {
        let schema = ClusterColoringSchema::default();
        let net = default_net(generators::grid2d(8, 8, false));
        let advice = schema.encode(&net).expect("encode");
        let reference = schema.decode(&net, &advice).expect("decode");
        let halo = reference.1.rounds() + 1;
        let part = Partition::bfs_grown(net.graph(), 3);
        let a = schema
            .decode_sharded(
                &net,
                &advice,
                &part,
                &ShardOpts::new(halo).schedule(vec![0, 1, 2]).resident(1),
            )
            .expect("forward");
        let b = schema
            .decode_sharded(
                &net,
                &advice,
                &part,
                &ShardOpts::new(halo).schedule(vec![2, 1, 0]).resident(2),
            )
            .expect("reverse");
        assert_eq!(a, b);
        assert_eq!(a, reference);
    }
}
