//! Contribution 4: local decompression of an arbitrary edge subset at
//! `⌈d/2⌉ + 1` bits per degree-`d` node.
//!
//! A trivial encoding stores, at each node, one membership bit per
//! *incident* edge: `d` bits. An information-theoretic argument needs
//! `|E|` bits in total, i.e. `d/2` per node on `d`-regular graphs — so the
//! trivial factor-2 redundancy (every edge stored at both endpoints) is
//! exactly what there is to save.
//!
//! The paper's trick: spend 1 bit per node on an almost-balanced
//! orientation (Contribution 3); then each node stores membership bits for
//! its *outgoing* edges only — at most `⌈d/2⌉` of them. Every edge is
//! stored exactly once (at its tail), and the head learns it in one extra
//! round.
//!
//! Here the orientation advice is the [`BalancedOrientationSchema`]'s
//! variable-length track (empty at all but the anchor nodes), so a
//! non-anchor node pays `outdeg + 1` bits — within the paper's
//! `⌈d/2⌉ + 1` — and anchor nodes pay a constant more.

use crate::advice::AdviceMap;
use crate::balanced::BalancedOrientationSchema;
use crate::bits::{BitReader, BitString};
use crate::error::{DecodeError, EncodeError};
use crate::schema::AdviceSchema;
use lad_graph::orientation::sorted_incident_by_uid;
use lad_graph::Orientation;
use lad_runtime::{Network, RoundStats, Run};

/// The edge-subset compressor/decompressor (Contribution 4).
///
/// # Example
///
/// ```
/// use lad_core::decompress::EdgeSubsetCodec;
/// use lad_graph::generators;
/// use lad_runtime::Network;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::with_identity_ids(generators::grid2d(8, 8, true));
/// let subset: Vec<bool> = (0..net.graph().m()).map(|i| i % 3 == 0).collect();
/// let codec = EdgeSubsetCodec::default();
/// let advice = codec.compress(&net, &subset)?;
/// let (decoded, _) = codec.decompress(&net, &advice)?;
/// assert_eq!(decoded, subset);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeSubsetCodec {
    /// The orientation schema providing the outgoing-edge structure.
    pub orientation: BalancedOrientationSchema,
}

impl EdgeSubsetCodec {
    /// A codec over an explicit orientation schema.
    pub fn new(orientation: BalancedOrientationSchema) -> Self {
        EdgeSubsetCodec { orientation }
    }

    /// The paper's per-node bound for a degree-`d` node: `⌈d/2⌉ + 1`.
    pub fn paper_bound(d: usize) -> usize {
        d.div_ceil(2) + 1
    }

    /// The trivial per-node cost: `d` bits.
    pub fn trivial_cost(d: usize) -> usize {
        d
    }

    /// Compresses `subset` (one membership bit per edge) into per-node
    /// advice: `γ(len(orientation track)) · orientation track · outgoing
    /// membership bits`. The membership part needs no length header — the
    /// decoder knows its out-degree once it has decoded the orientation.
    ///
    /// # Errors
    ///
    /// Propagates orientation-encoding failures.
    ///
    /// # Panics
    ///
    /// Panics if `subset.len()` differs from the edge count.
    pub fn compress(&self, net: &Network, subset: &[bool]) -> Result<AdviceMap, EncodeError> {
        self.compress_with(net, subset, &Run::default())
    }

    /// [`EdgeSubsetCodec::compress`], fanning out under `run`.
    ///
    /// # Errors
    ///
    /// Propagates orientation-encoding failures.
    ///
    /// # Panics
    ///
    /// Panics if `subset.len()` differs from the edge count.
    pub fn compress_with(
        &self,
        net: &Network,
        subset: &[bool],
        run: &Run,
    ) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        assert_eq!(subset.len(), g.m(), "one membership bit per edge");
        let orient_advice = self.orientation.encode_with(net, run)?;
        // The orientation the decoder will reconstruct (decoding centrally
        // is exact — encoder and decoder share all the code).
        let (orientation, _) = self
            .orientation
            .decode_with(net, &orient_advice, run)
            .map_err(|e| EncodeError::PlacementFailed(format!("self-decode failed: {e}")))?;
        let uids = net.uids();
        let mut advice = AdviceMap::empty(g.n());
        for v in g.nodes() {
            let track0 = orient_advice.get(v);
            let mut s = BitString::new();
            s.push_gamma(track0.len() as u64);
            s.extend(&track0);
            for e in sorted_incident_by_uid(g, uids, v) {
                if orientation.is_outgoing(g, e, v) {
                    s.push(subset[e.index()]);
                }
            }
            advice.set(v, s);
        }
        Ok(advice)
    }

    /// Splits each node's advice into (orientation track, membership bits).
    fn split(
        &self,
        net: &Network,
        advice: &AdviceMap,
    ) -> Result<(AdviceMap, Vec<BitString>), DecodeError> {
        let g = net.graph();
        let mut orient_track = AdviceMap::empty(g.n());
        let mut membership = Vec::with_capacity(g.n());
        for v in g.nodes() {
            let s = advice.get(v);
            let mut r = BitReader::new(&s);
            let len = r
                .read_gamma()
                .ok_or_else(|| DecodeError::malformed(v, "missing track header"))?
                as usize;
            let mut t0 = BitString::new();
            for _ in 0..len {
                t0.push(
                    r.read_bit()
                        .ok_or_else(|| DecodeError::malformed(v, "truncated orientation track"))?,
                );
            }
            let mut t1 = BitString::new();
            while let Some(b) = r.read_bit() {
                t1.push(b);
            }
            orient_track.set(v, t0);
            membership.push(t1);
        }
        Ok((orient_track, membership))
    }

    /// Decompresses advice back into per-edge membership bits.
    ///
    /// # Errors
    ///
    /// Rejects advice whose membership part has the wrong length for the
    /// decoded out-degree, or whose orientation track is malformed.
    pub fn decompress(
        &self,
        net: &Network,
        advice: &AdviceMap,
    ) -> Result<(Vec<bool>, RoundStats), DecodeError> {
        self.decompress_with(net, advice, &Run::default())
    }

    /// [`EdgeSubsetCodec::decompress`], decoding under `run`.
    ///
    /// # Errors
    ///
    /// See [`EdgeSubsetCodec::decompress`].
    pub fn decompress_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Vec<bool>, RoundStats), DecodeError> {
        let g = net.graph();
        if advice.n() != g.n() {
            return Err(DecodeError::Inconsistent(
                "advice covers a different node count".into(),
            ));
        }
        // Splitting is a 0-round per-node operation.
        let (orient_track, membership) = self.split(net, advice)?;
        let (orientation, stats) = self.orientation.decode_with(net, &orient_track, run)?;
        // Each tail assigns its outgoing membership bits; heads learn them
        // in one extra round.
        let uids = net.uids();
        let mut out = vec![false; g.m()];
        for v in g.nodes() {
            let outgoing: Vec<_> = sorted_incident_by_uid(g, uids, v)
                .into_iter()
                .filter(|&e| orientation.is_outgoing(g, e, v))
                .collect();
            let bits = &membership[v.index()];
            if bits.len() != outgoing.len() {
                return Err(DecodeError::malformed(
                    v,
                    format!(
                        "membership track has {} bits but out-degree is {}",
                        bits.len(),
                        outgoing.len()
                    ),
                ));
            }
            for (i, e) in outgoing.into_iter().enumerate() {
                out[e.index()] = bits.get(i);
            }
        }
        // Account the extra round in which heads learn their incoming bits:
        // every node reads exactly its radius-1 view.
        let one_round = RoundStats::from_per_node(vec![1; g.n()]);
        Ok((out, stats.sequential(&one_round)))
    }

    /// Convenience: compress, then decompress, returning everything the
    /// evaluation reports.
    ///
    /// # Errors
    ///
    /// Propagates compression and decompression failures (boxed).
    pub fn round_trip(
        &self,
        net: &Network,
        subset: &[bool],
    ) -> Result<(Vec<bool>, AdviceMap, RoundStats), Box<dyn std::error::Error>> {
        self.round_trip_with(net, subset, &Run::default())
    }

    /// [`EdgeSubsetCodec::round_trip`] with both directions under `run`.
    ///
    /// # Errors
    ///
    /// Propagates compression and decompression failures (boxed).
    pub fn round_trip_with(
        &self,
        net: &Network,
        subset: &[bool],
        run: &Run,
    ) -> Result<(Vec<bool>, AdviceMap, RoundStats), Box<dyn std::error::Error>> {
        let advice = self.compress_with(net, subset, run)?;
        let (decoded, stats) = self.decompress_with(net, &advice, run)?;
        Ok((decoded, advice, stats))
    }

    /// The orientation a given advice map encodes (for inspection).
    ///
    /// # Errors
    ///
    /// See [`BalancedOrientationSchema::decode`].
    pub fn orientation_of(
        &self,
        net: &Network,
        advice: &AdviceMap,
    ) -> Result<Orientation, DecodeError> {
        let (orient_track, _) = self.split(net, advice)?;
        Ok(self.orientation.decode(net, &orient_track)?.0)
    }
}

/// Per-node storage statistics of a compressed edge set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressionStats {
    /// Bits stored at each node.
    pub bits_per_node: Vec<usize>,
    /// Nodes exceeding the paper bound `⌈d/2⌉ + 1` (anchor holders).
    pub over_bound: usize,
    /// Total bits over all nodes.
    pub total_bits: usize,
    /// Total bits of the trivial `d`-bits-per-node encoding (`2m`).
    pub trivial_total: usize,
}

/// Computes storage statistics for a compressed edge set.
pub fn compression_stats(net: &Network, advice: &AdviceMap) -> CompressionStats {
    let g = net.graph();
    let bits_per_node: Vec<usize> = g.nodes().map(|v| advice.get(v).len()).collect();
    let over_bound = g
        .nodes()
        .filter(|&v| advice.get(v).len() > EdgeSubsetCodec::paper_bound(g.degree(v)))
        .count();
    CompressionStats {
        total_bits: bits_per_node.iter().sum(),
        over_bound,
        bits_per_node,
        trivial_total: 2 * g.m(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::{generators, NodeId};
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;

    fn random_subset(m: usize, density: f64, seed: u64) -> Vec<bool> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..m)
            .map(|_| rng.random_range(0.0..1.0) < density)
            .collect()
    }

    #[test]
    fn roundtrip_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::random_bounded_degree(80, 8, 200, seed);
            let m = g.m();
            let net = Network::with_identity_ids(g);
            let subset = random_subset(m, 0.4, seed);
            let codec = EdgeSubsetCodec::default();
            let (decoded, _, _) = codec.round_trip(&net, &subset).unwrap();
            assert_eq!(decoded, subset);
        }
    }

    #[test]
    fn roundtrip_extremes() {
        let g = generators::grid2d(6, 6, true);
        let m = g.m();
        let net = Network::with_identity_ids(g);
        let codec = EdgeSubsetCodec::default();
        for subset in [vec![false; m], vec![true; m]] {
            let (decoded, _, _) = codec.round_trip(&net, &subset).unwrap();
            assert_eq!(decoded, subset);
        }
    }

    #[test]
    fn most_nodes_meet_paper_bound_on_torus() {
        let g = generators::grid2d(10, 10, true); // 4-regular
        let m = g.m();
        let net = Network::with_identity_ids(g.clone());
        let codec = EdgeSubsetCodec::default();
        let advice = codec.compress(&net, &random_subset(m, 0.5, 3)).unwrap();
        let stats = compression_stats(&net, &advice);
        // Only anchor nodes (on long Euler trails) exceed ⌈d/2⌉ + 1 = 3,
        // and anchors are sparse (~ m / spacing of them).
        assert!(
            stats.over_bound <= 2 * m / codec.orientation.anchor_spacing,
            "{} nodes over bound",
            stats.over_bound
        );
        let within = stats
            .bits_per_node
            .iter()
            .filter(|&&b| b <= EdgeSubsetCodec::paper_bound(4))
            .count();
        assert!(within * 10 >= 8 * stats.bits_per_node.len());
        // On a 4-regular graph the paper bound is 3/4 of trivial; with the
        // sparse anchor overhead the total still beats trivial clearly.
        assert!(stats.total_bits < stats.trivial_total);
    }

    #[test]
    fn long_cycle_costs_constant_extra() {
        let g = generators::cycle(500);
        let net = Network::with_identity_ids(g);
        let codec = EdgeSubsetCodec::default();
        let advice = codec.compress(&net, &random_subset(500, 0.5, 9)).unwrap();
        let stats = compression_stats(&net, &advice);
        // Anchor nodes exceed the bound, but only ~n/spacing of them.
        assert!(stats.over_bound <= 500 / codec.orientation.anchor_spacing + 2);
        assert!(stats.bits_per_node.iter().max().unwrap() <= &8);
    }

    #[test]
    fn decompression_is_local() {
        let g = generators::cycle(400);
        let net = Network::with_identity_ids(g);
        let codec = EdgeSubsetCodec::default();
        let subset = random_subset(400, 0.3, 4);
        let (decoded, _, stats) = codec.round_trip(&net, &subset).unwrap();
        assert_eq!(decoded, subset);
        assert!(stats.rounds() <= codec.orientation.decode_radius() + 1);
    }

    #[test]
    fn wrong_length_membership_rejected() {
        let g = generators::grid2d(4, 4, false);
        let m = g.m();
        let net = Network::with_identity_ids(g);
        let codec = EdgeSubsetCodec::default();
        let mut advice = codec.compress(&net, &random_subset(m, 0.5, 5)).unwrap();
        let mut s = advice.get(NodeId(5)).clone();
        s.push(true); // extra membership bit
        advice.set(NodeId(5), s);
        assert!(codec.decompress(&net, &advice).is_err());
    }

    #[test]
    fn orientation_of_matches_decode() {
        let g = generators::random_bounded_degree(50, 6, 100, 11);
        let m = g.m();
        let net = Network::with_identity_ids(g);
        let codec = EdgeSubsetCodec::default();
        let advice = codec.compress(&net, &random_subset(m, 0.5, 6)).unwrap();
        let o = codec.orientation_of(&net, &advice).unwrap();
        assert!(o.is_almost_balanced(net.graph()));
    }
}
