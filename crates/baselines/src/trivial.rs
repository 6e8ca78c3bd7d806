//! Trivial advice schemas: encode the whole solution directly.

use lad_core::advice::AdviceMap;
use lad_core::bits::{bit_width, BitReader, BitString};
use lad_core::error::{DecodeError, EncodeError};
use lad_core::schema::AdviceSchema;
use lad_graph::orientation::sorted_incident_by_uid;
use lad_graph::{EulerPartition, Orientation};
use lad_lcl::witness::proper_coloring_witness;
use lad_runtime::{run_local_fallible, Network, RoundStats, Run};

/// The trivial `k`-coloring schema: every node stores its own color in
/// `⌈log₂ k⌉` bits; decoding reads the node's own advice (0 rounds).
///
/// For `k = 3` this is the paper's introductory "β = 2 bits suffice
/// trivially" baseline.
///
/// # Example
///
/// ```
/// use lad_baselines::trivial::TrivialColoringSchema;
/// use lad_core::schema::AdviceSchema;
/// use lad_graph::{coloring, generators};
/// use lad_runtime::Network;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::with_identity_ids(generators::cycle(12));
/// let schema = TrivialColoringSchema::new(3, 100_000);
/// let advice = schema.encode(&net)?;
/// assert_eq!(advice.max_bits(), 2);
/// let (colors, stats) = schema.decode(&net, &advice)?;
/// assert!(coloring::is_proper_k_coloring(net.graph(), &colors, 3));
/// assert_eq!(stats.rounds(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrivialColoringSchema {
    k: usize,
    witness_cap: u64,
}

impl TrivialColoringSchema {
    /// A schema for `k` colors with a witness search budget.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, witness_cap: u64) -> Self {
        assert!(k > 0);
        TrivialColoringSchema { k, witness_cap }
    }

    /// Bits per node.
    pub fn beta(&self) -> usize {
        bit_width(self.k)
    }
}

impl AdviceSchema for TrivialColoringSchema {
    type Output = Vec<usize>;

    fn name(&self) -> String {
        format!("trivial {}-coloring", self.k)
    }

    fn encode_with(&self, net: &Network, _run: &Run) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let colors = proper_coloring_witness(g, net.uids(), self.k, self.witness_cap).map_err(
            |e| match e {
                lad_lcl::brute::CompleteError::NoSolution => {
                    EncodeError::SolutionDoesNotExist(format!("graph is not {}-colorable", self.k))
                }
                lad_lcl::brute::CompleteError::CapExceeded { cap } => {
                    EncodeError::SearchBudgetExceeded(format!("witness cap {cap}"))
                }
            },
        )?;
        let width = self.beta();
        let mut advice = AdviceMap::empty(g.n());
        for v in g.nodes() {
            let mut bits = BitString::new();
            bits.push_uint(colors[v.index()] as u64, width);
            advice.set(v, bits);
        }
        Ok(advice)
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        _run: &Run,
    ) -> Result<(Vec<usize>, RoundStats), DecodeError> {
        let width = self.beta();
        let k = self.k;
        let advised = net.with_inputs(advice.strings());
        let (colors, stats) = run_local_fallible(&advised, |ctx| {
            let bits = ctx.input().clone();
            if bits.len() != width {
                return Err(DecodeError::malformed(ctx.node(), "wrong advice width"));
            }
            let c = BitReader::new(&bits).read_uint(width).expect("width") as usize;
            if c >= k {
                return Err(DecodeError::malformed(ctx.node(), "color out of range"));
            }
            Ok(c)
        })?;
        Ok((colors, stats))
    }
}

/// The trivial edge-subset encoding: every node stores one membership bit
/// per *incident* edge (in UID order) — `d` bits at a degree-`d` node,
/// twice the information-theoretic need. The Contribution-4 codec halves
/// this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrivialEdgeSubsetCodec;

impl TrivialEdgeSubsetCodec {
    /// Compresses a subset at `d` bits per node.
    ///
    /// # Panics
    ///
    /// Panics if `subset.len()` differs from the edge count.
    pub fn compress(&self, net: &Network, subset: &[bool]) -> AdviceMap {
        let g = net.graph();
        assert_eq!(subset.len(), g.m());
        let uids = net.uids();
        let mut advice = AdviceMap::empty(g.n());
        for v in g.nodes() {
            let mut bits = BitString::new();
            for e in sorted_incident_by_uid(g, uids, v) {
                bits.push(subset[e.index()]);
            }
            advice.set(v, bits);
        }
        advice
    }

    /// Decompresses (0 rounds: every node knows its incident memberships).
    ///
    /// # Errors
    ///
    /// Rejects advice of the wrong per-node length or with endpoints
    /// disagreeing about an edge.
    pub fn decompress(&self, net: &Network, advice: &AdviceMap) -> Result<Vec<bool>, DecodeError> {
        let g = net.graph();
        let uids = net.uids();
        let mut out: Vec<Option<bool>> = vec![None; g.m()];
        for v in g.nodes() {
            let bits = advice.get(v);
            let incident = sorted_incident_by_uid(g, uids, v);
            if bits.len() != incident.len() {
                return Err(DecodeError::malformed(v, "wrong advice length"));
            }
            for (i, e) in incident.into_iter().enumerate() {
                let b = bits.get(i);
                match out[e.index()] {
                    None => out[e.index()] = Some(b),
                    Some(prev) if prev == b => {}
                    Some(_) => {
                        return Err(DecodeError::Inconsistent(format!(
                            "endpoints of {e:?} disagree"
                        )))
                    }
                }
            }
        }
        Ok(out.into_iter().map(|b| b.unwrap_or(false)).collect())
    }
}

/// The trivial orientation advice: every node stores one bit per incident
/// edge ("is it outgoing?") — `d` bits per node versus the schema's 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrivialOrientationSchema;

impl AdviceSchema for TrivialOrientationSchema {
    type Output = Orientation;

    fn name(&self) -> String {
        "trivial orientation (d bits/node)".into()
    }

    fn encode_with(&self, net: &Network, _run: &Run) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let uids = net.uids();
        let o = EulerPartition::new(g, uids).orient_all_forward(g);
        let mut advice = AdviceMap::empty(g.n());
        for v in g.nodes() {
            let mut bits = BitString::new();
            for e in sorted_incident_by_uid(g, uids, v) {
                bits.push(o.is_outgoing(g, e, v));
            }
            advice.set(v, bits);
        }
        Ok(advice)
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        _run: &Run,
    ) -> Result<(Orientation, RoundStats), DecodeError> {
        let g = net.graph();
        let uids = net.uids();
        let mut o = Orientation::new(g.m());
        let mut seen: Vec<Option<bool>> = vec![None; g.m()];
        for v in g.nodes() {
            let bits = advice.get(v);
            let incident = sorted_incident_by_uid(g, uids, v);
            if bits.len() != incident.len() {
                return Err(DecodeError::malformed(v, "wrong advice length"));
            }
            for (i, e) in incident.into_iter().enumerate() {
                let out_of_v = bits.get(i);
                let (lo, hi) = g.endpoints(e);
                let toward_higher = if v == lo { out_of_v } else { !out_of_v };
                match seen[e.index()] {
                    None => {
                        seen[e.index()] = Some(toward_higher);
                        if toward_higher {
                            o.set(g, e, lo, hi);
                        } else {
                            o.set(g, e, hi, lo);
                        }
                    }
                    Some(prev) if prev == toward_higher => {}
                    Some(_) => {
                        return Err(DecodeError::Inconsistent(format!(
                            "endpoints of {e:?} disagree"
                        )))
                    }
                }
            }
        }
        // 0 rounds: nothing was gathered.
        Ok((o, RoundStats::zero(g.n())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn trivial_coloring_roundtrip() {
        let net = Network::with_identity_ids(generators::cycle(15));
        let schema = TrivialColoringSchema::new(3, 1_000_000);
        let advice = schema.encode(&net).unwrap();
        assert_eq!(advice.max_bits(), 2);
        let (colors, stats) = schema.decode(&net, &advice).unwrap();
        assert!(lad_graph::coloring::is_proper_k_coloring(
            net.graph(),
            &colors,
            3
        ));
        assert_eq!(stats.rounds(), 0);
    }

    #[test]
    fn trivial_coloring_rejects_garbage() {
        let net = Network::with_identity_ids(generators::cycle(6));
        let schema = TrivialColoringSchema::new(3, 1000);
        let mut advice = schema.encode(&net).unwrap();
        advice.set(lad_graph::NodeId(0), BitString::parse("11")); // color 3
        assert!(schema.decode(&net, &advice).is_err());
    }

    #[test]
    fn trivial_subset_roundtrip_costs_d_bits() {
        let g = generators::grid2d(5, 5, true);
        let m = g.m();
        let net = Network::with_identity_ids(g);
        let subset: Vec<bool> = (0..m).map(|i| i % 2 == 0).collect();
        let codec = TrivialEdgeSubsetCodec;
        let advice = codec.compress(&net, &subset);
        for v in net.graph().nodes() {
            assert_eq!(advice.get(v).len(), net.graph().degree(v));
        }
        assert_eq!(codec.decompress(&net, &advice).unwrap(), subset);
    }

    #[test]
    fn trivial_orientation_zero_rounds() {
        let net = Network::with_identity_ids(generators::random_bounded_degree(40, 6, 80, 1));
        let schema = TrivialOrientationSchema;
        let advice = schema.encode(&net).unwrap();
        let (o, stats) = schema.decode(&net, &advice).unwrap();
        assert!(o.is_almost_balanced(net.graph()));
        assert_eq!(stats.rounds(), 0);
        // d bits per node.
        for v in net.graph().nodes() {
            assert_eq!(advice.get(v).len(), net.graph().degree(v));
        }
    }
}
