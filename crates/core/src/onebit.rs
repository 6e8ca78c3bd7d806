//! Lemma-2 of the composability framework (Section 9): converting a sparse
//! variable-length schema into a **uniform 1-bit-per-node** schema.
//!
//! The paper's conversion writes each bit-holding node's payload along a
//! path near it, using the self-delimiting code of Section 4
//! (`11110110` marker, `0 → 110`, `1 → 1110`, terminator `0`): since the
//! code never contains four consecutive `1`s after the marker, path starts
//! are recognizable.
//!
//! Here the path is the **deterministic greedy induced walk** from the
//! holder: repeatedly step to the smallest-UID neighbor that is not yet
//! visited and not adjacent to any earlier walk node (so the walk induces
//! a chordless path). The walk depends only on the topology and the
//! identifiers — never on the advice bits — so the decoder recomputes it
//! exactly.
//!
//! Two embedded paths may touch or even share nodes, as long as shared
//! nodes need the same bit; the encoder verifies *decodability* as a
//! whole — it runs the decoder's detection rule centrally and rejects the
//! encoding (rare in practice) if any non-holder would falsely decode as a
//! holder. This check replaces the paper's LLL-style separation argument
//! with an explicit certificate.

use crate::advice::AdviceMap;
use crate::bits::{decode_path_code, encode_path_code, path_code_len, BitString};
use crate::error::{DecodeError, EncodeError};
use crate::schema::AdviceSchema;
use lad_graph::{Graph, NodeId};
use lad_runtime::{Ball, Network, RoundStats, Run};

/// A fixed 64-bit mixer (SplitMix64 finalizer) — shared by encoder and
/// decoder to pick walk steps pseudo-randomly but deterministically.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic greedy induced walk from `start`, up to `len` *nodes*
/// (including `start`). Returns fewer nodes if the walk gets stuck.
///
/// Rule: from the current node, step to the unvisited neighbor that is not
/// adjacent to any earlier walk node (keeping the walk an induced path)
/// and minimizes `mix(uid(start), uid(candidate))`. The salt makes walks
/// from different holders diverge instead of all gravitating toward the
/// globally smallest identifiers; the rule still depends only on topology
/// and identifiers, so the decoder recomputes it exactly.
///
/// A greedy walk can get stuck early (e.g., it runs into a path endpoint);
/// this function therefore tries up to eight salted *variants* and returns
/// the first one reaching `len` nodes — a purely structural ladder the
/// decoder replays identically. If every variant is stuck, the longest
/// variant-0 walk is returned (callers detect the short length).
pub fn greedy_induced_walk(g: &Graph, uids: &[u64], start: NodeId, len: usize) -> Vec<NodeId> {
    let mut first = None;
    for variant in 0..8u64 {
        let walk = greedy_induced_walk_variant(g, uids, start, len, variant);
        if walk.len() >= len {
            return walk;
        }
        if first.is_none() {
            first = Some(walk);
        }
    }
    first.expect("variant 0 always produces a walk")
}

/// One salted variant of the greedy induced walk (see
/// [`greedy_induced_walk`]).
pub fn greedy_induced_walk_variant(
    g: &Graph,
    uids: &[u64],
    start: NodeId,
    len: usize,
    variant: u64,
) -> Vec<NodeId> {
    let salt = mix(uids[start.index()], 0x5a17 ^ variant);
    let mut walk = vec![start];
    let mut on_walk = vec![false; g.n()];
    on_walk[start.index()] = true;
    while walk.len() < len {
        let cur = *walk.last().expect("walk is nonempty");
        let mut best: Option<(u64, NodeId)> = None;
        for &u in g.neighbors(cur) {
            if on_walk[u.index()] {
                continue;
            }
            // u must not be adjacent to any walk node except `cur` — that
            // would create a chord.
            let chord = g
                .neighbors(u)
                .iter()
                .any(|&w| on_walk[w.index()] && w != cur);
            if chord {
                continue;
            }
            let key = mix(salt, uids[u.index()]);
            if best.is_none_or(|(bk, _)| key < bk) {
                best = Some((key, u));
            }
        }
        match best {
            Some((_, u)) => {
                on_walk[u.index()] = true;
                walk.push(u);
            }
            None => break,
        }
    }
    walk
}

/// Uniform 1-bit advice produced by [`to_one_bit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneBitAdvice {
    /// One bit per node.
    pub bits: Vec<bool>,
    /// The code length every decoder walk uses (a schema constant: the
    /// converter pads all codes to this length conceptually by trailing
    /// zeros on the walk).
    pub code_len: usize,
}

impl OneBitAdvice {
    /// The sparsity ratio `n₁ / n` of Definition 3.5.
    pub fn ones_ratio(&self) -> f64 {
        if self.bits.is_empty() {
            return 0.0;
        }
        self.bits.iter().filter(|&&b| b).count() as f64 / self.bits.len() as f64
    }

    /// As an [`AdviceMap`] (uniform 1-bit kind).
    pub fn as_advice_map(&self) -> AdviceMap {
        AdviceMap::from_one_bit(&self.bits)
    }
}

/// Converts sparse variable-length advice into uniform 1-bit advice whose
/// decoder walk length is `path_code_len(max_payload_bits)`.
///
/// A *sufficient* condition for success is that bit-holding nodes are
/// pairwise further than `2 × path_code_len(max_payload_bits)` apart (their
/// walks then cannot meet) — the quantitative form of the paper's
/// "arbitrarily sparse" requirement. Closer holders often still embed; the
/// final decodability check is authoritative either way.
///
/// # Errors
///
/// - [`EncodeError::Unsupported`] if some payload exceeds
///   `max_payload_bits`.
/// - [`EncodeError::PlacementFailed`] if a walk is too short to carry its
///   code, two walks demand different bits of a shared node, or the
///   central decodability check finds a false-positive holder.
pub fn to_one_bit(
    net: &Network,
    advice: &AdviceMap,
    max_payload_bits: usize,
) -> Result<OneBitAdvice, EncodeError> {
    let g = net.graph();
    let uids = net.uids();
    let code_len = path_code_len(max_payload_bits);
    let mut bits: Vec<Option<bool>> = vec![None; g.n()];
    for v in advice.holders() {
        let payload = advice.get(v);
        if payload.len() > max_payload_bits {
            return Err(EncodeError::Unsupported(format!(
                "payload of {v} has {} bits > max {max_payload_bits}",
                payload.len()
            )));
        }
        let code = encode_path_code(&payload);
        let walk = greedy_induced_walk(g, uids, v, code.len());
        if walk.len() < code.len() {
            return Err(EncodeError::PlacementFailed(format!(
                "walk from {v} stuck after {} of {} nodes",
                walk.len(),
                code.len()
            )));
        }
        for (i, &w) in walk.iter().enumerate() {
            let bit = code.get(i);
            match bits[w.index()] {
                None => bits[w.index()] = Some(bit),
                Some(existing) if existing == bit => {}
                Some(_) => {
                    return Err(EncodeError::PlacementFailed(format!(
                        "walks overlap at {w} with conflicting bits"
                    )))
                }
            }
        }
    }
    let bits: Vec<bool> = bits.into_iter().map(|b| b.unwrap_or(false)).collect();
    let out = OneBitAdvice { bits, code_len };
    // Central decodability certificate: detection must recover exactly the
    // original holders and payloads.
    let mut recovered = AdviceMap::empty(g.n());
    for v in g.nodes() {
        if let Some(p) = detect_holder_global(g, uids, &out.bits, v, code_len) {
            recovered.set(v, p);
        }
    }
    if &recovered != advice {
        return Err(EncodeError::PlacementFailed(
            "decodability check failed: detection does not invert the embedding".into(),
        ));
    }
    Ok(out)
}

/// Holder detection on the full graph (encoder-side check).
fn detect_holder_global(
    g: &Graph,
    uids: &[u64],
    bits: &[bool],
    v: NodeId,
    code_len: usize,
) -> Option<BitString> {
    if !bits[v.index()] {
        return None;
    }
    let walk = greedy_induced_walk(g, uids, v, code_len);
    let read: BitString = walk.iter().map(|&w| bits[w.index()]).collect();
    decode_path_code(&read)
}

/// Holder detection inside a ball view (decoder side). The ball must have
/// radius at least `code_len + 1`.
fn detect_holder_local(ball: &Ball<bool>, code_len: usize) -> Option<BitString> {
    let c = ball.center();
    if !ball.input(c) {
        return None;
    }
    let walk = greedy_induced_walk(ball.graph(), ball.uids(), c, code_len);
    let read: BitString = walk.iter().map(|&w| *ball.input(w)).collect();
    decode_path_code(&read)
}

/// Reconstructs the variable-length advice from uniform 1-bit advice: each
/// node determines whether it is a holder and, if so, its payload. Runs in
/// `code_len + 1` rounds, fanning out under `run`.
///
/// This direction cannot fail (detection simply yields no holders on
/// garbage input); downstream schema decoders are responsible for
/// rejecting wrong payloads.
pub fn from_one_bit(net: &Network, one_bit: &OneBitAdvice, run: &Run) -> (AdviceMap, RoundStats) {
    let g = net.graph();
    let advised = net.with_inputs(one_bit.bits.clone());
    let radius = one_bit.code_len + 1;
    let (payloads, stats) = run.nodes(&advised, |ctx| {
        let ball = ctx.ball(radius);
        detect_holder_local(&ball, one_bit.code_len)
    });
    let mut advice = AdviceMap::empty(g.n());
    for (v, p) in g.nodes().zip(payloads) {
        if let Some(p) = p {
            advice.set(v, p);
        }
    }
    (advice, stats)
}

/// A schema wrapper applying the Lemma-2 conversion to any base schema:
/// the base schema's variable-length advice is embedded as uniform 1-bit
/// advice; decoding first reconstructs the variable-length advice, then
/// runs the base decoder.
#[derive(Debug, Clone)]
pub struct OneBitSchema<S> {
    /// The underlying variable-length schema.
    pub base: S,
    /// The maximum payload (in bits) any node of the base schema may hold;
    /// fixes the decoder's walk length.
    pub max_payload_bits: usize,
}

impl<S> OneBitSchema<S> {
    /// Wraps `base` with a payload bound.
    pub fn new(base: S, max_payload_bits: usize) -> Self {
        OneBitSchema {
            base,
            max_payload_bits,
        }
    }

    /// The walk/code length of the embedded encoding.
    pub fn code_len(&self) -> usize {
        path_code_len(self.max_payload_bits)
    }
}

impl<S: AdviceSchema> AdviceSchema for OneBitSchema<S> {
    type Output = S::Output;

    fn name(&self) -> String {
        format!("one-bit({})", self.base.name())
    }

    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError> {
        let var = self.base.encode_with(net, run)?;
        let one = to_one_bit(net, &var, self.max_payload_bits)?;
        Ok(one.as_advice_map())
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Self::Output, RoundStats), DecodeError> {
        let n = net.graph().n();
        if advice.n() != n {
            return Err(DecodeError::Inconsistent(
                "advice covers a different node count".into(),
            ));
        }
        let mut bits = Vec::with_capacity(n);
        for v in net.graph().nodes() {
            let s = advice.get(v);
            if s.len() != 1 {
                return Err(DecodeError::malformed(v, "expected exactly one bit"));
            }
            bits.push(s.get(0));
        }
        let one = OneBitAdvice {
            bits,
            code_len: self.code_len(),
        };
        let (var, stats1) = from_one_bit(net, &one, run);
        let (out, stats2) = self.base.decode_with(net, &var, run)?;
        Ok((out, stats1.sequential(&stats2)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced::BalancedOrientationSchema;
    use lad_graph::generators;

    #[test]
    fn walk_on_cycle_follows_the_cycle() {
        let g = generators::cycle(12);
        let uids: Vec<u64> = (1..=12).collect();
        let walk = greedy_induced_walk(&g, &uids, NodeId(5), 5);
        assert_eq!(walk.len(), 5);
        assert_eq!(walk[0], NodeId(5));
        for w in walk.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        // Deterministic.
        assert_eq!(walk, greedy_induced_walk(&g, &uids, NodeId(5), 5));
    }

    #[test]
    fn walk_is_induced() {
        for seed in 0..5 {
            let g = generators::random_bounded_degree(100, 6, 250, seed);
            let uids: Vec<u64> = (1..=100).collect();
            let walk = greedy_induced_walk(&g, &uids, NodeId(0), 20);
            for i in 0..walk.len() {
                for j in i + 2..walk.len() {
                    assert!(
                        !g.has_edge(walk[i], walk[j]),
                        "chord {:?}-{:?} in walk",
                        walk[i],
                        walk[j]
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_single_holder() {
        let g = generators::cycle(80);
        let net = Network::with_identity_ids(g);
        let mut advice = AdviceMap::empty(80);
        advice.set(NodeId(30), BitString::parse("10110"));
        let one = to_one_bit(&net, &advice, 6).unwrap();
        let (recovered, stats) = from_one_bit(&net, &one, &Run::default());
        assert_eq!(recovered, advice);
        assert_eq!(stats.rounds(), one.code_len + 1);
    }

    #[test]
    fn roundtrip_multiple_holders() {
        // Holders pairwise further apart than 2 × code length: their walks
        // cannot meet, so the embedding is guaranteed to succeed.
        let g = generators::cycle(240);
        let net = Network::with_identity_ids(g);
        let mut advice = AdviceMap::empty(240);
        advice.set(NodeId(5), BitString::parse("1"));
        advice.set(NodeId(80), BitString::parse("0011"));
        advice.set(NodeId(160), BitString::parse("11"));
        let one = to_one_bit(&net, &advice, 4).unwrap();
        let (recovered, _) = from_one_bit(&net, &one, &Run::default());
        assert_eq!(recovered, advice);
        assert!(one.ones_ratio() < 0.2);
    }

    #[test]
    fn grid_holders_far_apart() {
        let g = generators::grid2d(20, 20, false);
        let net = Network::with_identity_ids(g);
        let mut advice = AdviceMap::empty(400);
        advice.set(NodeId(0), BitString::parse("1")); // corner (0,0)
        advice.set(NodeId(399), BitString::parse("0")); // corner (19,19)
        let one = to_one_bit(&net, &advice, 1).unwrap();
        let (recovered, _) = from_one_bit(&net, &one, &Run::default());
        assert_eq!(recovered, advice);
    }

    #[test]
    fn payload_too_long_rejected() {
        let g = generators::cycle(40);
        let net = Network::with_identity_ids(g);
        let mut advice = AdviceMap::empty(40);
        advice.set(NodeId(0), BitString::parse("10101"));
        let err = to_one_bit(&net, &advice, 3).unwrap_err();
        assert!(matches!(err, EncodeError::Unsupported(_)));
    }

    #[test]
    fn walk_too_short_rejected() {
        // A tiny path cannot carry a long code.
        let g = generators::path(5);
        let net = Network::with_identity_ids(g);
        let mut advice = AdviceMap::empty(5);
        advice.set(NodeId(0), BitString::parse("1111"));
        let err = to_one_bit(&net, &advice, 4).unwrap_err();
        assert!(matches!(err, EncodeError::PlacementFailed(_)));
    }

    #[test]
    fn one_bit_balanced_orientation_end_to_end() {
        // The composed schema: balanced orientation -> 1 bit per node.
        let net = Network::with_identity_ids(generators::cycle(240));
        let base = BalancedOrientationSchema::new(16, 60);
        // Anchors every 60 on the single long cycle: payload is one
        // 2-bit record (slot width 1 + direction 1).
        let schema = OneBitSchema::new(base, 2);
        let advice = schema.encode(&net).unwrap();
        assert_eq!(
            advice.kind(),
            crate::advice::AdviceKind::UniformFixedLength { bits: 1 }
        );
        let (o, stats) = schema.decode(&net, &advice).unwrap();
        assert!(o.is_almost_balanced(net.graph()));
        assert!(stats.rounds() < 240 / 2);
        // Sparse: each anchor's code is ~17 bits of which ~60% are ones.
        let ratio = advice.one_ratio().unwrap();
        assert!(ratio < 0.25, "ones ratio {ratio}");
    }

    #[test]
    fn sparsity_improves_with_spacing() {
        let net = Network::with_identity_ids(generators::cycle(600));
        let tight = OneBitSchema::new(BalancedOrientationSchema::new(16, 30), 2);
        let loose = OneBitSchema::new(BalancedOrientationSchema::new(16, 120), 2);
        let r_tight = tight.encode(&net).unwrap().one_ratio().unwrap();
        let r_loose = loose.encode(&net).unwrap().one_ratio().unwrap();
        assert!(r_loose < r_tight);
    }

    #[test]
    fn empty_advice_converts_to_all_zeros() {
        let net = Network::with_identity_ids(generators::cycle(30));
        let advice = AdviceMap::empty(30);
        let one = to_one_bit(&net, &advice, 4).unwrap();
        assert_eq!(one.ones_ratio(), 0.0);
        let (recovered, _) = from_one_bit(&net, &one, &Run::default());
        assert_eq!(recovered, advice);
    }
}
